"""Self-tests of the benchmark harness: percentiles, self time, and the
wrappers of the traced run."""

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bootstrap  # noqa: E402

bootstrap.add_source_path()

import report  # noqa: E402
import tracing  # noqa: E402
from mmasr import encoder, layers, tensor  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        report.percentile(list(range(99)), 90)
    assert report.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        report.percentile(list(range(19)), 50)
    assert report.percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_self_time_of_nested_spans():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [15, 25).
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([100, 30, 10, 10])
    assert tracing.self_time(parent, duration).tolist() == [60, 20, 10, 10]


def test_tracer_records_nesting_and_tensor_ops():
    def leaf(x):
        return x + 1

    def outer(x):
        return leaf(leaf(x))

    tracer = tracing.Tracer()
    leaf_t = tracer.wrap(leaf, tracing.Target("t.leaf", tensor_op=True))
    outer_t = tracer.wrap(lambda x: leaf_t(leaf_t(x)), tracing.Target("t.outer"))
    tracer.current_op = 0
    assert outer_t(1) == outer(1)
    spans = tracer.spans()
    assert [spans.names[c] for c in spans.code] == ["t.outer", "t.leaf", "t.leaf"]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert spans.ops_in.tolist() == [2, 1, 1]
    own = spans.self_time()
    assert own[0] == spans.duration[0] - spans.duration[1] - spans.duration[2]


def test_install_wraps_every_binding_and_uninstall_restores():
    def op(x):
        return x + 1

    def apply(x, act=op):
        return act(x)

    class Box:
        def step(self):
            return 1

    step = Box.step
    home = types.ModuleType("home")
    home.op, home.apply = op, apply
    user = types.ModuleType("user")
    user.op = user.alias = op
    tracer = tracing.Tracer()
    tracer.install([home, user], {op: tracing.Target("t.op", tensor_op=True)},
                   [(Box, "step", tracing.Target("t.step"))])
    try:
        wrapped = home.op
        assert wrapped is not op and wrapped.__wrapped__ is op
        assert user.op is wrapped and user.alias is wrapped
        assert apply.__defaults__ == (wrapped,)
        assert Box.step.__wrapped__ is step
        tracer.current_op = 0
        assert home.apply(1) == 2 and Box().step() == 1
    finally:
        tracer.uninstall()
    assert home.op is op and user.op is op and user.alias is op
    assert apply.__defaults__ == (op,) and Box.step is step
    spans = tracer.spans()
    assert [spans.names[c] for c in spans.code] == ["t.op", "t.step"]


def _bound_values(modules):
    """Every value a module attribute or a default argument of a module's
    function (the traced one, if it is wrapped) holds."""
    for module in modules:
        for value in vars(module).values():
            yield value
            fn = getattr(value, "__wrapped__", value)
            if isinstance(fn, types.FunctionType):
                yield from fn.__defaults__ or ()
                yield from (fn.__kwdefaults__ or {}).values()


def test_trace_plan_leaves_no_mmasr_binding_unwrapped():
    modules, targets, methods = report.trace_plan()
    before = [id(v) for v in _bound_values(modules)]
    originals = [cls.__dict__[attr] for cls, attr, _ in methods]
    target_ids = {id(fn) for fn in targets}
    tracer = tracing.Tracer()
    tracer.install(modules, targets, methods)
    try:
        assert not [v for v in _bound_values(modules) if id(v) in target_ids]
        for fn in targets:
            home = sys.modules[fn.__module__]
            assert getattr(home, fn.__name__).__wrapped__ is fn
        for (cls, attr, _), original in zip(methods, originals):
            assert cls.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    assert [id(v) for v in _bound_values(modules)] == before
    assert [cls.__dict__[attr] for cls, attr, _ in methods] == originals


def test_traced_calls_are_spans_that_count_their_tensor_ops():
    rng = np.random.default_rng(0)
    params = layers.init_attention_params(8, 2, rng)
    x = tensor.Tensor(rng.normal(size=(3, 8)))
    plain = layers.attention(x, x, x, params).data
    tracer = tracing.Tracer()
    tracer.install(*report.trace_plan())
    try:
        tracer.current_op = 0
        traced = encoder.attention(x, x, x, params).data
    finally:
        tracer.uninstall()
    assert np.array_equal(plain, traced)
    spans = tracer.spans()
    root = spans.parent == -1
    assert [spans.names[c] for c in spans.code[root]] == ["layers.attention"]
    tensor_ops = sum(spans.names[c].startswith("tensor.") for c in spans.code)
    assert tensor_ops > 0
    assert spans.ops_in[root].tolist() == [tensor_ops]
