"""What the traced run wraps, the metrics computed from its spans, the
percentile helper and the environment record.

Layers are mmasr's modules. ``cli`` is not measured: it only parses
arguments over the same calls. ``model``, ``errors`` and ``gradsuite`` hold
containers, exceptions and a test tool.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
import platform
import subprocess
import sys
import types

import numpy as np

import bootstrap
from tracing import OUTSIDE, SETUP, Target

LAYERS = ("tensor", "layers", "encoder", "visual", "decoder", "ctc", "train",
          "data", "metrics")
# Public tensor functions that are not one graph node each: conversions,
# leaf constructors, the test tool, and ``sub``, which is add + scale.
NOT_TENSOR_OPS = {"as_tensor", "zeros", "full", "grad_check", "sub"}
REPORTED_TENSOR_OPS = ("matmul", "slice_cols", "concat_cols", "transpose",
                       "softmax_rows", "slice_rows", "concat_rows", "logaddexp",
                       "take_entries", "add", "mul", "scale")
LAYER_FUNCTIONS = ("attention", "layer_norm", "feed_forward", "conv_module")
# The spans directly below one operation that must cover its wall time.
OP_CHILDREN = {
    "train.train_step": ("train.utterance_losses", "tensor.backward",
                         "train.Adam.step"),
    "train.decode_utterance": ("encoder.encode_audio", "visual.encode_visual",
                               "decoder.beam_decode"),
}
MIN_COVERAGE = 0.9


def percentile(values, pct):
    """Linear-interpolated percentile; refuses one with fewer than ten
    samples beyond it (p90 needs 100 samples, p50 needs 20)."""
    n = len(values)
    if n * (100 - pct) < 1000:
        raise ValueError(f"p{pct} needs at least ten samples beyond it; got {n} samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


RATIO_METRICS = ("decoder.positions_per_token", "train.skipped", "train.repeat_share",
                 "trace.coverage", "trace.overhead")


def layer_unit(name):
    if name.endswith("ms"):
        return "ms"
    return "ratio" if name in RATIO_METRICS else "count"


# --- what the traced run wraps ------------------------------------------

def _frames(tracer, args, result):
    tracer.count("encoder.frames", result.t_len)


def _ocr_tokens(tracer, args, result):
    tracer.count("visual.tokens", len(args["ocr_tokens"]))


def _positions(tracer, args, result):
    tracer.count("decoder.positions", len(args["targets_in"]))


def _beam(tracer, args, result):
    # A hypothesis that reached max_len ended without EOS.
    hit = len(result.tokens) >= args["max_len"]
    tracer.count("decoder.hit_max_len", int(hit))
    tracer.count("decoder.emitted", len(result.tokens) + (0 if hit else 1))


def _step(tracer, args, result):
    tracer.count("train.skipped", result["skipped"])
    tracer.count("train.utterances", len(args["batch"]))


PROBES = {
    "encoder.encode_audio": _frames,
    "visual.encode_visual": _ocr_tokens,
    "decoder.decoder_forward": _positions,
    "decoder.beam_decode": _beam,
    "train.train_step": _step,
}


def trace_plan():
    """(modules to scan, function targets, method targets) for Tracer.install:
    every public function of every layer, at every loaded mmasr module."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"mmasr.{layer}")
        for attr, fn in vars(module).items():
            if (not isinstance(fn, types.FunctionType) or attr.startswith("_")
                    or fn.__module__ != module.__name__):
                continue
            if layer == "tensor" and attr in NOT_TENSOR_OPS:
                continue
            name = f"{layer}.{attr}"
            targets[fn] = Target(name, tensor_op=layer == "tensor", probe=PROBES.get(name))
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "mmasr" or n.startswith("mmasr.")]
    tensor, train = sys.modules["mmasr.tensor"], sys.modules["mmasr.train"]
    methods = [(tensor.Tensor, "backward", Target("tensor.backward")),
               (train.Adam, "step", Target("train.Adam.step"))]
    return modules, targets, methods


# --- metrics from spans --------------------------------------------------

def op_root(spans):
    return (spans.parent == -1) & (spans.op >= 0)


def coverage(spans, op_name):
    """Share of the operations' wall time that their direct child spans
    named in OP_CHILDREN cover."""
    root = op_root(spans) & spans.mask(op_name)
    kids = np.zeros(len(spans.code), dtype=bool)
    for name in OP_CHILDREN[op_name]:
        kids |= spans.mask(name)
    has_parent = spans.parent >= 0
    direct = kids & has_parent & root[np.where(has_parent, spans.parent, 0)]
    return spans.duration[direct].sum() / spans.duration[root].sum()


def per_layer_metrics(spans, counters, n_ops, extra):
    """Per-operation layer metrics of a traced run; zero where a layer is idle."""
    inside = spans.op >= 0
    own = spans.self_time()

    def sel(name, where=inside):
        return spans.mask(name) & where

    def ms(name, where=inside, per=n_ops):
        return float(spans.duration[sel(name, where)].sum()) / 1e6 / per

    def calls(name):
        return float(sel(name).sum()) / n_ops

    def counter(name):
        return counters.get(name, 0) / n_ops

    tensor_codes = [i for i, n in enumerate(spans.names)
                    if n.startswith("tensor.") and n != "tensor.backward"]
    out = {"tensor.ops": float((np.isin(spans.code, tensor_codes) & inside).sum()) / n_ops}
    for op in REPORTED_TENSOR_OPS:
        out[f"tensor.ops.{op}"] = calls(f"tensor.{op}")
    out["tensor.backward_ms"] = ms("tensor.backward")
    for fn in LAYER_FUNCTIONS:
        name = f"layers.{fn}"
        out[f"{name}.ms"] = ms(name)
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.ops"] = float(spans.ops_in[sel(name)].sum()) / n_ops
    out["layers.embed.ms"] = ms("layers.embed")
    out["encoder.encode_audio.ms"] = ms("encoder.encode_audio")
    out["encoder.ctc_head.ms"] = ms("encoder.ctc_head")
    out["encoder.frames"] = counter("encoder.frames")
    out["visual.encode_visual.ms"] = ms("visual.encode_visual")
    out["visual.encode_visual.calls"] = calls("visual.encode_visual")
    out["visual.tokens"] = counter("visual.tokens")
    out["decoder.decoder_forward.ms"] = ms("decoder.decoder_forward")
    out["decoder.decoder_forward.calls"] = calls("decoder.decoder_forward")
    out["decoder.positions"] = counter("decoder.positions")
    emitted = counters.get("decoder.emitted", 0)
    out["decoder.positions_per_token"] = (
        counters.get("decoder.positions", 0) / emitted if emitted else 0.0)
    out["decoder.beam_decode.self_ms"] = (
        float(own[sel("decoder.beam_decode")].sum()) / 1e6 / n_ops)
    out["decoder.emitted"] = counter("decoder.emitted")
    out["decoder.hit_max_len"] = counter("decoder.hit_max_len")
    out["ctc.ctc_loss.ms"] = ms("ctc.ctc_loss")
    out["ctc.ctc_loss.ops"] = float(spans.ops_in[sel("ctc.ctc_loss")].sum()) / n_ops
    out["train.forward_ms"] = ms("train.utterance_losses")
    out["train.adam_ms"] = ms("train.Adam.step")
    utterances = counters.get("train.utterances", 0)
    out["train.skipped"] = counters.get("train.skipped", 0) / utterances if utterances else 0.0
    out["train.repeat_share"] = extra["repeat_share"]
    out["train.load_checkpoint.ms"] = ms("train.load_checkpoint", spans.op == SETUP, 1)
    out["data.setup_ms"] = outermost_ms(spans, "data.", spans.op == SETUP)
    out["metrics.align_edit.ms"] = ms("metrics.align_edit", spans.op == OUTSIDE)
    out["trace.coverage"] = extra["coverage"]
    out["trace.overhead"] = extra["overhead"]
    return out


def outermost_ms(spans, prefix, where):
    """Time in spans named ``prefix*`` whose parent is not such a span."""
    layer = np.array([n.startswith(prefix) for n in spans.names], dtype=bool)
    if not layer.any():
        return 0.0
    mine = layer[spans.code] & where
    parent_mine = np.zeros(len(spans.code), dtype=bool)
    has_parent = spans.parent >= 0
    parent_mine[has_parent] = layer[spans.code[spans.parent[has_parent]]]
    return float(spans.duration[mine & ~parent_mine].sum()) / 1e6


# --- environment ----------------------------------------------------------

def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def _git_commit(root):
    """HEAD of the checkout, or None outside a git repository. git does not
    look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines(src):
    total = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, "rb") as f:
            total += sum(1 for _ in f)
    return total


def environment():
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(bootstrap.ROOT),
        "src_lines": _src_lines(bootstrap.SRC),
    }
