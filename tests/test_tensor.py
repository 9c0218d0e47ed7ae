"""Autodiff core: oracles for forward values, finite differences for grads."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmasr import tensor as tn
from mmasr.ctc import ctc_loss
from mmasr.errors import ContractError, NumericError, ShapeError
from mmasr.gradsuite import grad_check, param_grad_check
from mmasr.layers import (MASK_PENALTY, LayerNormParams, causal_mask, init_layer_norm,
                          key_mask)
from mmasr.tensor import Tensor

RNG = np.random.default_rng(1234)


def matmul_loops(a, b):
    """Triple-loop reference, accumulating in the same j-order as BLAS-free numpy."""
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def test_matmul_matches_loop_oracle():
    a = RNG.standard_normal((4, 3))
    b = RNG.standard_normal((3, 5))
    got = tn.matmul(Tensor(a), Tensor(b)).data
    assert np.allclose(got, matmul_loops(a, b), rtol=0, atol=1e-12)


def test_matmul_identity_and_zero():
    a = RNG.standard_normal((3, 3))
    assert np.array_equal(tn.matmul(Tensor(a), Tensor(np.eye(3))).data, a)
    z = tn.matmul(Tensor(a), Tensor(np.zeros((3, 2)))).data
    assert np.array_equal(z, np.zeros((3, 2)))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        tn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_associativity():
    for _ in range(20):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 5))
        c = RNG.standard_normal((5, 2))
        left = tn.matmul(tn.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = tn.matmul(Tensor(a), tn.matmul(Tensor(b), Tensor(c))).data
        denom = np.maximum(np.abs(left), 1.0)
        assert np.max(np.abs(left - right) / denom) < 1e-9


def softmax_by_attention(scores):
    """The attention weights of fused attention over ``scores`` [R x n],
    n <= 16: one head of width 16 (scores scaled by 1/4), queries
    4 * scores, identity projections and unit keys and values. Every step
    but the softmax is exact, so the output is the node's softmax."""
    n = scores.shape[-1]
    q = tn.matmul(scores, Tensor(4.0 * np.eye(n, 16)))
    units = Tensor(np.eye(16)[:n])
    out = tn.attention(q, units, units, [Tensor(np.eye(16)) for _ in range(4)], 1)
    return tn.matmul(out, Tensor(np.eye(16, n)))


def test_softmax_frozen_extended_precision_values():
    # softmax([1, 2, 3]) computed at 60 decimal digits, rounded to float64
    expected = np.array([
        0.0900305731703804579980221,
        0.2447284710547976524729596,
        0.6652409557748218895290183,
    ])
    got = softmax_by_attention(Tensor([[1.0, 2.0, 3.0]])).data[0]
    assert np.max(np.abs(got - expected)) < 1e-15


def test_softmax_uniform_row():
    got = softmax_by_attention(Tensor([[2.0, 2.0, 2.0, 2.0]])).data[0]
    assert np.allclose(got, 0.25, atol=1e-15)


def test_softmax_shift_invariance():
    x = RNG.standard_normal((3, 5))
    a = softmax_by_attention(Tensor(x)).data
    b = softmax_by_attention(Tensor(x + 123.456)).data
    assert np.max(np.abs(a - b)) < 1e-12


@given(st.floats(min_value=-1e4, max_value=1e4), st.floats(min_value=-1e4, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_sum_to_one_at_large_magnitude(lo, hi):
    x = np.array([[lo, hi, (lo + hi) / 2.0, 0.0]])
    s = softmax_by_attention(Tensor(x)).data.sum()
    assert abs(s - 1.0) < 1e-12


def test_softmax_rejects_non_finite():
    # inf * 0 in the exact steps is nan: both reach the softmax check
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="softmax input"):
        softmax_by_attention(Tensor([[1.0, np.inf]]))
    with pytest.raises(NumericError):
        tn.log_softmax_rows(Tensor([[np.nan, 0.0]]))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("key0", ["seen", "far below the max", "hidden"])
def test_attend_matches_a_float64_softmax_on_either_path(dtype, tol, key0):
    """A row is shifted by its key-0 score unless key 0 sits 100 below the
    rest (past exp's float32 range) or is hidden, as a mask's penalty does;
    then by its max. Neither path overflows."""
    qh, kh, vh = (RNG.standard_normal(s) for s in ((2, 3, 4, 5), (2, 3, 5, 6), (2, 3, 6, 5)))
    penalty = np.zeros((4, 6))
    penalty[:, 0] = {"seen": 0.0, "far below the max": -100.0, "hidden": MASK_PENALTY}[key0]
    qh, kh, vh = (x.astype(dtype) for x in (qh, kh, vh))
    with np.errstate(over="raise", invalid="raise"):
        probs, heads = tn._attend(qh, kh, vh, penalty)
    scores = qh.astype(np.float64) @ kh.astype(np.float64) / math.sqrt(5) + penalty
    want = np.exp(scores - scores.max(axis=-1, keepdims=True))
    want /= want.sum(axis=-1, keepdims=True)
    assert probs.dtype == heads.dtype == dtype
    assert np.max(np.abs(probs - want)) < tol
    assert np.array_equal(heads, probs @ vh)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", [(7,), (2, 3, 4, 5), (3, 0), (0, 5), (2, 0, 4, 3)])
def test_row_sums_are_numpy_sums_over_a_read_only_column(dtype, tol, shape):
    a = RNG.standard_normal(shape).astype(dtype)
    got, want = tn._row_sums(a), np.add.reduce(a, axis=-1, keepdims=True)
    assert got.shape == want.shape and got.dtype == dtype
    assert np.allclose(got, want, rtol=0.0, atol=tol)
    assert tn._ONES and not any(col.flags.writeable for col in tn._ONES.values())


def test_log_softmax_matches_log_of_softmax():
    x = RNG.standard_normal((4, 6))
    a = tn.log_softmax_rows(Tensor(x)).data
    b = np.log(softmax_by_attention(Tensor(x)).data)
    assert np.max(np.abs(a - b)) < 1e-12


def test_grad_check_sum_is_exact():
    x = RNG.standard_normal((3, 4))
    assert grad_check(tn.sum_all, x) < 1e-9


def test_grad_check_elementwise_square():
    # d/dx sum(x*x) = 2x -> [2, 4, 6]
    x = Tensor([1.0, 2.0, 3.0])
    loss = tn.sum_all(tn.mul(x, x))
    loss.backward()
    assert np.max(np.abs(x.grad - np.array([2.0, 4.0, 6.0]))) < 1e-12
    assert grad_check(lambda t: tn.sum_all(tn.mul(t, t)), np.array([1.0, 2.0, 3.0])) < 1e-7


def test_grad_check_softmax_column():
    x = RNG.standard_normal((2, 4))
    first_column = Tensor(np.eye(4)[0])  # weights 1 on column 0, 0 elsewhere
    f = lambda t: tn.sum_all(tn.mul(softmax_by_attention(t), first_column))
    assert grad_check(f, x) < 1e-6


def test_grad_check_eps_bounds():
    param = Tensor(np.ones(2))
    for eps in (1e-2, 1e-9):
        with pytest.raises(ContractError):
            grad_check(tn.sum_all, np.ones(2), eps=eps)
        with pytest.raises(ContractError):
            param_grad_check(lambda: tn.sum_all(param), param, eps=eps)


def test_grad_check_requires_scalar():
    param = Tensor(np.ones(3))
    with pytest.raises(ContractError):
        grad_check(lambda t: t, np.ones(3))
    with pytest.raises(ContractError):
        param_grad_check(lambda: param, param)


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        Tensor(np.ones((2, 2))).backward()


def test_broadcast_add_gradients():
    a = Tensor(RNG.standard_normal((3, 4)))
    b = Tensor(RNG.standard_normal((1, 4)))
    tn.sum_all(tn.add(a, b)).backward()
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full((1, 4), 3.0))


def test_gather_rows_accumulates_duplicates():
    table = Tensor(RNG.standard_normal((3, 2)))
    out = tn.gather_rows(table, [1, 1, 0])
    tn.sum_all(out).backward()
    assert np.array_equal(table.grad, np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))


def test_mean_pool_rows_ragged_tail():
    x = np.arange(10.0).reshape(5, 2)
    pooled = tn.mean_pool_rows(Tensor(x), 2).data
    expected = np.array([x[0:2].mean(axis=0), x[2:4].mean(axis=0), x[4:5].mean(axis=0)])
    assert np.array_equal(pooled, expected)
    f = lambda t: tn.sum_all(tn.mul(tn.mean_pool_rows(t, 2), tn.mean_pool_rows(t, 2)))
    assert grad_check(f, x) < 1e-6
    pooled = tn.mean_pool_rows(Tensor(x), 4).data
    assert np.array_equal(pooled, np.array([x[0:4].mean(axis=0), x[4:5].mean(axis=0)]))


def _node_calls():
    """Each node function called on small inputs, with the Tensor inputs it
    records as its parents."""
    rng = np.random.default_rng(11)
    x, y, kernel = (Tensor(rng.standard_normal((3, 4))) for _ in range(3))
    w = tuple(Tensor(rng.standard_normal((4, 4))) for _ in range(4))
    norm, log_probs = init_layer_norm(4), Tensor(np.full((3, 3), -math.log(3)))
    ln = (x, norm.gamma, norm.beta)
    return {
        "add": (lambda: tn.add(x, y), (x, y)),
        "mul": (lambda: tn.mul(x, y), (x, y)),
        "scale": (lambda: tn.scale(x, 2.0), (x,)),
        "matmul": (lambda: tn.matmul(x, w[0]), (x, w[0])),
        "sum_all": (lambda: tn.sum_all(x), (x,)),
        "log_softmax_rows": (lambda: tn.log_softmax_rows(x), (x,)),
        "attention": (lambda: tn.attention(x, y, y, w, 2), (x, y, y) + w),
        "pre-LN attention": (lambda: tn.attention(x, x, x, w, 2, norm=norm), ln + w),
        "layer_norm": (lambda: tn.layer_norm(x, norm), ln),
        "feed_forward": (lambda: tn.feed_forward(x, norm, w[0], w[1], 0.5), ln + w[:2]),
        "conv_module": (lambda: tn.conv_module(x, norm, w[0], kernel, w[1]),
                        ln + (w[0], kernel, w[1])),
        "gather_rows": (lambda: tn.gather_rows(w[0], [2, 0, 2]), (w[0],)),
        "mean_pool_rows": (lambda: tn.mean_pool_rows(x, 2), (x,)),
        "ctc_loss": (lambda: ctc_loss(log_probs, [1, 2]), (log_probs,)),
    }


def test_no_grad_records_no_graph():
    """Under no_grad every node function returns a detached leaf; while
    recording, its parents are its Tensor inputs."""
    for name, (call, inputs) in _node_calls().items():
        with tn.no_grad():
            out = call()
        assert out._parents == () and out._backward is None, name
        out = call()
        assert out._parents == inputs and out._backward is not None, name


def test_silu_grad():
    # With identity projections and a centered delta kernel, the conv module
    # adds the SiLU of its layer norm h to x.
    x, eye, delta = RNG.standard_normal((3, 3)), Tensor(np.eye(3)), np.zeros((3, 3))
    delta[1] = 1.0
    norm = init_layer_norm(3)
    h = tn.layer_norm(Tensor(x), norm).data
    silu = tn.conv_module(Tensor(x), norm, eye, Tensor(delta), eye)
    assert np.max(np.abs(silu.data - x - h / (1.0 + np.exp(-h)))) < 1e-12
    assert grad_check(lambda t: tn.sum_all(
        tn.conv_module(t, norm, eye, Tensor(delta), eye)), x) < 1e-6


def _grad_check_weighted(f, x):
    """grad_check of a fixed random linear functional of ``f``'s output, so
    every output entry gets its own weight."""
    w = Tensor(RNG.standard_normal(f(Tensor(x)).shape))
    return grad_check(lambda t: tn.sum_all(tn.mul(f(t), w)), x)


def test_matmul_broadcasts_leading_axes():
    a = RNG.standard_normal((2, 3, 4))
    b = RNG.standard_normal((4, 5))
    got = tn.matmul(Tensor(a), Tensor(b)).data
    expected = np.stack([matmul_loops(a[i], b) for i in range(2)])
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    assert _grad_check_weighted(lambda t: tn.matmul(t, Tensor(b)), a) < 1e-6
    assert _grad_check_weighted(lambda t: tn.matmul(Tensor(a), t), b) < 1e-6
    # The weight must be 2-D.
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        tn.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))


def np_layer_norm_and_grads(x, gamma, beta, g, eps):
    """Layer norm over the last axis and the gradients of sum(out * g) in x,
    gamma and beta, row by row from each row's explicit Jacobian
    dy/dx = (I - 1/d) / s - y y^T / (d s)."""
    d = x.shape[-1]
    out, g_x = np.empty_like(x), np.empty_like(x)
    g_gamma, g_beta = np.zeros(d), np.zeros(d)
    for row, g_row, out_row, g_x_row in zip(x.reshape(-1, d), g.reshape(-1, d),
                                            out.reshape(-1, d), g_x.reshape(-1, d)):
        s = np.sqrt(np.var(row) + eps)
        y = (row - row.mean()) / s
        out_row[:] = y * gamma + beta
        jacobian = (np.eye(d) - 1.0 / d) / s - np.outer(y, y) / (d * s)
        g_x_row[:] = jacobian.T @ (g_row * gamma)
        g_gamma += g_row * y
        g_beta += g_row
    return out, g_x, g_gamma, g_beta


def test_layer_norm_node_matches_numpy_oracle():
    for shape in ((4, 6), (2, 3, 6)):
        x = RNG.standard_normal(shape) * 3.0 + 1.0
        gamma, beta, g = RNG.standard_normal(6), RNG.standard_normal(6), RNG.standard_normal(shape)
        leaves = [Tensor(a) for a in (x, gamma, beta)]
        norm = LayerNormParams(*leaves[1:])
        out = tn.layer_norm(leaves[0], norm)
        tn.sum_all(tn.mul(out, g)).backward()
        expected = np_layer_norm_and_grads(x, gamma, beta, g, 1e-5)
        for got, want in zip([out.data] + [t.grad for t in leaves], expected):
            assert np.max(np.abs(got - want)) < 1e-12
        assert _grad_check_weighted(lambda t: tn.layer_norm(t, norm), x) < 1e-6


def test_feed_forward_node_matches_numpy_oracle():
    # x + 0.5 * relu(h @ w1) @ w2 row by row, h the layer norm's oracle output,
    # whose oracle also takes h's gradient back to x, gamma and beta.
    for shape in ((4, 5), (2, 3, 5)):
        x, g = RNG.standard_normal(shape), RNG.standard_normal(shape)
        w1, w2 = RNG.standard_normal((5, 7)), RNG.standard_normal((7, 5))
        gamma, beta = RNG.standard_normal(5), RNG.standard_normal(5)
        leaves = [Tensor(a) for a in (x, gamma, beta, w1, w2)]
        out = tn.feed_forward(leaves[0], LayerNormParams(*leaves[1:3]), *leaves[3:], 0.5)
        tn.sum_all(tn.mul(out, g)).backward()
        h = np_layer_norm_and_grads(x, gamma, beta, g, 1e-5)[0]
        want_out, g_h = x.copy(), np.empty_like(x)
        want_w1, want_w2 = np.zeros_like(w1), np.zeros_like(w2)
        for row, g_row, o, g_h_row in zip(h.reshape(-1, 5), g.reshape(-1, 5),
                                          want_out.reshape(-1, 5), g_h.reshape(-1, 5)):
            pre = row @ w1
            o += 0.5 * (np.maximum(pre, 0.0) @ w2)
            g_pre = (w2 @ (0.5 * g_row)) * (pre > 0.0)
            g_h_row[:] = w1 @ g_pre
            want_w1 += np.outer(row, g_pre)
            want_w2 += np.outer(np.maximum(pre, 0.0), 0.5 * g_row)
        _, g_x, want_gamma, want_beta = np_layer_norm_and_grads(x, gamma, beta, g_h, 1e-5)
        for got, want in zip([out.data] + [t.grad for t in leaves],
                             (want_out, g + g_x, want_gamma, want_beta, want_w1, want_w2)):
            assert np.max(np.abs(got - want)) < 1e-12


def _reference_feed_forward(residual, x, w1, w2, c):
    """residual + c * relu(x @ w1) @ w2 as one node: the feed-forward node
    before it took in the layer norm."""
    xd = x.data
    rows = xd.reshape(-1, xd.shape[-1])
    pre = rows @ w1.data
    hidden = np.maximum(pre, 0.0)
    y = (hidden @ w2.data).reshape(xd.shape[:-1] + (w2.data.shape[1],))

    def backward(g):
        tn._accum(residual, g)
        g_rows = (g * c).reshape(-1, g.shape[-1])
        tn._accum(w2, hidden.T @ g_rows)
        g_pre = (g_rows @ w2.data.T) * (pre > 0.0)
        tn._accum(w1, rows.T @ g_pre)
        tn._accum(x, (g_pre @ w1.data.T).reshape(xd.shape))

    return Tensor(residual.data + y * c, (residual, x, w1, w2), backward)


def _reference_self_attention(residual, x, weights, n_heads, penalty, key0_shifts):
    """residual + MHA(x, x, x) as one node, its q/k/v projections one GEMM:
    the self-attention node before it took in the layer norm. Appends to
    ``key0_shifts`` whether its scores were shifted by their key-0 score."""
    w_q, w_k, w_v, w_o = weights
    lead, (L, d) = x.data.shape[:-2], x.data.shape[-2:]
    d_k = d // n_heads
    c = 1.0 / math.sqrt(d_k)
    n, ax = len(lead), tuple(range(len(lead)))
    swap, to_keys, from_keys = (ax + (n + 1, n, n + 2), ax + (n + 1, n + 2, n),
                                ax + (n + 2, n, n + 1))
    rows = x.data.reshape(-1, d)
    w_qkv = np.concatenate([w_q.data, w_k.data, w_v.data], axis=1)
    proj = rows @ w_qkv
    qh, kh, vh = (np.transpose(p.reshape(lead + (L, n_heads, d_k)), axes) for p, axes in
                  zip((proj[:, :d], proj[:, d : 2 * d], proj[:, 2 * d :]), (swap, to_keys, swap)))
    scores = np.matmul(qh, kh)
    scores *= c
    scores += penalty
    # The kernel's softmax: rows shifted by their key-0 score, or by their max
    # once a shifted score reaches 64, and divided by their sums as a product
    # with a ones column.
    probs = scores - scores[..., :1]
    key0_shifts.append(bool(probs.max() < 64.0))
    if not key0_shifts[-1]:
        probs = scores - scores.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs @ np.ones((L, 1))
    merged = np.transpose(np.matmul(probs, vh), swap).reshape(-1, d)

    def backward(g):
        tn._accum(residual, g)
        g_rows = g.reshape(-1, d)
        tn._accum(w_o, merged.T @ g_rows)
        g_heads = np.transpose((g_rows @ w_o.data.T).reshape(lead + (L, n_heads, d_k)), swap)
        g_probs = g_heads @ np.swapaxes(vh, -1, -2)
        g_vh = np.swapaxes(probs, -1, -2) @ g_heads
        g_scores = (g_probs - (g_probs * probs) @ np.ones((L, 1))) * probs
        g_scores *= c
        g_qh = g_scores @ np.swapaxes(kh, -1, -2)
        g_kh = np.swapaxes(qh, -1, -2) @ g_scores
        g_proj = np.concatenate([np.transpose(gh, axes).reshape(-1, d) for gh, axes in
                                 ((g_qh, swap), (g_kh, from_keys), (g_vh, swap))], axis=1)
        tn._accum(x, (g_proj @ w_qkv.T).reshape(x.data.shape))
        for w, g_w in zip((w_q, w_k, w_v), np.split(rows.T @ g_proj, 3, axis=1)):
            tn._accum(w, g_w)

    return Tensor(residual.data + (merged @ w_o.data).reshape(lead + (L, d)),
                  (residual, x) + tuple(weights), backward)


def _reference_shift_sum(x, kernel):
    """Zero-padded depthwise convolution along axis -2 as its own node."""
    width, L = kernel.data.shape[0], x.data.shape[-2]
    half = width // 2
    padded = np.pad(x.data, ((0, 0),) * (x.data.ndim - 2) + ((half, half), (0, 0)))
    y = np.zeros_like(x.data)
    for j in range(width):
        y += padded[..., j : j + L, :] * kernel.data[j]

    def backward(g):
        g_padded = np.zeros_like(padded)
        g_kernel = np.empty_like(kernel.data)
        for j in range(width):
            g_padded[..., j : j + L, :] += g * kernel.data[j]
            g_kernel[j] = (g * padded[..., j : j + L, :]).reshape(-1, x.data.shape[-1]).sum(0)
        tn._accum(x, g_padded[..., half : half + L, :])
        tn._accum(kernel, g_kernel)

    return Tensor(y, (x, kernel), backward)


def _reference_silu(a):
    sig = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        tn._accum(a, g * (sig + a.data * sig * (1.0 - sig)))

    return Tensor(a.data * sig, (a,), backward)


def _reference_conv_module(residual, x, w_in, kernel, w_out, frame_mask=None):
    """The conv module as the composed chain the fused node replaces."""
    h = x if frame_mask is None else tn.mul(x, frame_mask)
    h = _reference_silu(_reference_shift_sum(tn.matmul(h, w_in), kernel))
    return tn.add(residual, tn.matmul(h, w_out))


def _outputs_and_grads(f, arrays, g):
    """f's output and the gradients of sum(out * g) in each of ``arrays``,
    each a separate leaf."""
    leaves = [Tensor(a.copy()) for a in arrays]
    out = f(*leaves)
    tn.sum_all(tn.mul(out, g)).backward()
    return [out.data] + [t.grad for t in leaves]


def _assert_bitwise(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _folded(node):
    """``node`` over operands (x, gamma, beta, *rest), the pre-LN sub-block."""
    return lambda x, gamma, beta, *rest: node(x, LayerNormParams(gamma, beta), *rest)


def _composed(body):
    """The composed chain the folded node replaces: a layer norm node, then
    ``body`` taking x as its residual and the norm's output as its input."""
    return lambda x, gamma, beta, *rest: body(
        x, tn.layer_norm(x, LayerNormParams(gamma, beta)), *rest)


def _norm_arrays(d):
    return RNG.standard_normal(d), RNG.standard_normal(d)  # gamma, beta


def test_feed_forward_node_is_bitwise_the_composed_chain():
    for shape in ((4, 5), (2, 3, 5)):
        x, g = RNG.standard_normal(shape), RNG.standard_normal(shape)
        w1, w2 = RNG.standard_normal((5, 7)), RNG.standard_normal((7, 5))
        arrays = (x,) + _norm_arrays(5) + (w1, w2)
        for c in (0.5, 1.0):
            fused = _outputs_and_grads(lambda *a: _folded(tn.feed_forward)(*a, c), arrays, g)
            composed = _outputs_and_grads(
                lambda *a: _composed(_reference_feed_forward)(*a, c), arrays, g)
            _assert_bitwise(fused, composed)


def test_conv_module_node_is_bitwise_the_composed_chain():
    d = 3
    lengths = np.array([6, 4, 1])
    padded_rows = (np.arange(6) < lengths[:, None])[..., None].astype(np.float64)
    for width in (1, 3, 7):
        w_in, w_out = RNG.standard_normal((d, d)), RNG.standard_normal((d, d))
        kernel = RNG.standard_normal((width, d))
        for shape, frame_mask in (((5, d), None), ((3, 6, d), None),
                                  ((3, 6, d), padded_rows)):
            x, g = RNG.standard_normal(shape), RNG.standard_normal(shape)
            arrays = (x,) + _norm_arrays(d) + (w_in, kernel, w_out)
            got = _outputs_and_grads(
                lambda *a: _folded(tn.conv_module)(*a, frame_mask), arrays, g)
            _assert_bitwise(got, _outputs_and_grads(
                lambda *a: _composed(_reference_conv_module)(*a, frame_mask), arrays, g))
            if frame_mask is not None:  # padding passes on its residual gradient alone
                for b, n in enumerate(lengths):
                    assert np.array_equal(got[1][b, n:], g[b, n:])


def test_self_attention_node_is_bitwise_the_composed_chain():
    d = 8
    lengths = np.array([5, 3, 1])
    key0_shifts = []  # per case, whether its rows were shifted by key 0
    for heads in (1, 2, 4):
        weights = tuple(RNG.standard_normal((d, d)) for _ in range(4))
        for shape, mask in (((5, d), causal_mask(5)),
                            ((3, 5, d), causal_mask(5) & key_mask(lengths, 5))):
            penalty = np.where(mask, 0.0, -1e9)
            if penalty.ndim > 2:
                penalty = penalty[..., None, :, :]
            x, g = RNG.standard_normal(shape), RNG.standard_normal(shape)
            arrays = (x,) + _norm_arrays(d) + weights

            def node(x, norm, *w):
                return tn.attention(x, x, x, w, heads, penalty, norm)

            _assert_bitwise(
                _outputs_and_grads(_folded(node), arrays, g),
                _outputs_and_grads(_composed(
                    lambda r, h, *w: _reference_self_attention(r, h, w, heads, penalty,
                                                               key0_shifts)),
                    arrays, g))
    assert set(key0_shifts) == {True, False}  # both of the kernel's shifts are held to it


def test_pre_ln_attention_attends_q_to_itself():
    x, norm = Tensor(RNG.standard_normal((3, 4))), init_layer_norm(4)
    weights = [Tensor(np.eye(4)) for _ in range(4)]
    with pytest.raises(ContractError, match="k and v must be q"):
        tn.attention(x, Tensor(x.data), x, weights, 2, norm=norm)


def test_numpy_operands_are_constants():
    # A numpy operand is not recorded, and the Tensor operand's gradient is
    # bitwise what it is when the same values come in as a Tensor leaf.
    x, c, w = RNG.standard_normal((3, 4)), RNG.standard_normal((1, 4)), RNG.standard_normal((3, 4))
    for op in (tn.add, tn.mul):
        leaf, ref, ref_const = Tensor(x), Tensor(x), Tensor(c)
        out = op(leaf, c)
        assert out._parents == (leaf,)
        tn.sum_all(tn.mul(out, w)).backward()
        tn.sum_all(tn.mul(op(ref, ref_const), w)).backward()
        assert leaf.grad.tobytes() == ref.grad.tobytes()
    weight = Tensor(RNG.standard_normal((4, 2)))
    out = tn.matmul(x, weight)
    assert out._parents == (weight,)
    tn.sum_all(out).backward()
    ref = Tensor(weight.data)
    tn.sum_all(tn.matmul(Tensor(x), ref)).backward()
    assert weight.grad.tobytes() == ref.grad.tobytes()


def test_first_gradient_is_not_shared_between_operands():
    a, b = Tensor(RNG.standard_normal(3)), Tensor(RNG.standard_normal(3))
    tn.sum_all(tn.add(a, b)).backward()  # add hands one array to both
    a.grad += 1.0
    assert np.array_equal(b.grad, np.ones(3))
    x = Tensor(RNG.standard_normal(3))
    tn.sum_all(tn.add(x, x)).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_conv_module_grads_at_every_length():
    # Lengths below, at and above the kernel's half width.
    kernel, w_in, w_out = (RNG.standard_normal(s) for s in ((5, 3), (3, 3), (3, 3)))
    for length in (1, 2, 3, 7):
        x = RNG.standard_normal((length, 3))
        operands = [Tensor(a) for a in (x,) + _norm_arrays(3) + (w_in, kernel, w_out)]
        for i, t in enumerate(operands):
            def f(t, i=i):
                return _folded(tn.conv_module)(*operands[:i], t, *operands[i + 1:])
            assert _grad_check_weighted(f, t.data) < 1e-6


def test_matmul_with_2d_weight_flattens_leading_axes():
    a = RNG.standard_normal((3, 4, 5))
    w = RNG.standard_normal((5, 2))
    got = tn.matmul(Tensor(a), Tensor(w)).data
    assert np.max(np.abs(got - np.stack([x @ w for x in a]))) < 1e-12
    assert _grad_check_weighted(lambda t: tn.matmul(t, Tensor(w)), a) < 1e-6
    assert _grad_check_weighted(lambda t: tn.matmul(Tensor(a), t), w) < 1e-6


def _backward_keeping_every_grad(root):
    """Tensor.backward's traversal without freeing interior gradients."""
    order = tn._topo_order(root)
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def test_backward_frees_interior_grads_and_keeps_leaf_grads_bitwise():
    def build(x, w):
        h = tn.feed_forward(x, init_layer_norm(4), w, w, 0.5)
        return tn.sum_all(tn.mul(tn.log_softmax_rows(h), tn.add(h, x)))

    x_data, w_data = RNG.standard_normal((3, 4)), RNG.standard_normal((4, 4))
    x, w = Tensor(x_data.copy()), Tensor(w_data.copy())
    loss = build(x, w)
    loss.backward()
    interior = [n for n in tn._topo_order(loss) if n._backward is not None]
    assert interior and all(n.grad is None for n in interior)
    x_ref, w_ref = Tensor(x_data.copy()), Tensor(w_data.copy())
    _backward_keeping_every_grad(build(x_ref, w_ref))
    assert x.grad.tobytes() == x_ref.grad.tobytes()
    assert w.grad.tobytes() == w_ref.grad.tobytes()


def test_mean_pool_rows_per_row_lengths():
    lengths = [7, 5, 2]
    x = RNG.standard_normal((3, 7, 2))
    for b, n in enumerate(lengths):
        x[b, n:] = 1e3  # padding must not reach any window
    leaf = Tensor(x)
    pooled = tn.mean_pool_rows(leaf, 3, lengths)
    assert pooled.shape == (3, 3, 2)
    for b, n in enumerate(lengths):
        alone = tn.mean_pool_rows(Tensor(x[b, :n]), 3).data
        assert np.max(np.abs(pooled.data[b, : len(alone)] - alone)) < 1e-12
        assert np.array_equal(pooled.data[b, len(alone):], np.zeros((3 - len(alone), 2)))
    tn.sum_all(tn.mul(pooled, Tensor(RNG.standard_normal(pooled.shape)))).backward()
    for b, n in enumerate(lengths):
        assert np.array_equal(leaf.grad[b, n:], np.zeros((7 - n, 2)))
    assert _grad_check_weighted(lambda t: tn.mean_pool_rows(t, 3, lengths), x) < 1e-6


def test_conv_module_over_a_batch_matches_each_row():
    # With a frame mask, a padded row's end sees the same zeros as the row alone.
    lengths = [4, 2]
    kernel, w_in, w_out = (RNG.standard_normal(s) for s in ((3, 2), (2, 2), (2, 2)))
    x = RNG.standard_normal((2, 4, 2))
    frame_mask = (np.arange(4) < np.array(lengths)[:, None])[..., None].astype(np.float64)
    weights = [init_layer_norm(2)] + [Tensor(a) for a in (w_in, kernel, w_out)]
    got = tn.conv_module(Tensor(x), *weights, frame_mask).data
    for b, n in enumerate(lengths):
        alone = tn.conv_module(Tensor(x[b, :n]), *weights).data
        assert np.max(np.abs(got[b, :n] - alone)) < 1e-12
    assert _grad_check_weighted(
        lambda t: tn.conv_module(t, *weights, frame_mask), x) < 1e-6
