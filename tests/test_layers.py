"""Building blocks against hand oracles and degenerate configurations."""

import numpy as np
import pytest

from mmasr import tensor as tn
from mmasr.errors import ConfigError, ContractError, ShapeError, VocabError
from mmasr.layers import (
    AttentionParams,
    LayerNormParams,
    attention,
    causal_mask,
    embed,
    init_attention_params,
    init_layer_norm,
    key_mask,
    layer_norm,
    sinusoidal_positions,
)
from mmasr.tensor import Tensor

RNG = np.random.default_rng(7)


def _params(d, heads, rng=RNG):
    return init_attention_params(d, heads, rng)


def _identity_params(d):
    eye = np.eye(d)
    return AttentionParams(w_q=Tensor(eye.copy()), w_k=Tensor(eye.copy()),
                           w_v=Tensor(eye.copy()), w_o=Tensor(eye.copy()),
                           n_heads=1)


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_attention_single_key_is_projected_value():
    d = 4
    p = _params(d, 2)
    q = Tensor(RNG.standard_normal((3, d)))
    k = Tensor(RNG.standard_normal((1, d)))
    v = Tensor(RNG.standard_normal((1, d)))
    got = attention(q, k, v, p).data
    # One key: softmax weights are exactly 1, so every query row sees v W_v W_o.
    expected = np.tile(v.data @ p.w_v.data @ p.w_o.data, (3, 1))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_attention_zero_values_give_zero_output():
    d = 4
    p = _params(d, 2)
    p.w_v.data[:] = 0.0
    q = Tensor(RNG.standard_normal((2, d)))
    kv = Tensor(RNG.standard_normal((5, d)))
    assert np.array_equal(attention(q, kv, kv, p).data, np.zeros((2, d)))


def test_attention_single_head_identity_oracle():
    d = 4
    p = _identity_params(d)
    q = RNG.standard_normal((3, d))
    k = RNG.standard_normal((5, d))
    v = RNG.standard_normal((5, d))
    got = attention(Tensor(q), Tensor(k), Tensor(v), p).data
    expected = np_softmax(q @ k.T / np.sqrt(d)) @ v
    assert np.max(np.abs(got - expected)) < 1e-12


def np_attention(q, k, v, p, allowed=None):
    """Plain-numpy oracle: one head at a time over column slices."""
    d_k = p.d_k
    qp, kp, vp = q @ p.w_q.data, k @ p.w_k.data, v @ p.w_v.data
    heads = []
    for h in range(p.n_heads):
        cols = slice(h * d_k, (h + 1) * d_k)
        scores = qp[:, cols] @ kp[:, cols].T / np.sqrt(d_k)
        if allowed is not None:
            scores = scores + np.where(allowed, 0.0, -1e9)
        heads.append(np_softmax(scores) @ vp[:, cols])
    return np.concatenate(heads, axis=1) @ p.w_o.data


def test_attention_multi_head_oracle():
    d = 8
    for heads in (2, 4):
        p = _params(d, heads)
        q = RNG.standard_normal((3, d))
        kv = RNG.standard_normal((5, d))
        got = attention(Tensor(q), Tensor(kv), Tensor(kv), p).data
        assert np.max(np.abs(got - np_attention(q, kv, kv, p))) < 1e-12
        mask = causal_mask(5)
        got = attention(Tensor(kv), Tensor(kv), Tensor(kv), p, mask=mask).data
        expected = np_attention(kv, kv, kv, p, mask)
        assert np.max(np.abs(got - expected)) < 1e-12


def _graph_nodes(out):
    return sum(1 for node in tn._topo_order(out) if node._backward is not None)


def test_attention_node_count_does_not_depend_on_heads():
    d = 8
    x = Tensor(RNG.standard_normal((4, d)))
    counts = {_graph_nodes(attention(x, x, x, _params(d, heads), mask=causal_mask(4)))
              for heads in (1, 2, 4)}
    assert counts == {1}


def np_attention_and_grads(q, k, v, p, g, allowed=None):
    """Output of attention and the gradients of sum(out * g) in q, k, v and
    (w_q, w_k, w_v, w_o), one batch row and one head at a time, with the
    softmax backward as its explicit Jacobian diag(s) - s s^T per row."""
    w_q, w_k, w_v, w_o = (w.data for w in (p.w_q, p.w_k, p.w_v, p.w_o))
    d, d_k = w_q.shape[0], p.d_k
    lead = q.shape[:-2]
    qs, ks, vs, gs = (a.reshape((-1,) + a.shape[-2:]) for a in (q, k, v, g))
    if allowed is not None:
        allowed = np.broadcast_to(allowed, lead + (q.shape[-2], k.shape[-2]))
        allowed = allowed.reshape((-1,) + allowed.shape[-2:])
    out, g_q, g_k, g_v = (np.zeros_like(a) for a in (qs, qs, ks, vs))
    g_w = [np.zeros((d, d)) for _ in range(4)]
    for b in range(len(qs)):
        qp, kp, vp = qs[b] @ w_q, ks[b] @ w_k, vs[b] @ w_v
        merged, probs = np.zeros_like(qp), []
        for h in range(p.n_heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            scores = qp[:, cols] @ kp[:, cols].T / np.sqrt(d_k)
            if allowed is not None:
                scores = scores + np.where(allowed[b], 0.0, -1e9)
            probs.append(np_softmax(scores))
            merged[:, cols] = probs[h] @ vp[:, cols]
        out[b] = merged @ w_o
        g_w[3] += merged.T @ gs[b]
        g_merged = gs[b] @ w_o.T
        g_qp, g_kp, g_vp = np.zeros_like(qp), np.zeros_like(kp), np.zeros_like(vp)
        for h in range(p.n_heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            g_probs = g_merged[:, cols] @ vp[:, cols].T
            g_vp[:, cols] = probs[h].T @ g_merged[:, cols]
            g_scores = np.stack([(np.diag(s) - np.outer(s, s)) @ row
                                 for s, row in zip(probs[h], g_probs)]) / np.sqrt(d_k)
            g_qp[:, cols] = g_scores @ kp[:, cols]
            g_kp[:, cols] = g_scores.T @ qp[:, cols]
        for x, gx, g_proj, w, gw in ((qs, g_q, g_qp, w_q, g_w[0]), (ks, g_k, g_kp, w_k, g_w[1]),
                                     (vs, g_v, g_vp, w_v, g_w[2])):
            gx[b] = g_proj @ w.T
            gw += x[b].T @ g_proj
    return [a.reshape(shape) for a, shape in
            ((out, q.shape), (g_q, q.shape), (g_k, k.shape), (g_v, v.shape))] + g_w


def test_fused_attention_matches_per_head_oracle_in_values_and_grads():
    d = 8
    for heads in (1, 2, 4):
        p = _params(d, heads)
        weights = (p.w_q, p.w_k, p.w_v, p.w_o)
        for shape in ((5, d), (3, 5, d)):
            x, g = RNG.standard_normal(shape), RNG.standard_normal(shape)
            keys = causal_mask(5) if len(shape) == 2 else (
                causal_mask(5) & key_mask([5, 3, 1], 5))
            for mask in (None, keys):
                want = np_attention_and_grads(x, x, x, p, g, mask)
                # one tensor as q, k and v, then three tensors with its values
                for inputs in ([Tensor(x)] * 3, [Tensor(x.copy()) for _ in range(3)]):
                    for w in weights:
                        w.grad = None
                    out = attention(*inputs, p, mask=mask)
                    tn.sum_all(tn.mul(out, g)).backward()
                    assert np.max(np.abs(out.data - want[0])) < 1e-12
                    if inputs[0] is inputs[1]:
                        got_inputs = [inputs[0].grad]
                        want_inputs = [want[1] + want[2] + want[3]]
                    else:
                        got_inputs, want_inputs = [t.grad for t in inputs], want[1:4]
                    for got, expected in zip(got_inputs + [w.grad for w in weights],
                                             want_inputs + want[4:]):
                        assert np.max(np.abs(got - expected)) < 1e-12


def test_attention_output_in_value_convex_hull():
    d = 4
    p = _identity_params(d)
    q = RNG.standard_normal((6, d))
    v = RNG.standard_normal((5, d))
    out = attention(Tensor(q), Tensor(RNG.standard_normal((5, d))), Tensor(v), p).data
    lo, hi = v.min(axis=0), v.max(axis=0)
    assert np.all(out >= lo - 1e-12)
    assert np.all(out <= hi + 1e-12)


def test_causal_mask_blocks_future_bitwise():
    d = 4
    p = _params(d, 2)
    x = RNG.standard_normal((5, d))
    mask = causal_mask(5)
    base = attention(Tensor(x), Tensor(x.copy()), Tensor(x.copy()), p, mask=mask).data
    y = x.copy()
    y[4] += 10.0  # only the last position changes
    pert = attention(Tensor(x), Tensor(y), Tensor(y), p, mask=mask).data
    assert np.array_equal(base[:4], pert[:4])
    assert not np.array_equal(base[4], pert[4])


def test_all_masked_row_is_contract_error():
    d = 4
    p = _params(d, 1)
    x = Tensor(RNG.standard_normal((2, d)))
    bad = np.array([[True, True], [False, False]])
    with pytest.raises(ContractError):
        attention(x, x, x, p, mask=bad)


def test_mask_shape_mismatch():
    d = 4
    p = _params(d, 1)
    x = Tensor(RNG.standard_normal((3, d)))
    with pytest.raises(ShapeError):
        attention(x, x, x, p, mask=causal_mask(2))


def test_attention_d_model_mismatch():
    p = _params(4, 2)
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((2, 6))), Tensor(np.zeros((2, 6))),
                  Tensor(np.zeros((2, 6))), p)


def test_heads_must_divide_d_model():
    with pytest.raises(ConfigError):
        _params(6, 4)


def test_layer_norm_constant_row_is_beta():
    d = 5
    x = Tensor(np.full((2, d), 3.7))
    out = layer_norm(x, init_layer_norm(d)).data
    assert np.max(np.abs(out)) < 1e-12
    out2 = layer_norm(x, LayerNormParams(Tensor(np.ones(d)), Tensor(np.full(d, 2.0)))).data
    assert np.max(np.abs(out2 - 2.0)) < 1e-12


def test_layer_norm_two_point_row():
    out = layer_norm(Tensor([[1.0, -1.0]]), init_layer_norm(2)).data
    # variance 1 plus eps: values shrink by 1/sqrt(1 + 1e-5)
    expected = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + 1e-5)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_layer_norm_centers_rows():
    x = RNG.standard_normal((4, 8)) * 3.0 + 5.0
    out = layer_norm(Tensor(x), init_layer_norm(8)).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-10


def test_layer_norm_checks_the_gamma_shape():
    with pytest.raises(ShapeError, match="gamma shape"):
        layer_norm(Tensor(np.ones((2, 4))), init_layer_norm(3))


def _np_layer_norm(x):
    """The layer norm of unit gamma and zero beta."""
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)


def test_feed_forward_zero_and_identity():
    # Zero weights leave x; identity weights add relu of x's layer norm.
    x, norm = Tensor(RNG.standard_normal((3, 4))), init_layer_norm(4)
    zero = tn.feed_forward(x, norm, Tensor(np.zeros((4, 6))),
                           Tensor(np.zeros((6, 4))), 0.5).data
    assert np.array_equal(zero, x.data)
    out = tn.feed_forward(x, norm, Tensor(np.eye(4)), Tensor(np.eye(4)), 1.0).data
    assert np.array_equal(out, x.data + np.maximum(layer_norm(x, norm).data, 0.0))


def test_feed_forward_loop_oracle():
    x = RNG.standard_normal((3, 4))
    w1 = RNG.standard_normal((4, 6))
    w2 = RNG.standard_normal((6, 4))
    got = tn.feed_forward(Tensor(x), init_layer_norm(4), Tensor(w1), Tensor(w2), 0.5).data
    h, expected = _np_layer_norm(x), x.copy()
    for t in range(3):
        for j in range(4):
            expected[t, j] += 0.5 * sum(max(h[t] @ w1[:, k], 0.0) * w2[k, j] for k in range(6))
    assert np.max(np.abs(got - expected)) < 1e-12


def _conv(x, kernel):
    """The conv module with identity projections and a unit layer norm,
    x + silu(depthwise(h)), and h, the layer norm of x."""
    eye, x, norm = Tensor(np.eye(x.shape[-1])), Tensor(x), init_layer_norm(x.shape[-1])
    return tn.conv_module(x, norm, eye, Tensor(kernel), eye).data, layer_norm(x, norm).data


def _silu(h):
    return h * (1.0 / (1.0 + np.exp(-h)))


def test_conv_delta_kernel_is_identity():
    # A centered delta kernel is the identity, leaving the SiLU.
    x = RNG.standard_normal((6, 3))
    kernel = np.zeros((5, 3))
    kernel[2, :] = 1.0
    out, h = _conv(x, kernel)
    assert np.array_equal(out, x + _silu(h))


def test_conv_zero_kernel():
    # The zero kernel leaves x: SiLU(0) is 0.
    x = RNG.standard_normal((4, 3))
    assert np.array_equal(_conv(x, np.zeros((3, 3)))[0], x)


def test_conv_width3_sliding_window_oracle():
    L, d = 6, 2
    x = RNG.standard_normal((L, d))
    kernel = RNG.standard_normal((3, d))
    padded = np.vstack([np.zeros((1, d)), _np_layer_norm(x), np.zeros((1, d))])
    expected = np.zeros((L, d))
    for t in range(L):
        for j in range(3):
            expected[t] += padded[t + j] * kernel[j]
    assert np.max(np.abs(_conv(x, kernel)[0] - x - _silu(expected))) < 1e-12


def test_conv_even_width_rejected():
    with pytest.raises(ConfigError):
        _conv(np.zeros((4, 2)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        _conv(np.zeros((4, 2)), np.zeros((3, 3)))


def test_embed_empty_sequence():
    out = embed([], Tensor(RNG.standard_normal((5, 3))))
    assert out.shape == (0, 3)


def test_embed_zero_table_gives_positional_rows():
    d = 6
    table = Tensor(np.zeros((4, d)))
    out = embed([2, 0], table).data
    assert np.array_equal(out, sinusoidal_positions(2, d))


def test_embed_out_of_range():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(VocabError):
        embed([4], table)
    with pytest.raises(VocabError):
        embed([-1], table)


def test_sinusoidal_positions_oracle():
    d = 4
    pe = sinusoidal_positions(3, d)
    for pos in range(3):
        for i in range(d // 2):
            angle = pos / (10000.0 ** (2 * i / d))
            assert abs(pe[pos, 2 * i] - np.sin(angle)) < 1e-12
            assert abs(pe[pos, 2 * i + 1] - np.cos(angle)) < 1e-12
    assert sinusoidal_positions(0, d).shape == (0, d)


def test_attention_grad_flows_to_all_projections():
    d = 4
    p = _params(d, 2, np.random.default_rng(11))
    x = Tensor(RNG.standard_normal((3, d)))
    tn.sum_all(attention(x, x, x, p)).backward()
    for w in (p.w_q, p.w_k, p.w_v, p.w_o):
        assert w.grad is not None
        assert np.any(w.grad != 0.0)


def test_attention_over_a_padded_batch_matches_each_row():
    d, heads = 8, 2
    p = _params(d, heads)
    lengths = np.array([5, 3, 1])
    x = RNG.standard_normal((3, 5, d))
    causal_keys = causal_mask(5) & key_mask(lengths, 5)
    for mask in (key_mask(lengths, 5), causal_keys):
        got = attention(Tensor(x), Tensor(x), Tensor(x), p, mask=mask).data
        for b, n in enumerate(lengths):
            row = Tensor(x[b, :n])
            row_mask = causal_mask(n) if mask is causal_keys else None
            alone = attention(row, row, row, p, mask=row_mask).data
            assert np.max(np.abs(got[b, :n] - alone)) < 1e-12


def test_batched_mask_must_broadcast_and_see_a_key():
    p = _params(4, 2)
    x = Tensor(RNG.standard_normal((2, 3, 4)))
    attention(x, x, x, p, mask=key_mask([3, 1], 3))  # [B x 1 x L_k]
    with pytest.raises(ShapeError):
        attention(x, x, x, p, mask=key_mask([3, 1, 2], 3))
    with pytest.raises(ContractError):  # key_mask would show the empty row a key
        attention(x, x, x, p, mask=np.arange(3) < np.array([3, 0])[:, None, None])
