"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Every operation makes its output as ``Tensor(value, parents, backward)``,
which records its Tensor inputs and backward closure, or nothing under
``no_grad``; ``Tensor.backward()`` walks the recorded graph in reverse
topological order. The traversal order is fixed, so gradient accumulation
is bit-reproducible across runs.

A tensor keeps the dtype of a float32 or float64 array and makes anything
else float64; an operation computes in the dtype numpy promotes its
operands to, and a gradient takes its tensor's dtype. So a model whose
parameters are float32 trains in float32 with no switch, and float64
inputs run in float64. Log-softmax rows are float64 whatever their input.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError

_grad_enabled = True
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_NORM_EPS = 1e-5  # the layer norm's variance floor
_EXP_BOUND = 64.0  # exp(64) times any row length numpy can hold is finite in float32
_ONES = {}  # dtype -> read-only [n x 1] ones column, n the longest row summed yet


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """An array and, while recording, the node that made it: its Tensor
    ``parents`` and the ``backward(g)`` that passes its gradient g to them."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = _float_array(data)
        self.grad = None
        if _grad_enabled:
            self._parents, self._backward = tuple(parents), backward
        else:
            self._parents, self._backward = (), None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def backward(self):
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                # An interior gradient is spent once it has been passed on;
                # only leaves (parameters and inputs) keep theirs.
                node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _topo_order(root):
    """Iterative post-order DFS; recursion would blow the stack on long chains."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t, g):
    # ``g`` is handed over: its producer made it for ``t`` alone and does not
    # use it again, so the first gradient is stored without a copy unless it
    # must be cast to ``t``'s dtype. Where one array would reach two tensors
    # (``add``), the producer copies.
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Sum gradient ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _float_array(x):
    """``x`` as an array: float32 and float64 keep their dtype, all else is float64."""
    x = np.asarray(x)
    return x if x.dtype in _FLOAT_DTYPES else x.astype(np.float64)


def _value(x):
    return x.data if isinstance(x, Tensor) else _float_array(x)


def _inputs(*xs):
    """The Tensors among ``xs``; any other operand is a constant."""
    return [x for x in xs if isinstance(x, Tensor)]


def add(a, b):
    """a + b, broadcasting. An operand that is not a Tensor (a numpy array or
    a number) is a constant: it is not recorded and gets no gradient."""
    ad, bd = _value(a), _value(b)

    def backward(g):
        ga = None
        if isinstance(a, Tensor):
            ga = _unbroadcast(g, ad.shape)
            _accum(a, ga)
        if isinstance(b, Tensor):
            gb = _unbroadcast(g, bd.shape)
            # Both operands of the output's shape get ``g`` itself: b copies.
            _accum(b, gb.copy() if gb is ga else gb)

    return Tensor(ad + bd, _inputs(a, b), backward)


def mul(a, b):
    """a * b, broadcasting; a non-Tensor operand is a constant, as in add."""
    ad, bd = _value(a), _value(b)

    def backward(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g * bd, ad.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g * ad, bd.shape))

    return Tensor(ad * bd, _inputs(a, b), backward)


def scale(a, c):
    """a * c for a number c; a non-Tensor ``a`` is a constant, as in add."""
    c = float(c)

    def backward(g):
        if isinstance(a, Tensor):
            _accum(a, g * c)

    return Tensor(_value(a) * c, _inputs(a), backward)


def matmul(a, b):
    """a @ b for a 2-D weight ``b``. The rows of ``a`` over all its leading
    axes form one [N x k] operand, so forward, the input gradient and the
    weight gradient are one GEMM each. A non-Tensor operand is a constant,
    as in add.
    """
    ad, bd = _value(a), _value(b)
    if ad.ndim < 2 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul shapes do not conform: {ad.shape} x {bd.shape}")
    rows = ad.reshape(-1, ad.shape[-1])

    def backward(g):
        g_rows = g.reshape(-1, g.shape[-1])
        if isinstance(a, Tensor):
            _accum(a, (g_rows @ bd.T).reshape(ad.shape))
        if isinstance(b, Tensor):
            _accum(b, rows.T @ g_rows)

    return Tensor((rows @ bd).reshape(ad.shape[:-1] + bd.shape[1:]), _inputs(a, b), backward)


def sum_all(a):
    a = as_tensor(a)

    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    return Tensor(a.data.sum(), (a,), backward)


def log_softmax_rows(x):
    """Log-softmax over the last axis, in float64 for any input dtype: the
    CTC recursion and the cross-entropy sum many of these values."""
    x = as_tensor(x)
    if not np.isfinite(x.data).all():
        raise NumericError("log_softmax input contains non-finite values")
    xd = np.asarray(x.data, dtype=np.float64)
    y = xd - np.maximum.reduce(xd, axis=-1, keepdims=True)
    lse = np.add.reduce(np.exp(y), axis=-1, keepdims=True)
    y -= np.log(lse, out=lse)

    def backward(g):
        _accum(x, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return Tensor(y, (x,), backward)


def attention(q, k, v, weights, n_heads, penalty=None, norm=None):
    """Multi-head scaled dot-product attention (Vaswani et al. 2017) as one node.

    ``q`` is [..., L_q x d] and ``k``, ``v`` are [..., L_k x d] with the same
    leading axes; ``weights`` are the [d x d] projections (w_q, w_k, w_v,
    w_o), head j owning columns j*d_k to (j+1)*d_k of w_q, w_k and w_v.
    ``penalty`` is a constant broadcastable to [..., h x L_q x L_k], added
    to the scaled scores before the softmax. A ``k`` or ``v`` that is not a
    Tensor is a constant, as in add: no input gradient is computed for it.
    With the layer norm ``norm`` (its gamma and beta), the node is the
    pre-LN self-attention sub-block q + MHA(LN(q)): ``k`` and ``v`` must be
    ``q``, and the three input projections of LN(q) are one GEMM against
    the weights side by side, and so are their backward products.
    """
    w_q, w_k, w_v, w_o = weights
    if norm is not None and not (k is q and v is q):
        raise ContractError("a pre-LN attention node attends q to itself: k and v must be q")
    kd, vd = _value(k), _value(v)
    lead, (L_q, d), L_k = q.data.shape[:-2], q.data.shape[-2:], kd.shape[-2]
    d_k = d // n_heads
    # [..., L x h x d_k] permuted: (L, h) swapped, its own inverse; to
    # [..., h x d_k x L]; and back from that.
    n, ax = len(lead), tuple(range(len(lead)))
    swap, to_keys, from_keys = (ax + (n + 1, n, n + 2), ax + (n + 1, n + 2, n),
                                ax + (n + 2, n, n + 1))
    if norm is not None:
        h, norm_backward = _normalize(q, norm)
        rows = h.reshape(-1, d)
        w_qkv = np.concatenate([w_q.data, w_k.data, w_v.data], axis=1)
        proj = rows @ w_qkv
        projected = proj[:, :d], proj[:, d : 2 * d], proj[:, 2 * d :]
        inputs = [q, norm.gamma, norm.beta]
    else:
        rows = [x.reshape(-1, d) for x in (q.data, kd, vd)]
        projected = [r @ w.data for r, w in zip(rows, (w_q, w_k, w_v))]
        inputs = _inputs(q, k, v)
    qh, kh, vh = (np.transpose(p.reshape(lead + (n, n_heads, d_k)), axes)
                  for p, n, axes in zip(projected, (L_q, L_k, L_k), (swap, to_keys, swap)))
    probs, heads = _attend(qh, kh, vh, penalty)
    merged = np.transpose(heads, swap).reshape(-1, d)  # [N x d]
    y = (merged @ w_o.data).reshape(lead + (L_q, d))

    def backward(g):
        g_rows = g.reshape(-1, d)
        _accum(w_o, merged.T @ g_rows)
        g_heads = np.transpose((g_rows @ w_o.data.T).reshape(lead + (L_q, n_heads, d_k)), swap)
        g_probs = g_heads @ np.swapaxes(vh, -1, -2)
        g_vh = np.swapaxes(probs, -1, -2) @ g_heads
        g_scores = (g_probs - _row_sums(g_probs * probs)) * probs
        g_scores *= 1.0 / math.sqrt(d_k)
        g_qh = g_scores @ np.swapaxes(kh, -1, -2)
        g_kh = np.swapaxes(qh, -1, -2) @ g_scores
        g_projected = [np.transpose(gh, axes).reshape(-1, d)
                       for gh, axes in ((g_qh, swap), (g_kh, from_keys), (g_vh, swap))]
        if norm is not None:
            g_proj = np.concatenate(g_projected, axis=1)
            for w, g_w in zip((w_q, w_k, w_v), np.split(rows.T @ g_proj, 3, axis=1)):
                _accum(w, g_w)
            _accum(q, g + norm_backward((g_proj @ w_qkv.T).reshape(q.data.shape)))
            return
        for x, r, w, g_p in zip((q, k, v), rows, (w_q, w_k, w_v), g_projected):
            if isinstance(x, Tensor):
                _accum(x, (g_p @ w.data.T).reshape(x.data.shape))
            _accum(w, r.T @ g_p)

    return Tensor(y if norm is None else q.data + y, inputs + list(weights), backward)


def _attend(qh, kh, vh, penalty=None):
    """(probs, probs @ vh), probs = softmax(qh @ kh / sqrt(d_k) + ``penalty``) over
    the keys: qh [..., h x L_q x d_k], kh [..., h x d_k x L_k], vh [..., h x L_k x d_k].

    A shift leaves a row's softmax unchanged (Milakov & Gimelshein 2018), so rows
    are shifted by their key-0 score (every mask the model builds shows key 0),
    not by their max; exp(0) = 1 keeps each row sum >= 1. If a shifted score
    reaches ``_EXP_BOUND`` (key 0 hidden, or far below its row's max), all rows
    are shifted by their max instead."""
    scores = np.matmul(qh, kh)  # [..., h x L_q x L_k]
    scores *= 1.0 / math.sqrt(qh.shape[-1])
    if penalty is not None:
        scores += penalty.astype(scores.dtype, copy=False)
    if not np.isfinite(scores).all():
        raise NumericError("softmax input contains non-finite values")
    probs = scores - scores[..., :1]
    if not probs.max(initial=-np.inf) < _EXP_BOUND:
        probs = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= _row_sums(probs)
    return probs, np.matmul(probs, vh)


def _row_sums(a):
    """``a`` summed over its last axis, keepdims, as one BLAS product with a ones
    column: numpy's reduction over many short rows costs several times more."""
    n, col = a.shape[-1], _ONES.get(a.dtype)
    if col is None or len(col) < n:
        col = _ONES[a.dtype] = np.ones((n, 1), a.dtype)
        col.flags.writeable = False
    return a @ col[:n]


def _normalize(x, norm):
    """Layer norm (Ba et al. 2016) of ``x``'s last axis with ``norm``'s gamma
    and beta, (x - mean) / sqrt(var + eps) * gamma + beta, and its backward,
    which accumulates gamma's and beta's gradients and returns x's: with y
    the normalized x and gy = g * gamma, that is
    (gy - mean(gy) - y * mean(gy * y)) / sqrt(var + eps)."""
    xd, gamma, beta = _value(x), norm.gamma, norm.beta
    d = xd.shape[-1]
    y = xd - np.add.reduce(xd, axis=-1, keepdims=True) / d  # centered, normalized below
    inv_std = np.add.reduce(y * y, axis=-1, keepdims=True)
    inv_std /= d
    inv_std += _NORM_EPS
    np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
    y *= inv_std

    def backward(g):
        _accum(beta, _row_sums(g.reshape(-1, d).T).reshape(beta.data.shape))
        _accum(gamma, _row_sums((g * y).reshape(-1, d).T).reshape(gamma.data.shape))
        gy = g * gamma.data
        return inv_std * (gy - _row_sums(gy) / d - y * (_row_sums(gy * y) / d))

    return y * gamma.data + beta.data, backward


def layer_norm(x, norm):
    """Layer norm of ``x`` with ``norm``'s gamma and beta, as one node."""
    h, norm_backward = _normalize(x, norm)
    return Tensor(h, (x, norm.gamma, norm.beta), lambda g: _accum(x, norm_backward(g)))


def feed_forward(x, norm, w1, w2, c):
    """The pre-LN feed-forward sub-block x + c * relu(LN(x) @ w1) @ w2 over
    the last axis, as one node; ``norm`` holds the layer norm's gamma and beta."""
    xd = x.data
    h, norm_backward = _normalize(x, norm)
    rows = h.reshape(-1, xd.shape[-1])
    pre = rows @ w1.data
    hidden = np.maximum(pre, 0.0)
    y = (hidden @ w2.data).reshape(xd.shape[:-1] + (w2.data.shape[1],))

    def backward(g):
        g_rows = (g * c).reshape(-1, g.shape[-1])
        _accum(w2, hidden.T @ g_rows)
        g_pre = (g_rows @ w2.data.T) * (pre > 0.0)
        _accum(w1, rows.T @ g_pre)
        _accum(x, g + norm_backward((g_pre @ w1.data.T).reshape(xd.shape)))

    return Tensor(xd + y * c, (x, norm.gamma, norm.beta, w1, w2), backward)


def conv_module(x, norm, w_in, kernel, w_out, frame_mask=None):
    """The pre-LN conv sub-block x + silu(depthwise(LN(x) @ w_in)) @ w_out
    along axis -2, as one node; ``norm`` holds the layer norm's gamma and beta.

    ``x`` is [..., L x d]. ``frame_mask`` (a constant broadcastable to x, 1
    on valid frames and 0 on padding) zeroes LN(x) before ``w_in``, so
    padded frames get no gradient through the convolution. The depthwise
    convolution takes ``kernel`` [width x d] with odd width: row t is
    sum_j h[t + j - width // 2] * kernel[j], rows outside h being zero.
    SiLU is h * sigmoid(h).
    """
    width, d = kernel.data.shape
    if width % 2 == 0:
        raise ConfigError(f"conv width must be odd, got {width}")
    if w_in.data.shape[1] != d:
        raise ShapeError(f"kernel channels {d} != w_in output width {w_in.data.shape[1]}")
    normed, norm_backward = _normalize(x, norm)
    xd = normed if frame_mask is None else normed * frame_mask
    lead, L, half = xd.shape[:-2], xd.shape[-2], width // 2
    rows = xd.reshape(-1, xd.shape[-1])
    proj = rows @ w_in.data
    padded = np.zeros(lead + (L + 2 * half, d), dtype=proj.dtype)
    padded[..., half : half + L, :] = proj.reshape(lead + (L, d))
    h = np.zeros(lead + (L, d), dtype=padded.dtype)
    for j in range(width):
        h += padded[..., j : j + L, :] * kernel.data[j]
    sig = 1.0 / (1.0 + np.exp(-h))
    act = (h * sig).reshape(-1, d)

    def backward(g):
        g_rows = g.reshape(-1, g.shape[-1])
        _accum(w_out, act.T @ g_rows)
        g_h = (g_rows @ w_out.data.T).reshape(h.shape) * (sig + h * sig * (1.0 - sig))
        g_padded = np.zeros_like(padded)
        g_kernel = np.empty_like(kernel.data)
        for j in range(width):
            g_padded[..., j : j + L, :] += g_h * kernel.data[j]
            g_kernel[j] = (g_h * padded[..., j : j + L, :]).reshape(-1, d).sum(axis=0)
        _accum(kernel, g_kernel)
        g_in = g_padded[..., half : half + L, :].reshape(-1, d)
        _accum(w_in, rows.T @ g_in)
        g_x = (g_in @ w_in.data.T).reshape(xd.shape)
        _accum(x, g + norm_backward(g_x if frame_mask is None else g_x * frame_mask))

    return Tensor(x.data + (act @ w_out.data).reshape(lead + (L, w_out.data.shape[1])),
                  (x, norm.gamma, norm.beta, w_in, kernel, w_out), backward)


def gather_rows(table, ids):
    """Row lookup table[ids]; backward scatter-adds (duplicate ids accumulate)."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accum(table, full)

    return Tensor(table.data[ids], (table,), backward)


def mean_pool_rows(a, factor, lengths=None):
    """Strided mean pooling along axis -2; output length ceil(m / factor).

    ``a`` is [..., m x d]. Without ``lengths`` all m rows are valid. With
    per-row ``lengths`` (one per index of the leading axes), rows at or
    beyond a row's length are padding: they are left out of every window,
    a row's last, partial window is divided by that row's own frame count,
    a window holding padding alone pools to 0, and padding gets no gradient.
    """
    a = as_tensor(a)
    lead, (m, d) = a.data.shape[:-2], a.data.shape[-2:]
    n_out = -(-m // factor)
    frame = np.arange(n_out * factor)
    limit = m if lengths is None else np.asarray(lengths).reshape(lead + (1,))
    valid = (frame < limit).astype(a.data.dtype)  # [..., n_out * factor]
    counts = valid.reshape(valid.shape[:-1] + (n_out, factor)).sum(axis=-1)
    counts = np.maximum(counts, 1.0)[..., None]  # [..., n_out, 1]
    padded = np.zeros(lead + (n_out * factor, d), dtype=a.data.dtype)
    padded[..., :m, :] = a.data
    padded *= valid[..., None]
    windows = padded.reshape(lead + (n_out, factor, d)).sum(axis=-2)

    def backward(g):
        spread = np.repeat(g / counts, factor, axis=-2) * valid[..., None]
        _accum(a, spread[..., :m, :])

    return Tensor(windows / counts, (a,), backward)
