"""CTC loss via the log-space forward-backward recursions, and a
brute-force alignment-enumeration oracle for testing.

Blank is token id 0 everywhere.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import FeasibilityError, NumericError, OracleSizeError
from .tensor import Tensor, _accum, _register

BLANK = 0

NEG_INF = -np.inf


def count_repeats(labels):
    return sum(1 for a, b in zip(labels, labels[1:]) if a == b)


def check_feasible(t_len, labels):
    r = count_repeats(labels)
    if t_len < len(labels) + r:
        raise FeasibilityError(
            f"CTC infeasible: T_len={t_len} < U={len(labels)} + repeats={r}"
        )


def _check_log_probs(log_probs):
    sums = np.exp(log_probs.data).sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise NumericError("CTC logits rows do not exp-sum to 1")


def ctc_loss(log_probs, labels, lengths=None):
    """Negative log-likelihood of ``labels`` under per-frame log-probs.

    ``log_probs`` is a Tensor [T x (V+1)] of log-softmax rows with blank at
    index 0 and ``labels`` one label sequence; the loss is a scalar. For a
    padded batch, ``log_probs`` is [B x T x (V+1)], ``labels`` holds B label
    sequences and ``lengths`` the valid frames of each row (all T when
    None); the loss is the vector [B] of per-row losses, and frames past a
    row's length get exactly zero gradient.

    The loss is one graph node: the forward pass runs the alpha recursion,
    and the backward pass runs the beta recursion from each row's last
    frame and returns minus the state occupancy as the gradient (Graves et
    al. 2006).
    """
    batched = log_probs.data.ndim == 3
    lp = log_probs.data if batched else log_probs.data[None]
    labels = [list(row) for row in labels] if batched else [list(labels)]
    B, T, n_sym = lp.shape
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths, dtype=np.int64)
    for t_len, row in zip(lengths, labels):
        check_feasible(int(t_len), row)
    _check_log_probs(log_probs)

    # Extended labels: blank, l1, blank, l2, ..., blank, then blank padding
    # up to the longest row. The skip transition s-2 -> s is disallowed into
    # a blank, when the skipped label repeats, and into padding states.
    n_states = 2 * np.array([len(row) for row in labels]) + 1
    ext = np.full((B, int(n_states.max())), BLANK, dtype=np.int64)
    for row_ext, row in zip(ext, labels):
        row_ext[1 : 2 * len(row) : 2] = row
    real = np.arange(ext.shape[1]) < n_states[:, None]
    skip = np.full(ext.shape, NEG_INF)
    skip[:, 2:][(ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2]) & real[:, 2:]] = 0.0
    emit = np.take_along_axis(lp, ext[:, None, :], axis=2)  # [B x T x S]
    rows, last = np.arange(B), lengths - 1
    # A path ends in the last label or the blank after it.
    final = np.full(ext.shape, NEG_INF)
    final[rows, n_states - 1] = 0.0
    final[rows[n_states > 1], n_states[n_states > 1] - 2] = 0.0
    alpha = _alpha(emit, skip)
    log_likelihood = np.logaddexp.reduce(alpha[rows, last] + final, axis=1)
    losses = -log_likelihood
    out = Tensor(losses if batched else losses[0], (log_probs,))

    def backward(g):
        beta = _beta(emit, skip, final, last)
        occupancy = np.exp(alpha + beta - log_likelihood[:, None, None])
        weights = -np.reshape(g, (B, 1, 1)) * occupancy  # [B x T x S]
        one_hot = (ext[:, :, None] == np.arange(n_sym)).astype(np.float64)  # [B x S x (V+1)]
        grad = weights @ one_hot
        _accum(log_probs, grad if batched else grad[0])

    _register(out, backward)
    return out


def _alpha(emit, skip):
    """alpha[b, t, s]: log-prob of every path prefix ending in state s at
    frame t."""
    alpha = np.full(emit.shape, NEG_INF)
    alpha[:, 0, :2] = emit[:, 0, :2]
    for t in range(1, emit.shape[1]):
        prev = alpha[:, t - 1]
        acc = prev.copy()
        acc[:, 1:] = np.logaddexp(prev[:, 1:], prev[:, :-1])
        acc[:, 2:] = np.logaddexp(acc[:, 2:], prev[:, :-2] + skip[:, 2:])
        alpha[:, t] = acc + emit[:, t]
    return alpha


def _beta(emit, skip, final, last):
    """beta[b, t, s]: log-prob of every path suffix after state s at frame
    t, excluding frame t's own emission; -inf past each row's last frame."""
    beta = np.full(emit.shape, NEG_INF)
    rows = np.arange(emit.shape[0])
    beta[rows, last] = final
    for t in range(emit.shape[1] - 2, -1, -1):
        nxt = beta[:, t + 1] + emit[:, t + 1]
        acc = nxt.copy()
        acc[:, :-1] = np.logaddexp(nxt[:, :-1], nxt[:, 1:])
        acc[:, :-2] = np.logaddexp(acc[:, :-2], nxt[:, 2:] + skip[:, 2:])
        inside = t < last
        beta[inside, t] = acc[inside]
    return beta


def collapse(path):
    """Remove adjacent repeats, then blanks."""
    out = []
    prev = None
    for tok in path:
        if tok != prev:
            if tok != BLANK:
                out.append(tok)
            prev = tok
    return out


def ctc_brute_force(log_probs, labels, max_t=8, max_v=4):
    """Enumerate every frame labelling and log-sum those collapsing to ``labels``.

    Only valid for tiny problems; raises OracleSizeError beyond the bounds.
    Returns +inf when no path collapses to the labels.
    """
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    t_len, n_sym = lp.shape
    if t_len > max_t or n_sym - 1 > max_v:
        raise OracleSizeError(
            f"brute force limited to T<={max_t}, V<={max_v}; got T={t_len}, V={n_sym - 1}"
        )
    labels = list(labels)
    terms = []
    for path in itertools.product(range(n_sym), repeat=t_len):
        if collapse(path) == labels:
            terms.append(sum(lp[t, s] for t, s in enumerate(path)))
    if not terms:
        return math.inf
    m = max(terms)
    return -(m + math.log(sum(math.exp(x - m) for x in terms)))
