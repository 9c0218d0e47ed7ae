"""CTC loss via the log-space forward-backward recursions, greedy decoding,
and a brute-force alignment-enumeration oracle for testing.

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
    sums = np.exp(log_probs.data).sum(axis=1)
    if not np.allclose(sums, 1.0, atol=1e-9):
        raise NumericError("CTC logits rows do not exp-sum to 1")


def ctc_loss(log_probs, labels):
    """Negative log-likelihood of ``labels`` under per-frame log-probs.

    ``log_probs`` is a Tensor [T x (V+1)] of log-softmax rows with blank at
    index 0. The loss is one graph node: the forward pass runs the alpha
    recursion, and the backward pass runs the beta recursion and returns
    minus the state occupancy as the gradient (Graves et al. 2006).
    """
    labels = list(labels)
    check_feasible(log_probs.shape[0], labels)
    _check_log_probs(log_probs)

    # Extended labels: blank, l1, blank, l2, ..., blank. The skip transition
    # s-2 -> s is disallowed into a blank or when the skipped label repeats.
    ext = np.full(2 * len(labels) + 1, BLANK, dtype=np.int64)
    ext[1::2] = labels
    skip = np.full(len(ext), NEG_INF)
    skip[2:][(ext[2:] != BLANK) & (ext[2:] != ext[:-2])] = 0.0
    emit = log_probs.data[:, ext]  # [T x L]
    alpha = _alpha(emit, skip)
    log_likelihood = np.logaddexp.reduce(alpha[-1, -2:])
    out = Tensor(-log_likelihood, (log_probs,))

    def backward(g):
        occupancy = np.exp(alpha + _beta(emit, skip) - log_likelihood)
        grad = np.zeros_like(log_probs.data)
        np.add.at(grad, (slice(None), ext), -g * occupancy)
        _accum(log_probs, grad)

    _register(out, backward)
    return out


def _alpha(emit, skip):
    """alpha[t, s]: log-prob of every path prefix ending in state s at frame t."""
    alpha = np.full(emit.shape, NEG_INF)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, len(emit)):
        prev = alpha[t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(prev[1:], prev[:-1])
        acc[2:] = np.logaddexp(acc[2:], prev[:-2] + skip[2:])
        alpha[t] = acc + emit[t]
    return alpha


def _beta(emit, skip):
    """beta[t, s]: log-prob of every path suffix after state s at frame t,
    excluding frame t's own emission."""
    beta = np.full(emit.shape, NEG_INF)
    beta[-1, -2:] = 0.0
    for t in range(len(emit) - 2, -1, -1):
        nxt = beta[t + 1] + emit[t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(nxt[:-1], nxt[1:])
        acc[:-2] = np.logaddexp(acc[:-2], nxt[2:] + skip[2:])
        beta[t] = acc
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


def ctc_greedy(log_probs):
    """Per-frame argmax, collapse repeats, drop blanks. Ties go to the lower id."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    return collapse(lp.argmax(axis=1).tolist())
