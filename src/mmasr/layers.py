"""Neural building blocks shared by the speech encoder, the visual encoder
and the decoder: multi-head attention, layer norm, the feed-forward
weights, and token embedding with sinusoidal positions. The feed-forward
and convolution modules are single tensor nodes (``tensor.feed_forward``,
``tensor.conv_module``) that those stacks call directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .errors import ConfigError, ContractError, ShapeError, VocabError
from .tensor import Tensor

MASK_PENALTY = -1e9
LAYER_NORM_EPS = 1e-5


@dataclass
class AttentionParams:
    """Projection weights for one multi-head attention module."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    n_heads: int

    def __post_init__(self):
        d = self.w_q.shape[0]
        if d % self.n_heads != 0:
            raise ConfigError(f"d_model {d} not divisible by n_heads {self.n_heads}")

    @property
    def d_model(self):
        return self.w_q.shape[0]

    @property
    def d_k(self):
        return self.d_model // self.n_heads


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class FeedForwardParams:
    w1: Tensor
    w2: Tensor


@dataclass
class Mask:
    allowed: np.ndarray  # bool, broadcastable to [..., query_len x key_len]

    @classmethod
    def causal(cls, n):
        return cls(np.tril(np.ones((n, n), dtype=bool)))

    @classmethod
    def keys(cls, lengths, n_keys):
        """[B x 1 x n_keys]: every query of row b sees its first lengths[b] keys."""
        return cls(np.arange(n_keys) < np.asarray(lengths)[:, None, None])


def key_mask(lengths, n_keys):
    """Key-padding mask of a padded batch, or None when nothing is padded.

    A row of length 0 sees its first key, so that its softmax is defined;
    the caller discards what that row computes.
    """
    if lengths is None:
        return None
    lengths = np.maximum(lengths, 1)
    return None if lengths.min() == n_keys else Mask.keys(lengths, n_keys)


def pad_batch(seqs, dtype=np.int64):
    """Stack sequences of different lengths along a new leading axis,
    zero-padding each at its end; returns (array [B x L_max ...], lengths)."""
    seqs = [np.asarray(x, dtype=dtype) for x in seqs]
    lengths = np.array([len(x) for x in seqs], dtype=np.int64)
    out = np.zeros((len(seqs), int(lengths.max())) + seqs[0].shape[1:], dtype=dtype)
    for row, x in zip(out, seqs):
        row[: len(x)] = x
    return out, lengths


def init_attention_params(d_model, n_heads, rng):
    s = 1.0 / math.sqrt(d_model)
    return AttentionParams(
        w_q=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        w_k=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        w_v=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        w_o=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        n_heads=n_heads,
    )


def init_layer_norm(d):
    return LayerNormParams(gamma=Tensor(np.ones(d)), beta=Tensor(np.zeros(d)))


def init_feed_forward(d, d_ff, rng):
    return FeedForwardParams(
        w1=Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d_ff))),
        w2=Tensor(rng.normal(0.0, 1.0 / math.sqrt(d_ff), (d_ff, d))),
    )


def attention(q, k, v, params, mask=None, residual=None):
    """Multi-head scaled dot-product attention with projected q/k/v.

    ``q`` is [..., L_q x d_model] and ``k``, ``v`` are [..., L_k x d_model]
    with the same leading axes. Masked positions get an additive -1e9
    penalty before the softmax; ``mask.allowed`` broadcasts to
    [..., L_q x L_k], and a query row with no visible key is a contract
    violation. ``k`` and ``v`` may be numpy constants. A ``residual`` of
    q's shape is added to the output.
    """
    q_shape, k_shape = q.shape, k.shape
    lead, (L_q, d_model), L_k = q_shape[:-2], q_shape[-2:], k_shape[-2]
    if d_model != params.d_model or k_shape[-1] != d_model or v.shape != k_shape:
        raise ShapeError(
            f"attention shapes do not match: q {q_shape}, k {k_shape}, "
            f"v {v.shape}, params d_model {params.d_model}"
        )
    if k_shape[:-2] != lead:
        raise ShapeError(f"q and k leading axes differ: {q_shape} vs {k_shape}")
    penalty = None
    if mask is not None:
        scores_shape = lead + (L_q, L_k)
        if mask.allowed.shape != scores_shape and not _broadcasts(
                mask.allowed.shape, scores_shape):
            raise ShapeError(
                f"mask shape {mask.allowed.shape} does not broadcast to "
                f"(..., L_q, L_k) = {scores_shape}"
            )
        if not mask.allowed.any(axis=-1).all():
            raise ContractError("mask leaves a query row with no visible keys")
        penalty = np.where(mask.allowed, 0.0, MASK_PENALTY)
        if penalty.ndim > 2:
            penalty = penalty[..., None, :, :]  # the same for every head
    weights = (params.w_q, params.w_k, params.w_v, params.w_o)
    return tn.attention(q, k, v, weights, params.n_heads, penalty, residual)


def _broadcasts(shape, target):
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


def layer_norm(x, p, eps=LAYER_NORM_EPS):
    """Per-row normalization to zero mean / unit variance, then scale and
    shift by the ``LayerNormParams`` ``p``."""
    d = x.shape[-1]
    if p.gamma.shape != (d,) and p.gamma.shape != (1, d):
        raise ShapeError(f"gamma shape {p.gamma.shape} does not match d={d}")
    return tn.layer_norm(x, p.gamma, p.beta, eps)


def sinusoidal_positions(length, d):
    """Standard sin/cos positional table, shape [length x d]."""
    pe = np.zeros((length, d))
    if length == 0:
        return pe
    pos = np.arange(length)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, d, 2) * (-math.log(10000.0) / d))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: d // 2])
    return pe


def embed(tokens, table):
    """Row lookup plus sinusoidal positional encoding; ``tokens`` is [L] or
    a padded batch [B x L]."""
    tokens = np.asarray(tokens, dtype=np.int64)
    V, d = table.shape
    if tokens.size == 0:
        return tn.zeros(tokens.shape + (d,))
    if tokens.min() < 0 or tokens.max() >= V:
        bad = tokens[(tokens < 0) | (tokens >= V)][0]
        raise VocabError(f"token id {bad} outside vocabulary of size {V}")
    looked = tn.gather_rows(table, tokens)
    return tn.add(looked, sinusoidal_positions(tokens.shape[-1], d))
