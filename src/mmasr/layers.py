"""Neural building blocks shared by the speech encoder, the visual encoder
and the decoder: multi-head attention, bool masks, layer norm, the
feed-forward weights, and token embedding with sinusoidal positions. The
pre-LN feed-forward and convolution sub-blocks are single tensor nodes
(``tensor.feed_forward``, ``tensor.conv_module``) that the stacks call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .errors import ConfigError, ContractError, ShapeError, VocabError
from .tensor import Tensor

MASK_PENALTY = -1e9


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


def causal_mask(n):
    """[n x n] bool: query i sees keys 0..i."""
    return np.tril(np.ones((n, n), dtype=bool))


def key_mask(lengths, n_keys):
    """Key-padding mask of a padded batch, [B x 1 x n_keys] bool (row b sees
    its first lengths[b] keys), or None when nothing is padded.

    A row of length 0 sees its first key, so that its softmax is defined;
    the caller discards what that row computes.
    """
    if lengths is None:
        return None
    lengths = np.maximum(lengths, 1)
    return None if lengths.min() == n_keys else np.arange(n_keys) < lengths[:, None, None]


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


def attention(q, k, v, params, mask=None, norm=None):
    """Multi-head scaled dot-product attention with projected q/k/v.

    ``q`` is [..., L_q x d_model] and ``k``, ``v`` are [..., L_k x d_model]
    with the same leading axes. ``mask`` is a bool array broadcastable to
    [..., L_q x L_k], True where a query sees a key; hidden keys get an
    additive -1e9 penalty before the softmax. ``k`` and ``v`` may be numpy
    constants. With ``norm`` (a ``LayerNormParams``) it is the pre-LN
    self-attention sub-block q + MHA(LN(q)), and ``k`` and ``v`` are ``q``.
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
    penalty = None if mask is None else _penalty(mask, lead + (L_q, L_k))
    weights = (params.w_q, params.w_k, params.w_v, params.w_o)
    return tn.attention(q, k, v, weights, params.n_heads, penalty, norm)


def _penalty(mask, scores_shape):
    """The additive softmax penalty, the same for every head, of a bool
    ``mask`` that must broadcast to ``scores_shape`` and show each query a key."""
    try:
        fits = np.broadcast_shapes(mask.shape, scores_shape) == scores_shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(
            f"mask shape {mask.shape} does not broadcast to (..., L_q, L_k) = {scores_shape}")
    if not mask.any(axis=-1).all():
        raise ContractError("mask leaves a query row with no visible keys")
    penalty = np.where(mask, 0.0, MASK_PENALTY)
    return penalty[..., None, :, :] if penalty.ndim > 2 else penalty


def layer_norm(x, p):
    """Per-row normalization to zero mean / unit variance, then scale and
    shift by the ``LayerNormParams`` ``p``."""
    d = x.shape[-1]
    if p.gamma.shape != (d,) and p.gamma.shape != (1, d):
        raise ShapeError(f"gamma shape {p.gamma.shape} does not match d={d}")
    return tn.layer_norm(x, p)


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
    return tn.add(looked, sinusoidal_positions(tokens.shape[-1], d).astype(looked.data.dtype))
