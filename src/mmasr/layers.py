"""Neural building blocks: multi-head attention, layer norm, feed-forward,
depthwise convolution module, and token embedding with sinusoidal positions.
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
class Mask:
    allowed: np.ndarray  # bool, [query_len x key_len]

    @classmethod
    def causal(cls, n):
        return cls(np.tril(np.ones((n, n), dtype=bool)))


def init_attention_params(d_model, n_heads, rng):
    s = 1.0 / math.sqrt(d_model)
    return AttentionParams(
        w_q=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        w_k=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        w_v=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        w_o=Tensor(rng.normal(0.0, s, (d_model, d_model))),
        n_heads=n_heads,
    )


def attention(q, k, v, params, mask=None):
    """Multi-head scaled dot-product attention with projected q/k/v.

    Masked positions get an additive -1e9 penalty before the softmax; a
    query row with no visible key is a contract violation.
    """
    d_model = q.shape[1]
    if d_model != params.d_model or k.shape[1] != d_model or v.shape[1] != d_model:
        raise ShapeError(
            f"attention d_model mismatch: q {q.shape}, k {k.shape}, "
            f"v {v.shape}, params d_model {params.d_model}"
        )
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k/v length mismatch: {k.shape} vs {v.shape}")
    penalty = None
    if mask is not None:
        if mask.allowed.shape != (q.shape[0], k.shape[0]):
            raise ShapeError(
                f"mask shape {mask.allowed.shape} does not match "
                f"(L_q, L_k) = ({q.shape[0]}, {k.shape[0]})"
            )
        if not mask.allowed.any(axis=1).all():
            raise ContractError("mask leaves a query row with no visible keys")
        penalty = Tensor(np.where(mask.allowed, 0.0, MASK_PENALTY))

    h, d_k = params.n_heads, params.d_k

    def split_heads(x, w, axes):
        # [L x d_model] -> [L x h x d_k], then permuted to put the head axis first
        return tn.transpose(tn.reshape(tn.matmul(x, w), (x.shape[0], h, d_k)), axes)

    qh = split_heads(q, params.w_q, (1, 0, 2))  # [h x L_q x d_k]
    kh = split_heads(k, params.w_k, (1, 2, 0))  # [h x d_k x L_k]
    vh = split_heads(v, params.w_v, (1, 0, 2))  # [h x L_k x d_k]
    scores = tn.scale(tn.matmul(qh, kh), 1.0 / math.sqrt(d_k))
    if penalty is not None:
        scores = tn.add(scores, penalty)
    heads = tn.matmul(tn.softmax_rows(scores), vh)  # [h x L_q x d_k]
    merged = tn.reshape(tn.transpose(heads, (1, 0, 2)), (q.shape[0], d_model))
    return tn.matmul(merged, params.w_o)


def layer_norm(x, gamma, beta, eps=LAYER_NORM_EPS):
    """Per-row normalization to zero mean / unit variance, then scale and shift."""
    d = x.shape[1]
    if gamma.shape != (d,) and gamma.shape != (1, d):
        raise ShapeError(f"gamma shape {gamma.shape} does not match d={d}")
    return tn.add(tn.mul(tn.normalize_rows(x, eps), gamma), beta)


def feed_forward(x, w1, w2, act=tn.relu):
    """Position-wise two-layer network; residual is the caller's job."""
    return tn.matmul(act(tn.matmul(x, w1)), w2)


def depthwise_conv(x, kernel):
    """Per-channel 1-D convolution with zero padding; kernel is [width x d]."""
    width = kernel.shape[0]
    if width % 2 == 0:
        raise ConfigError(f"conv width must be odd, got {width}")
    if kernel.shape[1] != x.shape[1]:
        raise ShapeError(f"kernel channels {kernel.shape[1]} != d {x.shape[1]}")
    return tn.shift_sum(x, kernel)


def conv_module(x, kernel, w_in=None, w_out=None, act=None):
    """Pointwise -> depthwise -> pointwise convolution block.

    With no pointwise weights and no activation a centered delta kernel is
    the identity; the encoder wires in SiLU and both pointwise projections.
    """
    h = tn.matmul(x, w_in) if w_in is not None else x
    h = depthwise_conv(h, kernel)
    if act is not None:
        h = act(h)
    return tn.matmul(h, w_out) if w_out is not None else h


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
    """Row lookup plus sinusoidal positional encoding."""
    tokens = np.asarray(tokens, dtype=np.int64)
    V, d = table.shape
    if tokens.size == 0:
        return tn.zeros((0, d))
    if tokens.min() < 0 or tokens.max() >= V:
        bad = tokens[(tokens < 0) | (tokens >= V)][0]
        raise VocabError(f"token id {bad} outside vocabulary of size {V}")
    looked = tn.gather_rows(table, tokens)
    return tn.add(looked, Tensor(sinusoidal_positions(len(tokens), d)))
