"""Conformer-lite speech encoder with a linear CTC head.

Desk-scale defaults shrink the published 12-block configuration so the
whole stack trains on a CPU in minutes; depth and width stay configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ConfigError, ContractError, check_int
from .layers import (
    AttentionParams,
    FeedForwardParams,
    LayerNormParams,
    attention,
    init_attention_params,
    init_feed_forward,
    init_layer_norm,
    key_mask,
    layer_norm,
    sinusoidal_positions,
)
from .tensor import Tensor


@dataclass
class EncoderConfig:
    n_blocks: int = 4
    n_heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    conv_width: int = 7
    subsample_factor: int = 2

    def __post_init__(self):
        check_int("encoder n_blocks", self.n_blocks, 0)
        for name in ("n_heads", "d_model", "d_ff", "conv_width", "subsample_factor"):
            check_int(f"encoder {name}", getattr(self, name), 1)
        if self.subsample_factor not in (1, 2, 4):
            raise ConfigError(f"subsample_factor must be 1, 2 or 4, got {self.subsample_factor}")
        if self.conv_width % 2 == 0:
            raise ConfigError(f"conv_width must be odd, got {self.conv_width}")


@dataclass
class AudioFeatures:
    frames: Tensor  # [t_len x d_model], or a padded batch [B x t_len x d_model];
    # a numpy array when the encoder is frozen (a constant for the decoder)
    lengths: np.ndarray = None  # valid frames of each batch row; None: all t_len

    @property
    def t_len(self):
        return self.frames.shape[-2]


@dataclass
class ConvModuleParams:
    w_in: Tensor
    kernel: Tensor  # [width x d_model]
    w_out: Tensor


@dataclass
class EncoderBlockParams:
    ln_ffn1: LayerNormParams
    ffn1: FeedForwardParams
    ln_attn: LayerNormParams
    attn: AttentionParams
    ln_conv: LayerNormParams
    conv: ConvModuleParams
    ln_ffn2: LayerNormParams
    ffn2: FeedForwardParams
    ln_out: LayerNormParams


@dataclass
class EncoderParams:
    in_proj: Tensor  # [d_in x d_model]
    blocks: list = field(default_factory=list)


def init_conv_module(d, width, rng):
    return ConvModuleParams(
        w_in=Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))),
        kernel=Tensor(rng.normal(0.0, 1.0 / math.sqrt(width), (width, d))),
        w_out=Tensor(rng.normal(0.0, 1.0 / math.sqrt(d), (d, d))),
    )


def init_encoder_params(cfg, d_in, rng):
    blocks = []
    for _ in range(cfg.n_blocks):
        blocks.append(
            EncoderBlockParams(
                ln_ffn1=init_layer_norm(cfg.d_model),
                ffn1=init_feed_forward(cfg.d_model, cfg.d_ff, rng),
                ln_attn=init_layer_norm(cfg.d_model),
                attn=init_attention_params(cfg.d_model, cfg.n_heads, rng),
                ln_conv=init_layer_norm(cfg.d_model),
                conv=init_conv_module(cfg.d_model, cfg.conv_width, rng),
                ln_ffn2=init_layer_norm(cfg.d_model),
                ffn2=init_feed_forward(cfg.d_model, cfg.d_ff, rng),
                ln_out=init_layer_norm(cfg.d_model),
            )
        )
    return EncoderParams(
        in_proj=Tensor(rng.normal(0.0, 1.0 / math.sqrt(d_in), (d_in, cfg.d_model))),
        blocks=blocks,
    )


def encoder_block(x, p, mask=None, frame_mask=None):
    """Macaron block: half-FFN, self-attention, conv, half-FFN, layer norm;
    each of the first four is one pre-LN sub-block node, x + f(LN(x)).

    In a padded batch, ``mask`` hides the padded keys from self-attention
    and ``frame_mask`` ([B x t_len x 1], 1 on valid frames) zeroes the
    padded frames of the conv-module input, so the convolution sees the
    same zero padding at a row's end as it does for that row alone.
    """
    x = tn.feed_forward(x, p.ln_ffn1, p.ffn1.w1, p.ffn1.w2, 0.5)
    x = attention(x, x, x, p.attn, mask, norm=p.ln_attn)
    x = tn.conv_module(x, p.ln_conv, p.conv.w_in, p.conv.kernel, p.conv.w_out, frame_mask)
    x = tn.feed_forward(x, p.ln_ffn2, p.ffn2.w1, p.ffn2.w2, 0.5)
    return layer_norm(x, p.ln_out)


def subsampled_length(raw_len, factor):
    """Frames left of ``raw_len`` input frames (an int or an integer array)
    after mean pooling by ``factor``: a last, partial window counts as one."""
    return -(-raw_len // factor)


def encode_audio(frames, cfg, params, lengths=None):
    """Project, subsample by strided mean pooling, add positions, run the stack.

    ``frames`` is one utterance [raw_len x d_in], or a batch zero-padded to
    [B x raw_len x d_in] with each row's raw frame count in ``lengths``;
    as a numpy array it is a constant, as a Tensor it gets a gradient.
    """
    factor = cfg.subsample_factor
    shortest = frames.shape[-2] if lengths is None else int(np.min(lengths))
    if shortest < factor:
        raise ContractError(
            f"input of {shortest} frames is shorter than subsample factor {factor}"
        )
    h = tn.matmul(frames, params.in_proj)
    if factor > 1:
        h = tn.mean_pool_rows(h, factor, lengths)
    t_len = h.shape[-2]
    if lengths is not None:
        lengths = subsampled_length(np.asarray(lengths, dtype=np.int64), factor)
    dtype = h.data.dtype
    h = tn.add(h, sinusoidal_positions(t_len, cfg.d_model).astype(dtype))
    mask = key_mask(lengths, t_len)
    frame_mask = None if mask is None else np.swapaxes(mask, -1, -2).astype(dtype)
    for block in params.blocks:
        h = encoder_block(h, block, mask, frame_mask)
    return AudioFeatures(frames=h, lengths=lengths)


def ctc_head(features, w):
    """Per-frame log-softmax over vocab plus blank (index 0), padded frames
    included."""
    return tn.log_softmax_rows(tn.matmul(features.frames, w))
