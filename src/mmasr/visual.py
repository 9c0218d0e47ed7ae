"""Visual-text feature encoder over OCR token sequences.

Stands in for a frozen pixel-level OCR feature extractor: token embedding
plus sinusoidal positions, then one self-attention block so distractor
tokens can be contextually down-weighted before fusion. An empty OCR
sequence is a first-class state (no visual text present).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .layers import (
    AttentionParams,
    FeedForwardParams,
    LayerNormParams,
    attention,
    embed,
    init_attention_params,
    init_feed_forward,
    init_layer_norm,
    key_mask,
)
from .tensor import Tensor


@dataclass
class VisualFeatures:
    frames: Tensor  # [i_len x d_model], or a padded batch [B x i_len x d_model]
    lengths: np.ndarray = None  # OCR tokens of each batch row, 0 allowed; None: all i_len

    @property
    def i_len(self):
        return self.frames.shape[-2]


@dataclass
class VisualEncoderParams:
    embed: Tensor  # [text_vocab x d_model]
    ln_attn: LayerNormParams
    attn: AttentionParams
    ln_ffn: LayerNormParams
    ffn: FeedForwardParams


def init_visual_params(text_vocab, d_model, n_heads, d_ff, rng):
    return VisualEncoderParams(
        embed=Tensor(rng.normal(0.0, 1.0 / math.sqrt(d_model), (text_vocab, d_model))),
        ln_attn=init_layer_norm(d_model),
        attn=init_attention_params(d_model, n_heads, rng),
        ln_ffn=init_layer_norm(d_model),
        ffn=init_feed_forward(d_model, d_ff, rng),
    )


def empty_visual(d_model):
    return VisualFeatures(frames=Tensor(np.zeros((0, d_model))))


def encode_visual(ocr_tokens, params, frozen=False, lengths=None):
    """Embed OCR tokens and run one self-attention block.

    ``ocr_tokens`` is one sequence [i_len], or a batch zero-padded to
    [B x i_len] with each row's token count in ``lengths``; a row may have
    no tokens. With ``frozen=True``, as decoding runs it, the computation is
    detached from the graph, so no gradient ever reaches the parameters,
    and runs in float64 whatever dtype an optimizer holds them in.
    """
    tokens = np.asarray(ocr_tokens, dtype=np.int64)
    d_model = params.embed.shape[1]
    if tokens.shape[-1] == 0:
        return empty_visual(d_model)
    if frozen:
        with tn.no_grad():
            table = Tensor(params.embed.data.astype(np.float64, copy=False))
            return _forward(tokens, params, lengths, table)
    return _forward(tokens, params, lengths, params.embed)


def _forward(tokens, params, lengths, table):
    i_len = tokens.shape[-1]
    x = embed(tokens, table)
    # A row without tokens attends to its padding; the decoder discards it.
    x = attention(x, x, x, params.attn, key_mask(lengths, i_len), norm=params.ln_attn)
    x = tn.feed_forward(x, params.ln_ffn, params.ffn.w1, params.ffn.w2, 1.0)
    return VisualFeatures(frames=x, lengths=lengths)
