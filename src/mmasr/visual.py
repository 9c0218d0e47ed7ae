"""Visual-text feature encoder over OCR token sequences.

Stands in for a frozen pixel-level OCR feature extractor: token embedding
plus sinusoidal positions, then one self-attention block so distractor
tokens can be contextually down-weighted before fusion. An empty OCR
sequence is a first-class state (no visual text present).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tensor as tn
from .layers import (
    AttentionParams,
    attention,
    embed,
    feed_forward,
    init_attention_params,
)
from .encoder import (
    FeedForwardParams,
    LayerNormParams,
    _ln,
    init_feed_forward,
    init_layer_norm,
)
from .tensor import Tensor


@dataclass
class VisualFeatures:
    frames: Tensor  # [i_len x d_model]
    i_len: int


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
    return VisualFeatures(frames=tn.zeros((0, d_model)), i_len=0)


def encode_visual(ocr_tokens, params, frozen=False):
    """Embed OCR tokens and run one self-attention block.

    With ``frozen=True`` the computation is detached from the graph, so no
    gradient ever reaches the parameters.
    """
    ocr_tokens = list(ocr_tokens)
    d_model = params.embed.shape[1]
    if not ocr_tokens:
        return empty_visual(d_model)
    if frozen:
        with tn.no_grad():
            return _forward(ocr_tokens, params)
    return _forward(ocr_tokens, params)


def _forward(ocr_tokens, params):
    x = embed(ocr_tokens, params.embed)
    h = _ln(x, params.ln_attn)
    x = tn.add(x, attention(h, h, h, params.attn))
    x = tn.add(x, feed_forward(_ln(x, params.ln_ffn), params.ffn.w1, params.ffn.w2))
    return VisualFeatures(frames=x, i_len=len(ocr_tokens))
