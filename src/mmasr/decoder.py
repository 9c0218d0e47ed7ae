"""Multimodal fusion decoder.

A transformer decoder whose cross-attention stage runs two parallel
branches, one over audio features and one over visual-text features, with
the branch outputs summed. Zeroing the visual branch's value/output
projections (or feeding an empty visual sequence) reduces it exactly to an
audio-only decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tn
from .errors import ConfigError, ContractError, ShapeError, check_int
from .layers import (
    AttentionParams,
    Mask,
    attention,
    embed,
    feed_forward,
    init_attention_params,
    key_mask,
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
class DecoderConfig:
    n_blocks: int = 2
    n_heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    vocab_size: int = 0  # shared text vocab plus BOS and EOS

    def __post_init__(self):
        for name in ("n_blocks", "n_heads", "d_model", "d_ff"):
            check_int(f"decoder {name}", getattr(self, name), 1)
        # at least one token plus BOS and EOS
        check_int("decoder vocab_size", self.vocab_size, 3)

    @property
    def bos_id(self):
        return self.vocab_size - 2

    @property
    def eos_id(self):
        return self.vocab_size - 1


@dataclass
class DualCrossAttentionParams:
    audio_branch: AttentionParams
    visual_branch: AttentionParams

    def __post_init__(self):
        audio = {id(self.audio_branch.w_q), id(self.audio_branch.w_k),
                 id(self.audio_branch.w_v), id(self.audio_branch.w_o)}
        visual = {id(self.visual_branch.w_q), id(self.visual_branch.w_k),
                  id(self.visual_branch.w_v), id(self.visual_branch.w_o)}
        if audio & visual:
            raise ConfigError("audio and visual branches must not share parameters")
        if self.audio_branch.n_heads != self.visual_branch.n_heads:
            raise ConfigError("branches must share n_heads")
        if self.audio_branch.d_model != self.visual_branch.d_model:
            raise ConfigError("branches must share d_model")


@dataclass
class DecoderBlockParams:
    ln_self: LayerNormParams
    self_attn: AttentionParams
    ln_cross: LayerNormParams
    cross: DualCrossAttentionParams
    ln_ffn: LayerNormParams
    ffn: FeedForwardParams


@dataclass
class DecoderParams:
    embed: Tensor  # [vocab_size x d_model]
    blocks: list = field(default_factory=list)
    ln_out: LayerNormParams = None
    out_w: Tensor = None  # [d_model x vocab_size]


def init_decoder_params(cfg, rng):
    blocks = []
    for _ in range(cfg.n_blocks):
        blocks.append(
            DecoderBlockParams(
                ln_self=init_layer_norm(cfg.d_model),
                self_attn=init_attention_params(cfg.d_model, cfg.n_heads, rng),
                ln_cross=init_layer_norm(cfg.d_model),
                cross=DualCrossAttentionParams(
                    audio_branch=init_attention_params(cfg.d_model, cfg.n_heads, rng),
                    visual_branch=init_attention_params(cfg.d_model, cfg.n_heads, rng),
                ),
                ln_ffn=init_layer_norm(cfg.d_model),
                ffn=init_feed_forward(cfg.d_model, cfg.d_ff, rng),
            )
        )
    return DecoderParams(
        embed=Tensor(rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model),
                                (cfg.vocab_size, cfg.d_model))),
        blocks=blocks,
        ln_out=init_layer_norm(cfg.d_model),
        out_w=Tensor(rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model),
                                (cfg.d_model, cfg.vocab_size))),
    )


def dual_cross_attention(q, t_feats, i_feats, params):
    """Sum of the audio-branch and visual-branch cross-attentions.

    When the visual sequence is empty the visual term is defined as exactly
    zero; no softmax over an empty key set is ever evaluated. In a padded
    batch each branch sees only its row's valid keys, and a row without
    visual tokens adds an exact 0.0.
    """
    if q.shape[-1] != params.audio_branch.d_model:
        raise ShapeError(
            f"query d_model {q.shape[-1]} != branch d_model {params.audio_branch.d_model}"
        )
    head_t = attention(q, t_feats.frames, t_feats.frames, params.audio_branch,
                       mask=key_mask(t_feats.lengths, t_feats.t_len))
    if i_feats.i_len == 0:
        return head_t
    lengths = i_feats.lengths
    head_i = attention(q, i_feats.frames, i_feats.frames, params.visual_branch,
                       mask=key_mask(lengths, i_feats.i_len))
    if lengths is not None and lengths.min() == 0:
        head_i = tn.mul(head_i, (lengths > 0).astype(np.float64)[:, None, None])
    return tn.add(head_t, head_i)


def decoder_forward(targets_in, t_feats, i_feats, cfg, params, lengths=None):
    """Logits over the decoder vocabulary for each target position.

    ``targets_in`` is one sequence [L], or a batch padded to [B x L] with
    each row's length in ``lengths``; every row begins with BOS.
    Self-attention is causally masked and, in a batch, sees only the row's
    valid positions.
    """
    targets_in = np.asarray(targets_in, dtype=np.int64)
    n = targets_in.shape[-1]
    if n == 0:
        raise ContractError("decoder needs at least the BOS token")
    if set(np.ravel(targets_in[..., 0]).tolist()) != {cfg.bos_id}:
        raise ContractError(f"targets must begin with BOS (id {cfg.bos_id})")
    x = embed(targets_in, params.embed)
    mask = Mask.causal(n)
    keys = key_mask(lengths, n)
    if keys is not None:
        mask = Mask(mask.allowed & keys.allowed)
    for block in params.blocks:
        h = _ln(x, block.ln_self)
        x = tn.add(x, attention(h, h, h, block.self_attn, mask=mask))
        h = _ln(x, block.ln_cross)
        x = tn.add(x, dual_cross_attention(h, t_feats, i_feats, block.cross))
        h = _ln(x, block.ln_ffn)
        x = tn.add(x, feed_forward(h, block.ffn.w1, block.ffn.w2))
    x = _ln(x, params.ln_out)
    return tn.matmul(x, params.out_w)


@dataclass
class Hypothesis:
    tokens: list
    log_prob: float
    normalized: float


def _norm(log_prob, n_emitted):
    return log_prob / max(n_emitted, 1)


def beam_decode(t_feats, i_feats, cfg, params, beam=4, max_len=32):
    """Length-normalized log-prob beam search; beam=1 is a greedy rollout.

    Ties break toward the lexicographically smaller token sequence (lower
    token id first, shorter hypothesis on prefix ties).
    """
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    eos, bos = cfg.eos_id, cfg.bos_id
    with tn.no_grad():
        live = [((), 0.0)]  # emitted tokens (excl. BOS), summed log-prob
        finished = []  # (tokens-without-eos, log_prob, n_emitted incl. eos)
        for _ in range(max_len):
            candidates = []
            for toks, lp in live:
                logits = decoder_forward((bos,) + toks, t_feats, i_feats, cfg, params)
                row = tn.log_softmax_rows(logits).data[len(toks)]
                for v in range(cfg.vocab_size):
                    if v == bos:
                        continue
                    candidates.append((toks + (v,), lp + float(row[v])))
            candidates.sort(key=lambda c: (-_norm(c[1], len(c[0])), c[0]))
            live = []
            for toks, lp in candidates[:beam]:
                if toks[-1] == eos:
                    finished.append((toks[:-1], lp, len(toks)))
                else:
                    live.append((toks, lp))
            if not live:
                break
        for toks, lp in live:
            finished.append((toks, lp, len(toks)))
        finished.sort(key=lambda c: (-_norm(c[1], c[2]), c[0]))
        toks, lp, n = finished[0]
        return Hypothesis(tokens=list(toks), log_prob=lp, normalized=_norm(lp, n))
