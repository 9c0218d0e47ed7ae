"""Multimodal fusion decoder.

A transformer decoder whose cross-attention stage runs two parallel
branches, one over audio features and one over visual-text features, with
the branch outputs summed. Zeroing the visual branch's value/output
projections (or feeding an empty visual sequence) reduces it exactly to an
audio-only decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as tn
from .errors import ConfigError, ContractError, ShapeError, check_int
from .layers import (
    AttentionParams,
    FeedForwardParams,
    LayerNormParams,
    attention,
    causal_mask,
    embed,
    init_attention_params,
    init_feed_forward,
    init_layer_norm,
    key_mask,
    layer_norm,
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
    mask, keys = causal_mask(n), key_mask(lengths, n)
    if keys is not None:
        mask = mask & keys
    for block in params.blocks:
        x = attention(x, x, x, block.self_attn, mask, norm=block.ln_self)
        # Both cross-attention branches read one norm: x + (audio + visual).
        h = layer_norm(x, block.ln_cross)
        x = tn.add(x, dual_cross_attention(h, t_feats, i_feats, block.cross))
        x = tn.feed_forward(x, block.ln_ffn, block.ffn.w1, block.ffn.w2, 1.0)
    x = layer_norm(x, params.ln_out)
    return tn.matmul(x, params.out_w)


@dataclass
class Hypothesis:
    tokens: list
    log_prob: float
    normalized: float


def beam_decode(t_feats, i_feats, cfg, params, beam=4, max_len=32):
    """Length-normalized log-prob beam search; beam=1 is a greedy rollout.

    Each step scores all live hypotheses in one decoder call on their
    prefixes, which are equally long. Ties break toward the lexicographically
    smaller token sequence (lower token id first, shorter hypothesis on
    prefix ties). A hypothesis ends at EOS or after max_len tokens.
    """
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    eos, bos = cfg.eos_id, cfg.bos_id
    ids = np.delete(np.arange(cfg.vocab_size), bos)  # what a step may emit
    with tn.no_grad():
        prefixes = np.array([[bos]])  # live hypotheses, BOS first, in token order
        log_probs = np.zeros(1)
        finished = []  # (tokens without EOS, log_prob, tokens emitted incl. EOS)
        for step in range(1, max_len + 1):
            n = len(prefixes)
            logits = decoder_forward(prefixes, _beam_rows(t_feats, n),
                                     _beam_rows(i_feats, n), cfg, params)
            last = tn.log_softmax_rows(logits.data[:, -1]).data[:, ids]
            scores = (log_probs[:, None] + last).ravel()
            # The rows, so the candidates, are in token order; a stable sort keeps ties so.
            best = np.argsort(-(scores / step), kind="stable")[:beam]
            parent, token = np.divmod(best, len(ids))
            prefixes = np.column_stack((prefixes[parent], ids[token]))
            log_probs = scores[best]
            done = (prefixes[:, -1] == eos) | (step == max_len)
            finished += [(tuple(t for t in toks if t != eos), lp, step) for toks, lp in
                         zip(prefixes[done, 1:].tolist(), log_probs[done].tolist())]
            live = np.lexsort(prefixes.T[::-1])
            live = live[~done[live]]
            prefixes, log_probs = prefixes[live], log_probs[live]
            if not len(live):
                break
        finished.sort(key=lambda c: (-c[1] / c[2], c[0]))
        toks, lp, n = finished[0]
        return Hypothesis(tokens=list(toks), log_prob=lp, normalized=lp / n)


def _beam_rows(feats, n):
    """One utterance's features repeated over n beam rows."""
    frames = tn.as_tensor(feats.frames).data
    return replace(feats, frames=np.broadcast_to(frames, (n,) + frames.shape))
