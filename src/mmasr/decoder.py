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
    sinusoidal_positions,
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
        head_i = tn.mul(head_i, (lengths > 0).astype(head_i.data.dtype)[:, None, None])
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
    hit_max_len: bool = field(default=False, compare=False)  # ended without EOS
    steps: int = field(default=0, compare=False)  # search steps the search ran


def beam_decode(t_feats, i_feats, cfg, params, beam=4, max_len=32):
    """Length-normalized log-prob beam search; beam=1 is a greedy rollout.

    Each step runs the decoder on the new position of the utterance's live
    hypotheses in one call (``_decode_step``). Ties break toward the
    lexicographically smaller token sequence (lower token id first, shorter
    hypothesis on prefix ties). A hypothesis ends at EOS or after max_len tokens.

    The search stops early, with the hypothesis a full search would return
    (Huang, Zhao & Ma 2017, "When to Finish? Optimal Beam Search for Neural
    Text Generation"): every log-prob is <= 0, so no continuation of a live
    hypothesis ends with a normalized score above its log_prob / max_len.
    Once that bound is strictly below the best finished score for every
    live hypothesis, none of them can win, nor tie and win on token order.
    """
    if beam < 1:
        raise ConfigError(f"beam width must be >= 1, got {beam}")
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    eos, bos = cfg.eos_id, cfg.bos_id
    ids = np.delete(np.arange(cfg.vocab_size), bos)  # what a step may emit
    with tn.no_grad():
        memory = [_cross_memory(t_feats, i_feats, block.cross) for block in params.blocks]
        empty = np.zeros((1, cfg.n_heads, cfg.d_model // cfg.n_heads, 0))
        cache = [(empty, np.swapaxes(empty, -1, -2))] * cfg.n_blocks
        positions = sinusoidal_positions(max_len, cfg.d_model)
        prefixes = np.array([[bos]])  # live hypotheses, BOS first, in token order
        log_probs = np.zeros(1)
        finished = []  # (tokens without EOS, log_prob, tokens emitted incl. EOS)
        best_done = -np.inf  # the best normalized score in ``finished``
        for step in range(1, max_len + 1):
            logits, cache = _decode_step(prefixes, positions[step - 1], cache, memory,
                                         cfg, params)
            last = tn.log_softmax_rows(logits).data[:, ids]
            scores = (log_probs[:, None] + last).ravel()
            # The rows, so the candidates, are in token order: a stable sort keeps ties
            # so, and the chosen candidates, taken in index order, stay in token order.
            best = np.sort(np.argsort(-(scores / step), kind="stable")[:beam])
            parent, token = np.divmod(best, len(ids))
            prefixes = np.column_stack((prefixes[parent], ids[token]))
            log_probs = scores[best]
            done = (prefixes[:, -1] == eos) | (step == max_len)
            if done.any():
                finished += [(tuple(t for t in toks if t != eos), lp, step) for toks, lp in
                             zip(prefixes[done, 1:].tolist(), log_probs[done].tolist())]
                best_done = max(best_done, log_probs[done].max() / step)
            prefixes, log_probs, parent = prefixes[~done], log_probs[~done], parent[~done]
            if (log_probs / max_len < best_done).all():  # also when no hypothesis is live
                break
            cache = [(keys[parent], values[parent]) for keys, values in cache]
        finished.sort(key=lambda c: (-c[1] / c[2], c[0]))
        toks, lp, n = finished[0]
        return Hypothesis(tokens=list(toks), log_prob=lp, normalized=lp / n,
                          hit_max_len=len(toks) == n, steps=step)


def _cross_memory(t_feats, i_feats, cross):
    """Each branch's (keys [h x d_k x L], values [h x L x d_k], params); none if empty."""
    memory = []
    for feats, p in ((t_feats, cross.audio_branch), (i_feats, cross.visual_branch)):
        frames = tn.as_tensor(feats.frames).data
        if len(frames):
            k, v = ((frames @ w.data).reshape(-1, p.n_heads, p.d_k) for w in (p.w_k, p.w_v))
            memory.append((k.transpose(1, 2, 0), v.transpose(1, 0, 2), p))
    return memory


def _decode_step(prefixes, position, cache, memory, cfg, params):
    """``decoder_forward`` (its oracle) on each live prefix's [n x step] last position
    alone, whose sinusoidal row is ``position``: (logits [n x vocab_size], ``cache``
    extended by that position)."""
    n = len(prefixes)
    d, h = cfg.d_model, cfg.n_heads
    x = params.embed.data[prefixes[:, -1]] + position
    extended = []
    for block, (keys, values), branches in zip(params.blocks, cache, memory):
        p = block.self_attn
        normed = tn.layer_norm(x, block.ln_self).data
        q, k, v = (normed @ w.data for w in (p.w_q, p.w_k, p.w_v))
        keys = np.concatenate([keys, k.reshape(n, h, -1, 1)], axis=-1)
        values = np.concatenate([values, v.reshape(n, h, 1, -1)], axis=-2)
        extended.append((keys, values))
        x = x + tn._attend(q.reshape(n, h, 1, -1), keys, values)[1].reshape(n, d) @ p.w_o.data
        q = tn.layer_norm(x, block.ln_cross).data
        x = x + sum(tn._attend((q @ b.w_q.data).reshape(n, h, 1, -1), b_keys, b_values)[1]
                    .reshape(n, d) @ b.w_o.data for b_keys, b_values, b in branches)
        x = tn.feed_forward(Tensor(x), block.ln_ffn, block.ffn.w1, block.ffn.w2, 1.0).data
    return tn.layer_norm(x, params.ln_out).data @ params.out_w.data, extended
