"""Fusion decoder: dual cross-attention, causality, and beam search."""

import itertools

import numpy as np
import pytest

from mmasr import decoder
from mmasr import tensor as tn
from mmasr.decoder import (
    DecoderConfig,
    DualCrossAttentionParams,
    Hypothesis,
    beam_decode,
    decoder_forward,
    dual_cross_attention,
    init_decoder_params,
)
from mmasr.encoder import AudioFeatures
from mmasr.errors import ConfigError
from mmasr.gradsuite import grad_check
from mmasr.layers import init_attention_params
from mmasr.tensor import Tensor
from mmasr.visual import VisualFeatures, empty_visual

RNG = np.random.default_rng(1701)


def _audio(t_len, d, rng=RNG):
    return AudioFeatures(Tensor(rng.standard_normal((t_len, d))))


def _visual(i_len, d, rng=RNG):
    if i_len == 0:
        return empty_visual(d)
    return VisualFeatures(Tensor(rng.standard_normal((i_len, d))))


def _cross(d, heads, rng):
    return DualCrossAttentionParams(
        audio_branch=init_attention_params(d, heads, rng),
        visual_branch=init_attention_params(d, heads, rng),
    )


def _decoder(vocab, d=4, heads=2, blocks=2, seed=0):
    cfg = DecoderConfig(n_blocks=blocks, n_heads=heads, d_model=d, d_ff=6,
                        vocab_size=vocab)
    params = init_decoder_params(cfg, np.random.default_rng(seed))
    return cfg, params


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_empty_visual_equals_audio_branch_alone():
    d = 4
    cross = _cross(d, 2, np.random.default_rng(2))
    q = Tensor(RNG.standard_normal((3, d)))
    t_feats = _audio(5, d)
    both = dual_cross_attention(q, t_feats, empty_visual(d), cross).data
    from mmasr.layers import attention

    audio_only = attention(q, t_feats.frames, t_feats.frames, cross.audio_branch).data
    assert np.array_equal(both, audio_only)


def test_zeroed_visual_projections_bitwise_ablation():
    d = 4
    cross = _cross(d, 2, np.random.default_rng(2))
    q = Tensor(RNG.standard_normal((3, d)))
    t_feats = _audio(5, d)
    i_feats = _visual(4, d)
    base = dual_cross_attention(q, t_feats, empty_visual(d), cross).data
    cross.visual_branch.w_v.data[:] = 0.0
    cross.visual_branch.w_o.data[:] = 0.0
    ablated = dual_cross_attention(q, t_feats, i_feats, cross).data
    assert np.array_equal(ablated, base)


def test_dual_cross_two_softmax_sum_oracle():
    d = 4
    rng = np.random.default_rng(12)
    cross = _cross(d, 1, rng)
    q = rng.standard_normal((2, d))
    t = rng.standard_normal((3, d))
    i = rng.standard_normal((2, d))
    got = dual_cross_attention(Tensor(q), AudioFeatures(Tensor(t)),
                               VisualFeatures(Tensor(i)), cross).data

    def branch(keys, p):
        scores = (q @ p.w_q.data) @ (keys @ p.w_k.data).T / np.sqrt(d)
        return np_softmax(scores) @ (keys @ p.w_v.data) @ p.w_o.data

    expected = branch(t, cross.audio_branch) + branch(i, cross.visual_branch)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_branches_must_not_share_parameters():
    p = init_attention_params(4, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        DualCrossAttentionParams(audio_branch=p, visual_branch=p)


def test_branch_head_mismatch_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        DualCrossAttentionParams(
            audio_branch=init_attention_params(4, 2, rng),
            visual_branch=init_attention_params(4, 1, rng),
        )


def test_bos_only_forward():
    cfg, params = _decoder(6)
    out = decoder_forward([cfg.bos_id], _audio(3, 4), empty_visual(4), cfg, params)
    assert out.shape == (1, 6)
    assert np.all(np.isfinite(out.data))


def test_targets_must_start_with_bos():
    cfg, params = _decoder(6)
    from mmasr.errors import ContractError

    with pytest.raises(ContractError):
        decoder_forward([1, 2], _audio(3, 4), empty_visual(4), cfg, params)
    with pytest.raises(ContractError):
        decoder_forward([], _audio(3, 4), empty_visual(4), cfg, params)


def test_causality_bitwise():
    cfg, params = _decoder(7)
    t_feats = _audio(4, 4)
    i_feats = _visual(3, 4)
    base = decoder_forward([cfg.bos_id, 1, 2, 3], t_feats, i_feats, cfg, params).data
    pert = decoder_forward([cfg.bos_id, 1, 2, 4], t_feats, i_feats, cfg, params).data
    assert np.array_equal(base[:3], pert[:3])
    assert not np.array_equal(base[3], pert[3])


def test_forward_gradient_check():
    cfg, params = _decoder(6, seed=4)
    i_feats = _visual(2, 4, np.random.default_rng(6))
    w = np.random.default_rng(7).standard_normal((3, 6))
    x = RNG.standard_normal((3, 4))

    def f(t):
        out = decoder_forward([cfg.bos_id, 1, 2], AudioFeatures(t), i_feats,
                              cfg, params)
        return tn.sum_all(tn.mul(out, Tensor(w)))

    assert grad_check(f, x) < 1e-4


def test_gradient_reaches_both_key_projections():
    cfg, params = _decoder(6, blocks=1)
    t_feats = _audio(3, 4)
    i_feats = _visual(2, 4)
    out = decoder_forward([cfg.bos_id, 1], t_feats, i_feats, cfg, params)
    tn.sum_all(out).backward()
    cross = params.blocks[0].cross
    assert np.any(cross.audio_branch.w_k.grad != 0.0)
    assert np.any(cross.visual_branch.w_k.grad != 0.0)


def _greedy_rollout(t_feats, i_feats, cfg, params, max_len):
    toks = []
    with tn.no_grad():
        for _ in range(max_len):
            logits = decoder_forward([cfg.bos_id] + toks, t_feats, i_feats, cfg, params)
            row = tn.log_softmax_rows(logits).data[len(toks)]
            best = min((v for v in range(cfg.vocab_size) if v != cfg.bos_id),
                       key=lambda v: (-row[v], v))
            if best == cfg.eos_id:
                break
            toks.append(best)
    return toks


def test_beam_one_equals_greedy_rollout():
    for seed in range(5):
        cfg, params = _decoder(6, seed=seed)
        rng = np.random.default_rng(100 + seed)
        t_feats = _audio(4, 4, rng)
        i_feats = _visual(2, 4, rng)
        hyp = beam_decode(t_feats, i_feats, cfg, params, beam=1, max_len=6)
        assert hyp.tokens == _greedy_rollout(t_feats, i_feats, cfg, params, 6)


def _brute_force_best(t_feats, i_feats, cfg, params, max_len):
    """Score every terminated sequence over the non-special vocabulary."""
    content = [v for v in range(cfg.vocab_size) if v not in (cfg.bos_id, cfg.eos_id)]

    def seq_logprob(tokens):
        # tokens may end with eos; score each position with teacher forcing
        with tn.no_grad():
            logits = decoder_forward([cfg.bos_id] + list(tokens[:-1]), t_feats,
                                     i_feats, cfg, params)
            logp = tn.log_softmax_rows(logits).data
        return float(sum(logp[i, t] for i, t in enumerate(tokens)))

    entries = []
    for k in range(max_len):
        for body in itertools.product(content, repeat=k):
            lp = seq_logprob(list(body) + [cfg.eos_id])
            entries.append((tuple(body), lp, k + 1))
    for body in itertools.product(content, repeat=max_len):
        entries.append((body, seq_logprob(list(body)), max_len))
    entries.sort(key=lambda e: (-e[1] / max(e[2], 1), e[0]))
    return list(entries[0][0]), entries[0][1]


def test_wide_beam_matches_exhaustive_search():
    for seed in range(3):
        cfg, params = _decoder(4, d=4, heads=1, blocks=1, seed=seed)
        rng = np.random.default_rng(200 + seed)
        t_feats = _audio(3, 4, rng)
        i_feats = _visual(2, 4, rng)
        hyp = beam_decode(t_feats, i_feats, cfg, params, beam=64, max_len=3)
        toks, lp = _brute_force_best(t_feats, i_feats, cfg, params, 3)
        assert hyp.tokens == toks
        assert abs(hyp.log_prob - lp) < 1e-9
        # The beam holds every sequence, so each one that ended in the steps the
        # search ran is finished: a body of k < steps content tokens then EOS,
        # and at the last step every body of max_len tokens.
        c = cfg.vocab_size - 2
        ended = sum(c ** k for k in range(hyp.steps))
        assert hyp.finished == ended + (c ** 3 if hyp.steps == 3 else 0)


def test_wider_beam_never_scores_worse():
    for seed in range(8):
        cfg, params = _decoder(6, seed=seed)
        rng = np.random.default_rng(300 + seed)
        t_feats = _audio(4, 4, rng)
        i_feats = _visual(3, 4, rng)
        h1 = beam_decode(t_feats, i_feats, cfg, params, beam=1, max_len=5)
        h4 = beam_decode(t_feats, i_feats, cfg, params, beam=4, max_len=5)
        assert h4.normalized >= h1.normalized - 1e-12


def _reference_beam_decode(t_feats, i_feats, cfg, params, beam, max_len):
    """The beam search one hypothesis at a time: a decoder call per live
    hypothesis per step, candidates sorted by (-normalized, tokens). It
    never stops early: it runs until no hypothesis is live or max_len."""
    eos, bos = cfg.eos_id, cfg.bos_id

    def norm(log_prob, n):
        return log_prob / max(n, 1)

    with tn.no_grad():
        live = [((), 0.0)]  # emitted tokens (excl. BOS), summed log-prob
        finished = []  # (tokens-without-eos, log_prob, n_emitted incl. eos)
        for step in range(1, max_len + 1):
            candidates = []
            for toks, lp in live:
                logits = decoder.decoder_forward((bos,) + toks, t_feats, i_feats,
                                                 cfg, params)
                row = tn.log_softmax_rows(logits).data[len(toks)]
                for v in range(cfg.vocab_size):
                    if v != bos:
                        candidates.append((toks + (v,), lp + float(row[v])))
            candidates.sort(key=lambda c: (-norm(c[1], len(c[0])), c[0]))
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
        finished.sort(key=lambda c: (-norm(c[1], c[2]), c[0]))
        toks, lp, n = finished[0]
        return Hypothesis(tokens=list(toks), log_prob=lp, normalized=norm(lp, n),
                          steps=step)


def _assert_matches_reference(t_feats, i_feats, cfg, params, beam, max_len):
    """The search's hypothesis, checked against the reference's; and whether
    the search stopped before the reference did."""
    got = beam_decode(t_feats, i_feats, cfg, params, beam=beam, max_len=max_len)
    want = _reference_beam_decode(t_feats, i_feats, cfg, params, beam, max_len)
    assert got.tokens == want.tokens
    assert abs(got.log_prob - want.log_prob) <= 1e-12
    assert abs(got.normalized - want.normalized) <= 1e-12
    assert 1 <= got.steps <= want.steps
    return got, got.steps < want.steps


def test_batched_beam_matches_per_hypothesis_reference():
    """Over untrained micro decoders, and the same with their output
    projection scaled by 16: a confident decoder, as a trained one is, whose
    searches can stop early (untrained ones never did in this grid)."""
    hit_max_len = ended = stopped_early = 0
    for seed, sharpness in itertools.product(range(4), (1.0, 16.0)):
        cfg, params = _decoder(6 + seed % 2, seed=seed)
        params.out_w.data *= sharpness
        rng = np.random.default_rng(400 + seed)
        t_feats = _audio(3 + seed, 4, rng)
        for i_len in (0, 3):
            i_feats = _visual(i_len, 4, rng)
            for beam in (1, 2, 4, 64):
                for max_len in (1, 3, 5, 8):
                    hyp, early = _assert_matches_reference(t_feats, i_feats, cfg, params,
                                                           beam, max_len)
                    assert hyp.hit_max_len is (len(hyp.tokens) == max_len)
                    if len(hyp.tokens) == max_len:
                        hit_max_len += 1
                    else:
                        ended += 1
                    stopped_early += early
    assert hit_max_len and ended  # both ways a search can end are covered
    assert stopped_early  # so the reference checks the early stop's result


def test_tied_candidates_pick_the_lexicographically_smallest():
    cfg, params = _decoder(6, seed=3)
    params.out_w.data[:] = 0.0  # every candidate of a step ties
    t_feats, i_feats = _audio(4, 4), _visual(2, 4)
    # EOS, the largest id, never makes a beam of 3: the search runs to
    # max_len and keeps the smallest prefixes.
    hyp, _ = _assert_matches_reference(t_feats, i_feats, cfg, params, 3, 4)
    assert hyp.tokens == [0, 0, 0, 0]
    # A beam of every candidate takes EOS at step 1; the empty hypothesis
    # ties in normalized score with all others and is the smallest.
    hyp, _ = _assert_matches_reference(t_feats, i_feats, cfg, params, 5, 2)
    assert hyp.tokens == []


def _scripted_decoder(cfg, best, seen):
    """A stand-in for decoder_forward: at the last position of each prefix,
    token ``best(prefix)`` gets log-prob 0.0 and every other one exactly
    -1000, so candidates tie in whole groups. Records each prefix in
    ``seen`` under its length."""

    def forward(targets_in, *args, **kwargs):
        targets = np.asarray(targets_in)
        logits = np.full(targets.shape + (cfg.vocab_size,), -1000.0)
        for row, prefix in zip(logits.reshape(-1, *logits.shape[-2:]),
                               targets.reshape(-1, targets.shape[-1]).tolist()):
            seen.setdefault(len(prefix), set()).add(tuple(prefix))
            row[-1, best(tuple(prefix))] = 0.0
        return Tensor(logits)

    return forward


def _scripted_step(cfg, best, seen):
    """The same script as a stand-in for the search's step, which gets the
    live prefixes [n x step] and returns the last position's logits; it
    keeps no self-attention cache."""
    forward = _scripted_decoder(cfg, best, seen)
    return lambda prefixes, *args: (forward(prefixes).data[:, -1], [])


def _same_search(monkeypatch, cfg, params, best, beam, max_len):
    """Run both searches on a scripted decoder. The search may stop before
    the reference, which never stops early: it must visit the reference's
    prefixes at every step it runs, run no step the reference does not, and
    return the same hypothesis."""
    args = (_audio(3, 4), empty_visual(4), cfg, params, beam, max_len)
    searched, seen = {}, {}
    monkeypatch.setattr(decoder, "_decode_step", _scripted_step(cfg, best, searched))
    hyp = beam_decode(*args)
    monkeypatch.setattr(decoder, "decoder_forward", _scripted_decoder(cfg, best, seen))
    assert hyp == _reference_beam_decode(*args)
    assert sorted(searched) == list(range(1, hyp.steps + 1))  # keyed by prefix length
    assert set(searched) <= set(seen)
    assert all(searched[n] == seen[n] for n in searched)
    return hyp, searched


def test_ties_across_parents_follow_token_order(monkeypatch):
    """Candidates of different parents that tie are ordered by token
    sequence, not by their parents' places in the beam."""
    cfg, params = _decoder(5)  # content 0..2, BOS 3, EOS 4
    bos, eos = cfg.bos_id, cfg.eos_id
    # After step 1 the beam holds (2,) before (0,); at step 2, (0, 1) ties
    # with (2, 0), (2, 1) and (2, EOS) at -1000 and must win. No hypothesis
    # has ended yet, so the search runs step 3 on the prefixes it chose.
    table = {(bos,): 2, (bos, 2): 2, (bos, 0): 1}
    hyp, searched = _same_search(monkeypatch, cfg, params,
                                 lambda prefix: table.get(prefix, eos), 2, 3)
    assert searched[3] == {(bos, 0, 1), (bos, 2, 2)}
    assert hyp.tokens == [2, 2]
    cfg, params = _decoder(6)
    for seed in range(30):
        def best(prefix):
            return int(np.random.default_rng([seed, *prefix]).integers(cfg.vocab_size))
        _same_search(monkeypatch, cfg, params, best, 2 + seed % 3, 4)


def test_search_stops_once_no_live_hypothesis_can_win(monkeypatch):
    """EOS takes log-prob 0 at step 1: the empty hypothesis scores 0, and a
    live one, at -1000 after one step, can end no better than -1000 / max_len,
    so the search runs one step only."""
    cfg, params = _decoder(5)  # content 0..2, BOS 3, EOS 4
    hyp, searched = _same_search(monkeypatch, cfg, params, lambda prefix: cfg.eos_id, 2, 4)
    assert hyp.tokens == [] and hyp.steps == 1 and list(searched) == [1]


def test_search_runs_on_while_a_live_bound_ties_the_best_finished(monkeypatch):
    """The stop needs every live bound strictly below the best finished
    score: a live hypothesis whose bound ties it could still tie it and win
    on token order. Here BOS takes log-prob 0 after (BOS,) and (BOS, 1), so
    every allowed token costs -1000 there. At step 2 (0, EOS) ends at
    -1000 / 2 = -500, and (0, 0), live at -2000, is bounded by
    -2000 / max_len = -500 too: the search runs step 3."""
    cfg, params = _decoder(5)
    bos, eos = cfg.bos_id, cfg.eos_id
    table = {(bos,): bos, (bos, 1): bos, (bos, 0): eos}
    hyp, searched = _same_search(monkeypatch, cfg, params,
                                 lambda prefix: table.get(prefix, eos), 2, 4)
    assert searched[2] == {(bos, 0), (bos, 1)} and searched[3] == {(bos, 0, 0)}
    assert hyp.tokens == [0] and hyp.log_prob == -1000.0 and hyp.steps == 3


def test_one_decoder_call_per_search_step(monkeypatch):
    cfg, params = _decoder(6, seed=5)
    widths = []
    step = decoder._decode_step

    def counted(prefixes, *args):
        widths.append(np.shape(prefixes))
        return step(prefixes, *args)

    def rerun(*args, **kwargs):
        raise AssertionError("the search re-ran the decoder over whole prefixes")

    monkeypatch.setattr(decoder, "_decode_step", counted)
    monkeypatch.setattr(decoder, "decoder_forward", rerun)
    params.out_w.data[:] = 0.0  # no EOS in a beam of 4: runs to max_len
    hyp = beam_decode(_audio(4, 4), _visual(2, 4), cfg, params, beam=4, max_len=5)
    assert len(hyp.tokens) == 5
    assert widths == [(1, 1), (4, 2), (4, 3), (4, 4), (4, 5)]


def test_each_step_matches_the_teacher_forced_decoder(monkeypatch):
    """The cached step's log-probs at every step of real searches equal
    those of decoder_forward run on each whole live prefix."""
    step, steps = decoder._decode_step, []

    def recorded(prefixes, *args):
        logits, cache = step(prefixes, *args)
        steps.append((prefixes, tn.log_softmax_rows(logits).data))
        return logits, cache

    monkeypatch.setattr(decoder, "_decode_step", recorded)
    worst = 0.0
    for seed in range(4):
        cfg, params = _decoder(6 + seed % 2, d=4 * (1 + seed % 2), heads=2, seed=seed)
        rng = np.random.default_rng(500 + seed)
        t_feats = _audio(3 + seed, cfg.d_model, rng)
        for i_len in (0, 3):
            i_feats = _visual(i_len, cfg.d_model, rng)
            for beam in (1, 2, 4, 64):
                steps.clear()
                beam_decode(t_feats, i_feats, cfg, params, beam=beam, max_len=5)
                with tn.no_grad():
                    for prefixes, log_p in steps:
                        for prefix, row in zip(prefixes, log_p):
                            logits = decoder_forward(prefix, t_feats, i_feats, cfg, params)
                            want = tn.log_softmax_rows(logits).data[-1]
                            worst = max(worst, np.max(np.abs(row - want)))
    assert worst <= 1e-12


def test_beam_config_validation():
    cfg, params = _decoder(6)
    with pytest.raises(ConfigError):
        beam_decode(_audio(3, 4), empty_visual(4), cfg, params, beam=0)
    with pytest.raises(ConfigError):
        beam_decode(_audio(3, 4), empty_visual(4), cfg, params, beam=2, max_len=0)


def test_audio_and_visual_contents_matter():
    cfg, params = _decoder(7)
    rng = np.random.default_rng(9)
    t = rng.standard_normal((4, 4))
    i = rng.standard_normal((3, 4))
    tgt = [cfg.bos_id, 1, 2]
    base = decoder_forward(tgt, AudioFeatures(Tensor(t)),
                           VisualFeatures(Tensor(i)), cfg, params).data
    swapped_audio = decoder_forward(tgt, AudioFeatures(Tensor(t[::-1].copy())),
                                    VisualFeatures(Tensor(i)), cfg, params).data
    swapped_visual = decoder_forward(tgt, AudioFeatures(Tensor(t)),
                                     VisualFeatures(Tensor(i[::-1].copy())),
                                     cfg, params).data
    assert not np.array_equal(base, swapped_audio)
    assert not np.array_equal(base, swapped_visual)


def test_decoder_config_validation():
    with pytest.raises(ConfigError):
        DecoderConfig(n_blocks=0, vocab_size=5)
    with pytest.raises(ConfigError):
        DecoderConfig(n_blocks=1, vocab_size=2)
    for bad in ({"n_heads": 0}, {"d_ff": "8"}, {"d_model": 4.0}, {"n_blocks": True}):
        with pytest.raises(ConfigError):
            DecoderConfig(**{"n_blocks": 1, "vocab_size": 5, **bad})
    cfg = DecoderConfig(n_blocks=1, vocab_size=10)
    assert cfg.bos_id == 8
    assert cfg.eos_id == 9
