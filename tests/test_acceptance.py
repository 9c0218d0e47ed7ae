"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The pass/fail lines bypass pytest's output capture so they stay visible
in a plain ``pytest -v`` run.
"""

import itertools
import time
from functools import lru_cache

import numpy as np
import pytest

from mmasr import tensor as tn
from mmasr.ctc import count_repeats, ctc_brute_force, ctc_loss
from mmasr.data import CorpusConfig, gen_corpus, read_corpus, write_corpus
from mmasr.decoder import decoder_forward
from mmasr.encoder import AudioFeatures, EncoderConfig
from mmasr.errors import CorpusFormatError, FeasibilityError
from mmasr.gradsuite import run_suite
from mmasr.metrics import EditCounts, align_edit, error_breakdown, wer
from mmasr.model import Model, ModelConfig, make_decoder_config
from mmasr.tensor import Tensor
from mmasr.train import (
    TrainConfig,
    decode_utterance,
    load_checkpoint,
    run_recipe,
    run_stage,
    save_checkpoint,
)
from mmasr.visual import VisualFeatures, empty_visual


@pytest.fixture()
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        assert ok, line

    return _report


def test_criterion_1_gradient_suite(report):
    start = time.time()
    results = run_suite(n_cases=20, eps=1e-5, tol=1e-4, seed=0)
    elapsed = time.time() - start
    worst = max(err for _, err, _ in results)
    ok = all(passed for _, _, passed in results) and elapsed < 120.0
    report(1, "gradient suite", ok,
            f"{len(results)} families, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_ctc_oracle_equivalence(report):
    start = time.time()
    rng = np.random.default_rng(20240824)
    checked, worst = 0, 0.0
    while checked < 200:
        t_len = int(rng.integers(1, 7))
        v = int(rng.integers(1, 4))
        labels = [int(x) for x in rng.integers(1, v + 1, rng.integers(0, 4))]
        if t_len < len(labels) + count_repeats(labels):
            continue
        lp = tn.log_softmax_rows(Tensor(rng.standard_normal((t_len, v + 1))))
        diff = abs(ctc_loss(lp, labels).item() - ctc_brute_force(lp, labels))
        worst = max(worst, diff)
        checked += 1
    # edge cases: empty labels, and infeasibility on both sides
    lp = tn.log_softmax_rows(Tensor(rng.standard_normal((3, 3))))
    worst = max(worst, abs(ctc_loss(lp, []).item() - ctc_brute_force(lp, [])))
    infeasible_ok = ctc_brute_force(lp, [1, 2, 1, 2]) == float("inf")
    try:
        ctc_loss(lp, [1, 2, 1, 2])
        infeasible_ok = False
    except FeasibilityError:
        pass
    elapsed = time.time() - start
    ok = worst < 1e-9 and infeasible_ok and elapsed < 60.0
    report(2, "CTC oracle equivalence", ok,
            f"{checked} cases, worst diff {worst:.2e}, {elapsed:.1f}s")


@lru_cache(maxsize=None)
def _edit_recursive(ref, hyp):
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        _edit_recursive(ref[1:], hyp[1:]) + (0 if ref[0] == hyp[0] else 1),
        _edit_recursive(ref[1:], hyp) + 1,
        _edit_recursive(ref, hyp[1:]) + 1,
    )


def test_criterion_3_edit_distance_oracle(report):
    seqs = [tuple(s) for n in range(6)
            for s in itertools.product((1, 2, 3), repeat=n)]
    ok = True
    for ref in seqs:
        for hyp in seqs:
            counts, path = align_edit(list(ref), list(hyp))
            total = counts.substitutions + counts.deletions + counts.insertions
            if total != _edit_recursive(ref, hyp):
                ok = False
                break
        if not ok:
            break
    # tie-break determinism on a case with several minimal alignments
    ref, hyp = [1, 2, 2, 3], [2, 2, 3, 1]
    baseline = [(op.op, op.ref_pos, op.hyp_pos) for op in align_edit(ref, hyp)[1]]
    for _ in range(5):
        again = [(op.op, op.ref_pos, op.hyp_pos) for op in align_edit(ref, hyp)[1]]
        ok = ok and again == baseline
    # published error-count rows: (S + D + I) / WER within 1% of 1.5e5
    rows = [(3851, 1697, 437, 0.0399), (3322, 1703, 430, 0.03634),
            (2889, 1705, 444, 0.03362), (1967, 1701, 475, 0.02754)]
    for s, d, i, rate in rows:
        counts = EditCounts(s, d, i, 150000)
        implied = (s + d + i) / rate
        ok = ok and abs(implied - 1.5e5) / 1.5e5 < 0.01
        ok = ok and abs(wer(counts) - rate) / rate < 0.01
    report(3, "edit-distance oracle", ok, f"{len(seqs)}^2 pairs enumerated")


def _micro_fusion(seed):
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=1)
    dec = make_decoder_config(3, 2, n_blocks=2, n_heads=2, d_model=4, d_ff=6)
    cfg = ModelConfig(d_in=3, v_content=3, n_background=2, encoder=enc, decoder=dec)
    return Model.init(cfg, seed)


def test_criterion_4_fusion_ablation_exactness(report):
    ok = True
    for case in range(100):
        rng = np.random.default_rng(40000 + case)
        model = _micro_fusion(case)
        cfg = model.cfg.decoder
        t_feats = AudioFeatures(Tensor(rng.standard_normal((3, 4))))
        i_feats = VisualFeatures(Tensor(rng.standard_normal((2, 4))))
        targets = [cfg.bos_id] + [int(t) for t in rng.integers(1, 4, 2)]
        with tn.no_grad():
            audio_only = decoder_forward(targets, t_feats, empty_visual(4),
                                         cfg, model.decoder).data
            for block in model.decoder.blocks:
                block.cross.visual_branch.w_v.data[:] = 0.0
                block.cross.visual_branch.w_o.data[:] = 0.0
            zeroed = decoder_forward(targets, t_feats, i_feats, cfg,
                                     model.decoder).data
            empty = decoder_forward(targets, t_feats, empty_visual(4), cfg,
                                    model.decoder).data
        ok = ok and np.array_equal(zeroed, audio_only)
        ok = ok and np.array_equal(empty, zeroed)
        if not ok:
            break
    report(4, "fusion ablation exactness", ok, "100 random inputs, bitwise")


def test_criterion_5_causality(report):
    ok = True
    for case in range(100):
        rng = np.random.default_rng(50000 + case)
        model = _micro_fusion(1000 + case)
        cfg = model.cfg.decoder
        t_feats = AudioFeatures(Tensor(rng.standard_normal((3, 4))))
        i_feats = VisualFeatures(Tensor(rng.standard_normal((2, 4))))
        n = int(rng.integers(2, 6))
        targets = [cfg.bos_id] + [int(t) for t in rng.integers(1, 4, n)]
        j = int(rng.integers(1, n + 1))
        pert = list(targets)
        pert[j] = 1 + (pert[j] % 3)
        with tn.no_grad():
            base = decoder_forward(targets, t_feats, i_feats, cfg, model.decoder).data
            changed = decoder_forward(pert, t_feats, i_feats, cfg, model.decoder).data
        ok = ok and np.array_equal(base[:j], changed[:j])
        if not ok:
            break
    report(5, "decoder causality", ok, "100 random perturbations, bitwise")


def test_criterion_6_substitution_reduction(report):
    start = time.time()
    corpus_cfg = CorpusConfig(seed=2024)
    vocab, splits = gen_corpus(corpus_cfg)

    enc = EncoderConfig(n_blocks=2, n_heads=4, d_model=48, d_ff=128,
                        conv_width=5, subsample_factor=2)
    dec = make_decoder_config(corpus_cfg.v, corpus_cfg.n_background,
                              n_blocks=2, n_heads=4, d_model=48, d_ff=128)
    model_cfg = ModelConfig(d_in=corpus_cfg.d_in, v_content=corpus_cfg.v,
                            n_background=corpus_cfg.n_background,
                            encoder=enc, decoder=dec)
    stage1 = TrainConfig(stage="audio_only", max_steps=2000, batch_size=8,
                         peak_lr=4e-3, warmup=100, seed=0,
                         val_every=500, val_subset=50)
    stage2 = TrainConfig(stage="fusion", freeze_encoder=True, max_steps=4000,
                         batch_size=8, peak_lr=6e-3, warmup=150, seed=1,
                         p_visual_dropout=0.15, val_every=1000, val_subset=50)
    import tempfile

    with tempfile.TemporaryDirectory() as out_dir:
        model, _ = run_recipe(model_cfg, splits, stage1, stage2, out_dir,
                              model_seed=1)

    def score(use_visual):
        total = EditCounts(0, 0, 0, 0)
        paths = []
        for utt in splits["test"]:
            hyp = decode_utterance(model, utt, use_visual, beam=4)
            counts, path = align_edit(utt.ref, hyp.tokens)
            total = total + counts
            paths.append(path)
        return total, error_breakdown(paths, vocab)

    audio, audio_b = score(False)
    fused, fused_b = score(True)
    elapsed = time.time() - start

    a = fused.substitutions <= 0.7 * audio.substitutions
    b = wer(fused) < wer(audio)
    elim_subs = audio.substitutions - fused.substitutions
    elim_homo = audio_b.homophone_substitutions - fused_b.homophone_substitutions
    c = elim_subs > 0 and elim_homo >= 0.6 * elim_subs
    d = fused_b.distractor_insertions <= 2 * audio.insertions
    timing = elapsed < 1800.0
    ok = a and b and c and d and timing
    report(6, "substitution reduction", ok,
            f"S {audio.substitutions}->{fused.substitutions}, "
            f"WER {wer(audio):.4f}->{wer(fused):.4f}, "
            f"homophone share {elim_homo}/{elim_subs}, "
            f"distractor ins {fused_b.distractor_insertions}, {elapsed:.0f}s")


def test_criterion_7_determinism_and_persistence(tmp_path, report):
    corpus_cfg = CorpusConfig(v=6, n_groups=1, group_size=2, n_background=3,
                              d_in=4, duration_min=2, duration_max=3,
                              sent_len_min=2, sent_len_max=3,
                              n_train=16, n_valid=4, n_test=4, seed=5)
    _, splits = gen_corpus(corpus_cfg)
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=1)
    dec = make_decoder_config(6, 3, n_blocks=1, n_heads=2, d_model=4, d_ff=6)
    model_cfg = ModelConfig(d_in=4, v_content=6, n_background=3,
                            encoder=enc, decoder=dec)
    cfg = TrainConfig(stage="audio_only", max_steps=10, batch_size=2,
                      peak_lr=2e-3, seed=3)

    def params_bytes(m):
        return {n: t.data.tobytes() for n, t in m.named_parameters().items()}

    histories, finals = [], []
    for _ in range(2):
        m = Model.init(model_cfg, 4)
        _, _, h = run_stage(m, splits["train"], cfg)
        histories.append(h)
        finals.append(params_bytes(m))
    logs_ok = histories[0] == histories[1] and finals[0] == finals[1]

    m = Model.init(model_cfg, 4)
    import dataclasses

    opt, rng, _ = run_stage(m, splits["train"], dataclasses.replace(cfg, max_steps=5))
    path = tmp_path / "mid.ckpt"
    save_checkpoint(str(path), m, opt, 5, rng)
    m2, opt2, step, rng_state = load_checkpoint(str(path))
    roundtrip_ok = params_bytes(m2) == params_bytes(m) and opt2.t == opt.t
    rng2 = np.random.default_rng()
    rng2.bit_generator.state = rng_state
    path2 = tmp_path / "mid2.ckpt"
    save_checkpoint(str(path2), m2, opt2, step, rng2)
    roundtrip_ok = roundtrip_ok and path.read_bytes() == path2.read_bytes()

    run_stage(m2, splits["train"], cfg, opt=opt2, rng=rng2, start_step=step)
    resume_ok = params_bytes(m2) == finals[0]

    ok = logs_ok and roundtrip_ok and resume_ok
    report(7, "determinism & persistence", ok,
            "10-step logs, checkpoint bytes, resume all bitwise")


def test_criterion_8_corpus_format(tmp_path, report):
    corpus_cfg = CorpusConfig(v=8, n_groups=2, group_size=2, n_background=4,
                              d_in=4, n_train=10, n_valid=3, n_test=3, seed=9)
    vocab, splits = gen_corpus(corpus_cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    write_corpus(str(a), vocab, splits, corpus_cfg)
    vocab2, splits2 = read_corpus(str(a))
    write_corpus(str(b), vocab2, splits2, corpus_cfg)
    files = ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl")
    roundtrip_ok = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)

    import json
    import random

    from mmasr.data import read_split

    lines = (a / "train.jsonl").read_text().splitlines()
    rng = random.Random(77)
    mutations, structured, must_catch_ok = 0, 0, True
    for i in range(150):
        line = rng.choice(lines)
        kind = rng.randrange(6)
        # kind 1 flips one character and may leave the record valid; every
        # other kind breaks the record structurally and must be caught
        must_catch = kind != 1
        if kind == 0:
            line = line[: rng.randrange(len(line))]
        elif kind == 1:
            pos = rng.randrange(len(line))
            line = line[:pos] + chr(rng.randrange(33, 127)) + line[pos + 1 :]
        else:
            rec = json.loads(line)
            if kind == 2:
                rec.pop(rng.choice(sorted(rec)))
            elif kind == 3:
                rec["frames"] = rec["frames"][: max(len(rec["frames"]) - 12, 0)]
            elif kind == 4:
                rec["durations"] = rec["durations"] + [0]
            else:
                rec["ref"] = []
            line = json.dumps(rec)
        if not line.strip():
            continue
        mutations += 1
        target = tmp_path / "fuzz.jsonl"
        target.write_text(line + "\n")
        try:
            read_split(str(target), vocab)
            caught = False
        except CorpusFormatError:
            caught = True
        # any other exception propagates and fails the test outright
        structured += caught
        if must_catch and not caught:
            must_catch_ok = False
    ok = roundtrip_ok and mutations >= 100 and must_catch_ok
    report(8, "corpus format", ok,
            f"roundtrip byte-exact, {structured}/{mutations} mutations raised "
            "structured errors, none crashed")
