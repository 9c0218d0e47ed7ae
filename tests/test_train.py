"""Optimizer, two-stage recipe, determinism and checkpointing."""

import dataclasses
import errno
import json
import math
import pathlib
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mmasr import ctc as ctc_module
from mmasr import tensor as tn
from mmasr.ctc import check_feasible, ctc_loss
from mmasr.data import CorpusConfig, build_vocab, gen_corpus, gen_utterance
from mmasr.decoder import decoder_forward
from mmasr.encoder import AudioFeatures, EncoderConfig, ctc_head, encode_audio
from mmasr.errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    CorpusFormatError,
    FeasibilityError,
    NumericError,
    RecipeError,
)
from mmasr.layers import pad_batch
from mmasr.metrics import EditCounts, align_edit
from mmasr.model import Model, ModelConfig, make_decoder_config
from mmasr.tensor import Tensor
from mmasr.train import (
    Adam,
    SpeechCache,
    TrainConfig,
    decode_utterance,
    label_smoothed_ce,
    load_checkpoint,
    metrics_path,
    run_recipe,
    run_stage,
    save_checkpoint,
    train_step,
    trainable_names,
    utterance_losses,
)
from mmasr.visual import VisualFeatures

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "perfbench/fixtures"
STAGE1_FIXTURE, STAGE2_FIXTURE = FIXTURES / "stage1.ckpt", FIXTURES / "stage2.ckpt"

MICRO_CORPUS = CorpusConfig(v=6, n_groups=1, group_size=2, n_background=3,
                            d_in=4, duration_min=2, duration_max=3,
                            sent_len_min=2, sent_len_max=3,
                            n_train=16, n_valid=4, n_test=4, seed=5)


def micro_model(seed=0):
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=1)
    dec = make_decoder_config(6, 3, n_blocks=1, n_heads=2, d_model=4, d_ff=6)
    cfg = ModelConfig(d_in=4, v_content=6, n_background=3, encoder=enc, decoder=dec)
    return Model.init(cfg, seed)


def model_bytes(model, prefix=""):
    """Each parameter's values as float32 bytes. Every value is a float32;
    the parameters an optimizer holds are float32 arrays, the others float64."""
    params = model.named_parameters()
    return {n: params[n].data.astype("<f4").tobytes() for n in params if n.startswith(prefix)}


def param_dtypes(model, prefix=""):
    return {t.data.dtype for n, t in model.named_parameters().items() if n.startswith(prefix)}


def test_single_sgd_step_on_quadratic():
    # minimize (w - 1)^2 from w = 2 with lr = 0.1: one step lands on 1.8
    w = Tensor(np.array(2.0))
    loss = tn.mul(tn.add(w, -1.0), tn.add(w, -1.0))
    loss.backward()
    w.data = w.data - 0.1 * w.grad
    assert float(w.data) == pytest.approx(1.8, abs=1e-12)


def test_adam_converges_on_quadratic():
    w = Tensor(np.array(2.0))
    opt = Adam({"w": w}, ["w"], peak_lr=0.1, warmup=5)
    for _ in range(300):
        opt.zero_grad()
        loss = tn.mul(tn.add(w, -1.0), tn.add(w, -1.0))
        loss.backward()
        opt.step()
    assert abs(float(w.data) - 1.0) < 1e-3


def test_warmup_schedule_shape():
    opt = Adam({}, [], peak_lr=1.0, warmup=100)
    assert opt.lr(50) == pytest.approx(0.5)
    assert opt.lr(100) == pytest.approx(1.0)
    assert opt.lr(400) == pytest.approx(0.5)
    assert opt.lr(10) < opt.lr(100) > opt.lr(1000)


def test_trainable_names_by_stage():
    model = micro_model()
    audio = trainable_names(model, TrainConfig(stage="audio_only"))
    assert not any(n.startswith("visual.") for n in audio)
    assert not any(".cross.visual_branch." in n for n in audio)
    assert "ctc_w" in audio
    fusion = trainable_names(model, TrainConfig(stage="fusion", freeze_encoder=True))
    assert not any(n.startswith("encoder.") for n in fusion)
    assert "ctc_w" not in fusion
    assert any(n.startswith("visual.") for n in fusion)
    assert any(".cross.visual_branch." in n for n in fusion)
    everything = trainable_names(model, TrainConfig(stage="fusion"))
    assert set(everything) == set(model.named_parameters())


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(stage="both")
    with pytest.raises(ConfigError):
        TrainConfig(lambda_ctc=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(warmup=100.0)
    for changes in ({"peak_lr": "x"}, {"peak_lr": -1.0}, {"peak_lr": float("inf")},
                    {"peak_lr": True}, {"lambda_ctc": "x"}, {"lambda_ctc": float("nan")},
                    {"label_smoothing": 1.0}, {"label_smoothing": 3.0},
                    {"adam_beta1": 1.5}, {"adam_beta2": 1.0}, {"adam_beta1": -0.1},
                    {"adam_eps": 0.0}, {"adam_eps": False}, {"p_visual_dropout": "x"},
                    {"p_visual_dropout": 1.5}, {"seed": -1}, {"seed": True},
                    {"val_every": -5}, {"val_subset": 1.0}, {"freeze_encoder": 1}):
        with pytest.raises(ConfigError):
            TrainConfig(**changes)
    TrainConfig(peak_lr=0, label_smoothing=0.0, p_visual_dropout=1.0, adam_beta1=0.0,
                freeze_encoder=True)


def test_zero_learning_rate_changes_nothing():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model()
    before = model_bytes(model)
    cfg = TrainConfig(stage="audio_only", peak_lr=0.0, max_steps=3, batch_size=2)
    opt, _, history = run_stage(model, splits["train"], cfg)
    assert model_bytes(model) == before
    assert all(np.isfinite(h["loss_total"]) for h in history)
    trained = set(opt.trainable)
    assert all(t.data.dtype == (np.float32 if n in trained else np.float64)
               for n, t in model.named_parameters().items())


def test_lambda_endpoints_gate_gradients():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model()
    utt = splits["train"][0]
    cfg = TrainConfig(stage="fusion")
    l_ctc, l_att, _ = utterance_losses(model, [utt], [True], cfg)
    l_ctc.backward()  # lambda = 1: only the CTC path contributes
    assert model.ctc_w.grad is not None
    assert model.decoder.out_w.grad is None

    model2 = micro_model()
    l_ctc2, l_att2, _ = utterance_losses(model2, [utt], [True], cfg)
    l_att2.backward()  # lambda = 0: CTC head untouched
    assert model2.ctc_w.grad is None
    assert model2.decoder.out_w.grad is not None


def test_freeze_encoder_is_bitwise():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model()
    enc_before = model_bytes(model, "encoder.")
    ctc_before = model.ctc_w.data.tobytes()
    cfg = TrainConfig(stage="fusion", freeze_encoder=True, max_steps=5,
                      batch_size=2, peak_lr=1e-2)
    run_stage(model, splits["train"], cfg)
    assert model_bytes(model, "encoder.") == enc_before
    assert model.ctc_w.data.tobytes() == ctc_before
    assert model_bytes(model, "decoder.") != model_bytes(micro_model(), "decoder.")


def test_fixed_seed_reruns_are_bitwise_identical():
    _, splits = gen_corpus(MICRO_CORPUS)
    cfg = TrainConfig(stage="audio_only", max_steps=10, batch_size=2, seed=9)
    logs = []
    finals = []
    for _ in range(2):
        model = micro_model(seed=2)
        _, _, history = run_stage(model, splits["train"], cfg)
        logs.append(json.dumps(history, sort_keys=True))
        finals.append(model_bytes(model))
    assert logs[0] == logs[1]
    assert finals[0] == finals[1]


def test_attention_loss_decreases():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=1)
    cfg = TrainConfig(stage="audio_only", max_steps=60, batch_size=4,
                      peak_lr=4e-3, warmup=20, seed=0)
    _, _, history = run_stage(model, splits["train"], cfg)
    att = [h["loss_att"] for h in history if "loss_att" in h]
    assert np.mean(att[-10:]) < np.mean(att[:10])


def test_infeasible_utterances_are_skipped():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model()
    utt = dataclasses.replace(splits["train"][0])
    utt.ref = [1, 2, 3, 4, 5, 6, 1, 2, 3, 4]  # far longer than the audio
    with pytest.raises(Exception):
        check_feasible(utt.audio.shape[0], utt.ref)
    cfg = TrainConfig(stage="audio_only", max_steps=1, batch_size=1)
    opt = Adam(model.named_parameters(), trainable_names(model, cfg),
               cfg.peak_lr, cfg.warmup)
    report = train_step(model, [utt], cfg, opt)
    assert report["skipped"] == 1
    assert np.isnan(report["loss_total"])


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_all_skipped_step_logs_null(tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)
    utt = dataclasses.replace(splits["train"][0], ref=[1, 2, 3, 4, 5, 6, 1, 2, 3, 4])
    cfg = TrainConfig(stage="audio_only", max_steps=2, batch_size=1)
    log = tmp_path / "stage1.log"
    run_stage(micro_model(), [utt], cfg, log_path=str(log))
    records = [json.loads(line, parse_constant=_reject_constant)
               for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2]
    assert all(r[k] is None for r in records for k in ("loss_total", "loss_ctc", "loss_att"))
    metrics = [json.loads(line, parse_constant=_reject_constant)
               for line in (tmp_path / "stage1.metrics.jsonl").read_text().splitlines()]
    assert [(r["step"], r["skipped"], r["grad_norm"]) for r in metrics] == [(1, 1, None),
                                                                           (2, 1, None)]


def test_decoding_never_reads_the_reference():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=2)
    for utt in splits["test"]:
        fake = dataclasses.replace(utt, ref=[1])
        for use_visual in (False, True):
            a = decode_utterance(model, utt, use_visual, beam=2)
            b = decode_utterance(model, fake, use_visual, beam=2)
            assert (a.tokens, a.log_prob) == (b.tokens, b.log_prob)


def _train_briefly(model, splits, steps, seed=3):
    cfg = TrainConfig(stage="audio_only", max_steps=steps, batch_size=2,
                      seed=seed, peak_lr=2e-3)
    return cfg, run_stage(model, splits["train"], cfg)


def _refuse(*args, **kwargs):
    raise AssertionError("a checkpoint load made a random generator")


def test_checkpoint_roundtrip_bitwise(tmp_path, monkeypatch):
    """Every loaded value comes from the file: the load makes no generator."""
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=4)
    cfg, (opt, rng, _) = _train_briefly(model, splits, 5)
    path = tmp_path / "a.ckpt"
    save_checkpoint(str(path), model, opt, 5, rng)
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", _refuse)
        model2, opt2, step, rng_state = load_checkpoint(str(path))
    assert step == 5
    assert model_bytes(model2) == model_bytes(model)
    assert opt2.t == opt.t
    for n in opt.trainable:
        assert opt2.m[n].tobytes() == opt.m[n].tobytes()
        assert opt2.v[n].tobytes() == opt.v[n].tobytes()
    # save -> load -> save produces identical bytes
    path2 = tmp_path / "b.ckpt"
    rng2 = np.random.default_rng()
    rng2.bit_generator.state = rng_state
    save_checkpoint(str(path2), model2, opt2, step, rng2)
    assert path.read_bytes() == path2.read_bytes()


def test_resume_matches_continuous_run(tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)

    cont = micro_model(seed=4)
    cfg = TrainConfig(stage="audio_only", max_steps=20, batch_size=2, seed=3,
                      peak_lr=2e-3)
    run_stage(cont, splits["train"], cfg)

    half = micro_model(seed=4)
    half_cfg = dataclasses.replace(cfg, max_steps=10)
    opt, rng, _ = run_stage(half, splits["train"], half_cfg)
    path = tmp_path / "half.ckpt"
    save_checkpoint(str(path), half, opt, 10, rng)

    resumed, opt2, step, rng_state = load_checkpoint(str(path))
    rng2 = np.random.default_rng()
    rng2.bit_generator.state = rng_state
    run_stage(resumed, splits["train"], cfg, opt=opt2, rng=rng2, start_step=step)
    assert model_bytes(resumed) == model_bytes(cont)


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    mutate(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + hlen :])


def test_checkpoint_corruption_errors(tmp_path):
    model = micro_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"NOTMAGIC" + path.read_bytes()[8:])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(str(bad_magic))

    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(path.read_bytes())
    _rewrite_header(bad_version, lambda h: h.update(version=99))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(str(bad_version))

    bad_shape = tmp_path / "shape.ckpt"
    bad_shape.write_bytes(path.read_bytes())
    _rewrite_header(bad_shape, lambda h: h["params"][0].update(shape=[1, 1]))
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(str(bad_shape))

    bad_name = tmp_path / "name.ckpt"
    bad_name.write_bytes(path.read_bytes())
    _rewrite_header(bad_name, lambda h: h["params"][0].update(name="nonsense"))
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(str(bad_name))


def test_malformed_checkpoint_header_is_checkpoint_error(tmp_path):
    model = micro_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    corruptions = {
        "no_model_config": lambda h: h.pop("model_config"),
        "unknown_model_config_key": lambda h: h["model_config"].update(extra=1),
        "unknown_encoder_key": lambda h: h["model_config"]["encoder"].update(depth=3),
        "params_not_a_list": lambda h: h.update(params={"a": [1]}),
        # valid configs on their own, but no model has both
        "d_model_mismatch": lambda h: h["model_config"]["decoder"].update(d_model=6),
    }
    for name, mutate in corruptions.items():
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(path.read_bytes())
        _rewrite_header(bad, mutate)
        with pytest.raises(CheckpointError, match=f"^checkpoint {re.escape(str(bad))}: "
                                                  "malformed checkpoint header"):
            load_checkpoint(str(bad))
    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="after its payload"):
        load_checkpoint(str(trailing))


def test_removed_intermediate_ctc_key_loads_only_as_null(tmp_path):
    model = micro_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    _rewrite_header(path, lambda h: h["model_config"]["encoder"].update(
        intermediate_ctc_block=None))
    assert model_bytes(load_checkpoint(str(path))[0]) == model_bytes(model)
    _rewrite_header(path, lambda h: h["model_config"]["encoder"].update(
        intermediate_ctc_block=1))
    with pytest.raises(CheckpointError, match="intermediate"):
        load_checkpoint(str(path))


def test_truncated_checkpoint_names_parameter(tmp_path):
    model = micro_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    first = json.loads(raw[12 : 12 + hlen].decode("utf-8"))["params"][0]["name"]
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw[: 12 + hlen + 2])
    with pytest.raises(CheckpointTruncatedError, match=f"{re.escape(str(cut))}: .*{first}"):
        load_checkpoint(str(cut))
    header_cut = tmp_path / "hcut.ckpt"
    header_cut.write_bytes(raw[:10])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(str(header_cut))
    # With optimizer state: a cut inside the first m: and v: blocks names them.
    _, splits = gen_corpus(MICRO_CORPUS)
    opt, rng, _ = run_stage(model, splits["train"], TrainConfig(max_steps=1, batch_size=2))
    save_checkpoint(str(path), model, opt, 1, rng)
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    sizes = [p.size for p in model.named_parameters().values()]
    m_start = 12 + hlen + 4 * sum(sizes)
    v_start = m_start + 4 * sum(opt.m[n].size for n in opt.trainable)
    for start, block in ((m_start, f"m:{opt.trainable[0]}"), (v_start, f"v:{opt.trainable[0]}")):
        cut.write_bytes(raw[: start + 2])
        with pytest.raises(CheckpointTruncatedError, match=f"'{re.escape(block)}'"):
            load_checkpoint(str(cut))


def test_a_failed_checkpoint_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """A save that fails after the header, here on a full disk, leaves the
    earlier checkpoint's bytes and no temporary file."""
    model = micro_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    good = path.read_bytes()
    model.named_parameters()["decoder.out_w"].data += 1.0
    blocks = []

    def disk_fills(arr, dtype):
        blocks.append(arr)
        if len(blocks) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return np.asarray(arr, dtype=dtype)

    monkeypatch.setattr(np, "ascontiguousarray", disk_fills)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(str(path), model)
    monkeypatch.undo()
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


def test_fusion_reinit_preserves_audio_behavior():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=6)
    cfg, _ = _train_briefly(model, splits, 10)
    utt = splits["test"][0]
    before = decode_utterance(model, utt, use_visual=False, beam=2)
    model.reinit_fusion(seed=7)
    for block in model.decoder.blocks:
        assert np.array_equal(block.cross.visual_branch.w_o.data,
                              np.zeros_like(block.cross.visual_branch.w_o.data))
    after_audio = decode_utterance(model, utt, use_visual=False, beam=2)
    after_fused = decode_utterance(model, utt, use_visual=True, beam=2)
    assert after_audio.tokens == before.tokens
    assert after_fused.tokens == before.tokens
    assert after_fused.log_prob == before.log_prob


def test_run_recipe_validates_stages(tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)
    model_cfg = micro_model().cfg
    good1 = TrainConfig(stage="audio_only", max_steps=1, batch_size=2)
    good2 = TrainConfig(stage="fusion", freeze_encoder=True, max_steps=1, batch_size=2)
    with pytest.raises(RecipeError):
        run_recipe(model_cfg, splits, good2, good2, str(tmp_path))
    with pytest.raises(RecipeError):
        run_recipe(model_cfg, splits, good1, good1, str(tmp_path))


def test_run_recipe_writes_checkpoints_and_logs(tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)
    model_cfg = micro_model().cfg
    c1 = TrainConfig(stage="audio_only", max_steps=4, batch_size=2, seed=0)
    c2 = TrainConfig(stage="fusion", freeze_encoder=True, max_steps=4,
                     batch_size=2, seed=1)
    model, history = run_recipe(model_cfg, splits, c1, c2, str(tmp_path))
    for name in ("stage1.ckpt", "stage2.ckpt", "stage1.log", "stage2.log"):
        assert (tmp_path / name).exists()
    records = [json.loads(l) for l in (tmp_path / "stage1.log").read_text().splitlines()]
    assert [r["step"] for r in records] == [1, 2, 3, 4]
    assert all(set(r) == {"step", "loss_total", "loss_ctc", "loss_att", "lr"}
               for r in records)
    encoded = {}
    for stage in ("stage1", "stage2"):
        path = metrics_path(str(tmp_path / f"{stage}.log"))
        assert path == str(tmp_path / f"{stage}.metrics.jsonl")
        metrics = [json.loads(l, parse_constant=_reject_constant)
                   for l in open(path).read().splitlines()]
        assert [r["step"] for r in metrics] == [1, 2, 3, 4]
        for r in metrics:
            assert set(r) == {"step", "wall_ms", "skipped", "encoded", "grad_norm",
                              "frames_per_s"}
            assert r["wall_ms"] > 0 and r["frames_per_s"] > 0 and r["grad_norm"] > 0
        encoded[stage] = [r["encoded"] for r in metrics]
    # Stage 1 encodes every utterance it keeps; stage 2, with the encoder
    # frozen, only the utterances it has not drawn before.
    assert encoded["stage1"] == [2, 2, 2, 2]
    rng = np.random.default_rng(np.random.SeedSequence([c2.seed, 3]))
    seen, first_draws = set(), []
    for _ in range(4):
        drawn = {int(i) for i in rng.integers(0, len(splits["train"]), 2)}
        rng.random(2)
        first_draws.append(len(drawn - seen))
        seen |= drawn
    assert encoded["stage2"] == first_draws and sum(first_draws) < 8
    # stage 2 froze the encoder: stage-1 and stage-2 encoders agree bitwise
    m1, _, _, _ = load_checkpoint(str(tmp_path / "stage1.ckpt"))
    m2, _, _, _ = load_checkpoint(str(tmp_path / "stage2.ckpt"))
    assert model_bytes(m1, "encoder.") == model_bytes(m2, "encoder.")
    assert model_bytes(m1, "visual.") != model_bytes(m2, "visual.")
    # Each stage's optimizer holds what it trains in float32.
    assert param_dtypes(m1, "encoder.") == param_dtypes(m2, "visual.") == {np.dtype(np.float32)}
    assert param_dtypes(m1, "visual.") == param_dtypes(m2, "encoder.") == {np.dtype(np.float64)}


def test_run_recipe_into_a_used_directory_starts_its_logs_afresh(tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)
    model_cfg = micro_model().cfg
    c1 = TrainConfig(stage="audio_only", max_steps=3, batch_size=2)
    c2 = TrainConfig(stage="fusion", freeze_encoder=True, max_steps=3, batch_size=2, seed=1)
    run_recipe(model_cfg, splits, c1, c2, str(tmp_path / "once"))
    for _ in range(2):
        run_recipe(model_cfg, splits, c1, c2, str(tmp_path / "twice"))
    for stage in ("stage1", "stage2"):
        once, twice = (str(tmp_path / run / f"{stage}.log") for run in ("once", "twice"))
        assert open(twice, "rb").read() == open(once, "rb").read()
        assert len(open(metrics_path(twice)).readlines()) == 3


def test_a_resumed_run_logs_each_step_once(tmp_path):
    """A run resumed from a checkpoint older than its logs' last step cuts
    them back to that step: its log is the bytes of a continuous run's."""
    _, splits = gen_corpus(MICRO_CORPUS)
    cfg = TrainConfig(stage="audio_only", max_steps=4, batch_size=2, seed=1,
                      val_every=2, val_subset=2)
    cont, resumed = (str(tmp_path / name) for name in ("cont.log", "resumed.log"))
    run_stage(micro_model(), splits["train"], cfg, log_path=cont, valid_utts=splits["valid"])
    half = micro_model()
    opt, rng, _ = run_stage(half, splits["train"], dataclasses.replace(cfg, max_steps=2),
                            log_path=resumed, valid_utts=splits["valid"])
    save_checkpoint(str(tmp_path / "mid.ckpt"), half, opt, 2, rng)
    run_stage(half, splits["train"], cfg, log_path=resumed, valid_utts=splits["valid"],
              opt=opt, rng=rng, start_step=2)  # steps 3 and 4, past the checkpoint
    model, opt2, step, rng_state = load_checkpoint(str(tmp_path / "mid.ckpt"))
    rng2 = np.random.default_rng()
    rng2.bit_generator.state = rng_state
    run_stage(model, splits["train"], cfg, log_path=resumed, valid_utts=splits["valid"],
              opt=opt2, rng=rng2, start_step=step)
    assert open(resumed, "rb").read() == open(cont, "rb").read()
    steps = [json.loads(line)["step"] for line in open(metrics_path(resumed))]
    assert steps == [1, 2, 3, 4]
    for bad in ("[2]", '{"step": "2"}', '{"loss": 1.0}', "{", '{"step": 2.0}', ""):
        lines = open(cont).read().splitlines()
        lines.insert(1, bad)
        open(resumed, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(resumed)}, line 2: "):
            run_stage(model, splits["train"], cfg, log_path=resumed, opt=opt2, rng=rng2,
                      start_step=step)


def test_validation_records_report_edit_counts(tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)
    cfg = TrainConfig(stage="audio_only", max_steps=4, batch_size=2, seed=0,
                      val_every=2, val_subset=3)
    logs = []
    for name in ("a.log", "b.log"):
        model = micro_model()
        run_stage(model, splits["train"], cfg, log_path=str(tmp_path / name),
                  valid_utts=splits["valid"])
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]
    records = [json.loads(l) for l in logs[0].decode().splitlines() if "valid_wer" in l]
    assert [r["step"] for r in records] == [2, 4]
    want = EditCounts(0, 0, 0, 0)
    for utt in splits["valid"][:3]:  # the model as the last record saw it
        want = want + align_edit(utt.ref, decode_utterance(model, utt, False, beam=1).tokens)[0]
    last = records[-1]
    assert (last["S"], last["D"], last["I"], last["N"]) == (
        want.substitutions, want.deletions, want.insertions, want.ref_len)
    for r in records:
        assert set(r) == {"step", "valid_wer", "S", "D", "I", "N"}
        assert r["valid_wer"] == (r["S"] + r["D"] + r["I"]) / r["N"]


def _subsampling_model(seed=0):
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=2)
    dec = make_decoder_config(6, 3, n_blocks=2, n_heads=2, d_model=4, d_ff=6)
    cfg = ModelConfig(d_in=4, v_content=6, n_background=3, encoder=enc, decoder=dec)
    return Model.init(cfg, seed)


def _losses_and_grads(model, batch, flags, cfg):
    params = model.named_parameters()
    for p in params.values():
        p.grad = None
    l_ctc, l_att, skipped = utterance_losses(model, batch, flags, cfg)
    tn.add(tn.scale(l_ctc, cfg.lambda_ctc), tn.scale(l_att, 1.0 - cfg.lambda_ctc)).backward()
    grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for n, p in params.items()}
    return l_ctc.item(), l_att.item(), skipped, grads


@pytest.mark.parametrize("stage", ["audio_only", "fusion"])
def test_padded_batch_matches_batches_of_one(stage):
    _, splits = gen_corpus(MICRO_CORPUS)
    batch = [dataclasses.replace(u) for u in splits["train"][:7]]
    batch[2].ocr = []  # a row without visual text
    batch[6].ref = [1, 2, 3, 4, 5, 6, 1, 2, 3, 4]  # infeasible: skipped
    flags = [stage == "fusion"] * 7
    flags[4] = False  # a row with visual dropout
    assert len({len(u.audio) for u in batch}) > 2
    model = _subsampling_model(seed=3)
    cfg = TrainConfig(stage=stage)
    l_ctc, l_att, skipped, grads = _losses_and_grads(model, batch, flags, cfg)
    singles = [_losses_and_grads(model, [u], [f], cfg)
               for u, f in zip(batch, flags) if _feasible(model, u)]
    assert skipped == len(batch) - len(singles) == 1
    n = len(singles)
    for got, index in ((l_ctc, 0), (l_att, 1)):
        want = sum(s[index] for s in singles) / n
        assert abs(got - want) <= 1e-12 * abs(want)
    for name, g in grads.items():
        want = sum(s[3][name] for s in singles) / n
        assert np.max(np.abs(g - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300), name


def _feasible(model, utt):
    try:
        check_feasible(-(-len(utt.audio) // model.cfg.encoder.subsample_factor), utt.ref)
    except FeasibilityError:
        return False
    return True


def _dropout_batch(model, stage, n=8):
    """Criterion 6's first feasible training utterances, one without visual
    text, and the stage's visual flags: in stage 2, one utterance's visual
    text is dropped."""
    corpus = CorpusConfig(seed=2024)
    vocab = build_vocab(corpus)
    utts = [gen_utterance(corpus, vocab, "train", i) for i in range(2 * n)]
    batch = [dataclasses.replace(u) for u in utts if _feasible(model, u)][:n]
    batch[2].ocr = []
    assert len({len(u.audio) for u in batch}) > 2
    return batch, [stage == "fusion" and i != 4 for i in range(n)]


def _criterion_6_model(seed):
    return Model.init(load_checkpoint(str(STAGE1_FIXTURE))[0].cfg, seed)


@pytest.mark.parametrize("stage", ["audio_only", "fusion"])
def test_a_float32_train_step_makes_no_float64_tensor(stage, monkeypatch):
    """Once an Adam holds the trainable parameters in float32, a train step's
    graph is float32 up to the log-softmax rows: a float64 tensor is a
    log-softmax output or computed from float64 tensors alone (CTC,
    cross-entropy, the loss). So no constant upcasts a layer. On a padded
    batch with masks and, in stage 2, visual dropout and a row without
    visual text; every parameter gradient is float32 too."""
    model = _criterion_6_model(seed=3)
    batch, flags = _dropout_batch(model, stage)
    cfg = _stage_config(stage)
    Adam(model.named_parameters(), trainable_names(model, cfg), cfg.peak_lr, cfg.warmup)
    heads = []
    log_softmax_rows = tn.log_softmax_rows

    def recorded(x):
        heads.append(log_softmax_rows(x))
        return heads[-1]

    monkeypatch.setattr(tn, "log_softmax_rows", recorded)
    l_ctc, l_att, skipped = utterance_losses(model, batch, flags, cfg)
    total = tn.add(tn.scale(l_ctc, cfg.lambda_ctc), tn.scale(l_att, 1.0 - cfg.lambda_ctc))
    order = tn._topo_order(total)
    in_graph = {id(node) for node in order}  # not the speech cache's log-probs
    heads = [h for h in heads if id(h) in in_graph]
    assert skipped == 0 and len(heads) == (1 if cfg.freeze_encoder else 2)
    wide = {id(node) for node in order if node.data.dtype == np.float64}
    assert {id(h) for h in heads} <= wide
    for node in order:
        if id(node) in wide and all(node is not h for h in heads):
            assert all(id(p) in wide for p in node._parents), node
        if node._backward is None:  # a leaf: a parameter the Adam holds
            assert node.data.dtype == np.float32
    assert all(p.data.dtype == np.float32 for h in heads for p in h._parents)
    assert sum(node.data.dtype == np.float32 for node in order) > 3 * len(wide)
    total.backward()
    grads = [p.grad for p in model.named_parameters().values() if p.grad is not None]
    assert grads and all(g.dtype == np.float32 for g in grads)


@pytest.mark.parametrize("stage", ["audio_only", "fusion"])
def test_float32_training_matches_its_float64_twin(stage):
    """The same batch and parameter values in float32 (held by an Adam) and
    in float64: the CTC and attention losses agree within 1e-5 relative, and
    each parameter's gradient within 1e-5 of its largest float64 entry (the
    worst measured was 1.3e-6 in stage 1, about ten float32 epsilons)."""
    cfg = _stage_config(stage)
    wide, narrow = _criterion_6_model(seed=5), _criterion_6_model(seed=5)
    Adam(narrow.named_parameters(), trainable_names(narrow, cfg), cfg.peak_lr, cfg.warmup)
    assert param_dtypes(narrow, "decoder.out_w") == {np.dtype(np.float32)}
    assert param_dtypes(wide) == {np.dtype(np.float64)}
    batch, flags = _dropout_batch(wide, stage)
    *wide_losses, _, wide_grads = _losses_and_grads(wide, batch, flags, cfg)
    *narrow_losses, _, narrow_grads = _losses_and_grads(narrow, batch, flags, cfg)
    for got, want in zip(narrow_losses, wide_losses):
        assert abs(got - want) <= 1e-5 * abs(want)
    for name, want in wide_grads.items():
        assert np.max(np.abs(narrow_grads[name] - want)) <= 1e-5 * np.max(np.abs(want)), name


def test_decoding_does_not_depend_on_whether_an_adam_holds_the_parameters(tmp_path):
    """A stage-2 model whose parameters an Adam holds in float32 decodes in
    float64, as run_stage's validation and criterion 6 decode it: its beam-4
    hypotheses equal bitwise those of the model saved and loaded again
    without the optimizer, which holds float64 arrays."""
    held, _, _, _ = load_checkpoint(str(STAGE2_FIXTURE))
    cfg = _stage_config("fusion")
    Adam(held.named_parameters(), trainable_names(held, cfg), cfg.peak_lr, cfg.warmup)
    assert param_dtypes(held, "visual") == {np.dtype(np.float32)}
    path = tmp_path / "stage2.ckpt"
    save_checkpoint(path, held)
    loaded, _, _, _ = load_checkpoint(path)
    assert param_dtypes(loaded) == {np.dtype(np.float64)}
    corpus = CorpusConfig(seed=2024)
    vocab = build_vocab(corpus)
    for i in range(40):
        utt = gen_utterance(corpus, vocab, "test", i)
        got, want = (decode_utterance(m, utt, True, beam=4) for m in (held, loaded))
        assert got.tokens == want.tokens
        assert got.log_prob.hex() == want.log_prob.hex()
        assert got.normalized.hex() == want.normalized.hex()


def test_padded_positions_get_exactly_zero_gradient():
    model = _subsampling_model(seed=5)
    rng = np.random.default_rng(8)
    raw = np.array([9, 4, 7])  # subsampled to 5, 2 and 4 frames
    frames = Tensor(rng.standard_normal((3, 9, 4)) * (np.arange(9) < raw[:, None])[..., None])
    feats = encode_audio(frames, model.cfg.encoder, model.encoder, raw)
    assert feats.t_len == 5 and feats.lengths.tolist() == [5, 2, 4]
    labels = [[1, 2], [3], [4, 5, 6]]
    tn.sum_all(ctc_loss(ctc_head(feats, model.ctc_w), labels, feats.lengths)).backward()
    for b, n in enumerate(raw):
        assert np.array_equal(frames.grad[b, n:], np.zeros((9 - n, 4)))
        assert np.any(frames.grad[b, :n] != 0.0)

    dec = model.cfg.decoder
    audio = AudioFeatures(Tensor(rng.standard_normal((3, 5, 4))), np.array([5, 2, 4]))
    visual = VisualFeatures(Tensor(rng.standard_normal((3, 3, 4))), np.array([3, 0, 1]))
    for block in model.decoder.blocks:
        block.cross.visual_branch.w_o.data[:] = rng.standard_normal((4, 4))
    targets_in = np.array([[dec.bos_id, 1, 2], [dec.bos_id, 3, 0], [dec.bos_id, 0, 0]])
    targets_out = np.array([[1, 2, dec.eos_id], [3, dec.eos_id, 0], [dec.eos_id, 0, 0]])
    n_in = np.array([3, 2, 1])
    logits = decoder_forward(targets_in, audio, visual, dec, model.decoder, lengths=n_in)
    label_smoothed_ce(logits, targets_out, 0.1, n_in).backward()
    assert np.array_equal(audio.frames.grad[1, 2:], np.zeros((3, 4)))
    assert np.array_equal(audio.frames.grad[2, 4:], np.zeros((1, 4)))
    assert np.array_equal(visual.frames.grad[1], np.zeros((3, 4)))  # no visual text
    assert np.array_equal(visual.frames.grad[2, 1:], np.zeros((2, 4)))
    assert np.any(visual.frames.grad[0] != 0.0) and np.any(audio.frames.grad[1, :2] != 0.0)


def test_training_graph_size():
    """Nodes with a backward in one training loss, at criterion 6's block
    counts (2 encoder and 2 decoder blocks): each pre-LN sub-block is one
    node, its layer norm included, except the decoder's cross-attention,
    whose norm both branches share. In stage 1, with the audio a numpy
    constant, every leaf of the graph is a parameter: no constant is
    recorded."""
    enc = EncoderConfig(n_blocks=2, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=2)
    dec = make_decoder_config(6, 3, n_blocks=2, n_heads=2, d_model=4, d_ff=6)
    model = Model.init(ModelConfig(d_in=4, v_content=6, n_background=3,
                                   encoder=enc, decoder=dec), 0)
    _, splits = gen_corpus(MICRO_CORPUS)
    batch = [u for u in splits["train"] if _feasible(model, u)][:4]
    params = {id(p) for p in model.named_parameters().values()}
    for cfg, nodes in ((TrainConfig(stage="audio_only"), 38),
                       (TrainConfig(stage="fusion", freeze_encoder=True), 28)):
        flags = [cfg.stage == "fusion"] * len(batch)
        l_ctc, l_att, skipped = utterance_losses(model, batch, flags, cfg)
        assert skipped == 0
        order = tn._topo_order(tn.add(tn.scale(l_ctc, cfg.lambda_ctc),
                                      tn.scale(l_att, 1.0 - cfg.lambda_ctc)))
        assert sum(node._backward is not None for node in order) == nodes, cfg.stage
        if cfg.stage == "audio_only":
            assert all(id(node) in params for node in order if node._backward is None)


def test_adam_refuses_a_non_finite_gradient():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=2)
    cfg = TrainConfig(stage="audio_only")
    opt = Adam(model.named_parameters(), trainable_names(model, cfg), cfg.peak_lr, cfg.warmup)
    report = train_step(model, splits["train"][:4], cfg, opt)
    assert np.isfinite(report["grad_norm"]) and report["grad_norm"] > 0.0
    before = (model_bytes(model), {n: m.tobytes() for n, m in opt.m.items()},
              {n: v.tobytes() for n, v in opt.v.items()}, opt.t)
    params = model.named_parameters()
    for name in opt.trainable:
        params[name].grad = np.ones_like(params[name].data)
    params["decoder.out_w"].grad[1, 2] = np.nan
    with pytest.raises(NumericError, match="decoder.out_w"):
        opt.step()
    assert (model_bytes(model), {n: m.tobytes() for n, m in opt.m.items()},
            {n: v.tobytes() for n, v in opt.v.items()}, opt.t) == before


def test_adam_takes_a_huge_finite_gradient():
    """A float32 gradient of 1e20 squares to 1e40, beyond float32 but not
    float64: the step reports a finite norm and updates the parameters."""
    model = micro_model(seed=2)
    cfg = TrainConfig(stage="audio_only")
    opt = Adam(model.named_parameters(), trainable_names(model, cfg), cfg.peak_lr, cfg.warmup)
    params = model.named_parameters()
    for name in opt.trainable:
        params[name].grad = np.ones_like(params[name].data)
    params["decoder.out_w"].grad[1, 2] = 1e20
    before = params["decoder.out_w"].data.copy()
    opt.step()
    assert math.isfinite(opt.grad_norm) and opt.grad_norm >= 1e20
    for name in opt.trainable:
        assert np.isfinite(opt.m[name]).all() and np.isfinite(opt.v[name]).all(), name
        assert np.isfinite(params[name].data).all(), name
    assert params["decoder.out_w"].data[1, 2] < before[1, 2]


class ReferenceAdam:
    """``Adam.step`` stated one parameter at a time, as an oracle: float32
    copies of an Adam's parameters and moments, updated by the same float32
    operations in the same order from float32 copies of the gradients."""

    def __init__(self, opt):
        self.peak_lr, self.warmup = opt.peak_lr, opt.warmup
        self.beta1, self.beta2, self.eps, self.t = opt.beta1, opt.beta2, opt.eps, opt.t
        self.p = {n: np.array(opt.params[n].data, dtype=np.float32) for n in opt.trainable}
        self.m = {n: np.array(opt.m[n]) for n in opt.trainable}
        self.v = {n: np.array(opt.v[n]) for n in opt.trainable}

    def lr(self, t):
        if self.warmup > 0:
            return self.peak_lr * min(t / self.warmup, math.sqrt(self.warmup / t))
        return self.peak_lr * min(1.0, 1.0 / math.sqrt(t))

    def step(self, grads):
        grads = _float32_grads(grads, self.p)
        self.grad_norm = math.sqrt(sum(float(np.vdot(g, g)) for g in
                                       (g.astype(np.float64) for g in grads.values())))
        self.t += 1
        lr = self.lr(self.t)
        b1, b2 = self.beta1, self.beta2
        root_bc2 = math.sqrt(1.0 - b2**self.t)
        step_size = lr * root_bc2 / (1.0 - b1**self.t)
        for name, g in grads.items():
            m = b1 * self.m[name] + (1.0 - b1) * g
            v = b2 * self.v[name] + ((1.0 - b2) * g) * g
            self.p[name] = self.p[name] - (m / (np.sqrt(v) + self.eps * root_bc2)) * step_size
            self.m[name], self.v[name] = m, v
        return lr


def _float32_grads(grads, like):
    """Each gradient as Adam gathers it: in float32, zero where it is None."""
    return {n: np.zeros_like(like[n]) if g is None else np.asarray(g, dtype=np.float32)
            for n, g in grads.items()}


U32 = 2.0**-24  # float32's unit roundoff
FLOOR32 = 2.0**-125  # float32's smallest subnormal over U32


def _assert_within_float32_rounding_of_textbook_adam(opt, before, grads):
    """The update before float32 Adam, kept as a second oracle: the
    textbook step in float64, from the float32 state ``before`` the step
    and the float32 gradients. Adam's float32 step must stay within the
    rounding its float32 operations allow, counted to first order with u
    the unit roundoff:
    - m = b1 m0 + (1 - b1) g: b1, 1 - b1 and each product round once, the
      sum once: |dm| <= 3u M, M = b1 |m0| + (1 - b1) |g|;
    - v = b2 v0 + ((1 - b2) g) g: 2 roundings on the first term, 3 on the
      second, 1 on the sum, and both terms are >= 0: |dv| <= 4u v;
    - the step s m / D, D = sqrt(v) + eps', so |step| <= s M / D: dm
      contributes 3u s M / D. sqrt(v) is off by 3u (2u from dv, 1 of its
      own) and eps' by u; both are > 0, so with the sum D is off by 4u.
      With the division, s and the product, 7u |step|: in all 10u s M / D;
    - p0 - step rounds once: u |p|.
    Below 2^-125, the smallest subnormal over u, float32 rounds absolutely,
    not relatively: every magnitude in the bounds is taken at least that
    large. The factor 1 + 1e-6 covers the second-order terms and the
    float64 roundings of the oracle, among them those of folding the bias
    corrections into s and eps'."""
    t, b1, b2 = opt.t, opt.beta1, opt.beta2
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    lr = opt.lr(t)
    s, eps_ = lr * math.sqrt(bc2) / bc1, opt.eps * math.sqrt(bc2)
    for name, g in _float32_grads(grads, opt.m).items():
        p0, m0, v0, g = (np.asarray(a, dtype=np.float64) for a in (*before[name], g))
        m = b1 * m0 + (1.0 - b1) * g
        v = b2 * v0 + (1.0 - b2) * g * g
        p = p0 - lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        big_m = b1 * np.abs(m0) + (1.0 - b1) * np.abs(g) + FLOOR32
        for got, want, tol in (
                (opt.m[name], m, 3 * U32 * big_m),
                (opt.v[name], v, 4 * U32 * (v + FLOOR32)),
                (opt.params[name].data, p,
                 U32 * (np.abs(p) + FLOOR32) + 10 * U32 * s * big_m / (np.sqrt(v) + eps_))):
            assert (np.abs(np.asarray(got, dtype=np.float64) - want)
                    <= tol * (1 + 1e-6)).all(), name


def _step_against_reference(model, opt, ref, cfg, batch, scalar=None):
    """One optimizer step of ``opt`` and of ``ref`` on the same gradients;
    asserts that both reach bitwise the same state, and that it is within
    float32 rounding of the float64 textbook step."""
    opt.zero_grad()
    l_ctc, l_att, _ = utterance_losses(model, batch, [cfg.stage == "fusion"] * len(batch), cfg)
    total = tn.add(tn.scale(l_ctc, cfg.lambda_ctc), tn.scale(l_att, 1.0 - cfg.lambda_ctc))
    total.backward()
    if scalar is not None:
        scalar.grad = np.array(total.item() - 1.0)
    grads = {n: None if opt.params[n].grad is None else opt.params[n].grad.copy()
             for n in opt.trainable}
    before = {n: (ref.p[n], ref.m[n], ref.v[n]) for n in opt.trainable}
    assert opt.step() == ref.step(grads)
    assert opt.t == ref.t
    assert abs(opt.grad_norm - ref.grad_norm) <= 1e-12 * ref.grad_norm
    for n in opt.trainable:
        p = opt.params[n].data
        assert np.shares_memory(p, opt.arena) and p.dtype == np.float32, n
        assert p.tobytes() == ref.p[n].tobytes(), n
        assert opt.m[n].tobytes() == ref.m[n].tobytes(), n
        assert opt.v[n].tobytes() == ref.v[n].tobytes(), n
    _assert_within_float32_rounding_of_textbook_adam(opt, before, grads)


def _stage_config(stage):
    return TrainConfig(stage=stage, freeze_encoder=stage == "fusion", peak_lr=1e-2, warmup=5)


@pytest.mark.parametrize("stage", ["audio_only", "fusion"])
def test_arena_adam_matches_the_per_parameter_update(stage):
    """With a scalar parameter, a trainable parameter that never gets a
    gradient, and parameters whose data are rebound between steps."""
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=3)
    cfg = _stage_config(stage)
    scalar, unused = Tensor(np.array(0.25)), Tensor(np.full((2, 3), 0.5))
    params = dict(model.named_parameters(), scalar=scalar, unused=unused)
    opt = Adam(params, trainable_names(model, cfg) + ["scalar", "unused"],
               cfg.peak_lr, cfg.warmup)
    ref = ReferenceAdam(opt)
    rng = np.random.default_rng(0)
    for step in range(1, 25):
        if step == 7:
            out_w = params["decoder.out_w"]
            out_w.data = out_w.data * 0.5
            scalar.data = np.array(-0.5)
            ref.p["decoder.out_w"] = out_w.data.copy()
            ref.p["scalar"] = scalar.data.astype(np.float32)
        batch = [splits["train"][int(i)] for i in rng.integers(0, 16, 4)]
        _step_against_reference(model, opt, ref, cfg, batch, scalar)
    assert unused.grad is None


@pytest.mark.parametrize("stage", ["audio_only", "fusion"])
def test_arena_adam_resumes_from_a_checkpoint_like_the_per_parameter_update(stage, tmp_path):
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=4)
    cfg = _stage_config(stage)
    opt = Adam(model.named_parameters(), trainable_names(model, cfg), cfg.peak_lr, cfg.warmup)
    ref = ReferenceAdam(opt)
    rng = np.random.default_rng(1)
    for step in range(1, 23):
        if step == 11:
            save_checkpoint(str(tmp_path / "mid.ckpt"), model, opt, 10)
            model, opt, _, _ = load_checkpoint(str(tmp_path / "mid.ckpt"))
        batch = [splits["train"][int(i)] for i in rng.integers(0, 16, 4)]
        _step_against_reference(model, opt, ref, cfg, batch)


def test_adam_arena_edge_cases():
    opt = Adam({}, [], peak_lr=1.0, warmup=10)
    assert opt.step() == opt.lr(1) and opt.grad_norm == 0.0 and opt.t == 1
    shared = Tensor(np.zeros(3))
    with pytest.raises(ContractError, match="share"):
        Adam({"a": shared, "b": shared}, ["a", "b"], peak_lr=1.0, warmup=10)


def test_an_adam_step_allocates_less_than_a_float32_arena():
    """The update runs in place over buffers the optimizer owns; summing the
    squares in float64 allocates no float64 copy of the gradients."""
    params = {"a": Tensor(np.zeros((300, 400))), "b": Tensor(np.zeros(50_000))}
    opt = Adam(params, ["a", "b"], peak_lr=1.0, warmup=10)
    for p in params.values():
        p.grad = np.full(p.data.shape, 0.5, dtype=np.float32)
    opt.step()
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * opt.arena.size


def test_frozen_encoder_outputs_take_no_gradient():
    """Stage 2 passes the frozen features and CTC loss as constants: no leaf
    but a parameter holds a gradient, and the parameter gradients equal
    those of a graph that also differentiates the encoder, up to the float32
    rounding of the cached features."""
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=2)
    params = model.named_parameters()
    batch, flags = splits["train"][:4], [True, True, False, True]
    grads = []
    for cfg in (TrainConfig(stage="fusion", freeze_encoder=True), TrainConfig(stage="fusion")):
        for p in params.values():
            p.grad = None
        l_ctc, l_att, _ = utterance_losses(model, batch, flags, cfg)
        total = tn.add(tn.scale(l_ctc, cfg.lambda_ctc), tn.scale(l_att, 1.0 - cfg.lambda_ctc))
        total.backward()
        if cfg.freeze_encoder:
            ids = {id(p) for p in params.values()}
            assert all(node.grad is None for node in tn._topo_order(total)
                       if id(node) not in ids)
        grads.append({n: p.grad for n, p in params.items() if p.grad is not None})
    frozen, full = grads
    assert frozen and not any(n.startswith("encoder.") or n == "ctc_w" for n in frozen)
    for name, g in frozen.items():
        assert np.max(np.abs(g - full[name])) <= 1e-5 * np.max(np.abs(full[name])), name


def _header_paths(node, path=()):
    """Every field of a checkpoint header, the first two items of each list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node[:2]) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _header_paths(child, path + (key,))


def _wrong_values(path, value):
    """Values that no checkpoint holds at ``path``: every number in a header
    is non-negative, only rng_state and optimizer may be null, and a field
    holding an integer never holds a fraction."""
    wrong = ["x", True, -1, [], {"a": 1}]
    if path[-1] != "rng_state":
        wrong.append(None)
    if type(value) is int:
        wrong.append(0.5)
    return [w for w in wrong if w != value or type(w) is not type(value)]


def test_checkpoint_fuzz_raises_only_checkpoint_errors(tmp_path):
    """Cut a checkpoint with optimizer and rng state at many offsets, give
    every header field a wrong value or type or drop it, and append bytes:
    each case raises a CheckpointError, and any other exception fails."""
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=4)
    opt, rng, _ = run_stage(model, splits["train"], TrainConfig(max_steps=3, batch_size=2))
    path = tmp_path / "good.ckpt"
    save_checkpoint(str(path), model, opt, 3, rng)
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    block_ends = np.cumsum([12 + hlen] + [
        4 * int(np.prod(e["shape"])) for e in header["params"]]
        + [4 * model.named_parameters()[n].size for n in opt.trainable * 2])
    assert block_ends[-1] == len(raw)
    fuzz = random.Random(8)
    cuts = set(range(16)) | {int(b) + d for b in block_ends[:-1] for d in (-1, 0, 1)}
    cuts |= {fuzz.randrange(len(raw)) for _ in range(100)}
    cases = [raw[:n] for n in sorted(cuts)]
    cases += [raw + bytes(fuzz.randrange(256) for _ in range(fuzz.randint(1, 8)))
              for _ in range(20)]
    for field in _header_paths(header):
        parent = header
        for key in field[:-1]:
            parent = parent[key]
        values = _wrong_values(field, parent[field[-1]])
        if isinstance(parent, dict):
            values.append(KeyError)  # drop the field
        for value in values:
            mutated = json.loads(json.dumps(header))
            target = mutated
            for key in field[:-1]:
                target = target[key]
            if value is KeyError:
                del target[field[-1]]
            else:
                target[field[-1]] = value
            head = json.dumps(mutated, sort_keys=True).encode("utf-8")
            cases.append(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + hlen :])
    assert len(cases) > 500
    bad = tmp_path / "bad.ckpt"
    for case in cases:
        bad.write_bytes(case)
        with pytest.raises(CheckpointError, match=f"^checkpoint {re.escape(str(bad))}: "):
            load_checkpoint(str(bad))


def _copying_accum(t, g):
    """The accumulation that copied every first gradient, kept as an oracle."""
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


@pytest.mark.parametrize("stage", ["audio_only", "fusion"])
def test_gradients_taken_without_a_copy_match_the_copying_accumulation(stage, monkeypatch):
    """20 steps on a subsampling model: every parameter gradient is bitwise
    the one of the accumulation that copied, and no two leaves' gradients
    share memory."""
    _, splits = gen_corpus(MICRO_CORPUS)
    cfg = _stage_config(stage)
    runs = []
    for accum in (tn._accum, _copying_accum):
        monkeypatch.setattr(tn, "_accum", accum)
        monkeypatch.setattr(ctc_module, "_accum", accum)
        model = _subsampling_model(seed=6)
        params = model.named_parameters()
        opt = Adam(params, trainable_names(model, cfg), cfg.peak_lr, cfg.warmup)
        rng = np.random.default_rng(2)
        grads = []
        for _ in range(20):
            batch = [splits["train"][int(i)] for i in rng.integers(0, 16, 4)]
            flags = [stage == "fusion" and bool(f) for f in rng.random(4) > 0.3]
            opt.zero_grad()
            l_ctc, l_att, _ = utterance_losses(model, batch, flags, cfg)
            tn.add(tn.scale(l_ctc, cfg.lambda_ctc), tn.scale(l_att, 1.0 - cfg.lambda_ctc)).backward()
            held = [(n, p.grad) for n, p in params.items() if p.grad is not None]
            assert all(g.dtype == np.float32 for _, g in held)
            for i, (name, g) in enumerate(held):
                for other, h in held[i + 1 :]:
                    assert not np.shares_memory(g, h), (name, other)
            grads.append({n: g.tobytes() for n, g in held})
            opt.step()
        runs.append(grads)
    assert runs[0] == runs[1]


FROZEN = TrainConfig(stage="fusion", freeze_encoder=True)


@pytest.mark.parametrize("source", ["micro", "stage-1 fixture"])
def test_speech_cache_entries_are_each_utterance_encoded_alone(source):
    """Each cached feature block is bitwise the utterance's features encoded
    alone, rounded to float32, and within float32 rounding of its in-batch
    features; each cached CTC loss is within 1e-12 of its in-batch row."""
    if source == "micro":
        model = _subsampling_model(seed=7)
        utts = gen_corpus(MICRO_CORPUS)[1]["train"]
    else:  # criterion 6's first 200 training utterances
        model, _, _, _ = load_checkpoint(str(STAGE1_FIXTURE))
        corpus = CorpusConfig(seed=2024)
        vocab = build_vocab(corpus)
        utts = [gen_utterance(corpus, vocab, "train", i) for i in range(200)]
    utts = [u for u in utts if _feasible(model, u)]
    assert len(utts) >= (14 if source == "micro" else 200)
    cache = SpeechCache()
    for start in range(0, len(utts), 8):
        batch = utts[start : start + 8]
        feats, mean_ctc = cache.batch(model, batch)
        with tn.no_grad():
            frames, raw = pad_batch([u.audio for u in batch], dtype=np.float64)
            in_batch = encode_audio(frames, model.cfg.encoder, model.encoder, raw)
            rows_ctc = ctc_loss(ctc_head(in_batch, model.ctc_w), [u.ref for u in batch],
                                in_batch.lengths).data
        assert feats.frames.dtype == np.float32 and feats.t_len == in_batch.t_len
        assert feats.lengths.tolist() == in_batch.lengths.tolist()
        losses = []
        for utt, row, n, want_ctc, got in zip(batch, feats.frames, feats.lengths, rows_ctc,
                                              in_batch.frames.data):
            with tn.no_grad():
                alone = encode_audio(np.asarray(utt.audio, dtype=np.float64),
                                     model.cfg.encoder, model.encoder).frames.data
            assert row[:n].tobytes() == alone.astype("<f4").tobytes()
            assert not np.any(row[n:])
            assert np.all(np.abs(row[:n] - got[:n]) <= 2.0**-24 * np.abs(got[:n]))
            _, loss = cache.batch(model, [utt])
            assert abs(loss - want_ctc) <= 1e-12
            losses.append(float(loss))
        assert float(mean_ctc) == np.sum(losses) * (1.0 / len(batch))
    assert cache.encoded == len(cache.entries) == len(utts)


def test_speech_cache_keys_on_content():
    _, splits = gen_corpus(MICRO_CORPUS)
    model = micro_model(seed=3)
    utt = splits["train"][0]
    cache = SpeechCache()
    cache.batch(model, [utt, utt])
    cache.batch(model, [dataclasses.replace(utt, uid="valid-00000")])
    assert cache.encoded == 1
    cache.batch(model, [dataclasses.replace(utt, ref=utt.ref[:-1])])
    cache.batch(model, [dataclasses.replace(utt, audio=utt.audio * 0.5)])
    assert cache.encoded == 3


def _same_values(model):
    """A model with fresh objects and an empty cache, holding copies of
    ``model``'s parameter values."""
    fresh = Model.blank(model.cfg)
    params = model.named_parameters()
    for name, t in fresh.named_parameters().items():
        t.data = params[name].data.copy()
    return fresh


def _frozen_losses(model, batch):
    l_ctc, l_att, _ = utterance_losses(model, batch, [True] * len(batch), FROZEN)
    return float(l_ctc), l_att.item()


@pytest.mark.parametrize("change", ["write in place", "rebind ctc_w", "unfrozen Adam"])
def test_speech_cache_never_serves_a_stale_entry(change):
    """After each change to the frozen parameters, a frozen step equals the
    step of a fresh model with the same values."""
    _, splits = gen_corpus(MICRO_CORPUS)
    model = _subsampling_model(seed=8)
    batch = [u for u in splits["train"] if _feasible(model, u)][:4]
    before = _frozen_losses(model, batch)
    assert model.speech_cache.encoded == 4
    if change == "write in place":  # the frozen arrays are read-only
        with pytest.raises(ValueError):
            model.encoder.blocks[0].ffn1.w1.data *= 0.5
    elif change == "rebind ctc_w":
        model.ctc_w.data = model.ctc_w.data * 0.5
    else:  # binds every parameter into its arena, then changes them there
        cfg = TrainConfig(stage="fusion", peak_lr=1e-2, warmup=1)
        opt = Adam(model.named_parameters(), trainable_names(model, cfg), cfg.peak_lr,
                   cfg.warmup)
        assert train_step(model, batch, cfg, opt)["encoded"] == 4
    after = _frozen_losses(model, batch)
    assert after == _frozen_losses(_same_values(model), batch)
    if change == "write in place":
        assert after == before and model.speech_cache.encoded == 4
    else:
        assert after[0] != before[0] and model.speech_cache.encoded == 8


def test_stage2_resume_rebuilds_the_speech_cache_bitwise(tmp_path):
    """Two 10-step stage-2 runs write the same log bytes, and 5 steps, a
    checkpoint, a load and 5 more steps give the same log and parameters."""
    _, splits = gen_corpus(MICRO_CORPUS)
    cfg = TrainConfig(stage="fusion", freeze_encoder=True, max_steps=10, batch_size=4,
                      seed=2, peak_lr=1e-2, warmup=3)

    def from_stage1():
        model = _subsampling_model(seed=9)
        model.reinit_fusion(cfg.seed)
        return model

    logs = []
    for name in ("a.log", "b.log"):
        cont = from_stage1()
        run_stage(cont, splits["train"], cfg, log_path=str(tmp_path / name))
        logs.append((tmp_path / name).read_bytes())
    assert logs[0] == logs[1]
    half = from_stage1()
    log = str(tmp_path / "resumed.log")
    opt, rng, _ = run_stage(half, splits["train"], dataclasses.replace(cfg, max_steps=5),
                            log_path=log)
    save_checkpoint(str(tmp_path / "mid.ckpt"), half, opt, 5, rng)
    resumed, opt2, step, rng_state = load_checkpoint(str(tmp_path / "mid.ckpt"))
    assert resumed.speech_cache is None
    rng2 = np.random.default_rng()
    rng2.bit_generator.state = rng_state
    run_stage(resumed, splits["train"], cfg, log_path=log, opt=opt2, rng=rng2, start_step=step)
    assert resumed.speech_cache.encoded > 0
    assert model_bytes(resumed) == model_bytes(cont)
    assert (tmp_path / "resumed.log").read_bytes() == logs[0]
