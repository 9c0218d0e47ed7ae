"""End-to-end command-line pipeline on a miniature corpus."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import mmasr
from mmasr.cli import _read_hypotheses, load_run_config, run_cli
from mmasr.data import CorpusConfig, gen_corpus, read_split, read_vocab, write_split
from mmasr.decoder import DecoderConfig
from mmasr.errors import ConfigError, CorpusFormatError
from mmasr.train import load_checkpoint, save_checkpoint

CONFIG = {
    "corpus": {
        "v": 6, "n_groups": 1, "group_size": 2, "n_background": 3,
        "d_in": 4, "duration_min": 2, "duration_max": 3,
        "noise_sigma": 0.2, "p_ocr_drop": 0.2, "p_ocr_paraphrase": 0.1,
        "n_distractors": 2, "sent_len_min": 2, "sent_len_max": 3,
        "n_train": 12, "n_valid": 4, "n_test": 4, "seed": 13,
    },
    "encoder": {"n_blocks": 1, "n_heads": 2, "d_model": 8, "d_ff": 12,
                "conv_width": 3, "subsample_factor": 2},
    "decoder": {"n_blocks": 1, "n_heads": 2, "d_model": 8, "d_ff": 12},
    "train_stage1": {"stage": "audio_only", "max_steps": 4, "batch_size": 2,
                     "peak_lr": 2e-3, "seed": 0},
    "train_stage2": {"stage": "fusion", "freeze_encoder": True, "max_steps": 4,
                     "batch_size": 2, "peak_lr": 2e-3, "seed": 1},
}


@pytest.fixture()
def workspace(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(CONFIG))
    return tmp_path, str(cfg_path)


def _pipeline(tmp_path, cfg_path):
    data = str(tmp_path / "corpus")
    out = str(tmp_path / "run")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    assert run_cli(["train", "--config", cfg_path, "--stage", "1",
                    "--data", data, "--out", out]) == 0
    assert run_cli(["train", "--config", cfg_path, "--stage", "2",
                    "--data", data, "--out", out,
                    "--stage1-ckpt", f"{out}/stage1.ckpt"]) == 0
    return data, out


def test_no_arguments_is_usage_error(capsys):
    assert run_cli([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = dict(CONFIG)
    bad["corpus"] = dict(CONFIG["corpus"], typo_key=1)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert run_cli(["gen-data", "--config", str(p), "--out", str(tmp_path / "c")]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_a_run_config_that_sets_freeze_visual_is_rejected(tmp_path, capsys):
    # The visual encoder is frozen only by decoding; a run config cannot ask for it.
    bad = dict(CONFIG, train_stage2=dict(CONFIG["train_stage2"], freeze_visual=True))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert run_cli(["train", "--config", str(p), "--stage", "2", "--data", str(tmp_path / "c"),
                    "--out", str(tmp_path / "run")]) == 2
    assert "freeze_visual" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [
    {"n_train": -5}, {"n_train": True}, {"noise_sigma": -1.0}, {"seed": -1},
    {"n_train": 2.5}, {"noise_sigma": "x"}, {"v": 0, "n_groups": 0},
])
def test_gen_data_rejects_a_corpus_it_cannot_generate(tmp_path, capsys, changes):
    bad = dict(CONFIG, corpus=dict(CONFIG["corpus"], **changes))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    out = tmp_path / "c"
    assert run_cli(["gen-data", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_unknown_section_rejected(tmp_path, capsys):
    bad = dict(CONFIG, extra_section={})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert run_cli(["gen-data", "--config", str(p), "--out", str(tmp_path / "c")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("decoder", [
    {"typo_key": 1}, {"vocab_size": 20}, {"n_blocks": 0}, {"d_ff": "12"},
    {"n_heads": True}, {"d_model": 8.0}, [],
])
def test_decoder_section_is_checked_against_decoder_config(workspace, capsys, decoder):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(CONFIG, decoder=decoder)))
    assert run_cli(["gen-data", "--config", str(p), "--out", str(tmp_path / "c")]) == 2
    assert run_cli(["train", "--config", str(p), "--stage", "1", "--data", data,
                    "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_decoder_section_takes_decoder_config_defaults(workspace, capsys):
    tmp_path, cfg_path = workspace
    data, out = str(tmp_path / "corpus"), str(tmp_path / "run")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    p = tmp_path / "partial.json"
    p.write_text(json.dumps(dict(CONFIG, decoder={"n_heads": 2, "d_model": 8},
                                 train_stage1=dict(CONFIG["train_stage1"], max_steps=1))))
    assert run_cli(["train", "--config", str(p), "--stage", "1", "--data", data,
                    "--out", out]) == 0
    dec = load_checkpoint(f"{out}/stage1.ckpt")[0].cfg.decoder
    defaults = DecoderConfig(vocab_size=dec.vocab_size)
    assert (dec.n_blocks, dec.d_ff) == (defaults.n_blocks, defaults.d_ff)
    assert (dec.n_heads, dec.d_model) == (2, 8)
    capsys.readouterr()


def test_gen_data_is_byte_deterministic(workspace, capsys):
    tmp_path, cfg_path = workspace
    for name in ("c1", "c2"):
        assert run_cli(["gen-data", "--config", cfg_path,
                        "--out", str(tmp_path / name)]) == 0
    for f in ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl"):
        assert (tmp_path / "c1" / f).read_bytes() == (tmp_path / "c2" / f).read_bytes()
    capsys.readouterr()


def test_stage2_requires_stage1_checkpoint(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    assert run_cli(["train", "--config", cfg_path, "--stage", "2",
                    "--data", data, "--out", str(tmp_path / "run")]) == 2
    capsys.readouterr()


def test_full_pipeline_and_reports(workspace, capsys):
    tmp_path, cfg_path = workspace
    data, out = _pipeline(tmp_path, cfg_path)
    hyp = str(tmp_path / "hyp.jsonl")
    assert run_cli(["decode", "--ckpt", f"{out}/stage2.ckpt", "--corpus", data,
                    "--split", "test", "--beam", "2", "--out", hyp]) == 0
    records = [json.loads(l) for l in open(hyp)]
    assert len(records) == CONFIG["corpus"]["n_test"]
    assert all(set(r) == {"id", "tokens", "log_prob"} for r in records)
    assert open(hyp).read() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    # Timing goes to a sidecar, one record per utterance in the same order.
    utts = {u.uid: u for u in read_split(f"{data}/test.jsonl", read_vocab(f"{data}/vocab.json"))}
    timings = [json.loads(l) for l in open(tmp_path / "hyp.metrics.jsonl")]
    assert [t["id"] for t in timings] == [r["id"] for r in records]
    for t, r in zip(timings, records):
        assert set(t) == {"id", "ms", "tokens", "hit_max_len", "steps"}
        assert t["ms"] > 0.0 and t["tokens"] == len(r["tokens"])
        # decode's step limit: the encoder's length (subsampling by 2), plus EOS
        max_len = -(-len(utts[t["id"]].audio) // 2) + 1
        assert t["hit_max_len"] is (t["tokens"] == max_len)
        # the search ran at least the hypothesis's steps, and never past the limit
        assert t["tokens"] <= t["steps"] <= max_len
    report_path = str(tmp_path / "report.json")
    assert run_cli(["eval", "--ref", f"{data}/test.jsonl", "--hyp", hyp,
                    "--vocab", f"{data}/vocab.json", "--out", report_path]) == 0
    report = json.load(open(report_path))
    assert set(report) == {"overall", "breakdown", "utterances"}
    assert set(report["overall"]) == {"S", "D", "I", "N", "wer"}
    assert report["overall"]["N"] == sum(u["N"] for u in report["utterances"])
    capsys.readouterr()


def test_eval_of_references_against_themselves_is_zero(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    hyp = tmp_path / "perfect.jsonl"
    with open(f"{data}/test.jsonl") as f, open(hyp, "w") as g:
        for line in f:
            rec = json.loads(line)
            g.write(json.dumps({"id": rec["id"], "tokens": rec["ref"],
                                "log_prob": 0.0}) + "\n")
    report_path = str(tmp_path / "report.json")
    assert run_cli(["eval", "--ref", f"{data}/test.jsonl", "--hyp", str(hyp),
                    "--vocab", f"{data}/vocab.json", "--out", report_path]) == 0
    report = json.load(open(report_path))
    assert report["overall"]["wer"] == 0.0
    assert report["overall"]["S"] == 0
    capsys.readouterr()


def test_eval_missing_hypothesis_is_data_error(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    hyp = tmp_path / "short.jsonl"
    hyp.write_text("")
    assert run_cli(["eval", "--ref", f"{data}/test.jsonl", "--hyp", str(hyp),
                    "--vocab", f"{data}/vocab.json",
                    "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tokens", [[1.7], [True], [-3], ["2"], "12", None])
def test_eval_refuses_hypothesis_tokens_that_are_not_ids(workspace, capsys, tokens):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    recs = [json.loads(line) for line in open(f"{data}/test.jsonl")]
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(json.dumps({"id": r["id"], "tokens": tokens if i == 1 else r["ref"]})
                           + "\n" for i, r in enumerate(recs)))
    assert run_cli(["eval", "--ref", f"{data}/test.jsonl", "--hyp", str(hyp),
                    "--vocab", f"{data}/vocab.json", "--out", str(tmp_path / "r.json")]) == 2
    assert "record 2" in capsys.readouterr().err


def test_eval_with_a_malformed_vocab_is_data_error(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = tmp_path / "corpus"
    assert run_cli(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
    meta = json.loads((data / "vocab.json").read_text())
    meta["vocab"]["size"] = "x"
    (data / "vocab.json").write_text(json.dumps(meta))
    assert run_cli(["eval", "--ref", f"{data}/test.jsonl", "--hyp", f"{data}/test.jsonl",
                    "--vocab", f"{data}/vocab.json", "--out", str(tmp_path / "r.json")]) == 2
    assert "vocab" in capsys.readouterr().err


def _eval(data, ref, hyp, out):
    return run_cli(["eval", "--ref", str(ref), "--hyp", str(hyp),
                    "--vocab", f"{data}/vocab.json", "--out", str(out)])


def test_eval_of_an_empty_reference_split_is_data_error(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = tmp_path / "corpus"
    assert run_cli(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
    (tmp_path / "empty.jsonl").write_text("")
    assert _eval(data, tmp_path / "empty.jsonl", data / "test.jsonl", tmp_path / "r.json") == 2
    assert "no utterances" in capsys.readouterr().err


@pytest.mark.parametrize("repeated", ["ref", "hyp"])
def test_eval_refuses_a_repeated_utterance_id(workspace, capsys, repeated):
    tmp_path, cfg_path = workspace
    data = tmp_path / "corpus"
    assert run_cli(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
    lines = (data / "test.jsonl").read_text().splitlines(keepends=True)[:2]
    recs = [json.loads(line) for line in lines]
    if repeated == "ref":
        recs[1]["id"] = recs[0]["id"]
        (tmp_path / "ref.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    else:
        (tmp_path / "ref.jsonl").write_text(lines[0])
    hyp = "".join(json.dumps({"id": recs[0]["id"], "tokens": r["ref"]}) + "\n" for r in recs)
    (tmp_path / "hyp.jsonl").write_text(hyp)
    assert _eval(data, tmp_path / "ref.jsonl", tmp_path / "hyp.jsonl", tmp_path / "r.json") == 2
    assert "record 2" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("top", [[1], None])
def test_a_run_config_that_is_not_an_object_is_a_data_error(tmp_path, capsys, top):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(top))
    assert run_cli(["gen-data", "--config", str(p), "--out", str(tmp_path / "c")]) == 2
    assert "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["config", "vocab.json", "test.jsonl", "hyp"])
def test_a_file_that_is_not_utf8_is_a_data_error(workspace, capsys, target):
    tmp_path, cfg_path = workspace
    data = tmp_path / "corpus"
    assert run_cli(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("")
    path = {"config": tmp_path / "run.json", "hyp": hyp}.get(target, data / target)
    path.write_bytes(b"\xff" + path.read_bytes())
    if target == "config":
        code = run_cli(["gen-data", "--config", str(path), "--out", str(tmp_path / "c")])
    else:
        code = _eval(data, data / "test.jsonl", hyp, tmp_path / "r.json")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_path_through_a_regular_file_is_a_data_error(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = tmp_path / "corpus"
    assert run_cli(["gen-data", "--config", cfg_path, "--out", str(data)]) == 0
    afile = tmp_path / "afile"
    afile.write_text("")
    assert run_cli(["gen-data", "--config", str(afile / "c.json"),
                    "--out", str(tmp_path / "c")]) == 2
    assert _eval(data, data / "test.jsonl", data / "test.jsonl", afile / "x.json") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("stage, section, changes", [
    (1, "train_stage1", {"stage": "fusion"}),
    (2, "train_stage2", {"freeze_encoder": False}),
    (2, "train_stage2", {"stage": "audio_only"}),
])
def test_train_refuses_a_stage_that_breaks_the_recipe(workspace, capsys, stage, section,
                                                      changes):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(CONFIG, **{section: dict(CONFIG[section], **changes)})))
    assert run_cli(["train", "--config", str(p), "--stage", str(stage), "--data", data,
                    "--out", str(tmp_path / "run"), "--stage1-ckpt", "none.ckpt"]) == 2
    assert f"stage {stage} must use" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("train_stage1", "peak_lr", "x"), ("train_stage1", "peak_lr", -1.0),
    ("train_stage2", "seed", -1), ("train_stage2", "seed", True),
    ("train_stage1", "adam_beta1", 1.5), ("train_stage2", "lambda_ctc", "x"),
    ("train_stage2", "freeze_encoder", 1), ("train_stage1", "val_every", -5),
])
def test_bad_training_values_in_a_run_config_are_data_errors(tmp_path, capsys, section,
                                                               key, value):
    bad = dict(CONFIG, **{section: dict(CONFIG[section], **{key: value})})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert run_cli(["gen-data", "--config", str(p), "--out", str(tmp_path / "c")]) == 2
    assert key in capsys.readouterr().err


def test_audio_modality_equals_zeroed_visual_branch(workspace, capsys):
    tmp_path, cfg_path = workspace
    data, out = _pipeline(tmp_path, cfg_path)
    audio_hyp = str(tmp_path / "audio.jsonl")
    assert run_cli(["decode", "--ckpt", f"{out}/stage2.ckpt", "--corpus", data,
                    "--modality", "audio", "--out", audio_hyp]) == 0
    # zero the visual value/output projections, keep everything else
    model, opt, step, rng_state = load_checkpoint(f"{out}/stage2.ckpt")
    for block in model.decoder.blocks:
        block.cross.visual_branch.w_v.data[:] = 0.0
        block.cross.visual_branch.w_o.data[:] = 0.0
    ablated = str(tmp_path / "ablated.ckpt")
    save_checkpoint(ablated, model, opt, step)
    ablated_hyp = str(tmp_path / "ablated.jsonl")
    assert run_cli(["decode", "--ckpt", ablated, "--corpus", data,
                    "--modality", "audio+visual", "--out", ablated_hyp]) == 0
    assert open(audio_hyp, "rb").read() == open(ablated_hyp, "rb").read()
    capsys.readouterr()


def test_decode_is_float64_whether_or_not_the_checkpoint_has_optimizer_state(workspace,
                                                                              capsys):
    """Loading stage2.ckpt builds its Adam, which holds the trained parameters
    in float32; the decode still runs in float64, so it writes the hypotheses
    of the same parameters saved without optimizer state byte for byte."""
    tmp_path, cfg_path = workspace
    data, out = _pipeline(tmp_path, cfg_path)
    model, opt, _, _ = load_checkpoint(f"{out}/stage2.ckpt")
    assert model.decoder.out_w.data.dtype == np.float32 and opt is not None
    bare = str(tmp_path / "bare.ckpt")
    save_checkpoint(bare, model)
    hyps = []
    for ckpt in (f"{out}/stage2.ckpt", bare):
        hyps.append(str(tmp_path / f"{len(hyps)}.jsonl"))
        assert run_cli(["decode", "--ckpt", ckpt, "--corpus", data,
                        "--modality", "audio+visual", "--out", hyps[-1]]) == 0
    assert open(hyps[0], "rb").read() == open(hyps[1], "rb").read()
    capsys.readouterr()


def test_training_is_deterministic_end_to_end(workspace, capsys):
    tmp_path, cfg_path = workspace
    data = str(tmp_path / "corpus")
    assert run_cli(["gen-data", "--config", cfg_path, "--out", data]) == 0
    outputs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert run_cli(["train", "--config", cfg_path, "--stage", "1",
                        "--data", data, "--out", out]) == 0
        outputs.append(out)
    a, b = outputs
    assert open(f"{a}/stage1.ckpt", "rb").read() == open(f"{b}/stage1.ckpt", "rb").read()
    assert open(f"{a}/stage1.log").read() == open(f"{b}/stage1.log").read()
    capsys.readouterr()


def test_decode_missing_split_is_data_error(workspace, capsys):
    tmp_path, cfg_path = workspace
    data, out = _pipeline(tmp_path, cfg_path)
    assert run_cli(["decode", "--ckpt", f"{out}/stage2.ckpt", "--corpus", data,
                    "--split", "nonexistent", "--out", str(tmp_path / "h.jsonl")]) == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def decode_inputs(tmp_path_factory):
    """A corpus and a stage-1 checkpoint trained on it."""
    tmp_path = tmp_path_factory.mktemp("decode")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(CONFIG))
    data, out = tmp_path / "corpus", tmp_path / "run"
    assert run_cli(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert run_cli(["train", "--config", str(cfg_path), "--stage", "1",
                    "--data", str(data), "--out", str(out)]) == 0
    return data, out / "stage1.ckpt"


def _header_of_the_wrong_type(raw):
    return raw[:8] + struct.pack("<I", 2) + b"[]"


DECODE_INPUT_MUTATIONS = {
    "missing": None,
    "empty": lambda raw: b"",
    "truncated": lambda raw: raw[:-10],
    "garbage": lambda raw: b"\xff\xfe\x00 not the file \x80",
    "wrong type": lambda raw: b"[]\n",
}


@pytest.mark.parametrize("artifact, mutation", [
    (artifact, mutation) for artifact in ("checkpoint", "vocab.json", "test.jsonl")
    for mutation in DECODE_INPUT_MUTATIONS] + [(None, "beam 0")])
def test_decode_refuses_a_bad_input_and_keeps_its_output(decode_inputs, tmp_path, capsys,
                                                         artifact, mutation):
    """Each file decode reads, made missing, empty, truncated, garbage or of
    the wrong JSON type, ends in exit 2 with an error naming the file, and
    an earlier --out is left as it was; so does a usage error, with exit 1."""
    data, ckpt = tmp_path / "corpus", tmp_path / "model.ckpt"
    shutil.copytree(decode_inputs[0], data)
    shutil.copyfile(decode_inputs[1], ckpt)
    hyp, before = tmp_path / "hyp.jsonl", b'{"id": "kept", "log_prob": 0.0, "tokens": []}\n'
    hyp.write_bytes(before)
    beam = "0" if mutation == "beam 0" else "2"
    if artifact is not None:
        path = ckpt if artifact == "checkpoint" else data / artifact
        mutate = DECODE_INPUT_MUTATIONS[mutation]
        if artifact == "checkpoint" and mutation == "wrong type":
            mutate = _header_of_the_wrong_type
        raw = path.read_bytes()
        path.unlink()
        if mutate is not None:
            path.write_bytes(mutate(raw))
    code = run_cli(["decode", "--ckpt", str(ckpt), "--corpus", str(data), "--split", "test",
                    "--beam", beam, "--out", str(hyp)])
    err = capsys.readouterr().err
    assert code == (1 if artifact is None else 2)
    assert "Traceback" not in err
    if artifact is not None:
        assert err.startswith("error: ") and str(path) in err
    assert hyp.read_bytes() == before
    assert set(os.listdir(tmp_path)) <= {"corpus", "hyp.jsonl", "model.ckpt"}


def test_grad_check_command(capsys):
    assert run_cli(["grad-check", "--cases", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("args", [["--cases", "0"], ["--cases", "-3"], ["--seed", "-1"]])
def test_grad_check_refuses_arguments_it_cannot_use(capsys, args):
    assert run_cli(["grad-check"] + args) == 1
    assert args[0] in capsys.readouterr().err


@pytest.mark.parametrize("trained, other", [({"v": 6}, {"v": 8}), ({"v": 8}, {"v": 6}),
                                            ({"d_in": 4}, {"d_in": 5})])
def test_a_checkpoint_refuses_a_corpus_it_was_not_trained_on(tmp_path, capsys, trained, other):
    # More content ids than the checkpoint knows used to end in an IndexError
    # traceback; fewer decoded silently, its ids meaning other tokens.
    for name, changes in (("trained", trained), ("other", other)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(CONFIG, corpus=dict(CONFIG["corpus"], **changes))))
        assert run_cli(["gen-data", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    cfg, out, other_data = str(tmp_path / "trained.json"), tmp_path / "run", tmp_path / "other"
    assert run_cli(["train", "--config", cfg, "--stage", "1", "--data", str(tmp_path / "trained"),
                    "--out", str(out)]) == 0
    ckpt = str(out / "stage1.ckpt")
    capsys.readouterr()
    assert run_cli(["train", "--config", cfg, "--stage", "2", "--data", str(other_data),
                    "--out", str(out), "--stage1-ckpt", ckpt]) == 2
    assert f"checkpoint {ckpt} has (d_in, v_content, n_background)" in capsys.readouterr().err
    assert not (out / "stage2.ckpt").exists()
    hyp = tmp_path / "hyp.jsonl"
    assert run_cli(["decode", "--ckpt", ckpt, "--corpus", str(other_data), "--beam", "1",
                    "--out", str(hyp)]) == 2
    assert "but the corpus has" in capsys.readouterr().err
    assert not hyp.exists()


@pytest.mark.parametrize("reader, error", [
    (load_run_config, ConfigError), (read_vocab, CorpusFormatError),
    (lambda p: read_split(p, None), CorpusFormatError),
    (_read_hypotheses, CorpusFormatError),
], ids=["config", "vocab", "split", "hypotheses"])
def test_a_file_that_is_not_utf8_is_named_in_the_error(tmp_path, reader, error):
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b'\xff{"id": "a"}\n')
    with pytest.raises(error, match=re.escape(f"{path} is not UTF-8 text")):
        reader(str(path))


@pytest.mark.parametrize("kind, second", [
    ("split", '{"id": "b"}'),
    ("split", '{"id": "b", '),
    ("hypotheses", '{"id": "b", "tokens": [1.5]}'),
    ("hypotheses", '{"id": "a", "tokens": []}'),
], ids=["split-record", "split-json", "hypotheses-record", "hypotheses-repeat"])
def test_a_malformed_record_is_named_with_its_file(tmp_path, kind, second):
    path = tmp_path / f"{kind}.jsonl"
    if kind == "split":
        vocab, splits = gen_corpus(CorpusConfig(**CONFIG["corpus"]))
        write_split(str(path), splits["test"][:1])
        reader = lambda p: read_split(p, vocab)  # noqa: E731
    else:
        path.write_text(json.dumps({"id": "a", "tokens": [1]}) + "\n")
        reader = _read_hypotheses
    with open(path, "a", encoding="utf-8") as f:
        f.write(second + "\n")
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}, record 2: ")):
        reader(str(path))


@pytest.mark.parametrize("meta", [{"format_version": 2}, {"format_version": 1, "vocab": {}}],
                         ids=["version", "malformed"])
def test_a_bad_vocab_file_is_named_in_the_error(tmp_path, meta):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(meta))
    with pytest.raises(CorpusFormatError, match=re.escape(str(path))):
        read_vocab(str(path))


def test_python_m_mmasr_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mmasr.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "mmasr", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "gen-data" in done.stdout
