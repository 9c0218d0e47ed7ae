"""Command-line entry point: data generation, training, decoding,
evaluation, and gradient self-diagnostics.

Exit codes: 0 success, 1 usage error, 2 data/config error,
3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field

from .data import (
    CorpusConfig,
    gen_corpus,
    is_id,
    read_corpus,
    read_records,
    read_split,
    read_text,
    read_vocab,
    write_corpus,
    write_file,
)
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    CorpusFormatError,
    FeasibilityError,
    NumericError,
    RecipeError,
    ShapeError,
    VocabError,
)
from .metrics import align_edit, error_breakdown, wer
from .model import Model, ModelConfig, make_decoder_config
from .train import (
    TrainConfig,
    check_stage,
    decode_utterance,
    load_checkpoint,
    metrics_path,
    run_stage,
    save_checkpoint,
)

USAGE_ERROR, DATA_ERROR, RUNTIME_ERROR = 1, 2, 3

# OSError: a path that is missing, a directory, or through a regular file.
_DATA_ERRORS = (ConfigError, CorpusFormatError, VocabError, RecipeError,
                CheckpointError, OSError, UnicodeDecodeError)
_RUNTIME_ERRORS = (NumericError, ShapeError, ContractError, FeasibilityError)


@dataclass
class RunConfig:
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: dict = field(default_factory=dict)  # DecoderConfig fields, as keywords
    train_stage1: TrainConfig = field(default_factory=lambda: TrainConfig(stage="audio_only"))
    train_stage2: TrainConfig = field(
        default_factory=lambda: TrainConfig(stage="fusion", freeze_encoder=True))


def _strict(cls, d, section):
    if not isinstance(d, dict):
        raise ConfigError(f"section '{section}' must be an object")
    known = {f.name for f in dataclasses.fields(cls)} - {"vocab_size"}  # the corpus sets it
    unknown = sorted(set(d) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {', '.join(unknown)}")
    if cls is DecoderConfig:  # checked now, on the smallest corpus' vocabulary
        make_decoder_config(1, 0, **d)
        return d
    return cls(**d)


def load_run_config(path):
    try:
        raw = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    sections = {
        "corpus": CorpusConfig,
        "encoder": EncoderConfig,
        "decoder": DecoderConfig,
        "train_stage1": TrainConfig,
        "train_stage2": TrainConfig,
    }
    unknown = sorted(set(raw) - set(sections))
    if unknown:
        raise ConfigError(f"unknown top-level config section(s): {', '.join(unknown)}")
    kwargs = {name: _strict(cls, raw[name], name)
              for name, cls in sections.items() if name in raw}
    return RunConfig(**kwargs)


def cmd_gen_data(args):
    rc = load_run_config(args.config)
    vocab, splits = gen_corpus(rc.corpus)
    write_corpus(args.out, vocab, splits, rc.corpus)
    print(f"wrote corpus to {args.out} "
          f"({', '.join(f'{k}: {len(v)}' for k, v in splits.items())})")
    return 0


def _model_config(rc, vocab):
    dec = make_decoder_config(vocab.size, vocab.n_background, **rc.decoder)
    return ModelConfig(d_in=vocab.d_in, v_content=vocab.size,
                       n_background=vocab.n_background,
                       encoder=rc.encoder, decoder=dec)


def _check_corpus(model, vocab, ckpt):
    """A checkpoint reads only a corpus of its own frame width and vocabulary."""
    cfg = model.cfg
    trained = (cfg.d_in, cfg.v_content, cfg.n_background)
    found = (vocab.d_in, vocab.size, vocab.n_background)
    if trained != found:
        raise CheckpointError(
            f"checkpoint {ckpt} has (d_in, v_content, n_background) = {trained}, "
            f"but the corpus has {found}")


def cmd_train(args):
    rc = load_run_config(args.config)
    vocab, splits = read_corpus(args.data)
    if "train" not in splits:
        raise ConfigError(f"no train split found under {args.data}")
    cfg = rc.train_stage1 if args.stage == 1 else rc.train_stage2
    check_stage(cfg, args.stage)
    if args.stage == 1:
        model = Model.init(_model_config(rc, vocab), cfg.seed)
    else:
        if not args.stage1_ckpt:
            raise RecipeError("stage 2 requires --stage1-ckpt")
        if not os.path.exists(args.stage1_ckpt):
            raise RecipeError(f"stage-1 checkpoint not found: {args.stage1_ckpt}")
        model, _, _, _ = load_checkpoint(args.stage1_ckpt)
        _check_corpus(model, vocab, args.stage1_ckpt)
        model.reinit_fusion(cfg.seed)
    ckpt, log = (os.path.join(args.out, f"stage{args.stage}{ext}") for ext in (".ckpt", ".log"))
    opt, rng, _ = run_stage(model, splits["train"], cfg, log_path=log,
                            valid_utts=splits.get("valid"))
    save_checkpoint(ckpt, model, opt, cfg.max_steps, rng)
    print(f"wrote {ckpt}")
    return 0


def cmd_decode(args):
    model, _, _, _ = load_checkpoint(args.ckpt)
    vocab = read_vocab(os.path.join(args.corpus, "vocab.json"))
    split = os.path.join(args.corpus, f"{args.split}.jsonl")
    utts = read_split(split, vocab)
    if not utts:
        raise ConfigError(f"split {split} holds no utterances")
    _check_corpus(model, vocab, args.ckpt)
    use_visual = args.modality == "audio+visual"
    hyps, timings = [], []
    for utt in sorted(utts, key=lambda u: u.uid):
        start = time.perf_counter()
        hyp = decode_utterance(model, utt, use_visual, beam=args.beam)
        timings.append({"id": utt.uid, "ms": (time.perf_counter() - start) * 1e3,
                        "tokens": len(hyp.tokens), "hit_max_len": hyp.hit_max_len,
                        "steps": hyp.steps, "finished": hyp.finished})
        hyps.append({"id": utt.uid, "tokens": hyp.tokens, "log_prob": hyp.log_prob})
    for path, records in ((args.out, hyps), (metrics_path(args.out), timings)):
        write_file(path, (json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    print(f"wrote hypotheses to {args.out}")
    return 0


def _hypothesis_tokens(rec):
    tokens = rec.get("tokens")
    if not isinstance(tokens, list) or not all(is_id(t) and t >= 0 for t in tokens):
        raise CorpusFormatError(f"hypothesis tokens are not integers >= 0: {tokens!r}")
    return tokens


def _read_hypotheses(path):
    return read_records(path, _hypothesis_tokens)


def cmd_eval(args):
    vocab = read_vocab(args.vocab)
    refs = read_split(args.ref, vocab)
    if not refs:
        raise ConfigError(f"reference split {args.ref} holds no utterances")
    hyps = _read_hypotheses(args.hyp)
    per_utt, paths = [], []
    totals = None
    for utt in refs:
        if utt.uid not in hyps:
            raise ConfigError(f"no hypothesis for utterance '{utt.uid}'")
        counts, path = align_edit(utt.ref, hyps[utt.uid])
        paths.append(path)
        totals = counts if totals is None else totals + counts
        per_utt.append({"id": utt.uid, "S": counts.substitutions,
                        "D": counts.deletions, "I": counts.insertions,
                        "N": counts.ref_len, "wer": wer(counts)})
    breakdown = error_breakdown(paths, vocab)
    report = {
        "overall": {"S": totals.substitutions, "D": totals.deletions,
                    "I": totals.insertions, "N": totals.ref_len,
                    "wer": wer(totals)},
        "breakdown": breakdown.as_dict(),
        "utterances": per_utt,
    }
    write_file(args.out, [json.dumps(report, sort_keys=True, indent=1), "\n"])
    o = report["overall"]
    print(f"S={o['S']} D={o['D']} I={o['I']} N={o['N']} WER={o['wer']:.4f}")
    return 0


def cmd_grad_check(args):
    from .gradsuite import run_suite

    results = run_suite(n_cases=args.cases, seed=args.seed)
    ok = True
    for name, err, passed in results:
        print(f"{name}: max_rel_err={err:.3e} {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else RUNTIME_ERROR


def _int_at_least(minimum):
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value
    return parse


def build_parser():
    p = argparse.ArgumentParser(prog="mmasr",
                                description="Desk-scale multimodal ASR pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run one training stage")
    t.add_argument("--config", required=True)
    t.add_argument("--stage", type=int, choices=(1, 2), required=True)
    t.add_argument("--data", required=True, help="corpus directory")
    t.add_argument("--out", required=True)
    t.add_argument("--stage1-ckpt", default=None)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("decode", help="decode a corpus split")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--corpus", required=True)
    d.add_argument("--split", default="test")
    d.add_argument("--beam", type=_int_at_least(1), default=4)
    d.add_argument("--modality", choices=("audio", "audio+visual"),
                   default="audio+visual")
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_decode)

    e = sub.add_parser("eval", help="score hypotheses against references")
    e.add_argument("--ref", required=True, help="reference split .jsonl")
    e.add_argument("--hyp", required=True, help="hypotheses .jsonl")
    e.add_argument("--vocab", required=True, help="corpus vocab.json")
    e.add_argument("--out", required=True, help="report .json")
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("grad-check", help="run the gradient-check suite")
    c.add_argument("--cases", type=_int_at_least(1), default=5)
    c.add_argument("--seed", type=_int_at_least(0), default=0)
    c.set_defaults(func=cmd_grad_check)
    return p


def run_cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else USAGE_ERROR
    try:
        return args.func(args)
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR
    except _RUNTIME_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_ERROR


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
