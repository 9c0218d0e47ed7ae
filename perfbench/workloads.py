"""The three workloads: set-up, one timed operation, and output checks.

Every call into mmasr goes through a module attribute (``train.train_step``,
not an imported name), so that the traced run's wrappers see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import recipe
from tracing import OUTSIDE
from mmasr import data, decoder, encoder, metrics, train, visual
from mmasr import tensor as tn
from mmasr.model import Model

MIN_OPS = 100  # p90 needs ten samples beyond it
LOSS_STEPS = slice(0, 100)  # train loss: the first 100 steps, whatever the speed
N_SCORED = 300  # decode quality: the first 300 utterances of the stream
BEAM = 4
SCORE_TOLERANCE = 1e-6


@dataclass
class Run:
    """Outcome of a sequence of operations."""

    times_ms: list = field(default_factory=list)  # successful operations only
    results: list = field(default_factory=list)  # comparable value or None
    failures: dict = field(default_factory=dict)  # op index -> problems

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return len(self.failures)

    def fail(self, index, problems):
        self.failures.setdefault(index, []).extend(problems)


def run_ops(workload, state, seconds, min_ops, max_ops=None, tracer=None,
            max_spans=None, run=None):
    """Closed loop, one operation at a time, until ``run`` (a new one by
    default) holds at least ``min_ops`` operations and then until
    ``seconds`` have passed, it holds ``max_ops`` operations or the tracer
    holds ``max_spans`` spans. Only the call into mmasr is timed; drawing
    inputs and checking outputs are not."""
    run = Run() if run is None else run
    if tracer is not None:
        tracer.current_op = OUTSIDE
    deadline = time.perf_counter() + seconds
    i = run.attempted
    while (max_ops is None or i < max_ops) and (
            i < min_ops or (time.perf_counter() < deadline
                            and (max_spans is None or len(tracer.code) < max_spans))):
        call = workload.prepare(state, i)
        if tracer is not None:
            tracer.current_op = i
        try:
            t0 = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        else:
            problems = None
        finally:
            if tracer is not None:
                tracer.current_op = OUTSIDE
        if problems is None:
            problems = workload.check(state, result)
            run.times_ms.append(elapsed * 1e3)
            result = workload.value(result)
        run.results.append(result)
        if problems:
            run.fail(i, problems)
        i += 1
    return run


class TrainWorkload:
    """Training steps as ``train.run_stage`` takes them: batches of 8 drawn
    i.i.d. from the training pool, with visual-dropout draws in stage 2."""

    def __init__(self, stage):
        self.stage = stage
        self.op_name = "train.train_step"
        self.min_ops = MIN_OPS

    def setup(self, seed):
        if self.stage == "audio_only":
            corpus_cfg = recipe.corpus_config(seed)
            _, splits = data.gen_corpus(corpus_cfg)
            pool = splits["train"]
            cfg = recipe.stage1_config()
            model = Model.init(recipe.model_config(corpus_cfg), recipe.MODEL_SEED)
        else:
            # The fixture's vocabulary; the seed picks the utterances.
            vocab = data.build_vocab(recipe.corpus_config())
            stream = recipe.corpus_config(seed)
            pool = [data.gen_utterance(stream, vocab, "train", i)
                    for i in range(stream.n_train)]
            cfg = recipe.stage2_config()
            model = recipe.load_fixture(recipe.STAGE1)
            model.reinit_fusion(cfg.seed)  # as `mmasr train --stage 2` does
        # Warm up on a throwaway model: the model under test starts its
        # first timed step exactly as run_stage would start it.
        scratch = Model.init(model.cfg, recipe.MODEL_SEED)
        train.train_step(scratch, warm_up_utterances(8), cfg, _adam(scratch, cfg))
        return TrainState(model=model, cfg=cfg, pool=pool, opt=_adam(model, cfg),
                          rng=np.random.default_rng(np.random.SeedSequence([cfg.seed, 3])))

    def prepare(self, state, i):
        cfg = state.cfg
        idx = state.rng.integers(0, len(state.pool), cfg.batch_size)
        flags = None
        if cfg.stage == "fusion":
            draws = state.rng.random(cfg.batch_size)
            flags = [d >= cfg.p_visual_dropout for d in draws]
        state.draws.extend(int(j) for j in idx)
        batch = [state.pool[int(j)] for j in idx]
        return lambda: train.train_step(state.model, batch, cfg, state.opt,
                                        use_visual_flags=flags)

    def check(self, state, report):
        problems = [f"{k} is {report[k]}" for k in ("loss_total", "loss_ctc", "loss_att")
                    if not math.isfinite(report[k])]
        params = state.model.named_parameters()
        for name in state.opt.trainable:
            p = params[name].data
            if not (np.all(np.isfinite(p))
                    and np.array_equal(p.astype("<f4").astype(np.float64), p)):
                problems.append(f"parameter {name} is not finite float32 after Adam.step")
        return problems

    def value(self, report):
        return (report["loss_total"], report["loss_ctc"], report["loss_att"],
                report["skipped"])

    def score(self, state, run):
        """(train_loss, human-readable extras, per-op problems, run problems)."""
        losses = [r[0] if r is not None else math.nan for r in run.results[LOSS_STEPS]]
        return (math.fsum(losses) / len(losses) if losses else math.nan), {}, {}, []

    def repeat_share(self, state):
        return 1.0 - len(set(state.draws)) / len(state.draws)


@dataclass
class TrainState:
    model: object
    cfg: object
    pool: list
    opt: object
    rng: object
    draws: list = field(default_factory=list)


def warm_up_utterances(n):
    """The same warm-up inputs for every seed, so that set-up time does not
    depend on which utterances a seed draws."""
    cfg = recipe.corpus_config()
    vocab = data.build_vocab(cfg)
    return [data.gen_utterance(cfg, vocab, "valid", i) for i in range(n)]


def _adam(model, cfg):
    return train.Adam(model.named_parameters(), train.trainable_names(model, cfg),
                      cfg.peak_lr, cfg.warmup, cfg.adam_beta1, cfg.adam_beta2,
                      cfg.adam_eps)


class DecodeWorkload:
    """Beam-4 audio+visual decoding of a stream of held-out utterances with
    the stage-2 fixture; utterances never repeat."""

    def __init__(self):
        self.op_name = "train.decode_utterance"
        self.min_ops = N_SCORED

    def setup(self, seed):
        vocab = data.build_vocab(recipe.corpus_config())
        stream = recipe.corpus_config(seed)
        pool = [data.gen_utterance(stream, vocab, "test", i) for i in range(stream.n_test)]
        model = recipe.load_fixture(recipe.STAGE2)
        train.decode_utterance(model, warm_up_utterances(1)[0], True, beam=BEAM)
        return DecodeState(model=model, vocab=vocab, stream=stream, pool=pool)

    def prepare(self, state, i):
        utt = state.utterance(i)
        return lambda: train.decode_utterance(state.model, utt, True, beam=BEAM)

    def check(self, state, hyp):
        dec = state.model.cfg.decoder
        problems = []
        bad = [t for t in hyp.tokens if not 0 <= t < dec.vocab_size]
        if bad:
            problems.append(f"token ids {bad[:3]} outside the vocabulary")
        if dec.bos_id in hyp.tokens or dec.eos_id in hyp.tokens:
            problems.append("BOS or EOS inside the hypothesis")
        return problems

    def value(self, hyp):
        return (tuple(hyp.tokens), hyp.log_prob, hyp.normalized)

    def score(self, state, run):
        """Over the first N_SCORED utterances: the mean length-normalized
        negative log-prob of the chosen hypotheses (what the beam search
        minimizes), their WER, and a check that each beam score is the
        model's own score of its hypothesis. Over every decoded utterance:
        the degenerate-decode gate."""
        counts = metrics.EditCounts(0, 0, 0, 0)
        losses, op_problems = [], {}
        for i, result in enumerate(run.results[:N_SCORED]):
            if result is None:
                continue
            utt = state.utterance(i)
            tokens, log_prob, normalized = result
            losses.append(-normalized)
            counts = counts + metrics.align_edit(utt.ref, tokens)[0]
            scores = _sequence_log_probs(state.model, utt, tokens)
            if min(abs(s - log_prob) for s in scores) > SCORE_TOLERANCE:
                op_problems[i] = [f"beam score {log_prob} is not the model's "
                                  f"score {scores} of the hypothesis"]
        decoded = [(state.utterance(i), r) for i, r in enumerate(run.results)
                   if r is not None]
        hyp_len = np.mean([len(r[0]) for _, r in decoded])
        ref_len = np.mean([len(u.ref) for u, _ in decoded])
        run_problems = []
        if hyp_len < 0.5 * ref_len:
            run_problems.append(f"degenerate decode: mean hypothesis length {hyp_len:.2f} "
                                f"is below half the mean reference length {ref_len:.2f}")
        extras = {"decode_wer": metrics.wer(counts) if counts.ref_len else math.nan,
                  "mean_hyp_len": float(hyp_len), "mean_ref_len": float(ref_len)}
        loss = math.fsum(losses) / len(losses) if losses else math.nan
        return loss, extras, op_problems, run_problems

    def repeat_share(self, state):
        return 0.0


@dataclass
class DecodeState:
    model: object
    vocab: object
    stream: object
    pool: list

    def utterance(self, i):
        while len(self.pool) <= i:
            self.pool.append(data.gen_utterance(self.stream, self.vocab, "test",
                                                len(self.pool)))
        return self.pool[i]


def _sequence_log_probs(model, utt, tokens):
    """Teacher-forced log-prob of ``tokens`` without and with a final EOS."""
    dec = model.cfg.decoder
    with tn.no_grad():
        feats = encoder.encode_audio(np.asarray(utt.audio, dtype=np.float64),
                                     model.cfg.encoder, model.encoder)
        vis = visual.encode_visual(utt.ocr, model.visual, frozen=True)
        logits = decoder.decoder_forward([dec.bos_id] + list(tokens), feats, vis,
                                         dec, model.decoder)
        logp = tn.log_softmax_rows(logits).data
    body = float(sum(logp[j, t] for j, t in enumerate(tokens)))
    return body, body + float(logp[len(tokens), dec.eos_id])


WORKLOADS = {
    "train-audio": TrainWorkload("audio_only"),
    "train-fusion": TrainWorkload("fusion"),
    "decode-beam4": DecodeWorkload(),
}
