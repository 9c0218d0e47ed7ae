"""Joint CTC+attention training with the two-stage recipe, Adam with
inverse-sqrt warmup, and bit-exact checkpointing.

Stage 1 trains the encoder, CTC head and an audio-only decoding path;
stage 2 re-initializes the fusion parameters, freezes the speech encoder,
and trains the fusion decoder plus the visual encoder.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import struct
import time

import numpy as np

from . import ctc as ctc_mod
from . import tensor as tn
from .data import read_text, write_file
from .decoder import beam_decode, decoder_forward
from .encoder import AudioFeatures, ctc_head, encode_audio, subsampled_length
from .errors import (
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
    check_int,
    check_real,
)
from .layers import pad_batch
from .metrics import EditCounts, align_edit, wer
from .model import Model, ModelConfig
from .visual import encode_visual

STAGES = ("audio_only", "fusion")

CKPT_MAGIC = b"MMASRCK1"
CKPT_VERSION = 1
# The optimizer fields a checkpoint header stores: Adam's arguments.
CKPT_ADAM_FIELDS = ("trainable", "peak_lr", "warmup", "beta1", "beta2", "eps", "t")


@dataclasses.dataclass
class TrainConfig:
    stage: str = "audio_only"
    lambda_ctc: float = 0.3
    peak_lr: float = 4e-3
    warmup: int = 100
    batch_size: int = 8
    max_steps: int = 500
    seed: int = 0
    freeze_encoder: bool = False
    label_smoothing: float = 0.1
    p_visual_dropout: float = 0.15
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-9
    val_every: int = 0
    val_subset: int = 0  # 0 = all validation utterances

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, got {self.stage!r}")
        check_real("lambda_ctc", self.lambda_ctc, 0, 1)
        check_real("peak_lr", self.peak_lr, 0, math.inf)
        check_real("label_smoothing", self.label_smoothing, 0, 1, open_high=True)
        check_real("p_visual_dropout", self.p_visual_dropout, 0, 1)
        check_real("adam_beta1", self.adam_beta1, 0, 1, open_high=True)
        check_real("adam_beta2", self.adam_beta2, 0, 1, open_high=True)
        check_real("adam_eps", self.adam_eps, 0, math.inf, open_low=True)
        for name, minimum in (("warmup", 0), ("batch_size", 1), ("max_steps", 0),
                              ("seed", 0), ("val_every", 0), ("val_subset", 0)):
            check_int(name, getattr(self, name), minimum)
        if not isinstance(self.freeze_encoder, bool):
            raise ConfigError(f"freeze_encoder must be true or false, got {self.freeze_encoder!r}")


class Adam:
    """Adam with Noam-style inverse-sqrt warmup.

    The trainable parameters live in one contiguous float32 arena, in
    ``trainable`` order: each parameter's ``data`` is a float32 view of it,
    so the model trains in float32. The moments are flat float32 arrays,
    and ``m`` and ``v`` map each name to its view. A step updates the
    moments and the arena in place, in float32, with the bias corrections
    folded into one step size (Kingma & Ba 2015, "Adam", section 2's
    efficient form; float32 master weights as in Micikevicius et al. 2018,
    "Mixed Precision Training"). The gradients' sum of squares is taken in
    float64, for ``grad_norm`` and the non-finite check.
    """

    def __init__(self, params, trainable, peak_lr, warmup,
                 beta1=0.9, beta2=0.98, eps=1e-9, t=0):
        self.params = params  # name -> Tensor
        self.trainable = list(trainable)
        unknown = [n for n in self.trainable if n not in params]
        if unknown:
            raise ConfigError(f"unknown trainable parameters: {unknown[:3]}")
        tensors = [params[n] for n in self.trainable]
        if len({id(p) for p in tensors}) != len(tensors):
            raise ContractError("two trainable names share one parameter tensor")
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = t
        self.grad_norm = math.nan  # of the gradients of the last step
        size = sum(p.data.size for p in tensors)
        self.arena = np.empty(size, dtype=np.float32)
        self._m = np.zeros(size, dtype=np.float32)
        self._v = np.zeros(size, dtype=np.float32)
        self._grads = np.empty(size, dtype=np.float32)
        self._tmp = np.empty(size, dtype=np.float32)
        self.m, self.v = {}, {}
        self._slots = []  # (name, tensor, its arena view, its gradient view)
        start = 0
        for name, p in zip(self.trainable, tensors):
            span, shape = slice(start, start + p.data.size), p.data.shape
            view = self.arena[span].reshape(shape)
            view[...] = p.data
            p.data = view
            self.m[name] = self._m[span].reshape(shape)
            self.v[name] = self._v[span].reshape(shape)
            self._slots.append((name, p, view, self._grads[span].reshape(shape)))
            start = span.stop

    def lr(self, t):
        if self.warmup > 0:
            return self.peak_lr * min(t / self.warmup, math.sqrt(self.warmup / t))
        return self.peak_lr * min(1.0, 1.0 / math.sqrt(t))

    def step(self):
        """Update every trainable parameter; returns the learning rate.

        A non-finite gradient raises NumericError naming its parameter, and
        leaves the parameters, the moments and ``t`` as they were. The
        gradients' global L2 norm is kept in ``grad_norm``. A parameter whose
        ``data`` was rebound since the last step is copied back into the
        arena first.
        """
        for _, p, view, grad in self._slots:
            if p.data is not view:
                view[...] = p.data
                p.data = view
            grad[...] = 0.0 if p.grad is None else p.grad
        # In float64: a float32 gradient of 1e20 squares to a finite sum.
        squares = float(np.einsum("i,i->", self._grads, self._grads, dtype=np.float64))
        if not math.isfinite(squares):
            name = next(n for n, _, _, grad in self._slots if not np.isfinite(grad).all())
            raise NumericError(f"gradient of {name} is not finite")
        self.grad_norm = math.sqrt(squares)
        self.t += 1
        lr = self.lr(self.t)
        b1, b2 = self.beta1, self.beta2
        root_bc2 = math.sqrt(1.0 - b2**self.t)
        step_size = lr * root_bc2 / (1.0 - b1**self.t)
        # In place over the whole arena, in float32, in this order:
        #   m = b1 * m + (1 - b1) * g;  v = b2 * v + ((1 - b2) * g) * g
        #   p = p - (m / (sqrt(v) + eps * root_bc2)) * step_size
        # (1 - b2) * g is taken first, so a finite g of up to ~1e20 gives a
        # finite v.
        g, m, v, x = self._grads, self._m, self._v, self._tmp
        m *= b1
        np.multiply(g, 1.0 - b1, out=x)
        m += x
        v *= b2
        np.multiply(g, 1.0 - b2, out=x)
        x *= g
        v += x
        np.sqrt(v, out=x)
        x += self.eps * root_bc2
        np.divide(m, x, out=x)
        x *= step_size
        self.arena -= x
        return lr

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def trainable_names(model, cfg):
    """The names of the parameters ``cfg`` trains, in ``named_parameters``
    order: with ``freeze_encoder`` not the speech parameters, and in stage 1
    not the fusion parameters."""
    untrained = model.speech_parameters() if cfg.freeze_encoder else []
    if cfg.stage == "audio_only":
        untrained += model.fusion_parameters()
    untrained = {id(t) for t in untrained}
    return [n for n, t in model.named_parameters().items() if id(t) not in untrained]


def check_stage(cfg, n):
    """The two-stage recipe: stage 1 trains audio-only, and stage 2 trains
    the fusion parameters with the speech encoder frozen."""
    if n == 1 and cfg.stage != "audio_only":
        raise RecipeError("stage 1 must use stage='audio_only'")
    if n == 2 and (cfg.stage != "fusion" or not cfg.freeze_encoder):
        raise RecipeError("stage 2 must use stage='fusion' with freeze_encoder")


def label_smoothed_ce(logits, targets, smoothing, lengths=None):
    """Label-smoothed cross-entropy, the mean over each sequence's positions
    averaged over the sequences.

    ``logits`` is [L x V] with ``targets`` [L], or a padded batch
    [B x L x V] with targets [B x L] and each row's length n_b in
    ``lengths``: a valid position of row b weighs 1/n_b, a padded one 0.
    """
    targets = np.asarray(targets, dtype=np.int64)
    vocab = logits.shape[-1]
    rows = targets.reshape(-1, targets.shape[-1])  # [B x L]
    n = np.full(len(rows), rows.shape[1]) if lengths is None else np.asarray(lengths)
    per_position = (np.arange(rows.shape[1]) < n[:, None]) / (n[:, None] * len(rows))
    weights = np.full(rows.shape + (vocab,), smoothing / vocab)
    np.put_along_axis(weights, rows[..., None], 1.0 - smoothing + smoothing / vocab, -1)
    weights *= -per_position[..., None]
    picked = tn.mul(tn.log_softmax_rows(logits), weights.reshape(logits.shape))
    return tn.sum_all(picked)


class SpeechCache:
    """Stage 2's frozen speech path, run once per distinct training utterance:
    its features from encoding it alone (so no entry depends on a batch),
    stored as float32, and its CTC loss, keyed by a digest of its audio and
    reference. Each frozen parameter gets a read-only array of its own, and
    rebinding any of them (as an Adam over them does) drops every entry."""

    def __init__(self):
        self.entries = {}  # digest -> (features [t_len x d_model] <f4, CTC loss)
        self.arrays = []  # the frozen parameters' arrays the entries were made with
        self.encoded = 0  # utterances run through the encoder so far

    def batch(self, model, utts):
        """(AudioFeatures of ``utts`` zero-padded to a float32 constant
        [B x t_len x d_model], their mean CTC loss as a numpy scalar)."""
        frozen = model.speech_parameters()
        if (len(frozen) != len(self.arrays)
                or any(t.data is not a for t, a in zip(frozen, self.arrays))):
            self.entries.clear()
            for t in frozen:
                t.data = t.data.copy()
                t.data.setflags(write=False)
            self.arrays = [t.data for t in frozen]
        found = []
        for utt in utts:
            audio = np.asarray(utt.audio)
            digest = hashlib.blake2b(f"{audio.dtype.str}{audio.shape}".encode(), digest_size=16)
            digest.update(audio.tobytes())
            digest.update(np.asarray(utt.ref, dtype="<i8").tobytes())
            key = digest.digest()
            if key not in self.entries:
                with tn.no_grad():
                    feats = encode_audio(audio.astype(np.float64), model.cfg.encoder,
                                         model.encoder)
                    loss = ctc_mod.ctc_loss(ctc_head(feats, model.ctc_w), utt.ref).item()
                self.entries[key] = (feats.frames.data.astype("<f4"), loss)
                self.encoded += 1
            found.append(self.entries[key])
        frames, lengths = pad_batch([f for f, _ in found], dtype=np.float32)
        loss = np.sum(np.array([c for _, c in found])) * (1.0 / len(utts))
        return AudioFeatures(frames, lengths), np.asarray(loss)


def utterance_losses(model, batch, use_visual_flags, cfg):
    """Batch-mean CTC and attention losses of the utterances in ``batch``,
    built as one zero-padded, masked graph.

    An utterance whose subsampled frame count cannot align its reference is
    skipped. Returns (CTC loss, attention loss, number skipped); the losses
    are None when every utterance was skipped. With ``freeze_encoder`` the
    CTC loss and the audio features are numpy constants from the model's
    ``SpeechCache``, so backward computes no gradient for them.
    """
    enc_cfg, dec_cfg = model.cfg.encoder, model.cfg.decoder
    kept = []
    for utt, use_visual in zip(batch, use_visual_flags):
        try:
            ctc_mod.check_feasible(subsampled_length(len(utt.audio), enc_cfg.subsample_factor),
                                   utt.ref)
        except FeasibilityError:
            continue
        kept.append((utt, use_visual))
    skipped = len(batch) - len(kept)
    if not kept:
        return None, None, skipped
    utts = [utt for utt, _ in kept]
    if cfg.freeze_encoder:
        if model.speech_cache is None:
            model.speech_cache = SpeechCache()
        feats, loss_ctc = model.speech_cache.batch(model, utts)
    else:
        frames, raw_lengths = pad_batch([utt.audio for utt in utts],
                                        dtype=model.encoder.in_proj.data.dtype)
        feats = encode_audio(frames, enc_cfg, model.encoder, raw_lengths)
        per_utt = ctc_mod.ctc_loss(ctc_head(feats, model.ctc_w),
                                   [utt.ref for utt in utts], feats.lengths)
        loss_ctc = tn.scale(tn.sum_all(per_utt), 1.0 / len(utts))
    ocr, ocr_lengths = pad_batch([utt.ocr if use_visual else [] for utt, use_visual in kept])
    vis = encode_visual(ocr, model.visual, lengths=ocr_lengths)
    targets_in, n_in = pad_batch([[dec_cfg.bos_id] + list(utt.ref) for utt in utts])
    targets_out, _ = pad_batch([list(utt.ref) + [dec_cfg.eos_id] for utt in utts])
    logits = decoder_forward(targets_in, feats, vis, dec_cfg, model.decoder, lengths=n_in)
    loss_att = label_smoothed_ce(logits, targets_out, cfg.label_smoothing, n_in)
    return loss_ctc, loss_att, skipped


def train_step(model, batch, cfg, opt, use_visual_flags=None):
    """One optimizer update on a batch, from one graph. Infeasible
    utterances are skipped (counted, never fatal); a non-finite loss or
    gradient raises NumericError before any parameter changes. Returns the
    loss report for the step."""
    if not batch:
        raise ConfigError("empty batch")
    if use_visual_flags is None:
        use_visual_flags = [cfg.stage == "fusion"] * len(batch)
    encoded_before = model.speech_cache.encoded if model.speech_cache else 0
    mean_ctc, mean_att, skipped = utterance_losses(model, batch, use_visual_flags, cfg)
    # Utterances run through the speech encoder: the cache misses when frozen.
    encoded = (model.speech_cache.encoded - encoded_before
               if cfg.freeze_encoder and model.speech_cache else len(batch) - skipped)
    if mean_ctc is None:
        return {"loss_total": math.nan, "loss_ctc": math.nan, "loss_att": math.nan,
                "lr": opt.lr(opt.t + 1), "skipped": skipped, "encoded": encoded,
                "grad_norm": math.nan}
    total = tn.add(tn.scale(mean_ctc, cfg.lambda_ctc),
                   tn.scale(mean_att, 1.0 - cfg.lambda_ctc))
    if not math.isfinite(total.item()):
        raise NumericError(f"training loss is not finite: {total.item()}")
    opt.zero_grad()
    total.backward()
    lr = opt.step()
    opt.zero_grad()
    return {"loss_total": total.item(), "loss_ctc": mean_ctc.item(),
            "loss_att": mean_att.item(), "lr": lr, "skipped": skipped,
            "encoded": encoded, "grad_norm": opt.grad_norm}


def decode_utterance(model, utt, use_visual, beam=4):
    """Beam-decode one utterance; the reference is never read.

    A hypothesis ends after at most ``t_len + 1`` steps: CTC feasibility
    bounds a transcript by the encoder length, plus one EOS.
    """
    with tn.no_grad():
        feats = encode_audio(np.asarray(utt.audio, dtype=np.float64),
                             model.cfg.encoder, model.encoder)
        vis = encode_visual(utt.ocr if use_visual else [], model.visual, frozen=True)
        return beam_decode(feats, vis, model.cfg.decoder, model.decoder, beam=beam,
                           max_len=feats.t_len + 1)


def validation_counts(model, utts, use_visual, limit=0):
    """Greedy edit counts summed over the first ``limit`` utterances (0: all)."""
    if limit:
        utts = utts[:limit]
    total = EditCounts(0, 0, 0, 0)
    for utt in utts:
        hyp = decode_utterance(model, utt, use_visual, beam=1)
        counts, _ = align_edit(utt.ref, hyp.tokens)
        total = total + counts
    return total


def metrics_path(log_path):
    """Where ``run_stage`` writes the telemetry of the stage logged to
    ``log_path``: stageN.log -> stageN.metrics.jsonl."""
    return os.path.splitext(log_path)[0] + ".metrics.jsonl"


def _json_number(x):
    # Strict JSON has no NaN or infinity.
    return x if math.isfinite(x) else None


def _open_log(path, start_step):
    """``path``, rewritten to hold only its records of steps up to
    ``start_step`` (none from step 0), open for appending; its directory is
    made if missing. A line that is not a JSON object with an integer step
    raises CorpusFormatError."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    kept = []
    lines = read_text(path).splitlines() if start_step and os.path.exists(path) else []
    for i, line in enumerate(lines, start=1):
        try:
            step = json.loads(line)["step"]
        except (ValueError, TypeError, KeyError):
            step = None
        if type(step) is not int:
            raise CorpusFormatError(f"{path}, line {i}: not a JSON object with an integer step")
        if step <= start_step:
            kept.append(line + "\n")
    write_file(path, kept)
    return open(path, "a", encoding="utf-8")


def run_stage(model, train_utts, cfg, log_path=None, valid_utts=None,
              opt=None, rng=None, start_step=0):
    """Train for cfg.max_steps steps; batches are sampled i.i.d. so resuming
    from (optimizer state, rng state, step) is bit-exact.

    With ``log_path``, each step appends its losses and learning rate to
    that log, which is deterministic, and its timing to ``metrics_path(
    log_path)``: wall time, skipped utterances, utterances run through the
    speech encoder, gradient norm and input frames per second. Both files
    first keep only their records of steps up to ``start_step``, so a run
    from step 0 starts them afresh and a resumed run logs each step once.
    An empty train split, or an empty valid split to validate on, is a
    ConfigError before the first step."""
    if not train_utts:
        raise ConfigError("the train split holds no utterances")
    if cfg.val_every and valid_utts is not None and not valid_utts:
        raise ConfigError("the valid split holds no utterances")
    if opt is None:
        opt = Adam(model.named_parameters(), trainable_names(model, cfg),
                   cfg.peak_lr, cfg.warmup, cfg.adam_beta1, cfg.adam_beta2,
                   cfg.adam_eps, t=start_step)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    n = len(train_utts)
    history = []
    with contextlib.ExitStack() as files:
        log_f = metrics_f = None
        if log_path:
            log_f, metrics_f = (files.enter_context(_open_log(path, start_step))
                                for path in (log_path, metrics_path(log_path)))
        for step in range(start_step + 1, cfg.max_steps + 1):
            idx = rng.integers(0, n, cfg.batch_size)
            flags = None
            if cfg.stage == "fusion":
                draws = rng.random(cfg.batch_size)
                flags = [d >= cfg.p_visual_dropout for d in draws]
            batch = [train_utts[int(i)] for i in idx]
            start = time.perf_counter()
            report = train_step(model, batch, cfg, opt, use_visual_flags=flags)
            wall = time.perf_counter() - start
            # A step whose utterances were all skipped has no loss: null.
            record = {"step": step, "lr": report["lr"]}
            for key in ("loss_total", "loss_ctc", "loss_att"):
                record[key] = _json_number(report[key])
            history.append(record)
            if log_f:
                log_f.write(json.dumps(record, sort_keys=True) + "\n")
                frames = sum(len(utt.audio) for utt in batch)
                metrics_f.write(json.dumps({
                    "step": step, "wall_ms": wall * 1e3, "skipped": report["skipped"],
                    "encoded": report["encoded"],
                    "grad_norm": _json_number(report["grad_norm"]),
                    "frames_per_s": frames / wall}, sort_keys=True) + "\n")
            if (cfg.val_every and valid_utts is not None
                    and step % cfg.val_every == 0):
                c = validation_counts(model, valid_utts,
                                      use_visual=(cfg.stage == "fusion"),
                                      limit=cfg.val_subset)
                vrec = {"step": step, "valid_wer": wer(c), "S": c.substitutions,
                        "D": c.deletions, "I": c.insertions, "N": c.ref_len}
                history.append(vrec)
                if log_f:
                    log_f.write(json.dumps(vrec, sort_keys=True) + "\n")
    return opt, rng, history


def run_recipe(model_cfg, splits, cfg_stage1, cfg_stage2, out_dir,
               model_seed=0):
    """Audio-only pretraining, then fusion training with a frozen encoder."""
    check_stage(cfg_stage1, 1)
    check_stage(cfg_stage2, 2)
    model = Model.init(model_cfg, model_seed)
    opt, rng, hist1 = run_stage(model, splits["train"], cfg_stage1,
                                log_path=os.path.join(out_dir, "stage1.log"),
                                valid_utts=splits.get("valid"))
    save_checkpoint(os.path.join(out_dir, "stage1.ckpt"), model, opt,
                    cfg_stage1.max_steps, rng)
    model.reinit_fusion(cfg_stage2.seed)
    opt2, rng2, hist2 = run_stage(model, splits["train"], cfg_stage2,
                                  log_path=os.path.join(out_dir, "stage2.log"),
                                  valid_utts=splits.get("valid"))
    save_checkpoint(os.path.join(out_dir, "stage2.ckpt"), model, opt2,
                    cfg_stage2.max_steps, rng2)
    return model, hist1 + hist2


# --- checkpoint format -------------------------------------------------
#
# magic (8 bytes) | header_len (uint32 LE) | header JSON (utf-8) | payload
#
# The header lists every parameter (name, shape) in payload order; with an
# optimizer, the blocks m:<name>, then v:<name>, of each trainable name in
# its order follow. All payload arrays are little-endian float32, row-major.


def save_checkpoint(path, model, opt=None, step=0, rng=None):
    params = model.named_parameters()
    names = sorted(params)
    header = {
        "version": CKPT_VERSION,
        "model_config": model.cfg.to_json(),
        "step": step,
        "rng_state": None if rng is None else rng.bit_generator.state,
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "optimizer": None,
    }
    blocks = [params[n].data for n in names]
    if opt is not None:
        header["optimizer"] = {k: getattr(opt, k) for k in CKPT_ADAM_FIELDS}
        blocks += [opt.m[n] for n in opt.trainable] + [opt.v[n] for n in opt.trainable]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    write_file(path, itertools.chain(
        (CKPT_MAGIC, struct.pack("<I", len(head)), head),
        (np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in blocks)), "wb")


def _check_rng_state(state):
    """None, or a PCG64 state exactly as numpy writes it."""
    if state is not None:
        bits = np.random.PCG64(0)  # a seed, so that no OS entropy is read
        bits.state = state
        if (json.dumps(bits.state, sort_keys=True) != json.dumps(state, sort_keys=True)
                or state["has_uint32"] not in (0, 1)):
            raise ValueError(f"rng_state is not a PCG64 state: {state!r}")


def _parse_header(header):
    """(model config, [(name, shape)] in payload order, Adam arguments or
    None, step) of a checkpoint header. A missing, mistyped or out-of-range
    field raises KeyError, TypeError, ValueError, OverflowError or
    ConfigError."""
    model_json = dict(header["model_config"])
    encoder = dict(model_json["encoder"])
    # Files written while the encoder config still had this reserved hook
    # store it as null; no other value was ever valid.
    if encoder.pop("intermediate_ctc_block", None) is not None:
        raise CheckpointError("intermediate-layer CTC is not supported")
    model_cfg = ModelConfig.from_json({**model_json, "encoder": encoder})
    if not isinstance(header["params"], list):
        raise TypeError(f"params is a {type(header['params']).__name__}, not a list")
    entries = [(str(e["name"]), tuple(e["shape"])) for e in header["params"]]
    if len({name for name, _ in entries}) != len(entries):
        raise ValueError("a parameter is listed twice")
    _check_rng_state(header["rng_state"])
    adam = None
    o = header["optimizer"]
    if o is not None:
        trainable = o["trainable"]
        if (not isinstance(trainable, list) or not all(isinstance(n, str) for n in trainable)
                or len(set(trainable)) != len(trainable)):
            raise TypeError(f"trainable is not a list of distinct names: {trainable!r}")
        unknown = set(trainable) - {name for name, _ in entries}
        if unknown:
            raise CheckpointShapeError(
                f"optimizer state for unknown parameters {sorted(unknown)[:3]}")
        check_real("peak_lr", o["peak_lr"], 0, math.inf)
        check_real("eps", o["eps"], 0, math.inf, open_low=True)
        for name in ("beta1", "beta2"):
            check_real(name, o[name], 0, 1, open_high=True)
        for name in ("warmup", "t"):
            check_int(name, o[name], 0)
        adam = {k: o[k] for k in CKPT_ADAM_FIELDS}
    check_int("step", header["step"], 0)
    return model_cfg, entries, adam, header["step"]


def load_checkpoint(path):
    """Returns (model, optimizer or None, step, rng_state or None), from one
    read of the file. A file that is not exactly a checkpoint of this format
    raises a CheckpointError (or the subclass that says why) naming
    ``path``, and a cut payload names the block the file ends in."""
    with open(path, "rb") as f:
        raw = f.read()
        try:
            magic, head_start = raw[:len(CKPT_MAGIC)], len(CKPT_MAGIC) + 4
            if magic != CKPT_MAGIC:
                raise CheckpointVersionError(f"not a checkpoint file: bad magic {magic!r}")
            if len(raw) < head_start:
                raise CheckpointTruncatedError("checkpoint truncated in header length")
            start = head_start + struct.unpack_from("<I", raw, len(CKPT_MAGIC))[0]
            if len(raw) < start:
                raise CheckpointTruncatedError("checkpoint truncated in header")
            try:
                header = json.loads(raw[head_start:start].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                raise CheckpointVersionError(f"unreadable checkpoint header: {e}") from e
            if not isinstance(header, dict):
                raise CheckpointError("checkpoint header is not a JSON object")
            version = header.get("version")
            if type(version) is not int or version != CKPT_VERSION:
                raise CheckpointVersionError(f"unsupported checkpoint version {version!r}")
            try:
                model_cfg, entries, adam, step = _parse_header(header)
                model = Model.blank(model_cfg)
            except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as e:
                raise CheckpointError(f"malformed checkpoint header: {e!r}") from e
            params = model.named_parameters()
            mismatch = {name for name, _ in entries} ^ set(params)
            if mismatch:
                raise CheckpointShapeError(f"checkpoint parameter list mismatch: "
                                           f"{sorted(mismatch)[:3]}")
            for name, shape in entries:
                if tuple(params[name].shape) != shape:
                    raise CheckpointShapeError(
                        f"parameter '{name}' has shape {shape} in checkpoint but "
                        f"{tuple(params[name].shape)} in config"
                    )
            trainable = adam["trainable"] if adam else []
            # (block, the parameter whose shape it has), in payload order
            blocks = [(name, name) for name, _ in entries] + [
                (f"{k}:{n}", n) for k in "mv" for n in trainable]
            ends = start + 4 * np.cumsum([params[n].size for _, n in blocks])
            if ends[-1] > len(raw):
                cut = blocks[np.searchsorted(ends, len(raw), side="right")][0]
                raise CheckpointTruncatedError(
                    f"checkpoint truncated while reading parameter '{cut}'")
            if ends[-1] < len(raw):
                raise CheckpointError("checkpoint has bytes after its payload")
            payload = np.split(np.frombuffer(raw, "<f4", offset=start), (ends[:-1] - start) // 4)
            arrays = {b: a.reshape(params[n].shape) for (b, n), a in zip(blocks, payload)}
            for name, _ in entries:
                params[name].data = arrays[name].astype(np.float64)
            opt = None if adam is None else Adam(params, **adam)
            for n in trainable:
                opt.m[n][...], opt.v[n][...] = arrays[f"m:{n}"], arrays[f"v:{n}"]
            return model, opt, step, header["rng_state"]
        except CheckpointError as e:
            raise type(e)(f"checkpoint {path}: {e}") from e
