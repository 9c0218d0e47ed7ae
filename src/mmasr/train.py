"""Joint CTC+attention training with the two-stage recipe, Adam with
inverse-sqrt warmup, and bit-exact checkpointing.

Stage 1 trains the encoder, CTC head and an audio-only decoding path;
stage 2 re-initializes the fusion parameters, freezes the speech encoder,
and trains the fusion decoder plus the visual encoder.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import ctc as ctc_mod
from . import tensor as tn
from .decoder import beam_decode, decoder_forward
from .encoder import ctc_head, encode_audio
from .errors import (
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigError,
    FeasibilityError,
    NumericError,
    RecipeError,
)
from .layers import pad_batch
from .metrics import EditCounts, align_edit, wer
from .model import Model, ModelConfig
from .visual import empty_visual, encode_visual

STAGES = ("audio_only", "fusion")

CKPT_MAGIC = b"MMASRCK1"
CKPT_VERSION = 1


@dataclass
class TrainConfig:
    stage: str = "audio_only"
    lambda_ctc: float = 0.3
    peak_lr: float = 4e-3
    warmup: int = 100
    batch_size: int = 8
    max_steps: int = 500
    seed: int = 0
    freeze_encoder: bool = False
    freeze_visual: bool = False
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
        if not 0.0 <= self.lambda_ctc <= 1.0:
            raise ConfigError("lambda_ctc must lie in [0, 1]")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.batch_size < 1 or self.max_steps < 0:
            raise ConfigError("invalid batch_size/max_steps")


class Adam:
    """Adam with Noam-style inverse-sqrt warmup.

    Parameter and moment values are rounded to float32 precision after
    every update so checkpoints round-trip bitwise.
    """

    def __init__(self, params, trainable, peak_lr, warmup,
                 beta1=0.9, beta2=0.98, eps=1e-9, t=0):
        self.params = params  # name -> Tensor
        self.trainable = list(trainable)
        unknown = [n for n in self.trainable if n not in params]
        if unknown:
            raise ConfigError(f"unknown trainable parameters: {unknown[:3]}")
        self.peak_lr = peak_lr
        self.warmup = warmup
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = t
        self.grad_norm = math.nan  # of the gradients of the last step
        self.m = {n: np.zeros_like(params[n].data) for n in self.trainable}
        self.v = {n: np.zeros_like(params[n].data) for n in self.trainable}

    def lr(self, t):
        if self.warmup > 0:
            return self.peak_lr * min(t / self.warmup, math.sqrt(self.warmup / t))
        return self.peak_lr * min(1.0, 1.0 / math.sqrt(t))

    def step(self):
        """Update every trainable parameter; returns the learning rate.

        A non-finite gradient raises NumericError naming its parameter, and
        leaves the parameters, the moments and ``t`` as they were. The
        gradients' global L2 norm is kept in ``grad_norm``.
        """
        squares = 0.0
        for name in self.trainable:
            g = self.params[name].grad
            if g is None:
                continue
            sq = float(np.vdot(g, g))
            if not math.isfinite(sq):
                raise NumericError(f"gradient of {name} is not finite (sum of squares {sq})")
            squares += sq
        self.grad_norm = math.sqrt(squares)
        self.t += 1
        lr = self.lr(self.t)
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in self.trainable:
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data.astype("<f4").astype(np.float64)
            self.m[name] = m.astype("<f4").astype(np.float64)
            self.v[name] = v.astype("<f4").astype(np.float64)
        return lr

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def trainable_names(model, cfg):
    names = list(model.named_parameters())
    out = []
    for n in names:
        if cfg.freeze_encoder and (n.startswith("encoder.") or n == "ctc_w"):
            continue
        if cfg.stage == "audio_only" and _is_fusion_param(n):
            continue
        if cfg.freeze_visual and n.startswith("visual."):
            continue
        out.append(n)
    return out


def _is_fusion_param(name):
    return name.startswith("visual.") or ".cross.visual_branch." in name


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


def utterance_losses(model, batch, use_visual_flags, cfg):
    """Batch-mean CTC and attention losses of the utterances in ``batch``,
    built as one zero-padded, masked graph.

    An utterance whose subsampled frame count cannot align its reference is
    skipped. Returns (CTC loss, attention loss, number skipped); the losses
    are None when every utterance was skipped.
    """
    enc_cfg, dec_cfg = model.cfg.encoder, model.cfg.decoder
    kept = []
    for utt, use_visual in zip(batch, use_visual_flags):
        try:
            ctc_mod.check_feasible(-(-utt.audio.shape[0] // enc_cfg.subsample_factor),
                                   utt.ref)
        except FeasibilityError:
            continue
        kept.append((utt, use_visual))
    skipped = len(batch) - len(kept)
    if not kept:
        return None, None, skipped
    utts = [utt for utt, _ in kept]
    frames, raw_lengths = pad_batch([utt.audio for utt in utts], dtype=np.float64)
    # Frozen speech path: detach the encoder and report CTC without grads.
    with tn.no_grad() if cfg.freeze_encoder else contextlib.nullcontext():
        feats = encode_audio(frames, enc_cfg, model.encoder, raw_lengths)
        per_utt = ctc_mod.ctc_loss(ctc_head(feats, model.ctc_w),
                                   [utt.ref for utt in utts], feats.lengths)
        loss_ctc = tn.scale(tn.sum_all(per_utt), 1.0 / len(utts))
    ocr, ocr_lengths = pad_batch([utt.ocr if use_visual else [] for utt, use_visual in kept])
    vis = encode_visual(ocr, model.visual, frozen=cfg.freeze_visual, lengths=ocr_lengths)
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
    mean_ctc, mean_att, skipped = utterance_losses(model, batch, use_visual_flags, cfg)
    if mean_ctc is None:
        return {"loss_total": math.nan, "loss_ctc": math.nan, "loss_att": math.nan,
                "lr": opt.lr(opt.t + 1), "skipped": skipped, "grad_norm": math.nan}
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
            "grad_norm": opt.grad_norm}


def decode_utterance(model, utt, use_visual, beam=4, max_len=None):
    """Beam-decode one utterance; the reference is never read.

    By default a hypothesis ends after ``t_len + 1`` steps: CTC
    feasibility bounds a transcript by the encoder length, plus one EOS.
    """
    dec_cfg = model.cfg.decoder
    with tn.no_grad():
        feats = encode_audio(np.asarray(utt.audio, dtype=np.float64),
                             model.cfg.encoder, model.encoder)
        if max_len is None:
            max_len = feats.t_len + 1
        if use_visual and utt.ocr:
            vis = encode_visual(utt.ocr, model.visual, frozen=True)
        else:
            vis = empty_visual(dec_cfg.d_model)
        return beam_decode(feats, vis, dec_cfg, model.decoder, beam=beam,
                           max_len=max_len)


def validation_wer(model, utts, use_visual, beam=1, limit=0):
    if limit:
        utts = utts[:limit]
    total = EditCounts(0, 0, 0, 0)
    for utt in utts:
        hyp = decode_utterance(model, utt, use_visual, beam=beam)
        counts, _ = align_edit(utt.ref, hyp.tokens)
        total = total + counts
    return wer(total)


def run_stage(model, train_utts, cfg, log_path=None, valid_utts=None,
              opt=None, rng=None, start_step=0):
    """Train for cfg.max_steps steps; batches are sampled i.i.d. so resuming
    from (optimizer state, rng state, step) is bit-exact."""
    if opt is None:
        opt = Adam(model.named_parameters(), trainable_names(model, cfg),
                   cfg.peak_lr, cfg.warmup, cfg.adam_beta1, cfg.adam_beta2,
                   cfg.adam_eps, t=start_step)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3]))
    n = len(train_utts)
    history = []
    log_f = open(log_path, "a", encoding="utf-8") if log_path else None
    try:
        for step in range(start_step + 1, cfg.max_steps + 1):
            idx = rng.integers(0, n, cfg.batch_size)
            flags = None
            if cfg.stage == "fusion":
                draws = rng.random(cfg.batch_size)
                flags = [d >= cfg.p_visual_dropout for d in draws]
            batch = [train_utts[int(i)] for i in idx]
            report = train_step(model, batch, cfg, opt, use_visual_flags=flags)
            # A step whose utterances were all skipped has no loss: null, as
            # strict JSON has no NaN.
            record = {"step": step, "lr": report["lr"]}
            for key in ("loss_total", "loss_ctc", "loss_att"):
                record[key] = report[key] if math.isfinite(report[key]) else None
            history.append(record)
            if log_f:
                log_f.write(json.dumps(record, sort_keys=True) + "\n")
            if (cfg.val_every and valid_utts is not None
                    and step % cfg.val_every == 0):
                vw = validation_wer(model, valid_utts,
                                    use_visual=(cfg.stage == "fusion"),
                                    limit=cfg.val_subset)
                vrec = {"step": step, "valid_wer": vw}
                history.append(vrec)
                if log_f:
                    log_f.write(json.dumps(vrec, sort_keys=True) + "\n")
    finally:
        if log_f:
            log_f.close()
    return opt, rng, history


def run_recipe(model_cfg, splits, cfg_stage1, cfg_stage2, out_dir,
               model_seed=0):
    """Audio-only pretraining, then fusion training with a frozen encoder."""
    if cfg_stage1.stage != "audio_only":
        raise RecipeError("stage 1 must use stage='audio_only'")
    if cfg_stage2.stage != "fusion" or not cfg_stage2.freeze_encoder:
        raise RecipeError("stage 2 must use stage='fusion' with freeze_encoder")
    os.makedirs(out_dir, exist_ok=True)
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
# The header lists every parameter (name, shape) in payload order, then the
# optimizer moment arrays (m then v) for each trainable parameter. All
# payload arrays are little-endian float32, row-major.


def _rng_state(rng):
    return rng.bit_generator.state if rng is not None else None


def save_checkpoint(path, model, opt=None, step=0, rng=None):
    params = model.named_parameters()
    names = sorted(params)
    header = {
        "version": CKPT_VERSION,
        "model_config": model.cfg.to_json(),
        "step": step,
        "rng_state": _rng_state(rng),
        "params": [{"name": n, "shape": list(params[n].shape)} for n in names],
        "optimizer": None,
    }
    blocks = [params[n].data for n in names]
    if opt is not None:
        header["optimizer"] = {
            "trainable": opt.trainable,
            "t": opt.t,
            "peak_lr": opt.peak_lr,
            "warmup": opt.warmup,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
        }
        for n in opt.trainable:
            blocks.append(opt.m[n])
        for n in opt.trainable:
            blocks.append(opt.v[n])
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(head)))
        f.write(head)
        for arr in blocks:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_block(f, name, shape):
    nbytes = int(np.prod(shape)) * 4 if shape else 4
    raw = f.read(nbytes)
    if len(raw) != nbytes:
        raise CheckpointTruncatedError(
            f"checkpoint truncated while reading parameter '{name}'"
        )
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)


def _parse_header(header):
    """(model config, [(name, shape)] in payload order, Adam arguments or
    None, step) of a checkpoint header. A missing or mistyped field raises
    KeyError, TypeError or ValueError."""
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
    adam = None
    o = header.get("optimizer")
    if o is not None:
        trainable = [str(n) for n in o["trainable"]]
        unknown = set(trainable) - {name for name, _ in entries}
        if unknown:
            raise CheckpointShapeError(
                f"optimizer state for unknown parameters {sorted(unknown)[:3]}")
        adam = dict(trainable=trainable, peak_lr=o["peak_lr"], warmup=o["warmup"],
                    beta1=o["beta1"], beta2=o["beta2"], eps=o["eps"], t=o["t"])
    return model_cfg, entries, adam, header["step"]


def load_checkpoint(path):
    """Returns (model, optimizer or None, step, rng_state or None).

    A file that is not exactly a checkpoint of this format raises a
    CheckpointError."""
    with open(path, "rb") as f:
        magic = f.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise CheckpointVersionError(f"not a checkpoint file: bad magic {magic!r}")
        raw_len = f.read(4)
        if len(raw_len) != 4:
            raise CheckpointTruncatedError("checkpoint truncated in header length")
        (hlen,) = struct.unpack("<I", raw_len)
        head = f.read(hlen)
        if len(head) != hlen:
            raise CheckpointTruncatedError("checkpoint truncated in header")
        try:
            header = json.loads(head.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointVersionError(f"unreadable checkpoint header: {e}") from e
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        if header.get("version") != CKPT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {header.get('version')}"
            )
        try:
            model_cfg, entries, adam, step = _parse_header(header)
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"malformed checkpoint header: {e!r}") from e
        model = Model.init(model_cfg, seed=0)
        params = model.named_parameters()
        for name, shape in entries:
            if name not in params:
                raise CheckpointShapeError(f"unknown parameter '{name}' in checkpoint")
            if tuple(params[name].shape) != shape:
                raise CheckpointShapeError(
                    f"parameter '{name}' has shape {shape} in checkpoint but "
                    f"{tuple(params[name].shape)} in config"
                )
            params[name].data = _read_block(f, name, shape)
        missing = {name for name, _ in entries} ^ set(params)
        if missing:
            raise CheckpointShapeError(
                f"checkpoint parameter list mismatch: {sorted(missing)[:3]}"
            )
        opt = None
        if adam is not None:
            opt = Adam(params, **adam)
            for n in opt.trainable:
                opt.m[n] = _read_block(f, f"m:{n}", params[n].shape)
            for n in opt.trainable:
                opt.v[n] = _read_block(f, f"v:{n}", params[n].shape)
        if f.read(1):
            raise CheckpointError("checkpoint has bytes after its payload")
        return model, opt, step, header.get("rng_state")
