"""Finite-difference gradient checks over every differentiable operation,
from single layers up to the combined training loss, on random micro
configurations. ``param_grad_check`` is the one central-difference loop;
``grad_check`` runs it on a function of one input, and ``_check`` on a
random linear functional of a layer's output, in its input and parameters."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import ctc as ctc_mod
from . import tensor as tn
from .data import CorpusConfig, gen_corpus
from .decoder import dual_cross_attention, decoder_forward
from .encoder import (
    AudioFeatures,
    EncoderConfig,
    encode_audio,
    init_encoder_params,
    subsampled_length,
)
from .errors import ContractError
from .layers import (
    LayerNormParams,
    attention,
    causal_mask,
    init_attention_params,
    key_mask,
    layer_norm,
)
from .model import Model, ModelConfig, _walk, make_decoder_config
from .tensor import Tensor
from .train import TrainConfig, utterance_losses
from .visual import encode_visual

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4


def param_grad_check(build_loss, param, eps=DEFAULT_EPS):
    """Compare the analytic gradient of the scalar ``build_loss()`` with
    respect to the leaf ``param`` against central differences, perturbing
    ``param.data`` in place.

    Returns the max over coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractError(f"eps {eps} outside [1e-7, 1e-3]")
    loss = build_loss()
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("a gradient check requires a scalar-valued function")
    # A leftover gradient of another leaf never flows into this one.
    param.grad = None
    loss.backward()
    analytic = param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
    param.grad = None
    numeric = np.zeros_like(param.data)
    flat_p = param.data.reshape(-1)
    flat_n = numeric.reshape(-1)
    with tn.no_grad():
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            fp = build_loss().item()
            flat_p[i] = orig - eps
            fm = build_loss().item()
            flat_p[i] = orig
            flat_n[i] = (fp - fm) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(f, x, eps=DEFAULT_EPS):
    """``param_grad_check`` of the scalar ``f(t)`` in ``t``, a fresh leaf
    holding a copy of ``x``."""
    leaf = Tensor(tn.as_tensor(x).data.copy())
    return param_grad_check(lambda: f(leaf), leaf, eps)


def _rand(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, shape))


def _check(fwd, x, params, rng, eps):
    """Worst gradient error of a random linear functional of ``fwd(x)``, in
    the input ``x`` and then in each of ``params``. The functional is drawn
    from ``rng`` before ``params`` is iterated."""
    w = rng.uniform(-1.0, 1.0, fwd(x).shape)

    def loss(t):
        return tn.sum_all(tn.mul(fwd(t), w))

    errs = [grad_check(loss, x, eps)]
    return max(errs + [param_grad_check(lambda: loss(x), p, eps) for p in params])


def _some_params(rng, prefix, tree):
    """Three distinct random parameters of ``tree``, drawn lazily: the names
    are chosen when the caller iterates, so a check's functional comes first."""
    flat = dict(_walk(prefix, tree))
    names = sorted(flat)
    for i in rng.choice(len(names), 3, replace=False):
        yield flat[names[i]]


def check_attention(rng, eps):
    d, heads, lq, lk = 4, 2, 3, 4
    params = init_attention_params(d, heads, rng)
    q, k, v = _rand(rng, lq, d), _rand(rng, lk, d), _rand(rng, lk, d)
    return _check(lambda t: attention(t, k, v, params), q,
                  (params.w_q, params.w_k, params.w_v, params.w_o), rng, eps)


def check_self_attention(rng, eps):
    """The pre-LN self-attention node, one tensor as q, k and v, in its
    input, layer norm and q/k/v projections: 2-D with a causal mask, and a
    batch of two rows with key padding."""
    d = 4
    params = init_attention_params(d, int(rng.choice([1, 2, 4])), rng)
    norm = LayerNormParams(_rand(rng, d), _rand(rng, d))
    errs = []
    for shape, mask in (((3, d), causal_mask(3)), ((2, 3, d), key_mask([3, 2], 3))):
        errs.append(_check(lambda t: attention(t, t, t, params, mask, norm), _rand(rng, *shape),
                           (norm.gamma, norm.beta, params.w_q, params.w_k, params.w_v),
                           rng, eps))
    return max(errs)


def check_layer_norm(rng, eps):
    l, d = 3, 5
    x, norm = _rand(rng, l, d), LayerNormParams(_rand(rng, d), _rand(rng, d))
    return _check(lambda t: layer_norm(t, norm), x, (norm.gamma, norm.beta), rng, eps)


def check_feed_forward(rng, eps):
    l, d, d_ff = 3, 4, 6
    x, w1, w2 = _rand(rng, l, d), _rand(rng, d, d_ff), _rand(rng, d_ff, d)
    # ReLU kinks: nudge activations away from zero for a clean check.
    w1.data += 0.05 * np.sign(w1.data)
    c = float(rng.choice([0.5, 1.0]))
    norm = LayerNormParams(_rand(rng, d), _rand(rng, d))
    return _check(lambda t: tn.feed_forward(t, norm, w1, w2, c), x,
                  (norm.gamma, norm.beta, w1, w2), rng, eps)


def check_conv_module(rng, eps):
    """One sequence without a frame mask, then a batch of two rows, the
    second padded, with one."""
    d, width = 4, 3
    w_in, kernel, w_out = _rand(rng, d, d), _rand(rng, width, d), _rand(rng, d, d)
    padding = (np.arange(5) < np.array([[5], [3]]))[..., None].astype(np.float64)
    norm = LayerNormParams(_rand(rng, d), _rand(rng, d))
    errs = []
    for shape, frame_mask in (((5, d), None), ((2, 5, d), padding)):
        errs.append(_check(lambda t: tn.conv_module(t, norm, w_in, kernel, w_out, frame_mask),
                           _rand(rng, *shape), (norm.gamma, norm.beta, w_in, kernel, w_out),
                           rng, eps))
    return max(errs)


def check_encoder(rng, eps):
    cfg = EncoderConfig(n_blocks=2, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=2)
    d_in = 3
    params = init_encoder_params(cfg, d_in, rng)
    return _check(lambda t: encode_audio(t, cfg, params).frames, _rand(rng, 6, d_in),
                  _some_params(rng, "enc", params), rng, eps)


def _micro_model(rng_seed, subsample_factor=1):
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=subsample_factor)
    dec = make_decoder_config(3, 2, n_blocks=2, n_heads=2, d_model=4, d_ff=6)
    cfg = ModelConfig(d_in=3, v_content=3, n_background=2, encoder=enc, decoder=dec)
    return Model.init(cfg, rng_seed)


def check_dual_cross_attention(rng, eps):
    model = _micro_model(int(rng.integers(1 << 30)))
    cross = model.decoder.blocks[0].cross
    d = 4
    q = _rand(rng, 2, d)
    t_feats = AudioFeatures(_rand(rng, 3, d))
    return _check(
        lambda t: dual_cross_attention(t, t_feats, encode_visual([1, 2], model.visual), cross),
        q, (cross.audio_branch.w_k, cross.visual_branch.w_k, cross.visual_branch.w_o,
            model.visual.embed), rng, eps)


def check_decoder_forward(rng, eps):
    model = _micro_model(int(rng.integers(1 << 30)))
    dec_cfg = model.cfg.decoder
    targets = [dec_cfg.bos_id, 1, 2]
    return _check(
        lambda t: decoder_forward(targets, AudioFeatures(t), encode_visual([2, 3], model.visual),
                                  dec_cfg, model.decoder),
        _rand(rng, 3, 4),
        itertools.chain(_some_params(rng, "dec", model.decoder), [model.visual.attn.w_v]),
        rng, eps)


def check_ctc_loss(rng, eps):
    t_len, v = int(rng.integers(3, 6)), 3
    u = int(rng.integers(1, 3))
    labels = [int(x) for x in rng.integers(1, v + 1, u)]
    x = _rand(rng, t_len, v + 1)
    return grad_check(
        lambda t: ctc_mod.ctc_loss(tn.log_softmax_rows(t), labels), x, eps)


def _micro_batch(rng, n):
    """``n`` micro-corpus training utterances (2 to 6 frames each)."""
    corpus_cfg = CorpusConfig(v=3, n_groups=1, group_size=2, n_background=2,
                              d_in=3, duration_min=2, duration_max=3,
                              sent_len_min=1, sent_len_max=2,
                              n_train=n, n_valid=1, n_test=1,
                              seed=int(rng.integers(1 << 30)))
    return gen_corpus(corpus_cfg)[1]["train"]


def _train_loss_grad_errs(model, batch, flags, tcfg, names, eps):
    def total():
        l_ctc, l_att, _ = utterance_losses(model, batch, flags, tcfg)
        return tn.add(tn.scale(l_ctc, tcfg.lambda_ctc),
                      tn.scale(l_att, 1.0 - tcfg.lambda_ctc))

    flat = model.named_parameters()
    return [param_grad_check(total, flat[name], eps) for name in names]


def check_train_loss(rng, eps):
    model = _micro_model(int(rng.integers(1 << 30)))
    utt = _micro_batch(rng, 1)[0]
    tcfg = TrainConfig(stage="fusion", lambda_ctc=0.3)
    names = ("encoder.in_proj", "ctc_w", "visual.attn.w_k",
             "decoder.blocks.0.cross.audio_branch.w_q", "decoder.out_w")
    return max(_train_loss_grad_errs(model, [utt], [True], tcfg, names, eps))


def check_padded_train_loss(rng, eps):
    """The combined loss of a zero-padded batch of two utterances of
    different lengths, subsampled by 2: stage 1, then stage 2 with one row
    without OCR."""
    model = _micro_model(int(rng.integers(1 << 30)), subsample_factor=2)
    one = _micro_batch(rng, 1)[0]
    # 3 to 7 frames, and a 2-frame row with one token, which is always feasible
    audio = np.concatenate([one.audio, one.audio[:1]])
    t_len = subsampled_length(len(audio), 2)
    ref = one.ref if t_len >= len(one.ref) + ctc_mod.count_repeats(one.ref) else one.ref[:1]
    long = dataclasses.replace(one, ref=ref, audio=audio)
    short = dataclasses.replace(one, ref=one.ref[:1], audio=one.audio[:2], ocr=[])
    batch = [long, short]
    stage1 = TrainConfig(stage="audio_only", lambda_ctc=0.3)
    errs = _train_loss_grad_errs(
        model, batch, [False, False], stage1,
        ("encoder.in_proj", "encoder.blocks.0.conv.kernel", "ctc_w",
         "decoder.blocks.0.self_attn.w_k", "decoder.out_w"), eps)
    stage2 = TrainConfig(stage="fusion", lambda_ctc=0.3)
    errs += _train_loss_grad_errs(
        model, batch, [True, True], stage2,
        ("visual.attn.w_k", "visual.embed", "decoder.blocks.1.cross.visual_branch.w_o",
         "decoder.blocks.0.cross.audio_branch.w_v"), eps)
    return max(errs)


CHECKS = {
    "attention": check_attention,
    "layer_norm": check_layer_norm,
    "feed_forward": check_feed_forward,
    "conv_module": check_conv_module,
    "encoder_stack": check_encoder,
    "dual_cross_attention": check_dual_cross_attention,
    "decoder_forward": check_decoder_forward,
    "ctc_loss": check_ctc_loss,
    "train_loss": check_train_loss,
    "padded_train_loss": check_padded_train_loss,
    "self_attention": check_self_attention,
}

# Heavier whole-stack checks run fewer random configs than single layers.
CASES = {"encoder_stack": 20, "decoder_forward": 20, "train_loss": 20,
         "padded_train_loss": 10}


def run_suite(n_cases=20, eps=DEFAULT_EPS, tol=DEFAULT_TOL, seed=0):
    """Returns [(name, max_rel_err, passed)] across random micro-configs."""
    results = []
    for idx, (name, fn) in enumerate(CHECKS.items()):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 100 + idx]))
        worst = 0.0
        for _ in range(min(n_cases, CASES.get(name, n_cases))):
            worst = max(worst, fn(rng, eps))
        results.append((name, worst, worst < tol))
    return results
