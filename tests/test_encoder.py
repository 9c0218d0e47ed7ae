"""Speech encoder stack and CTC head."""

import numpy as np
import pytest

from mmasr import tensor as tn
from mmasr.encoder import (
    EncoderConfig,
    EncoderParams,
    ctc_head,
    encode_audio,
    init_encoder_params,
)
from mmasr.errors import ConfigError, ContractError
from mmasr.gradsuite import grad_check
from mmasr.layers import sinusoidal_positions
from mmasr.tensor import Tensor

RNG = np.random.default_rng(42)


def test_zero_blocks_is_projection_plus_positions():
    cfg = EncoderConfig(n_blocks=0, d_model=8, subsample_factor=2)
    params = init_encoder_params(cfg, 3, RNG)
    x = RNG.standard_normal((6, 3))
    out = encode_audio(x, cfg, params)
    pooled = (x @ params.in_proj.data).reshape(3, 2, 8).mean(axis=1)
    expected = pooled + sinusoidal_positions(3, 8)
    assert out.t_len == 3
    assert np.max(np.abs(out.frames.data - expected)) < 1e-12


def test_zero_input_zero_projection_leaves_positions():
    cfg = EncoderConfig(n_blocks=0, d_model=4, subsample_factor=1)
    params = EncoderParams(in_proj=Tensor(np.zeros((3, 4))), blocks=[])
    out = encode_audio(np.zeros((5, 3)), cfg, params)
    assert np.array_equal(out.frames.data, sinusoidal_positions(5, 4))


@pytest.mark.parametrize("raw,factor,expected", [(10, 2, 5), (11, 2, 6), (7, 4, 2), (3, 1, 3)])
def test_output_length_is_ceil(raw, factor, expected):
    cfg = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=factor)
    params = init_encoder_params(cfg, 2, np.random.default_rng(0))
    out = encode_audio(RNG.standard_normal((raw, 2)), cfg, params)
    assert out.t_len == expected
    assert out.frames.shape == (expected, 4)
    assert np.all(np.isfinite(out.frames.data))


def test_input_shorter_than_subsample_rejected():
    cfg = EncoderConfig(n_blocks=0, d_model=4, subsample_factor=4)
    params = init_encoder_params(cfg, 2, np.random.default_rng(0))
    with pytest.raises(ContractError):
        encode_audio(RNG.standard_normal((3, 2)), cfg, params)


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(subsample_factor=3)
    with pytest.raises(ConfigError):
        EncoderConfig(conv_width=4)
    for bad in ({"n_heads": 0}, {"d_ff": 1.5}, {"d_model": True}, {"n_blocks": -1},
                {"conv_width": -1}, {"subsample_factor": True}):
        with pytest.raises(ConfigError):
            EncoderConfig(**bad)
    with pytest.raises(TypeError):  # the reserved intermediate-CTC hook is gone
        EncoderConfig(intermediate_ctc_block=None)


def test_full_stack_gradient_to_input():
    cfg = EncoderConfig(n_blocks=2, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=2)
    params = init_encoder_params(cfg, 3, np.random.default_rng(8))
    w = np.random.default_rng(9).standard_normal((3, 4))
    x = RNG.standard_normal((6, 3))
    f = lambda t: tn.sum_all(tn.mul(encode_audio(t, cfg, params).frames, Tensor(w)))
    assert grad_check(f, x) < 1e-4


def test_ctc_head_zero_weights_uniform():
    from mmasr.encoder import AudioFeatures

    feats = AudioFeatures(Tensor(RNG.standard_normal((4, 5))))
    lp = ctc_head(feats, Tensor(np.zeros((5, 7)))).data
    assert np.max(np.abs(lp + np.log(7.0))) < 1e-12


def test_ctc_head_rows_normalized_and_match_softmax():
    from mmasr.encoder import AudioFeatures

    feats = AudioFeatures(Tensor(RNG.standard_normal((3, 5))))
    w = RNG.standard_normal((5, 4))
    lp = ctc_head(feats, Tensor(w)).data
    assert np.max(np.abs(np.exp(lp).sum(axis=1) - 1.0)) < 1e-12
    logits = feats.frames.data @ w
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    assert np.max(np.abs(np.exp(lp) - e / e.sum(axis=1, keepdims=True))) < 1e-12
