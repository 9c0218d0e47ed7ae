"""Model container: parameter naming, float32 rounding, config checks."""

import numpy as np
import pytest

from mmasr.encoder import EncoderConfig
from mmasr.errors import ConfigError
from mmasr.model import Model, ModelConfig, make_decoder_config


def _cfg(d_model=4):
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=d_model, d_ff=6,
                        conv_width=3, subsample_factor=1)
    dec = make_decoder_config(5, 3, n_blocks=1, n_heads=2, d_model=d_model, d_ff=6)
    return ModelConfig(d_in=3, v_content=5, n_background=3, encoder=enc, decoder=dec)


def test_vocab_arithmetic():
    cfg = _cfg()
    assert cfg.text_vocab_size == 1 + 2 * 5 + 3
    assert cfg.ctc_vocab_size == 6
    assert cfg.decoder.vocab_size == cfg.text_vocab_size + 2


def test_decoder_vocab_must_match():
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=4, d_ff=6, conv_width=3,
                        subsample_factor=1)
    dec = make_decoder_config(4, 3, n_blocks=1, n_heads=2, d_model=4, d_ff=6)
    with pytest.raises(ConfigError):
        ModelConfig(d_in=3, v_content=5, n_background=3, encoder=enc, decoder=dec)


def test_d_model_must_agree():
    enc = EncoderConfig(n_blocks=1, n_heads=2, d_model=8, d_ff=6, conv_width=3,
                        subsample_factor=1)
    dec = make_decoder_config(5, 3, n_blocks=1, n_heads=2, d_model=4, d_ff=6)
    cfg = ModelConfig(d_in=3, v_content=5, n_background=3, encoder=enc, decoder=dec)
    with pytest.raises(ConfigError):
        Model.init(cfg, 0)


def test_named_parameters_cover_all_roots():
    model = Model.init(_cfg(), 0)
    names = set(model.named_parameters())
    assert "ctc_w" in names
    assert any(n.startswith("encoder.blocks.0.") for n in names)
    assert any(n.startswith("visual.") for n in names)
    assert any(".cross.audio_branch.w_q" in n for n in names)
    assert any(".cross.visual_branch.w_q" in n for n in names)
    # stable naming: two inits agree on the name set
    assert names == set(Model.init(_cfg(), 1).named_parameters())


def test_parameters_are_float32_representable():
    model = Model.init(_cfg(), 3)
    for name, t in model.named_parameters().items():
        roundtrip = t.data.astype("<f4").astype(np.float64)
        assert np.array_equal(roundtrip, t.data), name


def test_init_is_deterministic_and_seed_sensitive():
    a = Model.init(_cfg(), 5).named_parameters()
    b = Model.init(_cfg(), 5).named_parameters()
    c = Model.init(_cfg(), 6).named_parameters()
    for n in a:
        assert np.array_equal(a[n].data, b[n].data)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a)


def test_reinit_fusion_touches_only_fusion_parameters():
    model = Model.init(_cfg(), 5)
    before = {n: t.data.copy() for n, t in model.named_parameters().items()}
    model.reinit_fusion(9)
    after = model.named_parameters()
    for n in after:
        fusion = n.startswith("visual.") or ".cross.visual_branch." in n
        if not fusion:
            assert np.array_equal(after[n].data, before[n]), n
    assert any(not np.array_equal(after[n].data, before[n])
               for n in after if n.startswith("visual."))


def test_config_json_roundtrip():
    cfg = _cfg()
    again = ModelConfig.from_json(cfg.to_json())
    assert again == cfg
    for key in ("encoder", "decoder"):
        partial = cfg.to_json()
        del partial[key]["d_ff"]
        with pytest.raises(KeyError, match="d_ff"):
            ModelConfig.from_json(partial)
    with pytest.raises(ConfigError):
        ModelConfig.from_json({**cfg.to_json(), "d_in": 3.0})
