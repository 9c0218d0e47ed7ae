"""The criterion-6 recipe that every workload and the fixtures share.

``tests/test_acceptance.py::test_criterion_6_substitution_reduction`` is the
source of these values: corpus seed 2024 with the ``CorpusConfig``
defaults, a d_model-48 model with 2+2 blocks, 2000 audio-only steps, then
4000 fusion steps with the encoder frozen. Validation settings are left
out: validation only decodes, so it changes neither the parameters nor
the batch stream.

Import after ``bootstrap.add_source_path()``.
"""

from __future__ import annotations

import hashlib
import os

from mmasr.data import CorpusConfig
from mmasr.encoder import EncoderConfig
from mmasr.model import ModelConfig, make_decoder_config
from mmasr import train
from mmasr.train import TrainConfig

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
STAGE1 = "stage1.ckpt"
STAGE2 = "stage2.ckpt"
# Written by make_fixtures.py; a fixture that does not match is refused.
FIXTURE_SHA256 = {
    STAGE1: "087436d34e1ba45074e97859415be99bf5a4d2c2e9c3d54dc1de6e363b4d6087",
    STAGE2: "47d794b19e728b0e407689e17762fe52fbece376bc35c0db8657dc5b7d2af890",
}

CORPUS_SEED = 2024
MODEL_SEED = 1
STAGE1_STEPS = 2000
STAGE2_STEPS = 4000


class FixtureError(RuntimeError):
    """A checkpoint fixture is missing or differs from the pinned one."""


def corpus_config(seed=CORPUS_SEED):
    return CorpusConfig(seed=seed)


def model_config(corpus_cfg):
    enc = EncoderConfig(n_blocks=2, n_heads=4, d_model=48, d_ff=128,
                        conv_width=5, subsample_factor=2)
    dec = make_decoder_config(corpus_cfg.v, corpus_cfg.n_background,
                              n_blocks=2, n_heads=4, d_model=48, d_ff=128)
    return ModelConfig(d_in=corpus_cfg.d_in, v_content=corpus_cfg.v,
                       n_background=corpus_cfg.n_background,
                       encoder=enc, decoder=dec)


def stage1_config():
    return TrainConfig(stage="audio_only", max_steps=STAGE1_STEPS, batch_size=8,
                       peak_lr=4e-3, warmup=100, seed=0)


def stage2_config():
    return TrainConfig(stage="fusion", freeze_encoder=True, max_steps=STAGE2_STEPS,
                       batch_size=8, peak_lr=6e-3, warmup=150, seed=1,
                       p_visual_dropout=0.15)


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_fixture(name):
    """Check the fixture's sha256, then load it the way ``mmasr decode
    --ckpt`` does. Returns the model."""
    path = os.path.join(FIXTURE_DIR, name)
    if not os.path.isfile(path):
        raise FixtureError(f"fixture {name} not found; run perfbench/make_fixtures.py")
    digest = sha256_of(path)
    if digest != FIXTURE_SHA256[name]:
        raise FixtureError(f"fixture {name} has sha256 {digest}, "
                           f"expected {FIXTURE_SHA256[name]}")
    model, _, _, _ = train.load_checkpoint(path)
    return model
