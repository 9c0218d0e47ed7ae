"""Full model container: speech encoder + CTC head, visual-text encoder,
and the fusion decoder, with flat named-parameter access for the optimizer
and checkpointing.

Parameter values are float32 numbers, so checkpoint payloads round-trip
bitwise. ``Model.init``, ``reinit_fusion`` and ``train.load_checkpoint``
hold them in float64 arrays, and a model decodes in float64; an ``Adam``
holds the ones it trains in float32, and training computes in float32.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .data import text_vocab_size
from .decoder import DecoderConfig, DecoderParams, init_decoder_params
from .encoder import EncoderConfig, EncoderParams, init_encoder_params
from .errors import ConfigError, check_int
from .layers import init_attention_params
from .tensor import Tensor
from .visual import VisualEncoderParams, init_visual_params


@dataclass
class ModelConfig:
    d_in: int
    v_content: int  # spoken vocabulary size (token ids 1..v_content)
    n_background: int
    encoder: EncoderConfig
    decoder: DecoderConfig

    @property
    def text_vocab_size(self):
        return text_vocab_size(self.v_content, self.n_background)

    @property
    def ctc_vocab_size(self):
        return self.v_content + 1

    def __post_init__(self):
        check_int("d_in", self.d_in, 1)
        check_int("v_content", self.v_content, 1)
        check_int("n_background", self.n_background, 0)
        expected = self.text_vocab_size + 2
        if self.decoder.vocab_size != expected:
            raise ConfigError(
                f"decoder vocab_size {self.decoder.vocab_size} != text vocab "
                f"+ BOS/EOS = {expected}"
            )

    def to_json(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, d):
        """The inverse of ``to_json``: at every level each field must be
        present and no other key is allowed."""
        subs = {"encoder": EncoderConfig, "decoder": DecoderConfig}
        for where, kind in (("model", cls), *subs.items()):
            keys = set(d if where == "model" else d[where])
            fields = {f.name for f in dataclasses.fields(kind)}
            if keys != fields:
                raise KeyError(f"{where} config lacks {sorted(fields - keys)} "
                               f"and has unknown keys {sorted(keys - fields)}")
        return cls(**{**d, **{key: sub(**d[key]) for key, sub in subs.items()}})


def make_decoder_config(v_content, n_background, **arch):
    """The DecoderConfig for a corpus; ``arch`` sets its other fields."""
    return DecoderConfig(vocab_size=text_vocab_size(v_content, n_background) + 2, **arch)


def _walk(prefix, obj):
    if isinstance(obj, Tensor):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _walk(f"{prefix}.{f.name}", getattr(obj, f.name))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _walk(f"{prefix}.{i}", item)
    # ints/floats/etc. are configuration, not parameters


# Stands in for a Generator where every drawn value is overwritten.
_UNSET = SimpleNamespace(normal=lambda loc, scale, size: np.empty(size))


def round_to_f32(params):
    for _, t in params.items():
        t.data = t.data.astype("<f4").astype(np.float64)


class Model:
    def __init__(self, cfg: ModelConfig, encoder: EncoderParams, ctc_w: Tensor,
                 visual: VisualEncoderParams, decoder: DecoderParams):
        self.cfg = cfg
        self.encoder = encoder
        self.ctc_w = ctc_w
        self.visual = visual
        self.decoder = decoder
        self.speech_cache = None  # stage 2's train.SpeechCache, made by its first frozen step

    @classmethod
    def init(cls, cfg, seed):
        model = cls._build(cfg, np.random.default_rng(np.random.SeedSequence([seed, 1])))
        round_to_f32(model.named_parameters())
        return model

    @classmethod
    def blank(cls, cfg):
        """A model of ``cfg`` whose parameter values are left unset, for a
        caller that overwrites every one of them: it draws no random numbers."""
        return cls._build(cfg, _UNSET)

    @classmethod
    def _build(cls, cfg, rng):
        # ``rng`` is used only through ``rng.normal(loc, scale, shape)``.
        d = cfg.encoder.d_model
        if cfg.decoder.d_model != d:
            raise ConfigError("encoder and decoder must share d_model")
        encoder = init_encoder_params(cfg.encoder, cfg.d_in, rng)
        ctc_w = Tensor(rng.normal(0.0, d ** -0.5, (d, cfg.ctc_vocab_size)))
        visual = init_visual_params(cfg.text_vocab_size, d, cfg.decoder.n_heads,
                                    cfg.decoder.d_ff, rng)
        decoder = init_decoder_params(cfg.decoder, rng)
        return cls(cfg, encoder, ctc_w, visual, decoder)

    def named_parameters(self):
        out = {}
        for root, obj in (("encoder", self.encoder), ("ctc_w", self.ctc_w),
                          ("visual", self.visual), ("decoder", self.decoder)):
            for name, t in _walk(root, obj):
                out[name] = t
        return out

    def speech_parameters(self):
        """The speech encoder's and the CTC head's tensors: what stage 2 freezes."""
        return [t for _, t in _walk("encoder", self.encoder)] + [self.ctc_w]

    def fusion_parameters(self):
        """The visual encoder's and the visual cross-attention branches'
        tensors: what ``reinit_fusion`` renews and stage 1 leaves untrained."""
        branches = [block.cross.visual_branch for block in self.decoder.blocks]
        return [t for _, t in _walk("visual", self.visual)] + [
            t for _, t in _walk("branches", branches)]

    def reinit_fusion(self, seed):
        """Fresh visual encoder and visual cross-attention branches.

        Visual-branch output projections start at zero, so right after this
        call the model behaves exactly like its audio-only parent.
        """
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        d = self.cfg.decoder.d_model
        self.visual = init_visual_params(self.cfg.text_vocab_size, d,
                                         self.cfg.decoder.n_heads,
                                         self.cfg.decoder.d_ff, rng)
        for block in self.decoder.blocks:
            branch = init_attention_params(d, self.cfg.decoder.n_heads, rng)
            branch.w_o.data[:] = 0.0
            block.cross.visual_branch = branch
        round_to_f32(self.named_parameters())
