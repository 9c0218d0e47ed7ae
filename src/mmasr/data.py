"""Deterministic synthetic corpus generator.

Token id layout over one shared text vocabulary:

    0                              reserved (CTC blank)
    1 .. V                         content tokens (appear in references)
    V+1 .. V+n_background          background/distractor tokens (OCR only)
    V+n_background+1 .. +V         synonym tokens (OCR paraphrases, one per
                                   content token)

Homophone groups partition a subset of the content tokens; every token in
a group emits the same acoustic prototype, so with zero noise the audio is
bitwise identical across group members and only the OCR stream can tell
them apart.

Corpus files are JSON lines, one record per utterance, with the frame
block stored as base64 little-endian float32.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, CorpusFormatError, VocabError, check_int, check_real

SPLITS = ("train", "valid", "test")

_VOCAB_STREAM = 0  # SeedSequence lane for vocabulary construction


def text_vocab_size(v, n_background):
    """Ids in the layout above: blank, content, background and synonyms."""
    return 1 + 2 * v + n_background


@dataclass
class CorpusConfig:
    v: int = 60
    n_groups: int = 8
    group_size: int = 3
    n_background: int = 12
    d_in: int = 16
    duration_min: int = 2
    duration_max: int = 4
    noise_sigma: float = 0.3
    p_ocr_drop: float = 0.2
    p_ocr_paraphrase: float = 0.1
    n_distractors: int = 3
    sent_len_min: int = 3
    sent_len_max: int = 8
    n_train: int = 2000
    n_valid: int = 200
    n_test: int = 200
    seed: int = 0
    prototype_margin: float = 1.0

    def __post_init__(self):
        for name, minimum in (("v", 1), ("n_groups", 0), ("group_size", 1),
                              ("n_background", 1), ("d_in", 1), ("duration_min", 1),
                              ("duration_max", 1), ("n_distractors", 0),
                              ("sent_len_min", 1), ("sent_len_max", 1), ("n_train", 0),
                              ("n_valid", 0), ("n_test", 0), ("seed", 0)):
            check_int(name, getattr(self, name), minimum)
        for name, top in (("p_ocr_drop", 1.0), ("p_ocr_paraphrase", 1.0),
                          ("noise_sigma", math.inf), ("prototype_margin", math.inf)):
            check_real(name, getattr(self, name), 0, top)
        if self.n_groups > 0 and self.group_size < 2:
            raise ConfigError("group_size must be >= 2")
        if self.n_groups * self.group_size > self.v:
            raise ConfigError("homophone groups exceed vocabulary size")
        if self.duration_max < self.duration_min:
            raise ConfigError("duration_max < duration_min")
        if self.sent_len_max < self.sent_len_min:
            raise ConfigError("invalid sentence length range")


@dataclass
class HomophoneVocab:
    size: int  # number of content tokens
    n_background: int
    groups: list  # list of lists of content token ids
    prototypes: np.ndarray  # [n_sounds x d_in]
    token_sound: np.ndarray  # content token id -> prototype row (index 0 unused)

    @property
    def d_in(self):
        return self.prototypes.shape[1]

    @property
    def background_range(self):
        return (self.size + 1, self.size + self.n_background)

    @property
    def synonym_offset(self):
        return self.size + self.n_background

    @property
    def text_vocab_size(self):
        return text_vocab_size(self.size, self.n_background)

    def prototype_for(self, token):
        return self.prototypes[self.token_sound[token]]

    def group_of(self, token):
        for g in self.groups:
            if token in g:
                return g
        return None

    def same_group(self, a, b):
        g = self.group_of(a)
        return g is not None and b in g and a != b

    def is_background(self, token):
        lo, hi = self.background_range
        return lo <= token <= hi

    def synonym(self, token):
        return token + self.synonym_offset

    def to_json(self):
        return {
            "size": self.size,
            "n_background": self.n_background,
            "groups": [list(map(int, g)) for g in self.groups],
            "prototypes": self.prototypes.tolist(),
            "token_sound": self.token_sound.tolist(),
        }

    @classmethod
    def from_json(cls, d):
        """The inverse of ``to_json``. A missing, mistyped or inconsistent
        field raises KeyError, TypeError or ValueError."""
        size, n_background, groups = d["size"], d["n_background"], d["groups"]
        if not (is_id(size) and size >= 1 and is_id(n_background) and n_background >= 0):
            raise ValueError(f"size {size!r} or n_background {n_background!r} is not a count")
        if not (isinstance(groups, list) and all(
                isinstance(g, list) and all(is_id(t) and 1 <= t <= size for t in g)
                for g in groups)):
            raise ValueError("groups is not a list of lists of content token ids")
        prototypes = np.asarray(d["prototypes"], dtype=np.float64)
        if prototypes.ndim != 2 or 0 in prototypes.shape or not np.all(np.isfinite(prototypes)):
            raise ValueError("prototypes is not a finite [sounds x d_in] matrix")
        token_sound = np.asarray(d["token_sound"])
        if (token_sound.shape != (size + 1,) or token_sound.dtype.kind != "i"
                or not np.all((0 <= token_sound) & (token_sound < len(prototypes)))):
            raise ValueError("token_sound does not map each content token to a prototype")
        return cls(size=size, n_background=n_background, groups=groups,
                   prototypes=prototypes, token_sound=token_sound.astype(np.int64))


@dataclass(eq=False)
class Utterance:
    uid: str
    ref: list  # content token ids, non-empty
    durations: list  # per-token frame counts, >= 1
    audio: np.ndarray  # [sum(durations) x d_in] float32
    ocr: list  # OCR token ids, possibly empty

    def __eq__(self, other):
        return (
            isinstance(other, Utterance)
            and self.uid == other.uid
            and self.ref == other.ref
            and self.durations == other.durations
            and self.ocr == other.ocr
            and self.audio.dtype == other.audio.dtype
            and self.audio.shape == other.audio.shape
            and self.audio.tobytes() == other.audio.tobytes()
        )


def build_vocab(cfg):
    """Construct the homophone vocabulary deterministically from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _VOCAB_STREAM]))
    tokens = rng.permutation(np.arange(1, cfg.v + 1))
    groups = [
        sorted(int(t) for t in tokens[i * cfg.group_size : (i + 1) * cfg.group_size])
        for i in range(cfg.n_groups)
    ]
    n_grouped = cfg.n_groups * cfg.group_size
    ungrouped = sorted(int(t) for t in tokens[n_grouped:])
    n_sounds = cfg.n_groups + len(ungrouped)

    token_sound = np.zeros(cfg.v + 1, dtype=np.int64)
    for s, g in enumerate(groups):
        for t in g:
            token_sound[t] = s
    for k, t in enumerate(ungrouped):
        token_sound[t] = cfg.n_groups + k

    prototypes = rng.normal(0.0, 1.0, (n_sounds, cfg.d_in))
    # Resample rows until every pair is at least the margin apart.
    for _ in range(1000):
        d = np.linalg.norm(prototypes[:, None] - prototypes[None, :], axis=-1)
        np.fill_diagonal(d, np.inf)
        bad = np.where(d.min(axis=1) < cfg.prototype_margin)[0]
        if bad.size == 0:
            break
        prototypes[bad[0]] = rng.normal(0.0, 1.0, cfg.d_in)
    else:
        raise ConfigError("could not separate prototypes at the configured margin")
    return HomophoneVocab(
        size=cfg.v,
        n_background=cfg.n_background,
        groups=groups,
        prototypes=prototypes,
        token_sound=token_sound,
    )


def featurize(tokens, vocab, durations, noise_sigma, rng):
    """Emit each token's group prototype for its duration, plus Gaussian noise.

    One draw covers the whole utterance: ``Generator.normal`` fills its
    output in C order, so the noise equals that of one draw per token.
    """
    if len(tokens) == 0 or len(durations) != len(tokens):
        raise ConfigError(f"need tokens and one duration each, got {len(tokens)} "
                          f"tokens and {len(durations)} durations")
    if min(durations) < 1:
        raise ConfigError("token duration must be >= 1")
    if min(tokens) < 1 or max(tokens) > vocab.size:
        raise VocabError(f"token ids outside 1..{vocab.size}: {list(tokens)}")
    audio = vocab.prototypes[vocab.token_sound[tokens]].repeat(durations, axis=0)
    if noise_sigma > 0.0:
        audio += rng.normal(0.0, noise_sigma, audio.shape)
    return audio.astype("<f4")


def corrupt_to_ocr(ref_tokens, cfg, vocab, rng):
    """Drop, paraphrase (non-homophone synonym ids), and append distractors.

    The kept tokens preserve reference order; a kept homophone token always
    appears verbatim or as its synonym, never as a same-group sibling. The
    draws stay scalar: whether a token draws for a paraphrase depends on its
    drop draw, so drawing either kind for all tokens at once would shift
    the stream, and the corpus with it.
    """
    out = []
    for tok in ref_tokens:
        if rng.random() < cfg.p_ocr_drop:
            continue
        if rng.random() < cfg.p_ocr_paraphrase:
            out.append(vocab.synonym(tok))
        else:
            out.append(int(tok))
    lo, hi = vocab.background_range
    for _ in range(cfg.n_distractors):
        out.append(int(rng.integers(lo, hi + 1)))
    return out


def gen_utterance(cfg, vocab, split, index):
    """Generate one utterance from its own derived seed (seed isolation)."""
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}, not one of {SPLITS}")
    check_int("utterance index", index, 0)
    words = [cfg.seed, SPLITS.index(split) + 1, index]
    # A uint32 array gives the state of the list, built faster; a value of
    # 2**32 or more needs the list, which splits it into 32-bit words.
    if max(words) < 2**32:
        words = np.array(words, dtype=np.uint32)
    rng = np.random.default_rng(np.random.SeedSequence(words))
    length = int(rng.integers(cfg.sent_len_min, cfg.sent_len_max + 1))
    ref = rng.integers(1, cfg.v + 1, length).tolist()
    durations = rng.integers(cfg.duration_min, cfg.duration_max + 1, length).tolist()
    audio = featurize(ref, vocab, durations, cfg.noise_sigma, rng)
    ocr = corrupt_to_ocr(ref, cfg, vocab, rng)
    return Utterance(
        uid=f"{split}-{index:05d}", ref=ref, durations=durations, audio=audio, ocr=ocr
    )


def gen_corpus(cfg):
    """Deterministic (vocab, {train, valid, test}) from the config alone."""
    vocab = build_vocab(cfg)
    sizes = {"train": cfg.n_train, "valid": cfg.n_valid, "test": cfg.n_test}
    splits = {
        split: [gen_utterance(cfg, vocab, split, i) for i in range(sizes[split])]
        for split in SPLITS
    }
    return vocab, splits


def _utterance_record(utt):
    return {
        "id": utt.uid,
        "ref": utt.ref,
        "durations": utt.durations,
        "ocr": utt.ocr,
        "frames": base64.b64encode(
            np.ascontiguousarray(utt.audio.astype("<f4")).tobytes()
        ).decode("ascii"),
    }


def is_id(x):
    # bool is a subclass of int, but true/false are not token ids
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_record(rec, vocab):
    """The Utterance of one split record; ``read_records`` has checked its id."""
    for key in ("ref", "durations", "ocr", "frames"):
        if key not in rec:
            raise CorpusFormatError(f"missing field '{key}'")
    ref, durations, ocr = rec["ref"], rec["durations"], rec["ocr"]
    for name, val in (("ref", ref), ("durations", durations), ("ocr", ocr)):
        if not isinstance(val, list) or not all(is_id(x) for x in val):
            raise CorpusFormatError(f"field '{name}' is not an integer list")
    ocr_max = text_vocab_size(vocab.size, vocab.n_background) - 1
    for name, val, top in (("ref", ref, vocab.size), ("ocr", ocr, ocr_max)):
        bad = [x for x in val if not 1 <= x <= top]
        if bad:
            raise CorpusFormatError(f"field '{name}' holds id {bad[0]} outside 1..{top}")
    if not ref:
        raise CorpusFormatError("empty reference")
    if len(durations) != len(ref) or any(d < 1 for d in durations):
        raise CorpusFormatError("durations do not match reference")
    try:
        raw = base64.b64decode(rec["frames"], validate=True)
    except Exception as e:
        raise CorpusFormatError(f"bad base64 frame block: {e}") from e
    d_in = vocab.d_in
    expected = sum(durations) * d_in * 4
    if len(raw) != expected:
        raise CorpusFormatError(f"frame block has {len(raw)} bytes, expected {expected}")
    audio = np.frombuffer(raw, dtype="<f4").reshape(sum(durations), d_in)
    if not np.all(np.isfinite(audio)):
        raise CorpusFormatError("frame block holds a non-finite value")
    return Utterance(uid=rec["id"], ref=ref, durations=durations, audio=audio, ocr=ocr)


def read_text(path, error=CorpusFormatError):
    """The text of the UTF-8 file ``path``; bytes that are not UTF-8 raise
    ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path} is not UTF-8 text: {e}") from e


def write_file(path, chunks, mode="w"):
    """Create or replace ``path`` with the strings (or, in mode "wb", the
    bytes) of ``chunks``, in order. They are written to a file beside it,
    which is moved over ``path`` only once complete: ``path`` never holds
    a partial file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_split(path, utterances):
    write_file(path, (json.dumps(_utterance_record(utt), sort_keys=True, separators=(",", ":"))
                      + "\n" for utt in utterances))


def read_records(path, parse):
    """{id: parse(record)} of the JSON-lines file ``path``, in file order.

    Each non-blank line is a record, numbered by its line: a JSON object
    with a string ``id`` that no earlier record has. ``parse`` raises
    CorpusFormatError on a bad record; every error names the file and the
    record.
    """
    out = {}
    for i, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict) or not isinstance(rec.get("id"), str):
                raise CorpusFormatError("record is not an object with a string 'id'")
            if rec["id"] in out:
                raise CorpusFormatError(f"id {rec['id']!r} repeats")
            out[rec["id"]] = parse(rec)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"{path}, record {i}: invalid JSON: {e}") from e
        except CorpusFormatError as e:
            raise CorpusFormatError(f"{path}, record {i}: {e}") from e
    return out


def read_split(path, vocab):
    """Utterances of one JSONL split file; frame width and token id ranges
    are checked against ``vocab``."""
    return list(read_records(path, lambda rec: _parse_record(rec, vocab)).values())


def write_corpus(out_dir, vocab, splits, cfg=None):
    """Write vocab.json plus one JSONL file per split into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    meta = {"format_version": 1, "vocab": vocab.to_json(), "d_in": vocab.d_in}
    if cfg is not None:
        meta["config"] = asdict(cfg)
    write_file(os.path.join(out_dir, "vocab.json"),
               [json.dumps(meta, sort_keys=True, separators=(",", ":"))])
    for split, utts in splits.items():
        write_split(os.path.join(out_dir, f"{split}.jsonl"), utts)


def read_vocab(path):
    try:
        meta = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise CorpusFormatError(f"invalid vocab file {path}: {e}") from e
    if not isinstance(meta, dict):
        raise CorpusFormatError(f"vocab file {path} is not a JSON object")
    if meta.get("format_version") != 1:
        raise CorpusFormatError(
            f"vocab file {path} has unsupported format version {meta.get('format_version')}")
    try:
        return HomophoneVocab.from_json(meta["vocab"])
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(f"malformed vocab in {path}: {e!r}") from e


def read_corpus(in_dir):
    vocab = read_vocab(os.path.join(in_dir, "vocab.json"))
    out = {}
    for split in SPLITS:
        path = os.path.join(in_dir, f"{split}.jsonl")
        if os.path.exists(path):
            out[split] = read_split(path, vocab)
    return vocab, out
