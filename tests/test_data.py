"""Synthetic corpus generator: determinism, statistics, and file format."""

import base64
import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from mmasr.data import (
    CorpusConfig,
    build_vocab,
    corrupt_to_ocr,
    featurize,
    gen_corpus,
    gen_utterance,
    read_corpus,
    read_split,
    read_vocab,
    write_corpus,
    write_split,
)
from mmasr.errors import ConfigError, CorpusFormatError, VocabError

SMALL = CorpusConfig(v=10, n_groups=2, group_size=2, n_background=4, d_in=4,
                     n_train=20, n_valid=5, n_test=5, seed=7)


def test_generation_is_deterministic():
    v1, s1 = gen_corpus(SMALL)
    v2, s2 = gen_corpus(SMALL)
    assert np.array_equal(v1.prototypes, v2.prototypes)
    assert v1.groups == v2.groups
    for split in s1:
        assert s1[split] == s2[split]


def test_seed_changes_everything():
    _, s1 = gen_corpus(SMALL)
    _, s2 = gen_corpus(dataclasses.replace(SMALL, seed=8))
    assert s1["train"][0] != s2["train"][0]


def test_utterances_independent_of_other_splits():
    # Seed isolation: an utterance depends only on (seed, split, index).
    a = gen_utterance(SMALL, build_vocab(SMALL), "test", 3)
    big = dataclasses.replace(SMALL, n_train=50)
    b = gen_utterance(big, build_vocab(big), "test", 3)
    assert a == b


def test_vocab_layout_and_groups():
    vocab = build_vocab(SMALL)
    assert vocab.text_vocab_size == 1 + 2 * 10 + 4
    assert vocab.background_range == (11, 14)
    assert vocab.synonym_offset == 14
    grouped = [t for g in vocab.groups for t in g]
    assert len(set(grouped)) == 4
    assert all(1 <= t <= 10 for t in grouped)
    for g in vocab.groups:
        a, b = g[0], g[1]
        assert vocab.same_group(a, b)
        assert not vocab.same_group(a, a)
        assert np.array_equal(vocab.prototype_for(a), vocab.prototype_for(b))


def test_prototypes_respect_margin():
    vocab = build_vocab(SMALL)
    d = np.linalg.norm(vocab.prototypes[:, None] - vocab.prototypes[None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() >= SMALL.prototype_margin


def test_zero_noise_audio_reconstructs_nearest_prototype():
    cfg = dataclasses.replace(SMALL, noise_sigma=0.0)
    vocab = build_vocab(cfg)
    rng = np.random.default_rng(0)
    tokens, durations = [3, 7, 1], [2, 1, 3]
    audio = featurize(tokens, vocab, durations, 0.0, rng)
    pos = 0
    for tok, dur in zip(tokens, durations):
        for _ in range(dur):
            dist = np.linalg.norm(vocab.prototypes - audio[pos], axis=1)
            assert int(np.argmin(dist)) == int(vocab.token_sound[tok])
            pos += 1


def test_zero_noise_homophones_bitwise_identical():
    cfg = dataclasses.replace(SMALL, noise_sigma=0.0)
    vocab = build_vocab(cfg)
    a, b = vocab.groups[0][0], vocab.groups[0][1]
    rng = np.random.default_rng(0)
    fa = featurize([a], vocab, [3], 0.0, rng)
    fb = featurize([b], vocab, [3], 0.0, rng)
    assert fa.tobytes() == fb.tobytes()


def test_noisy_audio_mean_approaches_prototype():
    vocab = build_vocab(SMALL)
    rng = np.random.default_rng(3)
    audio = featurize([5], vocab, [4000], 0.3, rng)
    proto = vocab.prototype_for(5)
    assert np.max(np.abs(audio.mean(axis=0) - proto)) < 0.05


def test_featurize_rejects_zero_duration():
    vocab = build_vocab(SMALL)
    with pytest.raises(ConfigError):
        featurize([1], vocab, [0], 0.0, np.random.default_rng(0))


def test_featurize_rejects_no_tokens_and_unmatched_durations():
    vocab = build_vocab(SMALL)
    for tokens, durations in (([], []), ([1, 2], [3])):
        with pytest.raises(ConfigError):
            featurize(tokens, vocab, durations, 0.3, np.random.default_rng(0))


def test_featurize_rejects_ids_outside_the_content_vocabulary():
    vocab = build_vocab(SMALL)
    for tokens in ([0], [-1], [1, SMALL.v + 1], [2, -SMALL.v]):
        with pytest.raises(VocabError):
            featurize(tokens, vocab, [2] * len(tokens), 0.3, np.random.default_rng(0))
    assert featurize([1, SMALL.v], vocab, [2, 2], 0.0, None).shape == (4, SMALL.d_in)


def _featurize_per_token(tokens, vocab, durations, noise_sigma, rng):
    """The per-token synthesis that ``featurize`` replaced, kept as an
    oracle: one tile, one draw and one add per token, then a concatenate."""
    rows = []
    for tok, dur in zip(tokens, durations):
        block = np.tile(vocab.prototype_for(tok), (dur, 1))
        if noise_sigma > 0.0:
            block = block + rng.normal(0.0, noise_sigma, block.shape)
        rows.append(block)
    return np.concatenate(rows, axis=0).astype("<f4")


@pytest.mark.parametrize("sigma", [0.0, 0.3, 2.5])
def test_featurize_matches_the_per_token_oracle(sigma):
    """Bitwise the same audio, and the generator left in the same state."""
    vocab = build_vocab(SMALL)
    pick = np.random.default_rng(21)
    cases = [([5], [4000]), ([2, 9], [1, 4000])]
    cases += [(pick.integers(1, SMALL.v + 1, n).tolist(), pick.integers(1, 9, n).tolist())
              for n in pick.integers(1, 12, 40)]
    for seed, (tokens, durations) in enumerate(cases):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = featurize(tokens, vocab, durations, sigma, got_rng)
        want = _featurize_per_token(tokens, vocab, durations, sigma, want_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (tokens, durations)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_uint32_seed_words_give_the_list_state():
    for words in ([0, 1, 0], [2024, 3, 199], [2**32 - 1, 2, 2**32 - 1]):
        array = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        assert np.array_equal(array.generate_state(8), np.random.SeedSequence(words).generate_state(8))


def _corpus_digest(cfg, out_dir):
    vocab, splits = gen_corpus(cfg)
    write_corpus(str(out_dir), vocab, splits, cfg)
    h = hashlib.sha256()
    for name in ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("cfg, digest", [
    (CorpusConfig(seed=2024),
     "e94bacbabf0b036486b4503e2d1110f8a9658b19bada7cdd569c9d9ac2710192"),
    # A seed of 2**32 or more seeds from the list of its 32-bit words.
    (CorpusConfig(seed=2**40, n_train=50, n_valid=10, n_test=10),
     "d61052f042dff3eeae21b73636f8efe121ffbffe572ff386c5fd5cfbed2f48fa"),
])
def test_corpus_bytes_are_pinned(cfg, digest, tmp_path):
    """sha256 of the files ``write_corpus`` writes, concatenated in this
    order, as the per-token synthesis wrote them: the corpus of a seed never
    changes."""
    assert _corpus_digest(cfg, tmp_path) == digest


def test_ocr_identity_corruption():
    cfg = dataclasses.replace(SMALL, p_ocr_drop=0.0, p_ocr_paraphrase=0.0,
                              n_distractors=0)
    vocab = build_vocab(cfg)
    ref = [1, 5, 3]
    assert corrupt_to_ocr(ref, cfg, vocab, np.random.default_rng(0)) == ref


def test_ocr_full_drop_leaves_only_distractors():
    cfg = dataclasses.replace(SMALL, p_ocr_drop=1.0, n_distractors=5)
    vocab = build_vocab(cfg)
    out = corrupt_to_ocr([1, 2, 3], cfg, vocab, np.random.default_rng(0))
    assert len(out) == 5
    lo, hi = vocab.background_range
    assert all(lo <= t <= hi for t in out)
    empty_cfg = dataclasses.replace(cfg, n_distractors=0)
    assert corrupt_to_ocr([1, 2, 3], empty_cfg, vocab, np.random.default_rng(0)) == []


def test_ocr_single_token_verbatim_or_synonym_never_sibling():
    cfg = dataclasses.replace(SMALL, p_ocr_drop=0.3, p_ocr_paraphrase=0.5,
                              n_distractors=0)
    vocab = build_vocab(cfg)
    rng = np.random.default_rng(11)
    for tok in range(1, cfg.v + 1):
        for _ in range(20):
            out = corrupt_to_ocr([tok], cfg, vocab, rng)
            assert out in ([], [tok], [vocab.synonym(tok)])


def test_ocr_is_ordered_subsequence_of_ref_or_synonyms():
    cfg = dataclasses.replace(SMALL, p_ocr_drop=0.3, p_ocr_paraphrase=0.5,
                              n_distractors=0)
    vocab = build_vocab(cfg)
    rng = np.random.default_rng(12)
    for _ in range(200):
        ref = [int(t) for t in rng.integers(1, cfg.v + 1, 6)]
        out = corrupt_to_ocr(ref, cfg, vocab, rng)
        j = 0
        for tok in out:
            while j < len(ref) and tok not in (ref[j], vocab.synonym(ref[j])):
                j += 1
            assert j < len(ref), (ref, out)
            j += 1


def test_ocr_drop_rate_matches_binomial():
    cfg = dataclasses.replace(SMALL, p_ocr_drop=0.2, p_ocr_paraphrase=0.0,
                              n_distractors=0)
    vocab = build_vocab(cfg)
    rng = np.random.default_rng(4)
    n_ref, kept = 0, 0
    for _ in range(2000):
        ref = [int(t) for t in rng.integers(1, cfg.v + 1, 6)]
        kept += len(corrupt_to_ocr(ref, cfg, vocab, rng))
        n_ref += len(ref)
    assert abs(kept / n_ref - 0.8) < 0.02


def test_ocr_is_flat_token_list():
    vocab, splits = gen_corpus(SMALL)
    for utt in splits["train"]:
        assert all(isinstance(t, int) for t in utt.ocr)
        assert all(1 <= t < vocab.text_vocab_size for t in utt.ocr)


def test_roundtrip_byte_exact(tmp_path):
    vocab, splits = gen_corpus(SMALL)
    write_corpus(str(tmp_path), vocab, splits, SMALL)
    vocab2, splits2 = read_corpus(str(tmp_path))
    assert vocab2.to_json() == vocab.to_json()
    for split in splits:
        assert splits2[split] == splits[split]
    # a second write of what was read back is byte-identical
    out2 = tmp_path / "again"
    write_corpus(str(out2), vocab2, splits2, SMALL)
    for name in ("vocab.json", "train.jsonl", "valid.jsonl", "test.jsonl"):
        assert (tmp_path / name).read_bytes() == (out2 / name).read_bytes()


def test_roundtrip_empty_split(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_split(str(path), [])
    assert read_split(str(path), build_vocab(SMALL)) == []


def test_vocab_format_version_checked(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps({"format_version": 99, "vocab": {}}))
    with pytest.raises(CorpusFormatError):
        read_vocab(str(path))
    path.write_text("{not json")
    with pytest.raises(CorpusFormatError):
        read_vocab(str(path))


def _mutate(line, rng):
    choice = rng.randrange(7)
    if choice == 0:
        return line[: rng.randrange(max(len(line), 1))]  # truncate
    if choice == 1:
        pos = rng.randrange(max(len(line) - 1, 1))
        return line[:pos] + chr(rng.randrange(32, 127)) + line[pos + 1 :]
    if choice == 2:
        rec = json.loads(line)
        rec.pop(rng.choice(sorted(rec)), None)
        return json.dumps(rec)
    if choice == 3:
        rec = json.loads(line)
        rec["frames"] = rec["frames"][:-8]
        return json.dumps(rec)
    if choice == 4:
        rec = json.loads(line)
        rec["durations"] = rec["durations"][:-1]
        return json.dumps(rec)
    if choice == 5:
        rec = json.loads(line)
        rec["ref"] = "not a list"
        return json.dumps(rec)
    rec = json.loads(line)
    rec["frames"] = "####"
    return json.dumps(rec)


def test_malformed_record_fuzzing_never_crashes(tmp_path):
    vocab, splits = gen_corpus(SMALL)
    write_split(str(tmp_path / "base.jsonl"), splits["test"][:3])
    lines = (tmp_path / "base.jsonl").read_text().splitlines()
    rng = random.Random(123)
    failures = 0
    for i in range(120):
        mutated = _mutate(rng.choice(lines), rng)
        if not mutated.strip():
            continue
        path = tmp_path / f"fuzz{i}.jsonl"
        path.write_text(mutated + "\n")
        try:
            read_split(str(path), vocab)
        except CorpusFormatError:
            failures += 1
    # a mutation can occasionally stay valid JSON with consistent fields,
    # but the overwhelming majority must be caught as structured errors
    assert failures >= 100


def test_corpus_format_error_names_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"}\n')
    with pytest.raises(CorpusFormatError, match="record 1"):
        read_split(str(path), build_vocab(SMALL))


@pytest.mark.parametrize("field, value", [
    ("ref", [True]),  # JSON true is not a token id, though bool subclasses int
    ("ocr", [1, False]),
    ("ref", [0]),  # the blank id is never spoken
    ("ref", [SMALL.v + 1]),  # a background id is never spoken
    ("ocr", [0]),
    ("ocr", [2 * SMALL.v + SMALL.n_background + 1]),
    ("ocr", [-3]),
])
def test_token_ids_are_typed_and_in_range(tmp_path, field, value):
    vocab, splits = gen_corpus(SMALL)
    write_split(str(tmp_path / "base.jsonl"), splits["valid"][:2])
    lines = (tmp_path / "base.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value
    if field == "ref":  # keep durations and frames consistent with the new ref
        rec["durations"] = [1] * len(value)
        rec["frames"] = base64.b64encode(
            np.zeros((len(value), SMALL.d_in), dtype="<f4").tobytes()).decode("ascii")
    path = tmp_path / "bad.jsonl"
    path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(CorpusFormatError, match="record 2"):
        read_split(str(path), vocab)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_are_a_corpus_error(tmp_path, bad):
    vocab, splits = gen_corpus(SMALL)
    utt = dataclasses.replace(splits["valid"][1], audio=splits["valid"][1].audio.copy())
    utt.audio[-1, 2] = bad
    write_split(str(tmp_path / "bad.jsonl"), [splits["valid"][0], utt])
    with pytest.raises(CorpusFormatError, match="record 2: .*non-finite"):
        read_split(str(tmp_path / "bad.jsonl"), vocab)


def test_a_repeated_utterance_id_is_a_corpus_error(tmp_path):
    vocab, splits = gen_corpus(SMALL)
    first, second = splits["valid"][:2]
    write_split(str(tmp_path / "dup.jsonl"), [first, dataclasses.replace(second, uid=first.uid)])
    with pytest.raises(CorpusFormatError, match=f"record 2: .*{first.uid}.*repeats"):
        read_split(str(tmp_path / "dup.jsonl"), vocab)


def _vocab_meta():
    return {"format_version": 1, "vocab": build_vocab(SMALL).to_json()}


def _set(path, value):
    def change(meta):
        target = meta
        for key in path[:-1]:
            target = target[key]
        if value is KeyError:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return meta
    return change


@pytest.mark.parametrize("mutate", [
    lambda meta: [meta],  # a top-level list
    _set(("vocab",), KeyError),
    _set(("vocab",), [1, 2]),
    _set(("vocab", "size"), "x"),
    _set(("vocab", "size"), True),
    _set(("vocab", "size"), 0),
    _set(("vocab", "n_background"), 2.5),
    _set(("vocab", "groups"), [[1, 99]]),
    _set(("vocab", "groups"), {"a": 1}),
    _set(("vocab", "prototypes"), [[1.0, 2.0], [3.0]]),
    _set(("vocab", "prototypes"), [1.0, 2.0]),
    _set(("vocab", "prototypes"), "x"),
    _set(("vocab", "token_sound"), [0, 1]),
    _set(("vocab", "token_sound"), [0.5] * (SMALL.v + 1)),
    _set(("vocab", "token_sound"), [10**6] * (SMALL.v + 1)),
    _set(("vocab", "token_sound"), KeyError),
])
def test_malformed_vocab_is_a_corpus_format_error(tmp_path, mutate):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(_vocab_meta()))
    assert read_vocab(str(path)).to_json() == build_vocab(SMALL).to_json()
    path.write_text(json.dumps(mutate(_vocab_meta())))
    with pytest.raises(CorpusFormatError):
        read_vocab(str(path))


def test_extreme_valid_ids_are_accepted(tmp_path):
    vocab, splits = gen_corpus(SMALL)
    utt = dataclasses.replace(splits["valid"][0])
    utt.ref = [1, SMALL.v] + utt.ref[2:]
    utt.ocr = [1, 2 * SMALL.v + SMALL.n_background]
    write_split(str(tmp_path / "edge.jsonl"), [utt])
    assert read_split(str(tmp_path / "edge.jsonl"), vocab) == [utt]


@pytest.mark.parametrize("changes", [
    {"n_train": -5}, {"n_train": True}, {"n_train": 2.5}, {"seed": -1},
    {"seed": 1.0}, {"v": 0, "n_groups": 0}, {"d_in": 0}, {"n_test": None},
    {"n_distractors": -1}, {"sent_len_max": "8"}, {"duration_min": 0},
    {"noise_sigma": -1.0}, {"noise_sigma": "x"}, {"noise_sigma": float("nan")},
    {"noise_sigma": float("inf")}, {"noise_sigma": True}, {"prototype_margin": -0.5},
    {"p_ocr_drop": "x"}, {"p_ocr_paraphrase": float("nan")},
])
def test_config_rejects_what_it_cannot_generate(changes):
    with pytest.raises(ConfigError):
        CorpusConfig(**changes)


def test_gen_utterance_rejects_an_unknown_split_or_index():
    vocab = build_vocab(SMALL)
    with pytest.raises(ConfigError, match="split"):
        gen_utterance(SMALL, vocab, "dev", 0)
    for index in (-1, 1.0, True):
        with pytest.raises(ConfigError, match="index"):
            gen_utterance(SMALL, vocab, "train", index)


def test_config_validation():
    with pytest.raises(ConfigError):
        CorpusConfig(p_ocr_drop=1.5)
    with pytest.raises(ConfigError):
        CorpusConfig(n_groups=4, group_size=1)
    with pytest.raises(ConfigError):
        CorpusConfig(v=5, n_groups=3, group_size=2)
    with pytest.raises(ConfigError):
        CorpusConfig(duration_min=3, duration_max=2)
    with pytest.raises(ConfigError):
        CorpusConfig(sent_len_min=0)


def test_utterance_ids_and_durations():
    _, splits = gen_corpus(SMALL)
    utt = splits["valid"][2]
    assert utt.uid == "valid-00002"
    assert utt.audio.shape == (sum(utt.durations), SMALL.d_in)
    assert utt.audio.dtype == np.dtype("<f4")
    assert len(utt.ref) == len(utt.durations)
    assert SMALL.sent_len_min <= len(utt.ref) <= SMALL.sent_len_max
