"""Edit-distance alignment against an exhaustive recursive oracle."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmasr.data import CorpusConfig, build_vocab
from mmasr.errors import ContractError
from mmasr.metrics import (
    AlignmentOp,
    EditCounts,
    align_edit,
    counts_from_path,
    error_breakdown,
    wer,
)


@lru_cache(maxsize=None)
def _edit_recursive(ref, hyp):
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    sub = _edit_recursive(ref[1:], hyp[1:]) + (0 if ref[0] == hyp[0] else 1)
    dele = _edit_recursive(ref[1:], hyp) + 1
    ins = _edit_recursive(ref, hyp[1:]) + 1
    return min(sub, dele, ins)


def test_identity_alignment():
    counts, path = align_edit([1, 2, 3], [1, 2, 3])
    assert counts == EditCounts(0, 0, 0, 3)
    assert [op.op for op in path] == ["match"] * 3
    assert wer(counts) == 0.0


def test_single_substitution():
    counts, path = align_edit([1, 2, 3], [1, 9, 3])
    assert counts == EditCounts(1, 0, 0, 3)
    assert path[1].op == "sub"
    assert path[1].ref_tok == 2
    assert path[1].hyp_tok == 9
    assert wer(counts) == pytest.approx(1.0 / 3.0)


def test_pure_deletion_and_insertion():
    counts, _ = align_edit([1, 2, 3], [1, 3])
    assert counts == EditCounts(0, 1, 0, 3)
    counts, _ = align_edit([1, 3], [1, 2, 3])
    assert counts == EditCounts(0, 0, 1, 2)


def test_oracle_sampled_pairs():
    rng = np.random.default_rng(55)
    for _ in range(300):
        ref = tuple(int(t) for t in rng.integers(1, 4, rng.integers(0, 6)))
        hyp = tuple(int(t) for t in rng.integers(1, 4, rng.integers(0, 6)))
        if not ref:
            continue
        counts, _ = align_edit(list(ref), list(hyp))
        total = counts.substitutions + counts.deletions + counts.insertions
        assert total == _edit_recursive(ref, hyp)


def test_symmetry_swaps_deletions_and_insertions():
    rng = np.random.default_rng(56)
    for _ in range(100):
        ref = [int(t) for t in rng.integers(1, 4, rng.integers(1, 6))]
        hyp = [int(t) for t in rng.integers(1, 4, rng.integers(1, 6))]
        a, _ = align_edit(ref, hyp)
        b, _ = align_edit(hyp, ref)
        assert a.substitutions == b.substitutions
        assert a.deletions == b.insertions
        assert a.insertions == b.deletions


def test_decomposition_is_deterministic():
    ref, hyp = [1, 2, 2, 3, 1], [2, 2, 1, 1]
    runs = [align_edit(ref, hyp) for _ in range(5)]
    first_ops = [(op.op, op.ref_pos, op.hyp_pos) for op in runs[0][1]]
    for counts, path in runs[1:]:
        assert counts == runs[0][0]
        assert [(op.op, op.ref_pos, op.hyp_pos) for op in path] == first_ops


def test_counts_from_path_consistency():
    rng = np.random.default_rng(57)
    for _ in range(50):
        ref = [int(t) for t in rng.integers(1, 4, rng.integers(1, 6))]
        hyp = [int(t) for t in rng.integers(1, 4, rng.integers(0, 6))]
        counts, path = align_edit(ref, hyp)
        assert counts_from_path(path, len(ref)) == counts
        assert sum(1 for op in path if op.op in ("match", "sub", "del")) == len(ref)
        assert sum(1 for op in path if op.op in ("match", "sub", "ins")) == len(hyp)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=6),
       st.lists(st.integers(1, 3), max_size=6))
@settings(max_examples=100, deadline=None)
def test_distance_bounds_property(ref, hyp):
    counts, _ = align_edit(ref, hyp)
    total = counts.substitutions + counts.deletions + counts.insertions
    assert abs(len(ref) - len(hyp)) <= total <= max(len(ref), len(hyp))


def test_wer_values_and_contract():
    assert wer(EditCounts(1, 1, 1, 3)) == 1.0
    assert wer(EditCounts(0, 0, 4, 2)) == 2.0  # can exceed 1 under insertion
    with pytest.raises(ContractError):
        wer(EditCounts(0, 0, 0, 0))


def test_published_error_rates_imply_consistent_corpus_size():
    # Four error-count rows over the same test set; each (S + D + I) / WER
    # estimate of N must land within 1% of 1.5e5.
    rows = [
        (3851, 1697, 437, 0.0399),
        (3322, 1703, 430, 0.03634),
        (2889, 1705, 444, 0.03362),
        (1967, 1701, 475, 0.02754),
    ]
    target = 1.5e5
    for s, d, i, rate in rows:
        implied = (s + d + i) / rate
        assert abs(implied - target) / target < 0.01


def _breakdown_vocab():
    cfg = CorpusConfig(v=10, n_groups=2, group_size=2, n_background=4, d_in=4,
                       n_train=1, n_valid=1, n_test=1, seed=3)
    return build_vocab(cfg)


def test_error_breakdown_classification():
    vocab = _breakdown_vocab()
    g = vocab.groups[0]
    bg = vocab.background_range[0]
    other = next(t for t in range(1, 11) if vocab.group_of(t) is None)
    path = [
        AlignmentOp("sub", 0, 0, g[0], g[1]),       # homophone confusion
        AlignmentOp("sub", 1, 1, g[0], other),      # unrelated substitution
        AlignmentOp("ins", None, 2, None, bg),      # distractor leaked in
        AlignmentOp("ins", None, 3, None, other),   # ordinary insertion
        AlignmentOp("match", 2, 4, other, other),
        AlignmentOp("del", 3, None, g[1], None),
    ]
    b = error_breakdown([path], vocab)
    assert b.as_dict() == {
        "homophone_substitutions": 1,
        "other_substitutions": 1,
        "distractor_insertions": 1,
        "other_insertions": 1,
    }


def test_error_breakdown_sums_over_paths():
    vocab = _breakdown_vocab()
    g = vocab.groups[1]
    path = [AlignmentOp("sub", 0, 0, g[0], g[1])]
    b = error_breakdown([path, path, path], vocab)
    assert b.homophone_substitutions == 3


def test_align_edit_checks_its_path_without_assert(monkeypatch):
    # The path/distance agreement must hold under python -O as well.
    import mmasr.metrics as metrics

    monkeypatch.setattr(metrics, "counts_from_path",
                        lambda path, n: EditCounts(0, 0, 0, n))
    with pytest.raises(ContractError, match="edit distance"):
        metrics.align_edit([1, 2], [2])
