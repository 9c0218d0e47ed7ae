"""Levenshtein alignment with substitution/deletion/insertion decomposition.

Unit costs throughout; traceback ties break match > sub > del > ins, which
fixes the S/D/I decomposition (total distance is tie-independent, the
decomposition is not).
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass

import numpy as np

from .errors import ContractError


@dataclass
class EditCounts:
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    def __add__(self, other):
        return EditCounts(*(a + b for a, b in zip(astuple(self), astuple(other))))


@dataclass
class AlignmentOp:
    op: str  # match | sub | del | ins
    ref_pos: int | None
    hyp_pos: int | None
    ref_tok: int | None
    hyp_tok: int | None


def align_edit(ref, hyp):
    """Minimal-cost alignment of ``hyp`` against ``ref``.

    Returns (EditCounts, path). The path is ordered by reference position.
    """
    ref, hyp = list(ref), list(hyp)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            dist[i, j] = min(
                dist[i - 1, j - 1] + (0 if same else 1),
                dist[i - 1, j] + 1,
                dist[i, j - 1] + 1,
            )
    path = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dist[i, j] == dist[i - 1, j - 1]:
            path.append(AlignmentOp("match", i - 1, j - 1, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + 1:
            path.append(AlignmentOp("sub", i - 1, j - 1, ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            path.append(AlignmentOp("del", i - 1, None, ref[i - 1], None))
            i = i - 1
        else:
            path.append(AlignmentOp("ins", None, j - 1, None, hyp[j - 1]))
            j = j - 1
    path.reverse()
    counts = counts_from_path(path, n)
    if counts.substitutions + counts.deletions + counts.insertions != int(dist[n, m]):
        raise ContractError(
            f"alignment path of cost {counts.substitutions + counts.deletions + counts.insertions}"
            f" does not match the edit distance {int(dist[n, m])}"
        )
    return counts, path


def counts_from_path(path, ref_len):
    s = sum(1 for op in path if op.op == "sub")
    d = sum(1 for op in path if op.op == "del")
    i = sum(1 for op in path if op.op == "ins")
    return EditCounts(s, d, i, ref_len)


def wer(counts):
    """(S + D + I) / N; may exceed 1.0 under heavy insertion."""
    if counts.ref_len <= 0:
        raise ContractError("WER undefined for empty reference (N=0)")
    return (counts.substitutions + counts.deletions + counts.insertions) / counts.ref_len


@dataclass
class Breakdown:
    homophone_substitutions: int = 0
    other_substitutions: int = 0
    distractor_insertions: int = 0
    other_insertions: int = 0

    def as_dict(self):
        return asdict(self)


def error_breakdown(paths, vocab):
    """Classify substitutions (within-homophone-group or other) and
    insertions (distractor-token or other) over a set of alignment paths."""
    b = Breakdown()
    for path in paths:
        for op in path:
            if op.op == "sub":
                if vocab.same_group(op.ref_tok, op.hyp_tok):
                    b.homophone_substitutions += 1
                else:
                    b.other_substitutions += 1
            elif op.op == "ins":
                if vocab.is_background(op.hyp_tok):
                    b.distractor_insertions += 1
                else:
                    b.other_insertions += 1
    return b
