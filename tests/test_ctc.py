"""CTC forward recursion against the path-enumeration oracle."""

import math

import numpy as np
import pytest

from mmasr import tensor as tn
from mmasr.ctc import (
    BLANK,
    check_feasible,
    collapse,
    count_repeats,
    ctc_brute_force,
    ctc_loss,
)
from mmasr.errors import FeasibilityError, NumericError, OracleSizeError
from mmasr.gradsuite import grad_check
from mmasr.tensor import Tensor

RNG = np.random.default_rng(99)


def rand_log_probs(t_len, v, rng=RNG):
    return tn.log_softmax_rows(Tensor(rng.standard_normal((t_len, v + 1))))


def test_single_frame_single_label():
    lp = rand_log_probs(1, 2)
    loss = ctc_loss(lp, [1]).item()
    assert abs(loss - (-lp.data[0, 1])) < 1e-12


def test_two_frame_enumeration_formula():
    lp = rand_log_probs(2, 2)
    # paths collapsing to [1]: (1,1), (blank,1), (1,blank)
    p = (math.exp(lp.data[0, 1] + lp.data[1, 1])
         + math.exp(lp.data[0, BLANK] + lp.data[1, 1])
         + math.exp(lp.data[0, 1] + lp.data[1, BLANK]))
    assert abs(ctc_loss(lp, [1]).item() + math.log(p)) < 1e-12


def test_uniform_probs_path_counting():
    # Uniform rows: likelihood is (#paths) / (V+1)^T.
    t_len, v = 4, 2
    lp = Tensor(np.full((t_len, v + 1), -math.log(v + 1)))
    labels = [1, 2]
    n_paths = 0
    import itertools
    for path in itertools.product(range(v + 1), repeat=t_len):
        if collapse(path) == labels:
            n_paths += 1
    expected = -(math.log(n_paths) - t_len * math.log(v + 1))
    assert abs(ctc_loss(lp, labels).item() - expected) < 1e-12


def test_empty_labels_all_blank():
    lp = rand_log_probs(2, 2)
    expected = -(lp.data[0, BLANK] + lp.data[1, BLANK])
    assert abs(ctc_loss(lp, []).item() - expected) < 1e-12


def test_infeasible_raises_and_oracle_agrees():
    lp = rand_log_probs(2, 2)
    with pytest.raises(FeasibilityError, match="T_len=2"):
        ctc_loss(lp, [1, 2, 1])
    assert ctc_brute_force(lp, [1, 2, 1]) == math.inf
    # repeats need a separating blank
    with pytest.raises(FeasibilityError):
        check_feasible(3, [1, 1, 2])
    assert count_repeats([1, 1, 2, 2, 2]) == 3


def test_oracle_equivalence_random_cases():
    rng = np.random.default_rng(5150)
    checked = 0
    while checked < 60:
        t_len = int(rng.integers(1, 7))
        v = int(rng.integers(1, 4))
        u = int(rng.integers(0, 4))
        labels = [int(x) for x in rng.integers(1, v + 1, u)]
        if t_len < len(labels) + count_repeats(labels):
            continue
        lp = rand_log_probs(t_len, v, rng)
        assert abs(ctc_loss(lp, labels).item() - ctc_brute_force(lp, labels)) < 1e-9
        checked += 1


def test_gradient_check():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 3))
    for labels in ([1, 2], [], [1, 1], [2, 2, 1], [1]):
        f = lambda t: ctc_loss(tn.log_softmax_rows(t), labels)
        assert grad_check(f, x) < 1e-6, labels


def test_frame_content_matters():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    a = ctc_loss(tn.log_softmax_rows(Tensor(x)), [1, 2]).item()
    y = x[::-1].copy()
    b = ctc_loss(tn.log_softmax_rows(Tensor(y)), [1, 2]).item()
    assert a != b


def test_rejects_unnormalized_rows():
    with pytest.raises(NumericError):
        ctc_loss(Tensor(np.zeros((2, 3))), [1])


def test_the_exp_sum_check_is_absolute_1e_9():
    # A row that exp-sums to 1 + 1e-6 is outside 1e-9, with no relative slack;
    # one off by 1e-10 is inside.
    lp = rand_log_probs(3, 2)
    for shift, ok in ((math.log1p(1e-6), False), (math.log1p(1e-10), True)):
        shifted = lp.data.copy()
        shifted[1] += shift
        if ok:
            ctc_loss(Tensor(shifted), [1])
        else:
            with pytest.raises(NumericError, match="exp-sum"):
                ctc_loss(Tensor(shifted), [1])


def test_float32_logits_pass_the_unchanged_check_in_float64():
    """log_softmax_rows of float32 logits is float64, so the CTC loss of a
    float32 model passes the 1e-9 exp-sum check: the loss is bitwise that
    of the same logits in float64, and the logits' gradient is float32, the
    float64 one rounded."""
    logits = RNG.standard_normal((2, 7, 5)).astype(np.float32)
    narrow, wide = Tensor(logits), Tensor(logits.astype(np.float64))
    losses = []
    for x in (narrow, wide):
        log_probs = tn.log_softmax_rows(x)
        assert log_probs.data.dtype == np.float64
        loss = ctc_loss(log_probs, [[1, 2], [3]], [7, 5])
        tn.sum_all(loss).backward()
        losses.append(loss.data.tobytes())
    assert losses[0] == losses[1]
    assert narrow.grad.dtype == np.float32
    assert narrow.grad.tobytes() == wide.grad.astype(np.float32).tobytes()


def test_greedy_collapse_rules():
    assert collapse([BLANK, BLANK]) == []
    assert collapse([1, 1, BLANK, 1]) == [1, 1]
    assert collapse([BLANK, 2, 2, BLANK, 2, 1]) == [2, 2, 1]


def test_oracle_size_bounds():
    lp = rand_log_probs(9, 2)
    with pytest.raises(OracleSizeError):
        ctc_brute_force(lp, [1])
    lp = rand_log_probs(3, 5)
    with pytest.raises(OracleSizeError):
        ctc_brute_force(lp, [1])


def test_padded_batch_matches_each_row_and_padding_gets_no_gradient():
    rng = np.random.default_rng(99)
    lengths, labels = [6, 2, 4, 3], [[1, 2, 2], [1], [], [2, 1]]
    x = rng.standard_normal((4, 6, 3))
    leaf = Tensor(x)
    losses = ctc_loss(tn.log_softmax_rows(leaf), labels, lengths)
    assert losses.shape == (4,)
    weights = rng.uniform(0.5, 1.5, 4)
    tn.sum_all(tn.mul(losses, Tensor(weights))).backward()
    for b, (n, row) in enumerate(zip(lengths, labels)):
        alone = Tensor(x[b, :n])
        loss = ctc_loss(tn.log_softmax_rows(alone), row)
        assert abs(losses.data[b] - loss.item()) < 1e-12 * abs(loss.item())
        tn.scale(loss, weights[b]).backward()
        assert np.max(np.abs(leaf.grad[b, :n] - alone.grad)) < 1e-12
        assert np.array_equal(leaf.grad[b, n:], np.zeros((6 - n, 3)))
