"""Offline metric tests: closed-form fixtures plus rank-invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaterank.errors import DegenerateLabelsError, NumericsError, ShapeError
from slaterank.generator import ProbMatrix
from slaterank.metrics import (
    EvalReport,
    auc,
    logloss,
    ndcg,
    ndcg_list,
    recall_at_k,
)
from slaterank.numerics import Tensor


def probs_of(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    rng = np.random.default_rng(0)
    return ProbMatrix(values=Tensor(values),
                      candidate_reps=Tensor(rng.normal(size=(n, 4))),
                      position_reps=Tensor(rng.normal(size=(m, 4))),
                      valid=valid)


# ------------------------------------------------------------------- AUC


def test_auc_endpoints():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0


def test_auc_three_quarters():
    # One of four positive/negative pairs is inverted.
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_ties_get_half_credit():
    assert auc([0.5, 0.5], [0, 1]) == 0.5
    assert auc([0.3, 0.3, 0.2, 0.9], [0, 1, 0, 1]) == 0.875
    assert auc([0.7, 0.7, 0.7, 0.7], [0, 1, 1, 0]) == 0.5


def test_auc_degenerate_labels():
    with pytest.raises(DegenerateLabelsError):
        auc([0.1, 0.9], [1, 1])
    with pytest.raises(DegenerateLabelsError):
        auc([0.1, 0.9], [0, 0])
    with pytest.raises(ShapeError):
        auc([0.1], [0, 1])
    with pytest.raises(ShapeError):
        auc([], [])


def test_auc_monotone_transform_fixture():
    scores = np.array([-3.0, -1.0, 0.5, 2.0, 4.0])
    labels = np.array([0, 1, 0, 1, 1])
    sig = 1.0 / (1.0 + np.exp(-scores))
    assert auc(scores, labels) == auc(sig, labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.booleans()),
                min_size=2, max_size=40))
def test_auc_scale_invariance(rows):
    scores = np.array([s for s, _ in rows])
    labels = np.array([int(b) for _, b in rows])
    if labels.min() == labels.max():
        return
    # Multiplying by a power of two is exact, so ties are preserved bit for bit.
    assert auc(scores, labels) == auc(4.0 * scores, labels)


def auc_by_tie_loop(scores, labels) -> float:
    """Reference AUC: walks the stably sorted scores and gives each run of
    equal scores its mean rank."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size)
    sorted_scores = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.1, -0.1, 0.5, 1.0, 1e300, np.nan]),
                          st.booleans()), min_size=2, max_size=60),
       st.integers(0, 2 ** 32 - 1))
def test_auc_matches_the_tie_loop_bit_for_bit(rows, seed):
    # few distinct values, so most scores share a tie group; -0.0 must tie
    # 0.0, and a NaN is refused, not ranked
    scores = np.array([s for s, _ in rows])
    labels = np.array([int(b) for _, b in rows])
    if np.isnan(scores).any():
        with pytest.raises(NumericsError):
            auc(scores, labels)
    elif labels.min() != labels.max():
        assert auc(scores, labels) == auc_by_tie_loop(scores, labels)
    rng = np.random.default_rng(seed)
    rounded = np.round(rng.normal(size=500), 1)
    coin = rng.integers(0, 2, size=500)
    coin[:2] = (0, 1)
    assert auc(rounded, coin) == auc_by_tie_loop(rounded, coin)


@pytest.mark.parametrize("metric", [auc, logloss, ndcg_list])
def test_a_non_finite_score_or_label_is_a_numerics_error(metric):
    # a NaN once read as a plausible AUC (0.667 here) and NDCG (0.5)
    with pytest.raises(NumericsError, match="finite"):
        metric([-0.0, np.nan, 0.3, np.nan], [0, 1, 0, 0])
    with pytest.raises(NumericsError, match="finite"):
        metric([0.1, np.inf, 0.3], [0, 1, 0])
    with pytest.raises(NumericsError, match="finite"):
        metric([0.1, 0.2, 0.3], [0, np.nan, 1])


# ---------------------------------------------------------------- LogLoss


def test_logloss_values():
    assert abs(logloss([0.5, 0.5], [0, 1]) - 0.6931471805599453) < 1e-15
    assert abs(logloss([0.9, 0.9], [1, 1]) - 0.10536051565782628) < 1e-15
    assert abs(logloss([0.8, 0.3], [1, 0]) - 0.2899092476264711) < 1e-15
    assert logloss([1.0, 0.0], [1, 0]) < 1e-11


def test_logloss_clamps_certain_mistake():
    assert abs(logloss([0.0], [1]) - 27.631021115928547) < 1e-9
    # 1 - (1 - 1e-12) rounds up to 1.0000889e-12, so this side is only close.
    assert abs(logloss([1.0], [0]) - 27.631021115928547) < 1e-3


# ------------------------------------------------------------------ NDCG


def test_ndcg_ideal_ranking():
    assert ndcg_list([0.9, 0.5, 0.1], [1, 1, 0]) == 1.0
    assert ndcg_list([0.9, 0.5, 0.1], [1, 0, 0]) == 1.0


def test_ndcg_single_inversion():
    got = ndcg_list([0.2, 0.9], [1, 0])
    assert abs(got - 0.6309297535714575) < 1e-15


def test_ndcg_graded_gains():
    got = ndcg_list([0.9, 0.8, 0.7], [3, 1, 2])
    assert abs(got - 0.9725044904464192) < 1e-15


def test_ndcg_skips_zero_label_lists():
    assert ndcg_list([0.4, 0.6], [0, 0]) is None
    combined, skipped = ndcg([[0.9, 0.1], [0.6, 0.4]], [[0, 0], [0, 1]])
    assert abs(combined - 0.6309297535714575) < 1e-15
    assert skipped == 1
    with pytest.raises(DegenerateLabelsError):
        ndcg([[0.9], [0.5]], [[0], [0]])


def test_ndcg_ties_resolve_by_input_order():
    # Stable sort keeps the first-listed item first when scores tie.
    got = ndcg_list([0.5, 0.5], [0, 1])
    assert abs(got - 0.6309297535714575) < 1e-15
    assert ndcg_list([0.5, 0.5], [1, 0]) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
def test_ndcg_bounded_by_one(scores):
    labels = [1 if i % 3 == 0 else 0 for i in range(len(scores))]
    got = ndcg_list(scores, labels)
    assert got is not None
    assert 0.0 <= got <= 1.0 + 1e-12


# ------------------------------------------------------------- Recall@k


def test_recall_perfect_and_full():
    values = np.zeros((8, 3))
    values[2, 0] = values[5, 1] = values[7, 2] = 1.0
    pm = probs_of(values)
    assert recall_at_k(pm, (2, 5, 7), 3) == 1.0
    # k = n always recovers everything.
    rng = np.random.default_rng(1)
    pm = probs_of(rng.random((8, 3)))
    assert recall_at_k(pm, (0, 3, 6), 8) == 1.0


def test_recall_counts_hits():
    values = np.zeros((6, 2))
    values[1, 0] = 0.9
    values[4, 1] = 0.8
    pm = probs_of(values)
    assert recall_at_k(pm, (1, 2), 2) == 0.5


def test_recall_random_baseline():
    # Uniformly random rankings recover k/n of the slate on average.
    rng = np.random.default_rng(7)
    exposed = tuple(range(6))
    total = 0.0
    trials = 10_000
    for _ in range(trials):
        pm = probs_of(rng.random((60, 6)))
        total += recall_at_k(pm, exposed, 6)
    mean = total / trials
    assert abs(mean - 0.1) < 0.005


def test_recall_monotone_in_k():
    rng = np.random.default_rng(3)
    pm = probs_of(rng.random((20, 6)))
    exposed = (0, 4, 8, 12, 16, 19)
    values = [recall_at_k(pm, exposed, k) for k in range(1, 21)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_recall_respects_padding_and_bounds():
    values = np.zeros((6, 2))
    values[3, 0] = 1.0
    values[1, 1] = 0.9
    valid = np.array([True] * 4 + [False] * 2)
    pm = probs_of(values, valid=valid)
    assert recall_at_k(pm, (3, 1), 2) == 1.0
    with pytest.raises(ShapeError):
        recall_at_k(pm, (3, 1), 5)
    with pytest.raises(ShapeError):
        recall_at_k(pm, (3, 1), 0)


# -------------------------------------------------------------- reports


def test_report_csv_round_trip():
    report = EvalReport(auc=0.875, logloss=0.2899092476264711,
                        ndcg=0.6309297535714575, recall={1: 0.5, 6: 1.0},
                        num_requests=10, num_lists=10, num_skipped=2)
    assert report.csv_header() == ("auc,logloss,ndcg,recall@1,recall@6,"
                                   "num_requests,num_lists,num_skipped")
    row = report.csv_row()
    assert row == "0.875,0.2899092476264711,0.6309297535714575,0.5,1.0,10,10,2"
    assert report.to_csv() == report.csv_header() + "\n" + row + "\n"
    # repr round-trips doubles exactly.
    cells = row.split(",")
    assert float(cells[1]) == report.logloss
    assert float(cells[2]) == report.ndcg


def test_report_pretty_mentions_skips():
    report = EvalReport(auc=0.9, logloss=0.3, ndcg=0.7, recall={6: 0.65},
                        num_requests=5, num_lists=5, num_skipped=1)
    text = report.pretty()
    assert "AUC      0.9000" in text
    assert "Recall@6 0.6500" in text
    assert "(4/5 lists)" in text
