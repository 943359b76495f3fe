"""The one slate rule: every stage that takes a slate checks it through
`data.slate_indices`, so the same bad slate raises the same error class
wherever it enters. It is the only code that reads the type of a slate
index: a SlateSequence and a RequestBatch keep their indices as given, so a
bad slate in either form reaches the rule as it was made."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaterank.ar import ar_sequence_loss, init_ar_params
from slaterank.data import (
    ExposureLog,
    FeedbackMatrix,
    LogTable,
    RequestBatch,
    read_logs,
    slate_indices,
    write_logs,
)
from slaterank.decoding import SlateSequence
from slaterank.errors import EmptyCandidatesError, InvalidSlateError, ShapeError
from slaterank.evaluator import (
    EvaluatorConfig,
    init_evaluator_params,
    score_slate,
    score_slates,
    select_best,
)
from slaterank.generator import GeneratorConfig, forward, init_generator_params
from slaterank.metrics import recall_at_k
from slaterank.numerics import Tape
from slaterank.objectives import ce_loss, sequence_log_likelihood
from slaterank.simulator import World, WorldConfig, gen_request, oracle_click_probs

N, M = 5, 3
# suppression below 1 keeps every oracle probability in [0, 1]: no clamp warning
WORLD = World(WorldConfig(num_users=10, num_items=40, latent_dim=2, n_candidates=N,
                          posbias=(1.0, 0.8, 0.6), suppression=0.5, seed=1))
REQ = gen_request(WORLD, np.random.default_rng(4))
SHORTER = RequestBatch(request_id=1, user_id=0, item_ids=np.arange(N - 1),
                       features=REQ.features[:N - 1])
GEN = GeneratorConfig(n_max=N, m=M, d=8, h=2, L=1, d_x=WORLD.config.d_x, d_t=5, seed=2)
EV = EvaluatorConfig(d=8, h=2, d_x=WORLD.config.d_x, m=M, seed=3)
GOOD = (0, 1, 2)


def _logged(slate, req=REQ):
    return RequestBatch(request_id=0, user_id=req.user_id, item_ids=req.item_ids,
                        features=req.features, exposed=slate,
                        feedback=FeedbackMatrix(np.zeros((2, M)), ("click", "like")))


# REQ after a request padded from N - 1, both with the good slate
STACK = LogTable.of([ExposureLog(_logged(GOOD, SHORTER)), ExposureLog(_logged(GOOD))])


def _consumers():
    gen = init_generator_params(GEN)
    ar = init_ar_params(GEN)
    ev = init_evaluator_params(EV)
    return {
        "ExposureLog": lambda s: ExposureLog(_logged(s)),
        "ce_loss": lambda s: ce_loss(Tape(recording=False), forward(REQ, gen, GEN), s),
        # the bad slate sits on the request with all N candidates, after a
        # request padded from N - 1
        "ce_loss_stack": lambda s: ce_loss(Tape(recording=False),
                                           forward(STACK, gen, GEN), [GOOD, s]),
        "ar_sequence_loss": lambda s: ar_sequence_loss(_logged(s), ar, GEN, Tape()),
        "score_slate": lambda s: score_slate(REQ, s, ev, EV),
        "score_slates": lambda s: score_slates(REQ, [GOOD, s], ev, EV),
        "select_best": lambda s: select_best(REQ, [GOOD, s], ev, EV),
        "oracle_click_probs": lambda s: oracle_click_probs(WORLD, REQ, s),
        "recall_at_k": lambda s: recall_at_k(forward(REQ, gen, GEN), s, N),
        # the slate's log-probability score under the generator
        "slate_score": lambda s: sequence_log_likelihood(forward(REQ, gen, GEN), s),
    }


CONSUMERS = _consumers()
BAD = {
    "short": ((0, 1), ShapeError),
    "long": ((0, 1, 2, 3), ShapeError),
    "repeat": ((0, 1, 1), InvalidSlateError),
    "index_n": ((0, 1, N), InvalidSlateError),
    "index_minus_1": ((-1, 1, 2), InvalidSlateError),
    "float": ((0, 1.7, 2), InvalidSlateError),
    # np.array would read a bool among ints as 0 or 1
    "bool": ((0, True, 2), InvalidSlateError),
    "np_bool": ((0, np.True_, 2), InvalidSlateError),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_every_consumer_accepts_a_valid_slate(consumer):
    CONSUMERS[consumer]((2, 4, 0))


# the consumers of decoded slates, which get each case as a SlateSequence too
DECODED = ("score_slate", "score_slates", "select_best")


def _decoded(slate):
    return SlateSequence(slate, (0.5,) * len(slate), "greedy")


@pytest.mark.parametrize("consumer, case", itertools.product(CONSUMERS, BAD))
def test_one_rule_everywhere(consumer, case):
    slate, error = BAD[case]
    for form in [slate, _decoded(slate)] if consumer in DECODED else [slate]:
        with pytest.raises(error):
            CONSUMERS[consumer](form)


def test_a_slate_sequence_of_numpy_ints_picks_as_one_of_python_ints():
    ev = init_evaluator_params(EV)
    # more slates than the rule checks row by row, so the pool is screened at once
    rows = list(itertools.permutations(range(N), M))[::6]
    python = [_decoded(row) for row in rows]
    numpy_ints = [_decoded(np.array(row)) for row in rows]
    assert np.array_equal(score_slates(REQ, numpy_ints, ev, EV),
                          score_slates(REQ, python, ev, EV))
    best = select_best(REQ, numpy_ints, ev, EV)
    assert numpy_ints.index(best) == python.index(select_best(REQ, python, ev, EV))


def test_write_logs_writes_numpy_int_indices_as_json_integers(tmp_path):
    path = tmp_path / "log.jsonl"
    write_logs(path, [ExposureLog(_logged(np.array([2, 4, 0])))])
    assert json.loads(path.read_text())["exposed"] == [2, 4, 0]
    assert read_logs(path).exposed.tolist() == [[2, 4, 0]]


def test_rules_run_in_order_over_the_whole_pool():
    with pytest.raises(EmptyCandidatesError):
        slate_indices([], N, M)
    # a short slate anywhere is a ShapeError, even after one that repeats
    with pytest.raises(ShapeError):
        slate_indices([(0, 1, 1), (0, 1)], N, M)
    with pytest.raises(InvalidSlateError, match="not an integer"):
        slate_indices([(0, 1, N), (1, 1, 2), (0, 1.0, 2)], N, M)
    with pytest.raises(InvalidSlateError, match="repeats"):
        slate_indices([(0, 1, N), (1, 1, 2)], N, M)
    # a bool is not an index, in a sequence or an array, even where it fits
    with pytest.raises(InvalidSlateError, match="not an integer"):
        slate_indices([(1, 1, 2), (True, 0, 2)], N, M)
    with pytest.raises(InvalidSlateError, match="not an integer"):
        slate_indices([SlateSequence(GOOD, (0.5,) * M, "greedy"), (0, True, 2)], N, M)
    with pytest.raises(InvalidSlateError, match="not an integer"):
        slate_indices(np.array([[True, False, True]]), N, M)
    # one candidate count per slate
    with pytest.raises(InvalidSlateError, match="out of range"):
        slate_indices([(0, 1, 3), (0, 1, 3)], [4, 3], M)
    with pytest.raises(ShapeError):
        slate_indices([(0, 1, 2)], [4, 3], M)
    idx = slate_indices([(0, 1, 3), (np.int64(2), 0, 1)], [4, 3], M)
    assert idx.dtype == np.int64 and idx.tolist() == [[0, 1, 3], [2, 0, 1]]
    # an empty prefix is an empty float array to NumPy, not a float entry
    empty = slate_indices([()], N, 0)
    assert empty.dtype == np.int64 and empty.shape == (1, 0)
    # a non-numeric string keeps NumPy's error
    with pytest.raises(ValueError):
        slate_indices([(0, 1, "a")], N, M)


def test_an_integer_past_int64_is_out_of_range():
    # it used to read as "not an integer" (a float64 array) or escape as
    # NumPy's OverflowError (an object array)
    for big in (2 ** 63, 2 ** 64, -2 ** 70):
        for pool in [[(0, 1, big)], [GOOD] * 8 + [(0, 1, big)], [_decoded((0, 1, big))]]:
            with pytest.raises(InvalidSlateError,
                               match=rf"out of range for n={N}: \(0, 1, {big}\)"):
                slate_indices(pool, N, M)
    # the rules before the range rule still run over the whole pool first
    with pytest.raises(InvalidSlateError, match="repeats"):
        slate_indices([(0, 1, 2 ** 64), (1, 1, 2)], N, M)
    with pytest.raises(InvalidSlateError, match="not an integer"):
        slate_indices([(0, 1, 2 ** 63), (0, 1.5, 2)], N, M)
    # with no entry that fits int64 the array is uint64, which used to wrap
    # 2 ** 63 to -2 ** 63 in the message
    with pytest.raises(InvalidSlateError, match=rf"out of range for n={N}: \({2 ** 63},\)"):
        slate_indices([(2 ** 63,)], N, 1)
    # an object index array's entries are looked at one by one, as a
    # sequence's are: its float used to pass as out of range
    with pytest.raises(InvalidSlateError, match="not an integer"):
        slate_indices(np.array([(0, 1, 2 ** 64), (0, 1.5, 2)], dtype=object), N, M)


def test_exposure_log_checks_length_before_repeats():
    with pytest.raises(ShapeError):
        ExposureLog(_logged((1, 1)))


def per_row_slate_indices(slates, n, m):
    """slate_indices as it checked repeats and ranges before it screened a
    large pool at once: row by row, each rule over every row before the
    next, and each entry's type read one by one (an index array's as
    `tolist` gives it). The reference the screen must match."""
    if isinstance(slates, np.ndarray):
        rows = [list(row) for row in slates.tolist()]
    else:
        rows = [list(getattr(s, "indices", s)) for s in slates]
    if not rows:
        raise EmptyCandidatesError("no slates to choose from")
    counts = n if hasattr(n, "__len__") else [n] * len(rows)
    if any(len(row) != m for row in rows) or len(counts) != len(rows):
        raise ShapeError(f"expected {len(counts)} slate(s) of {m} items")
    if any(isinstance(i, (bool, np.bool_, float, np.floating)) for row in rows for i in row):
        raise InvalidSlateError("slate index is not an integer")
    rows = [[int(i) for i in row] for row in rows]
    for row in rows:
        if len(set(row)) != m:
            raise InvalidSlateError(f"slate repeats an item: {tuple(row)}")
    for row, count in zip(rows, counts):
        if m and (min(row) < 0 or max(row) >= count):
            raise InvalidSlateError(f"slate index out of range for n={count}: {tuple(row)}")
    return np.array(rows, dtype=np.int64).reshape(len(rows), m)


def slate_outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


# entries that are numbers but not indices, and integers past int64
ODD_ENTRIES = (0.0, 1.5, 2.0, np.float64(1.0), True, False, np.True_,
               2 ** 63, 2 ** 64, -2 ** 63 - 1, -2 ** 70)


@st.composite
def slate_pools(draw):
    """(slates, n, m): up to 20 slates of m = 0..5 entries, mostly valid
    permutations and some with a repeat or an index just outside 0..n-1,
    as tuples, SlateSequences or one index array, against one candidate
    count or one per slate (a list or an array). In a quarter of the pools
    some rows also hold a float, a bool or an integer past int64."""
    m = draw(st.integers(0, 5))
    k = draw(st.integers(1, 20))
    counts = draw(st.lists(st.integers(max(m, 1), m + 4), min_size=k, max_size=k))
    odd = m and draw(st.integers(0, 3)) == 0
    rows = []
    for count in counts:
        row = draw(st.permutations(range(count)))[:m]
        if m and draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(
                [row[0], row[-1], -1, -2, count, count + 1]))
        if odd and draw(st.integers(0, 2)) == 0:
            row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(ODD_ENTRIES))
        rows.append(tuple(row))
    form = draw(st.sampled_from(["tuples", "sequences", "array"]))
    if form == "sequences":
        slates = [_decoded(row) for row in rows]
    elif form == "array":
        # NumPy picks the dtype: an odd entry makes the array float, bool or
        # object, or is read as an int among ints
        slates = np.array(rows, dtype=None if odd else np.int64).reshape(k, m)
    else:
        slates = rows
    how = draw(st.sampled_from(["one", "list", "array"]))
    n = max(counts) if how == "one" else counts if how == "list" else np.array(counts)
    return slates, n, m


@settings(max_examples=400, deadline=None)
@given(pool=slate_pools())
def test_slate_indices_matches_the_per_row_rule(pool):
    """The same array, or the same error and message, as the per-row rule,
    on pools small enough to be checked row by row and large enough to be
    screened at once."""
    got = slate_outcome(slate_indices, *pool)
    want = slate_outcome(per_row_slate_indices, *pool)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want
