"""The one slate rule: every stage that takes a slate checks it through
`data.slate_indices`, so the same bad slate raises the same error class
wherever it enters."""

import numpy as np
import pytest

from slaterank.ar import ar_forward, ar_sequence_loss, init_ar_params
from slaterank.data import (
    ExposureLog,
    FeedbackMatrix,
    LogTable,
    RequestBatch,
    slate_indices,
)
from slaterank.decoding import SlateSequence, slate_score
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
from slaterank.objectives import ce_loss
from slaterank.simulator import World, WorldConfig, gen_request, oracle_click_probs

N, M = 5, 3
# suppression below 1 keeps every oracle probability in [0, 1]: no clamp warning
WORLD = World(WorldConfig(num_users=10, num_items=40, latent_dim=2, n_candidates=N,
                          posbias=(1.0, 0.8, 0.6), suppression=0.5, seed=1))
REQ = gen_request(WORLD, np.random.default_rng(4))
SHORTER = RequestBatch(request_id=1, user_id=0, item_ids=np.arange(N - 1),
                       features=REQ.features[:N - 1])
GEN = GeneratorConfig(n_max=N, m=M, d=8, h=2, L=1, d_x=WORLD.config.d_x, d_t=5, seed=2)
# one position more, so that a slate of m items fits as a prefix
GEN_PREFIX = GeneratorConfig(n_max=N, m=M + 1, d=8, h=2, L=1, d_x=WORLD.config.d_x,
                             d_t=5, seed=2)
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
    ar, ar_prefix = init_ar_params(GEN), init_ar_params(GEN_PREFIX)
    ev = init_evaluator_params(EV)
    return {
        "ExposureLog": lambda s: ExposureLog(_logged(s)),
        "ce_loss": lambda s: ce_loss(Tape(recording=False), forward(REQ, gen, GEN), s),
        # the bad slate sits on the request with all N candidates, after a
        # request padded from N - 1
        "ce_loss_stack": lambda s: ce_loss(Tape(recording=False),
                                           forward(STACK, gen, GEN), [GOOD, s]),
        "ar_forward_prefix": lambda s: ar_forward(REQ, ar_prefix, GEN_PREFIX, prefix=s),
        "ar_sequence_loss": lambda s: ar_sequence_loss(_logged(s), ar, GEN, Tape()),
        "score_slate": lambda s: score_slate(REQ, s, ev, EV),
        "score_slates": lambda s: score_slates(REQ, [GOOD, s], ev, EV),
        "select_best": lambda s: select_best(REQ, [GOOD, s], ev, EV),
        "oracle_click_probs": lambda s: oracle_click_probs(WORLD, REQ, s),
        "recall_at_k": lambda s: recall_at_k(forward(REQ, gen, GEN), s, N),
        "slate_score": lambda s: slate_score(forward(REQ, gen, GEN), s),
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


@pytest.mark.parametrize("consumer, case", [
    (consumer, case) for consumer in CONSUMERS for case in BAD
    # a prefix may be shorter than m; only one that overruns m is a shape error
    if (consumer, case) != ("ar_forward_prefix", "short")])
def test_one_rule_everywhere(consumer, case):
    slate, error = BAD[case]
    with pytest.raises(error):
        CONSUMERS[consumer](slate)


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


def test_exposure_log_checks_length_before_repeats():
    with pytest.raises(ShapeError):
        ExposureLog(_logged((1, 1)))
