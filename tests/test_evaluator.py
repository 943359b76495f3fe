"""Listwise evaluator tests: scoring identities, BCE gradients, selection,
and a small end-to-end training run against the synthetic world."""

import warnings

import numpy as np
import pytest

from helpers import gradcheck, inflate_weights

from slaterank.data import ExposureLog, FeedbackMatrix, LogTable, RequestBatch
from slaterank.errors import (
    ConfigError,
    DataError,
    EmptyCandidatesError,
    InvalidSlateError,
    ShapeError,
)
from slaterank.evaluator import (
    EvaluatorConfig,
    _logits,
    bce_loss,
    init_evaluator_params,
    score_slate,
    score_slates,
    select_best,
    train_evaluator,
)
from slaterank.metrics import auc
from slaterank.numerics import Tape
from slaterank.simulator import World, WorldConfig, gen_log, gen_request

TINY = EvaluatorConfig(types=("click",), weights=(1.0,), d=8, h=2, d_x=4, m=3)


def tiny_request(seed=0, n=5):
    rng = np.random.default_rng(seed)
    return RequestBatch(request_id=0, user_id=0,
                        item_ids=np.arange(n),
                        features=rng.normal(size=(n, TINY.d_x)))


def test_config_validation():
    with pytest.raises(ConfigError):
        EvaluatorConfig(types=("click",), weights=(1.0, 0.5))
    with pytest.raises(ConfigError):
        EvaluatorConfig(types=(), weights=())
    with pytest.raises(ConfigError):
        EvaluatorConfig(d=30, h=4)
    with pytest.raises(ConfigError):
        EvaluatorConfig(m=0)
    # the block's feed-forward is 2d wide
    assert init_evaluator_params(EvaluatorConfig())["ev.ffn.w1"].shape == (32, 64)


def test_score_shape_and_utility_definition():
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(2))
    cfg = EvaluatorConfig()
    params = init_evaluator_params(cfg)
    out = score_slate(req, tuple(range(6)), params, cfg)
    assert out.scores.shape == (2, 6)
    assert out.scores.min() > 0.0 and out.scores.max() < 1.0
    want = 1.0 * out.scores[0].sum() + 0.5 * out.scores[1].sum()
    assert abs(out.utility - want) < 1e-12


def test_zero_weights_are_allowed_and_score_nothing():
    cfg = EvaluatorConfig(weights=(0.0, 0.0))
    params = init_evaluator_params(cfg)
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(3))
    assert score_slate(req, tuple(range(6)), params, cfg).utility == 0.0


def test_single_position_slate():
    cfg = EvaluatorConfig(types=("click",), weights=(2.0,), d=8, h=2,
                          d_x=4, m=1)
    params = init_evaluator_params(cfg)
    req = tiny_request()
    out = score_slate(req, (3,), params, cfg)
    assert out.scores.shape == (1, 1)
    assert abs(out.utility - 2.0 * out.scores[0, 0]) < 1e-15


def test_order_changes_the_score():
    params = init_evaluator_params(TINY)
    req = tiny_request(seed=5)
    a = score_slate(req, (0, 1, 2), params, TINY).utility
    b = score_slate(req, (2, 1, 0), params, TINY).utility
    assert a != b


def test_utility_is_linear_in_the_weights():
    req = tiny_request(seed=7, n=8)
    base = EvaluatorConfig(types=("click", "like"), weights=(1.0, 0.5),
                           d=8, h=2, d_x=4, m=3, seed=9)
    doubled = EvaluatorConfig(types=("click", "like"), weights=(2.0, 1.0),
                              d=8, h=2, d_x=4, m=3, seed=9)
    u1 = score_slate(req, (1, 4, 6), init_evaluator_params(base), base).utility
    u2 = score_slate(req, (1, 4, 6), init_evaluator_params(doubled), doubled).utility
    assert u2 == 2.0 * u1


def test_slate_validation():
    params = init_evaluator_params(TINY)
    req = tiny_request()
    with pytest.raises(ShapeError):
        score_slate(req, (0, 1), params, TINY)
    with pytest.raises(InvalidSlateError):
        score_slate(req, (0, 1, 1), params, TINY)
    with pytest.raises(InvalidSlateError):
        score_slate(req, (0, 1, 5), params, TINY)
    bad = RequestBatch(request_id=0, user_id=0, item_ids=np.arange(5),
                       features=np.zeros((5, 7)))
    with pytest.raises(ShapeError):
        score_slate(bad, (0, 1, 2), params, TINY)


def test_pool_is_validated_as_a_whole():
    # score_slates checks the pool as one (K, m) array, not slate by slate
    params = init_evaluator_params(TINY)
    req = tiny_request()
    cases = (((0, 1), ShapeError),              # too short: a ragged pool
             ((0, 1, 2, 3), ShapeError),        # too long
             ((0, 1, 1), InvalidSlateError),    # repeats an item
             ((0, 1, 5), InvalidSlateError),    # index n
             ((-1, 1, 2), InvalidSlateError))   # index -1
    for third, error in cases:
        pool = [(0, 1, 2), [4, 3, 2], third, (1, 2, 3)]
        for call in (score_slates, select_best):
            with pytest.raises(error):
                call(req, pool, params, TINY)
    # rule by rule over the whole pool: a short slate anywhere is a
    # ShapeError even after an earlier slate that repeats an item
    with pytest.raises(ShapeError):
        score_slates(req, [(0, 1, 1), (0, 1)], params, TINY)
    # an entry that is not an integer keeps NumPy's ValueError
    with pytest.raises(ValueError):
        score_slates(req, [(0, 1, 2), (0, 1, "a")], params, TINY)
    with pytest.raises(ValueError):
        score_slate(req, (0, 1, "a"), params, TINY)


def test_bce_matches_manual_formula():
    params = init_evaluator_params(TINY)
    req = tiny_request(seed=11)
    fb = FeedbackMatrix(values=np.array([[1.0, 0.0, 1.0]]), types=("click",))
    tape = Tape()
    logits = _logits(req.features[[0, 2, 4]], params, TINY, tape)
    loss = bce_loss(tape, logits, fb.values)
    z = logits.data[0]
    y = fb.values[0]
    want = float((np.logaddexp(0.0, z) - y * z).sum())
    assert abs(loss.item() - want) < 1e-10


def test_bce_gradcheck():
    # one head and two, so every head's weight and bias is checked through
    # the joined head columns
    two_heads = EvaluatorConfig(types=("click", "like"), weights=(1.0, 0.5), d=8, h=2,
                                d_x=4, m=3)
    req = tiny_request(seed=13)
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    for cfg in (TINY, two_heads):
        params = init_evaluator_params(cfg)
        inflate_weights(params, 15.0)
        y = labels[:len(cfg.types)]

        def make_loss(tape):
            return bce_loss(tape, _logits(req.features[[1, 2, 4]], params, cfg, tape), y)

        wrt = [params["ev.embed.w"], params["ev.pos"], params["ev.attn.wq"],
               params["ev.ffn.w1"]]
        wrt += [params[f"ev.head.{t}.{p}"] for t in cfg.types for p in ("w", "b")]
        gradcheck(make_loss, wrt)


def test_select_best_is_argmax_and_breaks_ties_first():
    params = init_evaluator_params(TINY)
    req = tiny_request(seed=17, n=6)
    slates = [(0, 1, 2), (3, 4, 5), (5, 1, 0), (2, 4, 3)]
    utilities = [score_slate(req, s, params, TINY).utility for s in slates]
    assert select_best(req, slates, params, TINY) == slates[int(np.argmax(utilities))]

    tied = [(0, 1, 2), (0, 1, 2)]
    assert select_best(req, tied, params, TINY) is tied[0]

    with pytest.raises(EmptyCandidatesError):
        select_best(req, [], params, TINY)


def test_score_slates_single_slate_is_bit_identical_to_score_slate():
    params = init_evaluator_params(TINY)
    inflate_weights(params, 15.0)
    for seed in range(10):
        req = tiny_request(seed=seed, n=7)
        slate = tuple(np.random.default_rng(seed).permutation(7)[:3])
        assert score_slates(req, [slate], params, TINY)[0] == \
            score_slate(req, slate, params, TINY).utility


def test_stacked_utilities_match_one_pass_per_slate():
    cfg = EvaluatorConfig(d=16, h=4, d_x=4, m=4, seed=3)
    params = init_evaluator_params(cfg)
    inflate_weights(params, 15.0)
    rng = np.random.default_rng(23)
    for trial in range(20):
        req = tiny_request(seed=trial, n=9)
        slates = [tuple(rng.permutation(9)[:4]) for _ in range(int(rng.integers(2, 10)))]
        got = score_slates(req, slates, params, cfg)
        want = np.array([score_slate(req, s, params, cfg).utility for s in slates])
        assert got.shape == (len(slates),)
        assert got.tobytes() == want.tobytes(), trial


def test_a_slate_in_a_pool_scores_as_it_does_alone():
    # pools of K = 1..8 at the default config, with weights of trained-like
    # size and, from K = 3 on, a repeat of the first slate: each utility of
    # the stacked pass has the bits of that slate's own score_slate. Then
    # pools of 1302, 1303 and 5000 slates, with two heads and with one, on
    # both sides of the stack height where one BLAS product over the whole
    # stack gives a row other bits; every third or twelfth slate is checked
    cfg = EvaluatorConfig()
    params = init_evaluator_params(cfg)
    inflate_weights(params, 15.0)
    rng = np.random.default_rng(23)
    for trial in range(25):
        req = RequestBatch(request_id=trial, user_id=0, item_ids=np.arange(20),
                           features=3.0 * rng.normal(size=(20, cfg.d_x)))
        for k in range(1, 9):
            slates = [tuple(rng.permutation(20)[:cfg.m]) for _ in range(k)]
            if k >= 3:
                slates[-1] = list(slates[0])
            got = score_slates(req, slates, params, cfg)
            want = np.array([score_slate(req, s, params, cfg).utility for s in slates])
            assert got.shape == (k,)
            assert got.tobytes() == want.tobytes(), (trial, k)

    one_head = EvaluatorConfig(types=("click",), weights=(1.0,))
    for cfg in (cfg, one_head):
        params = init_evaluator_params(cfg)
        inflate_weights(params, 15.0)
        for k, step in ((1302, 3), (1303, 3), (5000, 12)):
            slates = [tuple(rng.permutation(20)[:cfg.m]) for _ in range(k)]
            got = score_slates(req, slates, params, cfg)[::step]
            want = np.array([score_slate(req, s, params, cfg).utility
                             for s in slates[::step]])
            assert got.tobytes() == want.tobytes(), (cfg.types, k)


def test_select_best_returns_first_maximizer():
    params = init_evaluator_params(TINY)
    inflate_weights(params, 15.0)
    req = tiny_request(seed=29, n=8)
    rng = np.random.default_rng(29)
    for _ in range(20):
        distinct = [tuple(rng.permutation(8)[:3]) for _ in range(5)]
        utilities = [score_slate(req, s, params, TINY).utility for s in distinct]
        top = distinct[int(np.argmax(utilities))]
        # a later equal copy of the winner never displaces the first
        pool = distinct + [list(top), list(distinct[0])]
        assert select_best(req, pool, params, TINY) is top


def test_training_fits_constant_positive_labels():
    cfg = EvaluatorConfig(types=("click",), weights=(1.0,), d=8, h=2,
                          d_x=4, m=2)
    params = init_evaluator_params(cfg)
    rng = np.random.default_rng(19)
    logs = []
    for i in range(30):
        req = RequestBatch(request_id=i, user_id=0, item_ids=np.arange(4),
                           features=rng.normal(size=(4, 4)),
                           exposed=(0, 2),
                           feedback=FeedbackMatrix(values=np.ones((1, 2)),
                                                   types=("click",)))
        logs.append(ExposureLog(req))
    train_evaluator(logs, params, cfg, lr=1e-2, epochs=40, batch_size=30)
    scores = np.concatenate([
        score_slate(log.request, log.exposed, params, cfg).scores[0]
        for log in logs])
    assert scores.min() > 0.9


def test_training_on_a_log_without_an_evaluator_type_is_a_config_error():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        clicks = gen_log(World(WorldConfig(types=("click",), base_rates=(1.0,))),
                         "random", 8, np.random.default_rng(0))
        both = gen_log(World(WorldConfig()), "random", 8, np.random.default_rng(0))
    cfg = EvaluatorConfig()
    with pytest.raises(ConfigError, match=r"lack head types \['like'\]"):
        train_evaluator(clicks, init_evaluator_params(cfg), cfg)
    # a logged type that no head predicts is left out
    click_head = EvaluatorConfig(types=("click",), weights=(1.0,))
    loss_log = []
    train_evaluator(both, init_evaluator_params(click_head), click_head, loss_log=loss_log)
    assert len(loss_log) == 1 and np.isfinite(loss_log[0])


def test_training_improves_held_out_click_auc():
    world = World(WorldConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        logs = gen_log(world, "random", 500, np.random.default_rng(41))
    train, held = logs.take(np.arange(400)), logs.take(np.arange(400, 500))

    cfg = EvaluatorConfig(d=16, h=2)
    params = init_evaluator_params(cfg)
    loss_log = []
    train_evaluator(train, params, cfg, lr=3e-3, epochs=4, batch_size=64,
                    seed=1, loss_log=loss_log)
    # Smoothed training loss goes down.
    assert np.mean(loss_log[-5:]) < 0.75 * np.mean(loss_log[:5])

    scores, labels = [], []
    for log in held:
        out = score_slate(log.request, log.exposed, params, cfg)
        scores.extend(out.scores[0])
        labels.extend(log.feedback.values[0])
    assert auc(scores, labels) > 0.65


def test_training_rejects_empty_log():
    with pytest.raises(DataError):
        train_evaluator([], init_evaluator_params(TINY), TINY)


def test_batched_training_pass_matches_one_tape_per_slate():
    cfg = EvaluatorConfig(types=("click", "like"), weights=(1.0, 0.5), d=8, h=2,
                          d_x=4, m=3)
    params = init_evaluator_params(cfg)
    inflate_weights(params, 15.0)
    rng = np.random.default_rng(23)
    logs = []
    for i, n in enumerate((3, 7, 4, 5, 3)):
        fb = FeedbackMatrix(values=rng.integers(0, 2, size=(2, 3)).astype(float),
                            types=("click", "like"))
        logs.append(ExposureLog(RequestBatch(
            request_id=i, user_id=0, item_ids=np.arange(n),
            features=rng.normal(size=(n, 4)),
            exposed=tuple(rng.choice(n, size=3, replace=False).tolist()), feedback=fb)))

    losses = []
    for log in logs:
        tape = Tape()
        loss = bce_loss(tape, _logits(log.request.features[list(log.exposed)], params, cfg,
                                      tape), log.feedback.values)
        tape.backward(loss)
        losses.append(loss.item())
    single = {name: t.grad.copy() for name, t in params.items()}
    for _, t in params.items():
        t.grad[...] = 0.0

    tape = Tape()
    table = LogTable.of(logs)
    feats = table.features[np.arange(len(table))[:, None], table.exposed]
    batched = bce_loss(tape, _logits(feats, params, cfg, tape), table.feedback)
    assert batched.data.shape == (len(logs),)
    assert np.abs(batched.data - losses).max() <= 1e-10 * max(losses)
    tape.backward(tape.sum(batched))
    for name, t in params.items():
        scale = max(1.0, float(np.abs(single[name]).max()))
        assert np.abs(t.grad - single[name]).max() <= 1e-10 * scale, name

    loss_log = []
    train_evaluator(logs, init_evaluator_params(cfg), cfg, epochs=1,
                    batch_size=len(logs), loss_log=loss_log)
    fresh = init_evaluator_params(cfg)
    want = np.mean([bce_loss(Tape(), _logits(log.request.features[list(log.exposed)], fresh,
                                             cfg, Tape()), log.feedback.values).item()
                    for log in logs])
    assert abs(loss_log[0] - want) <= 1e-12 * want
