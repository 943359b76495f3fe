import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import ProbeTape, fresh_params, gradcheck, inflate_weights
from slaterank.data import ExposureLog, FeedbackMatrix, LogTable, RequestBatch
from slaterank.decoding import DecodeConfig, contrastive_decode
from slaterank.errors import ConfigError, EmptyCandidatesError, ShapeError
from slaterank.generator import (
    GeneratorConfig,
    ProbMatrix,
    _block_head,
    encode_candidates,
    forward,
    init_generator_params,
    matching_head,
)
from slaterank.numerics import AdamState, Tape, Tensor, adam_step

SMALL = GeneratorConfig(n_max=6, m=3, d=8, h=2, L=2, d_x=4, d_t=5, seed=0)
SMALL_L1 = replace(SMALL, L=1)
# what block 0 of the position encoder reads before its cross-attention
SLOT_PARAMS = ("pos.table", "embed.t.w", "embed.t.b", "pos.0.ln1.g", "pos.0.ln1.b",
               "pos.0.self.wq", "pos.0.self.wk", "pos.0.self.wv", "pos.0.self.wo",
               "pos.0.ln2.g", "pos.0.ln2.b", "pos.0.cross.wq")


def make_request(rng, n, d_x=SMALL.d_x, request_id=0):
    return RequestBatch(
        request_id=request_id,
        user_id=0,
        item_ids=np.arange(n),
        features=rng.normal(size=(n, d_x)),
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(d=10, h=4)
    with pytest.raises(ConfigError):
        GeneratorConfig(n_max=3, m=5)
    with pytest.raises(ConfigError):
        GeneratorConfig(L=0)


def test_forward_shape_and_column_stochasticity():
    rng = np.random.default_rng(0)
    params = init_generator_params(SMALL)
    for n in (1, 2, 5, 6):
        probs = forward(make_request(rng, n), params, SMALL)
        assert probs.values.data.shape == (n, SMALL.m)
        sums = probs.values.data.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-9
        assert np.isfinite(probs.candidate_reps.data).all()
        assert np.isfinite(probs.position_reps.data).all()


def test_empty_request_rejected():
    params = init_generator_params(SMALL)
    req = RequestBatch(0, 0, np.array([], dtype=np.int64),
                       np.zeros((0, SMALL.d_x)))
    with pytest.raises(EmptyCandidatesError):
        forward(req, params, SMALL)


def test_too_many_candidates_rejected():
    rng = np.random.default_rng(1)
    params = init_generator_params(SMALL)
    with pytest.raises(ShapeError):
        forward(make_request(rng, SMALL.n_max + 1), params, SMALL)


def test_single_candidate_gets_probability_one():
    rng = np.random.default_rng(2)
    params = init_generator_params(SMALL)
    probs = forward(make_request(rng, 1), params, SMALL)
    assert np.array_equal(probs.values.data, np.ones((1, SMALL.m)))


def test_matching_head_orthogonal_reps_uniform():
    tape = Tape()
    cand = Tensor(np.hstack([np.eye(4), np.zeros((4, 4))]))
    pos = Tensor(np.hstack([np.zeros((3, 4)), np.eye(4)[:3]]))
    out = matching_head(cand, pos, tape)
    assert np.allclose(out.values.data, 0.25, atol=1e-15)


def test_matching_head_hand_softmax():
    tape = Tape()
    cand = Tensor([[1.0], [0.0], [0.0]])
    pos = Tensor([[1.0], [1.0]])
    out = matching_head(cand, pos, tape)
    e = math.exp(1.0)
    expect = np.array([e / (e + 2.0), 1.0 / (e + 2.0), 1.0 / (e + 2.0)])
    for j in range(2):
        assert out.values.data[:, j] == pytest.approx(expect, abs=1e-12)


def test_candidate_permutation_equivariance():
    rng = np.random.default_rng(3)
    params = init_generator_params(SMALL)
    for trial in range(20):
        req = make_request(rng, 6, request_id=trial)
        base = forward(req, params, SMALL).values.data
        perm = rng.permutation(6)
        permuted = RequestBatch(trial, 0, req.item_ids[perm], req.features[perm])
        out = forward(permuted, params, SMALL).values.data
        assert np.allclose(out, base[perm], rtol=0.0, atol=1e-12)


def test_duplicate_candidates_share_rows():
    rng = np.random.default_rng(4)
    params = init_generator_params(SMALL)
    feats = rng.normal(size=(5, SMALL.d_x))
    feats[3] = feats[1]
    req = RequestBatch(0, 0, np.arange(5), feats)
    probs = forward(req, params, SMALL).values.data
    assert np.allclose(probs[3], probs[1], rtol=0.0, atol=1e-12)


def test_identical_candidate_states_collapse_cross_attention():
    rng = np.random.default_rng(5)
    params = init_generator_params(SMALL)
    feats = np.tile(rng.normal(size=(1, SMALL.d_x)), (4, 1))
    tape = Tape(recording=False)
    cand = encode_candidates(feats, params, SMALL, tape)
    spread = np.abs(cand.data - cand.data[0]).max()
    assert spread < 1e-12
    probs = matching_head(cand, cand, tape)
    assert np.allclose(probs.values.data, 0.25, atol=1e-9)


def test_padding_rows_get_exact_zero():
    rng = np.random.default_rng(6)
    params = init_generator_params(SMALL)
    req = make_request(rng, 4)
    probs = forward(req, params, SMALL, pad_to=SMALL.n_max)
    assert probs.values.data.shape == (SMALL.n_max, SMALL.m)
    assert (probs.values.data[4:] == 0.0).all()
    assert np.abs(probs.values.data.sum(axis=0) - 1.0).max() < 1e-9
    bare = forward(req, params, SMALL).values.data
    assert np.allclose(probs.values.data[:4], bare, rtol=0.0, atol=1e-12)


def test_forward_counter_counts_single_pass():
    rng = np.random.default_rng(7)
    params = init_generator_params(SMALL)
    tape = Tape(recording=False)
    forward(make_request(rng, 5), params, SMALL, tape)
    assert tape.forwards == 1


def test_end_to_end_gradient_matches_finite_differences():
    # Fresh 0.02-scale init leaves many gradients near 1e-5, at the edge of
    # what central differences can resolve; check at trained-like magnitude.
    rng = np.random.default_rng(8)
    params = init_generator_params(SMALL)
    inflate_weights(params, 15.0)
    req = make_request(rng, 5)
    labels = [3, 0, 4]

    def loss(tape):
        probs = forward(req, params, SMALL, tape=tape)
        picked = tape.take_entries(probs.values, labels, [0, 1, 2])
        return tape.mask(tape.sum(tape.log(picked)), -1.0)

    wrt = [params[name] for name in params.names()]
    gradcheck(loss, wrt)


def test_forward_deterministic_given_seed():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    p1 = init_generator_params(SMALL)
    p2 = init_generator_params(SMALL)
    r1 = make_request(rng1, 6)
    r2 = make_request(rng2, 6)
    out1 = forward(r1, p1, SMALL).values.data
    out2 = forward(r2, p2, SMALL).values.data
    assert np.array_equal(out1, out2)


def test_prob_matrix_reports_dims():
    pm = ProbMatrix(values=Tensor(np.full((4, 2), 0.25)),
                    candidate_reps=Tensor(np.zeros((4, 3))),
                    position_reps=Tensor(np.zeros((2, 3))))
    assert pm.n == 4
    assert pm.m == 2


# ---- the position slots a serving forward reuses ----


def _arrays(probs):
    return probs.values.data, probs.candidate_reps.data, probs.position_reps.data


def _bits(probs):
    return [(a.shape, a.tobytes()) for a in _arrays(probs)]


def _serve(req, params, cfg):
    """A serving forward's outputs as bytes, and the linear ops it ran."""
    tape = ProbeTape()
    return _bits(forward(req, params, cfg, tape=tape)), tape.linears


def _loss(req, params, cfg, tape):
    probs = forward(req, params, cfg, tape=tape)
    picked = tape.take_entries(probs.values, [3, 0, 4], [0, 1, 2])
    return tape.mask(tape.sum(tape.log(picked)), -1.0)


@pytest.mark.parametrize("cfg", [SMALL_L1, SMALL], ids=["L1", "L2"])
def test_serving_forward_matches_recording_forward_within_1e_12(cfg):
    # a recording tape sums through BLAS and a serving tape with NumPy's
    # reduce, so the two part by ulps; serving again gives the same bits
    rng = np.random.default_rng(10)
    params = init_generator_params(cfg)
    one = make_request(rng, 5)
    # the logged slate and feedback are there only to make the table
    zeros = FeedbackMatrix(np.zeros((1, cfg.m)), ("click",))
    stack = LogTable.of([ExposureLog(replace(make_request(rng, n, request_id=i),
                                             exposed=tuple(range(cfg.m)), feedback=zeros))
                         for i, n in enumerate((4, 6, 3))])
    for req in (one, stack, one):
        recorded = _arrays(forward(req, params, cfg, tape=Tape()))
        served = forward(req, params, cfg)
        assert _bits(forward(req, params, cfg)) == _bits(served)
        for got, want in zip(_arrays(served), recorded):
            assert np.abs(got - want).max() <= 1e-12


def test_a_request_in_an_equal_n_stack_serves_as_it_does_alone():
    # 256 requests of n = 20 at perfbench's generator config, with weights
    # of trained-like size: the same forward bits and the same contrastive
    # slate whether a request is served in the stack or on its own
    cfg = GeneratorConfig(n_max=20, m=6, d=16, h=2, L=1, d_x=10, d_t=8)
    rng = np.random.default_rng(16)
    params = init_generator_params(cfg)
    inflate_weights(params, 15.0)
    zeros = FeedbackMatrix(np.zeros((1, cfg.m)), ("click",))
    logs = [ExposureLog(replace(make_request(rng, 20, d_x=cfg.d_x, request_id=i),
                                exposed=tuple(range(cfg.m)), feedback=zeros))
            for i in range(256)]
    stack = forward(LogTable.of(logs), params, cfg)
    assert stack.valid is None
    dec = DecodeConfig()
    for i, log in enumerate(logs):
        alone = forward(log.request, params, cfg)
        inside = ProbMatrix(*(Tensor(a[i]) for a in _arrays(stack)))
        assert _bits(inside) == _bits(alone), i
        assert contrastive_decode(inside, dec) == contrastive_decode(alone, dec), i


def test_a_memo_hit_returns_the_bits_of_a_fresh_serving_computation():
    rng = np.random.default_rng(17)
    params = init_generator_params(SMALL)
    inflate_weights(params, 15.0)
    req = make_request(rng, 5)
    forward(req, params, SMALL)
    forward(req, params, SMALL, tape=Tape())  # a recording forward leaves the memo alone

    def computed_again(view):
        raise AssertionError("the memo missed after a serving forward")

    def slot_head(params, tape):  # computed outside the memo
        slots = tape.linear(params["pos.table"], params["embed.t.w"], params["embed.t.b"])
        return _block_head(tape, params, "pos.0", slots, SMALL, cross=True)

    hit = params.memo("pos.0.head", Tape(recording=False), SMALL, computed_again)
    fresh = slot_head(fresh_params(params), Tape(recording=False))
    assert [t.data.tobytes() for t in hit] == [t.data.tobytes() for t in fresh]
    # a recording tape's slots have other bits, so the check can tell them apart
    recorded = slot_head(fresh_params(params), Tape())
    assert [t.data.tobytes() for t in recorded] != [t.data.tobytes() for t in fresh]


@pytest.mark.parametrize("edit", ["quarter", "ulp", "negative_zero"])
def test_an_in_place_edit_recomputes_the_slots_only_when_they_read_it(edit):
    rng = np.random.default_rng(11)
    params = init_generator_params(SMALL)
    req = make_request(rng, 5)
    first, computed = _serve(req, params, SMALL)
    again, reused = _serve(req, params, SMALL)
    assert again == first
    # embed.t, the four self-attention projections and the cross queries
    assert computed - reused == 6
    for name in params.names():
        flat = params[name].data.reshape(-1)
        if edit == "quarter":
            flat[0] += 0.25
        elif edit == "ulp":
            flat[0] = np.nextafter(flat[0], np.inf)
        else:
            flat[0] = 0.0
            _serve(req, params, SMALL)
            flat[0] = -0.0
        out, linears = _serve(req, params, SMALL)
        assert linears == (computed if name in SLOT_PARAMS else reused), name
        assert out == _serve(req, fresh_params(params), SMALL)[0], name


def test_an_adam_step_recomputes_the_slots():
    rng = np.random.default_rng(12)
    params = init_generator_params(SMALL_L1)
    req = make_request(rng, 5)
    before, computed = _serve(req, params, SMALL_L1)
    tape = Tape()
    tape.backward(_loss(req, params, SMALL_L1, tape))
    adam_step(params, AdamState(lr=1e-2))
    after, linears = _serve(req, params, SMALL_L1)
    assert linears == computed
    assert after != before
    assert after == _serve(req, fresh_params(params), SMALL_L1)[0]


def test_parameter_sets_and_head_counts_served_in_turn_do_not_cross():
    rng = np.random.default_rng(13)
    req = make_request(rng, 5)
    first = init_generator_params(SMALL_L1)
    second = init_generator_params(replace(SMALL_L1, seed=1))
    cases = [(first, SMALL_L1), (second, SMALL_L1), (first, replace(SMALL_L1, h=4))]
    want = [_serve(req, fresh_params(params), cfg)[0] for params, cfg in cases]
    assert len({str(w) for w in want}) == len(cases)
    for _ in range(3):
        for (params, cfg), expected in zip(cases, want):
            assert _serve(req, params, cfg)[0] == expected


def test_reused_slots_are_read_only_and_a_recording_tape_never_reads_them():
    rng = np.random.default_rng(14)
    params = init_generator_params(SMALL_L1)
    req = make_request(rng, 5)
    tapes = [ProbeTape(), ProbeTape()]
    for tape in tapes:
        forward(req, params, SMALL_L1, tape=tape)
    shared = [[t for t in tape.operands if not t.data.flags.writeable] for tape in tapes]
    # the cross-attention queries, then the slots they add to, the same
    # tensors for both requests
    assert len(shared[0]) == 2
    assert all(a is b for a, b in zip(*shared))
    for t in shared[0]:
        assert t.data.shape == (SMALL_L1.m, SMALL_L1.d)
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0
    recording = ProbeTape(recording=True)
    forward(req, params, SMALL_L1, tape=recording)
    assert all(t.data.flags.writeable for t in recording.operands)


def test_recording_forward_after_serving_reaches_the_slot_parameters():
    rng = np.random.default_rng(15)
    params = init_generator_params(SMALL_L1)
    req = make_request(rng, 5)
    forward(req, params, SMALL_L1)
    tape = Tape()
    tape.backward(_loss(req, params, SMALL_L1, tape))
    for name in SLOT_PARAMS:
        assert params[name].grad is not None and np.abs(params[name].grad).max() > 0, name
