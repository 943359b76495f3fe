from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import slaterank.ar
from helpers import ProbeTape, fresh_params, gradcheck, inflate_weights
from slaterank.ar import (
    _START_PARAMS,
    _decoder_rows,
    _pointer_mask,
    _pointer_memory,
    ar_decode,
    ar_forward,
    ar_sequence_loss,
    init_ar_params,
)
from slaterank.data import ExposureLog, FeedbackMatrix, LogTable, RequestBatch
from slaterank.errors import InfeasibleSlateError, InvalidSlateError, ShapeError
from slaterank.generator import (
    GeneratorConfig,
    _stack_requests,
    encode_candidates,
    init_generator_params,
)
from slaterank.numerics import AdamState, Tape, Tensor, adam_step

SMALL = GeneratorConfig(n_max=6, m=3, d=8, h=2, L=2, d_x=4, d_t=5, seed=0)
SMALL_L1 = replace(SMALL, L=1)


def make_request(rng, n, exposed=None, d_x=SMALL.d_x):
    return RequestBatch(
        request_id=0,
        user_id=0,
        item_ids=np.arange(n),
        features=rng.normal(size=(n, d_x)),
        exposed=exposed,
    )


def point(tape, params, cand, prefix, cfg, valid=None):
    """One ar_forward pass on encoded candidates, with its decoder rows, its
    projections of the candidates and its pointer mask all built anew."""
    return ar_forward(params, _decoder_rows(tape, params, cand, prefix),
                      _pointer_memory(tape, params, cand, cfg),
                      _pointer_mask(prefix, cand.shape[-2], valid), cfg, tape, valid)


def encode_and_point(req, params, cfg, prefix=()):
    """Encode one request's candidates, then one ar_forward pass on them."""
    tape = Tape(recording=False)
    cand = encode_candidates(req.features, params, cfg, tape)
    return point(tape, params, cand, np.array(prefix, dtype=np.int64), cfg)


def test_shares_candidate_encoder_with_generator():
    gen = init_generator_params(SMALL)
    ar = init_ar_params(SMALL)
    # same builder, same seed: the encoder halves are identical arrays
    assert np.array_equal(gen["embed.x.w"].data, ar["embed.x.w"].data)
    assert np.array_equal(gen["cand.1.attn.wq"].data, ar["cand.1.attn.wq"].data)
    assert "dec.bos" in ar and "dec.bos" not in gen
    assert "pos.table" in gen and "pos.table" not in ar


def test_forward_rows_are_stochastic_and_exclude_prefix():
    rng = np.random.default_rng(0)
    params = init_ar_params(SMALL)
    req = make_request(rng, 5)
    probs = encode_and_point(req, params, SMALL, prefix=(3, 0))
    assert probs.data.shape == (3, 5)
    assert np.abs(probs.data.sum(axis=1) - 1.0).max() < 1e-9
    assert probs.data[1, 3] == 0.0
    assert probs.data[2, 3] == 0.0 and probs.data[2, 0] == 0.0
    assert probs.data[0, 3] > 0.0  # row 0 conditions on nothing


def test_causal_consistency_between_training_and_decode_rows():
    # teacher-forced row t must equal the incremental forward's last row for
    # the same prefix: later inputs may not leak backwards
    rng = np.random.default_rng(2)
    params = init_ar_params(SMALL)
    req = make_request(rng, 6)
    y = (4, 1, 5)
    full = encode_and_point(req, params, SMALL, prefix=y[:-1]).data
    for t in range(3):
        step = encode_and_point(req, params, SMALL, prefix=y[:t]).data
        assert np.allclose(step[-1], full[t], atol=1e-12)


def test_sequence_loss_gradient_matches_finite_differences():
    cfg = GeneratorConfig(n_max=5, m=3, d=8, h=2, L=1, d_x=4, d_t=5, seed=3)
    params = init_ar_params(cfg)
    inflate_weights(params, 15.0)
    rng = np.random.default_rng(4)
    req = make_request(rng, 5, exposed=(2, 0, 4))

    def make_loss(tape):
        return ar_sequence_loss(req, params, cfg, tape)

    wrt = [params["dec.bos"], params["embed.x.w"], params["dec.0.cross.wk"]]
    assert gradcheck(make_loss, wrt) < 1e-4


def test_sequence_loss_validates_slate():
    rng = np.random.default_rng(5)
    params = init_ar_params(SMALL)
    with pytest.raises(InvalidSlateError):
        ar_sequence_loss(make_request(rng, 5), params, SMALL, Tape())
    with pytest.raises(ShapeError):
        ar_sequence_loss(make_request(rng, 5, exposed=(0, 1)), params, SMALL, Tape())
    with pytest.raises(InvalidSlateError):
        ar_sequence_loss(make_request(rng, 5, exposed=(0, 0, 1)), params, SMALL,
                         Tape())


def test_decode_uses_exactly_m_forward_passes():
    rng = np.random.default_rng(6)
    params = init_ar_params(SMALL)
    req = make_request(rng, 6)
    tape = Tape(recording=False)
    slate = ar_decode(req, params, SMALL, tape)
    assert tape.forwards == SMALL.m
    assert slate.method == "ar" and slate.m == SMALL.m


def test_decode_matches_a_loop_that_encodes_at_every_step(monkeypatch):
    # ar_decode encodes and projects the candidates once, keeps one pointer
    # mask and takes pass 0's start head from the memo; a loop that encodes,
    # projects and masks anew before each ar_forward call must pick the same
    # items with the same probabilities, bit for bit. Each block's cross.wk
    # and cross.wv product runs once per request, not once per pass
    encodes = []

    def counted(*args, **kwargs):
        encodes.append(1)
        return encode_candidates(*args, **kwargs)

    for L in (2, 1):
        cfg = GeneratorConfig(n_max=9, m=4, d=8, h=2, L=L, d_x=4, d_t=5, seed=13)
        params = init_ar_params(cfg)
        inflate_weights(params, 4.0)
        rng = np.random.default_rng(14)
        cross = [params[f"dec.{layer}.cross.{w}"] for layer in range(L) for w in ("wk", "wv")]
        for n in (4, 4, 5, 6, 7, 9, 9):
            req = make_request(rng, n, d_x=cfg.d_x)
            chosen, chosen_p = [], []
            for _ in range(cfg.m):
                probs = encode_and_point(req, params, cfg, prefix=chosen).data
                row = probs[-1].copy()
                row[chosen] = -1.0
                chosen.append(int(np.argmax(row)))
                chosen_p.append(float(probs[-1, chosen[-1]]))
            monkeypatch.setattr(slaterank.ar, "encode_candidates", counted)
            encodes.clear()
            tape = ProbeTape()
            slate = ar_decode(req, params, cfg, tape)
            monkeypatch.undo()
            assert slate.indices == tuple(chosen), (L, n)
            assert slate.probabilities == tuple(chosen_p), (L, n)
            assert len(encodes) == 1 and tape.forwards == cfg.m, (L, n)
            products = Counter(id(w) for w in tape.weights)
            assert [products[id(w)] for w in cross] == [1] * len(cross), (L, n)


# ---- the start row's block head a serving decode reuses


def _serve(req, params, cfg):
    """A serving decode's picks and probability bytes, and the linear ops
    it ran."""
    tape = ProbeTape()
    slate = ar_decode(req, params, cfg, tape)
    return (slate.indices, np.array(slate.probabilities).tobytes()), tape.linears


@pytest.mark.parametrize("edit", ["quarter", "ulp", "negative_zero"])
def test_an_in_place_edit_recomputes_the_start_head_only_when_it_reads_it(edit):
    rng = np.random.default_rng(21)
    params = init_ar_params(SMALL)
    req = make_request(rng, 5)
    first, computed = _serve(req, params, SMALL)
    again, reused = _serve(req, params, SMALL)
    assert again == first
    # the four self-attention projections and the cross query
    assert computed - reused == 5
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
        assert linears == (computed if name in _START_PARAMS else reused), name
        assert out == _serve(req, fresh_params(params), SMALL)[0], name


def test_an_adam_step_recomputes_the_start_head():
    rng = np.random.default_rng(22)
    params = init_ar_params(SMALL_L1)
    req = make_request(rng, 5, exposed=(3, 0, 4))
    before, computed = _serve(req, params, SMALL_L1)
    tape = Tape()
    tape.backward(ar_sequence_loss(req, params, SMALL_L1, tape))
    adam_step(params, AdamState(lr=1e-2))
    after, linears = _serve(req, params, SMALL_L1)
    assert linears == computed
    assert after != before
    assert after == _serve(req, fresh_params(params), SMALL_L1)[0]


def test_the_reused_start_head_is_read_only_and_a_recording_tape_never_reads_it():
    rng = np.random.default_rng(23)
    params = init_ar_params(SMALL_L1)
    req = make_request(rng, 5)
    tapes = [ProbeTape(), ProbeTape()]
    for tape in tapes:
        ar_decode(req, params, SMALL_L1, tape)
    shared = [[t for t in tape.operands if not t.data.flags.writeable] for tape in tapes]
    # pass 0's cross-attention query, then the start row it adds to, the
    # same tensors for both requests
    assert len(shared[0]) == 2
    assert all(a is b for a, b in zip(*shared))
    for t in shared[0]:
        assert t.data.shape == (1, SMALL_L1.d)
        with pytest.raises(ValueError):
            t.data[0, 0] = 1.0
    recording = ProbeTape(recording=True)
    slate = ar_decode(req, params, SMALL_L1, recording)
    assert all(t.data.flags.writeable for t in recording.operands)
    assert slate.indices == ar_decode(req, fresh_params(params), SMALL_L1).indices


def test_decode_never_repeats_and_is_deterministic():
    rng = np.random.default_rng(7)
    params = init_ar_params(SMALL)
    for _ in range(30):
        req = make_request(rng, int(rng.integers(3, 7)))
        slate = ar_decode(req, params, SMALL)
        assert len(set(slate.indices)) == SMALL.m
        assert all(0 <= i < req.n for i in slate.indices)
        assert ar_decode(req, params, SMALL) == slate


def test_decode_infeasible_when_m_exceeds_n():
    rng = np.random.default_rng(8)
    params = init_ar_params(SMALL)
    with pytest.raises(InfeasibleSlateError):
        ar_decode(make_request(rng, 2), params, SMALL)


def test_single_request_overfit_recovers_logged_slate():
    cfg = GeneratorConfig(n_max=5, m=2, d=8, h=2, L=1, d_x=4, d_t=5, seed=9)
    params = init_ar_params(cfg)
    rng = np.random.default_rng(10)
    req = make_request(rng, 5, exposed=(3, 1))
    state = AdamState(lr=5e-3)
    loss = None
    for _ in range(200):
        tape = Tape()
        loss = ar_sequence_loss(req, params, cfg, tape)
        tape.backward(loss)
        adam_step(params, state)
    assert loss.item() < 0.1
    assert ar_decode(req, params, cfg).indices == (3, 1)


# ------------------------------------------- one tape per minibatch

# the pointer baseline reads no feedback; a logged request still needs some
ZERO_FEEDBACK = FeedbackMatrix(np.zeros((1, SMALL.m)), ("click",))


def _ragged_requests(seed=11, ns=(3, 6, 4, 5, 3, 6)):
    """Requests with n from m to n_max, each with its own logged slate."""
    rng = np.random.default_rng(seed)
    return [RequestBatch(request_id=200 + i, user_id=0, item_ids=np.arange(n),
                         features=rng.normal(size=(n, SMALL.d_x)),
                         exposed=tuple(rng.choice(n, size=SMALL.m, replace=False).tolist()),
                         feedback=ZERO_FEEDBACK)
            for i, n in enumerate(ns)]


def _table(reqs):
    return LogTable.of([ExposureLog(r) for r in reqs])


def _sharp_params():
    params = init_ar_params(SMALL)
    inflate_weights(params, 15.0)
    return params


def test_batched_sequence_loss_and_gradients_match_one_tape_per_request():
    params = _sharp_params()
    reqs = _ragged_requests()
    tape = Tape()
    losses = ar_sequence_loss(_table(reqs), params, SMALL, tape)
    assert losses.data.shape == (len(reqs),)
    tape.backward(tape.sum(losses))
    batched = {name: t.grad.copy() for name, t in params.items()}
    for _, t in params.items():
        t.grad[...] = 0.0

    for b, req in enumerate(reqs):
        tape = Tape()
        one = ar_sequence_loss(req, params, SMALL, tape)
        assert one.data.shape == ()
        assert abs(losses.data[b] - one.item()) <= 1e-10 * max(1.0, abs(one.item())), b
        tape.backward(one)  # gradients add up over the per-request tapes
    for name, t in params.items():
        scale = max(1.0, float(np.abs(t.grad).max()))
        assert np.abs(batched[name] - t.grad).max() <= 1e-10 * scale, name


def test_batched_padded_candidates_get_zero_probability_and_gradient():
    params = _sharp_params()
    reqs = _ragged_requests()
    feats, valid = _stack_requests(_table(reqs), SMALL)
    x = Tensor(feats)
    y = np.array([r.exposed for r in reqs])
    tape = Tape()
    cand = encode_candidates(x, params, SMALL, tape, valid=valid)
    probs = point(tape, params, cand, y[:, :-1], SMALL, valid)
    assert probs.data.shape == (len(reqs), SMALL.m, SMALL.n_max)
    picked = tape.take_entries(probs, np.broadcast_to(np.arange(SMALL.m), y.shape), y)
    tape.backward(tape.sum(tape.log(picked)))
    for b, req in enumerate(reqs):
        n = req.n
        assert (probs.data[b, :, n:] == 0.0).all()
        assert (x.grad[b, n:] == 0.0).all()
        assert (x.grad[b, :n] != 0.0).any()
        assert np.abs(probs.data[b].sum(axis=1) - 1.0).max() < 1e-12
        for t in range(1, SMALL.m):  # chosen items are out of later rows
            assert (probs.data[b, t:, y[b, t - 1]] == 0.0).all()


def test_batched_sequence_loss_validates_every_slate():
    # a stack is a LogTable, so a bad slate stops where the table is built
    reqs = _ragged_requests()
    bad = RequestBatch(request_id=7, user_id=0, item_ids=np.arange(4),
                       features=np.zeros((4, SMALL.d_x)), exposed=(0, 1, 5),
                       feedback=ZERO_FEEDBACK)
    with pytest.raises(InvalidSlateError, match="out of range"):
        _table(reqs + [bad])
