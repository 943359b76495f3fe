import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff, gradcheck, max_rel_err
from slaterank import numerics
from slaterank.errors import (
    MissingGradientError,
    NumericsError,
    ShapeError,
)
from slaterank.generator import ProbMatrix
from slaterank.numerics import (
    AdamState,
    Params,
    Tape,
    Tensor,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from slaterank.objectives import UtilitySpec, total_loss


def test_matmul_identity():
    t = Tape()
    a = Tensor(np.eye(2))
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    out = t.matmul(a, b)
    assert np.array_equal(out.data, b.data)


def test_matmul_hand_case():
    t = Tape()
    out = t.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.item() == 11.0


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        Tape().matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_elementwise_shape_mismatch_names_op_and_shapes():
    # NumPy's broadcast ValueError comes back as a ShapeError
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4,)))
    for op in ("add", "sub", "mul"):
        with pytest.raises(ShapeError, match=rf"{op} got \(2, 3\) and \(4,\)"):
            getattr(Tape(), op)(a, b)


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))

    def loss(tape):
        prod = tape.matmul(a, b)
        return tape.sum(tape.mul(prod, prod))

    err = gradcheck(loss, [a, b], rtol=1e-6)
    assert err < 1e-6


def test_softmax_columns_uniform_on_zero_input():
    out = Tape().softmax_columns(Tensor(np.zeros((3, 2))))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_columns_hand_case():
    col = Tensor(np.array([[np.log(2.0)], [np.log(1.0)]]))
    out = Tape().softmax_columns(col)
    assert out.data[:, 0] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_softmax_columns_sums_to_one(seed):
    rng = np.random.default_rng(seed)
    out = Tape().softmax_columns(Tensor(rng.normal(scale=5.0, size=(10, 4))))
    sums = out.data.sum(axis=0)
    assert np.abs(sums - 1.0).max() < 1e-12


def test_softmax_columns_extreme_logits_stable():
    out = Tape().softmax_columns(Tensor([[1000.0], [-1000.0], [999.0]]))
    assert np.isfinite(out.data).all()
    assert out.data.sum(axis=0) == pytest.approx(1.0)


def test_softmax_columns_masked_rows_exactly_zero():
    rng = np.random.default_rng(3)
    valid = np.array([True, True, False, True, False])
    out = Tape().softmax_columns(Tensor(rng.normal(size=(5, 3))), valid_rows=valid)
    assert (out.data[~valid] == 0.0).all()
    assert np.abs(out.data.sum(axis=0) - 1.0).max() < 1e-12


def test_softmax_rows_masked_columns_zero_and_normalized():
    rng = np.random.default_rng(4)
    mask = np.array([True, False, True, True])
    out = Tape().softmax_rows(Tensor(rng.normal(size=(2, 4))), key_mask=mask)
    assert (out.data[:, 1] == 0.0).all()
    assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("lead", [(), (3,)], ids=["matrix", "stack"])
@pytest.mark.parametrize("recording", [True, False], ids=["recording", "serving"])
def test_a_fully_masked_line_raises_and_a_lone_allowed_entry_gets_one(recording, lead):
    # one rule for attention, softmax_rows and softmax_columns, on either
    # tape, alone or as the last matrix of a stack: a line with no allowed
    # entry is a ShapeError; a line with one puts probability exactly 1 there
    rng = np.random.default_rng(13)
    at = tuple(b - 1 for b in lead)  # the last matrix
    a = rng.normal(size=lead + (4, 5))
    q, kv = rng.normal(size=lead + (4, 6)), rng.normal(size=lead + (5, 6))

    def rows(line):
        mask = np.ones(lead + (4, 5), dtype=bool)
        mask[at + (1,)] = line
        return Tape(recording).softmax_rows(Tensor(a), key_mask=mask).data[at + (1,)]

    def columns(line):
        valid = np.ones(lead + (5,), dtype=bool)
        valid[at] = line
        out = Tape(recording).softmax_columns(Tensor(a.swapaxes(-1, -2)), valid_rows=valid)
        return out.data[at][:, 0]

    def attention(line):
        mask = np.ones(lead + (5,), dtype=bool)
        mask[at] = line
        return Tape(recording).attention(Tensor(q), Tensor(kv), Tensor(kv), 2,
                                         key_mask=mask).data[at]

    for op in (rows, columns, attention):
        with pytest.raises(ShapeError):
            op(np.zeros(5, dtype=bool))
    lone = np.arange(5) == 3
    assert np.array_equal(rows(lone), lone) and np.array_equal(columns(lone), lone)
    # weight exactly 1 on key 3: every query's output is that key's value row
    assert np.array_equal(attention(lone), np.broadcast_to(kv[at][3], (4, 6)))


def test_a_masked_line_whose_allowed_entries_are_all_minus_inf_raises():
    # the masked-line rule reads the line's maximum after masking, so a line
    # whose allowed entries are all -inf has no entry to normalise over
    a = np.zeros((3, 4))
    a[1, :2] = -np.inf
    mask = np.array([[True] * 4, [True, True, False, False], [True] * 4])
    for tape in (Tape(), Tape(recording=False)):
        with pytest.raises(ShapeError):
            tape.softmax_rows(Tensor(a), key_mask=mask)
        with pytest.raises(ShapeError):
            tape.softmax_columns(Tensor(a.T), valid_rows=mask.T[:, 1])


@pytest.mark.parametrize("recording", [True, False], ids=["recording", "serving"])
def test_softmax_masks_of_the_wrong_shape_are_shape_errors(recording):
    # a mask that does not broadcast, or that would broadcast the input to
    # more rows, is a ShapeError from every softmax op, not NumPy's ValueError
    tape = Tape(recording)
    a = Tensor(np.zeros((2, 3, 4)))
    q, kv = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4)))
    for call in (
        lambda: tape.softmax_rows(a, key_mask=np.ones(3, dtype=bool)),
        lambda: tape.softmax_rows(a, key_mask=np.ones((3, 3, 4), dtype=bool)),
        lambda: tape.softmax_rows(Tensor(np.zeros((3, 4))), key_mask=np.ones((2, 3, 4), dtype=bool)),
        lambda: tape.softmax_columns(a, valid_rows=np.ones(4, dtype=bool)),
        lambda: tape.softmax_columns(a, valid_rows=np.ones((2, 4), dtype=bool)),
        lambda: tape.attention(q, kv, kv, 2, key_mask=np.ones(4, dtype=bool)),
        lambda: tape.attention(q, kv, kv, 2, key_mask=np.ones((3, 5), dtype=bool)),
    ):
        with pytest.raises(ShapeError):
            call()


def test_elementwise_and_reduction_gradients():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=3))
    gain = Tensor(rng.normal(size=3) + 1.0)
    bias = Tensor(rng.normal(size=3))

    def loss(tape):
        h = tape.linear(x, w, b)
        h = tape.layer_norm(h, gain, bias)
        h = tape.gelu(h)
        h = tape.sigmoid(h)
        s = tape.softmax_rows(h)
        picked = tape.take_entries(s, [0, 1, 2], [2, 0, 1])
        safe = tape.clamp_min(picked, 1e-12)
        return tape.mask(tape.sum(tape.log(safe)), -1.0)

    gradcheck(loss, [x, w, b, gain, bias])


def test_softmax_columns_gradient():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.normal(size=(5, 3)))
    coef = rng.normal(size=(5, 3))

    def loss(tape):
        y = tape.softmax_columns(logits)
        return tape.sum(tape.mask(y, coef))

    gradcheck(loss, [logits])


def test_concat_slice_transpose_gradients():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(3, 2)))
    b = Tensor(rng.normal(size=(3, 2)))

    def loss(tape):
        stacked = tape.concat_rows([a, b])
        middle = tape.slice_rows(stacked, 1, 4)
        prod = tape.matmul(middle, tape.transpose(stacked))
        return tape.sum(prod)

    gradcheck(loss, [a, b])


def test_column_concat_and_stacked_slice_gradients():
    # gradients of a column concat, (d, 1) weights and (1,) biases joined
    # along the last axis beside constant columns, and of rows sliced from
    # each matrix of a stack
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w1, w2 = Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=(4, 1)))
    b1, b2 = Tensor(rng.normal(size=(1,))), Tensor(rng.normal(size=(1,)))
    coef = rng.normal(size=(2, 2, 3))

    def loss(tape):
        w = tape.concat_rows([w1, w2, Tensor(np.zeros((4, 2)))], axis=-1)
        b = tape.concat_rows([b1, b2, Tensor(np.zeros(2))], axis=-1)
        rows = tape.slice_rows(tape.transpose(tape.linear(x, w, b)), 0, 2)
        return tape.sum(tape.mask(tape.gelu(rows), coef))

    gradcheck(loss, [x, w1, w2, b1, b2])
    with pytest.raises(ShapeError):
        Tape().concat_rows([b1, b2])


def test_take_rows_and_broadcast_concat_gradients():
    # a repeated row index must add both gradients into that row; a shared
    # (1, c) row joins a (B, r, c) stack and gets the batch's summed gradient
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(4, 3)))
    stack = Tensor(rng.normal(size=(2, 4, 3)))
    shared = Tensor(rng.normal(size=(1, 3)))
    coef = rng.normal(size=(2, 4, 3))

    def loss(tape):
        rows = tape.take_rows(a, [2, 0, 2])
        picked = tape.take_rows(stack, [[1, 3, 1], [0, 0, 2]])
        joined = tape.concat_rows([shared, tape.add(picked, rows)])
        return tape.sum(tape.mask(tape.gelu(joined), coef))

    gradcheck(loss, [a, stack, shared])
    out = Tape().take_rows(stack, [[1, 3], [0, 2]])
    assert np.array_equal(out.data[1], stack.data[1, [0, 2]])
    with pytest.raises(ShapeError):
        Tape().take_rows(stack, [1, 3])
    with pytest.raises(ShapeError):
        Tape().take_rows(a, [[1, 3]])


def test_row_normalize_gradient_and_zero_row_flag():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(4, 3)))

    def loss(tape):
        y = tape.row_normalize(a)
        sims = tape.matmul(y, tape.transpose(y))
        return tape.sum(sims)

    gradcheck(loss, [a])

    z = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.warns(RuntimeWarning):
        out = Tape().row_normalize(z)
    assert (out.data[0] == 0.0).all()


def test_backward_requires_scalar_root():
    t = Tape()
    x = Tensor(np.ones((2, 2)))
    y = t.mask(x, 2.0)
    with pytest.raises(ShapeError):
        t.backward(y)


def test_backward_rejects_non_finite_root():
    t = Tape()
    x = Tensor(np.array([1e308, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow to inf is the point
        y = t.sum(t.mul(x, x))
    with pytest.raises(NumericsError):
        t.backward(y)


def test_log_rejects_nonpositive():
    with pytest.raises(NumericsError):
        Tape().log(Tensor([0.0, 1.0]))


def test_gradient_accumulates_across_tapes():
    w = Tensor(np.array([[2.0]]))
    for _ in range(3):
        tape = Tape()
        out = tape.sum(tape.matmul(w, Tensor([[1.0]])))
        tape.backward(out)
    assert w.grad[0, 0] == 3.0


def test_params_memo_recomputes_on_any_change_to_its_key():
    params = Params()
    a = params.add("a", np.array([0.0, 1.0, np.nan]))
    b = params.add("b", np.array([2.0]))
    calls = []

    def get(extra=1, recording=False):
        def compute(p):
            calls.append(p["a"])  # the one parameter it reads
            return (Tensor([float(len(calls))]),)

        return params.memo("tag", Tape(recording=recording), extra, compute)[0].item()

    assert get() == 1 and get() == 1
    b.data[0] = 3.0  # compute does not read b
    assert get() == 1
    a.data[1] = 1.5  # it reads a
    assert get() == 2
    a.data[0] = -0.0
    assert get() == 3
    a.data[2] = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]  # another NaN
    assert get() == 4
    assert get(extra=2) == 5
    a.data = a.data.reshape(3, 1)  # same bytes, another shape
    assert get(extra=2) == 6
    # a recording tape computes on every call and keeps nothing
    assert get(extra=2, recording=True) == 7 and get(extra=2, recording=True) == 8
    assert get(extra=3, recording=True) == 9
    assert get(extra=2) == 6
    other = params.memo("other", Tape(recording=False), 2, lambda p: (Tensor([7.0]),))
    assert other[0].item() == 7.0 and get(extra=2) == 6
    with pytest.raises(ValueError):
        other[0].data[0] = 1.0


def test_adam_first_step_approximates_lr():
    params = Params()
    w = params.add("w", np.array(1.0).reshape(()))
    w.ensure_grad()[...] = 1.0
    state = AdamState(lr=1e-3)
    adam_step(params, state)
    assert w.data == pytest.approx(1.0 - 1e-3, abs=1e-9)
    assert w.grad == 0.0
    assert state.step == 1


def test_adam_zero_gradient_leaves_parameter_unchanged():
    params = Params()
    w = params.add("w", np.array([5.0]))
    w.ensure_grad()
    adam_step(params, AdamState())
    assert w.data[0] == 5.0


def test_adam_missing_gradient_raises():
    params = Params()
    params.add("w", np.array([1.0]))
    with pytest.raises(MissingGradientError):
        adam_step(params, AdamState())


def _two_params(rng, shapes=((3, 2), (4,))):
    params = Params()
    for i, shape in enumerate(shapes):
        params.add(f"p{i}", rng.normal(size=shape)).ensure_grad()[...] = rng.normal(size=shape)
    return params


def test_flat_adam_matches_the_per_tensor_update():
    # the flat buffers must give every parameter the bits of its own update
    rng = np.random.default_rng(0)
    params = _two_params(rng)
    want = {name: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data))
            for name, t in params.items()}
    state = AdamState(lr=0.05)
    for step in range(1, 4):
        grads = {name: rng.normal(size=t.data.shape) for name, t in params.items()}
        for name, t in params.items():
            t.grad[...] = grads[name]
            p, m, v = want[name]
            g = grads[name] * 0.25
            m[...] = m * 0.9 + (1.0 - 0.9) * g
            v[...] = v * 0.999 + (1.0 - 0.999) * g * g
            p -= 0.05 * (m / (1.0 - 0.9 ** step)) / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
        adam_step(params, state, grad_scale=0.25)
        for name, t in params.items():
            assert t.data.tobytes() == want[name][0].tobytes(), (step, name)
            assert not t.grad.any()
    assert state.step == 3


def test_adam_non_finite_gradient_names_its_parameter():
    params = _two_params(np.random.default_rng(1), shapes=((2, 2), (3,), (2,)))
    before = {name: t.data.copy() for name, t in params.items()}
    params["p1"].grad[2] = np.inf
    with pytest.raises(NumericsError, match="'p1'"):
        adam_step(params, AdamState())
    for name, t in params.items():  # nothing was updated
        assert np.array_equal(t.data, before[name])


def test_adam_state_reused_across_params_is_a_shape_error():
    rng = np.random.default_rng(2)
    state = AdamState()
    adam_step(_two_params(rng), state)
    for shapes in (((3, 2), (5,)), ((3, 2),), ((3, 2), (4,), (1,))):
        with pytest.raises(ShapeError, match="stale Adam buffer"):
            adam_step(_two_params(rng, shapes), state)


def test_adam_quadratic_bowl_converges():
    params = Params()
    w = params.add("w", np.array([1.0]))
    state = AdamState(lr=1e-2)
    losses = []
    for _ in range(200):
        tape = Tape()
        loss = tape.sum(tape.mul(w, w))
        losses.append(loss.item())
        tape.backward(loss)
        adam_step(params, state)
    assert abs(w.data[0]) < 0.1
    smoothed = np.convolve(losses, np.ones(20) / 20.0, mode="valid")
    assert (np.diff(smoothed) <= 1e-12).all()


def test_ops_deterministic_given_seed():
    def run():
        rng = np.random.default_rng(123)
        p = Params()
        w = p.new_gaussian("w", (4, 4), rng)
        tape = Tape()
        out = tape.sum(tape.gelu(tape.matmul(w, w)))
        tape.backward(out)
        return out.item(), w.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_params_reject_duplicate_names():
    p = Params()
    p.new_zeros("w", (2,))
    with pytest.raises(ShapeError):
        p.new_zeros("w", (2,))


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    p = Params()
    p.new_gaussian("enc.w", (3, 5), rng)
    p.new_zeros("enc.b", (5,))
    p.add("head", rng.normal(0.0, 1.3, size=(5, 2)))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, meta={"d": 5, "kind": "test"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"d": 5, "kind": "test"}
    assert loaded.names() == p.names()
    for name, t in p.items():
        assert np.array_equal(loaded[name].data, t.data)
        assert loaded[name].data.dtype == np.float64


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    from slaterank.errors import CheckpointError

    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_central_diff_helper_on_known_gradient():
    x = Tensor(np.array([2.0, -1.0]))

    def value():
        return float((x.data ** 3).sum())

    num = central_diff(value, [x])[0]
    assert max_rel_err([3.0 * x.data ** 2], [num]) < 1e-8


def _attention_loop(q, k, v, heads, allowed):
    """Reference: one head at a time, plain NumPy, on one matrix."""
    hd = q.shape[-1] // heads
    out = []
    for i in range(heads):
        cols = slice(i * hd, (i + 1) * hd)
        s = q[:, cols] @ k[:, cols].T / np.sqrt(hd)
        s = np.where(allowed, s, -np.inf)
        w = np.exp(s - s.max(axis=1, keepdims=True))
        out.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(out, axis=1)


def test_fused_attention_matches_per_head_loop():
    rng = np.random.default_rng(8)
    q, k, v = (rng.normal(size=(3, n, 6)) for n in (4, 5, 5))
    mask = rng.random((3, 5)) < 0.6
    mask[:, 0] = True
    out = Tape(recording=False).attention(Tensor(q), Tensor(k), Tensor(v), 2, key_mask=mask)
    for b in range(3):
        want = _attention_loop(q[b], k[b], v[b], 2, np.broadcast_to(mask[b], (4, 5)))
        assert np.abs(out.data[b] - want).max() < 1e-12
    causal = Tape(recording=False).attention(Tensor(q[0]), Tensor(q[0]), Tensor(q[0]), 3,
                                             causal=True)
    want = _attention_loop(q[0], q[0], q[0], 3, np.tril(np.ones((4, 4), dtype=bool)))
    assert np.abs(causal.data - want).max() < 1e-12


def test_causal_attention_reads_one_read_only_mask_per_shape():
    # causal attention takes its np.tri from a cache: a read-only corner of
    # one shared array, so no call can change a later one's mask, and a key
    # mask combined with it leaves it as it was; after the cache grows, a
    # smaller corner is still np.tri of its own shape
    tri = numerics._causal_mask(3, 5)
    assert np.shares_memory(tri, numerics._causal_mask(2, 4))
    assert np.array_equal(tri, np.tri(3, 5, dtype=bool))
    with pytest.raises(ValueError):
        tri[0, 1] = True
    for nq, nk in ((7, 2), (1, 9), (3, 5)):
        assert np.array_equal(numerics._causal_mask(nq, nk), np.tri(nq, nk, dtype=bool))
    rng = np.random.default_rng(12)
    q, kv = rng.normal(size=(3, 6)), rng.normal(size=(2, 5, 6))
    mask = np.array([[True, False, True, True, False], [True] * 5])
    for _ in range(2):
        out = Tape(recording=False).attention(Tensor(q), Tensor(kv), Tensor(kv), 2,
                                              key_mask=mask, causal=True)
        for b in range(2):
            want = _attention_loop(q, kv[b], kv[b], 2, mask[b] & np.tri(3, 5, dtype=bool))
            assert np.abs(out.data[b] - want).max() < 1e-12
    assert np.array_equal(numerics._causal_mask(3, 5), np.tri(3, 5, dtype=bool))


def test_fused_attention_gradients_on_a_masked_batch():
    rng = np.random.default_rng(9)
    q = Tensor(rng.normal(size=(3, 4, 6)))
    k = Tensor(rng.normal(size=(3, 5, 6)))
    v = Tensor(rng.normal(size=(3, 5, 6)))
    mask = rng.random((3, 5)) < 0.6
    mask[:, 0] = True
    mask[1, 4] = False
    coef = rng.normal(size=(3, 4, 6))

    def loss(tape):
        out = tape.attention(q, k, v, 2, key_mask=mask)
        return tape.sum(tape.mask(out, coef))

    gradcheck(loss, [q, k, v])
    tape = Tape()
    tape.backward(loss(tape))
    # masked keys get weight exactly 0, so their rows get gradient exactly 0
    assert (k.grad[~mask] == 0.0).all() and (v.grad[~mask] == 0.0).all()


def test_fused_attention_broadcasts_shared_queries_and_checks_masks():
    rng = np.random.default_rng(10)
    q = Tensor(rng.normal(size=(4, 6)))
    kv = Tensor(rng.normal(size=(3, 5, 6)))
    coef = rng.normal(size=(3, 4, 6))

    def loss(tape):
        return tape.sum(tape.mask(tape.attention(q, kv, kv, 2, causal=True), coef))

    gradcheck(loss, [q, kv])
    with pytest.raises(ShapeError):
        Tape().attention(q, kv, kv, 2, key_mask=np.zeros((3, 5), dtype=bool))
    with pytest.raises(ShapeError):
        Tape().attention(q, kv, kv, 4)


def test_batched_ops_sum_broadcast_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 4)))
    b = Tensor(rng.normal(size=4))
    shared = Tensor(rng.normal(size=(3, 4)))
    gain = Tensor(rng.normal(size=4) + 1.0)
    valid = np.array([[True, True, False], [True, True, True]])

    def loss(tape):
        h = tape.add(tape.linear(x, w, b), shared)
        h = tape.gelu(tape.layer_norm(h, gain, b))
        s = tape.softmax_columns(tape.matmul(h, tape.transpose(h)), valid_rows=valid)
        picked = tape.take_entries(s, [[0, 1], [2, 0]], [1, 2])
        return tape.sum(tape.log(tape.clamp_min(picked, 1e-12)))

    gradcheck(loss, [x, w, b, shared, gain])
    tape = Tape()
    tape.backward(loss(tape))
    assert len(tape) == 11 and not tape._ops


def test_pass_through_gradients_do_not_share_buffers():
    # add hands the same upstream gradient to both operands; x then takes a
    # second contribution from mul, which must not leak into y's gradient
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 2)))
    y = Tensor(rng.normal(size=(3, 2)))

    def loss(tape):
        square = tape.mul(x, x)
        both = tape.add(x, y)
        return tape.add(tape.sum(both), tape.sum(square))

    gradcheck(loss, [x, y])


def test_recording_rule_skips_unused_outputs_and_counts_ops():
    # evaluator._score reads a sigmoid through .data only: that output gets
    # no gradient, so backward skips it and its inputs keep .grad None
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 3)))
    w = Tensor(rng.normal(size=(3, 1)))
    tape = Tape()
    logits = tape.matmul(x, w)
    scores = tape.sigmoid(logits)
    assert scores.data.shape == (2, 1)
    tape.backward(tape.sum(tape.mul(w, w)))
    assert scores.grad is None and logits.grad is None and x.grad is None
    assert np.array_equal(w.grad, 2.0 * w.data)
    assert len(tape) == 4 and not tape._ops

    quiet = Tape(recording=False)
    quiet.sum(quiet.sigmoid(quiet.matmul(x, w)))
    assert len(quiet) == 0 and not quiet._ops


# ---- the op bodies, pinned bit for bit to the plain formulas they compute ----
#
# Each reference below is an op's body written as one NumPy expression per
# quantity, as numerics computed them before its in-place and ufunc-method
# rewrite. The ops must match them bit for bit, forward and backward: the
# rewrite keeps every floating-point operation and its order. A reference
# whose op sums along an axis or multiplies a stack takes the tape's kernels
# as its first argument: REDUCE, NumPy's reduce and stacked product, which a
# serving (non-recording) tape uses, or BLAS, products with ones and one
# product over the flattened stack, which a recording tape uses forward and
# backward. Each tape keeps its kernels at every size.


def _blas_rows(x):
    d = x.shape[-1]
    return (x.reshape(-1, d) @ np.ones(d)).reshape(*x.shape[:-1], 1)


def _blas_lead(g, lead):
    r = int(np.prod(g.shape[:lead]))
    return (np.ones(r) @ g.reshape(r, -1)).reshape(g.shape[lead:])


def _blas_product(x, w):
    return (x.reshape(-1, w.shape[0]) @ w).reshape(*x.shape[:-1], w.shape[1])


# rows(x) sums over the last axis and keeps it; lead(g, k) sums over g's
# first k axes; product(x, w) is x @ w for a stack x and a matrix w
REDUCE = SimpleNamespace(rows=lambda x: x.sum(axis=-1, keepdims=True),
                         lead=lambda g, k: g.sum(axis=tuple(range(k))),
                         product=lambda x, w: x @ w)
BLAS = SimpleNamespace(rows=_blas_rows, lead=_blas_lead, product=_blas_product)


def _ref_unbroadcast(s, g, shape):
    if g.shape == shape:
        return g
    g = s.lead(g, g.ndim - len(shape))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def _ref_split_heads(x, heads):
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-2, -3)


def _ref_merge_heads(x):
    *lead, heads, n, hd = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, heads * hd)


def _ref_logistic(x):
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def _ref_linear(s, g, x, w, b=None):
    y = s.product(x, w)
    if b is not None:
        y = y + b
    rows = x.reshape(-1, w.shape[0])
    g2 = g.reshape(-1, w.shape[1])
    grads = [(g2 @ w.T).reshape(x.shape), rows.T @ g2]
    if b is not None:
        grads.append(s.lead(g2, 1))
    return y, grads


def _ref_attention(s, g, q, k, v, heads, key_mask=None, causal=False):
    inv_sqrt = 1.0 / np.sqrt(q.shape[-1] // heads)
    qh, kh, vh = (_ref_split_heads(a, heads) for a in (q, k, v))
    allowed = None if key_mask is None else key_mask[..., None, None, :]
    if causal:
        tril = np.tril(np.ones((q.shape[-2], k.shape[-2]), dtype=bool))
        allowed = tril if allowed is None else allowed & tril
    scores = (qh @ kh.swapaxes(-1, -2)) * inv_sqrt
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= s.rows(w)
    gh = _ref_split_heads(g, heads)
    dw = gh @ vh.swapaxes(-1, -2)
    ds = w * (dw - s.rows(dw * w)) * inv_sqrt
    return _ref_merge_heads(w @ vh), [
        _ref_unbroadcast(s, _ref_merge_heads(ds @ kh), q.shape),
        _ref_unbroadcast(s, _ref_merge_heads(ds.swapaxes(-1, -2) @ qh), k.shape),
        _ref_unbroadcast(s, _ref_merge_heads(w.swapaxes(-1, -2) @ gh), v.shape)]


def _ref_gelu(g, x):
    c, k = np.sqrt(2.0 / np.pi), 0.044715
    t = np.tanh(c * (x + k * (x * x * x)))
    d_inner = c * (1.0 + 3.0 * k * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
    return 0.5 * x * (1.0 + t), [g * local]


def _ref_sigmoid(g, x):
    y = _ref_logistic(x)
    return y, [g * y * (1.0 - y)]


def _ref_softplus(g, x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), [g * _ref_logistic(x)]


def _ref_layer_norm(s, g, x, gain, bias, eps=1e-5):
    d = x.shape[-1]
    mu = s.rows(x) / d
    xc = x - mu
    inv = 1.0 / np.sqrt(s.rows(xc * xc) / d + eps)
    xhat = (x - mu) * inv
    dxhat = g * gain
    term = dxhat - s.rows(dxhat) / d - xhat * (s.rows(dxhat * xhat) / d)
    return xc * inv * gain + bias, [inv * term, s.lead((g * xhat).reshape(-1, d), 1),
                                    s.lead(g.reshape(-1, d), 1)]


def _ref_softmax(g, a, allowed, axis, total):
    """Softmax along `axis`, with `total` its sum along that axis."""
    work = a if allowed is None else np.where(allowed, a, -np.inf)
    e = np.exp(work - work.max(axis=axis, keepdims=True))
    y = e / total(e)
    return y, [y * (g - total(g * y))]


def _ref_softmax_rows(s, g, a, allowed=None):
    return _ref_softmax(g, a, allowed, -1, s.rows)


def _ref_softmax_columns(g, a, allowed=None):
    # both tapes sum down the columns with NumPy's reduce
    return _ref_softmax(g, a, allowed, -2, lambda x: x.sum(axis=-2, keepdims=True))


def _ref_row_normalize(s, g, a):
    norms = np.sqrt(s.rows(a * a))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    y = a / safe
    da = (g - y * s.rows(g * y)) / safe
    return y, [np.where(zero, 0.0, da)]


def _ref_mul(s, g, a, b):
    return a * b, [_ref_unbroadcast(s, g * b, a.shape), _ref_unbroadcast(s, g * a, b.shape)]


def _ref_add(s, g, a, b):
    return a + b, [_ref_unbroadcast(s, g, a.shape), _ref_unbroadcast(s, g, b.shape)]


def _kernel_free(ref):
    """A reference whose op sums along no axis, called as the others are."""
    return lambda s, *args: ref(*args)


def _with_edges(x, rng):
    """x with about a third of its entries replaced by +-0.0, +-40 and +-800."""
    x = x.copy()
    flat = x.reshape(-1)
    at = rng.random(flat.size) < 0.35
    flat[at] = rng.choice([0.0, -0.0, 40.0, -40.0, 800.0, -800.0], size=int(at.sum()))
    return x


def _op_cases():
    """(name, tape call, reference, input arrays): 2-D and batched 3-D inputs,
    masked and causal attention, and cross-attention from shared queries."""
    rng = np.random.default_rng(2024)

    def a(*shape, scale=1.0, edges=False):
        x = rng.normal(scale=scale, size=shape)
        return _with_edges(x, rng) if edges else x

    key_mask = rng.random((3, 5)) < 0.6
    key_mask[:, 0] = True
    row_mask = rng.random((3, 5, 4)) < 0.6
    row_mask[..., 0] = True
    valid = rng.random((3, 5)) < 0.6
    valid[:, 0] = True
    zero_row = a(5, 4)
    zero_row[2] = 0.0
    cases = [
        ("linear_2d_bias", lambda tp, x, w, b: tp.linear(x, w, b), _ref_linear,
         [a(5, 4), a(4, 3), a(3)]),
        ("linear_2d", lambda tp, x, w: tp.linear(x, w), _ref_linear, [a(5, 4), a(4, 3)]),
        ("linear_3d_bias", lambda tp, x, w, b: tp.linear(x, w, b), _ref_linear,
         [a(3, 5, 4), a(4, 3), a(3)]),
        ("attention_self_2d", lambda tp, q, k, v: tp.attention(q, k, v, 2),
         partial(_ref_attention, heads=2), [a(5, 4), a(5, 4), a(5, 4)]),
        ("attention_masked_3d",
         lambda tp, q, k, v: tp.attention(q, k, v, 2, key_mask=key_mask),
         partial(_ref_attention, heads=2, key_mask=key_mask),
         [a(3, 4, 4), a(3, 5, 4), a(3, 5, 4)]),
        ("attention_causal_masked_3d",
         lambda tp, q, k, v: tp.attention(q, k, v, 4, key_mask=key_mask, causal=True),
         partial(_ref_attention, heads=4, key_mask=key_mask, causal=True),
         [a(3, 5, 8, scale=3.0), a(3, 5, 8), a(3, 5, 8)]),
        ("attention_shared_queries",
         lambda tp, q, k, v: tp.attention(q, k, v, 2),
         partial(_ref_attention, heads=2), [a(6, 4), a(3, 5, 4), a(3, 5, 4)]),
        ("gelu", lambda tp, x: tp.gelu(x), _kernel_free(_ref_gelu),
         [a(3, 5, 4, scale=3.0, edges=True)]),
        ("sigmoid", lambda tp, x: tp.sigmoid(x), _kernel_free(_ref_sigmoid),
         [a(3, 5, 4, scale=5.0, edges=True)]),
        ("softplus", lambda tp, x: tp.softplus(x), _kernel_free(_ref_softplus),
         [a(5, 4, scale=5.0, edges=True)]),
        ("layer_norm_2d", lambda tp, x, gn, b: tp.layer_norm(x, gn, b), _ref_layer_norm,
         [a(5, 4, scale=2.0, edges=True), a(4), a(4)]),
        ("layer_norm_3d", lambda tp, x, gn, b: tp.layer_norm(x, gn, b), _ref_layer_norm,
         [a(3, 5, 4, scale=2.0), a(4), a(4)]),
        ("softmax_rows_masked", lambda tp, x: tp.softmax_rows(x, key_mask=row_mask),
         partial(_ref_softmax_rows, allowed=row_mask), [a(3, 5, 4, scale=3.0)]),
        ("softmax_columns_2d", lambda tp, x: tp.softmax_columns(x),
         _kernel_free(_ref_softmax_columns), [a(5, 4, scale=3.0, edges=True)]),
        ("softmax_columns_masked",
         lambda tp, x: tp.softmax_columns(x, valid_rows=valid),
         _kernel_free(partial(_ref_softmax_columns, allowed=valid[..., None])),
         [a(3, 5, 4, scale=3.0)]),
        ("row_normalize", lambda tp, x: tp.row_normalize(x), _ref_row_normalize,
         [zero_row]),
        ("mul_broadcast", lambda tp, x, y: tp.mul(x, y), _ref_mul, [a(3, 5, 4), a(1, 4)]),
        ("sum", lambda tp, x: tp.sum(x, axis=-1),
         _kernel_free(lambda g, x: (x.sum(axis=-1), [np.zeros_like(x) + g[..., None]])),
         [a(3, 5, 4)]),
        ("sum_all", lambda tp, x: tp.sum(x),
         _kernel_free(lambda g, x: (x.sum(), [np.zeros_like(x) + g])),
         [a(3, 5, 4)]),
    ]
    return [pytest.param(call, ref, inputs, id=name) for name, call, ref, inputs in cases]


@pytest.mark.parametrize("call, ref, inputs", _op_cases())
def test_ops_match_their_plain_formulas_bit_for_bit(call, ref, inputs):
    """On a recording tape, the forward value and every input gradient match
    the reference with BLAS sums, given a seeded upstream gradient g (mask by
    g, then sum, hands the op exactly g); on a serving tape, the forward
    value matches the reference with NumPy's reduce."""
    tensors = [Tensor(x.copy()) for x in inputs]
    tape = Tape()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # row_normalize's zero row
        out = call(tape, *tensors)
        served = call(Tape(recording=False), *[Tensor(x.copy()) for x in inputs])
    g = np.random.default_rng(7).normal(size=out.shape)
    tape.backward(tape.sum(tape.mask(out, g)))
    want_out, want_grads = ref(BLAS, g, *inputs)
    assert out.data.tobytes() == np.asarray(want_out).tobytes(), "forward"
    assert out.data.shape == np.shape(want_out)
    for i, (t, want) in enumerate(zip(tensors, want_grads)):
        assert t.grad.shape == want.shape and t.grad.tobytes() == want.tobytes(), \
            f"gradient of input {i}"
    want_served, _ = ref(REDUCE, g, *inputs)
    assert served.data.tobytes() == np.asarray(want_served).tobytes(), "serving forward"
    # the op wrote into no operand
    for t, x in zip(tensors, inputs):
        assert t.data.tobytes() == x.tobytes()


# ---- the same ops at minibatch sizes ----
#
# perfbench trains on stacks of 16 to 32 requests of up to 20 candidates, so
# one sum spans hundreds of rows there; the checks are the ones above.


def _minibatch_cases():
    """(name, tape call, reference, input arrays) at minibatch sizes:
    perfbench's training shapes (16 stacks of 20 rows of width 16, two
    heads), stacks of 6 slots, and 2-D inputs of 64 rows."""
    rng = np.random.default_rng(2025)

    def a(*shape, scale=1.0):
        return rng.normal(scale=scale, size=shape)

    key_mask = rng.random((16, 20)) < 0.7
    key_mask[:, 0] = True
    col_mask = rng.random((16, 20, 20)) < 0.7
    col_mask[..., 0] = True
    zero_row = a(16, 20, 16)
    zero_row[3, 7] = 0.0
    cases = [
        ("linear_bias_at_row_count", lambda tp, x, w, b: tp.linear(x, w, b), _ref_linear,
         [a(64, 12), a(12, 10), a(10)]),
        ("linear_3d_bias", lambda tp, x, w, b: tp.linear(x, w, b), _ref_linear,
         [a(16, 20, 16), a(16, 12), a(12)]),
        ("attention_masked", lambda tp, q, k, v: tp.attention(q, k, v, 2, key_mask=key_mask),
         partial(_ref_attention, heads=2, key_mask=key_mask),
         [a(16, 20, 16), a(16, 20, 16), a(16, 20, 16)]),
        ("attention_causal",
         lambda tp, q, k, v: tp.attention(q, k, v, 2, key_mask=key_mask, causal=True),
         partial(_ref_attention, heads=2, key_mask=key_mask, causal=True),
         [a(16, 20, 16, scale=3.0), a(16, 20, 16), a(16, 20, 16)]),
        ("attention_shared_queries", lambda tp, q, k, v: tp.attention(q, k, v, 2),
         partial(_ref_attention, heads=2), [a(6, 16), a(64, 20, 16), a(64, 20, 16)]),
        ("attention_slots", lambda tp, q, k, v: tp.attention(q, k, v, 2, causal=True),
         partial(_ref_attention, heads=2, causal=True),
         [a(64, 6, 16), a(64, 6, 16), a(64, 6, 16)]),
        ("layer_norm_at_row_count", lambda tp, x, gn, b: tp.layer_norm(x, gn, b),
         _ref_layer_norm, [a(64, 16, scale=2.0), a(16), a(16)]),
        ("layer_norm_3d", lambda tp, x, gn, b: tp.layer_norm(x, gn, b), _ref_layer_norm,
         [a(16, 20, 16, scale=2.0), a(16), a(16)]),
        ("softmax_rows_masked", lambda tp, x: tp.softmax_rows(x, key_mask=col_mask),
         partial(_ref_softmax_rows, allowed=col_mask), [a(16, 20, 20, scale=3.0)]),
        ("softmax_rows_short", lambda tp, x: tp.softmax_rows(x), _ref_softmax_rows,
         [a(64, 1, 5, scale=3.0)]),
        ("row_normalize", lambda tp, x: tp.row_normalize(x), _ref_row_normalize,
         [zero_row]),
        ("add_broadcast", lambda tp, x, y: tp.add(x, y), _ref_add, [a(16, 20, 16), a(16)]),
    ]
    return [pytest.param(call, ref, inputs, id=name) for name, call, ref, inputs in cases]


@pytest.mark.parametrize("call, ref, inputs", _minibatch_cases())
def test_minibatch_ops_match_their_blas_formulas_bit_for_bit(call, ref, inputs):
    test_ops_match_their_plain_formulas_bit_for_bit(call, ref, inputs)


def test_no_public_tape_method_calls_another(monkeypatch):
    """Each public Tape method does its work without going through another
    public one, so a timer wrapped around each charges every op its own time
    only. The two op tables above drive their ops, the other ops run once
    each, and the generator's loss runs on both of its branches."""
    public = {name for name, v in vars(Tape).items()
              if callable(v) and not name.startswith("_")}
    stack, called, nested = [], set(), set()

    def wrap(name, method):
        def wrapper(*args, **kwargs):
            if stack:
                nested.add((stack[-1], name))
            stack.append(name)
            called.add(name)
            try:
                return method(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    for name in public:
        monkeypatch.setattr(Tape, name, wrap(name, vars(Tape)[name]))
    for case in _op_cases() + _minibatch_cases():
        test_ops_match_their_plain_formulas_bit_for_bit(*case.values)

    rng = np.random.default_rng(3)
    x, y = Tensor(rng.normal(size=(2, 5, 3))), Tensor(rng.normal(size=(2, 5, 3)))
    values = rng.uniform(0.05, 1.0, size=(2, 5, 3))
    probs = ProbMatrix(values=Tensor(values / values.sum(axis=-2, keepdims=True)),
                       candidate_reps=Tensor(rng.normal(size=(2, 5, 4))),
                       position_reps=Tensor(rng.normal(size=(2, 3, 4))))
    tape = Tape()
    parts = [tape.matmul(x, tape.transpose(y)), tape.sub(x, y), tape.add_scalar(x, 1.0),
             tape.log(tape.clamp_min(x, 0.1)), tape.take_entries(x, [[0, 4], [1, 2]], [0, 2]),
             tape.take_rows(x, [[0, 0], [3, 1]]), tape.slice_rows(x, 1, 3),
             tape.concat_rows([x, y]),
             total_loss(tape, probs, [(0, 1, 2), (4, 3, 0)], np.array([2.0, 0.0]),
                        UtilitySpec(types=("click",), weights=(1.0,), tau=1.0)).total]
    root = tape.sum(parts[0])
    for part in parts[1:]:
        root = tape.add(root, tape.sum(part))
    assert tape.largest_output() is not None
    tape.backward(root)
    assert not nested, f"(outer, inner) calls: {sorted(nested)}"
    assert called == public, f"not driven: {sorted(public - called)}"


def _kernel_cases(rows, rng):
    """(tape call, reference, input arrays, the output that tells NumPy's
    reduce from BLAS: 0 for the forward value, i for the gradient of input i)
    for each op that sums along an axis, its sums spanning `rows` rows: a
    layer norm, one-head attention of one query over 10 keys, a row softmax,
    a row normalisation, the bias gradient of linear, and the gradient add
    sums into a broadcast bias row (`_unbroadcast`)."""
    def a(*shape, spread=3):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-spread, spread + 1, size=shape)

    return [
        (lambda tp, x, gn, b: tp.layer_norm(x, gn, b), _ref_layer_norm,
         [a(rows, 16), a(16), a(16)], 0),
        (lambda tp, q, k, v: tp.attention(q, k, v, 1), partial(_ref_attention, heads=1),
         [a(rows, 1, 8, spread=0), a(rows, 10, 8, spread=0), a(rows, 10, 8)], 0),
        (lambda tp, x: tp.softmax_rows(x), _ref_softmax_rows, [a(rows, 10, spread=0)], 0),
        (lambda tp, x: tp.row_normalize(x), _ref_row_normalize, [a(rows, 16)], 0),
        (lambda tp, x, w, b: tp.linear(x, w, b), _ref_linear,
         [a(rows, 12), a(12, 10), a(10)], 3),
        (lambda tp, x, y: tp.add(x, y), _ref_add, [a(rows, 16), a(16)], 2),
    ]


@pytest.mark.parametrize("rows", [63, 256])
def test_each_tape_sums_with_its_own_kernel_at_every_size(rows):
    """A serving tape sums as NumPy's reduce does and a recording tape
    through BLAS, both at 63 rows and at a minibatch's 256. The data is such
    that the two kernels give other bits."""
    rng = np.random.default_rng(rows)
    for call, ref, inputs, told in _kernel_cases(rows, rng):
        # the upstream gradient the test above hands the op
        shape = call(Tape(recording=False), *map(Tensor, inputs)).shape
        g = np.random.default_rng(7).normal(size=shape)
        (out_r, grads_r), (out_b, grads_b) = ref(REDUCE, g, *inputs), ref(BLAS, g, *inputs)
        assert (out_r, *grads_r)[told].tobytes() != (out_b, *grads_b)[told].tobytes()
        test_ops_match_their_plain_formulas_bit_for_bit(call, ref, inputs)


@pytest.mark.parametrize("e", [1, 2, 4, 32])
def test_serving_linear_gives_each_example_of_a_stack_its_own_bits(e):
    """On a serving tape, linear over a (K, r, d) stack equals the K products
    of its examples alone, bit for bit, at any K: here up to 3000 stacked
    slates of m = 6 rows at d = 32, far past the height where one BLAS
    product over the whole stack gives some rows other bits."""
    rng = np.random.default_rng(e)
    x = rng.normal(size=(3000, 6, 32))
    w, b = Tensor(rng.normal(size=(32, e))), Tensor(rng.normal(size=e))
    tape = Tape(recording=False)
    alone = np.stack([tape.linear(Tensor(xk), w, b).data for xk in x])
    for k in (1, 7, 1303, 3000):
        stacked = tape.linear(Tensor(x[:k]), w, b).data
        assert stacked.shape == (k, 6, e)
        assert stacked.tobytes() == alone[:k].tobytes(), k


_PAYLOAD_NANS = np.array([0x7FF8000000000123, 0xFFF8000000000456, 0x7FF800000000BEEF],
                         dtype=np.uint64).view(np.float64)
_EDGES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e-324, np.inf, -np.inf,
                          np.nan, *_PAYLOAD_NANS])
_ENTRIES = st.one_of(_EDGES, st.floats(width=64, allow_nan=False),
                     st.just(-np.inf))  # masked entries, as attention masks them
_SHORT_ROWS = st.integers(1, 7).flatmap(
    lambda d: st.lists(st.lists(_ENTRIES, min_size=d, max_size=d), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(_SHORT_ROWS | st.lists(st.lists(_ENTRIES, min_size=20, max_size=20), min_size=1,
                              max_size=4))
def test_row_max_fold_is_numpys_reduce_where_attention_reads_it(rows):
    """The fold gives np.maximum.reduce's maximum bit for bit, except that a
    zero may have the other sign and a NaN another payload (NumPy's own
    reduce replaces a NaN's payload or not depending on where the NaN sits
    and on the CPU's vector width). Attention only subtracts the maximum
    before exp, where neither shows: exp(x - max) is the same bit for bit on
    every row without a NaN, and NaN where the reduce gives NaN."""
    x = np.array(rows, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = numerics._row_max(x)
        want = np.maximum.reduce(x, axis=-1, keepdims=True)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        nonzero = ~nan & (want != 0.0)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert np.array_equal(got[~nan], want[~nan])
        clean = ~np.isnan(x).any(axis=-1)
        assert np.exp(x - got)[clean].tobytes() == np.exp(x - want)[clean].tobytes()


def test_logistic_matches_its_plain_formula_at_edges_and_nan():
    # the sign and payload of a NaN, signed zeros, and values where exp
    # overflows or underflows, in both the forward value and the gradient
    payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    x = np.array([[np.nan, -np.nan, payload, -payload, 0.0, -0.0, 40.0, -40.0,
                   709.0, -709.0, 746.0, -746.0, 800.0, -800.0, 5e-324, -5e-324,
                   np.inf, -np.inf]])
    g = np.random.default_rng(3).normal(size=x.shape)
    for op, ref in (("sigmoid", _ref_sigmoid), ("softplus", _ref_softplus)):
        a = Tensor(x.copy())
        out = getattr(Tape(recording=False), op)(a)
        want, _ = ref(g, x)
        assert out.data.view(np.uint64).tolist() == want.view(np.uint64).tolist(), op
    finite = x[np.isfinite(x)][None]
    for op, ref in (("sigmoid", _ref_sigmoid), ("softplus", _ref_softplus),
                    ("gelu", _ref_gelu)):
        a = Tensor(finite.copy())
        tape = Tape()
        out = getattr(tape, op)(a)
        gf = g[:, :finite.shape[1]]
        tape.backward(tape.sum(tape.mask(out, gf)))
        want, (want_grad,) = ref(gf, finite)
        assert out.data.tobytes() == want.tobytes(), op
        assert a.grad.tobytes() == want_grad.tobytes(), op


def _ref_unit_rows(reps):
    norms = np.linalg.norm(reps, axis=1, keepdims=True)
    return np.divide(reps, norms, out=np.zeros_like(reps), where=norms > 0.0)


def _ref_contrastive(values, reps, alpha):
    unit = _ref_unit_rows(reps)
    selected = np.zeros(len(values), dtype=bool)
    max_sim, chosen = None, []
    for t in range(values.shape[1]):
        score = (1.0 - alpha) * values[:, t]
        if max_sim is not None:
            score = score - alpha * max_sim
        pick = int(np.argmax(np.where(selected, -np.inf, score)))
        chosen.append(pick)
        selected[pick] = True
        sims = unit @ unit[pick]
        max_sim = sims if max_sim is None else np.maximum(max_sim, sims)
    return tuple(chosen), tuple(values[chosen, np.arange(len(chosen))])


def _ref_topk_draws(values, k, num, rng):
    n, m = values.shape
    order = np.argsort(-values, axis=0, kind="stable")
    uniforms = rng.random((num, m))
    selected = np.zeros((num, n), dtype=bool)
    chosen = np.empty((num, m), dtype=np.int64)
    rows = np.arange(num)
    for t in range(m):
        ranked = order[:, t]
        free_first = np.argsort(selected[:, ranked], axis=1, kind="stable")
        group = ranked[free_first[:, :min(k, n - t)]]
        weights = values[group, t]
        total = weights.sum(axis=1, keepdims=True)
        weights = np.divide(weights, total, out=np.full_like(weights, 1.0 / group.shape[1]),
                            where=total > 0.0)
        cdf = weights.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        pick = group[rows, (cdf <= uniforms[:, t:t + 1]).sum(axis=1)]
        chosen[:, t] = pick
        selected[rows, pick] = True
    return chosen


def test_serving_glue_matches_its_plain_formulas_bit_for_bit():
    """The unit rows and the contrastive slates at alpha 0, 0.1 and 1 on
    representations with a zero row, and top-k draws where one position's
    top-k group sums to zero: the same rows, the same slates, the same
    probabilities and the same rng state."""
    from slaterank.decoding import DecodeConfig, _topk_draws, _unit_rows, contrastive_decode
    from slaterank.generator import ProbMatrix

    rng = np.random.default_rng(55)
    n, m = 9, 4
    values = rng.random((n, m)) ** 3
    values[:, 1] = 0.0  # every top-k group at position 1 sums to zero
    values[[2, 5], 2] = 0.0
    values /= np.maximum(values.sum(axis=0), 1e-300)
    reps = rng.normal(size=(n, 5))
    reps[4] = 0.0
    probs = ProbMatrix(values=Tensor(values), candidate_reps=Tensor(reps),
                       position_reps=Tensor(rng.normal(size=(m, 5))))
    assert _unit_rows(reps).tobytes() == _ref_unit_rows(reps).tobytes()
    for alpha in (0.0, 0.1, 1.0):
        slate = contrastive_decode(probs, DecodeConfig(alpha=alpha))
        indices, probabilities = _ref_contrastive(values, reps, alpha)
        assert slate.indices == indices
        assert np.array(slate.probabilities).tobytes() == np.array(probabilities).tobytes()
    for k, num in ((1, 3), (3, 7), (n, 5)):
        got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
        chosen, _ = _topk_draws(probs, k, num, got_rng)
        assert np.array_equal(chosen, _ref_topk_draws(values, k, num, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _draw_values(rng, n, m, kind):
    """(n, m) column probabilities: continuous, with exact ties, or mostly
    zero, so that many top-k groups sum to zero."""
    if kind == "ties":
        values = rng.choice([0.0, 0.125, 0.25, 0.5], size=(n, m))
    elif kind == "zeros":
        values = np.where(rng.random((n, m)) < 0.2, rng.random((n, m)), 0.0)
    else:
        values = rng.random((n, m)) ** 3
    sums = values.sum(axis=0)
    return values / np.where(sums > 0.0, sums, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_topk_draws_match_their_numpy_reference_bit_for_bit(data):
    """The per-sample draw against the per-position NumPy reference: the same
    picks and the same rng state after, for n from 1 to 20 real rows (with
    and without padded rows), every k and m up to n, and 0 to 40 samples."""
    from slaterank.decoding import _topk_draws
    from slaterank.generator import ProbMatrix

    n = data.draw(st.integers(1, 20), label="n")
    pad = data.draw(st.integers(0, 3), label="pad")
    m = data.draw(st.integers(1, n), label="m")
    k = data.draw(st.integers(1, n), label="k")
    num = data.draw(st.integers(0, 40), label="num")
    kind = data.draw(st.sampled_from(["continuous", "ties", "zeros"]), label="kind")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    values = _draw_values(np.random.default_rng(seed), n, m, kind)
    padded = np.zeros((n + pad, m))
    padded[:n] = values
    probs = ProbMatrix(values=Tensor(padded), candidate_reps=Tensor(np.zeros((n + pad, 2))),
                       position_reps=Tensor(np.zeros((m, 2))),
                       valid=np.arange(n + pad) < n if pad else None)
    got_rng, want_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    chosen, columns = _topk_draws(probs, k, num, got_rng)
    assert chosen == list(map(tuple, _ref_topk_draws(values, k, num, want_rng).tolist()))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert np.array(columns).reshape(m, n).T.tobytes() == values.tobytes()


@pytest.mark.parametrize("width", [*range(1, 21), 129, 300])
def test_group_bounds_are_numpys_block_arithmetic_bit_for_bit(width):
    """Each rank group's bounds against NumPy's on a block of groups:
    np.add.reduce, the guarded division, np.add.accumulate and the division
    by the last entry. From 8 terms on NumPy sums pairwise, where a
    left-to-right total differs in about 40% of rows but seldom moves a pick;
    each bound carries its total's bits, so the bounds show it. Rows include
    zero-sum groups, exact ties and zeros among positive terms."""
    from slaterank.decoding import _group_bounds

    rng = np.random.default_rng(width)
    rows = rng.random((300, width)) ** 3
    rows[::10] = 0.0
    rows[1::10] = 0.25
    rows[2::10, ::2] = 0.0
    total = np.add.reduce(rows, axis=1, keepdims=True)
    weights = np.divide(rows, total, out=np.full(rows.shape, 1.0 / width), where=total > 0.0)
    cdf = np.add.accumulate(weights, axis=1)
    cdf /= cdf[:, -1:]
    assert np.array([_group_bounds(row) for row in rows.tolist()]).tobytes() == cdf.tobytes()


def test_tensor_keeps_float64_arrays_and_converts_the_rest():
    x = np.arange(6.0).reshape(2, 3)
    assert Tensor(x).data is x
    view = x[:, 1:]
    assert Tensor(view).data is view
    for value in ([[1, 2], [3, 4]], np.arange(4).reshape(2, 2),
                  np.arange(4, dtype=np.float32).reshape(2, 2),
                  np.arange(4, dtype=">f8").reshape(2, 2), 3, np.float64(2.5),
                  np.array(7.0, dtype=np.float32)):
        data = Tensor(value).data
        assert type(data) is np.ndarray and data.dtype == np.float64
        assert data.dtype.isnative
        assert np.array_equal(data, np.asarray(value, dtype=np.float64))
    assert Tensor(np.float64(2.5)).data.shape == ()
    # a subclass is converted to a plain array, as np.asarray does
    masked = np.ma.masked_array([1.0, 2.0])
    assert type(Tensor(masked).data) is np.ndarray
