import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff, gradcheck, max_rel_err
from slaterank.errors import (
    MissingGradientError,
    NumericsError,
    ShapeError,
)
from slaterank.numerics import (
    AdamState,
    Params,
    Tape,
    Tensor,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)


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
        return tape.neg(tape.sum(tape.log(safe)))

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
        return tape.mean(prod)

    gradcheck(loss, [a, b])


def test_row_normalize_gradient_and_zero_row_flag():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(4, 3)))

    def loss(tape):
        y = tape.row_normalize(a)
        sims = tape.matmul(y, tape.transpose(y))
        return tape.mean(sims)

    gradcheck(loss, [a])

    z = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.warns(RuntimeWarning):
        out = Tape().row_normalize(z)
    assert (out.data[0] == 0.0).all()


def test_backward_requires_scalar_root():
    t = Tape()
    x = Tensor(np.ones((2, 2)))
    y = t.scale(x, 2.0)
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
    p.new_gaussian("head", (5, 2), rng, std=1.3)
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
