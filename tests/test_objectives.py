import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gradcheck, inflate_weights
from slaterank.data import FeedbackMatrix
from slaterank.errors import ConfigError, InvalidSlateError, ShapeError
from slaterank.evaluator import EvaluatorConfig, init_evaluator_params, score_slate
from slaterank.generator import GeneratorConfig, ProbMatrix, forward, init_generator_params
from slaterank.numerics import Tape, Tensor
from slaterank.objectives import (
    UtilitySpec,
    ce_loss,
    contrastive_loss,
    sequence_log_likelihood,
    total_loss,
    unlikelihood_loss,
    utility,
    weighted_sum,
)
from slaterank.simulator import (
    World,
    WorldConfig,
    gen_request,
    oracle_click_probs,
    oracle_expected_utility,
)

CLICK = UtilitySpec(types=("click",), weights=(1.0,), tau=1.0)


def make_probs(values, rng=None, d=4):
    """ProbMatrix around explicit column probabilities; reps are filler."""
    values = np.asarray(values, dtype=np.float64)
    rng = rng or np.random.default_rng(7)
    n, m = values.shape
    return ProbMatrix(
        values=Tensor(values),
        candidate_reps=Tensor(rng.normal(size=(n, d))),
        position_reps=Tensor(rng.normal(size=(m, d))),
    )


def one_hot_probs(n, m, labels):
    values = np.zeros((n, m))
    for j, i in enumerate(labels):
        values[i, j] = 1.0
    return make_probs(values)


# ---------------------------------------------------------------- utility


def test_utility_all_zero_feedback():
    fb = FeedbackMatrix(values=np.zeros((1, 6)), types=("click",))
    assert utility(fb, CLICK) == 0.0


def test_utility_counts_single_type():
    fb = FeedbackMatrix(values=np.array([[1, 0, 1, 1, 0, 0]]), types=("click",))
    assert utility(fb, CLICK) == 3.0


def test_utility_weighted_two_types():
    fb = FeedbackMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        types=("click", "like"))
    spec = UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=0.0)
    assert utility(fb, spec) == 1.5


def test_utility_unknown_type_rejected():
    fb = FeedbackMatrix(values=np.ones((1, 2)), types=("share",))
    with pytest.raises(ShapeError):
        utility(fb, CLICK)


def test_utility_spec_validation():
    with pytest.raises(ConfigError):
        UtilitySpec(types=("click",), weights=(1.0, 2.0), tau=0.0)
    with pytest.raises(ConfigError):
        UtilitySpec(types=("click", "like"), weights=(0.0, 0.0), tau=0.0)
    with pytest.raises(ConfigError):
        UtilitySpec(types=("click",), weights=(1.0,), tau=float("nan"))
    with pytest.raises(ConfigError):
        UtilitySpec(types=("click", "click"), weights=(1.0, 1.0), tau=0.0)


def per_type_loop(values, weights):
    """The utility loop each caller wrote before they shared `weighted_sum`:
    per type, the row's NumPy sum as a Python float, weighted and added in
    type order to a total that starts at 0.0."""
    total = 0.0
    for w, row in zip(weights, values):
        total += w * float(row.sum())
    return total


def test_every_utility_has_the_bits_of_the_per_type_loop():
    # rows of 20 are summed pairwise by NumPy, and terms over 16 decades
    # make the order of each addition show in the last bits
    rng = np.random.default_rng(8)
    weights = (1.1, 0.3, -0.7)
    spec = UtilitySpec(types=("like", "click", "share"), weights=(0.3, 1.1, -0.7), tau=0.0)
    for m in (3, 6, 20):
        values = rng.normal(size=(7, 3, m)) * 10.0 ** rng.integers(-8, 8, size=(7, 3, m))
        want = np.array([per_type_loop(v, weights) for v in values])
        assert weighted_sum(values, weights).tobytes() == want.tobytes()
        for v, u in zip(values, want):
            assert utility(FeedbackMatrix(v, ("click", "like", "share")), spec) == u
    # the oracle on its click probabilities, the evaluator on its head scores
    world = World(WorldConfig())
    cfg = EvaluatorConfig(weights=(1.0, -0.35))
    params = init_evaluator_params(cfg)
    inflate_weights(params, 15.0)
    for _ in range(10):
        req = gen_request(world, rng)
        slate = tuple(rng.permutation(req.n)[:6].tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's clamp warning
            probs = oracle_click_probs(world, req, slate)
            assert oracle_expected_utility(world, req, slate, spec) == per_type_loop(
                probs, [spec.weight_for(t) for t in world.config.types])
        out = score_slate(req, slate, params, cfg)
        assert out.utility == per_type_loop(out.scores, cfg.weights)


# ---------------------------------------------------------------- ce_loss


def test_ce_zero_when_labels_certain():
    pm = one_hot_probs(5, 3, (2, 0, 4))
    assert ce_loss(Tape(recording=False), pm, (2, 0, 4)).item() == 0.0


def test_ce_uniform_closed_form():
    n, m = 60, 6
    pm = make_probs(np.full((n, m), 1.0 / n))
    loss = ce_loss(Tape(recording=False), pm, (0, 1, 2, 3, 4, 5)).item()
    assert abs(loss - 6 * math.log(60.0)) < 1e-12
    assert abs(loss - 24.566) < 1e-3


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(4, 2)))

    def make_loss(tape):
        values = tape.softmax_columns(logits)
        pm = ProbMatrix(values=values,
                        candidate_reps=Tensor(np.zeros((4, 2))),
                        position_reps=Tensor(np.zeros((2, 2))))
        return ce_loss(tape, pm, (2, 0))

    err = gradcheck(make_loss, [logits])
    assert err < 1e-4


def test_ce_rejects_bad_labels():
    pm = make_probs(np.full((4, 2), 0.25))
    tape = Tape(recording=False)
    with pytest.raises(InvalidSlateError):
        ce_loss(tape, pm, (1, 1))
    with pytest.raises(InvalidSlateError):
        ce_loss(tape, pm, (0, 4))
    with pytest.raises(ShapeError):
        ce_loss(tape, pm, (0, 1, 2))


def test_ce_label_on_padded_row_rejected():
    pm = make_probs(np.full((4, 2), 0.25))
    pm = ProbMatrix(values=pm.values, candidate_reps=pm.candidate_reps,
                    position_reps=pm.position_reps,
                    valid=np.array([True, True, True, False]))
    with pytest.raises(InvalidSlateError):
        ce_loss(Tape(recording=False), pm, (0, 3))


# ------------------------------------------------------- unlikelihood_loss


def test_positive_branch_equals_ce():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 1.0, size=(6, 3))
    pm = make_probs(raw / raw.sum(axis=0))
    labels = (4, 0, 2)
    ce = ce_loss(Tape(recording=False), pm, labels).item()
    loss, positive, clamped = unlikelihood_loss(
        Tape(recording=False), pm, labels, r=1.0, spec=CLICK)
    assert positive and not clamped
    assert loss.item() == ce


def test_negative_branch_half_probability_closed_form():
    n, m = 12, 6
    values = np.zeros((n, m))
    for j in range(m):
        values[j, j] = 0.5
        values[j + m, j] = 0.5
    pm = make_probs(values)
    loss, positive, clamped = unlikelihood_loss(
        Tape(recording=False), pm, tuple(range(m)), r=0.0, spec=CLICK)
    assert not positive and not clamped
    assert abs(loss.item() - 6 * math.log(2.0)) < 1e-12
    assert abs(loss.item() - 4.159) < 1e-3


def test_negative_branch_vanishes_as_labels_vanish():
    n, m = 6, 3
    eps = 1e-9
    values = np.full((n, m), (1.0 - eps) / (n - 1))
    for j in range(m):
        values[j, j] = eps
    pm = make_probs(values)
    loss, _, _ = unlikelihood_loss(
        Tape(recording=False), pm, (0, 1, 2), r=-1.0, spec=CLICK)
    assert 0.0 <= loss.item() < 1e-6


def test_negative_branch_clamps_certain_labels_and_flags():
    pm = one_hot_probs(4, 2, (1, 3))
    loss, positive, clamped = unlikelihood_loss(
        Tape(recording=False), pm, (1, 3), r=0.0, spec=CLICK)
    assert clamped and not positive
    assert math.isfinite(loss.item())
    assert abs(loss.item() - 2 * -math.log(1e-12)) < 1e-6


def test_branch_depends_only_on_sign_of_r_minus_tau():
    pm = make_probs(np.full((4, 2), 0.25))
    for r, expected in ((1.0, True), (1.0 + 1e-9, True), (1.0 - 1e-9, False),
                        (-3.0, False)):
        _, positive, _ = unlikelihood_loss(
            Tape(recording=False), pm, (0, 1), r=r, spec=CLICK)
        assert positive is expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_negative_branch_monotone_in_labeled_probability(seed):
    rng = np.random.default_rng(seed)
    logits = rng.uniform(-5.0, 5.0, size=(5, 3))
    values = np.exp(logits)
    values /= values.sum(axis=0)
    labels = (0, 1, 2)
    j = int(rng.integers(3))
    bumped = values.copy()
    delta = 0.5 * (1.0 - bumped[labels[j], j])
    bumped[labels[j], j] += delta
    bumped[:, j] /= bumped[:, j].sum()
    assert bumped[labels[j], j] > values[labels[j], j]

    def ul(v):
        loss, _, _ = unlikelihood_loss(
            Tape(recording=False), make_probs(v), labels, r=0.0, spec=CLICK)
        return loss.item()

    assert ul(bumped) > ul(values)


def test_unlikelihood_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(5, 3)))

    def make_loss(tape):
        values = tape.softmax_columns(logits)
        pm = ProbMatrix(values=values,
                        candidate_reps=Tensor(np.zeros((5, 2))),
                        position_reps=Tensor(np.zeros((3, 2))))
        loss, _, _ = unlikelihood_loss(tape, pm, (3, 1, 0), r=0.0, spec=CLICK)
        return loss

    assert gradcheck(make_loss, [logits]) < 1e-4


# ------------------------------------------------------- contrastive losses


def test_contrastive_orthogonal_reps_zero():
    reps = Tensor(np.diag([1.0, 3.0, 0.5]))
    loss = contrastive_loss(Tape(recording=False), reps, rho=0.5)
    assert loss.item() == 0.0


def test_contrastive_identical_pair():
    reps = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]))
    loss = contrastive_loss(Tape(recording=False), reps, rho=0.5)
    assert abs(loss.item() - 0.5) < 1e-15


def test_contrastive_pairwise_cosine_080():
    # x_i = alpha*e_i + 1 has pairwise cosine (2a+3)/(a^2+2a+3), which
    # equals 0.8 at alpha = (1+sqrt(13))/4; checked before the loss so the
    # fixture cannot drift from its construction.
    alpha = (1.0 + math.sqrt(13.0)) / 4.0
    x = alpha * np.eye(3) + 1.0
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    cos = unit @ unit.T
    off = ~np.eye(3, dtype=bool)
    assert np.abs(cos[off] - 0.8).max() < 1e-12
    loss = contrastive_loss(Tape(recording=False), Tensor(x), rho=0.5)
    assert abs(loss.item() - 0.3) < 1e-12


def test_position_loss_mirrors_item_loss():
    # total_loss calls the hinge without a mask for the positions and with
    # the valid mask for the candidates: with every row valid they agree
    rng = np.random.default_rng(2)
    reps = rng.normal(size=(4, 6))
    tape = Tape(recording=False)
    a = contrastive_loss(tape, Tensor(reps), rho=0.4, valid=np.ones(4, dtype=bool)).item()
    b = contrastive_loss(tape, Tensor(reps), rho=0.4).item()
    assert a == b
    ident = Tensor(np.ones((2, 3)))
    assert abs(contrastive_loss(tape, ident, rho=0.5).item() - 0.5) < 1e-15


def test_contrastive_zero_norm_row_flagged_and_inert():
    reps = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.warns(RuntimeWarning):
        loss = contrastive_loss(Tape(recording=False), reps, rho=0.5)
    assert loss.item() == 0.0


def test_contrastive_validation():
    tape = Tape(recording=False)
    with pytest.raises(ShapeError):
        contrastive_loss(tape, Tensor(np.ones((1, 3))), rho=0.5)
    with pytest.raises(ConfigError):
        contrastive_loss(tape, Tensor(np.ones((3, 3))), rho=1.5)


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    reps = Tensor(rng.normal(size=(5, 4)))
    rho = 0.9
    unit = reps.data / np.linalg.norm(reps.data, axis=1, keepdims=True)
    cos = unit @ unit.T
    off = ~np.eye(5, dtype=bool)
    # keep every pair away from the hinge kink at cos = 1 - rho
    assert np.abs(cos[off] - (1.0 - rho)).min() > 1e-3

    def make_loss(tape):
        return contrastive_loss(tape, reps, rho)

    assert gradcheck(make_loss, [reps]) < 1e-4


# ------------------------------------------------------------- total_loss


def random_column_stochastic(rng, n, m):
    raw = rng.uniform(0.05, 1.0, size=(n, m))
    return raw / raw.sum(axis=0)


def test_total_with_zero_omega_equals_branch_loss():
    rng = np.random.default_rng(13)
    pm = make_probs(random_column_stochastic(rng, 6, 3), rng=rng)
    labels = (5, 2, 0)
    bd = total_loss(Tape(recording=False), pm, labels, 0.0, CLICK,
                    rho=0.5, omega=0.0)
    standalone, positive, _ = unlikelihood_loss(
        Tape(recording=False), pm, labels, r=0.0, spec=CLICK)
    assert bd.total.item() == standalone.item()
    assert bd.ce_or_ul.item() == standalone.item()
    assert bd.is_positive_sequence is positive is False


def test_total_with_zero_rho_drops_contrastive_terms():
    rng = np.random.default_rng(17)
    pm = make_probs(random_column_stochastic(rng, 6, 3), rng=rng)
    bd = total_loss(Tape(recording=False), pm, (0, 1, 2), 2.0, CLICK,
                    rho=0.0, omega=0.01)
    assert bd.item_contrastive.item() == 0.0
    assert bd.position_contrastive.item() == 0.0
    assert bd.total.item() == bd.ce_or_ul.item()
    assert bd.is_positive_sequence


def test_total_defaults_and_composition():
    import inspect

    sig = inspect.signature(total_loss)
    assert sig.parameters["rho"].default == 0.5
    assert sig.parameters["omega"].default == 0.01

    rng = np.random.default_rng(19)
    pm = make_probs(random_column_stochastic(rng, 5, 3), rng=rng)
    bd = total_loss(Tape(recording=False), pm, (4, 2, 1), 3.0, CLICK)
    recomposed = bd.ce_or_ul.item() + 0.01 * (
        bd.item_contrastive.item() + bd.position_contrastive.item())
    assert abs(bd.total.item() - recomposed) < 1e-15
    for part in (bd.total, bd.ce_or_ul, bd.item_contrastive,
                 bd.position_contrastive):
        assert math.isfinite(part.item()) and part.item() >= 0.0


def test_total_contrastive_ignores_padded_rows():
    rng = np.random.default_rng(23)
    values = np.zeros((6, 3))
    values[:4] = random_column_stochastic(rng, 4, 3)
    reps = rng.normal(size=(6, 4))
    reps[4:] = 31.0  # garbage rows that would dominate if included
    pm = ProbMatrix(values=Tensor(values),
                    candidate_reps=Tensor(reps),
                    position_reps=Tensor(rng.normal(size=(3, 4))),
                    valid=np.array([True] * 4 + [False] * 2))
    bd = total_loss(Tape(recording=False), pm, (0, 1, 2), 0.0, CLICK)
    expected = contrastive_loss(
        Tape(recording=False), Tensor(reps[:4]), rho=0.5)
    assert abs(bd.item_contrastive.item() - expected.item()) < 1e-15


def test_total_gradient_through_model_both_branches():
    cfg = GeneratorConfig(n_max=5, m=3, d=8, h=2, L=1, d_x=4, d_t=5, seed=0)
    params = init_generator_params(cfg)
    inflate_weights(params, 15.0)
    rng = np.random.default_rng(29)
    from slaterank.data import RequestBatch

    req = RequestBatch(0, 0, np.arange(5), rng.normal(size=(5, cfg.d_x)))
    wrt = [params["embed.x.w"], params["pos.table"]]
    for r in (5.0, 0.0):
        def make_loss(tape):
            pm = forward(req, params, cfg, tape=tape)
            return total_loss(tape, pm, (1, 3, 0), r, CLICK).total

        assert gradcheck(make_loss, wrt) < 1e-4


def test_sequence_log_likelihood_matches_ce():
    rng = np.random.default_rng(31)
    pm = make_probs(random_column_stochastic(rng, 6, 3), rng=rng)
    labels = (3, 5, 1)
    ll = sequence_log_likelihood(pm, labels)
    ce = ce_loss(Tape(recording=False), pm, labels).item()
    assert abs(ll + ce) < 1e-12
