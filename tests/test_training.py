"""Generator / AR training loop tests: overfit capacity, the CE identity,
determinism, and failure modes."""

import warnings

import numpy as np
import pytest

from helpers import inflate_weights
from slaterank.ar import init_ar_params
from slaterank.cli import main
from slaterank.data import ExposureLog, FeedbackMatrix, RequestBatch
from slaterank.errors import DataError, InvalidSlateError, NumericsError
from slaterank.generator import GeneratorConfig, forward, init_generator_params
from slaterank.numerics import Tape
from slaterank.objectives import UtilitySpec, total_loss
from slaterank.training import (
    CE_ONLY_TAU,
    TrainStep,
    steps_to_csv,
    train_ar,
    train_generator,
)

SMALL = GeneratorConfig(n_max=6, m=3, d=8, h=2, L=2, d_x=4, d_t=5, seed=0)
CLICK = UtilitySpec(types=("click",), weights=(1.0,), tau=1.0)


def make_log(request_id, rng, feedback_value, n=5, slate=(2, 0, 4)):
    feats = rng.normal(size=(n, SMALL.d_x))
    fb = FeedbackMatrix(values=np.full((1, len(slate)), float(feedback_value)),
                        types=("click",))
    req = RequestBatch(request_id=request_id, user_id=0,
                       item_ids=np.arange(n), features=feats,
                       exposed=tuple(slate), feedback=fb)
    return ExposureLog(req)


def mixed_logs(count, seed=0):
    rng = np.random.default_rng(seed)
    return [make_log(i, rng, feedback_value=i % 2) for i in range(count)]


def test_single_request_overfit_ce():
    log = make_log(0, np.random.default_rng(1), feedback_value=1)
    params = init_generator_params(SMALL)
    steps = []
    train_generator([log], params, SMALL, CLICK, lr=5e-3, epochs=500,
                    batch_size=1, objective="ce", step_log=steps)
    assert len(steps) == 500
    assert steps[-1].ce_or_ul < 0.1
    assert steps[-1].total < steps[0].total


def test_ce_objective_is_identity_on_positive_logs():
    logs = [make_log(i, np.random.default_rng(i), feedback_value=1)
            for i in range(8)]
    always_positive = UtilitySpec(types=("click",), weights=(1.0,), tau=-5.0)

    params_a = init_generator_params(SMALL)
    steps_a = []
    train_generator(logs, params_a, SMALL, always_positive, lr=1e-3, epochs=3,
                    batch_size=4, omega=0.0, objective="ul", seed=7,
                    step_log=steps_a)

    params_b = init_generator_params(SMALL)
    steps_b = []
    train_generator(logs, params_b, SMALL, CLICK, lr=1e-3, epochs=3,
                    batch_size=4, omega=0.0, objective="ce", seed=7,
                    step_log=steps_b)

    assert [s.total for s in steps_a] == [s.total for s in steps_b]
    assert all(s.positive_fraction == 1.0 for s in steps_b)
    for name, tensor in params_a.items():
        assert np.array_equal(tensor.data, params_b[name].data), name
    assert CE_ONLY_TAU < -1e29


def test_mixed_logs_hit_both_branches():
    logs = mixed_logs(12)
    params = init_generator_params(SMALL)
    steps = []
    train_generator(logs, params, SMALL, CLICK, epochs=1, batch_size=12,
                    step_log=steps)
    assert len(steps) == 1
    assert 0.0 < steps[0].positive_fraction < 1.0
    assert np.isfinite(steps[0].total)

    csv = steps_to_csv(steps)
    header, row, trailer = csv.split("\n")
    assert header == TrainStep.csv_header()
    assert row.startswith("0,")
    assert trailer == ""
    assert float(row.split(",")[5]) == steps[0].positive_fraction


def test_cli_loss_curve_cells_are_numbers(tmp_path):
    # NumPy 2 reprs scalars as "np.float64(...)"; every written cell must
    # parse back as a number
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "num_requests=40", "world.n_candidates=8", "generator.n_max=8",
        "generator.d=8", "generator.h=2", "generator.L=1", "generator.d_t=8",
        "train.epochs=1", "train.batch_size=16",
        f"paths.train_log={tmp_path}/train.jsonl",
        f"paths.generator_checkpoint={tmp_path}/gen.npz",
        f"paths.out_dir={tmp_path}",
    ]) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train-generator", "--config", str(cfg)]) == 0
    header, *rows = (tmp_path / "generator_loss.csv").read_text().splitlines()
    assert header == TrainStep.csv_header()
    assert len(rows) == 3
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        for cell in cells:
            float(cell)


def test_rejects_bad_logs():
    params = init_generator_params(SMALL)
    with pytest.raises(DataError):
        train_generator([], params, SMALL, CLICK)
    # Exposure-less requests cannot even become log entries.
    with pytest.raises(InvalidSlateError):
        ExposureLog(RequestBatch(request_id=3, user_id=0,
                                 item_ids=np.arange(5),
                                 features=np.zeros((5, 4))))
    with pytest.raises(DataError):
        train_generator(mixed_logs(2), params, SMALL, CLICK, objective="mle")


def test_nan_loss_aborts_with_location():
    logs = mixed_logs(4)
    params = init_generator_params(SMALL)
    params["embed.x.w"].data[0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericsError, match="request"):
            train_generator(logs, params, SMALL, CLICK, epochs=1, batch_size=4)


def test_training_is_seed_deterministic():
    logs = mixed_logs(10)

    def run(seed):
        params = init_generator_params(SMALL)
        train_generator(logs, params, SMALL, CLICK, epochs=2, batch_size=4,
                        seed=seed)
        return params

    a, b, c = run(3), run(3), run(4)
    for name, tensor in a.items():
        assert np.array_equal(tensor.data, b[name].data), name
    assert any(not np.array_equal(tensor.data, c[name].data)
               for name, tensor in a.items())


def test_train_ar_fits_logged_slates():
    rng = np.random.default_rng(5)
    logs = [make_log(i, rng, feedback_value=1, slate=(1, 3, 0))
            for i in range(10)]
    params = init_ar_params(SMALL)
    losses = []
    train_ar(logs, params, SMALL, lr=5e-3, epochs=15, batch_size=10,
             loss_log=losses)
    assert len(losses) == 15
    assert np.mean(losses[-3:]) < 0.5 * np.mean(losses[:3])

    with pytest.raises(DataError):
        train_ar([], params, SMALL)


# ------------------------------------------- one tape per minibatch

def _ragged_minibatch():
    """Sharpened params plus logs with n from 3 to n_max, positive and
    negative feedback, and one negative slate on a cell at probability 1."""
    params = init_generator_params(SMALL)
    inflate_weights(params, 15.0)
    # sharpen the matching head until some columns put all mass on one row
    params["cand.final_ln.g"].data *= 30.0
    rng = np.random.default_rng(3)
    logs = []
    saturated = False
    for i, n in enumerate((3, 4, 5, 6, 5, 4, 6, 3)):
        req = RequestBatch(request_id=100 + i, user_id=0, item_ids=np.arange(n),
                           features=rng.normal(size=(n, SMALL.d_x)))
        slate = rng.choice(n, size=SMALL.m, replace=False)
        positive = i % 2 == 0
        values = forward(req, params, SMALL).values.data
        rows, cols = np.nonzero(values >= 1.0 - 1e-12)
        if not positive and not saturated and rows.size:
            # put the saturated row at its column: the negative branch clamps
            j, row = cols[0], rows[0]
            slate[slate == row] = slate[j]
            slate[j] = row
            saturated = True
        fb = FeedbackMatrix(values=np.full((1, SMALL.m), float(positive)),
                            types=("click",))
        logs.append(ExposureLog(RequestBatch(
            request_id=req.request_id, user_id=0, item_ids=req.item_ids,
            features=req.features, exposed=tuple(slate.tolist()), feedback=fb)))
    assert saturated
    return params, logs


def _grads(params):
    grads = {name: t.grad.copy() for name, t in params.items()}
    params.zero_grad()
    return grads


def test_batched_loss_and_gradients_match_one_tape_per_request():
    params, logs = _ragged_minibatch()
    tape = Tape()
    probs = forward([log.request for log in logs], params, SMALL, tape)
    batch = total_loss(tape, probs, [log.exposed for log in logs],
                       [log.feedback for log in logs], CLICK)
    tape.backward(tape.sum(batch.total))
    batched = _grads(params)

    assert batch.is_positive_sequence.any() and not batch.is_positive_sequence.all()
    assert batch.clamped.sum() == 1
    for b, log in enumerate(logs):
        tape = Tape()
        one = total_loss(tape, forward(log.request, params, SMALL, tape),
                         log.exposed, log.feedback, CLICK)
        tape.backward(one.total)
        for part in ("total", "ce_or_ul", "item_contrastive", "position_contrastive"):
            got = getattr(batch, part).data[b]
            want = getattr(one, part).item()
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (part, b)
        assert batch.is_positive_sequence[b] == one.is_positive_sequence
        assert batch.clamped[b] == one.clamped
    for name, grad in _grads(params).items():
        scale = max(1.0, float(np.abs(grad).max()))
        assert np.abs(batched[name] - grad).max() <= 1e-10 * scale, name


def test_batched_padded_rows_get_zero_probability_and_gradient():
    params, logs = _ragged_minibatch()
    tape = Tape()
    probs = forward([log.request for log in logs], params, SMALL, tape)
    assert probs.values.data.shape == (len(logs), SMALL.n_max, SMALL.m)
    batch = total_loss(tape, probs, [log.exposed for log in logs],
                       [log.feedback for log in logs], CLICK)
    tape.backward(tape.sum(batch.total))
    for b, log in enumerate(logs):
        n = log.request.n
        assert (probs.values.data[b, n:] == 0.0).all()
        assert (probs.candidate_reps.grad[b, n:] == 0.0).all()
        assert np.abs(probs.values.data[b].sum(axis=0) - 1.0).max() < 1e-12


def test_batched_step_log_matches_per_request_losses():
    params, logs = _ragged_minibatch()
    totals, positives, clamps = [], 0, 0
    for log in logs:
        one = total_loss(Tape(recording=False),
                         forward(log.request, params, SMALL), log.exposed,
                         log.feedback, CLICK)
        totals.append(one.total.item())
        positives += one.is_positive_sequence
        clamps += one.clamped
    steps = []
    train_generator(logs, params, SMALL, CLICK, epochs=1, batch_size=len(logs),
                    step_log=steps)
    assert len(steps) == 1
    assert abs(steps[0].total - np.mean(totals)) <= 1e-10 * abs(np.mean(totals))
    assert steps[0].positive_fraction == positives / len(logs)
    assert steps[0].clamp_fraction == clamps / len(logs) > 0.0


def test_batched_nan_names_the_request():
    logs = mixed_logs(6)
    bad = make_log(4242, np.random.default_rng(9), feedback_value=1)
    bad.request.features[...] = 1e308
    logs.insert(3, bad)
    params = init_generator_params(SMALL)
    params["embed.x.w"].data *= 100.0  # 1e308 rows overflow to inf, others stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericsError, match="request 4242;"):
            train_generator(logs, params, SMALL, CLICK, epochs=1, batch_size=len(logs))
