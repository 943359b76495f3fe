"""Generator / AR training loop tests: overfit capacity, the CE identity,
determinism, and failure modes."""

import warnings

import numpy as np
import pytest

from helpers import inflate_weights
from slaterank.ar import init_ar_params
from slaterank.cli import main
from slaterank.configs import TrainConfig
from slaterank.data import ExposureLog, FeedbackMatrix, LogTable, RequestBatch
from slaterank.errors import ConfigError, DataError, InvalidSlateError, NumericsError
from slaterank.evaluator import EvaluatorConfig, init_evaluator_params, train_evaluator
from slaterank.generator import GeneratorConfig, forward, init_generator_params
from slaterank.numerics import Params, Tape
from slaterank.objectives import UtilitySpec, total_loss, utilities, utility
from slaterank.training import (
    CE_ONLY_TAU,
    GROUP_WINDOW,
    TrainStep,
    _fit,
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
    # NumPy 2 reprs scalars as "np.float64(...)"; every written cell of the
    # generator's, the evaluator's and the AR baseline's curves must parse
    # back as a number
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "num_requests=40", "world.n_candidates=8", "generator.n_max=8",
        "generator.d=8", "generator.h=2", "generator.L=1", "generator.d_t=8",
        "train.epochs=1", "train.batch_size=16",
        f"paths.train_log={tmp_path}/train.jsonl",
        f"paths.generator_checkpoint={tmp_path}/gen.npz",
        f"paths.evaluator_checkpoint={tmp_path}/ev.npz",
        f"paths.ar_checkpoint={tmp_path}/ar.npz",
        f"paths.out_dir={tmp_path}",
    ]) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train-generator", "--config", str(cfg)]) == 0
    assert main(["train-evaluator", "--config", str(cfg)]) == 0
    assert main(["train-ar", "--config", str(cfg)]) == 0
    for curve, want_header in (("generator_loss.csv", TrainStep.csv_header()),
                               ("evaluator_loss.csv", "step,loss"),
                               ("ar_loss.csv", "step,loss")):
        header, *rows = (tmp_path / curve).read_text().splitlines()
        assert header == want_header
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


def test_an_unknown_objective_is_a_config_error_as_in_train_config():
    # train_generator used to refuse it as a DataError, the exit code of a bad log
    message = "objective must be 'ul' or 'ce', got 'mle'"
    with pytest.raises(ConfigError) as from_config:
        TrainConfig(objective="mle")
    with pytest.raises(ConfigError) as from_training:
        train_generator(mixed_logs(2), init_generator_params(SMALL), SMALL, CLICK,
                        objective="mle")
    assert str(from_config.value) == str(from_training.value) == message


def test_generator_and_ar_refuse_one_slot_slates_before_the_first_minibatch():
    # the position hinge needs two slots, and at m = 1 the AR decoder sees no
    # chosen item; the rule runs before the (here empty) log is looked at
    one = GeneratorConfig(n_max=6, m=1, d=8, h=2, L=1, d_x=4, d_t=5, seed=0)
    with pytest.raises(ConfigError, match="^generator.m=1: "):
        train_generator([], init_generator_params(one), one, CLICK)
    with pytest.raises(ConfigError, match="^generator.m=1: "):
        train_ar([], init_ar_params(one), one)


EV_SMALL = EvaluatorConfig(types=("click",), weights=(1.0,), d=8, h=2, d_x=4, m=3)
TRAINERS = {
    "train_generator": lambda logs: train_generator(
        logs, init_generator_params(SMALL), SMALL, CLICK, epochs=1, batch_size=4),
    "train_ar": lambda logs: train_ar(
        logs, init_ar_params(SMALL), SMALL, epochs=1, batch_size=4),
    "train_evaluator": lambda logs: train_evaluator(
        logs, init_evaluator_params(EV_SMALL), EV_SMALL, epochs=1, batch_size=4),
}


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_nan_loss_aborts_with_location(trainer):
    # every loop names the first request whose loss is not finite; the
    # evaluator's used to stop in backward with no location
    logs = mixed_logs(7)
    logs[1] = make_log(4242, np.random.default_rng(9), feedback_value=1)
    logs[1].request.features[...] = np.nan  # third of the second minibatch at seed 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericsError, match="epoch 0 step 1 request 4242;"):
            TRAINERS[trainer](logs)


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
    for _, t in params.items():
        t.grad[...] = 0.0
    return grads


def test_batched_loss_and_gradients_match_one_tape_per_request():
    params, logs = _ragged_minibatch()
    tape = Tape()
    table = LogTable.of(logs)
    probs = forward(table, params, SMALL, tape)
    batch = total_loss(tape, probs, table.exposed, utilities(table, CLICK), CLICK)
    tape.backward(tape.sum(batch.total))
    batched = _grads(params)

    assert batch.is_positive_sequence.any() and not batch.is_positive_sequence.all()
    assert batch.clamped.sum() == 1
    for b, log in enumerate(logs):
        tape = Tape()
        one = total_loss(tape, forward(log.request, params, SMALL, tape),
                         log.exposed, utility(log.feedback, CLICK), CLICK)
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
    table = LogTable.of(logs)
    probs = forward(table, params, SMALL, tape)
    assert probs.values.data.shape == (len(logs), SMALL.n_max, SMALL.m)
    batch = total_loss(tape, probs, table.exposed, utilities(table, CLICK), CLICK)
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
                         utility(log.feedback, CLICK), CLICK)
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


def test_train_ar_nan_names_the_request():
    logs = mixed_logs(6)
    bad = make_log(4242, np.random.default_rng(9), feedback_value=1)
    bad.request.features[...] = 1e308
    logs.insert(3, bad)
    params = init_ar_params(SMALL)
    params["embed.x.w"].data *= 100.0  # 1e308 rows overflow to inf, others stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NumericsError, match="request 4242;"):
            train_ar(logs, params, SMALL, epochs=1, batch_size=len(logs))


def test_train_ar_is_seed_deterministic():
    rng = np.random.default_rng(6)
    logs = [make_log(i, rng, feedback_value=1, n=int(rng.integers(3, 7)),
                     slate=(2, 0, 1)) for i in range(10)]

    def run(seed):
        params = init_ar_params(SMALL)
        train_ar(logs, params, SMALL, epochs=2, batch_size=4, seed=seed)
        return params

    a, b, c = run(3), run(3), run(4)
    for name, tensor in a.items():
        assert np.array_equal(tensor.data, b[name].data), name
    assert any(not np.array_equal(tensor.data, c[name].data)
               for name, tensor in a.items())


# ------------------------------------------- minibatch order

def _fit_rows(logs, *, epochs, batch_size, seed):
    """The table of `logs` and the row numbers of each minibatch `_fit`
    hands to its loss, per epoch."""
    table = LogTable.of(logs)
    params = Params()
    w = params.new_zeros("w", (len(table), 1))
    seen = []

    def spy(tape, rows):
        seen.append(rows.copy())
        return tape.sum(tape.take_rows(w, rows), axis=1), None

    _fit(table, params, spy, lr=1e-3, epochs=epochs, batch_size=batch_size, seed=seed)
    per_epoch = -(-len(table) // batch_size)
    return table, [seen[e * per_epoch:(e + 1) * per_epoch] for e in range(epochs)]


def _ragged_logs(count):
    rng = np.random.default_rng(11)
    return [make_log(i, rng, feedback_value=i % 2, n=int(rng.integers(3, 9)),
                     slate=(2, 0, 1)) for i in range(count)]


def test_equal_n_minibatches_are_slices_of_the_shuffle():
    # a stable sort by n is the identity when every request has the same n
    _, epochs = _fit_rows(mixed_logs(53), epochs=3, batch_size=4, seed=9)
    rng = np.random.default_rng(9)
    for batches in epochs:
        order = rng.permutation(53)
        assert len(batches) == 14
        for start, rows in zip(range(0, 53, 4), batches):
            assert np.array_equal(rows, order[start:start + 4])


def test_ragged_epochs_visit_every_row_once():
    table, epochs = _fit_rows(_ragged_logs(70), epochs=3, batch_size=3, seed=2)
    assert len(set(table.n.tolist())) > 1
    for batches in epochs:
        assert [len(rows) for rows in batches] == [3] * 23 + [1]
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(70))


def test_ragged_windows_hold_the_shuffles_rows_in_non_decreasing_n():
    table, epochs = _fit_rows(_ragged_logs(70), epochs=3, batch_size=3, seed=2)
    rng = np.random.default_rng(2)
    window = GROUP_WINDOW * 3
    for batches in epochs:
        order = rng.permutation(70)  # _fit draws nothing else from its rng
        visited = np.concatenate(batches)
        assert not np.array_equal(visited, order)
        for w in range(0, 70, window):
            got, shuffled = visited[w:w + window], order[w:w + window]
            assert np.array_equal(np.sort(got), np.sort(shuffled))
            assert (np.diff(table.n[got]) >= 0).all()
            # rows of equal n keep their order in the shuffle
            for n in set(table.n[got].tolist()):
                assert np.array_equal(got[table.n[got] == n],
                                      shuffled[table.n[shuffled] == n])
