"""Minibatch training loops for the matching generator and the pointer baseline,
and the helper that the evaluator's loop shares with them.

Every loop trains on one `data.LogTable`: the table `read_logs` or
`simulator.gen_log` returned is used as it is, and a list of ExposureLogs is
stacked into one once, at the start (`_table`). All three loops, these two
and `evaluator.train_evaluator`, run through one helper, `_fit`: it shuffles
the table's row numbers with the training seed, stable-sorts each window
of `GROUP_WINDOW` minibatches of the shuffle by candidate count (which
draws nothing from the rng, and is the identity on an equal-n log), hands
each minibatch's rows, `order[start:start + bs]` of that order, to the
loop's loss, records that minibatch on one tape, checks that every
request's loss is finite (naming the first request that is not), backprops
the sum of the per-request losses once and takes one Adam step on the
minibatch-mean gradient. The generator and the pointer baseline take their
minibatch as `table.take(rows)`: the requests' feature rows, sliced to the
largest candidate count in that minibatch (not to n_max), with a `valid`
mask that keeps padded rows out of attention and out of every probability
and is None when nothing is padded. For the generator `total_loss` returns
one value per request, with the utilities of every logged slate computed for
the whole table at once (`objectives.utilities`); for the pointer baseline
`ar_sequence_loss` does, from one teacher-forced pass; for the evaluator
`bce_loss` does, over the exposed slates gathered from the table by one
index. Shuffling is driven by the training seed only, so a (logs, seed)
pair fixes the whole parameter trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .ar import ar_sequence_loss
from .data import CsvRecord, LogTable
from .errors import ConfigError, DataError, NumericsError, ShapeError
from .generator import GeneratorConfig, forward
from .numerics import AdamState, Params, Tape, adam_step
from .objectives import UtilitySpec, total_loss, utilities

# Finite stand-in for "no threshold": every logged slate trains on the
# positive branch, which reduces unlikelihood training to plain CE.
CE_ONLY_TAU = -1e30

# Minibatches per window of the shuffle that `_fit` sorts by candidate count:
# on a log with n from 8 to 20 at batch 32, it cuts the padded share of the
# rows a generator minibatch computes from about 30% to about 7%.
GROUP_WINDOW = 8


@dataclass(frozen=True)
class TrainStep(CsvRecord):
    """Batch-mean loss components for one optimizer step."""

    step: int
    total: float
    ce_or_ul: float
    item_contrastive: float
    position_contrastive: float
    positive_fraction: float
    clamp_fraction: float

    @classmethod
    def csv_header(cls) -> str:
        # no field expands, so a curve of no steps has a header too
        return ",".join(f.name for f in fields(cls))


def steps_to_csv(steps: list[TrainStep]) -> str:
    lines = [TrainStep.csv_header()]
    lines.extend(s.csv_row() for s in steps)
    return "\n".join(lines) + "\n"


def check_trainable_m(m: int) -> None:
    """The generator and the AR baseline train on slates of at least 2
    items: the position hinge compares slots in pairs, and at m = 1 the AR
    decoder sees no chosen item. A ConfigError naming generator.m if not."""
    if m < 2:
        raise ConfigError(f"generator.m={m}: the generator and the AR baseline "
                          "train on slates of at least 2 items")


def check_objective(objective: str) -> None:
    """A ConfigError unless the generator's objective is "ul" or "ce"."""
    if objective not in ("ul", "ce"):
        raise ConfigError(f"objective must be 'ul' or 'ce', got {objective!r}")


def _table(logs, m: int) -> LogTable:
    """The training log as one LogTable: a LogTable as it is, a list of
    ExposureLogs stacked once. An empty log is a DataError, and slates of
    other than m items a ShapeError."""
    table = LogTable.of(logs)
    if not len(table):
        raise DataError("training log is empty")
    if table.exposed.shape[1] != m:
        raise ShapeError(f"logged slates have {table.exposed.shape[1]} items, config m={m}")
    return table


def _fit(table: LogTable, params: Params, batch_loss, *, lr: float,
         epochs: int, batch_size: int, seed: int, loss_log: list[float] | None = None,
         after_step=None) -> Params:
    """Adam over seeded shuffles of the table's rows, one tape per minibatch.

    Each epoch draws one permutation of the rows, then stable-sorts each
    window of GROUP_WINDOW * batch_size rows of it by candidate count, so a
    minibatch is padded to an n close to its rows' own; minibatches are then
    cut from the grouped order, batch_size rows at a time. Nothing else is
    drawn from the rng, and on an equal-n table the grouped order is the
    permutation itself.

    batch_loss(tape, rows) gets a minibatch's row numbers and returns the
    per-request loss vector and a value that after_step(step, rows, value)
    receives once the step is taken. loss_log gets each step's mean loss per
    request as a Python float.

    Each minibatch's largest activation is held until the next minibatch
    has been recorded. The allocator then reuses the freed activations'
    pages instead of returning them to the OS after each backward pass and
    faulting them in again: without it a generator training run took ~75%
    more minor page faults and ~6% longer.
    """
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(table))
        for w in range(0, len(order), GROUP_WINDOW * batch_size):
            window = order[w:w + GROUP_WINDOW * batch_size]
            window[:] = window[np.argsort(table.n[window], kind="stable")]
        for start in range(0, len(order), batch_size):
            rows = order[start:start + batch_size]
            tape = Tape()
            losses, value = batch_loss(tape, rows)
            held = tape.largest_output()  # replaced once the next minibatch is recorded
            finite = np.isfinite(losses.data)
            if not finite.all():
                first = table.request_id[rows[int(np.argmin(finite))]]
                raise NumericsError(
                    f"non-finite loss at epoch {epoch} step {step} request {first}; "
                    "lower the learning rate or check the log")
            tape.backward(tape.sum(losses))
            adam_step(params, state, grad_scale=1.0 / len(rows))
            if loss_log is not None:
                loss_log.append(float(losses.data.sum()) / len(rows))
            if after_step is not None:
                after_step(step, rows, value)
            step += 1
    return params


def train_generator(logs, params: Params,
                    cfg: GeneratorConfig, spec: UtilitySpec, *,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    omega: float = 0.01, rho: float = 0.5,
                    objective: str = "ul", seed: int = 0,
                    step_log: list[TrainStep] | None = None) -> Params:
    """Unlikelihood (or plain CE) training of the matching generator on a
    LogTable or a list of ExposureLogs."""
    check_trainable_m(cfg.m)
    check_objective(objective)
    if objective == "ce":
        spec = replace(spec, tau=CE_ONLY_TAU)
    table = _table(logs, cfg.m)
    r = utilities(table, spec)

    def batch_loss(tape, rows):
        batch = table.take(rows)
        breakdown = total_loss(tape, forward(batch, params, cfg, tape), batch.exposed,
                               r[rows], spec, rho=rho, omega=omega)
        return breakdown.total, breakdown

    def log_step(step, rows, breakdown):
        mean = [float(t.data.sum()) / len(rows) for t in (
            breakdown.total, breakdown.ce_or_ul,
            breakdown.item_contrastive, breakdown.position_contrastive)]
        step_log.append(TrainStep(
            step=step, total=mean[0], ce_or_ul=mean[1],
            item_contrastive=mean[2], position_contrastive=mean[3],
            positive_fraction=int(breakdown.is_positive_sequence.sum()) / len(rows),
            clamp_fraction=int(breakdown.clamped.sum()) / len(rows)))

    return _fit(table, params, batch_loss, lr=lr, epochs=epochs,
                batch_size=batch_size, seed=seed,
                after_step=None if step_log is None else log_step)


def train_ar(logs, params: Params, cfg: GeneratorConfig, *,
             lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
             seed: int = 0, loss_log: list[float] | None = None) -> Params:
    """Teacher-forced CE training of the autoregressive pointer baseline on a
    LogTable or a list of ExposureLogs; loss_log gets each step's mean loss
    per request as a Python float."""
    check_trainable_m(cfg.m)
    table = _table(logs, cfg.m)

    def batch_loss(tape, rows):
        return ar_sequence_loss(table.take(rows), params, cfg, tape), None

    return _fit(table, params, batch_loss, lr=lr, epochs=epochs, batch_size=batch_size,
                seed=seed, loss_log=loss_log)
