"""Minibatch training loops for the matching generator and the pointer baseline,
and the helper that the evaluator's loop shares with them.

Every loop trains on one `data.LogTable`: the table `read_logs` or
`simulator.gen_log` returned is used as it is, and a list of ExposureLogs is
stacked into one once, at the start (`_table`). All three loops, these two
and `evaluator.train_evaluator`, run through one helper, `_fit`: it shuffles
the table's row numbers with the training seed and hands each minibatch's
rows, `order[start:start + bs]`, to the loop's loss, records that minibatch
on one tape, checks that every request's loss is finite (naming the first
request that is not), backprops the sum of the per-request losses once and
takes one Adam step on the minibatch-mean gradient. The generator and the pointer baseline take their
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

from dataclasses import dataclass, replace

import numpy as np

from .ar import ar_sequence_loss
from .data import LogTable
from .errors import DataError, NumericsError
from .generator import GeneratorConfig, forward
from .numerics import AdamState, Params, Tape, adam_step
from .objectives import UtilitySpec, total_loss, utilities

# Finite stand-in for "no threshold": every logged slate trains on the
# positive branch, which reduces unlikelihood training to plain CE.
CE_ONLY_TAU = -1e30


@dataclass(frozen=True)
class TrainStep:
    """Batch-mean loss components for one optimizer step."""

    step: int
    total: float
    ce_or_ul: float
    item_contrastive: float
    position_contrastive: float
    positive_fraction: float
    clamp_fraction: float

    @staticmethod
    def csv_header() -> str:
        return ("step,total,ce_or_ul,item_contrastive,position_contrastive,"
                "positive_fraction,clamp_fraction")

    def csv_row(self) -> str:
        # float() first: under NumPy 2 the repr of a NumPy scalar is
        # "np.float64(...)", which is not a CSV number
        values = (self.total, self.ce_or_ul, self.item_contrastive,
                  self.position_contrastive, self.positive_fraction,
                  self.clamp_fraction)
        return ",".join([str(self.step)] + [repr(float(v)) for v in values])


def steps_to_csv(steps: list[TrainStep]) -> str:
    lines = [TrainStep.csv_header()]
    lines.extend(s.csv_row() for s in steps)
    return "\n".join(lines) + "\n"


def _table(logs) -> LogTable:
    """The training log as one LogTable: a LogTable as it is, a list of
    ExposureLogs stacked once. An empty log is a DataError."""
    table = LogTable.of(logs)
    if not len(table):
        raise DataError("training log is empty")
    return table


def _fit(table: LogTable, params: Params, batch_loss, *, lr: float,
         epochs: int, batch_size: int, seed: int, after_step=None) -> Params:
    """Adam over seeded shuffles of the table's rows, one tape per minibatch.

    batch_loss(tape, rows) gets a minibatch's row numbers and returns the
    per-request loss vector and a value that after_step(step, rows, value)
    receives once the step is taken; the value stays alive until the next
    minibatch has been recorded.
    """
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(table))
        for start in range(0, len(order), batch_size):
            rows = order[start:start + batch_size]
            tape = Tape()
            losses, value = batch_loss(tape, rows)
            finite = np.isfinite(losses.data)
            if not finite.all():
                first = table.request_id[rows[int(np.argmin(finite))]]
                raise NumericsError(
                    f"non-finite loss at epoch {epoch} step {step} request {first}; "
                    "lower the learning rate or check the log")
            tape.backward(tape.sum(losses))
            adam_step(params, state, grad_scale=1.0 / len(rows))
            if after_step is not None:
                after_step(step, rows, value)
            step += 1
    return params


def _log_mean_loss(loss_log: list[float] | None):
    """after_step for a batch_loss whose value is a tuple that starts with
    its per-request losses: appends each step's mean loss per request to
    loss_log as a Python float."""
    if loss_log is None:
        return None

    def log_step(step, rows, value):
        loss_log.append(float(value[0].data.sum()) / len(rows))
    return log_step


def train_generator(logs, params: Params,
                    cfg: GeneratorConfig, spec: UtilitySpec, *,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    omega: float = 0.01, rho: float = 0.5,
                    objective: str = "ul", seed: int = 0,
                    step_log: list[TrainStep] | None = None) -> Params:
    """Unlikelihood (or plain CE) training of the matching generator on a
    LogTable or a list of ExposureLogs."""
    if objective == "ce":
        spec = replace(spec, tau=CE_ONLY_TAU)
    elif objective != "ul":
        raise DataError(f"unknown objective {objective!r}")
    table = _table(logs)
    r = utilities(table, spec)

    def batch_loss(tape, rows):
        batch = table.take(rows)
        probs = forward(batch, params, cfg, tape)
        breakdown = total_loss(tape, probs, batch.exposed, r[rows], spec,
                               rho=rho, omega=omega)
        # probs rides along so that _fit holds it until the next minibatch is
        # recorded. The allocator then reuses the freed activations' pages
        # instead of returning them to the OS after each backward pass and
        # faulting them in again: without it a training run took ~75% more
        # minor page faults and ~6% longer.
        return breakdown.total, (breakdown, probs)

    def log_step(step, rows, value):
        breakdown = value[0]
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
    table = _table(logs)

    def batch_loss(tape, rows):
        losses = ar_sequence_loss(table.take(rows), params, cfg, tape)
        # the largest activation (the feed-forward's hidden layer) rides
        # along for the reason train_generator keeps its probs
        return losses, (losses, tape.largest_output())

    return _fit(table, params, batch_loss, lr=lr, epochs=epochs, batch_size=batch_size,
                seed=seed, after_step=_log_mean_loss(loss_log))
