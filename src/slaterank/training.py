"""Minibatch training loops for the matching generator and the pointer baseline.

Both loops accumulate per-request gradients on a fresh tape, average them
over the minibatch, and take one Adam step per batch. Shuffling is driven
by the training seed only, so a (logs, seed) pair fixes the whole parameter
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ar import ar_sequence_loss
from .data import ExposureLog
from .errors import DataError, NumericsError
from .generator import GeneratorConfig, forward
from .numerics import AdamState, Params, Tape, adam_step
from .objectives import UtilitySpec, total_loss

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


def _check_logs(logs: list[ExposureLog]) -> None:
    # ExposureLog guarantees exposure and feedback exist per entry.
    if not logs:
        raise DataError("training log is empty")


def _nan_diagnostics(what: str, epoch: int, step: int, request_id: int) -> str:
    return (f"non-finite {what} at epoch {epoch} step {step} "
            f"request {request_id}; lower the learning rate or check the log")


def train_generator(logs: list[ExposureLog], params: Params,
                    cfg: GeneratorConfig, spec: UtilitySpec, *,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    omega: float = 0.01, rho: float = 0.5,
                    objective: str = "ul", seed: int = 0,
                    step_log: list[TrainStep] | None = None) -> Params:
    """Unlikelihood (or plain CE) training of the matching generator."""
    _check_logs(logs)
    if objective == "ce":
        spec = replace(spec, tau=CE_ONLY_TAU)
    elif objective != "ul":
        raise DataError(f"unknown objective {objective!r}")
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(logs))
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            sums = np.zeros(4)
            positives = 0
            clamps = 0
            for li in batch:
                log = logs[li]
                tape = Tape()
                probs = forward(log.request, params, cfg, tape)
                breakdown = total_loss(tape, probs, log.exposed, log.feedback,
                                       spec, rho=rho, omega=omega)
                if not np.isfinite(breakdown.total.item()):
                    raise NumericsError(_nan_diagnostics(
                        "loss", epoch, step, log.request.request_id))
                tape.backward(breakdown.total)
                sums += (breakdown.total.item(), breakdown.ce_or_ul.item(),
                         breakdown.item_contrastive.item(),
                         breakdown.position_contrastive.item())
                positives += breakdown.is_positive_sequence
                clamps += breakdown.clamped
            params.scale_grads(1.0 / len(batch))
            adam_step(params, state)
            if step_log is not None:
                mean = sums / len(batch)
                step_log.append(TrainStep(
                    step=step, total=mean[0], ce_or_ul=mean[1],
                    item_contrastive=mean[2], position_contrastive=mean[3],
                    positive_fraction=positives / len(batch),
                    clamp_fraction=clamps / len(batch)))
            step += 1
    return params


def train_ar(logs: list[ExposureLog], params: Params, cfg: GeneratorConfig, *,
             lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
             seed: int = 0, loss_log: list[float] | None = None) -> Params:
    """Teacher-forced CE training of the autoregressive pointer baseline."""
    _check_logs(logs)
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    step = 0
    for epoch in range(epochs):
        order = rng.permutation(len(logs))
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            running = 0.0
            for li in batch:
                log = logs[li]
                tape = Tape()
                loss = ar_sequence_loss(log.request, params, cfg, tape)
                if not np.isfinite(loss.item()):
                    raise NumericsError(_nan_diagnostics(
                        "loss", epoch, step, log.request.request_id))
                tape.backward(loss)
                running += loss.item()
            params.scale_grads(1.0 / len(batch))
            adam_step(params, state)
            if loss_log is not None:
                loss_log.append(running / len(batch))
            step += 1
    return params
