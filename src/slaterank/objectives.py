"""Training losses for slate generation.

A logged slate is scored by a weighted sum of its interaction outcomes
(`utility`, through `weighted_sum`, which the evaluator and the simulator's
oracle share). Slates at or above a threshold are treated as positive
sequences and trained with cross-entropy on the matched cells of the
probability matrix; slates below it are pushed away with an unlikelihood
term on the same cells. One hinge loss on cosine similarity, applied to the
candidate and to the position representations, spreads each set apart so
that near-duplicate rows stop collapsing onto the same column.

The exposed slate names the labeled cells. `data.slate_indices` checks it,
or a minibatch's B slates in one call: m distinct integer indices into each
request's real (non-padded) candidates.

All losses are recorded on a Tape. On one request's (n, m) matrix they
return scalar Tensors, so `tape.backward(breakdown.total)` reaches every
parameter; on a (B, n, m) minibatch they return one value per request, and
training backprops their sum. `utility` is a plain float: it is a statistic
of the logged feedback, not a function of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeedbackMatrix, LogTable, slate_indices
from .errors import ConfigError, ShapeError
from .generator import ProbMatrix
from .numerics import Tape, Tensor

# Probabilities on the negative branch are clamped to at most 1 - _P_CLAMP
# before the log; cross-entropy clamps at _P_CLAMP from below for the same
# reason (a saturated column can underflow to an exact 0.0).
_P_CLAMP = 1e-12


@dataclass(frozen=True)
class UtilitySpec:
    """Interaction weights and the positive/negative sequence threshold.

    `types` names the interaction channels, `weights` gives one weight per
    channel, and `tau` splits logged slates into positive (utility >= tau)
    and negative sequences.
    """

    types: tuple[str, ...]
    weights: tuple[float, ...]
    tau: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(str(t) for t in self.types))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "tau", float(self.tau))
        if len(self.types) != len(set(self.types)):
            raise ConfigError(f"utility.types repeats an interaction type: {self.types}")
        if len(self.types) != len(self.weights):
            raise ConfigError(f"{len(self.types)} utility.types but "
                              f"{len(self.weights)} utility.weights")
        w = np.asarray(self.weights)
        if not np.isfinite(w).all():
            raise ConfigError(f"utility.weights must be finite, got {self.weights}")
        if not np.isfinite(self.tau):
            raise ConfigError("utility.tau must be finite")
        if not (w != 0.0).any():
            raise ConfigError("at least one of utility.weights must be nonzero")

    def weight_for(self, name: str) -> float:
        try:
            return self.weights[self.types.index(name)]
        except ValueError:
            raise ShapeError(f"no utility weight for interaction type {name!r}") from None


def weighted_sum(values: np.ndarray, weights) -> np.ndarray:
    """sum_t weights[t] * sum_j values[..., t, j], the type axis second to
    last: the one sum behind every utility, logged, predicted or expected.
    Each type's row is summed by NumPy's reduce over the last axis, and the
    weighted sums are added in type order to a total that starts at 0.0."""
    total = np.zeros(values.shape[:-2])
    for t, w in enumerate(weights):
        total = total + w * np.add.reduce(values[..., t, :], axis=-1)
    return total


@dataclass
class LossBreakdown:
    """Loss terms per request. `total` is the tensor to backprop.

    total = ce_or_ul + omega * (item_contrastive + position_contrastive).
    `clamped` reports that at least one labeled probability sat at 1 on the
    negative branch and was clamped before the log. For one request every
    term is a scalar and the flags are bools; for a minibatch every term is
    a (B,) vector and the flags are (B,) bool arrays.
    """

    total: Tensor
    ce_or_ul: Tensor
    item_contrastive: Tensor
    position_contrastive: Tensor
    is_positive_sequence: bool | np.ndarray
    clamped: bool | np.ndarray = False


def utility(feedback: FeedbackMatrix, spec: UtilitySpec) -> float:
    """Weighted sum of all interaction outcomes on an exposed slate."""
    return float(weighted_sum(feedback.values, [spec.weight_for(t) for t in feedback.types]))


def utilities(table: LogTable, spec: UtilitySpec) -> np.ndarray:
    """`utility` of every logged slate of a LogTable, as one (N,) array."""
    return weighted_sum(table.feedback, [spec.weight_for(t) for t in table.types])


def _flag(x: np.ndarray) -> bool | np.ndarray:
    """A bool for one request, the array for a minibatch."""
    return bool(x) if x.ndim == 0 else x


def _label_indices(exposed, probs: ProbMatrix) -> np.ndarray:
    """The exposed slate as (m,) indices, or for a (B, n, m) minibatch B
    slates as (B, m), each checked by `slate_indices` against its request's
    real (non-padded) candidates."""
    lead = probs.values.data.shape[:-2]
    n = np.full(lead, probs.n) if probs.valid is None else probs.valid.sum(axis=-1)
    if not lead:
        return slate_indices([exposed], int(n), probs.m)[0]
    return slate_indices(exposed, n.tolist(), probs.m)


def _labeled_probs(tape: Tape, probs: ProbMatrix, exposed) -> Tensor:
    idx = _label_indices(exposed, probs)
    return tape.take_entries(probs.values, idx, np.arange(probs.m))


def _neg_log_sum(tape: Tape, p: Tensor) -> Tensor:
    """-sum_j log max(p_j, 1e-12) over the last axis: one value per request."""
    return tape.mask(tape.sum(tape.log(tape.clamp_min(p, _P_CLAMP)), axis=-1), -1.0)


def ce_loss(tape: Tape, probs: ProbMatrix, exposed) -> Tensor:
    """Cross-entropy of the exposed slate: -sum_j log p[exposed_j, j]."""
    return _neg_log_sum(tape, _labeled_probs(tape, probs, exposed))


def unlikelihood_loss(
    tape: Tape, probs: ProbMatrix, exposed, r, spec: UtilitySpec
) -> tuple[Tensor, bool | np.ndarray, bool | np.ndarray]:
    """Likelihood loss for positive sequences, unlikelihood for negative.

    Returns (loss, is_positive_sequence, clamped). The branch depends only
    on the sign of r - tau. On the negative branch the loss is
    -sum_j log(1 - p[exposed_j, j]), which shrinks as the matched
    probabilities shrink; labeled cells saturated at 1 are clamped to
    1 - 1e-12 and flagged. For a minibatch r holds one utility per request,
    and each request takes its own branch.
    """
    is_positive = np.asarray(r) >= spec.tau
    picked = _labeled_probs(tape, probs, exposed)
    # p on the positive branch, 1 - p on the negative one: p * 1 + 0 and
    # p * -1 + 1 are exact, so each branch rounds as if computed alone
    sign = np.where(is_positive, 1.0, -1.0)[..., None]
    shift = np.where(is_positive, 0.0, 1.0)[..., None]
    target = tape.add_scalar(tape.mask(picked, sign), shift)
    clamped = ~is_positive & (target.data < _P_CLAMP).any(axis=-1)
    return _neg_log_sum(tape, target), _flag(is_positive), _flag(clamped)


def contrastive_loss(tape: Tape, reps: Tensor, rho: float,
                     valid: np.ndarray | None = None) -> Tensor:
    """Hinge separation: the mean over ordered pairs i != j of
    max(0, rho - 1 + cos(x_i, x_j)), over the last two axes; with `valid`,
    over pairs of valid rows only, so padded candidates take no part.

    Zero-norm rows get similarity 0 against everything (row_normalize
    warns when that happens).
    """
    n = reps.data.shape[-2]
    pairs = ~np.eye(n, dtype=bool)
    k = n
    if valid is not None:
        pairs = pairs & valid[..., :, None] & valid[..., None, :]
        k = valid.sum(axis=-1)
    if np.min(k) < 2:
        raise ShapeError("contrastive loss needs at least 2 representations")
    if not -1.0 <= rho <= 1.0:
        raise ConfigError(f"margin rho must lie in [-1, 1], got {rho}")
    unit = tape.row_normalize(reps)
    cos = tape.matmul(unit, tape.transpose(unit))
    # -inf shifts the pairs left out below the hinge: exactly 0, no gradient
    hinge = tape.clamp_min(tape.add_scalar(cos, np.where(pairs, rho - 1.0, -np.inf)), 0.0)
    return tape.mask(tape.sum(hinge, axis=(-2, -1)), 1.0 / (k * (k - 1)))


def total_loss(
    tape: Tape,
    probs: ProbMatrix,
    exposed,
    r,
    spec: UtilitySpec,
    rho: float = 0.5,
    omega: float = 0.01,
) -> LossBreakdown:
    """Combine the branch loss with `contrastive_loss` over the candidate
    representations (padded rows left out) and over the position ones.

    `r` is the logged utility, as `unlikelihood_loss` takes it: a float for
    one request; for a (B, n, m) minibatch, whose `exposed` holds one slate
    per request, the (B,) array of their utilities (training takes it from
    `utilities` of its LogTable), and every term comes back per request.
    With omega = 0 the total equals the branch loss exactly (the weighted
    term is a multiply by 0.0); with rho = 0 the hinges only fire on
    exact-duplicate representations, so the objective degenerates to plain
    likelihood/unlikelihood training.
    """
    ul, is_positive, clamped = unlikelihood_loss(tape, probs, exposed, r, spec)
    item = contrastive_loss(tape, probs.candidate_reps, rho, probs.valid)
    position = contrastive_loss(tape, probs.position_reps, rho)
    total = tape.add(ul, tape.mask(tape.add(item, position), float(omega)))
    return LossBreakdown(
        total=total,
        ce_or_ul=ul,
        item_contrastive=item,
        position_contrastive=position,
        is_positive_sequence=is_positive,
        clamped=clamped,
    )


def sequence_log_likelihood(probs: ProbMatrix, exposed) -> float:
    """log p(slate) = sum_j log p[exposed_j, j], as a plain float.

    Evaluation helper; does not touch the tape.
    """
    idx = _label_indices(exposed, probs)
    picked = probs.values.data[idx, np.arange(probs.m)]
    return float(np.log(np.maximum(picked, _P_CLAMP)).sum())
