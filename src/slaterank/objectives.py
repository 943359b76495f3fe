"""Training losses for slate generation.

A logged slate is scored by a weighted sum of its interaction outcomes
(`utility`). Slates at or above a threshold are treated as positive
sequences and trained with cross-entropy on the matched cells of the
probability matrix; slates below it are pushed away with an unlikelihood
term on the same cells. Two hinge losses on cosine similarity spread the
candidate and position representations apart so that near-duplicate rows
stop collapsing onto the same column.

All losses are recorded on a Tape. On one request's (n, m) matrix they
return scalar Tensors, so `tape.backward(breakdown.total)` reaches every
parameter; on a (B, n, m) minibatch they return one value per request, and
training backprops their sum. `utility` is a plain float: it is a statistic
of the logged feedback, not a function of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeedbackMatrix
from .errors import ConfigError, InvalidSlateError, ShapeError
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
            raise ConfigError("duplicate interaction type in UtilitySpec")
        if len(self.types) != len(self.weights):
            raise ConfigError(
                f"{len(self.types)} interaction types but {len(self.weights)} weights"
            )
        w = np.asarray(self.weights)
        if not np.isfinite(w).all() or not np.isfinite(self.tau):
            raise ConfigError("utility weights and tau must be finite")
        if not (w != 0.0).any():
            raise ConfigError("at least one interaction weight must be nonzero")

    def weight_for(self, name: str) -> float:
        try:
            return self.weights[self.types.index(name)]
        except ValueError:
            raise ShapeError(f"no utility weight for interaction type {name!r}") from None


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
    total = 0.0
    for name, row in zip(feedback.types, feedback.values):
        total += spec.weight_for(name) * float(row.sum())
    return total


def _flag(x: np.ndarray) -> bool | np.ndarray:
    """A bool for one request, the array for a minibatch."""
    return bool(x) if x.ndim == 0 else x


def _label_indices(exposed, probs: ProbMatrix) -> np.ndarray:
    """Validate exposed positions against the matrix; returns int indices.

    Accepts a decoded SlateSequence or any plain sequence of candidate
    indices, or for a (B, n, m) minibatch a sequence of B of them, giving
    (B, m) indices. Indices must address real (non-padded) candidates.
    """
    if probs.values.data.ndim == 2:
        raw = getattr(exposed, "indices", exposed)
    else:
        raw = [getattr(e, "indices", e) for e in exposed]
    idx = np.asarray(raw, dtype=np.int64)
    want = probs.values.data.shape[:-2] + (probs.m,)
    if idx.shape != want:
        raise ShapeError(f"expected {probs.m} exposed indices, got shape {idx.shape}")
    n_valid = probs.n if probs.valid is None else probs.valid.sum(axis=-1)
    if idx.min(initial=0) < 0 or (idx >= np.asarray(n_valid)[..., None]).any():
        raise InvalidSlateError(f"exposed index out of range [0, {n_valid})")
    if (np.diff(np.sort(idx, axis=-1), axis=-1) == 0).any():
        raise InvalidSlateError("exposed indices must be pairwise distinct")
    return idx


def _labeled_probs(tape: Tape, probs: ProbMatrix, exposed) -> Tensor:
    idx = _label_indices(exposed, probs)
    return tape.take_entries(probs.values, idx, np.arange(probs.m))


def _neg_log_sum(tape: Tape, p: Tensor) -> Tensor:
    """-sum_j log max(p_j, 1e-12) over the last axis: one value per request."""
    return tape.neg(tape.sum(tape.log(tape.clamp_min(p, _P_CLAMP)), axis=-1))


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


def _pairwise_hinge(tape: Tape, reps: Tensor, rho: float,
                    valid: np.ndarray | None = None) -> Tensor:
    """Mean over ordered pairs i != j of max(0, rho - 1 + cos(x_i, x_j)),
    over the last two axes; with `valid`, over pairs of valid rows only."""
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
    hinge = tape.relu(tape.add_scalar(cos, np.where(pairs, rho - 1.0, -np.inf)))
    return tape.mask(tape.sum(hinge, axis=(-2, -1)), 1.0 / (k * (k - 1)))


def item_contrastive_loss(tape: Tape, cand_reps: Tensor, rho: float,
                          valid: np.ndarray | None = None) -> Tensor:
    """Hinge separation over candidate representations; padded rows, those
    outside `valid`, take no part.

    Zero-norm rows get similarity 0 against everything (row_normalize
    warns when that happens).
    """
    return _pairwise_hinge(tape, cand_reps, rho, valid)


def position_contrastive_loss(tape: Tape, pos_reps: Tensor, rho: float) -> Tensor:
    """Hinge separation over position representations; mirrors the item loss."""
    return _pairwise_hinge(tape, pos_reps, rho)


def total_loss(
    tape: Tape,
    probs: ProbMatrix,
    exposed,
    feedback,
    spec: UtilitySpec,
    rho: float = 0.5,
    omega: float = 0.01,
) -> LossBreakdown:
    """Combine the branch loss with the two contrastive terms.

    For a (B, n, m) minibatch, `exposed` and `feedback` hold one slate and
    one FeedbackMatrix per request, and every term comes back per request.
    With omega = 0 the total equals the branch loss exactly (the weighted
    term is a multiply by 0.0); with rho = 0 the hinges only fire on
    exact-duplicate representations, so the objective degenerates to plain
    likelihood/unlikelihood training.
    """
    if probs.values.data.ndim == 2:
        r = utility(feedback, spec)
    else:
        r = np.array([utility(f, spec) for f in feedback])
    ul, is_positive, clamped = unlikelihood_loss(tape, probs, exposed, r, spec)
    item = item_contrastive_loss(tape, probs.candidate_reps, rho, probs.valid)
    position = position_contrastive_loss(tape, probs.position_reps, rho)
    total = tape.add(ul, tape.scale(tape.add(item, position), omega))
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
