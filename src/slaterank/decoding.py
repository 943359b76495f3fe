"""Slate construction from a probability matrix.

The generator emits every position's distribution in one forward pass, so
decoding is pure selection: no model evaluation happens here. Every decoder
takes one request's (n, m) ProbMatrix (a (B, n, m) stack is a ShapeError),
fills positions left to right without replacement and breaks ties toward the
lowest candidate index, which keeps it reproducible and easy to test against
brute force.

`contrastive_decode` is the production method: model confidence traded off
against the maximum cosine similarity to anything already placed, so a
near-duplicate of a chosen item has to clear a penalty before it can win a
later slot. The others (greedy, top-k sampling, beam search) are ablation
baselines, and `sample_slates` pools the contrastive slate with top-k samples
into a candidate set for slate-level reranking. Its top-k samples are drawn
together: each column is ranked once, and one block of uniforms fills every
missing sample's positions, consuming the random stream exactly as drawing
the samples one by one would.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, InfeasibleSlateError, ShapeError
from .generator import ProbMatrix


@dataclass(frozen=True)
class SlateSequence:
    """An ordered slate: indices, their chosen-column probabilities, and the
    decode method that produced it. The indices are kept as they are given;
    only the slate rule, `data.slate_indices`, reads their type, wherever
    the slate is used."""

    indices: tuple[int, ...]
    probabilities: tuple[float, ...]
    method: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "probabilities", tuple(map(float, self.probabilities)))
        if len(self.indices) != len(self.probabilities):
            raise ShapeError("one probability per chosen index required")

    @property
    def m(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class DecodeConfig:
    alpha: float = 0.1
    k: int = 4
    num_samples: int = 8

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.k < 1 or self.num_samples < 1:
            raise ConfigError("k and num_samples must both be >= 1")


def _active(probs: ProbMatrix) -> tuple[np.ndarray, int]:
    """Column probabilities restricted to real (non-padded) candidates."""
    values, n = probs.active()
    if probs.m > n:
        raise InfeasibleSlateError(f"cannot fill {probs.m} positions from {n} candidates")
    return values, n


def _unit_rows(x: np.ndarray) -> np.ndarray:
    # what np.linalg.norm(x, axis=1, keepdims=True) computes for real x
    norms = np.add.reduce(x * x, axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)


def _slate(indices: list[int], values: np.ndarray, method: str) -> SlateSequence:
    cols = np.arange(len(indices))
    return SlateSequence(
        indices=tuple(indices),
        probabilities=values[indices, cols].tolist(),
        method=method,
    )


def contrastive_decode(probs: ProbMatrix, cfg: DecodeConfig) -> SlateSequence:
    """Fill each position with the unselected candidate maximizing
    (1 - alpha) * p[x, t] - alpha * max_{chosen j} cos(x, x_j).

    The similarity term is 0 at the first position (empty max). The matrix
    is static: confidences are read once, never recomputed after a pick.
    """
    values, n = _active(probs)
    unit = _unit_rows(probs.candidate_reps.data[:n])
    confidence = (1.0 - cfg.alpha) * values
    selected = np.zeros(n, dtype=bool)
    # the max over the chosen set may be negative, so it cannot start at 0
    max_sim: np.ndarray | None = None
    chosen: list[int] = []
    for t in range(probs.m):
        score = confidence[:, t]
        if max_sim is not None:
            score = score - cfg.alpha * max_sim
        # argmax returns the first maximizer, which is the tie-break rule
        pick = int(np.where(selected, -np.inf, score).argmax())
        chosen.append(pick)
        selected[pick] = True
        sims = unit @ unit[pick]
        if max_sim is None:
            max_sim = sims
        else:
            np.maximum(max_sim, sims, out=max_sim)
    return _slate(chosen, values, "contrastive")


def greedy_decode(probs: ProbMatrix) -> SlateSequence:
    """Per-position argmax over unselected candidates, left to right."""
    values, n = _active(probs)
    selected = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    for t in range(probs.m):
        pick = int(np.argmax(np.where(selected, -np.inf, values[:, t])))
        chosen.append(pick)
        selected[pick] = True
    return _slate(chosen, values, "greedy")


def _group_bounds(weights: list[float]) -> list[float]:
    """The renormalized cdf of one rank group's probabilities; a pick is the
    number of bounds at or below its uniform, as `Generator.choice(p=...)`
    picks. A group whose probabilities sum to zero is sampled uniformly.

    Bit for bit what NumPy gives on a (samples, group) block of such groups:
    the same float operations in the same order, that is the row total as
    `np.add.reduce`, the division by it, the running sum as
    `np.add.accumulate`, and the division by the last entry. NumPy adds
    fewer than 8 terms left to right, as the loop here does; a wider group
    takes NumPy's own sum, which adds pairwise.
    """
    if len(weights) < 8:
        # not `sum`, which compensates its rounding from Python 3.12 on
        total = 0.0
        for w in weights:
            total += w
    else:
        total = float(np.add.reduce(np.array(weights)))
    if total > 0.0:
        cdf = list(accumulate([w / total for w in weights]))
    else:
        cdf = list(accumulate([1.0 / len(weights)] * len(weights)))
    last = cdf[-1]
    # x / 1.0 is x, so the usual last entry of 1.0 needs no division
    return cdf if last == 1.0 else [c / last for c in cdf]


def _topk_draws(
    probs: ProbMatrix, k: int, num: int, rng: np.random.Generator
) -> tuple[list[tuple[int, ...]], list[list[float]]]:
    """`num` independent top-k samples drawn together: each one's chosen
    indices, plus the active column probabilities, one list per position.

    Each column is ranked once (a stable sort, so ties go to the lower index)
    and every sample's free candidates are read off in that order. One
    `rng.random((num, m))` block supplies one uniform per pick, row by row,
    so the stream is consumed in the same order and amount as `num`
    one-at-a-time samples. At position 0 nothing is taken yet, so every
    sample draws from one group; later positions go sample by sample, in
    Python floats. Probabilities are non-negative, so the bounds rise and a
    bisection counts those at or below a uniform.
    """
    values, n = _active(probs)
    if k > n:
        raise ConfigError(f"k={k} exceeds {n} candidates")
    order = np.argsort(-values, axis=0, kind="stable")
    uniforms = rng.random((num, probs.m))
    if not probs.m:
        return [()] * num, []
    columns = values.T.tolist()
    ranks = order.T.tolist()
    draws = uniforms.T.tolist()
    top = ranks[0][:k]
    bounds = _group_bounds([columns[0][c] for c in top])
    picks = [[top[bisect_right(bounds, u)] for u in draws[0]]]
    for t in range(1, probs.m):
        width = min(k, n - t)
        # t of a sample's candidates are taken, so its group lies in these
        ranked = ranks[t][:width + t]
        column = columns[t]
        row = []
        for mine, u in zip(zip(*picks), draws[t]):
            group = [c for c in ranked if c not in mine][:width]
            row.append(group[bisect_right(_group_bounds([column[c] for c in group]), u)])
        picks.append(row)
    return list(zip(*picks)), columns


def _topk_slate(indices: tuple[int, ...], columns: list[list[float]]) -> SlateSequence:
    return SlateSequence(indices, [column[c] for column, c in zip(columns, indices)], "topk")


def topk_sample(
    probs: ProbMatrix, cfg: DecodeConfig, rng: np.random.Generator
) -> SlateSequence:
    """Sample each position from the renormalized top-k unselected candidates.

    Ranking happens among the candidates still available, so positions late
    in the slate automatically fall back to lower-ranked candidates. A
    rank group whose probabilities sum to zero is sampled uniformly.
    """
    chosen, columns = _topk_draws(probs, cfg.k, 1, rng)
    return _topk_slate(chosen[0], columns)


def beam_decode(probs: ProbMatrix, width: int) -> SlateSequence:
    """Width-limited search over without-replacement slates maximizing
    sum_j log p[y_j, j]; ties prefer the lexicographically smallest slate."""
    if width < 1:
        raise ConfigError(f"beam width must be >= 1, got {width}")
    values, n = _active(probs)
    with np.errstate(divide="ignore"):
        logp = np.log(values)
    beams: list[tuple[float, tuple[int, ...]]] = [(0.0, ())]
    for t in range(probs.m):
        expanded = [
            (score + logp[i, t], prefix + (i,))
            for score, prefix in beams
            for i in range(n)
            if i not in prefix
        ]
        expanded.sort(key=lambda entry: (-entry[0], entry[1]))
        beams = expanded[:width]
    return _slate(list(beams[0][1]), values, "beam")


def sample_slates(probs: ProbMatrix, cfg: DecodeConfig,
                  rng: np.random.Generator) -> list[SlateSequence]:
    """The contrastive slate plus deduplicated top-k samples, up to
    cfg.num_samples of them, drawn from `rng`; deterministic given rng.

    Each refill draws as many samples as are still missing in one batch, so
    it never draws past the sample that completes the pool: the proposals
    and the rng state afterwards match drawing one sample at a time.
    """
    slates = [contrastive_decode(probs, cfg)]
    seen = {slates[0].indices}
    attempts, budget = 0, 20 * cfg.num_samples
    while len(slates) < cfg.num_samples and attempts < budget:
        num = min(cfg.num_samples - len(slates), budget - attempts)
        attempts += num
        chosen, columns = _topk_draws(probs, cfg.k, num, rng)
        for indices in chosen:
            if indices not in seen:
                seen.add(indices)
                slates.append(_topk_slate(indices, columns))
    return slates
