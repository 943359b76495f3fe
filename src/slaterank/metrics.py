"""Offline evaluation metrics and the report they roll up into.

AUC, LogLoss and NDCG judge itemwise interaction prediction (the evaluator's
heads); Recall@k judges exposure prediction (does the generator put the
items that were actually shown into its top k). All functions are pure and
deterministic; ties are handled by explicit rules (0.5 credit in AUC,
stable sorts elsewhere) so reports are byte-reproducible. A non-finite
score or label is a NumericsError, not a plausible-looking metric.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data import CsvRecord, slate_indices
from .errors import DegenerateLabelsError, NumericsError, ShapeError
from .generator import ProbMatrix

_CLAMP = 1e-12


def _pair(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if s.shape != y.shape or s.size == 0:
        raise ShapeError(f"scores {s.shape} and labels {y.shape} must match")
    if not (np.isfinite(s).all() and np.isfinite(y).all()):
        raise NumericsError("scores and labels must be finite")
    return s, y


def auc(scores, labels) -> float:
    """P(random positive outranks random negative); ties count half.

    Example: scores [0.9, 0.8, 0.7, 0.6] with labels [1, 0, 1, 0] gives
    0.75 (three of the four positive/negative pairs are ordered right).
    Perfect separation gives 1.0, fully reversed scores give 0.0.
    """
    s, y = _pair(scores, labels)
    pos = y > 0
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("AUC needs at least one positive and one negative")
    order = np.argsort(s, kind="stable")
    # each tie group at its mean rank; half-integer ranks sum exactly in any order
    _, first, count = np.unique(s[order], return_index=True, return_counts=True)
    rank_sum = np.repeat(first + 0.5 * (count - 1) + 1.0, count)[pos[order]].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def logloss(scores, labels) -> float:
    """Mean binary cross-entropy with scores clamped into [1e-12, 1-1e-12].

    Example: score 0.5 everywhere gives ln 2. Scores [0.9, 0.1] with
    labels [1, 0] give -(ln 0.9 + ln 0.9) / 2 = -ln 0.9, about 0.10536.
    """
    s, y = _pair(scores, labels)
    p = np.clip(s, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def ndcg_list(scores, labels) -> float | None:
    """NDCG of one list (gain = label, discount 1/log2(rank+1)); None when
    the list has no relevant item and is skipped.

    Example: the ideal ordering gives 1.0. The single relevant item of a
    two-item list ranked second gives 1/log2(3), about 0.63093.
    """
    s, y = _pair(scores, labels)
    order = np.argsort(-s, kind="stable")
    discounts = 1.0 / np.log2(np.arange(2, y.size + 2))
    dcg = float((y[order] * discounts).sum())
    ideal = float((np.sort(y)[::-1] * discounts).sum())
    if ideal == 0.0:
        return None
    return dcg / ideal


def ndcg(score_lists, label_lists) -> tuple[float, int]:
    """Mean NDCG over lists, and how many all-zero-label lists it skipped."""
    values = [ndcg_list(s, y) for s, y in zip(score_lists, label_lists)]
    kept = [v for v in values if v is not None]
    if not kept:
        raise DegenerateLabelsError("every list was skipped: no relevant items")
    return float(np.mean(kept)), len(values) - len(kept)


def recall_at_k(probs: ProbMatrix, exposed, k: int) -> float:
    """Rank candidates by max-over-positions probability; |top-k hits| / m.

    Example: k = n always gives 1.0, and a model that puts all 6 exposed
    items in its top 6 scores Recall@6 = 1.0. Random scoring with n=60,
    m=6, k=6 averages about 6/60 = 0.1 over many draws.
    """
    n = probs.n if probs.valid is None else int(probs.valid.sum())
    if not 1 <= k <= n:
        raise ShapeError(f"k={k} out of range for n={n}")
    exposed = slate_indices([exposed], n, probs.m)[0].tolist()
    per_item = probs.values.data[:n].max(axis=1)
    top = np.argsort(-per_item, kind="stable")[:k]
    return len(set(top.tolist()) & set(exposed)) / len(exposed)


@dataclass
class EvalReport(CsvRecord):
    """One evaluation run rolled into a row: itemwise metrics from the
    evaluator plus exposure recall from the generator."""

    CSV_EXPAND = {"recall": lambda r: [(f"recall@{k}", r.recall[k]) for k in sorted(r.recall)]}

    auc: float
    logloss: float
    ndcg: float
    recall: dict[int, float] = field(default_factory=dict)
    num_requests: int = 0
    num_lists: int = 0
    num_skipped: int = 0

    def pretty(self) -> str:
        out = io.StringIO()
        out.write(f"AUC      {self.auc:.4f}\n")
        out.write(f"LogLoss  {self.logloss:.4f}\n")
        out.write(f"NDCG     {self.ndcg:.4f} "
                  f"({self.num_lists - self.num_skipped}/{self.num_lists} lists)\n")
        for k in sorted(self.recall):
            out.write(f"Recall@{k} {self.recall[k]:.4f}\n")
        out.write(f"requests {self.num_requests}\n")
        return out.getvalue()
