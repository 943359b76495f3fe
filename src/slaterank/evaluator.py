"""Listwise slate evaluator.

Scores a proposed slate as a whole: the chosen items' features, in slate
order, run through one self-attention + feed-forward block, then per-item
sigmoid heads predict each interaction type. Order enters through learned
position embeddings added to the item features. The overall utility is the
weighted sum of predicted scores, and `select_best` picks the highest-utility
slate from a candidate pool.

The block takes an optional leading batch axis: `score_slate` runs one
slate's (m, d) rows, while `score_slates` scores a whole pool in one pass with
the K slates stacked as (K, m, d), each attending to its own items only.

Training is plain off-policy regression: binary cross-entropy of each head
against the logged feedback on exposed slates. A minibatch of B exposed
slates is one (B, m, d) stack on one tape, with one backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExposureLog, FeedbackMatrix, RequestBatch
from .errors import (
    ConfigError,
    DataError,
    EmptyCandidatesError,
    InvalidSlateError,
    ShapeError,
)
from .generator import _build_attention, _build_ffn, _build_layer_norm, _ffn, _ln, multi_head_attention
from .numerics import AdamState, Params, Tape, Tensor, adam_step


@dataclass(frozen=True)
class EvaluatorConfig:
    """Interaction heads, their selection weights, and block dimensions.

    Zero weights are allowed (a head can be trained but ignored during
    selection); the objectives-side UtilitySpec is stricter.
    """

    types: tuple[str, ...] = ("click", "like")
    weights: tuple[float, ...] = (1.0, 0.5)
    d: int = 32
    h: int = 4
    d_x: int = 10
    m: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.types) != len(self.weights) or not self.types:
            raise ConfigError("one selection weight per interaction type required")
        if min(self.d, self.h, self.d_x, self.m) <= 0:
            raise ConfigError("evaluator dims must be positive")
        if self.d % self.h:
            raise ConfigError(f"d={self.d} not divisible by h={self.h}")

    @property
    def head_dim(self) -> int:
        return self.d // self.h

    @property
    def d_ff(self) -> int:
        return 2 * self.d


@dataclass
class SlateScore:
    """Predicted per-item per-type scores plus their weighted sum.

    For one slate scores is (types, m) and utility a float; for a stack of B
    slates scores is (types, B, m) and utility a (B,) array.
    """

    scores: np.ndarray
    utility: float | np.ndarray
    types: tuple[str, ...]
    logits: dict[str, Tensor]


def init_evaluator_params(cfg: EvaluatorConfig) -> Params:
    rng = np.random.default_rng(cfg.seed)
    params = Params()
    params.new_gaussian("ev.embed.w", (cfg.d_x, cfg.d), rng)
    params.new_zeros("ev.embed.b", (cfg.d,))
    params.new_gaussian("ev.pos", (cfg.m, cfg.d), rng)
    _build_layer_norm(params, "ev.ln1", cfg.d)
    _build_attention(params, "ev.attn", cfg.d, rng)
    _build_layer_norm(params, "ev.ln2", cfg.d)
    _build_ffn(params, "ev.ffn", cfg.d, cfg.d_ff, rng)
    _build_layer_norm(params, "ev.final_ln", cfg.d)
    for t in cfg.types:
        params.new_gaussian(f"ev.head.{t}.w", (cfg.d, 1), rng)
        params.new_zeros(f"ev.head.{t}.b", (1,))
    return params


def _slate_indices(slate, req: RequestBatch, cfg: EvaluatorConfig) -> np.ndarray:
    idx = np.asarray(getattr(slate, "indices", slate), dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != cfg.m:
        raise ShapeError(f"expected a slate of {cfg.m} items, got shape {idx.shape}")
    if len(set(idx.tolist())) != cfg.m:
        raise InvalidSlateError("slate repeats an item")
    if idx.min() < 0 or idx.max() >= req.n:
        raise InvalidSlateError(f"slate index out of range for n={req.n}")
    return idx


def _score(feats: np.ndarray, params: Params, cfg: EvaluatorConfig,
           tape: Tape) -> SlateScore:
    """Scores of one slate's (m, d_x) feature rows, or of a (B, m, d_x) stack
    of B slates run through the block side by side on the batch axis.

    A stack gives scores (types, B, m), utility (B,) and (B, m, 1) logits.
    """
    if feats.shape[-1] != cfg.d_x:
        raise ShapeError(f"features {feats.shape} do not match d_x={cfg.d_x}")
    x = tape.linear(Tensor(feats), params["ev.embed.w"], params["ev.embed.b"])
    x = tape.add(x, params["ev.pos"])
    normed = _ln(tape, params, "ev.ln1", x)
    x = tape.add(x, multi_head_attention(tape, params, "ev.attn", normed, normed, cfg))
    x = tape.add(x, _ffn(tape, params, "ev.ffn", _ln(tape, params, "ev.ln2", x)))
    states = _ln(tape, params, "ev.final_ln", x)
    logits: dict[str, Tensor] = {}
    rows = []
    utility = 0.0
    for t, w in zip(cfg.types, cfg.weights):
        z = tape.linear(states, params[f"ev.head.{t}.w"], params[f"ev.head.{t}.b"])
        logits[t] = z
        row = tape.sigmoid(z).data[..., 0]
        rows.append(row)
        utility = utility + w * row.sum(axis=-1)
    return SlateScore(scores=np.stack(rows), utility=utility, types=cfg.types,
                      logits=logits)


def score_slate(req: RequestBatch, slate, params: Params, cfg: EvaluatorConfig,
                tape: Tape | None = None) -> SlateScore:
    """Listwise scores for one slate; `slate` is a SlateSequence or indices."""
    if tape is None:
        tape = Tape(recording=False)
    score = _score(req.features[_slate_indices(slate, req, cfg)], params, cfg, tape)
    score.utility = float(score.utility)
    return score


def score_slates(req: RequestBatch, slates, params: Params, cfg: EvaluatorConfig,
                 tape: Tape | None = None) -> np.ndarray:
    """Predicted utility of each slate, from one evaluator pass over the
    slates stacked on the batch axis.

    A slate's rows can round differently at another place in the stack, so
    repeated slates are scored once and share one utility: equal slates
    always tie exactly.
    """
    if tape is None:
        tape = Tape(recording=False)
    first: dict[tuple[int, ...], int] = {}
    where = [first.setdefault(tuple(_slate_indices(s, req, cfg).tolist()), len(first))
             for s in slates]
    if not first:
        raise EmptyCandidatesError("no slates to choose from")
    feats = req.features[np.array(list(first))]
    return _score(feats, params, cfg, tape).utility[where]


def bce_loss(tape: Tape, score: SlateScore, feedback) -> Tensor:
    """Summed binary cross-entropy of every head against logged feedback,
    computed from logits (softplus(z) - y*z) so saturation cannot overflow.

    For a stack of B slates `feedback` holds one FeedbackMatrix per slate,
    and the loss comes back per slate, as a (B,) vector.
    """
    total = None
    for t in score.types:
        z = score.logits[t]
        if isinstance(feedback, FeedbackMatrix):
            rows = feedback.row(t)
        else:
            rows = [f.row(t) for f in feedback]
        y = np.asarray(rows, dtype=np.float64).reshape(z.data.shape)
        term = tape.sub(tape.sum(tape.softplus(z), axis=(-2, -1)),
                        tape.sum(tape.mask(z, y), axis=(-2, -1)))
        total = term if total is None else tape.add(total, term)
    return total


def train_evaluator(logs: list[ExposureLog], params: Params, cfg: EvaluatorConfig,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    seed: int = 0, loss_log: list | None = None) -> Params:
    """Minibatch Adam on BCE over logged exposures; returns the params.

    Each minibatch's exposed slates go through one evaluator pass, stacked
    on the batch axis, and one backward pass from their summed loss.
    """
    if not logs:
        raise DataError("cannot train the evaluator on an empty log")
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(len(logs))
        for start in range(0, len(order), batch_size):
            batch = [logs[li] for li in order[start:start + batch_size]]
            tape = Tape()
            feats = np.stack([log.request.features[_slate_indices(log.exposed, log.request, cfg)]
                              for log in batch])
            score = _score(feats, params, cfg, tape)
            losses = bce_loss(tape, score, [log.feedback for log in batch])
            tape.backward(tape.sum(losses))
            params.scale_grads(1.0 / len(batch))
            adam_step(params, state)
            if loss_log is not None:
                loss_log.append(float(losses.data.sum()) / len(batch))
    return params


def select_best(req: RequestBatch, slates, params: Params,
                cfg: EvaluatorConfig):
    """Slate with the highest predicted utility; first wins exact ties."""
    slates = list(slates)
    return slates[int(np.argmax(score_slates(req, slates, params, cfg)))]
