"""Listwise slate evaluator.

Scores a proposed slate as a whole: the chosen items' features, in slate
order, run through one self-attention + feed-forward block, then per-item
sigmoid heads predict each interaction type. Order enters through learned
position embeddings added to the item features. The overall utility is the
weighted sum of predicted scores, and `select_best` picks the highest-utility
slate from a candidate pool.

`score_slates` scores a whole pool in one pass: the K slates' rows are stacked
into one (K*m, d) matrix, and a block-diagonal attention mask keeps each slate
attending to its own items only. `score_slate` is the K = 1 case, with no mask,
and training goes through it one slate at a time.

Training is plain off-policy regression: binary cross-entropy of each head
against the logged feedback on exposed slates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExposureLog, RequestBatch
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
    """Predicted per-item per-type scores plus their weighted sum."""

    scores: np.ndarray
    utility: float
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


def _score_stack(req: RequestBatch, idx: np.ndarray, params: Params,
                 cfg: EvaluatorConfig, tape: Tape
                 ) -> tuple[dict[str, Tensor], np.ndarray, np.ndarray]:
    """Logits, per-type probabilities (types, K, m) and utilities (K,) of
    the K slates in the rows of `idx`, run through the block as one stacked
    (K*m, d) matrix.

    Each slate's rows get the position embeddings, and a block-diagonal key
    mask keeps every row attending within its own slate only. With K = 1
    there is no mask, so a single slate takes exactly the unstacked path.
    """
    k = idx.shape[0]
    feats = req.features[idx.ravel()]
    if feats.shape[1] != cfg.d_x:
        raise ShapeError(f"features {feats.shape} do not match d_x={cfg.d_x}")
    pos = params["ev.pos"]
    key_mask = None
    if k > 1:
        pos = tape.concat_rows([pos] * k)
        key_mask = np.kron(np.eye(k, dtype=bool), np.ones((cfg.m, cfg.m), dtype=bool))
    x = tape.linear(Tensor(feats), params["ev.embed.w"], params["ev.embed.b"])
    x = tape.add(x, pos)
    normed = _ln(tape, params, "ev.ln1", x)
    x = tape.add(x, multi_head_attention(tape, params, "ev.attn", normed, normed, cfg,
                                         key_mask=key_mask))
    x = tape.add(x, _ffn(tape, params, "ev.ffn", _ln(tape, params, "ev.ln2", x)))
    states = _ln(tape, params, "ev.final_ln", x)
    logits: dict[str, Tensor] = {}
    rows = []
    utility = np.zeros(k)
    for t, w in zip(cfg.types, cfg.weights):
        z = tape.linear(states, params[f"ev.head.{t}.w"], params[f"ev.head.{t}.b"])
        logits[t] = z
        row = tape.sigmoid(z).data[:, 0].reshape(k, cfg.m)
        rows.append(row)
        utility += w * row.sum(axis=1)
    return logits, np.stack(rows), utility


def score_slate(req: RequestBatch, slate, params: Params, cfg: EvaluatorConfig,
                tape: Tape | None = None) -> SlateScore:
    """Listwise scores for one slate; `slate` is a SlateSequence or indices."""
    if tape is None:
        tape = Tape(recording=False)
    idx = _slate_indices(slate, req, cfg)[None]
    logits, scores, utility = _score_stack(req, idx, params, cfg, tape)
    return SlateScore(scores=scores[:, 0], utility=float(utility[0]), types=cfg.types,
                      logits=logits)


def score_slates(req: RequestBatch, slates, params: Params, cfg: EvaluatorConfig,
                 tape: Tape | None = None) -> np.ndarray:
    """Predicted utility of each slate, from one stacked evaluator pass.

    A slate's rows can round differently at another offset in the stack, so
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
    return _score_stack(req, np.array(list(first)), params, cfg, tape)[2][where]


def bce_loss(tape: Tape, score: SlateScore, feedback) -> Tensor:
    """Summed binary cross-entropy of every head against logged feedback,
    computed from logits (softplus(z) - y*z) so saturation cannot overflow."""
    total = None
    for t in score.types:
        z = score.logits[t]
        y = np.asarray(feedback.row(t), dtype=np.float64).reshape(z.data.shape)
        term = tape.sub(tape.sum(tape.softplus(z)), tape.sum(tape.mask(z, y)))
        total = term if total is None else tape.add(total, term)
    return total


def train_evaluator(logs: list[ExposureLog], params: Params, cfg: EvaluatorConfig,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    seed: int = 0, loss_log: list | None = None) -> Params:
    """Minibatch Adam on BCE over logged exposures; returns the params."""
    if not logs:
        raise DataError("cannot train the evaluator on an empty log")
    state = AdamState(lr=lr)
    rng = np.random.default_rng(seed)
    for epoch in range(epochs):
        order = rng.permutation(len(logs))
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            running = 0.0
            for li in batch:
                log = logs[li]
                tape = Tape()
                score = score_slate(log.request, log.exposed, params, cfg, tape)
                loss = bce_loss(tape, score, log.feedback)
                tape.backward(loss)
                running += loss.item()
            params.scale_grads(1.0 / len(batch))
            adam_step(params, state)
            if loss_log is not None:
                loss_log.append(running / len(batch))
    return params


def select_best(req: RequestBatch, slates, params: Params,
                cfg: EvaluatorConfig):
    """Slate with the highest predicted utility; first wins exact ties."""
    slates = list(slates)
    return slates[int(np.argmax(score_slates(req, slates, params, cfg)))]
