"""Listwise slate evaluator.

Scores a proposed slate as a whole: the chosen items' features, in slate
order, run through one pre-norm self-attention + feed-forward block (the
same `generator.block` the generator and the AR baseline stack), then per-item
sigmoid heads predict each interaction type. Order enters through learned
position embeddings added to the item features. The overall utility is the
weighted sum of predicted scores, and `select_best` picks the highest-utility
slate from a candidate pool.

The block takes an optional leading batch axis: `score_slate` runs one
slate's (m, d) rows, while `score_slates` scores a whole pool in one pass with
the K slates stacked as (K, m, d), each attending to its own items only.
Slates are checked by the one slate rule, `data.slate_indices`: a pool, or a
training minibatch's exposed slates, in one call.

Training is plain off-policy regression: binary cross-entropy of each head
against the logged feedback on exposed slates. It runs on a `data.LogTable`,
whose slates were checked when it was built: a minibatch of B exposed slates
is gathered from the table's features by one index into one (B, m, d) stack
on one tape, and the loop around it is the generator's and the AR
baseline's, `training._fit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeedbackMatrix, RequestBatch, slate_indices
from .errors import ConfigError, ShapeError
from .generator import _build_layer_norm, _ln, block, build_block
from .numerics import Params, Tape, Tensor
from .training import _fit, _log_mean_loss, _table


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
    build_block(params, "ev", cfg, rng)
    _build_layer_norm(params, "ev.final_ln", cfg.d)
    for t in cfg.types:
        params.new_gaussian(f"ev.head.{t}.w", (cfg.d, 1), rng)
        params.new_zeros(f"ev.head.{t}.b", (1,))
    return params


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
    states = _ln(tape, params, "ev.final_ln", block(tape, params, "ev", x, cfg))
    logits: dict[str, Tensor] = {}
    rows = []
    utility = 0.0
    for t, w in zip(cfg.types, cfg.weights):
        z = tape.linear(states, params[f"ev.head.{t}.w"], params[f"ev.head.{t}.b"])
        logits[t] = z
        row = tape.sigmoid(z).data[..., 0]
        rows.append(row)
        utility = utility + w * np.add.reduce(row, axis=-1)
    return SlateScore(scores=np.array(rows), utility=utility, types=cfg.types,
                      logits=logits)


def score_slate(req: RequestBatch, slate, params: Params, cfg: EvaluatorConfig,
                tape: Tape | None = None) -> SlateScore:
    """Listwise scores for one slate; `slate` is a SlateSequence or indices."""
    if tape is None:
        tape = Tape(recording=False)
    score = _score(req.features[slate_indices([slate], req.n, cfg.m)[0]], params, cfg, tape)
    score.utility = float(score.utility)
    return score


def score_slates(req: RequestBatch, slates, params: Params, cfg: EvaluatorConfig,
                 tape: Tape | None = None) -> np.ndarray:
    """Predicted utility of each slate, from one evaluator pass over the
    slates stacked on the batch axis. The pool is checked as a whole by
    `slate_indices`.

    A slate's rows can round differently at another place in the stack, so
    repeated slates are scored once and share one utility: equal slates
    always tie exactly.
    """
    if tape is None:
        tape = Tape(recording=False)
    idx = slate_indices(slates, req.n, cfg.m)
    first: dict[tuple[int, ...], int] = {}
    where = [first.setdefault(tuple(row), len(first)) for row in idx.tolist()]
    feats = req.features[np.array(list(first))]
    return _score(feats, params, cfg, tape).utility[where]


def bce_loss(tape: Tape, score: SlateScore, feedback) -> Tensor:
    """Summed binary cross-entropy of every head against logged feedback,
    computed from logits (softplus(z) - y*z) so saturation cannot overflow.

    For one slate `feedback` is its FeedbackMatrix. For a stack of B slates
    it is a (B, T, m) array with its rows in `score.types` order, as
    `train_evaluator` gathers it from a LogTable, and the loss comes back
    per slate, as a (B,) vector.
    """
    total = None
    for k, t in enumerate(score.types):
        z = score.logits[t]
        rows = feedback.row(t) if isinstance(feedback, FeedbackMatrix) else feedback[:, k]
        y = np.asarray(rows, dtype=np.float64).reshape(z.data.shape)
        term = tape.sub(tape.sum(tape.softplus(z), axis=(-2, -1)),
                        tape.sum(tape.mask(z, y), axis=(-2, -1)))
        total = term if total is None else tape.add(total, term)
    return total


def train_evaluator(logs, params: Params, cfg: EvaluatorConfig,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    seed: int = 0, loss_log: list | None = None) -> Params:
    """Minibatch Adam on BCE over logged exposures, a LogTable or a list of
    ExposureLogs; returns the params.

    The feedback rows are put in the heads' order once for the whole table.
    Each minibatch's exposed feature rows are gathered from the table by one
    index and go through one evaluator pass, stacked on the batch axis;
    `training._fit` checks that every slate's loss is finite, naming the
    request, and backprops their sum once.
    """
    table = _table(logs)
    if table.exposed.shape[1] != cfg.m:
        raise ShapeError(f"logged slates have {table.exposed.shape[1]} items, "
                         f"config m={cfg.m}")
    y = table.feedback[:, [table.types.index(t) for t in cfg.types]]

    def batch_loss(tape, rows):
        feats = table.features[rows[:, None], table.exposed[rows]]
        losses = bce_loss(tape, _score(feats, params, cfg, tape), y[rows])
        return losses, (losses,)

    return _fit(table, params, batch_loss, lr=lr, epochs=epochs, batch_size=batch_size,
                seed=seed, after_step=_log_mean_loss(loss_log))


def select_best(req: RequestBatch, slates, params: Params,
                cfg: EvaluatorConfig):
    """Slate with the highest predicted utility; first wins exact ties."""
    slates = list(slates)
    return slates[int(np.argmax(score_slates(req, slates, params, cfg)))]
