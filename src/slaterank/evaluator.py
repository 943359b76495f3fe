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
on one tape, which records the pass up to the heads' logits, stacked as
(B, T, m), and one BCE over all heads; serving adds the sigmoids and the
utility. The loop around it is the generator's and the AR baseline's,
`training._fit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RequestBatch, slate_indices
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


def _head_logits(feats: np.ndarray, params: Params, cfg: EvaluatorConfig,
                 tape: Tape) -> list[Tensor]:
    """Each head's logits, in cfg.types order, for one slate's (m, d_x)
    feature rows as (m, 1), or for a (B, m, d_x) stack of B slates run
    through the block side by side on the batch axis as (B, m, 1)."""
    if feats.shape[-1] != cfg.d_x:
        raise ShapeError(f"features {feats.shape} do not match d_x={cfg.d_x}")
    x = tape.linear(Tensor(feats), params["ev.embed.w"], params["ev.embed.b"])
    x = tape.add(x, params["ev.pos"])
    states = _ln(tape, params, "ev.final_ln", block(tape, params, "ev", x, cfg))
    # each head is its own (d, 1) product, whose bits a joint (d, T) one would not keep
    return [tape.linear(states, params[f"ev.head.{t}.w"], params[f"ev.head.{t}.b"])
            for t in cfg.types]


def _logits(feats: np.ndarray, params: Params, cfg: EvaluatorConfig,
            tape: Tape) -> Tensor:
    """The head logits stacked as rows, (T, m) for one slate and (B, T, m)
    for a stack: row k is head cfg.types[k]. The training pass stops here."""
    return tape.concat_rows([tape.transpose(z)
                             for z in _head_logits(feats, params, cfg, tape)])


def _score(feats: np.ndarray, params: Params, cfg: EvaluatorConfig,
           tape: Tape) -> SlateScore:
    """Scores of one slate's feature rows, or of a stack of B slates: each
    head's sigmoid and their weighted sum. A stack gives scores (types, B,
    m) and utility (B,)."""
    rows = [tape.sigmoid(z).data[..., 0] for z in _head_logits(feats, params, cfg, tape)]
    utility = 0.0
    for row, w in zip(rows, cfg.weights):
        utility = utility + w * np.add.reduce(row, axis=-1)
    return SlateScore(scores=np.array(rows), utility=utility, types=cfg.types)


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
    if len(first) == len(where):  # no repeats: every slate is scored in place
        return _score(req.features[idx], params, cfg, tape).utility
    feats = req.features[np.array(list(first))]
    return _score(feats, params, cfg, tape).utility[where]


def bce_loss(tape: Tape, logits: Tensor, feedback) -> Tensor:
    """Summed binary cross-entropy of every head against logged feedback,
    computed from logits (softplus(z) - y*z) so saturation cannot overflow.

    `logits` are one slate's (T, m) head logits or a stack's (B, T, m), and
    `feedback` the labels of the same shape, their rows in the heads' order.
    One softplus and one mask run over all heads; each head's m terms are
    summed, the label sum taken from the softplus sum, and the heads added
    in order (NumPy's reduce adds fewer than 8 terms left to right): a
    scalar for one slate, a (B,) vector of per-slate losses for a stack.
    """
    y = np.asarray(feedback, dtype=np.float64)
    if y.shape != logits.data.shape:
        raise ShapeError(f"feedback {y.shape} does not match logits {logits.data.shape}")
    per_head = tape.sub(tape.sum(tape.softplus(logits), axis=-1),
                        tape.sum(tape.mask(logits, y), axis=-1))
    return tape.sum(per_head, axis=-1)


def train_evaluator(logs, params: Params, cfg: EvaluatorConfig,
                    lr: float = 1e-3, epochs: int = 1, batch_size: int = 256,
                    seed: int = 0, loss_log: list | None = None) -> Params:
    """Minibatch Adam on BCE over logged exposures, a LogTable or a list of
    ExposureLogs; returns the params.

    The feedback rows are put in the heads' order once for the whole table.
    Each minibatch's exposed feature rows are gathered from the table by one
    index and go through one pass to the head logits, stacked on the batch
    axis, with no sigmoid or utility; `training._fit` checks that every
    slate's loss is finite, naming the request, and backprops their sum once.
    """
    table = _table(logs)
    if table.exposed.shape[1] != cfg.m:
        raise ShapeError(f"logged slates have {table.exposed.shape[1]} items, "
                         f"config m={cfg.m}")
    y = table.feedback[:, [table.types.index(t) for t in cfg.types]]

    def batch_loss(tape, rows):
        feats = table.features[rows[:, None], table.exposed[rows]]
        losses = bce_loss(tape, _logits(feats, params, cfg, tape), y[rows])
        return losses, (losses,)

    return _fit(table, params, batch_loss, lr=lr, epochs=epochs, batch_size=batch_size,
                seed=seed, after_step=_log_mean_loss(loss_log))


def select_best(req: RequestBatch, slates, params: Params,
                cfg: EvaluatorConfig):
    """Slate with the highest predicted utility; first wins exact ties."""
    slates = list(slates)
    return slates[int(np.argmax(score_slates(req, slates, params, cfg)))]
