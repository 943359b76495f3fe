"""Listwise slate evaluator.

Scores a proposed slate as a whole: the chosen items' features, in slate
order, run through one pre-norm self-attention + feed-forward block (the
same `generator.block` the generator and the AR baseline stack), then per-item
sigmoid heads predict each interaction type. Order enters through learned
position embeddings added to the item features. The overall utility is the
weighted sum of predicted scores (`objectives.weighted_sum`), and
`select_best` picks the highest-utility slate from a candidate pool.

`score_slates` scores a pool in one pass with the K slates stacked as
(K, m, d) on the block's batch axis, each attending to its own items only; a
slate gets the same bits at any place in any pool, and `score_slate` is the
pass on a pool of one. Slates are
checked by the one slate rule, `data.slate_indices`: a pool, or a training
minibatch's exposed slates.

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
from .objectives import weighted_sum
from .training import _fit, _table


@dataclass(frozen=True)
class EvaluatorConfig:
    """Interaction heads, their selection weights, and block dimensions.

    Zero weights are allowed (a head can be trained but ignored during
    selection); the objectives-side UtilitySpec is stricter. A run config
    fills `d_x` and `m` from its generator section, and `types` and
    `weights` from its utility section.
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
        if len(set(self.types)) != len(self.types):
            raise ConfigError(f"evaluator.types repeats an interaction type: {self.types}")
        if not np.isfinite(self.weights).all():
            raise ConfigError(f"evaluator.weights must be finite, got {self.weights}")
        if min(self.d, self.h, self.d_x, self.m) <= 0:
            raise ConfigError("evaluator dims must be positive")
        if self.d % self.h:
            raise ConfigError(f"d={self.d} not divisible by h={self.h}")


@dataclass
class SlateScore:
    """One slate's predicted per-type per-item scores, (types, m), plus
    their weighted sum."""

    scores: np.ndarray
    utility: float


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


def _logits(feats: np.ndarray, params: Params, cfg: EvaluatorConfig,
            tape: Tape) -> Tensor:
    """The head logits of one slate's (m, d_x) feature rows as (T, m), or of
    a (B, m, d_x) stack of B slates, run through the block side by side on
    the batch axis, as (B, T, m): row k is head cfg.types[k]. The training
    pass stops here.

    The heads run as one product, their weights and biases joined on the
    tape. A serving tape multiplies each slate of a stack on its own, so a
    slate's logits do not depend on the stack it is in."""
    if feats.shape[-1] != cfg.d_x:
        raise ShapeError(f"features {feats.shape} do not match d_x={cfg.d_x}")
    x = tape.linear(Tensor(feats), params["ev.embed.w"], params["ev.embed.b"])
    x = tape.add(x, params["ev.pos"])
    states = _ln(tape, params, "ev.final_ln", block(tape, params, "ev", x, cfg))
    w = tape.concat_rows([params[f"ev.head.{t}.w"] for t in cfg.types], axis=-1)
    b = tape.concat_rows([params[f"ev.head.{t}.b"] for t in cfg.types], axis=-1)
    return tape.transpose(tape.linear(states, w, b))


def _score(req: RequestBatch, slates, params: Params,
           cfg: EvaluatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """One evaluator pass over a pool of K slates stacked on the batch axis,
    checked as a whole by `slate_indices`: each head's sigmoid scores as
    (K, T, m), and their weighted sum per slate as (K,)."""
    tape = Tape(recording=False)
    feats = req.features[slate_indices(slates, req.n, cfg.m)]
    scores = tape.sigmoid(_logits(feats, params, cfg, tape)).data
    return scores, weighted_sum(scores, cfg.weights)


def score_slate(req: RequestBatch, slate, params: Params, cfg: EvaluatorConfig) -> SlateScore:
    """Listwise scores for one slate, a SlateSequence or indices: the pass of
    `score_slates` on a pool of one."""
    scores, utility = _score(req, [slate], params, cfg)
    return SlateScore(scores=scores[0], utility=float(utility[0]))


def score_slates(req: RequestBatch, slates, params: Params, cfg: EvaluatorConfig) -> np.ndarray:
    """Predicted utility of each slate, from one evaluator pass over the
    slates stacked on the batch axis. A slate gets the same bits at any
    place in any pool, so equal slates tie exactly and each utility equals
    the slate's own `score_slate`."""
    return _score(req, slates, params, cfg)[1]


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

    The feedback rows are put in the heads' order once for the whole table;
    a table that lacks one of the heads' types is a ConfigError naming them,
    and logged types that no head predicts are left out.
    Each minibatch's exposed feature rows are gathered from the table by one
    index and go through one pass to the head logits, stacked on the batch
    axis, with no sigmoid or utility; `training._fit` checks that every
    slate's loss is finite, naming the request, and backprops their sum once.
    """
    table = _table(logs, cfg.m)
    missing = [t for t in cfg.types if t not in table.types]
    if missing:
        raise ConfigError(f"logged interaction types {table.types} lack head "
                          f"types {missing}")
    y = table.feedback[:, [table.types.index(t) for t in cfg.types]]

    def batch_loss(tape, rows):
        feats = table.features[rows[:, None], table.exposed[rows]]
        return bce_loss(tape, _logits(feats, params, cfg, tape), y[rows]), None

    return _fit(table, params, batch_loss, lr=lr, epochs=epochs, batch_size=batch_size,
                seed=seed, loss_log=loss_log)


def select_best(req: RequestBatch, slates, params: Params,
                cfg: EvaluatorConfig):
    """Slate with the highest predicted utility; first wins exact ties."""
    slates = list(slates)
    return slates[int(np.argmax(score_slates(req, slates, params, cfg)))]
