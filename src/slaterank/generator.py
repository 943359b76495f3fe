"""One-shot slate generator.

A candidates encoder (self-attention over the candidate set, no positional
encoding: candidates are a set) and a position encoder (self-attention over
m learned position embeddings, cross-attention into the candidate states)
feed a matching head: logits[i, j] = cand_reps[i] . pos_reps[j], normalized
by a column softmax into a column-stochastic n x m probability matrix.

All m position distributions come out of a single forward pass. That is the
property the autoregressive baseline in `ar` deliberately gives up, and the
one the bench harness measures.

Training runs a whole minibatch through the same pass: the requests' feature
rows are stacked on a leading batch axis, zero-padded to the largest n in the
minibatch, and the `valid` mask keeps the padded rows out of attention and
gives them probability exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RequestBatch
from .errors import ConfigError, EmptyCandidatesError, ShapeError
from .numerics import Params, Tape, Tensor

__all__ = [
    "GeneratorConfig",
    "ProbMatrix",
    "FORWARD_PASSES",
    "init_generator_params",
    "encode_candidates",
    "encode_positions",
    "matching_head",
    "forward",
]


@dataclass(frozen=True)
class GeneratorConfig:
    n_max: int = 20
    m: int = 6
    d: int = 32
    h: int = 4
    L: int = 2
    d_x: int = 10
    d_t: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("n_max", "m", "d", "h", "L", "d_x", "d_t"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d % self.h != 0:
            raise ConfigError(f"d={self.d} not divisible by h={self.h}")
        if self.m > self.n_max:
            raise ConfigError(f"m={self.m} exceeds n_max={self.n_max}")

    @property
    def head_dim(self) -> int:
        return self.d // self.h

    @property
    def d_ff(self) -> int:
        return 2 * self.d


class ForwardCounter:
    """Counts whole-model forward passes so AR-vs-NAR cost is checkable
    structurally, not just by wall clock."""

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1

    def reset(self):
        self.count = 0


FORWARD_PASSES = ForwardCounter()


@dataclass
class ProbMatrix:
    """Column-stochastic candidate-at-position probabilities plus the hidden
    representations the decoder's similarity penalty reads.

    For a minibatch every field gains a leading batch axis: values is
    (B, n, m) and valid, when rows were padded, (B, n).
    """

    values: Tensor
    candidate_reps: Tensor
    position_reps: Tensor
    valid: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.values.data.shape[-2]

    @property
    def m(self) -> int:
        return self.values.data.shape[-1]


# ---- parameter construction ----


def _build_attention(params: Params, prefix: str, d: int, rng) -> None:
    for w in ("wq", "wk", "wv", "wo"):
        params.new_gaussian(f"{prefix}.{w}", (d, d), rng)


def _build_layer_norm(params: Params, prefix: str, d: int) -> None:
    params.new_ones(f"{prefix}.g", (d,))
    params.new_zeros(f"{prefix}.b", (d,))


def _build_ffn(params: Params, prefix: str, d: int, d_ff: int, rng) -> None:
    params.new_gaussian(f"{prefix}.w1", (d, d_ff), rng)
    params.new_gaussian(f"{prefix}.w2", (d_ff, d), rng)


def build_candidate_encoder(params: Params, cfg: GeneratorConfig, rng) -> None:
    """Shared between the one-shot generator and the AR baseline."""
    params.new_gaussian("embed.x.w", (cfg.d_x, cfg.d), rng)
    params.new_zeros("embed.x.b", (cfg.d,))
    for layer in range(cfg.L):
        p = f"cand.{layer}"
        _build_layer_norm(params, f"{p}.ln1", cfg.d)
        _build_attention(params, f"{p}.attn", cfg.d, rng)
        _build_layer_norm(params, f"{p}.ln2", cfg.d)
        _build_ffn(params, f"{p}.ffn", cfg.d, cfg.d_ff, rng)
    _build_layer_norm(params, "cand.final_ln", cfg.d)


def init_generator_params(cfg: GeneratorConfig) -> Params:
    rng = np.random.default_rng(cfg.seed)
    params = Params()
    build_candidate_encoder(params, cfg, rng)
    params.new_gaussian("pos.table", (cfg.m, cfg.d_t), rng)
    params.new_gaussian("embed.t.w", (cfg.d_t, cfg.d), rng)
    params.new_zeros("embed.t.b", (cfg.d,))
    for layer in range(cfg.L):
        p = f"pos.{layer}"
        _build_layer_norm(params, f"{p}.ln1", cfg.d)
        _build_attention(params, f"{p}.self", cfg.d, rng)
        _build_layer_norm(params, f"{p}.ln2", cfg.d)
        _build_attention(params, f"{p}.cross", cfg.d, rng)
        _build_layer_norm(params, f"{p}.ln3", cfg.d)
        _build_ffn(params, f"{p}.ffn", cfg.d, cfg.d_ff, rng)
    _build_layer_norm(params, "pos.final_ln", cfg.d)
    return params


# ---- forward blocks ----


def multi_head_attention(tape: Tape, params: Params, prefix: str, q_in: Tensor,
                         kv_in: Tensor, cfg: GeneratorConfig,
                         key_mask: np.ndarray | None = None,
                         causal: bool = False) -> Tensor:
    q = tape.linear(q_in, params[f"{prefix}.wq"])
    k = tape.linear(kv_in, params[f"{prefix}.wk"])
    v = tape.linear(kv_in, params[f"{prefix}.wv"])
    heads = tape.attention(q, k, v, cfg.h, key_mask=key_mask, causal=causal)
    return tape.linear(heads, params[f"{prefix}.wo"])


def _ln(tape: Tape, params: Params, prefix: str, x: Tensor) -> Tensor:
    return tape.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _ffn(tape: Tape, params: Params, prefix: str, x: Tensor) -> Tensor:
    hidden = tape.gelu(tape.linear(x, params[f"{prefix}.w1"]))
    return tape.linear(hidden, params[f"{prefix}.w2"])


def encode_candidates(feats, params: Params, cfg: GeneratorConfig, tape: Tape,
                      valid: np.ndarray | None = None) -> Tensor:
    """Project raw features to width d and run L pre-norm transformer layers.

    feats is (n, d_x), or (B, n, d_x) for a padded minibatch whose valid
    mask, (B, n), keeps padded rows out of every row's attention.
    """
    x = feats if isinstance(feats, Tensor) else Tensor(feats)
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != cfg.d_x:
        raise ShapeError(f"features {x.data.shape} do not match d_x={cfg.d_x}")
    if x.data.shape[-2] == 0:
        raise EmptyCandidatesError("request has no candidates")
    h = tape.linear(x, params["embed.x.w"], params["embed.x.b"])
    for layer in range(cfg.L):
        p = f"cand.{layer}"
        normed = _ln(tape, params, f"{p}.ln1", h)
        h = tape.add(h, multi_head_attention(tape, params, f"{p}.attn",
                                             normed, normed, cfg, key_mask=valid))
        h = tape.add(h, _ffn(tape, params, f"{p}.ffn", _ln(tape, params, f"{p}.ln2", h)))
    return _ln(tape, params, "cand.final_ln", h)


def encode_positions(params: Params, cand_hidden: Tensor, cfg: GeneratorConfig,
                     tape: Tape, valid: np.ndarray | None = None) -> Tensor:
    """Self-attention over the m learned position slots, cross-attention into
    the candidate states, then feed-forward; per layer, pre-norm.

    The slots start shared, (m, d); the first cross-attention into a
    (B, n, d) batch of candidate states gives every request its own.
    """
    if cand_hidden.data.shape[-1] != cfg.d:
        raise ShapeError("candidate hidden width does not match config d")
    t = tape.linear(params["pos.table"], params["embed.t.w"], params["embed.t.b"])
    for layer in range(cfg.L):
        p = f"pos.{layer}"
        normed = _ln(tape, params, f"{p}.ln1", t)
        t = tape.add(t, multi_head_attention(tape, params, f"{p}.self",
                                             normed, normed, cfg))
        t = tape.add(t, multi_head_attention(tape, params, f"{p}.cross",
                                             _ln(tape, params, f"{p}.ln2", t),
                                             cand_hidden, cfg, key_mask=valid))
        t = tape.add(t, _ffn(tape, params, f"{p}.ffn", _ln(tape, params, f"{p}.ln3", t)))
    return _ln(tape, params, "pos.final_ln", t)


def matching_head(cand_reps: Tensor, pos_reps: Tensor, tape: Tape,
                  valid: np.ndarray | None = None) -> ProbMatrix:
    """Dot-product logits, column softmax. Padded rows get probability 0."""
    logits = tape.matmul(cand_reps, tape.transpose(pos_reps))
    values = tape.softmax_columns(logits, valid_rows=valid)
    return ProbMatrix(values=values, candidate_reps=cand_reps,
                      position_reps=pos_reps, valid=valid)


def _stack_requests(req, cfg: GeneratorConfig,
                    pad_to: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Feature rows of one RequestBatch, (n, d_x), or of a sequence of them,
    stacked to (B, width, d_x) and zero-padded to the largest n among them,
    or to pad_to. `valid` marks the real rows, (n,) or (B, width), and is
    None when nothing was padded. Both the one-shot generator and the AR
    baseline take their minibatches from here.
    """
    single = isinstance(req, RequestBatch)
    reqs = [req] if single else list(req)
    if not reqs:
        raise EmptyCandidatesError("no requests to rank")
    ns = [r.features.shape[0] for r in reqs]
    if min(ns) == 0:
        raise EmptyCandidatesError("request has no candidates")
    if max(ns) > cfg.n_max:
        raise ShapeError(f"n={max(ns)} exceeds n_max={cfg.n_max}")
    width = max(ns) if pad_to is None else pad_to
    if width < max(ns) or width > cfg.n_max:
        raise ShapeError(f"pad_to={pad_to} out of range for n={max(ns)}")
    for r in reqs:
        if r.features.shape[1] != cfg.d_x:
            raise ShapeError(f"features {r.features.shape} do not match d_x={cfg.d_x}")
    valid = None
    if min(ns) < width:
        valid = np.arange(width) < np.array(ns)[:, None]
    if single and valid is None:
        # nothing to pad: a one-request pass reads the features in place
        return np.ascontiguousarray(req.features, dtype=np.float64), None
    feats = np.zeros((len(reqs), width, cfg.d_x))
    for b, r in enumerate(reqs):
        feats[b, :r.features.shape[0]] = r.features
    if single:
        return feats[0], valid[0]
    return feats, valid


def forward(req, params: Params, cfg: GeneratorConfig,
            tape: Tape | None = None, pad_to: int | None = None) -> ProbMatrix:
    """One pass: all m position distributions at once.

    `req` is one RequestBatch, giving an (n, m) matrix, or a sequence of
    them, giving a (B, n, m) stack for a minibatch. Feature rows are
    zero-padded to the largest n among the requests, or to pad_to, and
    masked so padded candidates end up with probability exactly 0; `valid`
    marks the real rows and is None when nothing was padded.
    """
    if tape is None:
        tape = Tape(recording=False)
    feats, valid = _stack_requests(req, cfg, pad_to)
    FORWARD_PASSES.bump()
    cand = encode_candidates(feats, params, cfg, tape, valid=valid)
    pos = encode_positions(params, cand, cfg, tape, valid=valid)
    return matching_head(cand, pos, tape, valid=valid)
