"""One-shot slate generator.

A candidates encoder (self-attention over the candidate set, no positional
encoding: candidates are a set) and a position encoder (self-attention over
m learned position embeddings, cross-attention into the candidate states)
feed a matching head: logits[i, j] = cand_reps[i] . pos_reps[j], normalized
by a column softmax into a column-stochastic n x m probability matrix.

Both encoders stack L copies of one pre-norm block, written once here and
also used by the AR decoder and the evaluator: x + attention(ln1(x)), then,
with cross-attention, + attention(ln2(x), memory), then + ffn(ln(x)), with a
final layer norm after the stack (`build_block`/`block` for one block,
`build_blocks`/`blocks` for the stack). The self-attention is named `attn`,
or `self` beside a `cross`; the feed-forward's norm is `ln2`, or `ln3` after
the cross-attention's. A cross-attending stack takes its memory already
projected: `cross_memory` runs the memory through each block's `cross.wk`
and `cross.wv` once, and the blocks read those keys and values. The
position encoder projects the candidate states once per forward, the AR
decoder once per request for all of its m passes.

All m position distributions come out of a single forward pass. That is the
property the autoregressive baseline in `ar` deliberately gives up, and the
one the bench harness measures.

Part of that pass is the same for every request. The position encoder's
input, the slot embedding, reads only parameters, and so does its first
block until the cross-attention: ln1, the self-attention among the slots and
its residual sum, then ln2 and the cross-attention's query projection. That
rule belongs to the block: `block` and `blocks` take, in place of a tensor,
a function of parameters alone, and block 0 then takes its head over it
(`_block_head`, the part of a block that reads only its input) from
`Params.memo`. On a serving (non-recording) tape the memo notes which
parameters the head reads and keeps its two tensors while the config and
the bytes of those parameters are unchanged, so an in-place edit of any of
them (Adam, a finite-difference probe) computes them again on the next call;
they are read-only, so no request can change them for the next. A recording
tape never reads the memo and records the whole pass, so training and
gradients take the same path as ever. The AR decoder's start row is kept by
the same rule.

Training runs a whole minibatch through the same pass: a minibatch is a
`data.LogTable`, whose feature rows are stacked on a leading batch axis and
zero-padded to the largest n in the minibatch, and the `valid` mask keeps the
padded rows out of attention and gives them probability exactly 0.
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

    def active(self) -> tuple[np.ndarray, int]:
        """One request's probabilities on its real (non-padded) rows, and
        their count; a (B, n, m) stack is a ShapeError."""
        if self.values.data.ndim != 2:
            raise ShapeError(f"one request's (n, m) matrix wanted, got {self.values.data.shape}")
        n = self.n if self.valid is None else int(np.count_nonzero(self.valid))
        return self.values.data[:n], n


# ---- the pre-norm block, shared by every model ----


def _build_layer_norm(params: Params, prefix: str, d: int) -> None:
    params.new_ones(f"{prefix}.g", (d,))
    params.new_zeros(f"{prefix}.b", (d,))


def _build_attention(params: Params, prefix: str, d: int, rng) -> None:
    for w in ("wq", "wk", "wv", "wo"):
        params.new_gaussian(f"{prefix}.{w}", (d, d), rng)


def build_block(params: Params, prefix: str, cfg, rng, cross: bool = False) -> None:
    """One block's parameters at cfg's width d; the feed-forward is 2d wide."""
    _build_layer_norm(params, f"{prefix}.ln1", cfg.d)
    _build_attention(params, f"{prefix}.{'self' if cross else 'attn'}", cfg.d, rng)
    if cross:
        _build_layer_norm(params, f"{prefix}.ln2", cfg.d)
        _build_attention(params, f"{prefix}.cross", cfg.d, rng)
    _build_layer_norm(params, f"{prefix}.{'ln3' if cross else 'ln2'}", cfg.d)
    params.new_gaussian(f"{prefix}.ffn.w1", (cfg.d, 2 * cfg.d), rng)
    params.new_gaussian(f"{prefix}.ffn.w2", (2 * cfg.d, cfg.d), rng)


def build_blocks(params: Params, prefix: str, cfg, rng, cross: bool = False) -> None:
    """cfg.L blocks named prefix.0 ... prefix.{L-1}, then prefix.final_ln."""
    for layer in range(cfg.L):
        build_block(params, f"{prefix}.{layer}", cfg, rng, cross=cross)
    _build_layer_norm(params, f"{prefix}.final_ln", cfg.d)


def _ln(tape: Tape, params: Params, prefix: str, x: Tensor) -> Tensor:
    return tape.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def cross_memory(tape: Tape, params: Params, prefix: str, memory: Tensor,
                 cfg) -> list[tuple[Tensor, Tensor]]:
    """The keys and values each of the cfg.L blocks prefix.0 ... cross-attends
    into: memory through that block's cross.wk and cross.wv. They read
    nothing but memory and parameters, so a decoder that runs its blocks
    again over the same memory projects it once."""
    return [(tape.linear(memory, params[f"{prefix}.{layer}.cross.wk"]),
             tape.linear(memory, params[f"{prefix}.{layer}.cross.wv"]))
            for layer in range(cfg.L)]


def _attend(tape: Tape, params: Params, prefix: str, q: Tensor, kv: tuple[Tensor, Tensor],
            cfg, key_mask: np.ndarray | None = None, causal: bool = False) -> Tensor:
    """Attention of the projected queries q into the projected keys and
    values kv, the heads' output through prefix.wo."""
    k, v = kv
    heads = tape.attention(q, k, v, cfg.h, key_mask=key_mask, causal=causal)
    return tape.linear(heads, params[f"{prefix}.wo"])


def _block_head(tape: Tape, params: Params, prefix: str, x: Tensor, cfg, *,
                mask: np.ndarray | None = None, causal: bool = False,
                cross: bool = False) -> tuple[Tensor, Tensor | None]:
    """The part of a block that reads x and nothing else: x plus the
    self-attention sublayer, and, with cross, the cross-attention's queries
    projected from ln2 of that sum (None without)."""
    normed = _ln(tape, params, f"{prefix}.ln1", x)
    name = f"{prefix}.{'self' if cross else 'attn'}"
    q = tape.linear(normed, params[f"{name}.wq"])
    kv = tape.linear(normed, params[f"{name}.wk"]), tape.linear(normed, params[f"{name}.wv"])
    x = tape.add(x, _attend(tape, params, name, q, kv, cfg, key_mask=mask, causal=causal))
    if not cross:
        return x, None
    return x, tape.linear(_ln(tape, params, f"{prefix}.ln2", x), params[f"{prefix}.cross.wq"])


def block(tape: Tape, params: Params, prefix: str, x, cfg, *,
          mask: np.ndarray | None = None, causal: bool = False,
          memory: tuple[Tensor, Tensor] | None = None,
          memory_mask: np.ndarray | None = None) -> Tensor:
    """One block over x. `mask` and `causal` restrict the self-attention's
    keys; given `memory`, this block's cross-attention keys and values (one
    entry of `cross_memory`), the block also cross-attends into them, with
    memory_mask over the keys. cfg gives the head count h.

    x is a Tensor, or a function x(tape, params) of parameters alone. Then
    the block's head over it (`_block_head`) reads nothing but parameters,
    and `params.memo` keeps it under prefix.head: a serving tape computes it
    once per parameter state and cfg, a recording tape every time. The key
    holds neither the function nor the masks, so a prefix keeps one of each.
    """
    cross = memory is not None
    if callable(x):
        inputs = x
        x, q = params.memo(f"{prefix}.head", tape, cfg, lambda p: _block_head(
            tape, p, prefix, inputs(tape, p), cfg, mask=mask, causal=causal, cross=cross))
    else:
        x, q = _block_head(tape, params, prefix, x, cfg, mask=mask, causal=causal, cross=cross)
    ffn_ln = "ln2"
    if cross:
        x = tape.add(x, _attend(tape, params, f"{prefix}.cross", q, memory, cfg,
                                key_mask=memory_mask))
        ffn_ln = "ln3"
    hidden = tape.gelu(tape.linear(_ln(tape, params, f"{prefix}.{ffn_ln}", x),
                                   params[f"{prefix}.ffn.w1"]))
    return tape.add(x, tape.linear(hidden, params[f"{prefix}.ffn.w2"]))


def blocks(tape: Tape, params: Params, prefix: str, x, cfg, *,
           memory: list[tuple[Tensor, Tensor]] | None = None, **kwargs) -> Tensor:
    """The cfg.L blocks of build_blocks, then the final layer norm. x is
    block 0's input, a Tensor or a function of parameters alone, as for
    `block`; `memory`, when given, is the list `cross_memory` returns, one
    (keys, values) pair per block."""
    for layer in range(cfg.L):
        x = block(tape, params, f"{prefix}.{layer}", x, cfg,
                  memory=None if memory is None else memory[layer], **kwargs)
    return _ln(tape, params, f"{prefix}.final_ln", x)


# ---- the generator ----


def build_candidate_encoder(params: Params, cfg: GeneratorConfig, rng) -> None:
    """Shared between the one-shot generator and the AR baseline."""
    params.new_gaussian("embed.x.w", (cfg.d_x, cfg.d), rng)
    params.new_zeros("embed.x.b", (cfg.d,))
    build_blocks(params, "cand", cfg, rng)


def init_generator_params(cfg: GeneratorConfig) -> Params:
    rng = np.random.default_rng(cfg.seed)
    params = Params()
    build_candidate_encoder(params, cfg, rng)
    params.new_gaussian("pos.table", (cfg.m, cfg.d_t), rng)
    params.new_gaussian("embed.t.w", (cfg.d_t, cfg.d), rng)
    params.new_zeros("embed.t.b", (cfg.d,))
    build_blocks(params, "pos", cfg, rng, cross=True)
    return params


def encode_candidates(feats, params: Params, cfg: GeneratorConfig, tape: Tape,
                      valid: np.ndarray | None = None) -> Tensor:
    """Project raw features to width d and run L pre-norm blocks.

    feats is (n, d_x), or (B, n, d_x) for a padded minibatch whose valid
    mask, (B, n), keeps padded rows out of every row's attention.
    """
    x = feats if isinstance(feats, Tensor) else Tensor(feats)
    if x.data.ndim not in (2, 3) or x.data.shape[-1] != cfg.d_x:
        raise ShapeError(f"features {x.data.shape} do not match d_x={cfg.d_x}")
    if x.data.shape[-2] == 0:
        raise EmptyCandidatesError("request has no candidates")
    h = tape.linear(x, params["embed.x.w"], params["embed.x.b"])
    return blocks(tape, params, "cand", h, cfg, mask=valid)


def _slots(tape: Tape, params: Params) -> Tensor:
    """The embedded position table, (m, d): parameters only."""
    return tape.linear(params["pos.table"], params["embed.t.w"], params["embed.t.b"])


def encode_positions(params: Params, cand_hidden: Tensor, cfg: GeneratorConfig,
                     tape: Tape, valid: np.ndarray | None = None) -> Tensor:
    """L pre-norm blocks over the m learned position slots: self-attention
    among the slots, cross-attention into the candidate states.

    The slots start shared, (m, d); the first cross-attention into a
    (B, n, d) batch of candidate states gives every request its own. The
    slot embedding (`pos.table` through `embed.t`) reads parameters only, so
    the blocks take it as a function and block 0 keeps its head over it,
    the slots after the self-attention sublayer and their cross-attention
    queries, once per parameter state on a serving tape (see `block`).
    """
    if cand_hidden.data.shape[-1] != cfg.d:
        raise ShapeError("candidate hidden width does not match config d")
    return blocks(tape, params, "pos", _slots, cfg,
                  memory=cross_memory(tape, params, "pos", cand_hidden, cfg),
                  memory_mask=valid)


def matching_head(cand_reps: Tensor, pos_reps: Tensor, tape: Tape,
                  valid: np.ndarray | None = None) -> ProbMatrix:
    """Dot-product logits, column softmax. Padded rows get probability 0."""
    logits = tape.matmul(cand_reps, tape.transpose(pos_reps))
    values = tape.softmax_columns(logits, valid_rows=valid)
    return ProbMatrix(values=values, candidate_reps=cand_reps,
                      position_reps=pos_reps, valid=valid)


def _stack_requests(req, cfg: GeneratorConfig,
                    pad_to: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Feature rows of a LogTable, (B, width, d_x), or of one RequestBatch,
    (n, d_x), zero-padded to the largest n among the requests, or to pad_to.
    `valid` marks the real rows, (B, width) or (n,), and is None when nothing
    was padded. Both the one-shot generator and the AR baseline take their
    minibatches from here. One request goes through as a table of one and is
    squeezed on return; with nothing to pad it reads its features in place.
    """
    single = isinstance(req, RequestBatch)
    feats = req.features[None] if single else req.features
    ns = [req.n] if single else req.n.tolist()
    if not ns:
        raise EmptyCandidatesError("no requests to rank")
    if min(ns) == 0:
        raise EmptyCandidatesError("request has no candidates")
    if max(ns) > cfg.n_max:
        raise ShapeError(f"n={max(ns)} exceeds n_max={cfg.n_max}")
    width = max(ns) if pad_to is None else pad_to
    if width < max(ns) or width > cfg.n_max:
        raise ShapeError(f"pad_to={pad_to} out of range for n={max(ns)}")
    if feats.shape[-1] != cfg.d_x:
        raise ShapeError(f"features {req.features.shape} do not match d_x={cfg.d_x}")
    valid = None
    if min(ns) < width:
        valid = np.arange(width) < np.array(ns)[:, None]
    feats = feats[:, :width]
    if feats.shape[1] < width:
        feats = np.pad(feats, ((0, 0), (0, width - feats.shape[1]), (0, 0)))
    if single:
        return np.ascontiguousarray(feats[0]), None if valid is None else valid[0]
    return feats, valid


def forward(req, params: Params, cfg: GeneratorConfig,
            tape: Tape | None = None, pad_to: int | None = None) -> ProbMatrix:
    """One pass: all m position distributions at once.

    `req` is one RequestBatch, giving an (n, m) matrix, or a LogTable,
    giving a (B, n, m) stack for a minibatch. Feature rows are zero-padded
    to the largest n among the requests, or to pad_to, and masked so padded
    candidates end up with probability exactly 0; `valid` marks the real
    rows and is None when nothing was padded.
    """
    if tape is None:
        tape = Tape(recording=False)
    feats, valid = _stack_requests(req, cfg, pad_to)
    tape.forwards += 1
    cand = encode_candidates(feats, params, cfg, tape, valid=valid)
    pos = encode_positions(params, cand, cfg, tape, valid=valid)
    return matching_head(cand, pos, tape, valid=valid)
