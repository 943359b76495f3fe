"""Autoregressive pointer baseline.

Same candidate encoder as the one-shot generator (built by the same
function, so the two differ only in how positions are filled): a causal
decoder consumes a start row plus the already-chosen items and points back
into the candidate states for the next pick. Training is teacher-forced in
a single pass with a causal mask; inference re-runs the whole model once
per position, which is exactly the sequential cost the benchmark contrasts
against the one-pass generator.
"""

from __future__ import annotations

import numpy as np

from .data import RequestBatch
from .decoding import SlateSequence
from .errors import InfeasibleSlateError, InvalidSlateError, ShapeError
from .generator import (
    FORWARD_PASSES,
    GeneratorConfig,
    _build_attention,
    _build_ffn,
    _build_layer_norm,
    _ffn,
    _ln,
    build_candidate_encoder,
    encode_candidates,
    multi_head_attention,
)
from .numerics import Params, Tape, Tensor


def init_ar_params(cfg: GeneratorConfig) -> Params:
    rng = np.random.default_rng(cfg.seed)
    params = Params()
    build_candidate_encoder(params, cfg, rng)
    params.new_gaussian("dec.bos", (1, cfg.d), rng)
    params.new_gaussian("dec.pos", (cfg.m, cfg.d), rng)
    params.new_gaussian("dec.in.w", (cfg.d, cfg.d), rng)
    params.new_zeros("dec.in.b", (cfg.d,))
    for layer in range(cfg.L):
        p = f"dec.{layer}"
        _build_layer_norm(params, f"{p}.ln1", cfg.d)
        _build_attention(params, f"{p}.self", cfg.d, rng)
        _build_layer_norm(params, f"{p}.ln2", cfg.d)
        _build_attention(params, f"{p}.cross", cfg.d, rng)
        _build_layer_norm(params, f"{p}.ln3", cfg.d)
        _build_ffn(params, f"{p}.ffn", cfg.d, cfg.d_ff, rng)
    _build_layer_norm(params, "dec.final_ln", cfg.d)
    return params


def _decoder_rows(tape: Tape, params: Params, cand_hidden: Tensor,
                  prefix: tuple[int, ...]) -> Tensor:
    """Input rows: [bos, chosen_1, ..., chosen_k] plus position embeddings."""
    rows = [params["dec.bos"]]
    for i in prefix:
        item = tape.slice_rows(cand_hidden, i, i + 1)
        rows.append(tape.linear(item, params["dec.in.w"], params["dec.in.b"]))
    x = rows[0] if len(rows) == 1 else tape.concat_rows(rows)
    return tape.add(x, tape.slice_rows(params["dec.pos"], 0, len(rows)))


def ar_forward(req: RequestBatch, params: Params, cfg: GeneratorConfig,
               prefix: tuple[int, ...] = (), tape: Tape | None = None) -> Tensor:
    """One full model pass: encode candidates, decode len(prefix)+1 rows,
    return row-stochastic pointer probabilities (len(prefix)+1) x n.

    Row t is the next-item distribution given prefix[:t]; entries for
    already-chosen candidates are exactly 0.
    """
    if tape is None:
        tape = Tape(recording=False)
    n = req.n
    if n > cfg.n_max:
        raise ShapeError(f"n={n} exceeds n_max={cfg.n_max}")
    k = len(prefix) + 1
    if k > cfg.m:
        raise ShapeError(f"prefix of {len(prefix)} items overruns m={cfg.m}")
    if len(set(prefix)) != len(prefix):
        raise InvalidSlateError(f"prefix repeats an item: {prefix}")
    if any(i < 0 or i >= n for i in prefix):
        raise InvalidSlateError("prefix index out of range")
    FORWARD_PASSES.bump()
    cand = encode_candidates(req.features, params, cfg, tape)
    x = _decoder_rows(tape, params, cand, tuple(prefix))
    for layer in range(cfg.L):
        p = f"dec.{layer}"
        normed = _ln(tape, params, f"{p}.ln1", x)
        x = tape.add(x, multi_head_attention(tape, params, f"{p}.self",
                                             normed, normed, cfg, causal=True))
        x = tape.add(x, multi_head_attention(tape, params, f"{p}.cross",
                                             _ln(tape, params, f"{p}.ln2", x),
                                             cand, cfg))
        x = tape.add(x, _ffn(tape, params, f"{p}.ffn", _ln(tape, params, f"{p}.ln3", x)))
    states = _ln(tape, params, "dec.final_ln", x)
    logits = tape.matmul(states, tape.transpose(cand))
    allowed = np.ones((k, n), dtype=bool)
    for t in range(1, k):
        allowed[t:, prefix[t - 1]] = False
    return tape.softmax_rows(logits, key_mask=allowed)


def ar_sequence_loss(req: RequestBatch, params: Params, cfg: GeneratorConfig,
                     tape: Tape) -> Tensor:
    """Teacher-forced cross-entropy -sum_t log p(y_t | y_<t) in one pass."""
    if req.exposed is None:
        raise InvalidSlateError("request has no exposed slate to fit")
    y = tuple(req.exposed)
    if len(y) != cfg.m:
        raise ShapeError(f"slate length {len(y)} does not match m={cfg.m}")
    probs = ar_forward(req, params, cfg, prefix=y[:-1], tape=tape)
    picked = tape.take_entries(probs, np.arange(cfg.m), np.asarray(y))
    return tape.neg(tape.sum(tape.log(tape.clamp_min(picked, 1e-12))))


def ar_decode(req: RequestBatch, params: Params, cfg: GeneratorConfig) -> SlateSequence:
    """m sequential picks, each one a complete encoder+decoder pass."""
    n = req.n
    if cfg.m > n:
        raise InfeasibleSlateError(f"cannot fill {cfg.m} positions from {n} candidates")
    chosen: list[int] = []
    chosen_p: list[float] = []
    for _ in range(cfg.m):
        probs = ar_forward(req, params, cfg, prefix=tuple(chosen))
        row = probs.data[-1].copy()
        row[chosen] = -1.0  # chosen entries are 0; keep them out of argmax ties
        pick = int(np.argmax(row))
        chosen.append(pick)
        chosen_p.append(float(probs.data[-1, pick]))
    return SlateSequence(indices=tuple(chosen), probabilities=tuple(chosen_p),
                         method="ar")
