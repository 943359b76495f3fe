"""Autoregressive pointer baseline.

Same candidate encoder as the one-shot generator (built by the same
function, so the two differ only in how positions are filled): a causal
decoder consumes a start row plus the already-chosen items and points back
into the candidate states for the next pick. Inference encodes the
candidates once per request and then runs one pointer pass (decoder blocks,
pointer logits, softmax) per position: those m sequential passes are the
cost the benchmark contrasts against the one-pass generator.

Training is teacher-forced in a single pass with a causal mask, and a
minibatch goes through that pass on one tape, as the generator's does: the
minibatch is a `data.LogTable`, whose features arrive stacked and zero-padded
to the largest n in it (`generator._stack_requests`), and the `valid` mask
keeps padded candidates out of the encoder's attention, the decoder's
cross-attention and the pointer softmax. The decoder rows
[bos, y_1 ... y_{m-1}] are gathered for the whole stack at once; every slate
has length m, so the decoder side needs no padding.

Logged slates (a LogTable's once, when the table is built, or one request's
here) are checked by the one slate rule, `data.slate_indices`; `ar_forward`
takes the prefix its caller hands it: `ar_decode`'s own picks, or the logged
slate teacher-forced by `ar_sequence_loss`.
"""

from __future__ import annotations

import numpy as np

from .data import LogTable, RequestBatch, slate_indices
from .decoding import SlateSequence
from .errors import InfeasibleSlateError, InvalidSlateError, ShapeError
from .generator import (
    GeneratorConfig,
    _stack_requests,
    blocks,
    build_blocks,
    build_candidate_encoder,
    encode_candidates,
)
from .numerics import Params, Tape, Tensor
from .objectives import _neg_log_sum


def init_ar_params(cfg: GeneratorConfig) -> Params:
    rng = np.random.default_rng(cfg.seed)
    params = Params()
    build_candidate_encoder(params, cfg, rng)
    params.new_gaussian("dec.bos", (1, cfg.d), rng)
    params.new_gaussian("dec.pos", (cfg.m, cfg.d), rng)
    params.new_gaussian("dec.in.w", (cfg.d, cfg.d), rng)
    params.new_zeros("dec.in.b", (cfg.d,))
    build_blocks(params, "dec", cfg, rng, cross=True)
    return params


def _decoder_rows(tape: Tape, params: Params, cand_hidden: Tensor,
                  prefix: np.ndarray) -> Tensor:
    """Input rows [bos, chosen_1, ..., chosen_k] plus position embeddings.

    prefix is (k,) for one request or (B, k) for a stack. The chosen
    candidate rows are gathered before the dec.in projection, so only k rows
    per request are projected, not all n.
    """
    k = prefix.shape[-1]
    x = params["dec.bos"]
    if k:
        chosen = tape.linear(tape.take_rows(cand_hidden, prefix),
                             params["dec.in.w"], params["dec.in.b"])
        x = tape.concat_rows([x, chosen])
    return tape.add(x, tape.slice_rows(params["dec.pos"], 0, k + 1))


def _pointer_mask(prefix: np.ndarray, n: int, valid: np.ndarray | None) -> np.ndarray:
    """allowed[..., t, i]: candidate i is real and not among prefix[..., :t]."""
    k = prefix.shape[-1]
    allowed = np.ones(prefix.shape[:-1] + (k + 1, n), dtype=bool)
    batch = (np.arange(len(prefix)),) if prefix.ndim == 2 else ()
    for t in range(1, k + 1):
        allowed[batch + (slice(t, None), prefix[..., t - 1])] = False
    return allowed if valid is None else allowed & valid[..., None, :]


def ar_forward(params: Params, cand: Tensor, prefix: np.ndarray, cfg: GeneratorConfig,
               tape: Tape, valid: np.ndarray | None = None) -> Tensor:
    """One pointer pass over encoded candidates, (n, d) with a (k,) prefix or
    a padded (B, n, d) stack with (B, k) prefixes and its `valid` mask:
    decode k + 1 rows and return row-stochastic pointer probabilities.

    Row t is the next-item distribution given prefix[..., :t]; entries for
    already-chosen candidates are exactly 0. The prefix is taken as given:
    its callers hand it their own picks or a slate checked by the slate rule.
    """
    tape.forwards += 1
    states = blocks(tape, params, "dec", _decoder_rows(tape, params, cand, prefix), cfg,
                    causal=True, memory=cand, memory_mask=valid)
    logits = tape.matmul(states, tape.transpose(cand))
    return tape.softmax_rows(logits, key_mask=_pointer_mask(prefix, cand.shape[-2], valid))


def ar_sequence_loss(req, params: Params, cfg: GeneratorConfig,
                     tape: Tape) -> Tensor:
    """Teacher-forced cross-entropy -sum_t log p(y_t | y_<t) in one pass.

    `req` is one RequestBatch, giving a scalar, or a LogTable, giving one
    loss per request, (B,), from one pass over the padded stack.
    """
    feats, valid = _stack_requests(req, cfg)
    if isinstance(req, LogTable):
        # its slates were checked by the slate rule when the table was built
        y = req.exposed
        if y.shape[1] != cfg.m:
            raise ShapeError(f"logged slates have {y.shape[1]} items, config m={cfg.m}")
    elif req.exposed is None:
        raise InvalidSlateError("request has no exposed slate to fit")
    else:
        y = slate_indices([req.exposed], req.n, cfg.m)[0]
    cand = encode_candidates(feats, params, cfg, tape, valid=valid)
    probs = ar_forward(params, cand, y[..., :-1], cfg, tape, valid)
    picked = tape.take_entries(probs, np.broadcast_to(np.arange(cfg.m), y.shape), y)
    return _neg_log_sum(tape, picked)


def ar_decode(req: RequestBatch, params: Params, cfg: GeneratorConfig,
              tape: Tape | None = None) -> SlateSequence:
    """m sequential picks on `tape`: the candidates are encoded once, then
    each pick is one `ar_forward` pointer pass against that encoding."""
    if tape is None:
        tape = Tape(recording=False)
    n = req.n
    if cfg.m > n:
        raise InfeasibleSlateError(f"cannot fill {cfg.m} positions from {n} candidates")
    cand = encode_candidates(_stack_requests(req, cfg)[0], params, cfg, tape)
    chosen: list[int] = []
    chosen_p: list[float] = []
    for _ in range(cfg.m):
        probs = ar_forward(params, cand, np.array(chosen, dtype=np.int64), cfg, tape)
        row = probs.data[-1].copy()
        row[chosen] = -1.0  # chosen entries are 0; keep them out of argmax ties
        pick = int(np.argmax(row))
        chosen.append(pick)
        chosen_p.append(float(probs.data[-1, pick]))
    return SlateSequence(indices=tuple(chosen), probabilities=tuple(chosen_p),
                         method="ar")
