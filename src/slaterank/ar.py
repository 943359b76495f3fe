"""Autoregressive pointer baseline.

Same candidate encoder as the one-shot generator (built by the same
function, so the two differ only in how positions are filled): a causal
decoder consumes a start row plus the already-chosen items and points back
into the candidate states for the next pick. Inference runs one pointer
pass (decoder rows, decoder blocks, pointer logits, softmax) per position:
those m sequential passes are the cost the benchmark contrasts against the
one-pass generator. What no pick changes is not redone per pass:
- once per request, the candidates are encoded and projected into what
  every pass reads of them (each decoder block's cross-attention keys and
  values, and the pointer keys), and one (m, n) pointer mask is kept, which
  loses a pick's column for the later rows;
- once per parameter state, on a non-recording tape, block 0's head over
  the start row (pass 0's whole input reads only parameters), kept by
  `Params.memo` exactly as the generator keeps its position slots.

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
    _block_head,
    _stack_requests,
    blocks,
    build_blocks,
    build_candidate_encoder,
    cross_memory,
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


def _decoder_rows(tape: Tape, params: Params, cand_hidden: Tensor | None,
                  prefix: np.ndarray) -> Tensor:
    """Input rows [bos, chosen_1, ..., chosen_k] plus position embeddings.

    prefix is (k,) for one request or (B, k) for a stack; cand_hidden is not
    read when it is empty. The chosen candidate rows are gathered before the
    dec.in projection, so only k rows per request are projected, not all n.
    """
    k = prefix.shape[-1]
    x = params["dec.bos"]
    if k:
        chosen = tape.linear(tape.take_rows(cand_hidden, prefix),
                             params["dec.in.w"], params["dec.in.b"])
        x = tape.concat_rows([x, chosen])
    return tape.add(x, tape.slice_rows(params["dec.pos"], 0, k + 1))


# every parameter _start_head reads
_START_PARAMS = ("dec.bos", "dec.pos", "dec.0.ln1.g", "dec.0.ln1.b", "dec.0.self.wq",
                 "dec.0.self.wk", "dec.0.self.wv", "dec.0.self.wo", "dec.0.ln2.g",
                 "dec.0.ln2.b", "dec.0.cross.wq")


def _start_head(params: Params, cfg: GeneratorConfig, tape: Tape) -> tuple[Tensor, Tensor]:
    """Block 0's head over the start row alone, pass 0's whole input: the
    row after the self-attention sublayer and its cross-attention query."""
    x = _decoder_rows(tape, params, None, np.zeros(0, dtype=np.int64))
    return _block_head(tape, params, "dec.0", x, cfg, causal=True, cross=True)


def _pointer_mask(prefix: np.ndarray, n: int, valid: np.ndarray | None) -> np.ndarray:
    """allowed[..., t, i]: candidate i is real and not among prefix[..., :t]."""
    k = prefix.shape[-1]
    allowed = np.ones(prefix.shape[:-1] + (k + 1, n), dtype=bool)
    batch = (np.arange(len(prefix)),) if prefix.ndim == 2 else ()
    for t in range(1, k + 1):
        allowed[batch + (slice(t, None), prefix[..., t - 1])] = False
    return allowed if valid is None else allowed & valid[..., None, :]


def _pointer_memory(tape: Tape, params: Params, cand: Tensor,
                    cfg: GeneratorConfig) -> tuple[list[tuple[Tensor, Tensor]], Tensor]:
    """What every pointer pass reads of the encoded candidates: each decoder
    block's cross-attention keys and values, and the pointer keys (cand
    transposed)."""
    return cross_memory(tape, params, "dec", cand, cfg), tape.transpose(cand)


def ar_forward(params: Params, x: Tensor | None, memory, allowed: np.ndarray,
               cfg: GeneratorConfig, tape: Tape, valid: np.ndarray | None = None,
               head: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """One pointer pass: the decoder blocks over the k + 1 input rows x
    (`_decoder_rows` of a (k,) prefix, or of a (B, k) stack of them),
    cross-attending into `_pointer_memory` of the encoded candidates, then
    row-stochastic pointer probabilities over the candidates. Given `head`,
    block 0's head of x, x is not read. `valid` masks a padded stack's
    candidates out of the cross-attention.

    Row t is the next-item distribution given the first t prefix items;
    allowed[..., t, i] is False where candidate i may not come next (it is
    among them, or padding), and its probability is then exactly 0. The
    prefix is taken as given: its callers hand it their own picks or a slate
    checked by the slate rule.
    """
    tape.forwards += 1
    kv, keys = memory
    states = blocks(tape, params, "dec", x, cfg, head=head, causal=True, memory=kv,
                    memory_mask=valid)
    return tape.softmax_rows(tape.matmul(states, keys), key_mask=allowed)


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
    prefix = y[..., :-1]
    # the rows before the memory: the backward pass then adds their
    # gradients into cand's in the order it would if each block projected
    # cand as it went, and training keeps its bits
    x = _decoder_rows(tape, params, cand, prefix)
    probs = ar_forward(params, x, _pointer_memory(tape, params, cand, cfg),
                       _pointer_mask(prefix, cand.shape[-2], valid), cfg, tape, valid)
    picked = tape.take_entries(probs, np.broadcast_to(np.arange(cfg.m), y.shape), y)
    return _neg_log_sum(tape, picked)


def ar_decode(req: RequestBatch, params: Params, cfg: GeneratorConfig,
              tape: Tape | None = None) -> SlateSequence:
    """m sequential picks on `tape`: one `ar_forward` pointer pass each.

    What no pick changes is done once: the candidates are encoded, and
    `_pointer_memory` projects them, once per request; one (m, n) pointer
    mask loses a pick's column for the later rows, and pass k reads its
    first k + 1 rows. Pass 0's input is the start row alone, which reads
    only parameters, so a non-recording tape takes block 0's head of it from
    `params.memo`: computed once and reused while cfg.h and the bytes of the
    parameters it reads are unchanged, and read-only, as the generator's
    position slots are. A recording tape computes it on the tape.
    """
    if tape is None:
        tape = Tape(recording=False)
    n = req.n
    if cfg.m > n:
        raise InfeasibleSlateError(f"cannot fill {cfg.m} positions from {n} candidates")
    cand = encode_candidates(_stack_requests(req, cfg)[0], params, cfg, tape)
    memory = _pointer_memory(tape, params, cand, cfg)
    allowed = np.ones((cfg.m, n), dtype=bool)
    chosen: list[int] = []
    chosen_p: list[float] = []
    for k in range(cfg.m):
        if k or tape.recording:
            x, head = _decoder_rows(tape, params, cand, np.array(chosen, dtype=np.int64)), None
        else:
            x, head = None, params.memo("dec.start_head", _START_PARAMS, cfg.h,
                                        lambda: _start_head(params, cfg, tape))
        probs = ar_forward(params, x, memory, allowed[:k + 1], cfg, tape, head=head)
        row = probs.data[-1].copy()
        row[chosen] = -1.0  # chosen entries are 0; keep them out of argmax ties
        pick = int(np.argmax(row))
        chosen.append(pick)
        chosen_p.append(float(probs.data[-1, pick]))
        allowed[k + 1:, pick] = False
    return SlateSequence(indices=tuple(chosen), probabilities=tuple(chosen_p),
                         method="ar")
