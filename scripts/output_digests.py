#!/usr/bin/env python3
"""Print SHA-256 digests of the models' outputs at fixed seeds.

Run it on two checkouts (PYTHONPATH=<checkout>/src python3 scripts/output_digests.py)
and diff the output: equal lines mean a refactor kept these outputs bit for
bit. Covered: initial parameters (names, order, shapes, bytes) of the
generator, the AR baseline and the evaluator; the generator forward on one
request and on a padded LogTable, at L=2 and on an L=1 config shaped like
perfbench's, and again on the L=2 parameters after train_generator has
updated them in place (so a forward that reused values computed from the
old parameters would show); 256 requests of n = 20 at perfbench's generator
shape, forward and contrastive slates per request, served as one LogTable
and one by one (equal lines mean a request's bits do not depend on the
stack it is served in); `total_loss` on a padded LogTable with its (B,)
utilities, every term, both flags and the gradients; contrastive slates,
the slates of greedy, width-3 beam and top-k decoding, every `sample_slates`
proposal (indices, probabilities, method) with the rng state it leaves, and
the `select_best` winners among them, once with k = 3 on small requests and
once with k = 12 and 16 samples on n = 20 requests (rank groups of 8 terms
and more, where NumPy sums pairwise, and pools that need several refills);
the rerank path at perfbench's serving shapes: pools of 8 proposals from
world requests of n = 20, scored by the default evaluator at trained-like
weights with `score_slates`, `score_slate` and `select_best`, and by the
oracle's expected utility; one request's pool of 2000 random slates
(serve.score_slates.wide), scored once as a pool and once slate by slate,
whose two digests are equal when each slate of a wide pool gets its own
`score_slate` bits; the bounds of single rank groups 1 to 7 terms wide
(group_bounds.narrow), which NumPy adds left to right, and 8 to 20, 129
and 300 terms wide (group_bounds.wide), which it adds pairwise: a total
summed in another order moves the last bits of the bounds without often
moving a pick; `auc` on tie-heavy scores;
AR decoded slates, their pick probabilities and sequence-loss
gradients, and AR slates with their pick probabilities on 32 requests of
n = 20 at perfbench's L=1 shape with trained-like weights; evaluator scores and pooled utilities; the trained parameters and
loss logs of train_generator, train_ar and train_evaluator, and AR slates
with their pick probabilities again after train_ar has updated its
parameters in place (ar_decode.after_train, as forward.after_train is for
the generator); every field of a
ragged log (n from m to n_max, two feedback types) written by write_logs and
read back by read_logs against a LogSchema, parsed and from read_logs's
cache, and the parameters and loss logs of the three trainers run on the
log as parsed; every record of two seeded simulator logs (a small
random-policy one, and an affinity_greedy one on a default-sized world that
spans several of gen_log's blocks), the parameters and loss logs of the
three trainers run on the first as gen_log
returns it, the bytes write_logs writes for the second, and the oracle's
click probabilities and expected utilities for seeded slates on both
worlds; one line per public Tape op, its forward value and its input
gradients on seeded inputs, so a change to numerics is checked op by op and
not only through the models; the ops that sum or take maxima along an axis
again on minibatch-sized inputs (256 rows or more per sum), where a BLAS
sum's bits depend on the stack height; and sigmoid, softplus and
gelu at +-0.0, +-40 and +-800, and contrastive slates at alpha 0 and 1, where
a rewritten formula would most likely part from the old one. Last, the
bytes of each file a small seeded simulate, train-generator,
train-evaluator, train-ar, generate and evaluate pipeline writes through
`cli.main`: the slates, the report and the three loss curves.
"""

import contextlib
import hashlib
import io
import os
import tempfile
import warnings

import numpy as np

from slaterank.ar import ar_decode, ar_sequence_loss, init_ar_params
from slaterank.cli import main as cli_main
from slaterank.data import (
    ExposureLog,
    FeedbackMatrix,
    LogSchema,
    LogTable,
    RequestBatch,
    read_logs,
    write_logs,
)
from slaterank.decoding import (
    DecodeConfig,
    _group_bounds,
    beam_decode,
    contrastive_decode,
    greedy_decode,
    sample_slates,
    topk_sample,
)
from slaterank.evaluator import (
    EvaluatorConfig,
    init_evaluator_params,
    score_slate,
    score_slates,
    select_best,
    train_evaluator,
)
from slaterank.generator import GeneratorConfig, ProbMatrix, forward, init_generator_params
from slaterank.metrics import auc
from slaterank.numerics import Tape, Tensor
from slaterank.objectives import UtilitySpec, total_loss, utilities
from slaterank.simulator import (
    World,
    WorldConfig,
    gen_log,
    gen_request,
    oracle_click_probs,
    oracle_expected_utility,
)
from slaterank.training import steps_to_csv, train_ar, train_generator

GEN = GeneratorConfig(n_max=8, m=3, d=8, h=2, L=2, d_x=4, d_t=5, seed=11)
EV = EvaluatorConfig(types=("click", "like"), weights=(1.0, 0.5), d=8, h=2,
                     d_x=4, m=3, seed=12)
SPEC = UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=1.0)
# k=3 fits every request (n >= m = 3); small n makes sample_slates dedupe
DEC = DecodeConfig(alpha=0.3, k=3, num_samples=6)
# perfbench's generator shape, with one block per encoder
GEN_L1 = GeneratorConfig(n_max=20, m=6, d=16, h=2, L=1, d_x=10, d_t=8, seed=15)
WORLD = WorldConfig(num_users=40, num_items=120, latent_dim=4, n_candidates=9, seed=13)
# the three models shaped for WORLD's logs: d_x = latent_dim + 2, m = 6 positions
GEN_WORLD = GeneratorConfig(n_max=9, m=6, d=8, h=2, L=1, d_x=6, d_t=5, seed=16)
EV_WORLD = EvaluatorConfig(types=("click", "like"), weights=(1.0, 0.5), d=8, h=2,
                           d_x=6, m=6, seed=17)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def params_digest(params) -> str:
    return digest(*[x for name, t in params.items() for x in (name, t.data)])


def grads_digest(params) -> str:
    return digest(*[x for name, t in params.items()
                    for x in (name, np.zeros(0) if t.grad is None else t.grad)])


def zero_grads(params) -> None:
    """Zeroes each gradient buffer in place (a -0.0 entry becomes +0.0)."""
    for _, t in params.items():
        if t.grad is not None:
            t.grad[...] = 0.0


def make_logs(count: int, seed: int) -> list[ExposureLog]:
    rng = np.random.default_rng(seed)
    logs = []
    for i in range(count):
        n = int(rng.integers(GEN.m, GEN.n_max + 1))
        fb = FeedbackMatrix(values=(rng.random((2, GEN.m)) < 0.4).astype(float),
                            types=("click", "like"))
        logs.append(ExposureLog(RequestBatch(
            request_id=i, user_id=0, item_ids=np.arange(n),
            features=rng.normal(size=(n, GEN.d_x)),
            exposed=tuple(rng.choice(n, size=GEN.m, replace=False).tolist()),
            feedback=fb)))
    return logs


def make_ragged_logs(count: int, seed: int) -> list[ExposureLog]:
    """Requests with n from m to n_max and ids that differ from their row
    numbers, so a reader that mixed up fields or rows would show."""
    rng = np.random.default_rng(seed)
    logs = []
    for i in range(count):
        n = int(rng.integers(GEN.m, GEN.n_max + 1))
        fb = FeedbackMatrix(values=(rng.random((2, GEN.m)) < 0.5).astype(float),
                            types=("click", "like"))
        logs.append(ExposureLog(RequestBatch(
            request_id=500 + 3 * i, user_id=int(rng.integers(0, 1000)),
            item_ids=rng.choice(10_000, size=n, replace=False),
            features=rng.normal(scale=2.0, size=(n, GEN.d_x)),
            exposed=tuple(rng.choice(n, size=GEN.m, replace=False).tolist()),
            feedback=fb)))
    return logs


def op_cases(rng: np.random.Generator):
    """(op name, call, input tensors) for every public Tape op, batched
    (B, n, d) where the op takes a batch. The lines named scale, neg and
    relu, ops since folded into mask and clamp_min, run those two ops and
    keep their place among the draws; so does sum.all, a whole sum, where
    the line of mean, an op since removed, was."""
    B, n, d = 3, 5, 4

    def t(*shape, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=shape))

    def keep_first(mask):
        mask[..., 0] = True
        return mask

    key_mask = keep_first(rng.random((B, n)) < 0.6)
    col_mask = keep_first(rng.random((B, n, d)) < 0.6)
    row_mask = keep_first(rng.random((B, n)) < 0.6)
    const = rng.normal(size=(n, d))
    coef = rng.normal(size=(B, n, d))
    rows, cols = rng.integers(0, n, size=(B, 6)), rng.integers(0, d, size=6)
    return [
        ("matmul", lambda tp, a, b: tp.matmul(a, b), [t(B, n, d), t(d, 3)]),
        ("linear", lambda tp, x, w, b: tp.linear(x, w, b), [t(B, n, d), t(d, 3), t(3)]),
        ("transpose", lambda tp, a: tp.transpose(a), [t(B, n, d)]),
        ("attention", lambda tp, q, k, v: tp.attention(q, k, v, 2, key_mask=key_mask,
                                                        causal=True),
         [t(B, n, d), t(B, n, d), t(B, n, d)]),
        ("add", lambda tp, a, b: tp.add(a, b), [t(B, n, d), t(d)]),
        ("sub", lambda tp, a, b: tp.sub(a, b), [t(B, n, d), t(n, d)]),
        ("mul", lambda tp, a, b: tp.mul(a, b), [t(B, n, d), t(B, 1, d)]),
        ("scale", lambda tp, a: tp.mask(a, 1.7), [t(B, n, d)]),
        ("neg", lambda tp, a: tp.mask(a, -1.0), [t(B, n, d)]),
        ("add_scalar", lambda tp, a: tp.add_scalar(a, const), [t(B, n, d)]),
        ("mask", lambda tp, a: tp.mask(a, coef), [t(B, n, d)]),
        ("gelu", lambda tp, a: tp.gelu(a), [t(B, n, d, scale=3.0)]),
        ("relu", lambda tp, a: tp.clamp_min(a, 0.0), [t(B, n, d)]),
        ("sigmoid", lambda tp, a: tp.sigmoid(a), [t(B, n, d, scale=5.0)]),
        ("log", lambda tp, a: tp.log(a), [Tensor(rng.random((B, n, d)) + 0.1)]),
        ("clamp_min", lambda tp, a: tp.clamp_min(a, 0.3), [t(B, n, d)]),
        ("softplus", lambda tp, a: tp.softplus(a), [t(B, n, d, scale=5.0)]),
        ("sum", lambda tp, a: tp.sum(a, axis=-1), [t(B, n, d)]),
        ("sum.all", lambda tp, a: tp.sum(a), [t(B, n, d)]),
        ("layer_norm", lambda tp, x, g, b: tp.layer_norm(x, g, b),
         [t(B, n, d, scale=2.0), t(d), t(d)]),
        ("softmax_rows", lambda tp, a: tp.softmax_rows(a, key_mask=col_mask),
         [t(B, n, d, scale=3.0)]),
        ("softmax_columns", lambda tp, a: tp.softmax_columns(a, valid_rows=row_mask),
         [t(B, n, d, scale=3.0)]),
        ("row_normalize", lambda tp, a: tp.row_normalize(a), [t(B, n, d)]),
        ("take_entries", lambda tp, a: tp.take_entries(a, rows, cols), [t(B, n, d)]),
        ("slice_rows", lambda tp, a: tp.slice_rows(a, 1, 4), [t(n, d)]),
        ("take_rows", lambda tp, a: tp.take_rows(a, rows), [t(B, n, d)]),
        ("concat_rows", lambda tp, a, b: tp.concat_rows([a, b]), [t(n, d), t(B, 2, d)]),
    ]


def minibatch_op_cases(rng: np.random.Generator):
    """(op name, call, input tensors) for the ops that sum or take maxima
    along an axis, on minibatch-sized inputs: 256 rows or more per sum
    (B = 16 stacks of n = 20 rows, as perfbench trains, and 64 stacks of
    m = 6 slots), with rows of 20, 16 and 6 terms."""
    B, n, d, m = 16, 20, 16, 6

    def t(*shape, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=shape))

    def keep_first(mask):
        mask[..., 0] = True
        return mask

    key_mask = keep_first(rng.random((B, n)) < 0.7)
    col_mask = keep_first(rng.random((B, n, n)) < 0.7)
    return [
        ("layer_norm", lambda tp, x, g, b: tp.layer_norm(x, g, b),
         [t(B, n, d, scale=2.0), t(d), t(d)]),
        ("attention.masked", lambda tp, q, k, v: tp.attention(q, k, v, 2, key_mask=key_mask),
         [t(B, n, d), t(B, n, d), t(B, n, d)]),
        ("attention.causal", lambda tp, q, k, v: tp.attention(q, k, v, 2, causal=True),
         [t(B, n, d, scale=2.0), t(B, n, d), t(B, n, d)]),
        ("attention.shared_queries", lambda tp, q, k, v: tp.attention(q, k, v, 2),
         [t(m, d), t(64, n, d), t(64, n, d)]),
        ("attention.slots", lambda tp, q, k, v: tp.attention(q, k, v, 2),
         [t(64, m, d), t(64, m, d), t(64, m, d)]),
        ("softmax_rows", lambda tp, a: tp.softmax_rows(a, key_mask=col_mask),
         [t(B, n, n, scale=3.0)]),
        ("softmax_rows.slots", lambda tp, a: tp.softmax_rows(a), [t(64, m, m, scale=3.0)]),
        ("row_normalize", lambda tp, a: tp.row_normalize(a), [t(B, n, d)]),
        ("linear", lambda tp, x, w, b: tp.linear(x, w, b), [t(B, n, d), t(d, 12), t(12)]),
        ("add", lambda tp, a, b: tp.add(a, b), [t(B, n, d), t(d)]),
    ]


def op_digests() -> None:
    """Print each op's output and the gradients of sum(out * c) with respect
    to its inputs, for a seeded array c of out's shape: every public op on
    small inputs, then the reducing ops on minibatch-sized ones."""
    rng = np.random.default_rng(17)
    for name, call, inputs in op_cases(rng):
        tape = Tape()
        out = call(tape, *inputs)
        tape.backward(tape.sum(tape.mask(out, rng.normal(size=out.shape))))
        print(f"op.{name}", digest(out.data, *[x.grad for x in inputs]))
    rng = np.random.default_rng(19)
    for name, call, inputs in minibatch_op_cases(rng):
        tape = Tape()
        out = call(tape, *inputs)
        tape.backward(tape.sum(tape.mask(out, rng.normal(size=out.shape))))
        print(f"op.minibatch.{name}", digest(out.data, *[x.grad for x in inputs]))


def edge_digests() -> None:
    """sigmoid, softplus and gelu at signed zeros and at large |x|: each
    op's output and input gradient, as `op_digests` prints them, so the
    sign of a zero and a saturated value count."""
    x = np.array([[0.0, -0.0, 40.0, -40.0, 800.0, -800.0]])
    g = np.random.default_rng(18).normal(size=x.shape)
    for name in ("sigmoid", "softplus", "gelu"):
        a = Tensor(x.copy())
        tape = Tape()
        out = getattr(tape, name)(a)
        tape.backward(tape.sum(tape.mask(out, g)))
        print(f"op.{name}.edges", digest(out.data, a.grad))


def prob_fields(probs) -> tuple:
    return (probs.values.data, probs.candidate_reps.data, probs.position_reps.data,
            probs.valid)


def total_loss_digest(logs) -> None:
    """`total_loss` on a padded LogTable of six requests with their (B,)
    utilities, as training calls it: every term, both flags and the
    gradients of the summed total, on fresh generator parameters."""
    table = LogTable.of(logs)
    gen = init_generator_params(GEN)
    tape = Tape()
    bd = total_loss(tape, forward(table, gen, GEN, tape), table.exposed,
                    utilities(table, SPEC), SPEC, rho=0.4, omega=0.3)
    tape.backward(tape.sum(bd.total))
    print("total_loss.stack", digest(bd.total.data, bd.ce_or_ul.data,
                                     bd.item_contrastive.data, bd.position_contrastive.data,
                                     bd.is_positive_sequence, bd.clamped),
          grads_digest(gen))


def forward_l1_digest() -> None:
    """One request, a padded table of five (n from 6 to 20) and the first
    request again, through one set of L=1 parameters. The logged slate
    (0 .. m-1, zero feedback) is there only to make the table."""
    rng = np.random.default_rng(41)
    zeros = FeedbackMatrix(values=np.zeros((1, GEN_L1.m)), types=("click",))
    logs = [ExposureLog(RequestBatch(request_id=i, user_id=0, item_ids=np.arange(n),
                                     features=rng.normal(size=(n, GEN_L1.d_x)),
                                     exposed=tuple(range(GEN_L1.m)), feedback=zeros))
            for i, n in enumerate((20, 13, 6, 20, 9))]
    one = logs[0].request
    gen = init_generator_params(GEN_L1)
    print("forward.one.L1", digest(*prob_fields(forward(one, gen, GEN_L1)),
                                   *prob_fields(forward(LogTable.of(logs), gen, GEN_L1)),
                                   *prob_fields(forward(one, gen, GEN_L1))))


def slate_fields(slate) -> tuple:
    return slate.indices, slate.probabilities, slate.method


def equal_n_digests() -> None:
    """256 requests of n = 20 through one set of L=1 parameters, served as
    one LogTable and then one at a time: each request's forward outputs and
    its contrastive slate (perfbench's DecodeConfig), in request order. The
    logged slate (0 .. m-1, zero feedback) is there only to make the table."""
    rng = np.random.default_rng(43)
    zeros = FeedbackMatrix(values=np.zeros((1, GEN_L1.m)), types=("click",))
    logs = [ExposureLog(RequestBatch(request_id=i, user_id=0, item_ids=np.arange(20),
                                     features=rng.normal(size=(20, GEN_L1.d_x)),
                                     exposed=tuple(range(GEN_L1.m)), feedback=zeros))
            for i in range(256)]
    gen = init_generator_params(GEN_L1)
    stack = forward(LogTable.of(logs), gen, GEN_L1)
    fields = (stack.values, stack.candidate_reps, stack.position_reps)
    stacked = [ProbMatrix(*(Tensor(t.data[i]) for t in fields)) for i in range(len(logs))]
    alone = [forward(log.request, gen, GEN_L1) for log in logs]
    dec = DecodeConfig()
    for name, probs in (("stacked", stacked), ("alone", alone)):
        print(f"forward.equal_n.{name}",
              digest(*[x for p in probs
                       for x in (*prob_fields(p), slate_fields(contrastive_decode(p, dec)))]))


def decode_digests(reqs, gen, ev) -> None:
    """Contrastive slates, the proposal pools and the rng state each pool
    leaves behind, and the evaluator's pick from each pool."""
    probs = [forward(r, gen, GEN) for r in reqs]
    print("contrastive_decode", digest([slate_fields(contrastive_decode(p, DEC))
                                        for p in probs]))
    for alpha in (0.0, 1.0):
        cfg = DecodeConfig(alpha=alpha, k=DEC.k, num_samples=DEC.num_samples)
        print(f"contrastive_decode.alpha{alpha:g}",
              digest([slate_fields(contrastive_decode(p, cfg)) for p in probs]))
    for name, decoder in (
            ("contrastive", lambda p: contrastive_decode(p, DEC)),
            ("greedy", greedy_decode),
            ("beam", lambda p: beam_decode(p, 3)),
            ("topk", lambda p: topk_sample(p, DEC, np.random.default_rng(9)))):
        print(f"decode.{name}", digest([slate_fields(decoder(p)) for p in probs]))
    pools, states = [], []
    for i, p in enumerate(probs):
        rng = np.random.default_rng(100 + i)
        pools.append(sample_slates(p, DEC, rng))
        states.append(rng.bit_generator.state)
    print("sample_slates", digest([[slate_fields(s) for s in pool] for pool in pools],
                                  states))
    print("select_best", digest([slate_fields(select_best(r, pool, ev, EV))
                                 for r, pool in zip(reqs, pools)]))


def wide_decode_digests() -> None:
    """`sample_slates` and `select_best` at k = 12 and 16 samples on n = 20
    requests, through L=1 parameters as initialised and doubled: the doubled
    ones give peaked columns, so pools repeat slates and refill many times."""
    rng = np.random.default_rng(47)
    dec = DecodeConfig(k=12, num_samples=16)
    ev_cfg = EvaluatorConfig(seed=18)
    ev = init_evaluator_params(ev_cfg)
    pools, states, best = [], [], []
    for scale in (1.0, 2.0):
        gen = init_generator_params(GEN_L1)
        for _, t in gen.items():
            t.data *= scale
        for i in range(8):
            req = RequestBatch(request_id=i, user_id=0, item_ids=np.arange(20),
                               features=rng.normal(size=(20, GEN_L1.d_x)))
            draw = np.random.default_rng(200 + len(pools))
            pools.append(sample_slates(forward(req, gen, GEN_L1), dec, draw))
            states.append(draw.bit_generator.state)
            best.append(select_best(req, pools[-1], ev, ev_cfg))
    print("sample_slates.wide", digest([[slate_fields(s) for s in pool] for pool in pools],
                                       states))
    print("select_best.wide", digest([slate_fields(s) for s in best]))


def serving_pool_digests() -> None:
    """The rerank path at perfbench's serving shapes: 24 requests of n = 20
    from a default-sized world, pools of up to 8 proposals drawn by
    `sample_slates` (perfbench's DecodeConfig) from the L=1 generator's
    forward, then the default evaluator (d_x = 10, m = 6) with its weight
    matrices scaled by 15, to the size training gives them, on every pool:
    `score_slates`, `score_slate` of each proposal, the `select_best` pick,
    and the oracle's expected utility of each proposal. Then one request's
    pool of 2000 random slates, far more rows than a serving pool: the
    digest of its `score_slates` and the digest of each slate's own
    `score_slate` utility, equal when a slate's bits do not depend on the
    pool it is in. The oracle's weights
    are not powers of two, so a weighted utility summed in another grouping
    would show (with SPEC's 1.0 and 0.5, each product is exact)."""
    world = World(WorldConfig(seed=25))
    rng = np.random.default_rng(51)
    reqs = [gen_request(world, rng, request_id=i) for i in range(24)]
    gen = init_generator_params(GEN_L1)
    ev_cfg = EvaluatorConfig()
    ev = init_evaluator_params(ev_cfg)
    for _, t in ev.items():
        if t.data.ndim == 2:
            t.data *= 15.0
    pools, states = [], []
    for i, req in enumerate(reqs):
        draw = np.random.default_rng(300 + i)
        pools.append(sample_slates(forward(req, gen, GEN_L1), DecodeConfig(), draw))
        states.append(draw.bit_generator.state)
    print("serve.sample_slates", digest([[slate_fields(s) for s in pool] for pool in pools],
                                        states))
    print("serve.score_slates", digest(*[score_slates(r, pool, ev, ev_cfg)
                                         for r, pool in zip(reqs, pools)]))
    alone = [score_slate(r, s, ev, ev_cfg) for r, pool in zip(reqs, pools) for s in pool]
    print("serve.score_slate", digest(*[x.scores for x in alone], [x.utility for x in alone]))
    print("serve.select_best", digest([slate_fields(select_best(r, pool, ev, ev_cfg))
                                       for r, pool in zip(reqs, pools)]))
    wide = [tuple(rng.permutation(20)[:ev_cfg.m]) for _ in range(2000)]
    alone = [score_slate(reqs[0], s, ev, ev_cfg).utility for s in wide]
    print("serve.score_slates.wide", digest(score_slates(reqs[0], wide, ev, ev_cfg)),
          digest(np.array(alone)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's clamp warning
        spec = UtilitySpec(types=("click", "like"), weights=(1.1, 0.35), tau=1.0)
        print("serve.oracle", digest([[oracle_expected_utility(world, r, s, spec) for s in pool]
                                      for r, pool in zip(reqs, pools)]))


def ar_l1_digests() -> None:
    """The AR pointer baseline at perfbench's shapes: `ar_decode` on 32
    world requests of n = 20 through L=1 parameters with their weight
    matrices scaled by 15, as the serve.* lines scale the evaluator's, so a
    serving pass that moved the last bits of a pick probability would show.
    The picks and their probabilities."""
    world = World(WorldConfig(seed=25))
    rng = np.random.default_rng(53)
    reqs = [gen_request(world, rng, request_id=i) for i in range(32)]
    ar = init_ar_params(GEN_L1)
    for _, t in ar.items():
        if t.data.ndim == 2:
            t.data *= 15.0
    slates = [ar_decode(r, ar, GEN_L1) for r in reqs]
    print("ar_decode.l1", digest([s.indices for s in slates], [s.probabilities for s in slates]))


def group_bounds_digest() -> None:
    """`_group_bounds` on rank groups 1 to 7 terms wide, which NumPy sums
    left to right, and 8 to 20, 129 and 300 terms wide, which it sums
    pairwise: cubed uniforms, so terms span several binades, every tenth
    group all zeros, and among the narrow groups every tenth one of exact
    ties. The bounds carry the total's last bits even where no pick moves."""
    rng = np.random.default_rng(48)
    narrow = [rng.random(width) ** 3 for width in range(1, 8) for _ in range(30)]
    for zeros, ties in zip(narrow[::10], narrow[1::10]):
        zeros[:] = 0.0
        ties[:] = 0.1
    print("group_bounds.narrow", digest([_group_bounds(g.tolist()) for g in narrow]))
    rng = np.random.default_rng(49)
    groups = [rng.random(width) ** 3 for width in (*range(8, 21), 129, 300) for _ in range(10)]
    for group in groups[::10]:
        group[:] = 0.0
    print("group_bounds.wide", digest([_group_bounds(g.tolist()) for g in groups]))


def auc_digest() -> None:
    """`auc` on tie-heavy scores: 40 cases of 20 to 9000 scores rounded to
    one decimal, a third of the zeros made -0.0, so most scores share a
    tie group and a signed zero must tie with its positive twin."""
    rng = np.random.default_rng(55)
    values = []
    for size in (*rng.integers(20, 400, size=39), 9000):
        scores = np.round(rng.normal(size=size), 1)
        zeros = np.flatnonzero(scores == 0.0)
        scores[zeros[::3]] = -0.0
        labels = rng.integers(0, 2, size=size)
        labels[:2] = (0, 1)
        values.append(auc(scores, labels))
    print("auc.ties", digest(values))


def log_digest(logs) -> str:
    return digest(*[x for log in logs for x in (
        log.request.request_id, log.request.user_id, log.request.item_ids,
        log.request.features, log.exposed, log.feedback.types, log.feedback.values)])


def oracle_digest(world, logs, rng) -> str:
    """The oracle on three seeded slates over each logged request."""
    m = world.config.m
    cases = [(log.request, tuple(rng.choice(log.request.n, size=m, replace=False).tolist()))
             for log in logs for _ in range(3)]
    return digest(*[oracle_click_probs(world, r, s) for r, s in cases],
                  [oracle_expected_utility(world, r, s, SPEC) for r, s in cases])


def read_logs_digests() -> None:
    """A ragged log written by write_logs and read back with a LogSchema:
    every field of every record, parsed and then from read_logs's cache (the
    second read with a cache_dir is the first to hit it), then the three
    trainers on the log as parsed.
    At batch 6 the 32 requests fit in one of `_fit`'s grouping windows, so
    each epoch visits them in order of n: at shuffle seed 5 three of an
    epoch's six minibatches (the second, the third and the last, of two
    requests) hold requests of one n and run with nothing padded, and the
    other three pad their shorter requests by one candidate."""
    schema = LogSchema(GEN.d_x, GEN.m, GEN.n_max)
    with tempfile.TemporaryDirectory() as tmp:
        path, cache = os.path.join(tmp, "ragged.jsonl"), os.path.join(tmp, "cache")
        write_logs(path, make_ragged_logs(32, seed=31))
        logs = read_logs(path, schema)
        read_logs(path, schema, cache_dir=cache)
        warm = read_logs(path, schema, cache_dir=cache)
    print("read_logs.ragged", log_digest(logs))
    print("read_logs.warm", log_digest(warm))
    gen, ar, ev = init_generator_params(GEN), init_ar_params(GEN), init_evaluator_params(EV)
    steps = []
    train_generator(logs, gen, GEN, SPEC, lr=1e-2, epochs=2, batch_size=6, seed=5,
                    step_log=steps)
    print("train_generator.ragged", params_digest(gen), digest(steps_to_csv(steps)))
    ar_losses = []
    train_ar(logs, ar, GEN, lr=1e-2, epochs=2, batch_size=6, seed=5, loss_log=ar_losses)
    print("train_ar.ragged", params_digest(ar), digest(ar_losses))
    ev_losses = []
    train_evaluator(logs, ev, EV, lr=1e-2, epochs=2, batch_size=6, seed=5,
                    loss_log=ev_losses)
    print("train_evaluator.ragged", params_digest(ev), digest(ev_losses))


def gen_log_training_digests(logs) -> None:
    """The three trainers on gen_log's result, passed to them as it is
    returned."""
    gen, ar = init_generator_params(GEN_WORLD), init_ar_params(GEN_WORLD)
    ev = init_evaluator_params(EV_WORLD)
    steps = []
    train_generator(logs, gen, GEN_WORLD, SPEC, lr=1e-2, epochs=2, batch_size=5, seed=6,
                    step_log=steps)
    print("train_generator.gen_log", params_digest(gen), digest(steps_to_csv(steps)))
    ar_losses = []
    train_ar(logs, ar, GEN_WORLD, lr=1e-2, epochs=2, batch_size=5, seed=6,
             loss_log=ar_losses)
    print("train_ar.gen_log", params_digest(ar), digest(ar_losses))
    ev_losses = []
    train_evaluator(logs, ev, EV_WORLD, lr=1e-2, epochs=2, batch_size=5, seed=6,
                    loss_log=ev_losses)
    print("train_evaluator.gen_log", params_digest(ev), digest(ev_losses))


def simulator_digests() -> None:
    """Every record of a seeded 16-request log and of a 600-request
    affinity_greedy log (latent 8, n=20, m=6, ids from 1000), the SHA-256 of
    the file write_logs writes for the second, and the oracle on seeded
    slates over the requests of each."""
    world = World(WORLD)
    big_world = World(WorldConfig(seed=14))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's clamp warning
        logs = gen_log(world, "random", 16, np.random.default_rng(21))
        print("gen_log", log_digest(logs))
        print("oracle", oracle_digest(world, logs, np.random.default_rng(22)))
        gen_log_training_digests(logs)
        big = gen_log(big_world, "affinity_greedy", 600, np.random.default_rng(23),
                      start_id=1000)
        print("gen_log.greedy_600", log_digest(big))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            write_logs(path, big)
            with open(path, "rb") as fh:
                print("write_logs.greedy_600", hashlib.sha256(fh.read()).hexdigest()[:16])
        first_200 = LogTable.of(big).take(np.arange(200))
        print("oracle.greedy_600", oracle_digest(big_world, first_200,
                                                 np.random.default_rng(24)))


def cli_pipeline_digests() -> None:
    """The files a small seeded pipeline writes through `cli.main`, run in a
    temp directory with each command's own messages held back."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                "seed=7", "num_requests=200",
                "world.num_users=100", "world.num_items=400", "world.n_candidates=12",
                "generator.d=8", "generator.h=2", "generator.L=1", "generator.d_t=5",
                "evaluator.d=8", "evaluator.h=2",
                "train.lr=0.01", "train.batch_size=32",
                f"paths.out_dir={tmp}",
                f"paths.train_log={os.path.join(tmp, 'train.jsonl')}",
                f"paths.test_log={os.path.join(tmp, 'test.jsonl')}",
                f"paths.generator_checkpoint={os.path.join(tmp, 'generator.npz')}",
                f"paths.evaluator_checkpoint={os.path.join(tmp, 'evaluator.npz')}",
                f"paths.ar_checkpoint={os.path.join(tmp, 'ar.npz')}",
            ]) + "\n")
        base = ["--config", cfg]
        commands = [
            ["simulate", *base, "--policy", "affinity_greedy"],
            ["simulate", *base, "--policy", "random", "--num-requests", "60",
             "--start-id", "1000", "--out", os.path.join(tmp, "test.jsonl")],
            ["train-generator", *base], ["train-evaluator", *base], ["train-ar", *base],
            ["generate", *base], ["evaluate", *base],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"slaterank {argv[0]} exited {code}")
        for name in ("slates.jsonl", "eval.csv", "generator_loss.csv",
                     "evaluator_loss.csv", "ar_loss.csv"):
            with open(os.path.join(tmp, name), "rb") as fh:
                print(f"cli.{name}", hashlib.sha256(fh.read()).hexdigest()[:16])


def main() -> None:
    logs = make_logs(24, seed=5)
    reqs = [log.request for log in logs]
    gen, ar, ev = init_generator_params(GEN), init_ar_params(GEN), init_evaluator_params(EV)
    for name, params in (("generator", gen), ("ar", ar), ("evaluator", ev)):
        print(f"init.{name}", params_digest(params))

    one = forward(reqs[0], gen, GEN)
    print("forward.one", digest(one.values.data, one.candidate_reps.data,
                                one.position_reps.data))
    stack = forward(LogTable.of(logs[:6]), gen, GEN)
    print("forward.stack", digest(stack.values.data, stack.candidate_reps.data,
                                  stack.position_reps.data, stack.valid))
    total_loss_digest(logs[:6])
    forward_l1_digest()
    equal_n_digests()

    decode_digests(reqs[:12], gen, ev)
    wide_decode_digests()
    serving_pool_digests()
    group_bounds_digest()
    auc_digest()

    ar_slates = [ar_decode(r, ar, GEN) for r in reqs[:6]]
    print("ar_decode", digest([s.indices for s in ar_slates]))
    print("ar_decode.probs", digest([s.probabilities for s in ar_slates]))
    ar_l1_digests()
    tape = Tape()
    tape.backward(ar_sequence_loss(reqs[0], ar, GEN, tape))
    print("ar_sequence_loss.one.grads", grads_digest(ar))
    zero_grads(ar)
    tape = Tape()
    losses = ar_sequence_loss(LogTable.of(logs[:6]), ar, GEN, tape)
    tape.backward(tape.sum(losses))
    print("ar_sequence_loss.stack", digest(losses.data), grads_digest(ar))
    zero_grads(ar)

    print("score_slate", digest(*[score_slate(r, r.exposed, ev, EV).scores
                                  for r in reqs[:6]]))
    rng = np.random.default_rng(3)
    pools = [[tuple(rng.choice(r.n, size=EV.m, replace=False).tolist()) for _ in range(5)]
             for r in reqs[:6]]
    print("score_slates", digest(*[score_slates(r, pool, ev, EV)
                                   for r, pool in zip(reqs, pools)]))

    steps = []
    train_generator(logs, gen, GEN, SPEC, lr=1e-2, epochs=2, batch_size=7, seed=4,
                    step_log=steps)
    print("train_generator", params_digest(gen), digest(steps_to_csv(steps)))
    print("forward.after_train", digest(*prob_fields(forward(reqs[0], gen, GEN))))
    ar_losses = []
    train_ar(logs, ar, GEN, lr=1e-2, epochs=2, batch_size=7, seed=4, loss_log=ar_losses)
    print("train_ar", params_digest(ar), digest(ar_losses))
    ar_slates = [ar_decode(r, ar, GEN) for r in reqs[:6]]
    print("ar_decode.after_train", digest([s.indices for s in ar_slates],
                                          [s.probabilities for s in ar_slates]))
    ev_losses = []
    train_evaluator(logs, ev, EV, lr=1e-2, epochs=2, batch_size=7, seed=4,
                    loss_log=ev_losses)
    print("train_evaluator", params_digest(ev), digest(ev_losses))
    read_logs_digests()
    simulator_digests()
    op_digests()
    edge_digests()
    cli_pipeline_digests()


if __name__ == "__main__":
    main()
