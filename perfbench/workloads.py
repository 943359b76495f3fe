"""The four workloads: seeded inputs, set-up, one timed round, output checks.

Load is one client in a closed loop: each request starts after the previous
one returns. A run repeats whole rounds (one pass over the workload's
requests) until `--seconds` have passed. The seed fixes every input: the
logs and the request pool drawn from the simulator's fixed world. Model
configs and training settings are the constants below, so the program sees
only the generated inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import statistics
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from slaterank import (ar, cli, data, decoding, evaluator, generator, metrics,
                       numerics, simulator, training)
from slaterank.errors import SlaterankError
from slaterank.objectives import UtilitySpec

import reference as ref
from spans import TARGETS, Tracer

GEN_CFG = generator.GeneratorConfig(n_max=20, m=6, d=16, h=2, L=1, d_x=10, d_t=8)
EV_CFG = evaluator.EvaluatorConfig()
DECODE_CFG = decoding.DecodeConfig()
SPEC = UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=1.0)
LR = 1e-2
BATCH = 32
# Generator and evaluator train two epochs everywhere: after one, held-out
# Recall@6 spread by about 12% between seeds and the held-out utility of
# train_ragged by about 19%. The AR baseline, which no metric trains, one.
EPOCHS = 2
TRAIN_REQUESTS = 384
TRAINED_PER_RUN = TRAIN_REQUESTS * EPOCHS  # request passes per training run
HELDOUT_REQUESTS = 512
POOL_REQUESTS = 256
SERVING_N = (20,)
RAGGED_N = tuple(range(8, 21))
WORLD_SEED = 0
WARMUP_REQUESTS = 8
REFERENCE_EVERY = 8  # requests between two samples of the speed reference
# Samples before and after each timed set-up or training run. Few, so that
# the samples spread through the run outweigh these two instants.
REFERENCE_BURST = 3
# The speed reference's median time on the machine of the README's reference
# figures; set-up time is reported rescaled to this speed.
NOMINAL_REFERENCE_S = 3.0e-4
LOSS_WINDOW = 3
CHECK_SAMPLE = 32
RECALL_K = 6


class SpeedReference:
    """A fixed NumPy kernel, independent of slaterank, timed through a run.

    On a 2-vCPU virtual machine each vCPU flipped between a fast state and
    one about 1.6 times slower, every tenth of a second or so, and the share
    of time spent fast changed from minute to minute. A timing divided by this
    kernel's median time, sampled next to it in the same run, cancels most
    of that: between six runs of one commit the median request time moved
    by 49%, its ratio to the kernel by 11%.

    `samples` keeps each phase's samples, `history` every sample in order.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(20, 16))
        self._w = 0.3 * rng.normal(size=(16, 16))
        self.samples = defaultdict(list)
        self.history = []
        self.hooked = False

    def sample(self, phase: str, count: int = 1) -> float:
        """Time `count` passes of the kernel under `phase`; returns the
        seconds they took."""
        total = 0.0
        for _ in range(count):
            start = time.perf_counter()
            x = self._x
            for _ in range(10):
                y = x @ self._w
                y = np.exp(y - y.max(axis=1, keepdims=True))
                y = y / y.sum(axis=1, keepdims=True)
                x = 3.0 * (y - y.mean(axis=1, keepdims=True)) + self._x
            elapsed = time.perf_counter() - start
            self.samples[phase].append(elapsed)
            self.history.append(elapsed)
            total += elapsed
        return total

    def seconds(self, phase: str) -> float:
        return statistics.median(self.samples[phase])


@dataclass
class Stats:
    """What one run measured. Latencies are seconds per request; traced
    rounds keep theirs apart so the untraced figures carry no overhead."""

    latencies: list = field(default_factory=list)
    traced_latencies: list = field(default_factory=list)
    serve_seconds: float = 0.0
    # command -> [(seconds, speed-reference seconds)], one per training run
    train_seconds: dict = field(default_factory=lambda: defaultdict(list))
    traced_units: int = 0
    # Time of every traced request or command, taken outside the tracer.
    traced_seconds: float = 0.0
    # train_ragged: summed command seconds and logged requests, per kind of round
    command_seconds: dict = field(default_factory=lambda: {True: 0.0, False: 0.0})
    command_units: dict = field(default_factory=lambda: {True: 0, False: 0})
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    first: list = field(default_factory=list)  # (request, output, slate) of round 0
    keys: list | None = None  # slates emitted in round 0
    reference: SpeedReference = field(default_factory=SpeedReference)

    @contextlib.contextmanager
    def checking(self, where: str):
        try:
            yield
        except ref.CheckFailed as exc:
            self.problems.append(f"{where}: {exc}")


def _quiet(fn, *args, **kwargs):
    """Simulator calls warn on every clamped probability; drop those."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


# Calls after which the speed reference is sampled inside a timed run: every
# optimizer step of the training loops and every log the simulator draws.
_SAMPLED_SITES = ((training, "adam_step"), (evaluator, "adam_step"), (simulator, "gen_log"))


@contextlib.contextmanager
def _sample_inside(reference: SpeedReference):
    """Samples the speed reference after each call of the _SAMPLED_SITES, so
    `ref` follows the host's speed through a long run. Inside another such
    block it adds nothing."""
    if reference.hooked:
        yield
        return
    sites = [(module, name, getattr(module, name)) for module, name in _SAMPLED_SITES
             if hasattr(module, name)]

    def wrap(fn):
        @functools.wraps(fn)
        def sampled(*args, **kwargs):
            result = fn(*args, **kwargs)
            reference.sample("run")
            return result
        return sampled

    for module, name, fn in sites:
        setattr(module, name, wrap(fn))
    reference.hooked = True
    try:
        yield
    finally:
        reference.hooked = False
        for module, name, fn in sites:
            setattr(module, name, fn)


def timed(reference: SpeedReference, fn, *args, **kwargs):
    """(fn's result, (seconds it took, median seconds of the speed
    reference sampled before, during and after it)). The time of every
    sample taken during the call is not counted in the first."""
    first = len(reference.history)
    reference.sample("run", REFERENCE_BURST)
    with _sample_inside(reference):
        mark = len(reference.history)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start - sum(reference.history[mark:])
    reference.sample("run", REFERENCE_BURST)
    return result, (elapsed, statistics.median(reference.history[first:]))


def make_worlds(ns) -> dict:
    """One World per candidate count. World never reads n_candidates, so
    these share their users and items. The world stays the same for every
    seed: with a seeded world, held-out Recall@6 of the serving workloads
    spread by 14% to 25% between seeds, because some worlds are easier to
    imitate than others."""
    base = simulator.WorldConfig(seed=WORLD_SEED)
    return {n: simulator.World(replace(base, n_candidates=n)) for n in ns}


def make_log(worlds: dict, count: int, rng, start_id: int) -> list:
    """`count` logged requests, each with a candidate count drawn from the
    worlds' n and a slate from a drawn logging policy (random or
    affinity_greedy), so training fires both its CE and unlikelihood branch."""
    ns = sorted(worlds)
    n_draw = rng.choice(ns, size=count)
    policy_draw = rng.integers(len(simulator.POLICIES), size=count)
    logs = []
    for n in ns:
        for p, policy in enumerate(simulator.POLICIES):
            k = int(((n_draw == n) & (policy_draw == p)).sum())
            if k:
                logs += _quiet(simulator.gen_log, worlds[n], policy, k, rng,
                               start_id=start_id + len(logs))
    return [logs[i] for i in rng.permutation(len(logs))]


def serve(requests, request_fn, stats: Stats, tracer, rng_seed, keep: bool) -> None:
    """One closed-loop pass; request_fn(request, rng) -> (output, slate).
    rng_seed, when given, seeds a generator per request from its id."""
    keys = []
    paused = 0.0
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if i % REFERENCE_EVERY == 0:
            paused += stats.reference.sample("serve")
        rng = None if rng_seed is None else np.random.default_rng([rng_seed, req.request_id])
        stats.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out, slate = request_fn(req, rng)
            else:
                out, slate = tracer.run("request", stats.attempted, request_fn, req, rng)
        except SlaterankError as exc:
            stats.failed += 1
            stats.failures.append(f"request {req.request_id}: {exc}")
            keys.append(None)
            continue
        elapsed = time.perf_counter() - t0
        if tracer is None:
            stats.latencies.append(elapsed)
        else:
            stats.traced_latencies.append(elapsed)
            stats.traced_seconds += elapsed
        keys.append(ref.indices_of(slate))
        if keep:
            stats.first.append((req, out, slate))
    if tracer is None:
        stats.serve_seconds += time.perf_counter() - start - paused
    if stats.keys is None:
        stats.keys = keys
    elif keys != stats.keys:
        stats.problems.append("a later round emitted other slates than round 0")


def _onepass(params):
    def request(req, rng):
        probs = generator.forward(req, params, GEN_CFG)
        return probs, decoding.contrastive_decode(probs, DECODE_CFG)
    return request


def _recall(logs, probs_list) -> float:
    return float(np.mean([metrics.recall_at_k(p, log.exposed, RECALL_K)
                          for log, p in zip(logs, probs_list)]))


def _oracle(world, stats: Stats) -> float:
    """Mean oracle expected utility of round 0's slates; the first
    CHECK_SAMPLE are recomputed from the click model."""
    values = []
    for i, (req, _, slate) in enumerate(stats.first):
        value = _quiet(simulator.oracle_expected_utility, world, req, slate, SPEC)
        if i < CHECK_SAMPLE:
            with stats.checking(f"oracle, request {req.request_id}"):
                ref.check_oracle(world, req, slate, SPEC, value)
        values.append(value)
    return float(np.mean(values))


def _check_onepass(stats: Stats) -> None:
    for req, probs, slate in stats.first:
        with stats.checking(f"request {req.request_id}"):
            ref.check_prob_matrix(probs.values.data, req.n)
            ref.check_contrastive(probs, slate, DECODE_CFG.alpha)


# ---- serving workloads: rerank_pool8, onepass_contrastive, ar_pointer ----


@dataclass
class Serving:
    seed: int
    world: object
    pool: list
    heldout: list
    gen: object
    ev: object
    ar: object
    train_seconds: dict


def serving_setup(seed: int, workdir: str, reference: SpeedReference) -> Serving:
    """A seeded n=20 log with mixed exposure, a held-out log and a request
    pool; the generator, the evaluator and the AR baseline train on the log."""
    rng = np.random.default_rng(seed)
    worlds = make_worlds(SERVING_N)
    logs = make_log(worlds, TRAIN_REQUESTS, rng, 0)
    heldout = make_log(worlds, HELDOUT_REQUESTS, rng, TRAIN_REQUESTS)
    world = worlds[SERVING_N[-1]]
    first_id = TRAIN_REQUESTS + HELDOUT_REQUESTS
    pool = [simulator.gen_request(world, rng, request_id=first_id + i)
            for i in range(POOL_REQUESTS)]
    gen = generator.init_generator_params(GEN_CFG)
    ev = evaluator.init_evaluator_params(EV_CFG)
    seconds = {
        "train-generator": timed(reference, training.train_generator, logs, gen, GEN_CFG,
                                 SPEC, lr=LR, epochs=EPOCHS, batch_size=BATCH)[1],
        "train-evaluator": timed(reference, evaluator.train_evaluator, logs, ev, EV_CFG,
                                 lr=LR, epochs=EPOCHS, batch_size=BATCH)[1],
    }
    ar_params = training.train_ar(logs, ar.init_ar_params(GEN_CFG), GEN_CFG,
                                  lr=LR, batch_size=BATCH)
    return Serving(seed, world, pool, heldout, gen, ev, ar_params, seconds)


def _serving(request_fn, needs_rng: bool = False):
    def run_round(state: Serving, stats: Stats, tracer, first: bool) -> None:
        fn = request_fn(state)
        if first:
            for req in state.pool[:WARMUP_REQUESTS]:
                fn(req, np.random.default_rng(0))
        serve(state.pool, fn, stats, tracer, state.seed if needs_rng else None, keep=first)
        if tracer is not None:
            stats.traced_units += len(state.pool)
    return run_round


def _rerank(state: Serving):
    def request(req, rng):
        probs = generator.forward(req, state.gen, GEN_CFG)
        slates = decoding.sample_slates(probs, DECODE_CFG, rng)
        return (probs, slates), evaluator.select_best(req, slates, state.ev, EV_CFG)
    return request


def _ar(state: Serving):
    def request(req, rng):
        return None, ar.ar_decode(req, state.ar, GEN_CFG)
    return request


def _serving_quality(state: Serving, stats: Stats) -> dict:
    probs = [generator.forward(log.request, state.gen, GEN_CFG) for log in state.heldout]
    return {"oracle_utility": _oracle(state.world, stats),
            "heldout_recall_at_6": _recall(state.heldout, probs)}


def check_rerank(state: Serving, stats: Stats) -> dict:
    ev = {name: t.data for name, t in state.ev.items()}
    for req, (probs, slates), best in stats.first:
        with stats.checking(f"request {req.request_id}"):
            ref.check_prob_matrix(probs.values.data, req.n)
            want = ref.check_contrastive(probs, slates[0], DECODE_CFG.alpha)
            ref.check_proposals(slates, want, req.n, GEN_CFG.m, DECODE_CFG.num_samples)
            ref.check_select_best(
                req.features, slates, best, ev, EV_CFG,
                lambda s: evaluator.score_slate(req, s, state.ev, EV_CFG).utility)
    return _serving_quality(state, stats)


def check_onepass(state: Serving, stats: Stats) -> dict:
    _check_onepass(stats)
    return _serving_quality(state, stats)


def check_ar(state: Serving, stats: Stats) -> dict:
    for req, _, slate in stats.first:
        with stats.checking(f"request {req.request_id}"):
            ref.check_slate(slate, req.n, GEN_CFG.m)
    names = ("ar.ar_decode", "ar.ar_forward")
    counter = Tracer({name: TARGETS[name] for name in names})
    with counter:
        for i, req in enumerate(state.pool[:CHECK_SAMPLE]):
            counter.run("request", i, ar.ar_decode, req, state.ar, GEN_CFG)
    if counter.missing:
        stats.failures.append(f"ar_forward calls not counted, missing {sorted(counter.missing)}")
    else:
        per_request = Counter(s[4] for s in counter.spans if s[0] == "ar.ar_forward")
        with stats.checking("ar_decode"):
            ref.require(all(per_request[i] == GEN_CFG.m for i in range(CHECK_SAMPLE)),
                         f"ar_forward calls per ar_decode {sorted(set(per_request.values()))}, "
                         f"expected m={GEN_CFG.m}")
    return _serving_quality(state, stats)


# ---- train_ragged ----

_COMMANDS = (("train-generator", "generator_loss.csv", "total"),
             ("train-evaluator", "evaluator_loss.csv", "loss"))


@dataclass
class Ragged:
    world: object
    config: str
    out_dir: str
    heldout: list
    heldout_requests: list
    train_seconds: dict = field(default_factory=dict)  # timed in rounds instead


def ragged_setup(seed: int, workdir: str, reference: SpeedReference) -> Ragged:
    """Writes a JSONL log whose requests have 8..20 candidates and mixed
    exposure, plus the config file the two training commands read."""
    rng = np.random.default_rng(seed)
    worlds = make_worlds(RAGGED_N)
    logs = make_log(worlds, TRAIN_REQUESTS, rng, 0)
    heldout = make_log(worlds, HELDOUT_REQUESTS, rng, TRAIN_REQUESTS)
    log_path = os.path.join(workdir, "train.jsonl")
    data.write_logs(log_path, logs)
    config = os.path.join(workdir, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("\n".join([
            f"generator.n_max={GEN_CFG.n_max}", f"generator.d={GEN_CFG.d}",
            f"generator.h={GEN_CFG.h}", f"generator.L={GEN_CFG.L}",
            f"generator.d_t={GEN_CFG.d_t}", f"train.lr={LR}",
            f"train.batch_size={BATCH}", f"train.epochs={EPOCHS}",
            f"paths.train_log={log_path}", f"paths.out_dir={workdir}",
            f"paths.generator_checkpoint={os.path.join(workdir, 'generator.npz')}",
            f"paths.evaluator_checkpoint={os.path.join(workdir, 'evaluator.npz')}",
        ]) + "\n")
    return Ragged(worlds[RAGGED_N[-1]], config, workdir, heldout,
                  [log.request for log in heldout])


def _run_command(state: Ragged, stats: Stats, tracer, command, curve, column) -> None:
    """One CLI command as a user runs it. It fails when it exits non-zero or
    its loss curve holds a cell that is not a number."""
    args = [command, "--config", state.config]
    stats.attempted += 1
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if tracer is None:
            code, timing = timed(stats.reference, cli.main, args)
            stats.train_seconds[command].append(timing)
            stats.command_seconds[False] += timing[0]
        else:
            start = time.perf_counter()
            code = tracer.run("request", stats.attempted, cli.main, args)
            elapsed = time.perf_counter() - start
            stats.traced_seconds += elapsed
            stats.command_seconds[True] += elapsed
    try:
        if code != 0:
            raise ValueError(f"exit code {code}: {err.getvalue().strip()}")
        losses = ref.read_curve(os.path.join(state.out_dir, curve), column)
    except (OSError, ValueError) as exc:
        stats.failed += 1
        stats.failures.append(f"{command}: {exc}")
        return
    with stats.checking(f"{command} loss curve"):
        ref.check_loss_curve(losses, LOSS_WINDOW)


def ragged_round(state: Ragged, stats: Stats, tracer, first: bool) -> None:
    """Both training commands, traced or not, then the new checkpoint serves
    the held-out requests untraced: the round's per-layer figures cover the
    two commands only."""
    for command, curve, column in _COMMANDS:
        _run_command(state, stats, tracer, command, curve, column)
    stats.command_units[tracer is not None] += TRAIN_REQUESTS
    if tracer is not None:
        stats.traced_units += TRAIN_REQUESTS
    try:
        gen, _ = numerics.load_checkpoint(os.path.join(state.out_dir, "generator.npz"))
        ev, _ = numerics.load_checkpoint(os.path.join(state.out_dir, "evaluator.npz"))
    except SlaterankError as exc:
        stats.attempted += len(state.heldout_requests)
        stats.failed += len(state.heldout_requests)
        stats.failures.append(f"held-out serving: {exc}")
        return
    with stats.checking("generator checkpoint"):
        ref.check_checkpoint(gen, generator.init_generator_params(GEN_CFG))
    with stats.checking("evaluator checkpoint"):
        ref.check_checkpoint(ev, evaluator.init_evaluator_params(EV_CFG))
    serve(state.heldout_requests, _onepass(gen), stats, None, None, keep=first)


def check_ragged(state: Ragged, stats: Stats) -> dict:
    """Round 0's held-out matrices and slates, padded matrices on a sample,
    and Recall@6 against the random-slate baseline mean(m/n)."""
    _check_onepass(stats)
    gen, _ = numerics.load_checkpoint(os.path.join(state.out_dir, "generator.npz"))
    short = [r for r in state.heldout_requests if r.n < GEN_CFG.n_max][:CHECK_SAMPLE]
    for req in short:
        with stats.checking(f"padded request {req.request_id}"):
            probs = generator.forward(req, gen, GEN_CFG, pad_to=GEN_CFG.n_max)
            ref.check_prob_matrix(probs.values.data, req.n)
    recall = _recall(state.heldout, [out for _, out, _ in stats.first])
    baseline = float(np.mean([GEN_CFG.m / r.n for r in state.heldout_requests]))
    with stats.checking("held-out recall"):
        ref.require(recall > baseline, f"Recall@6 {recall:.4f} does not beat "
                     f"random slates' {baseline:.4f}")
    return {"oracle_utility": _oracle(state.world, stats), "heldout_recall_at_6": recall}


# name -> (set-up, one round, checks returning the quality metrics)
WORKLOADS = {
    "rerank_pool8": (serving_setup, _serving(_rerank, needs_rng=True), check_rerank),
    "onepass_contrastive": (serving_setup, _serving(lambda s: _onepass(s.gen)), check_onepass),
    "ar_pointer": (serving_setup, _serving(_ar), check_ar),
    "train_ragged": (ragged_setup, ragged_round, check_ragged),
}
