"""Latency harness: one-shot matching generator vs sequential pointer decode.

Both models share the candidate encoder and run on the same requests, so
the measured gap isolates autoregression. Inference steps are single
requests (forward + decode); training steps are one minibatch Adam update
through the real training loops. The first `warmup` steps of every series
are discarded by contract. Wall-clock numbers vary across machines; the
stable claims are the forward-pass counts and the scaling shape, which is
why the report also records exact counts and linear-fit slopes over m.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .ar import ar_decode, init_ar_params
from .configs import RunConfig
from .data import CsvRecord
from .decoding import decode
from .errors import ConfigError
from .generator import forward, init_generator_params
from .numerics import Tape
from .simulator import World, gen_log, gen_request
from .training import train_ar, train_generator


@dataclass(frozen=True)
class BenchReport(CsvRecord):
    # the sweep writes one nar and one ar column per slate size, where its
    # three fields stand
    CSV_EXPAND = {
        "sweep_m": lambda r: [
            column for mv, nar, ar in zip(r.sweep_m, r.sweep_nar, r.sweep_ar)
            for column in ((f"nar_infer_m{mv}", nar), (f"ar_infer_m{mv}", ar))],
        "sweep_nar": lambda r: [], "sweep_ar": lambda r: []}

    batch_size: int
    m: int
    nar_infer_mean: float
    nar_infer_std: float
    ar_infer_mean: float
    ar_infer_std: float
    nar_train_mean: float
    nar_train_std: float
    ar_train_mean: float
    ar_train_std: float
    nar_forwards_per_request: int
    ar_forwards_per_request: int
    sweep_m: tuple[int, ...]
    sweep_nar: tuple[float, ...]
    sweep_ar: tuple[float, ...]
    nar_slope: float
    ar_slope: float
    ratio_m: int
    infer_ratio: float


def _time_series(steps, tasks, warmup: int) -> list[tuple[np.ndarray, int]]:
    """Seconds per task and exact forward passes per task of each of
    `steps`, the first `warmup` tasks left out of the seconds. Each
    step(task, tape) runs on a fresh non-recording tape whose `forwards` it
    counts. The steps take turns, one task each, so that a change of machine
    speed during the run falls on every series alike."""
    times, forwards = [[] for _ in steps], [0] * len(steps)
    for i, task in enumerate(tasks):
        for k, step in enumerate(steps):
            tape = Tape(recording=False)
            start = time.perf_counter()
            step(task, tape)
            elapsed = time.perf_counter() - start
            forwards[k] += tape.forwards
            if i >= warmup:
                times[k].append(elapsed)
    if any(total % len(tasks) for total in forwards):
        raise ConfigError(f"forward counts {forwards} not divisible by "
                          f"{len(tasks)} tasks")
    return [(np.asarray(t), total // len(tasks)) for t, total in zip(times, forwards)]


def run_bench(run: RunConfig, *, steps: int = 100, warmup: int = 10,
              batch_size: int = 8, sweep_m: tuple[int, ...] = (1, 2, 4, 6, 8),
              ratio_m: int = 5) -> BenchReport:
    """Inference is timed once per distinct slate size among the configured
    m, sweep_m and ratio_m, NAR and AR in turn, one request each; training
    is timed NAR and AR in turn, one minibatch update each. The sweep and
    the slopes read the series' means; infer_ratio is the median of the
    ratio_m series' per-request AR/NAR ratios, each from two back-to-back
    timings, so that neither a few stalled requests nor a change of machine
    speed during the series can move it."""
    if steps < 1 or warmup < 0 or batch_size < 1:
        raise ConfigError("steps, warmup and batch_size must be positive")
    world = World(run.world)
    rng = np.random.default_rng(run.seed)
    requests = [gen_request(world, rng, request_id=i)
                for i in range(steps + warmup)]
    series = {}  # slate size -> its NAR and AR (times, forwards per request)
    for mv in dict.fromkeys((run.generator.m, *sweep_m, ratio_m)):
        cfg = replace(run.generator, m=mv)
        gen, ar = init_generator_params(cfg), init_ar_params(cfg)
        series[mv] = _time_series(
            (lambda req, tape: decode(forward(req, gen, cfg, tape), run.decode),
             lambda req, tape: ar_decode(req, ar, cfg, tape)), requests, warmup)
    (nar_times, nar_fwd), (ar_times, ar_fwd) = series[run.generator.m]
    sweep_nar = [float(series[mv][0][0].mean()) for mv in sweep_m]
    sweep_ar = [float(series[mv][1][0].mean()) for mv in sweep_m]
    nar_slope = float(np.polyfit(sweep_m, sweep_nar, 1)[0])
    ar_slope = float(np.polyfit(sweep_m, sweep_ar, 1)[0])
    (r_nar_times, _), (r_ar_times, _) = series[ratio_m]

    # Training steps: one real minibatch update per timed step.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        logs = gen_log(world, "random", batch_size, rng)
    gen_params = init_generator_params(run.generator)
    ar_params = init_ar_params(run.generator)
    train = run.train
    (nar_train, _), (ar_train, _) = _time_series(
        (lambda _, tape: train_generator(
            logs, gen_params, run.generator, run.utility, lr=train.lr, epochs=1,
            batch_size=batch_size, omega=train.omega, rho=train.rho,
            objective=train.objective, seed=0),
         lambda _, tape: train_ar(logs, ar_params, run.generator, lr=train.lr,
                                  epochs=1, batch_size=batch_size, seed=0)),
        range(steps + warmup), warmup)

    return BenchReport(
        batch_size=batch_size, m=run.generator.m,
        nar_infer_mean=float(nar_times.mean()), nar_infer_std=float(nar_times.std()),
        ar_infer_mean=float(ar_times.mean()), ar_infer_std=float(ar_times.std()),
        nar_train_mean=float(nar_train.mean()), nar_train_std=float(nar_train.std()),
        ar_train_mean=float(ar_train.mean()), ar_train_std=float(ar_train.std()),
        nar_forwards_per_request=nar_fwd, ar_forwards_per_request=ar_fwd,
        sweep_m=tuple(sweep_m), sweep_nar=tuple(sweep_nar),
        sweep_ar=tuple(sweep_ar), nar_slope=nar_slope, ar_slope=ar_slope,
        ratio_m=ratio_m,
        infer_ratio=float(np.median(r_ar_times / r_nar_times)))
