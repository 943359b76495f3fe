#!/usr/bin/env python3
"""Run one benchmark workload against the slaterank sources in this checkout.

    python3 perfbench/run.py --workload rerank_pool8 --seed 1 --seconds 12 --trace 0

The package is imported from `src/` next to this directory; nothing is
installed. `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer ones from a run whose rounds alternate between
traced and untraced. Each metric is printed on its own line with its unit,
and the last line of stdout is the result as JSON. The exit code is 0 only
when every output check passed.
"""

import os

# Pin BLAS to one thread before NumPy loads: the loop has one client.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Share of the traced time, timed outside the tracer, that the span self
# times may leave uncovered: the root span's own entry and exit.
SPAN_COVER_TOL = 0.01


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(workload, seed, seconds, trace, workdir):
    """Set up SETUP_REPEATS times, then run whole rounds until `seconds`
    have passed (at least one, and in a traced run one of each kind).
    Each set-up is kept as (seconds, speed-reference median during it)."""
    from spans import Tracer
    from workloads import Stats, timed

    setup, one_round, check = workload
    stats = Stats()
    tracer = Tracer() if trace else None
    setup_seconds = []
    for _ in range(SETUP_REPEATS):
        with tracer or nullcontext():
            state, timing = timed(stats.reference, setup, seed, workdir, stats.reference)
        setup_seconds.append(timing)
        for command, elapsed in state.train_seconds.items():
            stats.train_seconds[command].append(elapsed)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 0
        with tracer if traced else nullcontext():
            one_round(state, stats, tracer if traced else None, rounds == 0)
        rounds += 1
    quality = check(state, stats)
    return stats, tracer, setup_seconds, quality


def end_to_end(stats, setup_seconds, quality):
    """(bounded metrics, figures printed beside them). A time in `ref` is
    divided by the median time of the speed reference sampled next to it:
    through the serving loops, or through each training run
    (see workloads.SpeedReference). Set-up time is divided the same way by
    the samples taken through each set-up, then given in seconds at the
    reference's nominal speed, NOMINAL_REFERENCE_S."""
    from workloads import NOMINAL_REFERENCE_S, TRAINED_PER_RUN

    serve_ref = stats.reference.seconds("serve")
    p50 = statistics.median(stats.latencies)

    def per_pass(command, normalize):
        # The median over training runs: now and then one run's time jumps
        # by half against the reference sampled through it.
        runs = stats.train_seconds[command]
        return statistics.median(s / r if normalize else s for s, r in runs) / TRAINED_PER_RUN

    bounded = {
        "setup_s": statistics.median(s / r for s, r in setup_seconds) * NOMINAL_REFERENCE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "request_p50_ref": p50 / serve_ref,
        "generator_train_ref": per_pass("train-generator", True),
        "evaluator_train_ref": per_pass("train-evaluator", True),
        **quality,
    }
    printed = {
        "setup_wall_s": (statistics.median(s for s, _ in setup_seconds), "s"),
        "request_p50_ms": (1e3 * p50, "ms"),
        "request_p99_ms": (1e3 * float(np.percentile(stats.latencies, 99)), "ms"),
        "requests_per_s": (len(stats.latencies) / stats.serve_seconds, "requests/s"),
        "generator_train_rps": (1.0 / per_pass("train-generator", False), "requests/s"),
        "evaluator_train_rps": (1.0 / per_pass("train-evaluator", False), "requests/s"),
        "reference_ms": (1e3 * serve_ref, "ms"),
    }
    return bounded, printed


def tracing_overhead(stats) -> float:
    """Seconds the wrappers add per traced unit: the traced median request
    latency minus the untraced one. In train_ragged, whose held-out requests
    are never traced, the training commands' seconds per logged request in
    traced rounds minus those in untraced rounds."""
    if stats.traced_latencies:
        return statistics.median(stats.traced_latencies) - statistics.median(stats.latencies)
    seconds, units = stats.command_seconds, stats.command_units
    return seconds[True] / units[True] - seconds[False] / units[False]


def per_layer(names, stats, tracer):
    """Self time (ms) and calls per traced unit: a request, or in
    train_ragged a logged request trained. Set-up spans only feed
    simulator.gen_log.self_s, in seconds per set-up."""
    per = stats.traced_units
    own = tracer.self_seconds()
    in_setup = tracer.self_seconds(setup=True)
    calls = tracer.calls()
    tallies = tracer.tallies
    decoder_calls = calls["decoding.contrastive_decode"] + calls["decoding.topk_sample"]
    values = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name == "decoding.proposal_yield":
            proposals = tallies["decoding.sample_slates"]
            values[name] = proposals / decoder_calls if proposals else 0.0
        elif name == "numerics.tape_ops":
            backward = calls["numerics.Tape.backward"]
            values[name] = tallies["numerics.Tape.backward"] / backward if backward else 0.0
        elif name == "trace.overhead_ms":
            values[name] = 1e3 * tracing_overhead(stats)
        elif kind == "self_ms":
            values[name] = 1e3 * own[span] / per
        elif kind == "calls":
            values[name] = calls[span] / per
        elif kind == "self_s":
            values[name] = in_setup[span] / SETUP_REPEATS
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slaterank" / "__init__.py").is_file():
        print(f"error: no slaterank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# python {platform.python_version()} numpy {np.__version__} "
          f"nproc {os.cpu_count()} usable cpus {len(os.sched_getaffinity(0))} "
          + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        stats, tracer, setup_seconds, quality = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer([m["name"] for m in wanted], stats, tracer)
        spans_total = sum(tracer.self_seconds().values())
        outside = stats.traced_seconds
        print(f"# span self times add up to {spans_total:.6f} s of {outside:.6f} s "
              f"traced request time timed outside the tracer; {len(tracer.spans)} spans")
        if not (1.0 - SPAN_COVER_TOL) * outside <= spans_total <= outside:
            stats.problems.append(f"span self times {spans_total:.6f} s do not add up to "
                                  f"the traced request time {outside:.6f} s")
        if tracer.missing:
            print(f"# missing trace targets: {', '.join(sorted(tracer.missing))}")
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, printed = end_to_end(stats, setup_seconds, quality)

    for message in stats.failures[:5]:
        print(f"failed: {message}", file=sys.stderr)
    for message in stats.problems[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    if len(stats.problems) > 10:
        print(f"check failed: {len(stats.problems) - 10} more", file=sys.stderr)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        # Raw wall-clock figures, printed without a bound: between runs of
        # one commit on a 2-vCPU virtual machine they moved by 20% to 140%.
        for name, (value, unit) in printed.items():
            print(f"# {name} {value:.6g} {unit}")
    print(f"requests attempted {stats.attempted} failed {stats.failed}")
    correct = not stats.problems
    print(json.dumps({"correct": correct, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
