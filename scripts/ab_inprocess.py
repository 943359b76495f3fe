#!/usr/bin/env python3
"""Time two slaterank source trees against each other in one process.

    python3 scripts/ab_inprocess.py PARENT_SRC [CHANGE_SRC] [--pairs 10] [--scale tiny]

PARENT_SRC and CHANGE_SRC are directories that hold a `slaterank` package,
such as a checkout's `src/`; CHANGE_SRC defaults to this checkout's. Both are
imported side by side, as `slaterank_parent` and `slaterank_change`, so the
host's speed drifts through both alike. Every workload runs in pairs, and
within a pair the two trees take turns unit by unit, each going first in
every other turn: a unit is a whole training run, or one serving request.
A pair's ratio is the change's summed time over the parent's, and each
workload prints the median ratio, its quartiles and the number of pairs the
change was faster in.

The workloads:
- train_generator, train_evaluator and train_ar at perfbench's config
  (`*.bench`: batch 32, n from 8 to 20, two epochs, one for train_ar) and at
  the desk config (`*.desk`: batch 256, n = 20, one epoch), each from
  freshly initialised parameters;
- serving on n = 20: `onepass` is forward and contrastive_decode per
  request, `rerank` is forward, sample_slates and select_best.

Both trees train on the same log, which the change's simulator draws and
each tree reads back with its own read_logs, and serve with the same
parameters, trained once by the parent. BLAS runs on one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE_SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("ar", "data", "decoding", "evaluator", "generator", "objectives",
           "simulator", "training")
SEED = 20260
# (requests in the perfbench-shaped log, in the desk log, serving requests per
# round, epochs of the generator and the evaluator)
SCALES = {"full": (384, 2048, 64, 2), "tiny": (24, 32, 2, 1)}


def load(src, name: str) -> types.SimpleNamespace:
    """The slaterank package under `src`, imported as `name`."""
    init = Path(src, "slaterank", "__init__.py")
    if not init.is_file():
        raise SystemExit(f"no slaterank package in {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return types.SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                                    for m in MODULES})


def write_log(sr, path, ns, count: int, rng) -> None:
    """`count` requests, each with its n drawn from `ns` and its logging
    policy from the simulator's, shuffled and written as JSONL (as perfbench
    builds its logs)."""
    sim = sr.simulator
    n_draw = rng.choice(ns, size=count)
    policy_draw = rng.integers(len(sim.POLICIES), size=count)
    logs = []
    for n in sorted(set(ns)):
        world = sim.World(sim.WorldConfig(seed=0, n_candidates=int(n)))
        for p, policy in enumerate(sim.POLICIES):
            k = int(((n_draw == n) & (policy_draw == p)).sum())
            if k:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    logs += list(sim.gen_log(world, policy, k, rng, start_id=len(logs)))
    sr.data.write_logs(path, [logs[i] for i in rng.permutation(len(logs))])


class Tree:
    """One source tree's models, logs and timed workloads."""

    def __init__(self, sr, logs: dict, scale: tuple):
        self.sr = sr
        _, _, self.serve_count, self.epochs = scale
        self.gen_cfg = sr.generator.GeneratorConfig(n_max=20, m=6, d=16, h=2, L=1,
                                                    d_x=10, d_t=8)
        self.desk_cfg = sr.generator.GeneratorConfig(d=16, h=2, L=1, d_t=8)
        self.ev_cfg = sr.evaluator.EvaluatorConfig()
        self.spec = sr.objectives.UtilitySpec(("click", "like"), (1.0, 0.5), 1.0)
        self.decode = sr.decoding.DecodeConfig()
        schema = sr.data.LogSchema(10, 6, 20)
        self.logs = {name: sr.data.read_logs(path, schema) for name, path in logs.items()}
        world = sr.simulator.World(sr.simulator.WorldConfig(seed=0))
        rng = np.random.default_rng(SEED + 1)
        self.pool = [sr.simulator.gen_request(world, rng, request_id=i)
                     for i in range(self.serve_count)]
        self.gen = sr.generator.init_generator_params(self.gen_cfg)
        self.ev = sr.evaluator.init_evaluator_params(self.ev_cfg)

    def train(self) -> None:
        """Train the serving models on the perfbench-shaped log."""
        self.sr.training.train_generator(self.logs["bench"], self.gen, self.gen_cfg, self.spec,
                                         lr=1e-2, epochs=self.epochs, batch_size=32)
        self.sr.evaluator.train_evaluator(self.logs["bench"], self.ev, self.ev_cfg, lr=1e-2,
                                          epochs=self.epochs, batch_size=32)

    def adopt(self, other: "Tree") -> None:
        """Serve with the other tree's parameters."""
        for mine, theirs in ((self.gen, other.gen), (self.ev, other.ev)):
            for name, t in theirs.items():
                mine[name].data[...] = t.data

    def workloads(self) -> dict:
        """workload name -> its units, each a callable timed on its own."""
        sr = self.sr

        def trainer(log, kind, cfg, batch, epochs):
            table = self.logs[log]
            if kind == "generator":
                return lambda: sr.training.train_generator(
                    table, sr.generator.init_generator_params(cfg), cfg, self.spec,
                    lr=1e-2, epochs=epochs, batch_size=batch)
            if kind == "evaluator":
                return lambda: sr.evaluator.train_evaluator(
                    table, sr.evaluator.init_evaluator_params(cfg), cfg,
                    lr=1e-2, epochs=epochs, batch_size=batch)
            return lambda: sr.training.train_ar(
                table, sr.ar.init_ar_params(cfg), cfg, lr=1e-2, epochs=epochs,
                batch_size=batch)

        def onepass(req):
            return lambda: sr.decoding.contrastive_decode(
                sr.generator.forward(req, self.gen, self.gen_cfg), self.decode)

        def rerank(req):
            def run():
                probs = sr.generator.forward(req, self.gen, self.gen_cfg)
                slates = sr.decoding.sample_slates(
                    probs, self.decode, np.random.default_rng([SEED, req.request_id]))
                sr.evaluator.select_best(req, slates, self.ev, self.ev_cfg)
            return run

        units = {}
        for kind, bench_cfg, desk_cfg, bench_epochs in (
                ("generator", self.gen_cfg, self.desk_cfg, self.epochs),
                ("evaluator", self.ev_cfg, self.ev_cfg, self.epochs),
                ("ar", self.gen_cfg, self.desk_cfg, 1)):
            units[f"train_{kind}.bench"] = [trainer("bench", kind, bench_cfg, 32, bench_epochs)]
            units[f"train_{kind}.desk"] = [trainer("desk", kind, desk_cfg, 256, 1)]
        units["onepass"] = [onepass(req) for req in self.pool]
        units["rerank"] = [rerank(req) for req in self.pool]
        return units


def seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def compare(parent: dict, change: dict, pairs: int) -> dict:
    """workload -> the change/parent time ratio of each pair. Each workload
    is a list of units, run once in both trees before the first pair."""
    ratios = {name: [] for name in parent}
    for name in parent:
        for unit in parent[name] + change[name]:
            unit()  # warm-up: caches, memo, allocator
    for i in range(pairs):
        for name in parent:
            p = c = 0.0
            for j, (p_unit, c_unit) in enumerate(zip(parent[name], change[name])):
                if (i + j) % 2 == 0:
                    p += seconds(p_unit)
                    c += seconds(c_unit)
                else:
                    c += seconds(c_unit)
                    p += seconds(p_unit)
            ratios[name].append(c / p)
    return ratios


def report(ratios: dict) -> list[str]:
    lines = [f"{'workload':<24} {'pairs':>5} {'median':>7} {'q1':>7} {'q3':>7}  change faster"]
    for name, r in ratios.items():
        q1, med, q3 = (statistics.quantiles(r, n=4, method="inclusive") if len(r) > 1
                       else (r[0],) * 3)
        wins = sum(x < 1.0 for x in r)
        lines.append(f"{name:<24} {len(r):>5} {med:>7.3f} {q1:>7.3f} {q3:>7.3f}  "
                     f"{wins}/{len(r)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent_src")
    p.add_argument("change_src", nargs="?", default=str(HERE_SRC))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = p.parse_args(argv)
    scale = SCALES[args.scale]
    parent_sr = load(args.parent_src, "slaterank_parent")
    change_sr = load(args.change_src, "slaterank_change")
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        logs = {name: os.path.join(tmp, f"{name}.jsonl") for name in ("bench", "desk")}
        write_log(change_sr, logs["bench"], range(8, 21), scale[0], rng)
        write_log(change_sr, logs["desk"], (20,), scale[1], rng)
        parent, change = Tree(parent_sr, logs, scale), Tree(change_sr, logs, scale)
    parent.train()
    change.adopt(parent)
    print("\n".join(report(compare(parent.workloads(), change.workloads(), args.pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
