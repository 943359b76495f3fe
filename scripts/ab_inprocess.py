#!/usr/bin/env python3
"""Time two slaterank source trees against each other in one process.

    python3 scripts/ab_inprocess.py PARENT_SRC [CHANGE_SRC] [--pairs 10] [--scale tiny]
        [--workloads rerank,onepass,ar,cli.train_evaluator]

PARENT_SRC and CHANGE_SRC are directories that hold a `slaterank` package,
such as a checkout's `src/`; CHANGE_SRC defaults to this checkout's. Both are
imported side by side, as `slaterank_parent` and `slaterank_change`, so the
host's speed drifts through both alike. Every workload runs in pairs, and
within a pair the two trees take turns unit by unit, each going first in
every other turn: a unit is a whole training run, or one serving request.
A pair's ratio is the change's summed time over the parent's, and each
workload prints the median ratio, its quartiles and the number of pairs the
change was faster in. A serving workload also prints how many of its requests
picked another slate in the two trees (counted on the warm-up run);
`--workloads` runs only the named workloads, so a serving change need not
wait on the training units.

The workloads:
- train_generator, train_evaluator and train_ar at perfbench's config
  (`*.bench`: batch 32, n from 8 to 20, two epochs, one for train_ar) and at
  the desk config (`*.desk`: batch 256, n = 20, one epoch), each from
  freshly initialised parameters;
- cli.train_generator and cli.train_evaluator: the `train-generator` and
  `train-evaluator` commands through `cli.main` on the perfbench-shaped log,
  as perfbench's train_ragged runs them (reading the log, training, writing
  the checkpoint and the loss curve), each tree with its own out_dir, whose
  log cache the warm-up run fills, so the timed runs read the log from it;
- serving on n = 20: `onepass` is forward and contrastive_decode per
  request, `rerank` is forward, sample_slates and select_best, and `ar` is
  the AR pointer baseline's ar_decode.

Both trees train on the same log, which the change's simulator draws and
each tree reads back with its own read_logs, and serve with the same
parameters (the generator, the evaluator and the AR baseline), trained
once by the parent; a serving workload's "other slate" count is then its
exactness check. BLAS runs on one thread.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
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
MODULES = ("ar", "cli", "data", "decoding", "evaluator", "generator", "objectives",
           "simulator", "training")
SEED = 20260
# (requests in the perfbench-shaped log, in the desk log, serving requests per
# round, epochs of the generator and the evaluator)
SCALES = {"full": (384, 2048, 64, 2), "tiny": (24, 32, 2, 1)}
TRAINERS = ("generator", "evaluator", "ar")
WORKLOADS = (*(f"train_{kind}.{log}" for kind in TRAINERS for log in ("bench", "desk")),
             "cli.train_generator", "cli.train_evaluator", "onepass", "rerank", "ar")


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

    def __init__(self, sr, logs: dict, scale: tuple, out_dir: str):
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
        self.ar = sr.ar.init_ar_params(self.gen_cfg)
        # the commands' config: perfbench's train_ragged one, in this tree's out_dir
        os.makedirs(out_dir)
        self.config = os.path.join(out_dir, "run.cfg")
        cfg = self.gen_cfg
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write("\n".join([
                f"generator.n_max={cfg.n_max}", f"generator.d={cfg.d}", f"generator.h={cfg.h}",
                f"generator.L={cfg.L}", f"generator.d_t={cfg.d_t}", "train.lr=0.01",
                "train.batch_size=32", f"train.epochs={self.epochs}",
                f"paths.train_log={logs['bench']}", f"paths.out_dir={out_dir}",
                f"paths.generator_checkpoint={os.path.join(out_dir, 'generator.npz')}",
                f"paths.evaluator_checkpoint={os.path.join(out_dir, 'evaluator.npz')}",
            ]) + "\n")

    def train(self) -> None:
        """Train the serving models on the perfbench-shaped log."""
        self.sr.training.train_generator(self.logs["bench"], self.gen, self.gen_cfg, self.spec,
                                         lr=1e-2, epochs=self.epochs, batch_size=32)
        self.sr.evaluator.train_evaluator(self.logs["bench"], self.ev, self.ev_cfg, lr=1e-2,
                                          epochs=self.epochs, batch_size=32)
        self.sr.training.train_ar(self.logs["bench"], self.ar, self.gen_cfg, lr=1e-2,
                                  batch_size=32)

    def adopt(self, other: "Tree") -> None:
        """Serve with the other tree's parameters."""
        for mine, theirs in ((self.gen, other.gen), (self.ev, other.ev), (self.ar, other.ar)):
            for name, t in theirs.items():
                mine[name].data[...] = t.data

    def workloads(self, names) -> dict:
        """workload name -> its units, each a callable timed on its own, for
        the named workloads. A serving unit returns its slate."""
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

        def command(name):
            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = sr.cli.main([name, "--config", self.config])
                if code:
                    raise SystemExit(f"{name} exited with {code}")
            return run

        def onepass(req):
            return lambda: sr.decoding.contrastive_decode(
                sr.generator.forward(req, self.gen, self.gen_cfg), self.decode)

        def rerank(req):
            def run():
                probs = sr.generator.forward(req, self.gen, self.gen_cfg)
                slates = sr.decoding.sample_slates(
                    probs, self.decode, np.random.default_rng([SEED, req.request_id]))
                return sr.evaluator.select_best(req, slates, self.ev, self.ev_cfg)
            return run

        def ar(req):
            return lambda: sr.ar.ar_decode(req, self.ar, self.gen_cfg)

        units = {}
        for kind, bench_cfg, desk_cfg, bench_epochs in (
                ("generator", self.gen_cfg, self.desk_cfg, self.epochs),
                ("evaluator", self.ev_cfg, self.ev_cfg, self.epochs),
                ("ar", self.gen_cfg, self.desk_cfg, 1)):
            units[f"train_{kind}.bench"] = [trainer("bench", kind, bench_cfg, 32, bench_epochs)]
            units[f"train_{kind}.desk"] = [trainer("desk", kind, desk_cfg, 256, 1)]
        for kind in ("generator", "evaluator"):
            units[f"cli.train_{kind}"] = [command(f"train-{kind}")]
        units["onepass"] = [onepass(req) for req in self.pool]
        units["rerank"] = [rerank(req) for req in self.pool]
        units["ar"] = [ar(req) for req in self.pool]
        return {name: units[name] for name in names}


def seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def other_slates(parent_units: list, change_units: list) -> str:
    """How many of the N units return another slate in the two trees, as
    "k/N", or "-" where the units return no slate. Running them is also the
    warm-up: caches, memo, allocator."""
    outputs = [(p(), c()) for p, c in zip(parent_units, change_units)]
    if not hasattr(outputs[0][0], "indices"):
        return "-"
    return f"{sum(p.indices != c.indices for p, c in outputs)}/{len(outputs)}"


def compare(parent: dict, change: dict, pairs: int) -> tuple[dict, dict]:
    """(workload -> the change/parent time ratio of each pair, workload ->
    its `other_slates` count). Each workload is a list of units, run once in
    both trees before the first pair."""
    ratios = {name: [] for name in parent}
    others = {name: other_slates(parent[name], change[name]) for name in parent}
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
    return ratios, others


def report(ratios: dict, others: dict) -> list[str]:
    lines = [f"{'workload':<24} {'pairs':>5} {'median':>7} {'q1':>7} {'q3':>7}  "
             f"change faster  other slate"]
    for name, r in ratios.items():
        q1, med, q3 = (statistics.quantiles(r, n=4, method="inclusive") if len(r) > 1
                       else (r[0],) * 3)
        wins = sum(x < 1.0 for x in r)
        lines.append(f"{name:<24} {len(r):>5} {med:>7.3f} {q1:>7.3f} {q3:>7.3f}  "
                     f"{wins}/{len(r)}  {others[name]}")
    return lines


def workload_names(text: str) -> list[str]:
    names = text.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(unknown)}; valid: {', '.join(WORKLOADS)}")
    return names


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent_src")
    p.add_argument("change_src", nargs="?", default=str(HERE_SRC))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    p.add_argument("--workloads", type=workload_names, default=list(WORKLOADS),
                   help=f"comma-separated, from {','.join(WORKLOADS)} (default: all)")
    args = p.parse_args(argv)
    scale = SCALES[args.scale]
    parent_sr = load(args.parent_src, "slaterank_parent")
    change_sr = load(args.change_src, "slaterank_change")
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        logs = {name: os.path.join(tmp, f"{name}.jsonl") for name in ("bench", "desk")}
        write_log(change_sr, logs["bench"], range(8, 21), scale[0], rng)
        write_log(change_sr, logs["desk"], (20,), scale[1], rng)
        parent = Tree(parent_sr, logs, scale, os.path.join(tmp, "parent"))
        change = Tree(change_sr, logs, scale, os.path.join(tmp, "change"))
        parent.train()
        change.adopt(parent)
        print("\n".join(report(*compare(parent.workloads(args.workloads),
                                         change.workloads(args.workloads), args.pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
