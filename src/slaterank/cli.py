"""Command-line entry points.

One flat config (see configs.py) drives every subcommand; `--set key=value`
overrides individual keys on top of `--config`. The exit codes are tabled
in the docstring of errors.py.

Pointwise report metrics (AUC, LogLoss, NDCG) always target the first of
`utility.types`, which are also the evaluator's head types; Recall@k
targets exposure prediction.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .ar import init_ar_params
from .bench import run_bench
from .configs import (RunConfig, apply_overrides, check_pipeline, load_config,
                      unweighted_types)
from .data import LogSchema, read_logs, write_jsonl, write_logs
from .decoding import sample_slates
from .errors import ConfigError, CheckpointError, DataError, SlaterankError
from .evaluator import init_evaluator_params, score_slate, score_slates, train_evaluator
from .generator import forward, init_generator_params
from .metrics import EvalReport, auc, logloss, ndcg, recall_at_k
from .numerics import load_checkpoint, save_checkpoint
from .simulator import POLICIES, World, gen_log
from .training import check_trainable_m, steps_to_csv, train_ar, train_generator

_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head -1`


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap onto ConfigError
    so every usage problem leaves the process with code 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="slaterank", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("simulate", help="log synthetic requests to JSONL")
    common(p)
    p.add_argument("--policy", choices=POLICIES, default="random")
    p.add_argument("--out", help="output log path (default: paths.train_log)")
    p.add_argument("--num-requests", type=int, dest="num_requests")
    p.add_argument("--start-id", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    for command, text in (("train-generator", "fit the one-shot generator"),
                          ("train-evaluator", "fit the listwise evaluator"),
                          ("train-ar", "fit the sequential pointer baseline")):
        p = sub.add_parser(command, help=text)
        common(p)
        p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="rerank logged requests end to end")
    common(p)
    p.add_argument("--out", help="slates JSONL path (default: out_dir/slates.jsonl)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a test log into an EvalReport")
    common(p)
    p.add_argument("--out", help="report CSV path (default: out_dir/eval.csv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="NAR vs AR latency comparison")
    common(p)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--out", help="report CSV path (default: out_dir/bench.csv)")
    p.set_defaults(func=cmd_bench)

    return parser


def _writable(path: str) -> str:
    """`path`, once it is found to be non-empty, its directory to exist and
    `path` itself not to be a directory. Commands call this for every output
    before any work, so each fault fails at once (ConfigError) and not when
    the output is written after a run."""
    if not path:
        raise ConfigError(f"cannot write {path}: the path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    try:
        os.scandir(os.path.dirname(path) or os.curdir).close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    return path


def _out_path(run: RunConfig, override, default_name: str) -> str:
    """The output file, checked by `_writable`: `override`, or default_name
    under paths.out_dir, which is made here (ConfigError if it cannot be)."""
    if override:
        return _writable(override)
    try:
        os.makedirs(run.paths.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"paths.out_dir {run.paths.out_dir!r} cannot be made: "
                          f"{exc.strerror}") from None
    return _writable(os.path.join(run.paths.out_dir, default_name))


def _quiet_world_call(fn, *args, **kwargs):
    """Run a simulator call, printing its clamp warning as a note on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        result = fn(*args, **kwargs)
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            print(f"note: {w.message}", file=sys.stderr)
    return result


def _generator_meta(cfg) -> dict:
    return {"kind": "generator", "n_max": cfg.n_max, "m": cfg.m, "d": cfg.d,
            "h": cfg.h, "L": cfg.L, "d_x": cfg.d_x, "d_t": cfg.d_t}


def _evaluator_meta(cfg) -> dict:
    return {"kind": "evaluator", "d": cfg.d, "h": cfg.h, "d_x": cfg.d_x,
            "m": cfg.m, "types": list(cfg.types)}


def _load_matching(path, want: dict, expected):
    """Load a checkpoint whose meta matches `want` and whose parameters have
    the names and shapes of `expected` (the freshly initialized params) and
    finite values."""
    params, meta = load_checkpoint(path)
    for key, value in want.items():
        if meta.get(key) != value:
            raise CheckpointError(
                f"{path}: checkpoint has {key}={meta.get(key)!r}, "
                f"config expects {value!r}")
    for name, tensor in expected.items():
        if name not in params:
            raise CheckpointError(f"{path}: checkpoint lacks parameter {name}")
        if params[name].shape != tensor.shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {params[name].shape}, "
                f"config expects {tensor.shape}")
        if not np.isfinite(params[name].data).all():
            raise CheckpointError(f"{path}: parameter {name} has non-finite values")
    extra = sorted(set(params.names()) - set(expected.names()))
    if extra:
        raise CheckpointError(f"{path}: checkpoint has unexpected parameters {extra}")
    return params


# read_logs keeps its table cache in this directory under paths.out_dir
LOG_CACHE_DIR = "log_cache"


def _read_log(run: RunConfig, path, cfg):
    """A non-empty log, as one LogTable, whose every record fits the model
    config `cfg`: feature width, slate length and, for the generator, n_max."""
    logs = read_logs(path, LogSchema(cfg.d_x, cfg.m, getattr(cfg, "n_max", None)),
                     cache_dir=os.path.join(run.paths.out_dir, LOG_CACHE_DIR))
    if not logs:
        raise DataError(f"{path} is empty")
    return logs


def cmd_simulate(run: RunConfig, args) -> int:
    out = _writable(args.out or run.paths.train_log)
    world = World(run.world)
    count = run.num_requests if args.num_requests is None else args.num_requests
    rng = np.random.default_rng(run.seed)
    logs = _quiet_world_call(gen_log, world, args.policy, count, rng,
                             start_id=args.start_id)
    write_logs(out, logs)
    print(f"wrote {len(logs)} {args.policy} requests to {out}")
    return 0


def cmd_train(run: RunConfig, args) -> int:
    """train-generator, train-evaluator or train-ar: fit the model on the
    training log, then write its checkpoint and its loss curve."""
    kind = args.command.removeprefix("train-")
    cfg = run.evaluator if kind == "evaluator" else run.generator
    if kind != "evaluator":
        check_trainable_m(cfg.m)
    curve = _out_path(run, None, f"{kind}_loss.csv")
    checkpoint = _writable(getattr(run.paths, f"{kind}_checkpoint"))
    name = {"ar": "AR baseline"}.get(kind, kind)
    logs = _read_log(run, run.paths.train_log, cfg)
    # both trainers need a utility weight for every logged type; the
    # evaluator also needs every head type logged (train_evaluator's check)
    if kind != "ar" and (problem := unweighted_types(run.utility, logs.types, "logged")):
        raise ConfigError(problem)
    fit = dict(lr=run.train.lr, epochs=run.train.epochs,
               batch_size=run.train.batch_size, seed=run.train.seed)
    curve_log: list = []  # TrainSteps for the generator, mean losses otherwise
    if kind == "generator":
        params = init_generator_params(cfg)
        train_generator(logs, params, cfg, run.utility, omega=run.train.omega,
                        rho=run.train.rho, objective=run.train.objective,
                        step_log=curve_log, **fit)
        meta = _generator_meta(cfg)
        summary = f"{run.train.objective}, final loss {curve_log[-1].total:.4f}"
    elif kind == "evaluator":
        params = init_evaluator_params(cfg)
        train_evaluator(logs, params, cfg, loss_log=curve_log, **fit)
        meta = _evaluator_meta(cfg)
        summary = f"final BCE {curve_log[-1]:.4f}"
    else:
        params = init_ar_params(cfg)
        train_ar(logs, params, cfg, loss_log=curve_log, **fit)
        meta = dict(_generator_meta(cfg), kind="ar")
        summary = f"final CE {curve_log[-1]:.4f}"
    save_checkpoint(checkpoint, params, meta=meta)
    with open(curve, "w", encoding="utf-8") as fh:
        if kind == "generator":
            fh.write(steps_to_csv(curve_log))
        else:
            fh.write("step,loss\n")
            fh.writelines(f"{i},{loss!r}\n" for i, loss in enumerate(curve_log))
    print(f"trained {name} on {len(logs)} requests ({summary}); "
          f"checkpoint {checkpoint}, curve {curve}")
    return 0


def _rerank_setup(run: RunConfig, out, default_name: str):
    """The output path, both checkpoints and the test log of generate and
    evaluate. The run config gives the evaluator the generator's slate shape."""
    out = _out_path(run, out, default_name)
    gen, ev = run.generator, run.evaluator
    gen_params = _load_matching(run.paths.generator_checkpoint, _generator_meta(gen),
                                init_generator_params(gen))
    ev_params = _load_matching(run.paths.evaluator_checkpoint, _evaluator_meta(ev),
                               init_evaluator_params(ev))
    logs = _read_log(run, run.paths.test_log, gen)
    return out, gen_params, ev_params, logs


def cmd_generate(run: RunConfig, args) -> int:
    out, gen_params, ev_params, logs = _rerank_setup(run, args.out, "slates.jsonl")
    # a pool of more than one slate draws top-k proposals from every request
    if run.decode.num_samples > 1:
        fewest = int(np.argmin(logs.n))
        if run.decode.k > logs.n[fewest]:
            raise ConfigError(f"decode.k={run.decode.k} exceeds the {logs.n[fewest]} "
                              f"candidates of request {logs.request_id[fewest]}")
    rng = np.random.default_rng(run.seed)
    rows = []
    for log in logs:
        req = log.request
        probs = forward(req, gen_params, run.generator)
        slates = sample_slates(probs, run.decode, rng)
        # one evaluator pass scores every proposal; the first maximum wins,
        # as in select_best
        utilities = score_slates(req, slates, ev_params, run.evaluator)
        best = int(np.argmax(utilities))
        rows.append({"request_id": req.request_id,
                     "slate": [int(i) for i in slates[best].indices],
                     "utility": float(utilities[best])})
    write_jsonl(out, rows)
    mean_u = float(np.mean([r["utility"] for r in rows]))
    print(f"reranked {len(rows)} requests to {out} "
          f"(mean predicted utility {mean_u:.4f})")
    return 0


def cmd_evaluate(run: RunConfig, args) -> int:
    out_file, gen_params, ev_params, logs = _rerank_setup(run, args.out, "eval.csv")
    target = run.utility.types[0]
    if target not in logs.types:
        raise ConfigError(f"log feedback types {logs.types} do not include {target!r}, "
                          f"the first of utility.types {run.utility.types}")

    m = run.generator.m
    ks = sorted({1, max(1, m // 2), m})
    recall_sums = {k: 0.0 for k in ks}
    scores, labels = [], []
    for log in logs:
        req = log.request
        probs = forward(req, gen_params, run.generator)
        for k in ks:
            recall_sums[k] += recall_at_k(probs, log.exposed, k)
        # the target is the first type, so its scores are the first head's
        scores.append(score_slate(req, log.exposed, ev_params, run.evaluator).scores[0])
        labels.append(log.feedback.row(target))
    mean_ndcg, num_skipped = ndcg(scores, labels)
    report = EvalReport(auc=auc(scores, labels),
                        logloss=logloss(scores, labels),
                        ndcg=mean_ndcg,
                        recall={k: recall_sums[k] / len(logs) for k in ks},
                        num_requests=len(logs), num_lists=len(logs),
                        num_skipped=num_skipped)
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(report.pretty(), end="")
    print(f"report written to {out_file}")
    return 0


def cmd_bench(run: RunConfig, args) -> int:
    check_pipeline(run)
    out_file = _out_path(run, args.out, "bench.csv")
    report = run_bench(run, steps=args.steps, warmup=args.warmup,
                       batch_size=args.batch)
    with open(out_file, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(f"inference us/request: nar {report.nar_infer_mean * 1e6:.1f} "
          f"ar {report.ar_infer_mean * 1e6:.1f} "
          f"(ratio at m={report.ratio_m}: {report.infer_ratio:.2f})")
    print(f"forward passes/request: nar {report.nar_forwards_per_request} "
          f"ar {report.ar_forwards_per_request}")
    print(f"inference slope vs m: nar {report.nar_slope * 1e6:.1f} "
          f"ar {report.ar_slope * 1e6:.1f} us/position")
    print(f"report written to {out_file}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run = load_config(args.config) if args.config else RunConfig()
        return args.func(apply_overrides(run, args.set), args)
    except SlaterankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The recipe of the signal module's "Note on SIGPIPE": point stdout
        # at os.devnull, so the flush at exit does not raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return _EXIT_BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except OSError as exc:
        # Inputs that cannot be read raise errors of their own (DataError,
        # ConfigError), so what reaches here is an output that cannot be
        # written: a log, a checkpoint, a curve or a report.
        where = "" if exc.filename is None else f" {exc.filename}"
        print(f"error: cannot write{where}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
