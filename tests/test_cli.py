"""CLI tests: exit codes, output schemas, and byte-level rerun stability.

Commands run in-process through main(argv) so coverage and error mapping
stay visible; each scenario works in its own tmp_path sandbox.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import slaterank
from helpers import counted_parses
from slaterank.cli import LOG_CACHE_DIR, main
from slaterank.errors import NumericsError
from slaterank.data import read_logs
from slaterank.decoding import DecodeConfig, contrastive_decode
from slaterank.generator import GeneratorConfig, forward
from slaterank.metrics import EvalReport
from slaterank.numerics import Params, load_checkpoint, save_checkpoint


def write_cfg(tmp_path, extra=()):
    lines = [
        "seed=5",
        "num_requests=60",
        "world.num_users=50",
        "world.num_items=300",
        "world.n_candidates=8",
        "generator.n_max=8",
        "generator.d=8",
        "generator.h=2",
        "generator.L=1",
        "generator.d_t=8",
        "evaluator.d=8",
        "evaluator.h=2",
        "train.epochs=1",
        "train.batch_size=32",
        f"paths.train_log={tmp_path}/train.jsonl",
        f"paths.test_log={tmp_path}/test.jsonl",
        f"paths.generator_checkpoint={tmp_path}/gen.npz",
        f"paths.evaluator_checkpoint={tmp_path}/ev.npz",
        f"paths.ar_checkpoint={tmp_path}/ar.npz",
        f"paths.out_dir={tmp_path}",
        *extra,
    ]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_pipeline(tmp_path, cfg):
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg, "--policy", "affinity_greedy",
                 "--out", f"{tmp_path}/test.jsonl", "--num-requests", "20",
                 "--start-id", "1000"]) == 0
    assert main(["train-generator", "--config", cfg]) == 0
    assert main(["train-evaluator", "--config", cfg]) == 0


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--policy", "oracle"]) == 1
    assert main(["simulate", "--set", "not-a-pair"]) == 1
    assert main(["simulate", "--set", "generator.d=30"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_simulate_request_ids_must_fit_int64(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "ids.jsonl"
    top = 2 ** 63 - 1
    for start in (top, -(2 ** 63) - 1):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--num-requests", "2", "--start-id", str(start)]) == 1
        assert "do not fit in int64" in capsys.readouterr().err
        assert not out.exists()
    # the last id that fits is written and read back
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--num-requests", "2", "--start-id", str(top - 1)]) == 0
    assert read_logs(str(out)).request_id.tolist() == [top - 1, top]


@pytest.mark.parametrize("setting", [
    "world.noise_std=-1", "world.n_candidates=6000", "world.posbias=nan,0.5",
    "world.suppression=nan", "world.affinity_shift=inf", "world.affinity_scale=-inf"])
def test_simulate_rejects_world_values_it_cannot_simulate(tmp_path, capsys, setting):
    out = tmp_path / "log.jsonl"
    assert main(["simulate", "--config", write_cfg(tmp_path), "--set", setting,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_simulate_num_requests_below_one_exits_1(tmp_path, capsys):
    # --num-requests 0 used to be read as absent, and simulated num_requests
    out = tmp_path / "log.jsonl"
    for count in ("0", "-3"):
        assert main(["simulate", "--config", write_cfg(tmp_path), "--set", "num_requests=30",
                     "--num-requests", count, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: num_requests must be >= 1\n"
        assert not out.exists()


def test_world_types_that_repeat_exit_1_naming_the_field(tmp_path, capsys):
    # each record used to keep one row of the repeated type
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--set", "world.types=click,click",
                 "--set", "world.base_rates=1.0,0.3"]) == 1
    assert capsys.readouterr().err == (
        "error: world.types repeats an interaction type: ('click', 'click')\n")
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("setting, message", [
    ("evaluator.weights=nan,0.5", "evaluator.weights must be finite, got (nan, 0.5)"),
    ("evaluator.weights=inf,-inf", "evaluator.weights must be finite, got (inf, -inf)"),
    ("evaluator.types=click,click",
     "evaluator.types repeats an interaction type: ('click', 'click')")])
def test_evaluator_types_that_repeat_or_weights_not_finite_exit_1_naming_the_field(
        tmp_path, capsys, setting, message):
    # a non-finite weight used to write "utility": NaN into slates.jsonl, and
    # a repeated type to fail on a parameter name
    cfg = write_cfg(tmp_path)
    assert main(["generate", "--config", cfg, "--set", setting]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_simulate_rejects_non_finite_candidate_features(tmp_path, capsys):
    # finite spreads so wide that the item latents (1e308) or their norms
    # (1e200) overflow: a config error naming the key, and no NumPy warning
    out = tmp_path / "log.jsonl"
    for spread in ("1e308", "1e200"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", write_cfg(tmp_path), "--set",
                         f"world.cluster_spread={spread}", "--out", str(out)]) == 1
        assert not caught
        err = capsys.readouterr().err
        assert f"world.cluster_spread={float(spread)!r} is too large" in err
        assert not out.exists()


def test_closed_stdout_exits_141_without_a_traceback(tmp_path, monkeypatch):
    # `slaterank ... | head -1`: the reader is gone, so every write to stdout
    # raises BrokenPipeError; main points stdout's descriptor at os.devnull,
    # so the flush at exit cannot raise again, and returns 141
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "wb") as target:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        code = main(["simulate", "--config", write_cfg(tmp_path),
                     "--out", str(tmp_path / "log.jsonl")])
        os.write(target.fileno(), b"after")
    assert code == 141
    assert (tmp_path / "log.jsonl").exists()
    assert (tmp_path / "stdout").read_bytes() == b""


def test_missing_or_malformed_logs_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["train-generator", "--config", cfg]) == 2

    good = ('{"request_id": 0, "user_id": 0, "candidates": '
            '[{"item_id": 1, "features": [0.1]}], '
            '"exposed": [0], "feedback": {"click": [1.0]}}')
    (tmp_path / "train.jsonl").write_text(good + "\n{broken\n", encoding="utf-8")
    assert main(["train-generator", "--config", cfg]) == 2
    assert "line 2" in capsys.readouterr().err


def test_a_line_that_is_not_utf8_exits_2_with_its_line(tmp_path, capsys):
    # the bytes used to be decoded outside the per-line error handling, and
    # ended the command in a UnicodeDecodeError traceback
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    path = tmp_path / "train.jsonl"
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1][:40] + b"\xff\xfe" + lines[1][40:]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["train-generator", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "error: line 2: malformed log record: 'utf-8' codec can't decode byte 0xff")


def test_checkpoint_mismatch_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    code = main(["generate", "--config", cfg, "--set", "generator.d=16"])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_checkpoint_missing_or_misshapen_parameter_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    nan_at_first = np.zeros((10, 8))
    nan_at_first[0, 0] = np.nan
    for file, name, broken in (("ev.npz", "ev.head.like.w", None),
                               ("ev.npz", "ev.pos", np.zeros((5, 8))),
                               # a NaN used to load and rerank with exit 0
                               ("gen.npz", "embed.x.w", nan_at_first),
                               ("ev.npz", "ev.embed.w", nan_at_first)):
        params, meta = load_checkpoint(tmp_path / file)
        damaged = Params()
        for key, tensor in params.items():
            if key != name:
                damaged.add(key, tensor.data)
            elif broken is not None:
                damaged.add(key, broken)
        save_checkpoint(tmp_path / file, damaged, meta=meta)
        assert main(["generate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert file in err and name in err
        save_checkpoint(tmp_path / file, params, meta=meta)
    assert main(["generate", "--config", cfg]) == 0


def test_malformed_checkpoint_stamp_or_meta_exits_2(tmp_path, capsys):
    # each used to escape as a traceback: JSONDecodeError, KeyError,
    # IndexError, and AttributeError in the meta check after loading
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    path = tmp_path / "gen.npz"
    with np.load(path) as payload:
        good = {key: payload[key] for key in payload.files}
    cases = (("__meta__", np.array("{not json")),
             ("__meta__", None),
             ("__checkpoint_version__", np.zeros(0, dtype=np.int64)),
             ("__meta__", np.array("[1, 2]")))
    for key, value in cases:
        arrays = {k: v for k, v in good.items() if k != key}
        if value is not None:
            arrays[key] = value
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert main(["generate", "--config", cfg]) == 2, key
        assert "gen.npz" in capsys.readouterr().err, key
    with open(path, "wb") as fh:
        np.savez(fh, **good)
    assert main(["generate", "--config", cfg]) == 0


def test_non_numeric_checkpoint_parameter_exits_2(tmp_path, capsys):
    # a string parameter used to escape Params.add and an object one np.load,
    # both as ValueError tracebacks
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    path = tmp_path / "gen.npz"
    with np.load(path) as payload:
        good = {key: payload[key] for key in payload.files}
    key = next(k for k in good if k.startswith("param:"))
    for value in (np.array(["a", "b"]), np.array([1.0, None], dtype=object)):
        with open(path, "wb") as fh:
            np.savez(fh, **dict(good, **{key: value}))
        assert main(["generate", "--config", cfg]) == 2, value.dtype
        err = capsys.readouterr().err
        assert "gen.npz" in err and key[len("param:"):] in err, err


def test_numeric_failures_exit_3(tmp_path, capsys, monkeypatch):
    # Clamps and pre-norm blocks keep every realistic input finite, so the
    # exit mapping is tested at its seam: a training loop that aborts with
    # the NumericsError train_generator raises on a non-finite loss.
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0

    def blow_up(*args, **kwargs):
        raise NumericsError("non-finite loss at epoch 0 step 0 request 7")

    monkeypatch.setattr("slaterank.cli.train_generator", blow_up)
    assert main(["train-generator", "--config", cfg]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_pipeline_outputs_and_rerun_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)

    log_a = (tmp_path / "train.jsonl").read_bytes()
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "train.jsonl").read_bytes() == log_a

    assert main(["generate", "--config", cfg]) == 0
    slates_a = (tmp_path / "slates.jsonl").read_bytes()
    assert main(["generate", "--config", cfg]) == 0
    assert (tmp_path / "slates.jsonl").read_bytes() == slates_a

    rows = [json.loads(line) for line in slates_a.decode().splitlines()]
    assert len(rows) == 20
    test_logs = read_logs(tmp_path / "test.jsonl")
    for row, log in zip(rows, test_logs):
        assert row["request_id"] == log.request.request_id
        slate = row["slate"]
        assert len(slate) == 6 and len(set(slate)) == 6
        assert all(0 <= i < log.request.n for i in slate)
        assert np.isfinite(row["utility"])

    assert main(["evaluate", "--config", cfg]) == 0
    header = (tmp_path / "eval.csv").read_text().splitlines()[0]
    want = EvalReport(auc=0, logloss=0, ndcg=0, recall={1: 0, 3: 0, 6: 0})
    assert header == want.csv_header()
    assert main(["evaluate", "--config", cfg]) == 0
    again = (tmp_path / "eval.csv").read_text().splitlines()[0]
    assert again == header

    loss_csv = (tmp_path / "generator_loss.csv").read_text().splitlines()
    assert loss_csv[0].startswith("step,total,")
    assert len(loss_csv) == 3  # 60 requests / batch 32 -> 2 steps


def test_single_sample_generate_equals_contrastive_decode(tmp_path):
    cfg = write_cfg(tmp_path, extra=("decode.num_samples=1",))
    run_pipeline(tmp_path, cfg)
    assert main(["generate", "--config", cfg]) == 0

    gen_cfg = GeneratorConfig(n_max=8, m=6, d=8, h=2, L=1, d_x=10, d_t=8)
    params, meta = load_checkpoint(tmp_path / "gen.npz")
    assert meta["kind"] == "generator"
    rows = [json.loads(line)
            for line in (tmp_path / "slates.jsonl").read_text().splitlines()]
    for row, log in zip(rows, read_logs(tmp_path / "test.jsonl")):
        probs = forward(log.request, params, gen_cfg)
        want = contrastive_decode(probs, DecodeConfig(num_samples=1))
        assert tuple(row["slate"]) == want.indices


def test_train_ar_and_bench_smoke(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["train-ar", "--config", cfg]) == 0
    curve = (tmp_path / "ar_loss.csv").read_text().splitlines()
    assert curve[0] == "step,loss"
    assert len(curve) == 3

    assert main(["bench", "--config", cfg, "--steps", "3", "--warmup", "1",
                 "--batch", "1"]) == 0
    header, row, _ = (tmp_path / "bench.csv").read_text().split("\n")
    assert len(header.split(",")) == len(row.split(","))


def test_empty_test_log_exits_2(tmp_path):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    (tmp_path / "test.jsonl").write_text("", encoding="utf-8")
    assert main(["generate", "--config", cfg]) == 2
    assert main(["evaluate", "--config", cfg]) == 2


def _damage_record(tmp_path, lineno, damage):
    """Rewrite one record of the simulated training log in place."""
    path = tmp_path / "train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[lineno - 1])
    damage(rec)
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _wider(rec):
    for cand in rec["candidates"]:
        cand["features"].append(0.5)


def _more_candidates(rec):
    rec["candidates"].append(dict(rec["candidates"][0], item_id=99_999))


def _shorter_slate(rec):
    rec["exposed"] = rec["exposed"][:-1]
    rec["feedback"] = {t: row[:-1] for t, row in rec["feedback"].items()}


def _other_types(rec):
    rec["feedback"] = {"click": rec["feedback"]["click"]}


def test_every_log_record_is_checked_at_the_boundary(tmp_path, capsys):
    # a bad record after the first used to pass the boundary and fail
    # mid-training with exit 1 and no line number
    cfg = write_cfg(tmp_path)
    generator_side = ("train-generator", "train-ar")
    cases = (("features have width 11", _wider, generator_side + ("train-evaluator",)),
             ("9 candidates exceed n_max=8", _more_candidates, generator_side),
             ("slate has 5 positions", _shorter_slate, generator_side + ("train-evaluator",)),
             ("feedback types", _other_types, generator_side + ("train-evaluator",)))
    for message, damage, commands in cases:
        assert main(["simulate", "--config", cfg]) == 0
        _damage_record(tmp_path, 5, damage)
        for command in commands:
            assert main([command, "--config", cfg]) == 2, (message, command)
            err = capsys.readouterr().err
            assert "line 5" in err and message in err, (command, err)
    # the evaluator has no n_max: more candidates are fine there
    assert main(["simulate", "--config", cfg]) == 0
    _damage_record(tmp_path, 5, _more_candidates)
    assert main(["train-evaluator", "--config", cfg]) == 0


@pytest.mark.parametrize("damage", [
    # a JSON list used to escape as AttributeError from feedback.keys()
    lambda rec: rec.update(feedback=list(rec["feedback"].values())),
    # both used to be coerced by int() into the logged slate (n=8, so every
    # index is one digit)
    lambda rec: rec.update(exposed=[rec["exposed"][0] + 0.7] + rec["exposed"][1:]),
    lambda rec: rec.update(exposed="".join(map(str, rec["exposed"]))),
    # ids were coerced the same way: "7" read as 7, 2.9 as 2 and 1.7 as 1
    lambda rec: rec.update(request_id=str(rec["request_id"])),
    lambda rec: rec.update(user_id=rec["user_id"] + 0.9),
    lambda rec: rec["candidates"][2].update(item_id=rec["candidates"][2]["item_id"] + 0.7),
    # an integer id past int64 used to escape as OverflowError
    lambda rec: rec["candidates"][2].update(item_id=2 ** 70),
    # request ids are int64 columns of the log table too
    lambda rec: rec.update(request_id=-2 ** 63 - 1),
    # numeric strings used to be read as numbers by a float64 array
    lambda rec: rec["candidates"][2].update(
        features=["0.5", "1e3"] + rec["candidates"][2]["features"][2:]),
    lambda rec: rec["feedback"].update(
        click=["1" if v else "0" for v in rec["feedback"]["click"]]),
    # a null is not a number either (it used to become NaN, caught as non-finite)
    lambda rec: rec["candidates"][2].update(
        features=[None] + rec["candidates"][2]["features"][1:]),
], ids=["feedback_list", "exposed_float", "exposed_string", "request_id_string",
        "user_id_float", "item_id_float", "item_id_overflow", "request_id_overflow",
        "features_string",
        "feedback_string", "features_null"])
def test_mistyped_log_fields_exit_2_with_line(tmp_path, capsys, damage):
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    _damage_record(tmp_path, 5, damage)
    for command in ("train-generator", "train-evaluator"):
        assert main([command, "--config", cfg]) == 2, command
        assert "line 5" in capsys.readouterr().err


def test_desk_pipeline_script_writes_every_artifact(tmp_path):
    # scripts/run_pipeline.py drives every command, run as a user runs it
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(slaterank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "desk"
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "run_pipeline.py"), "--out", str(out),
         "--requests", "40", "--test-requests", "10"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, _, listed = proc.stdout.rstrip().rpartition(f"artifacts in {out}/: ")
    assert before.endswith("\n\n")
    names = listed.split()
    assert len(names) == 8
    for name in names:
        assert (out / name).stat().st_size > 0, name


def test_inprocess_ab_script_times_a_tree_against_itself(tmp_path):
    # scripts/ab_inprocess.py on tiny configs: both trees import, every named
    # workload, the training commands through cli.main among them, runs its
    # pairs and prints a ratio line in the order named, and
    # no serving request picks another slate; an unknown name exits 2 and
    # lists the valid ones
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(slaterank.__file__).resolve().parents[1])
    trainers = ("train_generator", "train_evaluator", "train_ar")
    names = (["rerank", "onepass"] + [f"{t}.{c}" for c in ("desk", "bench") for t in trainers]
             + ["cli.train_evaluator", "cli.train_generator"])

    def ab(*args):
        return subprocess.run(
            [sys.executable, str(repo / "scripts" / "ab_inprocess.py"), src, src,
             "--scale", "tiny", "--pairs", "2", *args],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)

    proc = ab("--workloads", ",".join(names))
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split()[:2] == ["workload", "pairs"]
    assert [row.split()[0] for row in rows] == names
    for row in rows:
        name, pairs, median, q1, q3, wins, other = row.split()
        assert pairs == "2" and float(median) > 0 and wins.endswith("/2"), row
        assert other == ("-" if name.startswith(("train_", "cli.")) else "0/2"), row
    proc = ab("--workloads", "rerank,serve")
    assert proc.returncode == 2 and not proc.stdout
    assert "unknown workload serve" in proc.stderr
    assert all(name in proc.stderr for name in names)


OUTPUTS = ("gen.npz", "ev.npz", "generator_loss.csv", "evaluator_loss.csv",
           "slates.jsonl", "eval.csv")


def _outputs(tmp_path):
    return {name: (tmp_path / name).read_bytes() for name in OUTPUTS}


def test_a_warm_log_cache_trains_the_same_bytes(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)  # train-generator reads cold, train-evaluator warm
    parses = counted_parses(monkeypatch)
    cold = {}
    for command, files in (("train-generator", ("gen.npz", "generator_loss.csv")),
                           ("train-evaluator", ("ev.npz", "evaluator_loss.csv"))):
        for name in os.listdir(tmp_path / LOG_CACHE_DIR):
            os.unlink(tmp_path / LOG_CACHE_DIR / name)
        assert main([command, "--config", cfg]) == 0
        cold.update({name: (tmp_path / name).read_bytes() for name in files})
        assert main([command, "--config", cfg]) == 0
        assert {name: (tmp_path / name).read_bytes() for name in files} == {
            name: cold[name] for name in files}
    assert len(parses) == 2  # one per command: its second run read the cache


def test_commands_run_uncached_where_the_cache_cannot_be_written(tmp_path):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    assert main(["generate", "--config", cfg]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    want = _outputs(tmp_path)
    # a file where the cache directory would go
    cache = tmp_path / LOG_CACHE_DIR
    for name in os.listdir(cache):
        os.unlink(cache / name)
    cache.rmdir()
    cache.write_text("not a directory", encoding="utf-8")
    for command in ("train-generator", "train-evaluator", "generate", "evaluate"):
        assert main([command, "--config", cfg]) == 0, command
    assert _outputs(tmp_path) == want
    # an out_dir that cannot be made: generate and evaluate write elsewhere
    out_dir = f"paths.out_dir={cache}/out"
    for command, name in (("generate", "slates.jsonl"), ("evaluate", "eval.csv")):
        out = tmp_path / "elsewhere" / name
        out.parent.mkdir(exist_ok=True)
        assert main([command, "--config", cfg, "--set", out_dir, "--out", str(out)]) == 0
        assert out.read_bytes() == want[name]
    assert cache.read_text(encoding="utf-8") == "not a directory"


def test_an_out_dir_that_cannot_be_made_exits_1_before_any_work(tmp_path, capsys):
    # one line, exit 1, and no model trained or checkpoint written
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    capsys.readouterr()
    afile = tmp_path / "afile"
    afile.write_text("a regular file", encoding="utf-8")
    out_dir = f"paths.out_dir={afile}/sub"
    fresh = tmp_path / "fresh.npz"
    for command, checkpoint in (("train-generator", "generator_checkpoint"),
                                ("train-evaluator", "evaluator_checkpoint"),
                                ("train-ar", "ar_checkpoint"),
                                ("generate", None), ("evaluate", None)):
        extra = [] if checkpoint is None else ["--set", f"paths.{checkpoint}={fresh}"]
        assert main([command, "--config", cfg, "--set", out_dir, *extra]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: paths.out_dir ") and err.count("\n") == 1, err
        assert not fresh.exists(), command
    assert afile.read_text(encoding="utf-8") == "a regular file"
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["afile", "run.cfg", "train.jsonl", "test.jsonl", "gen.npz", "ev.npz",
         "generator_loss.csv", "evaluator_loss.csv", LOG_CACHE_DIR])


def test_a_checkpoint_directory_that_is_missing_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch):
    # the log is not read and no model is trained: one line naming the path
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("work started before the checkpoint path was checked")

    for name in ("read_logs", "train_generator", "train_evaluator", "train_ar"):
        monkeypatch.setattr(f"slaterank.cli.{name}", never)
    path = tmp_path / "absent" / "model.npz"
    for command, key in (("train-generator", "generator_checkpoint"),
                         ("train-evaluator", "evaluator_checkpoint"),
                         ("train-ar", "ar_checkpoint")):
        assert main([command, "--config", cfg, "--set", f"paths.{key}={path}"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n", command
    assert not path.parent.exists()


def test_an_output_directory_that_is_missing_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch):
    # simulate, generate and evaluate used to run every request and bench its
    # whole sweep before the write failed
    cfg = write_cfg(tmp_path)

    def never(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    for name in ("World", "gen_log", "load_checkpoint", "read_logs", "forward", "run_bench"):
        monkeypatch.setattr(f"slaterank.cli.{name}", never)
    path = tmp_path / "absent" / "out.txt"
    for argv in (["simulate", "--out", str(path)],
                 ["simulate", "--set", f"paths.train_log={path}"],
                 ["generate", "--out", str(path)], ["evaluate", "--out", str(path)],
                 ["bench", "--out", str(path)]):
        assert main([*argv, "--config", cfg]) == 1, argv
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n", argv
    assert not path.parent.exists()


def test_feedback_types_that_a_model_cannot_use_exit_1_before_any_work(
        tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    capsys.readouterr()
    world = ["--set", "world.types=view,buy", "--set", "world.base_rates=1.0,0.3"]
    wider = ["--set", "world.types=click,like,share",
             "--set", "world.base_rates=1.0,0.35,0.2"]

    def never(*args, **kwargs):
        raise AssertionError("work started before the log's types were checked")

    # evaluate used to die of a ValueError from FeedbackMatrix.row after the
    # first forward; a log with more types than the evaluator's still serves
    test_log = ["--out", f"{tmp_path}/test.jsonl", "--num-requests", "30"]
    assert main(["simulate", "--config", cfg, *wider, *test_log]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg, *world, *test_log]) == 0
    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr("slaterank.cli.forward", never)
        assert main(["evaluate", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: log feedback types ('view', 'buy') do not include 'click', "
        "the first of evaluator types ('click', 'like')\n")
    # the trainers' own checks: the utility spec must weigh every logged
    # type, and the evaluator's heads must be the logged types exactly
    for name in ("train_generator", "train_evaluator"):
        monkeypatch.setattr(f"slaterank.cli.{name}", never)
    assert main(["simulate", "--config", cfg, *world]) == 0
    capsys.readouterr()
    assert main(["train-generator", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: utility spec has no weights for logged interaction types ['view', 'buy']\n")
    assert main(["simulate", "--config", cfg, *wider]) == 0
    capsys.readouterr()
    assert main(["train-evaluator", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: log feedback types ('click', 'like', 'share') do not match "
        "evaluator types ('click', 'like')\n")


def test_a_nul_byte_in_a_config_value_exits_1_naming_the_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra=[f"paths.train_log={tmp_path}/x\0y.jsonl"])
    for command in ("simulate", "train-generator"):
        assert main([command, "--config", cfg]) == 1, command
        err = capsys.readouterr().err
        assert err == "error: bad value for paths.train_log: it holds a NUL byte\n", err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_an_output_that_cannot_be_written_exits_1_with_one_line(tmp_path, capsys):
    # a log or a checkpoint under a directory that does not exist: one line
    # naming the path, exit 1, no traceback
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()
    absent = tmp_path / "absent"
    for argv, path in (
            (["simulate", "--config", cfg, "--num-requests", "30",
              "--out", str(absent / "x.jsonl")], absent / "x.jsonl"),
            (["train-generator", "--config", cfg, "--set",
              f"paths.generator_checkpoint={absent / 'g.npz'}"], absent / "g.npz")):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot write {path}: No such file or directory"], err
        assert "Traceback" not in err
    assert not absent.exists()
