"""CLI tests: exit codes, output schemas, and byte-level rerun stability.

Commands run in-process through main(argv) so coverage and error mapping
stay visible; each scenario works in its own tmp_path sandbox.
"""

import json

import numpy as np

from slaterank.cli import main
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


def test_missing_or_malformed_logs_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["train-generator", "--config", cfg]) == 2

    good = ('{"request_id": 0, "user_id": 0, "candidates": '
            '[{"item_id": 1, "features": [0.1]}], '
            '"exposed": [0], "feedback": {"click": [1.0]}}')
    (tmp_path / "train.jsonl").write_text(good + "\n{broken\n", encoding="utf-8")
    assert main(["train-generator", "--config", cfg]) == 2
    assert "line 2" in capsys.readouterr().err


def test_checkpoint_mismatch_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    code = main(["generate", "--config", cfg, "--set", "generator.d=16"])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


def test_checkpoint_missing_or_misshapen_parameter_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    run_pipeline(tmp_path, cfg)
    params, meta = load_checkpoint(tmp_path / "ev.npz")
    for name, broken in (("ev.head.like.w", None),
                         ("ev.pos", np.zeros((5, 8)))):
        damaged = Params()
        for key, tensor in params.items():
            if key != name:
                damaged.add(key, tensor.data)
            elif broken is not None:
                damaged.add(key, broken)
        save_checkpoint(tmp_path / "ev.npz", damaged, meta=meta)
        assert main(["generate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "ev.npz" in err and name in err
    save_checkpoint(tmp_path / "ev.npz", params, meta=meta)
    assert main(["generate", "--config", cfg]) == 0


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
