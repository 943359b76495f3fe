"""Bench harness tests. Wall-clock values are machine-dependent, so the
strict assertions here are structural (counts, shapes, warmup handling);
the acceptance suite checks the timing ratios at full step counts."""

import time

import pytest

from slaterank import bench
from slaterank.bench import BenchReport, _time_series, run_bench
from slaterank.cli import main
from slaterank.configs import RunConfig
from slaterank.errors import ConfigError


def test_report_structure_and_forward_counts():
    rep = run_bench(RunConfig(), steps=12, warmup=2, batch_size=2,
                    sweep_m=(1, 2), ratio_m=3)
    assert rep.nar_forwards_per_request == 1
    assert rep.ar_forwards_per_request == rep.m == 6
    for value in (rep.nar_infer_mean, rep.ar_infer_mean,
                  rep.nar_train_mean, rep.ar_train_mean, rep.infer_ratio):
        assert value > 0.0
    assert rep.sweep_m == (1, 2)
    assert len(rep.sweep_nar) == len(rep.sweep_ar) == 2

    header = rep.csv_header().split(",")
    row = rep.csv_row().split(",")
    assert len(header) == len(row)
    assert "nar_infer_m1" in header and "ar_infer_m2" in header
    assert rep.to_csv().count("\n") == 2
    assert isinstance(rep, BenchReport)


def test_timed_discards_warmup():
    def slow_then_fast(task, tape):
        if task < 10:
            time.sleep(0.005)

    [(times, forwards)] = _time_series((slow_then_fast,), range(12), warmup=10)
    assert len(times) == 2
    assert times.mean() < 0.003
    assert forwards == 0


def test_training_steps_are_timed_in_turn(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "train_generator", lambda *a, **k: calls.append("nar"))
    monkeypatch.setattr(bench, "train_ar", lambda *a, **k: calls.append("ar"))
    rep = run_bench(RunConfig(), steps=3, warmup=1, batch_size=2, sweep_m=(1, 2), ratio_m=2)
    assert calls == ["nar", "ar"] * 4
    assert rep.nar_train_mean > 0.0 and rep.ar_train_mean > 0.0


def test_a_slow_request_per_size_leaves_the_slopes_unchanged(monkeypatch):
    # A scripted clock: a request takes 1 us plus 1 us (NAR) or 10 us (AR)
    # per position, and one request of every size stalls for 0.1/m s, a
    # stall that would tilt a line fitted through the sizes' means.
    clock = [0.0]
    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])

    def spend(req, m, per_position):
        clock[0] += 1e-6 + per_position * m + (0.1 / m if req.request_id == 4 else 0.0)

    monkeypatch.setattr(bench, "forward", lambda req, gen, cfg, tape: spend(req, cfg.m, 1e-6))
    monkeypatch.setattr(bench, "contrastive_decode", lambda probs, cfg: None)
    monkeypatch.setattr(bench, "ar_decode", lambda req, ar, cfg, tape: spend(req, cfg.m, 1e-5))
    monkeypatch.setattr(bench, "train_generator", lambda *a, **k: None)
    monkeypatch.setattr(bench, "train_ar", lambda *a, **k: None)
    sizes = (1, 2, 4, 8)
    rep = run_bench(RunConfig(), steps=9, warmup=2, batch_size=2, sweep_m=sizes, ratio_m=2)
    assert rep.sweep_nar == pytest.approx([1e-6 + 1e-6 * m for m in sizes], rel=1e-9)
    assert rep.sweep_ar == pytest.approx([1e-6 + 1e-5 * m for m in sizes], rel=1e-9)
    assert rep.nar_slope == pytest.approx(1e-6, rel=1e-6)
    assert rep.ar_slope == pytest.approx(1e-5, rel=1e-6)


def test_bench_validation():
    with pytest.raises(ConfigError):
        run_bench(RunConfig(), steps=0)
    with pytest.raises(ConfigError):
        run_bench(RunConfig(), batch_size=0)
    # a warmup of 0 is accepted, so the message does not call it positive
    with pytest.raises(ConfigError, match="warmup at least 0"):
        run_bench(RunConfig(), warmup=-1)


def test_a_clock_that_slows_halfway_keeps_the_slopes_ratio(monkeypatch):
    # A scripted clock: a request takes 50 us plus 1 us per position (NAR),
    # or 5 us plus 10 us per position (AR), and from halfway through the
    # timed steps every step takes twice as long. The intercepts differ, so a
    # slowdown that fell on some slate sizes only would tilt the slopes apart.
    clock = {"now": 0.0, "steps": 0, "slow_after": None}
    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock["now"])

    def spend(m, base, per_position):
        clock["steps"] += 1
        slow = clock["slow_after"] is not None and clock["steps"] > clock["slow_after"]
        clock["now"] += (base + per_position * m) * (2.0 if slow else 1.0)

    monkeypatch.setattr(bench, "forward", lambda req, gen, cfg, tape: spend(cfg.m, 5e-5, 1e-6))
    monkeypatch.setattr(bench, "contrastive_decode", lambda probs, cfg: None)
    monkeypatch.setattr(bench, "ar_decode", lambda req, ar, cfg, tape: spend(cfg.m, 5e-6, 1e-5))
    monkeypatch.setattr(bench, "train_generator", lambda *a, **k: None)
    monkeypatch.setattr(bench, "train_ar", lambda *a, **k: None)

    def slope_ratio(slow_after):
        clock.update(now=0.0, steps=0, slow_after=slow_after)
        rep = run_bench(RunConfig(), steps=9, warmup=2, batch_size=2,
                        sweep_m=(1, 2, 4, 8), ratio_m=2)
        return rep.ar_slope / rep.nar_slope

    steady = slope_ratio(None)
    assert steady == pytest.approx(10.0, rel=1e-6)
    assert slope_ratio(clock["steps"] // 2) == pytest.approx(steady, rel=1e-6)


def _never(*args, **kwargs):
    raise AssertionError("timing started before the sizes were checked")


@pytest.mark.parametrize("settings, message", [
    (["world.n_candidates=6", "generator.n_max=6"],
     "bench times slate sizes [6, 1, 2, 4, 8, 5], and [8] exceed world.n_candidates=6"),
    (["world.n_candidates=6"],
     "bench times slate sizes [6, 1, 2, 4, 8, 5], and [8] exceed world.n_candidates=6"),
    (["world.n_candidates=4", "world.posbias=1.0,0.8", "generator.m=2"],
     "bench times slate sizes [2, 1, 4, 6, 8, 5], and [6, 8, 5] exceed world.n_candidates=4"),
    (["world.posbias=1.0", "generator.m=1"],
     "generator.m=1: the generator and the AR baseline train on slates of at least 2 items"),
], ids=["n_max_6", "n_candidates_6", "n_candidates_4", "m_1"])
def test_bench_sizes_that_cannot_run_exit_1_before_any_timing(
        tmp_path, capsys, monkeypatch, settings, message):
    monkeypatch.setattr(bench, "_time_series", _never)
    overrides = [x for setting in settings for x in ("--set", setting)]
    assert main(["bench", "--out", str(tmp_path / "bench.csv"), *overrides]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("settings", [
    ["utility.types=click,like,share", "utility.weights=1.0,0.5,0.25"],
], ids=["types"])
def test_bench_runs_whatever_the_evaluator_config(tmp_path, capsys, monkeypatch, settings):
    # bench builds no evaluator, so its settings cannot stop a run
    report = BenchReport(*[1] * 12, (1,), (1.0,), (1.0,), 1.0, 1.0, 1, 1.0)
    monkeypatch.setattr("slaterank.cli.run_bench", lambda run, **kwargs: report)
    overrides = [x for setting in settings for x in ("--set", setting)]
    out = tmp_path / "bench.csv"
    assert main(["bench", "--out", str(out), *overrides]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text(encoding="utf-8") == report.to_csv()
