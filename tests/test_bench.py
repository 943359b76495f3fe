"""Bench harness tests. Wall-clock values are machine-dependent, so the
strict assertions here are structural (counts, shapes, warmup handling);
the acceptance suite checks the timing ratios at full step counts."""

import time

import pytest

from slaterank import bench
from slaterank.bench import BenchReport, _time_series, run_bench
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


def test_bench_validation():
    with pytest.raises(ConfigError):
        run_bench(RunConfig(), steps=0)
    with pytest.raises(ConfigError):
        run_bench(RunConfig(), batch_size=0)
