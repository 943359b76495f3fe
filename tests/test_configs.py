"""Config text format: round trips, overrides, and pipeline agreement."""

import re

import pytest

from slaterank.configs import (
    RunConfig,
    TrainConfig,
    apply_overrides,
    check_pipeline,
    load_config,
    parse_config,
    serialize_config,
    unweighted_types,
)
from slaterank.cli import main
from slaterank.errors import ConfigError
from slaterank.evaluator import EvaluatorConfig
from slaterank.generator import GeneratorConfig
from slaterank.objectives import UtilitySpec


def test_defaults_are_mutually_consistent():
    run = RunConfig()
    check_pipeline(run)
    assert run.train.lr == 1e-3
    assert run.train.batch_size == 256
    assert run.decode.alpha == 0.1
    assert run.train.omega == 0.01
    assert run.train.rho == 0.5
    assert run.utility.tau == 1.0


def test_round_trip_is_identity():
    run = RunConfig()
    text = serialize_config(run)
    again = parse_config(text)
    assert again == run
    assert serialize_config(again) == text

    # A non-default config survives the same loop.
    run = apply_overrides(run, [
        "seed=7",
        "num_requests=123",
        "generator.d=16",
        "generator.h=2",
        "world.posbias=1.0,0.5",
        "world.n_candidates=9",
        "utility.types=click,like,share",
        "utility.weights=1.0,0.25,0.0",
        "paths.train_log=/tmp/x.jsonl",
        "train.objective=ce",
    ])
    text = serialize_config(run)
    again = parse_config(text)
    assert again == run
    assert serialize_config(again) == text


def test_parse_ignores_comments_and_blank_lines():
    run = parse_config("# a comment\n\nseed=3\n  train.lr=0.01  \n")
    assert run.seed == 3
    assert run.train.lr == 0.01


def test_overrides_layer_on_top():
    base = parse_config("generator.d=16\ngenerator.h=2\n")
    out = apply_overrides(base, ["train.epochs=5"])
    assert out.generator.d == 16
    assert out.train.epochs == 5
    assert out.world == base.world


def test_tuples_and_floats_serialize_exactly():
    run = apply_overrides(RunConfig(), ["world.posbias=0.9,0.30000000000000004"])
    line = [l for l in serialize_config(run).splitlines()
            if l.startswith("world.posbias=")][0]
    assert line == "world.posbias=0.9,0.30000000000000004"
    assert parse_config(serialize_config(run)).world.posbias == (0.9, 0.1 + 0.2)


def test_unknown_keys_and_bad_values_raise():
    with pytest.raises(ConfigError):
        parse_config("nonsense.key=1\n")
    with pytest.raises(ConfigError):
        parse_config("generator.banana=1\n")
    with pytest.raises(ConfigError):
        parse_config("generator.d=abc\n")
    with pytest.raises(ConfigError):
        parse_config("just a line without equals\n")
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["no-equals-here"])
    for removed in ("decode.method=greedy", "decode.width=3", "decode.seed=1"):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(removed + "\n")


def test_the_evaluator_takes_its_slate_shape_from_the_generator(tmp_path, capsys):
    # and its head types and selection weights from the utility section
    gen = GeneratorConfig(d_x=8, m=5)
    utility = UtilitySpec(types=("like", "click"), weights=(1.0, 2.0), tau=1.0)
    for run in (RunConfig(generator=gen, utility=utility),
                RunConfig(generator=gen, utility=utility, evaluator=EvaluatorConfig(
                    d_x=3, m=2, types=("share",), weights=(3.0,))),
                parse_config("generator.d_x=8\ngenerator.m=5\n"
                             "utility.types=like,click\nutility.weights=1.0,2.0\n")):
        assert (run.evaluator.d_x, run.evaluator.m) == (8, 5)
        assert (run.evaluator.types, run.evaluator.weights) == (utility.types, utility.weights)
    run = apply_overrides(RunConfig(), ["utility.weights=1.0,2.0"])
    assert run.evaluator.weights == (1.0, 2.0)
    keys = ("evaluator.d_x", "evaluator.m", "evaluator.types", "evaluator.weights")
    lines = serialize_config(RunConfig()).splitlines()
    assert len(lines) == 46
    assert not [line for line in lines if line.startswith(tuple(f"{k}=" for k in keys))]
    cfg = tmp_path / "run.cfg"
    for key in keys:
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            parse_config(f"{key}=5\n")
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            apply_overrides(RunConfig(), [f"{key}=5"])
        cfg.write_text(f"{key}=5\n", encoding="utf-8")
        for argv in (["--config", str(cfg)], ["--set", f"{key}=5"]):
            assert main(["simulate", "--out", str(tmp_path / "log.jsonl"), *argv]) == 1
            assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_section_validation_still_applies():
    with pytest.raises(ConfigError):
        parse_config("generator.d=30\ngenerator.h=4\n")
    with pytest.raises(ConfigError):
        parse_config("train.objective=mse\n")
    with pytest.raises(ConfigError):
        parse_config("num_requests=0\n")
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)


@pytest.mark.parametrize("setting", [
    "train.lr=nan", "train.lr=inf", "train.omega=nan", "train.omega=inf",
    "seed=-1", "generator.seed=-1", "evaluator.seed=-1",
    "world.seed=-1", "train.seed=-1"])
def test_non_finite_rates_and_negative_seeds_are_refused(setting):
    # a NaN rate trains NaN parameters, an infinite one overflows, and
    # NumPy's generators take no negative seed
    key = setting.partition("=")[0]
    with pytest.raises(ConfigError, match=key.rpartition(".")[2]):
        parse_config(setting + "\n")


def test_file_round_trip(tmp_path):
    run = apply_overrides(RunConfig(), ["seed=11", "decode.alpha=0.25"])
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(run), encoding="utf-8")
    assert load_config(path) == run
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    # a file that is not UTF-8 used to raise UnicodeDecodeError past main
    path.write_bytes(b"seed=\xff\n")
    with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: 'utf-8' codec"):
        load_config(path)


def test_tuple_values_drop_the_spaces_around_their_commas():
    # ' like' used to be a type of its own, which no log holds
    run = parse_config("utility.types=click, like\nworld.posbias= 1.0 ,0.8, 0.6,0.5,0.4,0.3\n")
    assert run.utility.types == ("click", "like")
    assert run.world.posbias == (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)
    assert "utility.types=click,like\n" in serialize_config(run)
    assert apply_overrides(RunConfig(), ["utility.types= like ,click,"]).utility.types == (
        "like", "click")


def test_check_pipeline_reports_mismatches():
    run = apply_overrides(RunConfig(), ["generator.d_x=4"])
    with pytest.raises(ConfigError, match="d_x"):
        check_pipeline(run)

    run = apply_overrides(RunConfig(), ["world.posbias=1.0,0.5"])
    with pytest.raises(ConfigError, match="m="):
        check_pipeline(run)

    run = apply_overrides(RunConfig(), ["utility.types=click",
                                        "utility.weights=1.0"])
    with pytest.raises(ConfigError, match="no weights for world interaction types"):
        check_pipeline(run)

    run = apply_overrides(RunConfig(), ["generator.n_max=10"])
    with pytest.raises(ConfigError, match="n_max"):
        check_pipeline(run)


def test_each_type_rule_names_the_source_of_its_types():
    run = RunConfig()
    assert unweighted_types(run.utility, ("click", "like"), "world") is None
    assert unweighted_types(run.utility, ("view", "click"), "logged") == (
        "utility spec has no weights for logged interaction types ['view']")
    # check_pipeline joins its problems into one message
    run = apply_overrides(run, ["world.types=view", "world.base_rates=1.0", "generator.m=5"])
    with pytest.raises(ConfigError) as caught:
        check_pipeline(run)
    assert str(caught.value) == (
        "generator.m=5 != world m=6; "
        "utility spec has no weights for world interaction types ['view']")
