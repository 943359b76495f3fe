"""Tests for the benchmark's reference computations and span recorder.

    python3 -m pytest perfbench -q

Each check passes on real slaterank output and rejects a deliberately
wrong input.
"""

import sys
import time
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from slaterank import decoding, evaluator, generator, simulator  # noqa: E402
from slaterank.data import RequestBatch  # noqa: E402
from slaterank.decoding import SlateSequence  # noqa: E402
from slaterank.numerics import Params  # noqa: E402
from slaterank.objectives import UtilitySpec  # noqa: E402

import reference as ref  # noqa: E402
from spans import Tracer  # noqa: E402

GEN = generator.GeneratorConfig(n_max=20, m=6, d=16, h=2, L=1, d_x=10, d_t=8)
DEC = decoding.DecodeConfig()
SPEC = UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=1.0)


@pytest.fixture(scope="module")
def world():
    return simulator.World(simulator.WorldConfig(seed=5))


@pytest.fixture(scope="module")
def req(world):
    return simulator.gen_request(world, np.random.default_rng(7), request_id=1)


@pytest.fixture(scope="module")
def probs(req):
    return generator.forward(req, generator.init_generator_params(GEN), GEN)


def _slate(indices):
    return SlateSequence(indices=tuple(indices), probabilities=(0.0,) * len(indices),
                         method="test")


def _trained_like_evaluator(seed):
    cfg = evaluator.EvaluatorConfig(seed=seed)
    params = evaluator.init_evaluator_params(cfg)
    for name, t in params.items():  # 0.02-scale init gives near-constant scores
        if t.data.ndim == 2:
            t.data *= 40.0
    return cfg, params


def test_reference_evaluator_matches_score_slate(req):
    rng = np.random.default_rng(0)
    for seed in range(3):
        cfg, params = _trained_like_evaluator(seed)
        arrays = {name: t.data for name, t in params.items()}
        for _ in range(5):
            idx = rng.choice(req.n, size=cfg.m, replace=False)
            want = evaluator.score_slate(req, idx, params, cfg).utility
            got = ref.evaluator_utility(arrays, cfg, req.features[idx])
            assert got == pytest.approx(want, rel=1e-9)


def test_prob_matrix_check(req):
    params = generator.init_generator_params(GEN)
    full = generator.forward(req, params, GEN).values.data
    ref.check_prob_matrix(full, req.n)
    short = RequestBatch(request_id=2, user_id=0, item_ids=req.item_ids[:12],
                                   features=req.features[:12])
    values = generator.forward(short, params, GEN, pad_to=20).values.data
    ref.check_prob_matrix(values, 12)
    bad = values.copy()
    bad[:, 2] *= 1.001
    with pytest.raises(ref.CheckFailed, match="sums"):
        ref.check_prob_matrix(bad, 12)
    bad = values.copy()
    bad[15, 0] = 1e-30
    with pytest.raises(ref.CheckFailed, match="padded"):
        ref.check_prob_matrix(bad, 12)
    bad = values.copy()
    bad[0, 0] = -bad[0, 0]
    with pytest.raises(ref.CheckFailed, match="negative"):
        ref.check_prob_matrix(bad, 12)


def test_contrastive_check(probs):
    slate = decoding.contrastive_decode(probs, DEC)
    assert ref.check_contrastive(probs, slate, DEC.alpha) == slate.indices
    swapped = list(slate.indices)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ref.CheckFailed, match="not the rule"):
        ref.check_contrastive(probs, _slate(swapped), DEC.alpha)
    # Without the similarity penalty the rule is per-position greedy.
    greedy = decoding.greedy_decode(probs)
    assert ref.contrastive_reference(probs.values.data, probs.candidate_reps.data,
                                     0.0) == greedy.indices


def test_proposals_check(probs, req):
    slates = decoding.sample_slates(probs, DEC, np.random.default_rng(3))
    want = ref.check_contrastive(probs, slates[0], DEC.alpha)
    ref.check_proposals(slates, want, req.n, GEN.m, DEC.num_samples)
    wrong_inputs = [
        slates + [slates[1]],                          # a repeated proposal
        slates[1:] + slates[:1],                       # contrastive slate not first
        [slates[0], _slate((0, 1, 2, 3, 4, 20))],      # index out of range
        slates * 2,                                    # over the limit
    ]
    for wrong in wrong_inputs:
        with pytest.raises(ref.CheckFailed):
            ref.check_proposals(wrong, want, req.n, GEN.m, DEC.num_samples)
    with pytest.raises(ref.CheckFailed, match="repeats"):
        ref.check_slate((0, 1, 2, 3, 4, 4), req.n, GEN.m)


def test_select_best_check(probs, req):
    cfg, params = _trained_like_evaluator(1)
    arrays = {name: t.data for name, t in params.items()}
    slates = decoding.sample_slates(probs, DEC, np.random.default_rng(3))
    best = evaluator.select_best(req, slates, params, cfg)

    def own(slate):
        return evaluator.score_slate(req, slate, params, cfg).utility

    ref.check_select_best(req.features, slates, best, arrays, cfg, own)
    utils = [own(s) for s in slates]
    worst = slates[int(np.argmin(utils))]
    with pytest.raises(ref.CheckFailed, match="below the best"):
        ref.check_select_best(req.features, slates, worst, arrays, cfg, own)
    # An equal slate earlier in the list must win the tie.
    twin = _slate(best.indices)
    with pytest.raises(ref.CheckFailed, match="tie"):
        ref.check_select_best(req.features, [best, twin], twin, arrays, cfg, own)
    ref.check_select_best(req.features, [best, twin], best, arrays, cfg, own)
    # The program's own scores must not rank a later proposal above the pick.
    with pytest.raises(ref.CheckFailed, match="later one scores higher"):
        ref.check_select_best(req.features, [best, worst], best, arrays, cfg,
                              lambda s: float(s is worst))
    with pytest.raises(ref.CheckFailed, match="one of the proposals"):
        ref.check_select_best(req.features, slates, _slate(best.indices), arrays, cfg, own)


def test_oracle_check(world, req):
    rng = np.random.default_rng(11)
    for _ in range(20):
        slate = tuple(rng.choice(req.n, size=world.config.m, replace=False))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # clamped probabilities
            value = simulator.oracle_expected_utility(world, req, slate, SPEC)
        ref.check_oracle(world, req, slate, SPEC, value)
    with pytest.raises(ref.CheckFailed, match="click model"):
        ref.check_oracle(world, req, slate, SPEC, value + 1e-9)


def test_checkpoint_check():
    expected = generator.init_generator_params(GEN)
    ref.check_checkpoint(generator.init_generator_params(GEN), expected)
    missing = Params()
    for name, t in expected.items():
        if name != "pos.table":
            missing.add(name, t.data)
    with pytest.raises(ref.CheckFailed, match="pos.table"):
        ref.check_checkpoint(missing, expected)
    reshaped = generator.init_generator_params(replace(GEN, d=32))
    with pytest.raises(ref.CheckFailed):
        ref.check_checkpoint(reshaped, expected)


def test_loss_curve_checks(tmp_path):
    ref.check_loss_curve([5.0, 4.0, 4.5, 3.0, 2.5, 2.0], window=2)
    with pytest.raises(ref.CheckFailed, match="did not fall"):
        ref.check_loss_curve([2.0, 2.5, 3.0, 4.5, 4.0, 5.0], window=2)
    with pytest.raises(ref.CheckFailed, match="finite"):
        ref.check_loss_curve([5.0, float("nan"), 3.0, 2.0], window=2)
    good = tmp_path / "good.csv"
    good.write_text("step,loss\n0,1.5\n1,1.25\n")
    assert ref.read_curve(good, "loss") == [1.5, 1.25]
    bad = tmp_path / "bad.csv"
    bad.write_text("step,loss\n0,np.float64(1.5)\n")
    with pytest.raises(ValueError):
        ref.read_curve(bad, "loss")


def test_span_self_times_cover_the_outside_time_and_missing_names_do_not_crash(
        monkeypatch):
    fake = types.ModuleType("fake_layer")

    def inner(x):
        return sum(range(x))

    def outer(x):
        return fake.inner(x) + fake.inner(x + 1)

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = Tracer({"fake.outer": ([("fake_layer", "outer")], None),
                     "fake.inner": ([("fake_layer", "inner")], None),
                     "fake.gone": ([("fake_layer", "gone")], None)})
    outside = 0.0
    with tracer:
        for request in range(3):
            start = time.perf_counter()
            assert tracer.run("request", request, fake.outer, 10**5) == 10**10
            outside += time.perf_counter() - start
    assert fake.outer is outer and fake.inner is inner
    assert tracer.missing == {"fake_layer.gone"}
    assert tracer.calls() == {"request": 3, "fake.outer": 3, "fake.inner": 6}
    own = tracer.self_seconds()
    assert own["fake.inner"] > own["fake.outer"]
    assert 0.9 * outside <= sum(own.values()) <= outside
