"""Acceptance gate: nine end-to-end criteria, one test (and one printed
PASS/FAIL line) per criterion.

The two heavy pipelines live in session fixtures: `paired` trains CE and
unlikelihood generators on one mixed-utility log, `desk` runs the full
50k-request simulate/train/evaluate loop. The determinism criterion
rebuilds both from scratch and compares serialized bytes, so everything
the fixtures produce is kept in JSON-stable form.
"""

import json
import math
import time
import warnings
from itertools import permutations

import numpy as np
import pytest

from helpers import gradcheck, inflate_weights
from slaterank.bench import run_bench
from slaterank.configs import RunConfig
from slaterank.data import FeedbackMatrix, LogTable, RequestBatch
from slaterank.decoding import DecodeConfig, beam_decode, contrastive_decode, greedy_decode
from slaterank.evaluator import (EvaluatorConfig, _logits, bce_loss, init_evaluator_params,
                                 select_best, train_evaluator)
from slaterank.generator import GeneratorConfig, ProbMatrix, forward, init_generator_params
from slaterank.metrics import auc, logloss, ndcg_list, recall_at_k
from slaterank.numerics import Tensor
from slaterank.objectives import (UtilitySpec, ce_loss, contrastive_loss,
                                  sequence_log_likelihood, unlikelihood_loss, utility)
from slaterank.simulator import (World, WorldConfig, gen_log, gen_request,
                                 oracle_expected_utility, policy_slate)
from slaterank.training import train_generator

SPEC = UtilitySpec(("click", "like"), (1.0, 0.5), 1.0)
# tau = one click: like-weight 0 makes R exactly the click count
CLICKS = UtilitySpec(("click", "like"), (1.0, 0.0), 1.0)
SMALL_GEN = GeneratorConfig(d=16, h=2, L=1, d_t=8)
LADDER = (0.03, 0.05, 0.08)


def _line(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _quiet_log(world, policy, num, seed, start=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return gen_log(world, policy, num, np.random.default_rng(seed), start_id=start)


def _quiet_eu(world, req, slate, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return oracle_expected_utility(world, req, slate, spec)


def _held_requests(world, count=1000):
    streams = np.random.default_rng(999).spawn(count)
    return [gen_request(world, r, 10_000_000 + i) for i, r in enumerate(streams)]


def _mixed_log(world, num, seed, start=0):
    """60% affinity-greedy exposure plus 40% random exploration, interleaved
    3:2 so held-out slices keep the same mixture."""
    n_aff = int(0.6 * num)
    a = _quiet_log(world, "affinity_greedy", n_aff, seed, start=start)
    b = _quiet_log(world, "random", num - n_aff, seed + 1, start=start + n_aff)
    out, ia, ib = [], 0, 0
    for i in range(num):
        if i % 5 < 3 and ia < len(a):
            out.append(a[ia])
            ia += 1
        elif ib < len(b):
            out.append(b[ib])
            ib += 1
        else:
            out.append(a[ia])
            ia += 1
    return out


# ---------------------------------------------------------------- builders

def _build_c3():
    """Decoding equivalences: contrastive(alpha=0) vs greedy, beam vs brute
    force. Returns the verdicts plus byte-stable slates for criterion 9."""
    rng = np.random.default_rng(33)
    greedy_match = True
    slates = []
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, min(n, 5)))
        values = rng.random((n, m)) + 1e-3
        values /= values.sum(axis=0)
        probs = ProbMatrix(Tensor(values), Tensor(rng.normal(size=(n, 4))),
                           Tensor(rng.normal(size=(m, 4))))
        a = contrastive_decode(probs, DecodeConfig(alpha=0.0)).indices
        b = greedy_decode(probs).indices
        greedy_match = greedy_match and a == b
        slates.append(list(a))

    beam_match = True
    for _ in range(200):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 4))
        values = rng.random((n, m)) + 1e-3
        values /= values.sum(axis=0)
        probs = ProbMatrix(Tensor(values), Tensor(rng.normal(size=(n, 4))),
                           Tensor(rng.normal(size=(m, 4))))
        # width 720 >= n!/(n-m)! for n<=6, m<=3, so the search is exhaustive
        got = beam_decode(probs, 720).indices
        logp = np.log(values)
        best_score, best_perm = -np.inf, None
        for perm in permutations(range(n), m):
            score = logp[list(perm), range(m)].sum()
            if score > best_score + 1e-12:
                best_score, best_perm = score, perm
        beam_match = beam_match and got == best_perm
        slates.append(list(got))
    payload = json.dumps({"slates": slates}, sort_keys=True)
    return {"greedy_match": greedy_match, "beam_match": beam_match, "bytes": payload}


def _build_paired():
    """Train CE and unlikelihood generators on one random-policy log and
    score both on held-out requests (criteria 4 and 5)."""
    t0 = time.perf_counter()
    world = World(WorldConfig())
    logs = _quiet_log(world, "random", 4000, 11)
    cfg = SMALL_GEN
    models = {}
    for objective in ("ce", "ul"):
        params = init_generator_params(cfg)
        train_generator(logs, params, cfg, CLICKS, lr=1e-3, epochs=2,
                        batch_size=256, objective=objective, seed=0)
        models[objective] = params

    held = _held_requests(world)
    decode = DecodeConfig()  # contrastive, alpha=0.1
    ul_slates, greedy_slates, ce_slates = [], [], []
    diffs, eu_ul, eu_ce = [], [], []
    for req in held:
        p_ul = forward(req, models["ul"], cfg)
        s_ul = contrastive_decode(p_ul, decode).indices
        s_greedy = greedy_decode(p_ul).indices
        s_ce = contrastive_decode(forward(req, models["ce"], cfg), decode).indices
        ul_slates.append(list(s_ul))
        greedy_slates.append(list(s_greedy))
        ce_slates.append(list(s_ce))
        diffs.append(_quiet_eu(world, req, s_ul, SPEC)
                     - _quiet_eu(world, req, s_greedy, SPEC))
        eu_ul.append(_quiet_eu(world, req, s_ul, CLICKS))
        eu_ce.append(_quiet_eu(world, req, s_ce, CLICKS))
    diffs = np.asarray(diffs)
    t_stat = float(diffs.mean() / (diffs.std(ddof=1) / math.sqrt(diffs.size)))

    logged_r = np.array([utility(e.feedback, CLICKS) for e in logs])
    bottom = [logs[i] for i in np.argsort(logged_r, kind="stable")[: len(logs) // 10]]
    lls = {}
    for name, params in models.items():
        lls[name] = float(np.mean([
            sequence_log_likelihood(forward(e.request, params, cfg), e.exposed)
            for e in bottom]))

    report = {
        "t_stat": t_stat,
        "mean_diff": float(diffs.mean()),
        "eu_ul": float(np.mean(eu_ul)),
        "eu_ce": float(np.mean(eu_ce)),
        "ll_ul": lls["ul"],
        "ll_ce": lls["ce"],
    }
    payload = json.dumps({"report": report, "ul": ul_slates, "greedy": greedy_slates,
                          "ce": ce_slates}, sort_keys=True)
    report["elapsed"] = time.perf_counter() - t0
    return {"report": report, "bytes": payload}


def _build_desk():
    """The 50k-request desk run: simulate, train generator and evaluator,
    score exposure recall and the slate pipeline against affinity-greedy."""
    t0 = time.perf_counter()
    world = World(WorldConfig())
    # stacked once, so that neither trainer stacks a list of its own
    train_logs = LogTable.of(_mixed_log(world, 50_000, 21))
    test_logs = _mixed_log(world, 1500, 61, start=900_000)

    cfg = SMALL_GEN
    gen_params = init_generator_params(cfg)
    train_generator(train_logs, gen_params, cfg, SPEC, lr=1e-3, epochs=1,
                    batch_size=256, seed=0)
    recall = float(np.mean([
        recall_at_k(forward(e.request, gen_params, cfg), e.exposed, 6)
        for e in test_logs]))

    ecfg = EvaluatorConfig()
    ev_params = init_evaluator_params(ecfg)
    train_evaluator(train_logs, ev_params, ecfg, lr=3e-3, epochs=3,
                    batch_size=256, seed=0)

    held = _held_requests(world)
    rng = np.random.default_rng(3)
    pipe_slates, pipe_u, aff_u = [], [], []
    for req in held:
        probs = forward(req, gen_params, cfg)
        # a diversity ladder: each rung is a strong slate on its own, so the
        # evaluator's pick can only move the mean around a healthy pool
        pool = [contrastive_decode(probs, DecodeConfig(alpha=a)).indices
                for a in LADDER]
        best = select_best(req, pool, ev_params, ecfg)
        pipe_slates.append(list(best))
        pipe_u.append(_quiet_eu(world, req, best, SPEC))
        aff_u.append(_quiet_eu(world, req, policy_slate("affinity_greedy", req, 6, rng),
                               SPEC))

    report = {
        "recall_at_6": recall,
        "pipeline_mean": float(np.mean(pipe_u)),
        "affinity_mean": float(np.mean(aff_u)),
    }
    payload = json.dumps({"report": report, "slates": pipe_slates}, sort_keys=True)
    report["elapsed"] = time.perf_counter() - t0
    return {"report": report, "bytes": payload}


@pytest.fixture(scope="session")
def c3_run():
    return _build_c3()


@pytest.fixture(scope="session")
def paired():
    return _build_paired()


@pytest.fixture(scope="session")
def desk():
    return _build_desk()


# ---------------------------------------------------------------- criteria

def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        cfg = GeneratorConfig(n_max=6, m=3, d=8, h=2, L=1, d_x=4, d_t=5, seed=seed)
        params = init_generator_params(cfg)
        inflate_weights(params, 15.0)
        req = RequestBatch(request_id=0, user_id=0, item_ids=np.arange(6),
                           features=rng.normal(size=(6, 4)))
        exposed = tuple(rng.choice(6, size=3, replace=False).tolist())
        wrt = [params["embed.x.w"], params["pos.table"], params["cand.0.attn.wq"]]
        pos_fb = FeedbackMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                                ("click", "like"))
        neg_fb = FeedbackMatrix(np.zeros((2, 3)), ("click", "like"))
        assert utility(pos_fb, SPEC) >= SPEC.tau > utility(neg_fb, SPEC)

        def ce(tape):
            return ce_loss(tape, forward(req, params, cfg, tape=tape), exposed)

        def ul_pos(tape):
            probs = forward(req, params, cfg, tape=tape)
            return unlikelihood_loss(tape, probs, exposed, utility(pos_fb, SPEC), SPEC)[0]

        def ul_neg(tape):
            probs = forward(req, params, cfg, tape=tape)
            return unlikelihood_loss(tape, probs, exposed, utility(neg_fb, SPEC), SPEC)[0]

        for make_loss in (ce, ul_pos, ul_neg):
            worst = max(worst, gradcheck(make_loss, wrt))

        reps = Tensor(rng.normal(size=(5, 8)))
        pos_reps = Tensor(rng.normal(size=(3, 8)))
        worst = max(worst, gradcheck(
            lambda tape: contrastive_loss(tape, reps, 0.5), [reps]))
        worst = max(worst, gradcheck(
            lambda tape: contrastive_loss(tape, pos_reps, 0.5), [pos_reps]))

        ecfg = EvaluatorConfig(("click",), (1.0,), d=8, h=2, d_x=4, m=3, seed=seed)
        ev = init_evaluator_params(ecfg)
        inflate_weights(ev, 15.0)
        ev_fb = FeedbackMatrix(rng.integers(0, 2, size=(1, 3)).astype(float), ("click",))

        def bce(tape):
            return bce_loss(tape, _logits(req.features[list(exposed)], ev, ecfg, tape),
                            ev_fb.values)

        worst = max(worst, gradcheck(
            bce, [ev["ev.embed.w"], ev["ev.pos"], ev["ev.attn.wq"],
                  ev["ev.head.click.w"]]))
    elapsed = time.perf_counter() - t0
    _line(1, worst < 1e-4 and elapsed < 60,
          f"max rel err {worst:.2e} < 1e-4, {elapsed:.1f}s")


def test_criterion_2_probability_matrix_invariants():
    t0 = time.perf_counter()
    cfg = GeneratorConfig(n_max=8, m=3, d=8, h=2, L=1, d_x=4, d_t=5)
    rng = np.random.default_rng(7)
    worst_col = 0.0
    worst_pad = 0.0
    params = None
    for i in range(10_000):
        if i % 500 == 0:
            params = init_generator_params(
                GeneratorConfig(n_max=8, m=3, d=8, h=2, L=1, d_x=4, d_t=5,
                                seed=int(rng.integers(1 << 30))))
        n = int(rng.integers(3, 9))
        req = RequestBatch(request_id=i, user_id=0, item_ids=np.arange(n),
                           features=rng.normal(size=(n, 4)))
        probs = forward(req, params, cfg, pad_to=8)
        values = probs.values.data
        worst_col = max(worst_col, float(np.abs(values.sum(axis=0) - 1.0).max()))
        if n < 8:
            worst_pad = max(worst_pad, float(values[n:].max()))
    elapsed = time.perf_counter() - t0
    _line(2, worst_col < 1e-6 and worst_pad < 1e-12 and elapsed < 60,
          f"col-sum dev {worst_col:.2e} < 1e-6, padded max {worst_pad:.2e} < 1e-12, "
          f"{elapsed:.1f}s")


def test_criterion_3_decoding_oracle_equivalence(c3_run):
    _line(3, c3_run["greedy_match"] and c3_run["beam_match"],
          f"contrastive(0)==greedy on 1000 matrices: {c3_run['greedy_match']}, "
          f"beam==brute-force on 200: {c3_run['beam_match']}")


def test_criterion_4_contrastive_decoding_diversity(paired):
    r = paired["report"]
    suppression = WorldConfig().suppression
    ok = suppression > 0 and r["mean_diff"] > 0 and r["t_stat"] > 2.0
    _line(4, ok, f"suppression {suppression} > 0, mean utility lift "
          f"{r['mean_diff']:+.4f}, paired t {r['t_stat']:.2f} > 2")


def test_criterion_5_unlikelihood_training_effect(paired):
    r = paired["report"]
    ok = r["eu_ul"] > r["eu_ce"] and r["ll_ul"] < r["ll_ce"]
    _line(5, ok, f"held-out E[utility] UL {r['eu_ul']:.4f} > CE {r['eu_ce']:.4f}; "
          f"bottom-decile loglik UL {r['ll_ul']:.3f} < CE {r['ll_ce']:.3f}")


def test_criterion_6_latency():
    t0 = time.perf_counter()
    run = RunConfig(generator=SMALL_GEN)
    report = run_bench(run, steps=80, warmup=10,
                       sweep_m=(1, 2, 3, 4, 5, 6, 7, 8), ratio_m=5)
    elapsed = time.perf_counter() - t0
    counts_ok = (report.nar_forwards_per_request == 1
                 and report.ar_forwards_per_request == run.generator.m)
    slope_ok = report.nar_slope <= 0.2 * report.ar_slope
    # the gate in ratio form: a NAR slope of zero or below meets any bound
    slope_ratio = report.ar_slope / report.nar_slope if report.nar_slope > 0 else math.inf
    ok = report.infer_ratio >= 3.0 and counts_ok and slope_ok and elapsed < 300
    _line(6, ok, f"AR/NAR time ratio {report.infer_ratio:.2f} >= 3.0 at m=5, "
          f"forwards {report.ar_forwards_per_request}={run.generator.m}x"
          f"{report.nar_forwards_per_request}, slopes NAR {report.nar_slope * 1e6:.1f} "
          f"vs AR {report.ar_slope * 1e6:.1f} µs/position, AR/NAR slope ratio "
          f"{slope_ratio:.1f} >= 5, {elapsed:.1f}s")


def test_criterion_7_metric_fixtures():
    closed = (
        auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75
        and auc([0.9, 0.1], [1, 0]) == 1.0
        and auc([0.1, 0.9], [1, 0]) == 0.0
        and logloss([0.5, 0.5], [1, 0]) == math.log(2)
        and logloss([0.9, 0.1], [1, 0]) == -math.log(0.9)
        and ndcg_list([0.9, 0.8], [1.0, 0.0]) == 1.0
        and ndcg_list([0.2, 0.9], [1.0, 0.0]) == 1.0 / math.log2(3)
    )

    def probs_of(values):
        v = np.asarray(values, dtype=float)
        return ProbMatrix(Tensor(v), Tensor(np.zeros((v.shape[0], 1))),
                          Tensor(np.zeros((v.shape[1], 1))))

    nailed = probs_of(np.vstack([np.eye(6), np.zeros((2, 6))]))
    recall_closed = (recall_at_k(nailed, tuple(range(6)), 6) == 1.0
                     and recall_at_k(probs_of(np.random.default_rng(0).random((8, 6))),
                                     (0, 2, 4, 5, 6, 7), 8) == 1.0)

    rng = np.random.default_rng(2026)
    trials = [recall_at_k(probs_of(rng.random((60, 6))),
                          tuple(rng.choice(60, size=6, replace=False).tolist()), 6)
              for _ in range(10_000)]
    mc = float(np.mean(trials))
    ok = closed and recall_closed and abs(mc - 0.1) < 0.005
    _line(7, ok, f"closed forms exact: {closed and recall_closed}, "
          f"random recall MC {mc:.4f} within 0.005 of 0.1")


def test_criterion_8_end_to_end_desk_run(desk):
    r = desk["report"]
    baseline = 2.0 * 6 / 20  # twice m/n for the default world
    ok = (r["recall_at_6"] >= baseline
          and r["pipeline_mean"] > r["affinity_mean"]
          and r["elapsed"] < 2700)
    _line(8, ok, f"Recall@6 {r['recall_at_6']:.4f} >= {baseline}, pipeline "
          f"{r['pipeline_mean']:.4f} > affinity-greedy {r['affinity_mean']:.4f}, "
          f"{r['elapsed']:.0f}s < 2700s")


def test_criterion_9_determinism(c3_run, paired, desk):
    again = {"c3": _build_c3(), "paired": _build_paired(), "desk": _build_desk()}
    same_c3 = again["c3"]["bytes"] == c3_run["bytes"]
    same_paired = again["paired"]["bytes"] == paired["bytes"]
    same_desk = again["desk"]["bytes"] == desk["bytes"]
    _line(9, same_c3 and same_paired and same_desk,
          f"byte-identical reruns: decoding {same_c3}, paired training "
          f"{same_paired}, desk run {same_desk}")
