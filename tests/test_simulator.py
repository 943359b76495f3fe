"""Tests for the synthetic logging world.

The oracle is closed form, so most fixtures check exact arithmetic;
the stochastic parts (feedback draws, policy logs) are pinned by seed
and checked against Monte Carlo estimates with explicit error budgets.
"""

import json
import math
import warnings
from itertools import permutations

import numpy as np
import pytest

from slaterank.data import RequestBatch, read_logs, write_logs
from slaterank.errors import ConfigError, InvalidSlateError, ShapeError
from slaterank.objectives import UtilitySpec, utility
from slaterank.simulator import (
    BLOCK_REQUESTS,
    POLICIES,
    World,
    WorldConfig,
    _affinity,
    gen_log,
    gen_request,
    oracle_click_probs,
    oracle_expected_utility,
    policy_slate,
)

CLICK_LIKE = UtilitySpec(types=("click", "like"), weights=(1.0, 0.5), tau=1.0)


def quiet_probs(world, req, slate):
    # Clamping is expected under the default suppression strength.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return oracle_click_probs(world, req, slate)


def quiet_log(world, policy, num_requests, rng, start_id=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return gen_log(world, policy, num_requests, rng, start_id=start_id)


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(posbias=())
    with pytest.raises(ConfigError):
        WorldConfig(posbias=(1.0, 1.2))
    with pytest.raises(ConfigError):
        WorldConfig(posbias=(0.5, 0.8))
    with pytest.raises(ConfigError):
        WorldConfig(suppression=-0.1)
    with pytest.raises(ConfigError):
        WorldConfig(base_rates=(1.0,))
    with pytest.raises(ConfigError):
        WorldConfig(base_rates=(1.0, 1.5))
    with pytest.raises(ConfigError):
        WorldConfig(n_candidates=3)
    with pytest.raises(ConfigError):
        WorldConfig(num_items=0)
    with pytest.raises(ConfigError, match="noise_std"):
        WorldConfig(noise_std=-1.0)
    with pytest.raises(ConfigError, match="exceeds num_items"):
        WorldConfig(n_candidates=6000)
    for name, value in (("posbias", (1.0, math.nan)), ("suppression", math.nan),
                        ("base_rates", (1.0, math.inf)), ("affinity_scale", math.inf),
                        ("affinity_shift", -math.inf), ("cluster_spread", math.nan),
                        ("noise_std", math.inf)):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            WorldConfig(**{name: value})


def test_world_is_deterministic_and_unit_normalized():
    a = World(WorldConfig(seed=7))
    b = World(WorldConfig(seed=7))
    assert np.array_equal(a.items, b.items)
    assert np.array_equal(a.users, b.users)
    np.testing.assert_allclose(np.linalg.norm(a.items, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(a.users, axis=1), 1.0, atol=1e-12)


def test_request_layout():
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(3), request_id=42)
    cfg = world.config
    assert req.request_id == 42
    assert req.n == cfg.n_candidates
    assert req.features.shape == (cfg.n_candidates, cfg.d_x)
    assert len(set(req.item_ids.tolist())) == cfg.n_candidates
    np.testing.assert_array_equal(req.features[:, : cfg.latent_dim],
                                  world.items[req.item_ids])
    np.testing.assert_array_equal(
        req.features[:, -2], _affinity(world.items[req.item_ids], world.users[req.user_id]))

    again = gen_request(world, np.random.default_rng(3), request_id=42)
    assert np.array_equal(req.features, again.features)
    assert np.array_equal(req.item_ids, again.item_ids)


def test_slate_validation():
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        quiet_probs(world, req, (0, 1, 2))
    with pytest.raises(InvalidSlateError):
        quiet_probs(world, req, (0, 1, 2, 3, 4, 4))
    with pytest.raises(InvalidSlateError):
        quiet_probs(world, req, (0, 1, 2, 3, 4, req.n))


def test_affinity_feature_predicts_oracle_click_probability():
    world = World(WorldConfig())
    logs = quiet_log(world, "random", 1700, np.random.default_rng(11))
    affs, probs = [], []
    for log in logs:
        p = quiet_probs(world, log.request, log.exposed)
        idx = np.asarray(log.exposed)
        affs.extend(log.request.features[idx, -2])
        probs.extend(p[0])
    r = np.corrcoef(np.asarray(affs), np.asarray(probs))[0, 1]
    assert r > 0.5


def test_no_suppression_flat_posbias_factorizes():
    cfg = WorldConfig(suppression=0.0, posbias=(0.8, 0.8, 0.8), n_candidates=8)
    world = World(cfg)
    req = gen_request(world, np.random.default_rng(5))
    pa = oracle_click_probs(world, req, (0, 1, 2))
    pb = oracle_click_probs(world, req, (2, 0, 1))
    # Per-item probabilities must not depend on slate order.
    np.testing.assert_allclose(pa[:, 0], pb[:, 1], atol=1e-15)
    np.testing.assert_allclose(pa[:, 1], pb[:, 2], atol=1e-15)
    np.testing.assert_allclose(pa[:, 2], pb[:, 0], atol=1e-15)


def test_full_suppression_kills_adjacent_duplicate():
    cfg = WorldConfig(posbias=(1.0, 0.9), suppression=1.0, n_candidates=2)
    world = World(cfg)
    req = RequestBatch(request_id=0, user_id=0,
                       item_ids=np.array([7, 7]),
                       features=np.zeros((2, cfg.d_x)))
    probs = oracle_click_probs(world, req, (0, 1))
    assert probs[:, 1].max() == 0.0
    assert probs[:, 0].min() > 0.0


def test_single_position_expected_utility_is_the_probability():
    # affinity_scale=0 pins every base probability at sigmoid(shift) = 0.3.
    cfg = WorldConfig(posbias=(1.0,), n_candidates=1,
                      affinity_scale=0.0, affinity_shift=math.log(0.3 / 0.7),
                      types=("click",), base_rates=(1.0,))
    world = World(cfg)
    req = gen_request(world, np.random.default_rng(0))
    spec = UtilitySpec(types=("click",), weights=(1.0,), tau=0.5)
    got = oracle_expected_utility(world, req, (0,), spec)
    assert abs(got - 0.3) < 1e-12


def test_zero_weight_types_give_zero_utility():
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(1))
    spec = UtilitySpec(types=("click", "like", "share"),
                       weights=(0.0, 0.0, 1.0), tau=0.5)
    slate = tuple(range(world.config.m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert oracle_expected_utility(world, req, slate, spec) == 0.0


def test_expected_utility_matches_monte_carlo():
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(5))
    slate = tuple(range(6))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        exact = oracle_expected_utility(world, req, slate, CLICK_LIKE)
    probs = quiet_probs(world, req, slate)

    # 1e5 vectorized draws under the Bernoulli rule gen_log's feedback uses.
    rng = np.random.default_rng(99)
    draws = (rng.random(size=(100_000,) + probs.shape) < probs).astype(np.float64)
    w = np.asarray([CLICK_LIKE.weight_for(t) for t in world.config.types])
    mc = float((draws * w[None, :, None]).sum(axis=(1, 2)).mean())
    assert abs(mc - exact) / exact < 0.01


def test_exhaustive_slate_enumeration_reference():
    cfg = WorldConfig(posbias=(1.0, 0.8, 0.6), n_candidates=6)
    world = World(cfg)
    req = gen_request(world, np.random.default_rng(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scored = {s: oracle_expected_utility(world, req, s, CLICK_LIKE)
                  for s in permutations(range(6), 3)}
    assert len(scored) == 120
    best = max(scored, key=scored.get)
    values = np.asarray(list(scored.values()))
    assert scored[best] >= values.max()
    assert scored[best] > values.mean()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rescored = oracle_expected_utility(world, req, best, CLICK_LIKE)
    assert rescored == scored[best]


def test_random_policy_leaves_room_below_tau():
    world = World(WorldConfig())
    logs = quiet_log(world, "random", 1200, np.random.default_rng(23))
    below = np.mean([utility(log.feedback, CLICK_LIKE) < CLICK_LIKE.tau
                     for log in logs])
    assert 0.1 < below < 0.9


def test_log_round_trip_and_seed_stability(tmp_path):
    world = World(WorldConfig())
    logs = quiet_log(world, "affinity_greedy", 40, np.random.default_rng(123))
    path_a = tmp_path / "a.jsonl"
    write_logs(path_a, logs)
    back = read_logs(path_a)
    assert len(back) == len(logs)
    for orig, got in zip(logs, back):
        assert got.request.request_id == orig.request.request_id
        assert got.request.user_id == orig.request.user_id
        assert np.array_equal(got.request.item_ids, orig.request.item_ids)
        assert np.array_equal(got.request.features, orig.request.features)
        assert tuple(got.exposed) == tuple(orig.exposed)
        assert np.array_equal(got.feedback.values, orig.feedback.values)
        assert tuple(got.feedback.types) == tuple(orig.feedback.types)

    again = quiet_log(world, "affinity_greedy", 40, np.random.default_rng(123))
    path_b = tmp_path / "b.jsonl"
    write_logs(path_b, again)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_earlier_position_never_decreases_click_probability():
    cfg = WorldConfig(posbias=(1.0, 0.85, 0.72), suppression=0.3, n_candidates=3)
    world = World(cfg)
    # Duplicate item ids give two slates with the same preceding latents,
    # so only the position of the probed item differs.
    world.items[5] = np.eye(cfg.latent_dim)[0]
    probe = 0.5 * np.eye(cfg.latent_dim)[0] + np.eye(cfg.latent_dim)[1]
    world.items[9] = probe / np.linalg.norm(probe)
    req = RequestBatch(request_id=0, user_id=0,
                       item_ids=np.array([5, 5, 9]),
                       features=np.zeros((3, cfg.d_x)))
    early = oracle_click_probs(world, req, (0, 2, 1))
    late = oracle_click_probs(world, req, (0, 1, 2))
    assert np.all(early[:, 1] >= late[:, 2])
    ratio = early[:, 1] / late[:, 2]
    np.testing.assert_allclose(ratio, cfg.posbias[1] / cfg.posbias[2], atol=1e-12)


def test_clamp_emits_warning_and_caps_at_one():
    cfg = WorldConfig(posbias=(1.0, 0.85), n_candidates=2)
    world = World(cfg)
    unit = np.eye(cfg.latent_dim)[0]
    world.users[0] = unit
    world.items[0] = -unit
    world.items[1] = unit
    req = RequestBatch(request_id=0, user_id=0,
                       item_ids=np.array([0, 1]),
                       features=np.zeros((2, cfg.d_x)))
    # Opposite latents push the novelty factor to 1 + suppression > 2,
    # which overflows the raw probability for the well-matched item.
    with pytest.warns(RuntimeWarning):
        probs = oracle_click_probs(world, req, (0, 1))
    assert probs[0, 1] == 1.0
    base = 1.0 / (1.0 + math.exp(-(cfg.affinity_scale + cfg.affinity_shift)))
    assert base * cfg.posbias[1] * (1.0 + cfg.suppression) > 1.0
    assert probs.max() <= 1.0
    assert probs.min() >= 0.0


def test_policies():
    world = World(WorldConfig())
    req = gen_request(world, np.random.default_rng(4))
    rng = np.random.default_rng(0)

    greedy = policy_slate("affinity_greedy", req, 6, rng)
    want = tuple(int(i) for i in np.argsort(-req.features[:, -2], kind="stable")[:6])
    assert greedy == want

    rand = policy_slate("random", req, 6, rng)
    assert len(set(rand)) == 6
    assert all(0 <= i < req.n for i in rand)

    assert "random" in POLICIES and "affinity_greedy" in POLICIES
    with pytest.raises(ConfigError):
        policy_slate("oracle", req, 6, rng)
    with pytest.raises(ConfigError):
        gen_log(world, "random", 0, rng)


def test_gen_log_request_ids_reach_the_top_of_int64():
    # np.arange(start, stop) would go through float64 and write 2**63
    table = quiet_log(World(WorldConfig()), "random", 2, np.random.default_rng(0),
                      start_id=2 ** 63 - 2)
    assert table.request_id.tolist() == [2 ** 63 - 2, 2 ** 63 - 1]


def per_request_log(world, policy, num_requests, rng, start_id=0):
    """The per-request loop that gen_log's blocks replaced, kept as their
    reference: one request's draws, features, slate, click probabilities
    and feedback at a time. Records are tuples of gen_log's fields, then the
    click probabilities."""
    cfg = world.config
    records = []
    for rid, child in enumerate(rng.spawn(num_requests)):
        user_id = int(child.integers(cfg.num_users))
        item_ids = child.choice(cfg.num_items, size=cfg.n_candidates, replace=False)
        affinity = world.items[item_ids] @ world.users[user_id]
        noise = child.normal(0.0, cfg.noise_std, size=(cfg.n_candidates, 1))
        features = np.hstack([world.items[item_ids], affinity[:, None], noise])
        if policy == "random":
            slate = tuple(int(i) for i in child.choice(cfg.n_candidates, size=cfg.m,
                                                       replace=False))
        else:
            slate = tuple(int(i) for i in np.argsort(-features[:, -2], kind="stable")[:cfg.m])
        idx = np.asarray(slate)
        latents = world.items[item_ids[idx]]
        aff = world.items[item_ids[idx]] @ world.users[user_id]
        base = 1.0 / (1.0 + np.exp(-(cfg.affinity_scale * aff + cfg.affinity_shift)))
        factor = np.ones(cfg.m)
        for j in range(1, cfg.m):
            max_sim = float((latents[:j] @ latents[j]).max())
            factor[j] = 1.0 - cfg.suppression * max_sim
        probs = np.clip(np.outer(cfg.base_rates, base * np.asarray(cfg.posbias) * factor),
                        0.0, 1.0)
        feedback = (child.random(size=probs.shape) < probs).astype(np.float64)
        records.append((start_id + rid, user_id, item_ids, features, slate, cfg.types,
                        feedback, probs))
    return records


def fields(log):
    req = log.request
    return (req.request_id, req.user_id, req.item_ids, req.features, log.exposed,
            log.feedback.types, log.feedback.values)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n", [6, 9, 20])
@pytest.mark.parametrize("size", [1, BLOCK_REQUESTS, BLOCK_REQUESTS + 1])
def test_blocks_match_the_per_request_loop(policy, n, size):
    world = World(WorldConfig(n_candidates=n, seed=n))
    rng, ref_rng = np.random.default_rng(n + size), np.random.default_rng(n + size)
    logs = quiet_log(world, policy, size, rng, start_id=700)
    want = per_request_log(world, policy, size, ref_rng, start_id=700)
    assert len(logs) == len(want)
    for log, ref in zip(logs, want):
        for got, expect in zip(fields(log), ref):
            if isinstance(expect, np.ndarray):
                assert got.dtype == expect.dtype and got.shape == expect.shape
                assert got.tobytes() == expect.tobytes()
            else:
                assert got == expect and type(got) is type(expect)
        assert quiet_probs(world, log.request, log.exposed).tobytes() == ref[-1].tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.spawn(1)[0].random() == ref_rng.spawn(1)[0].random()


def test_gen_log_warns_once_when_it_clamps():
    # the default suppression pushes some probabilities above 1
    with pytest.warns(RuntimeWarning, match="clamped") as caught:
        gen_log(World(WorldConfig()), "random", 300, np.random.default_rng(8))
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        gen_log(World(WorldConfig(suppression=0.0)), "random", 300, np.random.default_rng(8))


def per_line_records(logs):
    """The JSONL writer before it took .tolist() rows: NumPy scalars, which
    json writes by float.__repr__ too."""
    for log in logs:
        req = log.request
        yield {
            "request_id": req.request_id,
            "user_id": req.user_id,
            "candidates": [{"item_id": int(item), "features": list(row)}
                           for item, row in zip(req.item_ids, req.features)],
            "exposed": list(log.exposed),
            "feedback": {t: list(log.feedback.values[b])
                         for b, t in enumerate(log.feedback.types)},
        }


def test_write_logs_bytes_match_the_scalar_writer(tmp_path):
    logs = quiet_log(World(WorldConfig()), "affinity_greedy", 50, np.random.default_rng(9))
    path = tmp_path / "log.jsonl"
    write_logs(path, logs)
    want = "".join(json.dumps(rec) + "\n" for rec in per_line_records(logs))
    assert path.read_bytes() == want.encode("utf-8")
