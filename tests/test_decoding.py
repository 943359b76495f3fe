import itertools
import math

import numpy as np
import pytest

from slaterank.decoding import (
    DecodeConfig,
    _topk_draws,
    SlateSequence,
    beam_decode,
    contrastive_decode,
    decode,
    greedy_decode,
    sample_slates,
    slate_score,
    topk_sample,
)
from slaterank.errors import ConfigError, InfeasibleSlateError
from slaterank.generator import ProbMatrix
from slaterank.numerics import Tensor


def make_probs(values, reps=None, rng=None):
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    rng = rng or np.random.default_rng(0)
    if reps is None:
        reps = rng.normal(size=(n, 4))
    return ProbMatrix(
        values=Tensor(values),
        candidate_reps=Tensor(np.asarray(reps, dtype=np.float64)),
        position_reps=Tensor(rng.normal(size=(m, 4))),
    )


def random_probs(rng, n, m):
    raw = rng.uniform(0.01, 1.0, size=(n, m))
    return make_probs(raw / raw.sum(axis=0), rng=rng)


def oracle_contrastive(values, reps, alpha):
    """Explicit per-step enumeration of the greedy recursion."""
    n, m = values.shape
    norms = np.linalg.norm(reps, axis=1, keepdims=True)
    unit = np.divide(reps, norms, out=np.zeros_like(reps), where=norms > 0)
    chosen = []
    for t in range(m):
        best_i, best_s = None, None
        for i in range(n):
            if i in chosen:
                continue
            penalty = max((float(unit[i] @ unit[j]) for j in chosen), default=0.0)
            s = (1.0 - alpha) * values[i, t] - alpha * penalty
            if best_s is None or s > best_s:
                best_i, best_s = i, s
        chosen.append(best_i)
    return tuple(chosen)


# ----------------------------------------------------------- domain types


def test_slate_sequence_invariants():
    with pytest.raises(InfeasibleSlateError):
        SlateSequence((0, 0), (0.5, 0.5), "greedy")
    with pytest.raises(InfeasibleSlateError):
        SlateSequence((0, 1), (0.5,), "greedy")
    with pytest.raises(InfeasibleSlateError):
        SlateSequence((-1, 1), (0.5, 0.5), "greedy")
    s = SlateSequence((2, 0), (0.25, 0.5), "beam")
    assert s.m == 2 and s.indices == (2, 0)


def test_decode_config_validation():
    with pytest.raises(ConfigError):
        DecodeConfig(method="dpp")
    with pytest.raises(ConfigError):
        DecodeConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        DecodeConfig(k=0)
    with pytest.raises(ConfigError):
        DecodeConfig(width=0)
    with pytest.raises(ConfigError):
        DecodeConfig(num_samples=0)
    assert DecodeConfig().alpha == 0.1


def test_infeasible_when_m_exceeds_n():
    pm = make_probs(np.full((2, 3), 1.0 / 2))
    cfg = DecodeConfig(k=1)
    for fn in (lambda: contrastive_decode(pm, cfg),
               lambda: greedy_decode(pm),
               lambda: beam_decode(pm, cfg),
               lambda: topk_sample(pm, cfg, np.random.default_rng(0))):
        with pytest.raises(InfeasibleSlateError):
            fn()


# ---------------------------------------------------- contrastive decoding


def test_contrastive_hand_fixture_duplicate_reps():
    # identical reps: s = 1 between the two candidates; at t=1 the scores
    # are 0.5*0.6 = 0.3 vs 0.5*0.4 = 0.2, so item 0 wins; item 1 is the
    # only remaining choice at t=2.
    values = np.array([[0.6, 0.6], [0.4, 0.4]])
    reps = np.array([[1.0, 2.0], [1.0, 2.0]])
    pm = make_probs(values, reps=reps)
    slate = contrastive_decode(pm, DecodeConfig(alpha=0.5))
    assert slate.indices == (0, 1)
    assert slate.probabilities == (0.6, 0.4)
    assert slate.method == "contrastive"


def test_contrastive_alpha_zero_equals_greedy():
    rng = np.random.default_rng(1)
    cfg = DecodeConfig(alpha=0.0)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        pm = random_probs(rng, n, m)
        assert contrastive_decode(pm, cfg).indices == greedy_decode(pm).indices


def test_contrastive_matches_step_oracle():
    rng = np.random.default_rng(2)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(3, n) + 1))
        alpha = float(rng.uniform(0.0, 1.0))
        pm = random_probs(rng, n, m)
        got = contrastive_decode(pm, DecodeConfig(alpha=alpha)).indices
        want = oracle_contrastive(pm.values.data, pm.candidate_reps.data, alpha)
        assert got == want, f"trial {trial}: {got} != {want}"


def test_contrastive_penalizes_near_duplicates():
    # two strong near-duplicate candidates; with a large alpha the second
    # position must skip the duplicate and take the weaker distinct item
    values = np.array([[0.5, 0.5], [0.45, 0.45], [0.05, 0.05]])
    reps = np.array([[1.0, 0.0], [1.0, 1e-3], [0.0, 1.0]])
    pm = make_probs(values, reps=reps)
    assert greedy_decode(pm).indices == (0, 1)
    slate = contrastive_decode(pm, DecodeConfig(alpha=0.5))
    assert slate.indices == (0, 2)


# --------------------------------------------------------------- greedy


def test_greedy_diagonal_dominant():
    n, m = 5, 3
    values = np.full((n, m), 0.1 / (n - 1))
    for j in range(m):
        values[:, j] = (1 - 0.9) / (n - 1)
        values[j, j] = 0.9
    slate = greedy_decode(make_probs(values))
    assert slate.indices == (0, 1, 2)


def test_greedy_without_replacement_takes_runner_up():
    values = np.array([[0.1, 0.2], [0.7, 0.5], [0.2, 0.3]])
    slate = greedy_decode(make_probs(values))
    assert slate.indices == (1, 2)


def test_greedy_tie_breaks_to_lowest_index():
    values = np.full((4, 2), 0.25)
    assert greedy_decode(make_probs(values)).indices == (0, 1)


# --------------------------------------------------------------- top-k


def test_topk_k1_equals_greedy():
    rng = np.random.default_rng(3)
    cfg = DecodeConfig(k=1)
    for _ in range(50):
        pm = random_probs(rng, int(rng.integers(2, 7)), 2)
        sampled = topk_sample(pm, cfg, np.random.default_rng(0))
        assert sampled.indices == greedy_decode(pm).indices


def test_topk_frequencies_match_renormalized_column():
    column = np.array([[0.5], [0.3], [0.2]])
    pm = make_probs(column)
    rng = np.random.default_rng(4)
    draws = 100_000
    # one batched draw consumes the stream exactly as `draws` topk_sample calls
    chosen, _ = _topk_draws(pm, 3, draws, rng)
    counts = np.bincount(chosen[:, 0], minlength=3)
    assert np.abs(counts / draws - column[:, 0]).max() < 0.01

    chosen, _ = _topk_draws(pm, 2, draws, rng)
    counts = np.bincount(chosen[:, 0], minlength=3)
    expected = np.array([0.5 / 0.8, 0.3 / 0.8, 0.0])
    assert np.abs(counts / draws - expected).max() < 0.01


def test_topk_seeded_determinism():
    pm = random_probs(np.random.default_rng(5), 6, 3)
    cfg = DecodeConfig(k=3, seed=11)
    a = topk_sample(pm, cfg, np.random.default_rng(cfg.seed))
    b = topk_sample(pm, cfg, np.random.default_rng(cfg.seed))
    assert a == b


def test_topk_k_larger_than_n_rejected():
    pm = random_probs(np.random.default_rng(6), 3, 2)
    with pytest.raises(ConfigError):
        topk_sample(pm, DecodeConfig(k=4), np.random.default_rng(0))


# ----------------------------------------------------------------- beam


def brute_force_best(values):
    n, m = values.shape
    with np.errstate(divide="ignore"):
        logp = np.log(values)
    best = min(
        itertools.permutations(range(n), m),
        key=lambda idx: (-sum(logp[i, j] for j, i in enumerate(idx)), idx),
    )
    return tuple(best)


def test_beam_width1_equals_greedy():
    rng = np.random.default_rng(7)
    cfg = DecodeConfig(width=1)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pm = random_probs(rng, n, int(rng.integers(1, min(n, 3) + 1)))
        assert beam_decode(pm, cfg).indices == greedy_decode(pm).indices


def test_beam_exhaustive_width_is_exact_n4_m2():
    rng = np.random.default_rng(8)
    cfg = DecodeConfig(width=12)  # |A(4,2)| = 12
    for _ in range(200):
        pm = random_probs(rng, 4, 2)
        assert beam_decode(pm, cfg).indices == brute_force_best(pm.values.data)


def test_beam_exhaustive_width_is_exact_n5_m3():
    rng = np.random.default_rng(9)
    cfg = DecodeConfig(width=60)  # |A(5,3)| = 60
    for _ in range(50):
        pm = random_probs(rng, 5, 3)
        assert beam_decode(pm, cfg).indices == brute_force_best(pm.values.data)


def test_beam_never_worse_than_greedy():
    rng = np.random.default_rng(10)
    cfg = DecodeConfig(width=4)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pm = random_probs(rng, n, int(rng.integers(1, min(n, 4) + 1)))
        beam = beam_decode(pm, cfg)
        assert (slate_score(pm, beam.indices)
                >= slate_score(pm, greedy_decode(pm).indices) - 1e-12)


# --------------------------------------------------------- sample_slates


def test_sample_slates_single_is_contrastive():
    pm = random_probs(np.random.default_rng(11), 5, 3)
    cfg = DecodeConfig(num_samples=1, alpha=0.2)
    slates = sample_slates(pm, cfg)
    assert len(slates) == 1
    assert slates[0] == contrastive_decode(pm, cfg)


def test_sample_slates_bounded_by_feasible_count():
    pm = random_probs(np.random.default_rng(12), 3, 2)
    cfg = DecodeConfig(num_samples=10, k=3)
    slates = sample_slates(pm, cfg)
    assert 1 <= len(slates) <= 6  # |A(3,2)| = 6
    assert len({s.indices for s in slates}) == len(slates)


def test_sample_slates_valid_and_deterministic():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, min(n, 4) + 1))
        pm = random_probs(rng, n, m)
        cfg = DecodeConfig(num_samples=6, k=min(3, n), seed=21)
        slates = sample_slates(pm, cfg)
        again = sample_slates(pm, cfg)
        assert slates == again
        for s in slates:
            assert s.m == m
            assert len(set(s.indices)) == m
            assert all(0 <= i < n for i in s.indices)


# ------------------------------------------------------- shared behavior


def test_decoders_ignore_padded_rows():
    # padded rows carry exact-zero probability but garbage representations;
    # no decoder may ever select one
    rng = np.random.default_rng(14)
    values = np.zeros((6, 2))
    values[:4] = rng.uniform(0.1, 1.0, size=(4, 2))
    values[:4] /= values[:4].sum(axis=0)
    reps = rng.normal(size=(6, 4))
    reps[4:] *= 40.0
    pm = ProbMatrix(values=Tensor(values), candidate_reps=Tensor(reps),
                    position_reps=Tensor(rng.normal(size=(2, 4))),
                    valid=np.array([True] * 4 + [False] * 2))
    cfg = DecodeConfig(alpha=0.9, k=4, width=3)
    seen = set()
    seen.update(contrastive_decode(pm, cfg).indices)
    seen.update(greedy_decode(pm).indices)
    seen.update(beam_decode(pm, cfg).indices)
    for trial in range(50):
        seen.update(topk_sample(pm, cfg, np.random.default_rng(trial)).indices)
    assert max(seen) < 4


def test_decode_dispatch():
    pm = random_probs(np.random.default_rng(15), 5, 2)
    assert decode(pm, DecodeConfig(method="greedy")) == greedy_decode(pm)
    assert decode(pm, DecodeConfig(method="beam", width=2)) == beam_decode(
        pm, DecodeConfig(method="beam", width=2))
    assert decode(pm, DecodeConfig(method="contrastive")) == contrastive_decode(
        pm, DecodeConfig())
    t1 = decode(pm, DecodeConfig(method="topk", seed=3))
    t2 = topk_sample(pm, DecodeConfig(k=4), np.random.default_rng(3))
    assert t1 == t2


def test_slate_score_matches_manual_sum():
    pm = random_probs(np.random.default_rng(16), 4, 3)
    idx = (2, 0, 3)
    want = sum(math.log(pm.values.data[i, j]) for j, i in enumerate(idx))
    assert abs(slate_score(pm, idx) - want) < 1e-12


# ------------------------------------- batched draws vs one-at-a-time loop


def loop_topk_sample(probs, cfg, rng):
    """The one-sample-at-a-time top-k sampler the batched draw replaced."""
    n = probs.n if probs.valid is None else int(probs.valid.sum())
    values = probs.values.data[:n]
    selected = np.zeros(n, dtype=bool)
    chosen = []
    for t in range(probs.m):
        avail = np.flatnonzero(~selected)
        ranked = avail[np.argsort(-values[avail, t], kind="stable")]
        group = ranked[: cfg.k]
        weights = values[group, t]
        total = weights.sum()
        weights = weights / total if total > 0.0 else np.full(len(group), 1.0 / len(group))
        pick = int(rng.choice(group, p=weights))
        chosen.append(pick)
        selected[pick] = True
    return tuple(chosen)


def loop_sample_slates(probs, cfg, rng):
    slates = [contrastive_decode(probs, cfg).indices]
    seen = {slates[0]}
    attempts = 0
    while len(slates) < cfg.num_samples and attempts < 20 * cfg.num_samples:
        attempts += 1
        candidate = loop_topk_sample(probs, cfg, rng)
        if candidate not in seen:
            seen.add(candidate)
            slates.append(candidate)
    return slates


def assert_same_draws(pm, cfg, seed):
    """New and loop samplers emit equal slates and leave equal rng states,
    for a single sample and for a whole pool on one shared rng."""
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert topk_sample(pm, cfg, new_rng).indices == loop_topk_sample(pm, cfg, old_rng)
    for _ in range(3):
        got = [s.indices for s in sample_slates(pm, cfg, new_rng)]
        assert got == loop_sample_slates(pm, cfg, old_rng)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def padded_probs(rng, n_real, n_pad, m):
    raw = np.zeros((n_real + n_pad, m))
    raw[:n_real] = rng.uniform(0.01, 1.0, size=(n_real, m))
    raw /= raw.sum(axis=0)
    return ProbMatrix(values=Tensor(raw),
                      candidate_reps=Tensor(rng.normal(size=(n_real + n_pad, 4))),
                      position_reps=Tensor(rng.normal(size=(m, 4))),
                      valid=np.arange(n_real + n_pad) < n_real)


def test_batched_draws_match_loop_on_random_matrices():
    rng = np.random.default_rng(30)
    for trial in range(60):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, min(n, 7) + 1))
        pm = random_probs(rng, n, m)
        cfg = DecodeConfig(k=int(rng.integers(1, n + 1)),
                           num_samples=int(rng.integers(1, 10)))
        assert_same_draws(pm, cfg, seed=trial)


def test_batched_draws_match_loop_with_padded_rows():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n_real = int(rng.integers(3, 12))
        pm = padded_probs(rng, n_real, int(rng.integers(1, 6)),
                          int(rng.integers(1, min(n_real, 6) + 1)))
        cfg = DecodeConfig(k=int(rng.integers(1, n_real + 1)), num_samples=8)
        assert_same_draws(pm, cfg, seed=100 + trial)


def test_batched_draws_match_loop_when_k_covers_every_free_candidate():
    # late positions have fewer free candidates than k; k == n keeps every
    # free candidate in the group at every position
    rng = np.random.default_rng(32)
    for trial in range(20):
        n = int(rng.integers(3, 9))
        pm = random_probs(rng, n, n)
        for k in (n - 1, n):
            assert_same_draws(pm, DecodeConfig(k=k, num_samples=8), seed=200 + trial)


def test_batched_draws_match_loop_on_all_zero_groups():
    # exact-zero probabilities and ties: zero-sum groups fall back to uniform
    # and ties rank toward the lower index
    rng = np.random.default_rng(33)
    for trial in range(30):
        n, m = int(rng.integers(4, 10)), 3
        values = np.zeros((n, m))
        live = rng.random((n, m)) < 0.3
        values[live] = rng.choice([0.25, 0.5], size=int(live.sum()))
        pm = make_probs(values, rng=rng)
        cfg = DecodeConfig(k=int(rng.integers(1, 4)), num_samples=6)
        assert_same_draws(pm, cfg, seed=300 + trial)
