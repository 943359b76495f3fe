"""Synthetic listwise feedback world.

Users and items live on the unit sphere; items are drawn around cluster
centers so that near-duplicate candidates are common and intra-list
diversity actually matters. The click model is multiplicative:

    p(click at position j) = sigmoid(scale * affinity + shift)
                             * posbias[j]
                             * (1 - suppression * max cos-sim to preceding)

with secondary interaction types scaled down by per-type base rates. The
same closed-form probabilities back three things: Bernoulli feedback draws
for logged slates, an exact expected-utility oracle for judging decoders,
and the learnable affinity signal surfaced in candidate features
(feature layout: item latent, then affinity, then one pure-noise column).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import ExposureLog, FeedbackMatrix, RequestBatch, slate_indices
from .errors import ConfigError
from .objectives import UtilitySpec


@dataclass(frozen=True)
class WorldConfig:
    num_users: int = 1000
    num_items: int = 5000
    latent_dim: int = 8
    n_candidates: int = 20
    posbias: tuple[float, ...] = (1.0, 0.85, 0.72, 0.61, 0.52, 0.44)
    suppression: float = 1.1
    types: tuple[str, ...] = ("click", "like")
    base_rates: tuple[float, ...] = (1.0, 0.35)
    affinity_scale: float = 4.0
    affinity_shift: float = -1.2
    clusters: int = 25
    cluster_spread: float = 0.2
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "posbias", tuple(float(b) for b in self.posbias))
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "base_rates", tuple(float(r) for r in self.base_rates))
        if min(self.num_users, self.num_items, self.latent_dim, self.clusters) < 1:
            raise ConfigError("world sizes must be positive")
        if not self.posbias:
            raise ConfigError("posbias must cover at least one position")
        bias = np.asarray(self.posbias)
        if (bias <= 0.0).any() or (bias > 1.0).any():
            raise ConfigError("posbias values must lie in (0, 1]")
        if (np.diff(bias) > 0.0).any():
            raise ConfigError("posbias must be non-increasing")
        if self.suppression < 0.0:
            raise ConfigError("suppression must be >= 0")
        if len(self.types) != len(self.base_rates):
            raise ConfigError("one base rate per interaction type required")
        if any(not 0.0 <= r <= 1.0 for r in self.base_rates):
            raise ConfigError("base rates must lie in [0, 1]")
        if self.n_candidates < self.m:
            raise ConfigError("need at least m candidates per request")

    @property
    def m(self) -> int:
        return len(self.posbias)

    @property
    def d_x(self) -> int:
        return self.latent_dim + 2


def _unit_rows(rng: np.random.Generator, shape) -> np.ndarray:
    x = rng.normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class World:
    """Frozen latent state sampled once from the config seed."""

    def __init__(self, cfg: WorldConfig):
        self.config = cfg
        rng = np.random.default_rng(cfg.seed)
        centers = _unit_rows(rng, (cfg.clusters, cfg.latent_dim))
        assignment = rng.integers(cfg.clusters, size=cfg.num_items)
        raw = centers[assignment] + cfg.cluster_spread * rng.normal(
            size=(cfg.num_items, cfg.latent_dim))
        self.items = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        self.users = _unit_rows(rng, (cfg.num_users, cfg.latent_dim))

    def affinity(self, user_id: int, item_ids: np.ndarray) -> np.ndarray:
        return self.items[item_ids] @ self.users[user_id]


def gen_request(world: World, rng: np.random.Generator,
                request_id: int = 0) -> RequestBatch:
    cfg = world.config
    user_id = int(rng.integers(cfg.num_users))
    item_ids = rng.choice(cfg.num_items, size=cfg.n_candidates, replace=False)
    affinity = world.affinity(user_id, item_ids)
    noise = rng.normal(0.0, cfg.noise_std, size=(cfg.n_candidates, 1))
    features = np.hstack([world.items[item_ids], affinity[:, None], noise])
    return RequestBatch(request_id=request_id, user_id=user_id,
                        item_ids=item_ids, features=features)


def _click_probs(world: World, req: RequestBatch, slate) -> tuple[np.ndarray, bool]:
    cfg = world.config
    idx = slate_indices([slate], req.n, cfg.m)[0]
    latents = world.items[req.item_ids[idx]]
    affinity = world.affinity(req.user_id, req.item_ids[idx])
    base = 1.0 / (1.0 + np.exp(-(cfg.affinity_scale * affinity + cfg.affinity_shift)))
    factor = np.ones(cfg.m)
    for j in range(1, cfg.m):
        max_sim = float((latents[:j] @ latents[j]).max())
        factor[j] = 1.0 - cfg.suppression * max_sim
    raw = base * np.asarray(cfg.posbias) * factor
    probs = np.outer(cfg.base_rates, raw)
    clipped = np.clip(probs, 0.0, 1.0)
    clamped = bool((clipped != probs).any())
    return clipped, clamped


def oracle_click_probs(world: World, req: RequestBatch, slate) -> np.ndarray:
    """Closed-form per-type per-position interaction probabilities (|B| x m)."""
    probs, clamped = _click_probs(world, req, slate)
    if clamped:
        warnings.warn("oracle probability clamped into [0, 1]", RuntimeWarning,
                      stacklevel=2)
    return probs


def oracle_feedback(world: World, req: RequestBatch, slate,
                    rng: np.random.Generator) -> FeedbackMatrix:
    """One Bernoulli draw per interaction type and position."""
    probs = oracle_click_probs(world, req, slate)
    draws = (rng.random(size=probs.shape) < probs).astype(np.float64)
    return FeedbackMatrix(values=draws, types=world.config.types)


def oracle_expected_utility(world: World, req: RequestBatch, slate,
                            spec: UtilitySpec) -> float:
    """Exact E[utility]: utility is linear in the Bernoulli outcomes."""
    probs = oracle_click_probs(world, req, slate)
    total = 0.0
    for b, t in enumerate(world.config.types):
        total += spec.weight_for(t) * float(probs[b].sum())
    return total


POLICIES = ("random", "affinity_greedy")


def policy_slate(policy: str, req: RequestBatch, m: int,
                 rng: np.random.Generator) -> tuple[int, ...]:
    """Logging policies: uniform random slates, or the pointwise ranker that
    fills the slate with the m highest-affinity candidates in order."""
    if policy == "random":
        return tuple(int(i) for i in rng.choice(req.n, size=m, replace=False))
    if policy == "affinity_greedy":
        affinity = req.features[:, -2]
        return tuple(int(i) for i in np.argsort(-affinity, kind="stable")[:m])
    raise ConfigError(f"unknown logging policy {policy!r}; use one of {POLICIES}")


def gen_log(world: World, policy: str, num_requests: int,
            rng: np.random.Generator, start_id: int = 0) -> list[ExposureLog]:
    """Exposure logs under a logging policy, one derived stream per request
    so generation order cannot change the data."""
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    m = world.config.m
    logs = []
    for child, rid in zip(rng.spawn(num_requests), range(num_requests)):
        req = gen_request(world, child, request_id=start_id + rid)
        slate = policy_slate(policy, req, m, child)
        feedback = oracle_feedback(world, req, slate, child)
        logged = RequestBatch(request_id=req.request_id, user_id=req.user_id,
                              item_ids=req.item_ids, features=req.features,
                              exposed=slate, feedback=feedback)
        logs.append(ExposureLog(logged))
    return logs
