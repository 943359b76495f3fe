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

from .data import _INT64_MAX, _INT64_MIN, LogTable, RequestBatch, slate_indices
from .errors import ConfigError, ShapeError
from .objectives import UtilitySpec, weighted_sum


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
        for name in ("posbias", "suppression", "base_rates", "affinity_scale",
                     "affinity_shift", "cluster_spread", "noise_std"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite")
        if min(self.num_users, self.num_items, self.latent_dim, self.clusters) < 1:
            raise ConfigError("world sizes must be positive")
        if self.n_candidates > self.num_items:
            raise ConfigError(f"n_candidates={self.n_candidates} exceeds "
                              f"num_items={self.num_items}")
        if self.noise_std < 0.0:
            raise ConfigError("noise_std must be >= 0")
        # -0.0 passes the check above, but NumPy refuses a scale whose sign
        # bit is set; adding 0.0 turns it into 0.0
        object.__setattr__(self, "noise_std", float(self.noise_std) + 0.0)
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
        if len(set(self.types)) != len(self.types):
            raise ConfigError(f"world.types repeats an interaction type: {self.types}")
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
        # a finite but extreme spread overflows the latents or their norms;
        # say so here, where the config key is known, instead of warning
        with np.errstate(over="ignore", invalid="ignore"):
            raw = centers[assignment] + cfg.cluster_spread * rng.normal(
                size=(cfg.num_items, cfg.latent_dim))
            norms = np.linalg.norm(raw, axis=1, keepdims=True)
        if not np.isfinite(norms).all():
            raise ConfigError(f"world.cluster_spread={cfg.cluster_spread!r} is too large: "
                              f"the item latents overflow")
        self.items = raw / norms
        self.users = _unit_rows(rng, (cfg.num_users, cfg.latent_dim))


def _affinity(latents: np.ndarray, users: np.ndarray) -> np.ndarray:
    """(..., n) dot products of (..., n, L) item latents with (..., L) user
    latents. A stacked matrix-vector product gives each request the BLAS
    kernel it gets alone, so a block of requests matches one-at-a-time bit
    for bit (never `A @ A.T`, which NumPy sends to another routine)."""
    return (latents @ users[..., None])[..., 0]


def _draw_request(world: World, rng: np.random.Generator):
    """One request's draws from its stream, in order: user, items, noise."""
    cfg = world.config
    user_id = int(rng.integers(cfg.num_users))
    item_ids = rng.choice(cfg.num_items, size=cfg.n_candidates, replace=False)
    noise = rng.normal(0.0, cfg.noise_std, size=(cfg.n_candidates, 1))
    return user_id, item_ids, noise


def _features(world: World, user_ids, item_ids: np.ndarray,
              noise: np.ndarray) -> np.ndarray:
    """(K, n, d_x) candidate features of K requests: item latent, affinity,
    noise."""
    latents = world.items[item_ids]
    affinity = _affinity(latents, world.users[user_ids])
    return np.concatenate([latents, affinity[..., None], noise], axis=-1)


def gen_request(world: World, rng: np.random.Generator,
                request_id: int = 0) -> RequestBatch:
    user_id, item_ids, noise = _draw_request(world, rng)
    features = _features(world, [user_id], item_ids[None], noise[None])[0]
    return RequestBatch(request_id=request_id, user_id=user_id,
                        item_ids=item_ids, features=features)


def _click_probs(world: World, user_ids,
                 slate_items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, |B|, m) interaction probabilities of K slates, given as (K, m)
    item ids, clipped into [0, 1]; and (K,) whether each slate had one
    clipped."""
    cfg = world.config
    latents = world.items[slate_items]
    affinity = _affinity(latents, world.users[user_ids])
    base = 1.0 / (1.0 + np.exp(-(cfg.affinity_scale * affinity + cfg.affinity_shift)))
    factor = np.ones(slate_items.shape)
    for j in range(1, cfg.m):
        max_sim = _affinity(latents[:, :j], latents[:, j]).max(axis=1)
        factor[:, j] = 1.0 - cfg.suppression * max_sim
    raw = base * np.asarray(cfg.posbias) * factor
    probs = np.asarray(cfg.base_rates)[:, None] * raw[:, None, :]
    clipped = np.clip(probs, 0.0, 1.0)
    return clipped, (clipped != probs).any(axis=(1, 2))


def oracle_click_probs(world: World, req: RequestBatch, slate) -> np.ndarray:
    """Closed-form per-type per-position interaction probabilities (|B| x m)."""
    idx = slate_indices([slate], req.n, world.config.m)
    probs, clamped = _click_probs(world, [req.user_id], req.item_ids[idx])
    if clamped[0]:
        warnings.warn("oracle probability clamped into [0, 1]", RuntimeWarning,
                      stacklevel=2)
    return probs[0]


def oracle_expected_utility(world: World, req: RequestBatch, slate,
                            spec: UtilitySpec) -> float:
    """Exact E[utility]: utility is linear in the Bernoulli outcomes, so it
    is `weighted_sum` of the click probabilities."""
    probs = oracle_click_probs(world, req, slate)
    return float(weighted_sum(probs, [spec.weight_for(t) for t in world.config.types]))


POLICIES = ("random", "affinity_greedy")


def _draw_slate(policy: str, n: int, m: int, rng: np.random.Generator):
    """The random policy's slate, drawn from the request's stream; None for
    affinity_greedy, which draws nothing."""
    if policy == "random":
        return rng.choice(n, size=m, replace=False)
    if policy == "affinity_greedy":
        return None
    raise ConfigError(f"unknown logging policy {policy!r}; use one of {POLICIES}")


def _greedy_slates(features: np.ndarray, m: int) -> np.ndarray:
    """The m highest-affinity candidates of each request, in order; the first
    index wins a tie."""
    return np.argsort(-features[..., -2], axis=-1, kind="stable")[..., :m]


def policy_slate(policy: str, req: RequestBatch, m: int,
                 rng: np.random.Generator) -> tuple[int, ...]:
    """Logging policies: uniform random slates, or the pointwise ranker that
    fills the slate with the m highest-affinity candidates in order."""
    slate = _draw_slate(policy, req.n, m, rng)
    return tuple((_greedy_slates(req.features, m) if slate is None else slate).tolist())


# Requests gen_log computes at once: a block's arrays hold at most this many
# requests, however long the log.
BLOCK_REQUESTS = 256


def gen_log(world: World, policy: str, num_requests: int,
            rng: np.random.Generator, start_id: int = 0) -> LogTable:
    """Exposure logs under a logging policy as one LogTable, one derived
    stream per request so generation order cannot change the data.

    Each stream makes its draws in order: user, items, noise, the random
    policy's slate, the feedback uniforms. Features (checked finite), slates
    (checked by the one slate rule), click probabilities and feedback are
    then computed once per block of at most BLOCK_REQUESTS requests, into the
    table's rows. One warning counts the requests with clamped probabilities.
    Request ids run from start_id and must fit in int64."""
    if num_requests < 1:
        raise ConfigError("num_requests must be >= 1")
    if not _INT64_MIN <= start_id <= _INT64_MAX - (num_requests - 1):
        raise ConfigError(f"request ids {start_id}..{start_id + num_requests - 1} "
                          "do not fit in int64")
    cfg = world.config
    n, shape, N = cfg.n_candidates, (len(cfg.types), cfg.m), num_requests
    # np.arange(start_id, ...) would go through float64 near the top of int64
    table = LogTable(
        request_id=start_id + np.arange(N, dtype=np.int64), user_id=np.empty(N, np.int64),
        item_ids=np.empty((N, n), np.int64), features=np.empty((N, n, cfg.d_x)),
        n=np.full(N, n, np.int64), exposed=np.empty((N, cfg.m), np.int64),
        feedback=np.empty((N,) + shape), types=cfg.types)
    clamped = 0
    for first in range(0, num_requests, BLOCK_REQUESTS):
        draws = []
        for child in rng.spawn(min(BLOCK_REQUESTS, num_requests - first)):
            user_id, item_ids, noise = _draw_request(world, child)
            slate = _draw_slate(policy, n, cfg.m, child)
            draws.append((user_id, item_ids, noise, slate, child.random(shape)))
        user_ids, item_ids, noise, slates, uniforms = zip(*draws)
        rows = slice(first, first + len(draws))
        users, item_ids = list(user_ids), np.stack(item_ids)
        features = _features(world, users, item_ids, np.stack(noise))
        if not np.isfinite(features).all():
            raise ShapeError("candidate features contain non-finite values")
        slates = _greedy_slates(features, cfg.m) if slates[0] is None else np.stack(slates)
        probs, block_clamped = _click_probs(world, users,
                                            np.take_along_axis(item_ids, slates, axis=1))
        clamped += int(block_clamped.sum())
        table.user_id[rows] = users
        table.item_ids[rows] = item_ids
        table.features[rows] = features
        table.exposed[rows] = slate_indices(slates, n, cfg.m)
        table.feedback[rows] = np.stack(uniforms) < probs
    if clamped:
        warnings.warn(f"oracle probability clamped into [0, 1] in {clamped} of "
                      f"{num_requests} requests", RuntimeWarning, stacklevel=2)
    return table
