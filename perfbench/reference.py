"""Output checks for the benchmark, computed apart from slaterank's own code.

Every check either recomputes a result from raw arrays with plain NumPy
(the contrastive rule, the evaluator forward, the click model) or tests a
property the method must have (column-stochastic matrices, distinct slate
indices, decreasing loss). None compares against a stored copy of an
earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np

COLUMN_SUM_TOL = 1e-12
UTILITY_RTOL = 1e-9
ORACLE_RTOL = 1e-12


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def indices_of(slate) -> tuple[int, ...]:
    return tuple(int(i) for i in getattr(slate, "indices", slate))


# ---- generator and decoding ----


def check_prob_matrix(values: np.ndarray, n_valid: int) -> None:
    """Non-negative, every column sums to 1, rows past n_valid exactly 0."""
    require(bool((values >= 0.0).all()), "probability matrix has a negative entry")
    sums = values.sum(axis=0)
    worst = float(np.abs(sums - 1.0).max())
    require(worst <= COLUMN_SUM_TOL, f"a column sums to 1 {worst:+.3e} off")
    require(not values[n_valid:].any(), "a padded row has non-zero probability")


def check_slate(slate, n: int, m: int) -> None:
    idx = indices_of(slate)
    require(len(idx) == m, f"slate {idx} does not have {m} positions")
    require(len(set(idx)) == m, f"slate {idx} repeats an item")
    require(all(0 <= i < n for i in idx), f"slate {idx} leaves [0, {n})")


def contrastive_reference(values: np.ndarray, reps: np.ndarray,
                          alpha: float) -> tuple[int, ...]:
    """Fill position t with the unchosen row maximizing
    (1 - alpha) * p[i, t] - alpha * max over chosen j of cos(rep_i, rep_j);
    the penalty is 0 at the first position and the first index wins ties."""
    norms = np.linalg.norm(reps, axis=1)
    unit = reps / np.where(norms > 0.0, norms, 1.0)[:, None]
    chosen: list[int] = []
    penalty = np.zeros(values.shape[0])
    for t in range(values.shape[1]):
        score = (1.0 - alpha) * values[:, t] - alpha * penalty
        score[chosen] = -np.inf
        pick = int(np.argmax(score))
        sims = unit @ unit[pick]
        penalty = sims if not chosen else np.maximum(penalty, sims)
        chosen.append(pick)
    return tuple(chosen)


def check_contrastive(probs, slate, alpha: float) -> tuple[int, ...]:
    """The slate equals the reference rule on the matrix's valid rows."""
    n = probs.n if probs.valid is None else int(probs.valid.sum())
    want = contrastive_reference(probs.values.data[:n], probs.candidate_reps.data[:n], alpha)
    require(indices_of(slate) == want,
             f"contrastive slate {indices_of(slate)} is not the rule's {want}")
    return want


def check_proposals(slates, contrastive: tuple[int, ...], n: int, m: int,
                    limit: int) -> None:
    """Valid, pairwise distinct, at most `limit`, the contrastive slate first."""
    require(1 <= len(slates) <= limit, f"{len(slates)} proposals, limit {limit}")
    for slate in slates:
        check_slate(slate, n, m)
    keys = [indices_of(s) for s in slates]
    require(keys[0] == contrastive, "first proposal is not the contrastive slate")
    require(len(set(keys)) == len(keys), "two proposals repeat a slate")


# ---- evaluator ----


def _layer_norm(x, gain, bias, eps=1e-5):
    centred = x - x.mean(axis=1, keepdims=True)
    var = (centred ** 2).mean(axis=1, keepdims=True)
    return centred / np.sqrt(var + eps) * gain + bias


def _attention(x, wq, wk, wv, wo, heads):
    rows, width = x.shape
    hd = width // heads

    def split(a):
        return a.reshape(rows, heads, hd).transpose(1, 0, 2)

    q, k, v = split(x @ wq), split(x @ wk), split(x @ wv)
    scores = q @ k.transpose(0, 2, 1) / math.sqrt(hd)
    scores = np.exp(scores - scores.max(axis=2, keepdims=True))
    weights = scores / scores.sum(axis=2, keepdims=True)
    merged = (weights @ v).transpose(1, 0, 2).reshape(rows, width)
    return merged @ wo


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def evaluator_utility(params: dict, cfg, feats: np.ndarray) -> float:
    """Predicted utility of one slate from the evaluator's parameter arrays:
    embed + positions, one pre-norm attention + GELU feed-forward block, a
    final norm, then sum over types of weight * sum of sigmoid head outputs."""
    p = params
    x = feats @ p["ev.embed.w"] + p["ev.embed.b"] + p["ev.pos"]
    normed = _layer_norm(x, p["ev.ln1.g"], p["ev.ln1.b"])
    x = x + _attention(normed, p["ev.attn.wq"], p["ev.attn.wk"], p["ev.attn.wv"],
                       p["ev.attn.wo"], cfg.h)
    hidden = _gelu(_layer_norm(x, p["ev.ln2.g"], p["ev.ln2.b"]) @ p["ev.ffn.w1"])
    x = x + hidden @ p["ev.ffn.w2"]
    states = _layer_norm(x, p["ev.final_ln.g"], p["ev.final_ln.b"])
    total = 0.0
    for t, w in zip(cfg.types, cfg.weights):
        z = states @ p[f"ev.head.{t}.w"] + p[f"ev.head.{t}.b"]
        total += w * float((0.5 * (1.0 + np.tanh(0.5 * z))).sum())
    return total


def check_select_best(features: np.ndarray, slates, best, params: dict, cfg,
                      own_utility) -> None:
    """`best` is one of the proposals and its reference utility is the
    highest within UTILITY_RTOL. By `own_utility`, the program's own score of
    a slate, it is the first maximum: every earlier proposal scores strictly
    lower, so exact ties go to the first, and no later one scores higher."""
    pos = [k for k, s in enumerate(slates) if s is best]
    require(len(pos) == 1, "select_best did not return one of the proposals")
    k = pos[0]
    utils = [evaluator_utility(params, cfg, features[list(indices_of(s))]) for s in slates]
    top = max(utils)
    require(utils[k] >= top - UTILITY_RTOL * abs(top),
             f"picked utility {utils[k]:.12g} below the best {top:.12g}")
    own = [own_utility(s) for s in slates]
    require(all(u < own[k] for u in own[:k]),
             f"proposal {k} picked, but an earlier one scores at least as high "
             f"and should have won the tie")
    require(all(u <= own[k] for u in own[k + 1:]),
             f"proposal {k} picked, but a later one scores higher")


# ---- simulator ----


def oracle_utility(world, req, slate, spec) -> float:
    """The click model of simulator's docstring, from world.items/users:
    p_j = sigmoid(scale * affinity + shift) * posbias[j]
          * (1 - suppression * max cos to preceding items),
    scaled by each type's base rate and clipped into [0, 1]."""
    cfg = world.config
    items = world.items[req.item_ids[list(indices_of(slate))]]
    affinity = items @ world.users[req.user_id]
    base = 1.0 / (1.0 + np.exp(-(cfg.affinity_scale * affinity + cfg.affinity_shift)))
    suppress = np.ones(len(items))
    for j in range(1, len(items)):
        suppress[j] = 1.0 - cfg.suppression * float((items[:j] @ items[j]).max())
    clicks = base * np.asarray(cfg.posbias) * suppress
    total = 0.0
    for t, rate in zip(cfg.types, cfg.base_rates):
        total += spec.weight_for(t) * float(np.clip(rate * clicks, 0.0, 1.0).sum())
    return total


def check_oracle(world, req, slate, spec, reported: float) -> None:
    want = oracle_utility(world, req, slate, spec)
    require(abs(reported - want) <= ORACLE_RTOL * max(abs(want), 1.0),
             f"oracle utility {reported!r} differs from the click model {want!r}")


# ---- training ----


def check_checkpoint(loaded, expected) -> None:
    """Same parameter names and shapes as freshly initialised params."""
    got = {name: t.data.shape for name, t in loaded.items()}
    want = {name: t.data.shape for name, t in expected.items()}
    require(got == want, f"checkpoint parameters differ: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"reshaped {sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}")


def read_curve(path, column: str) -> list[float]:
    """Values of one loss-curve column; ValueError if a cell is not a number."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        at = header.index(column)
        return [float(line.split(",")[at]) for line in fh if line.strip()]


def check_loss_curve(values: list[float], window: int) -> None:
    """Every loss finite; the last window's mean below the first window's."""
    require(len(values) >= 2 * window, f"{len(values)} steps, need {2 * window}")
    require(all(math.isfinite(v) for v in values), "a logged loss is not finite")
    first, last = np.mean(values[:window]), np.mean(values[-window:])
    require(last < first, f"loss did not fall: first {first:.4f}, last {last:.4f}")
