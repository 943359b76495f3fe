"""Shared test oracles, kept independent of the library's backward passes."""

import numpy as np

from slaterank import data
from slaterank.numerics import Params, Tape


def central_diff(value_fn, tensors, h=1e-5):
    """Central finite differences of value_fn() w.r.t. each tensor entry.

    value_fn takes no arguments and must recompute the scalar from the
    tensors' current .data (mutated in place entry by entry).
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = value_fn()
            flat[i] = orig - h
            lo = value_fn()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * h)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(analytic, numeric, floor=1e-8):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        diff = np.abs(a - n)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float((diff / scale).max()))
    return worst


def inflate_weights(params, factor):
    """Rescale weight matrices (not layer-norm affines) to trained-like size
    so no gradient path is vanishingly small during finite-difference checks."""
    for name in params.names():
        t = params[name]
        if "ln" in name and name.endswith((".g", ".b")):
            continue
        if t.data.ndim == 2:
            t.data *= factor


def gradcheck(make_loss, wrt, h=1e-5, rtol=1e-4, floor=1e-8):
    """Assert analytic gradients of make_loss(tape) match central differences.

    make_loss builds the scalar loss from scratch on the given tape so that
    repeated calls see the current tensor data. floor guards the relative
    error against division by near-zero true gradients; absolute differences
    below floor always pass.
    """
    for t in wrt:
        t.grad = None
    tape = Tape()
    loss = make_loss(tape)
    tape.backward(loss)
    analytic = [np.array(t.grad, copy=True) if t.grad is not None
                else np.zeros_like(t.data) for t in wrt]
    for t in wrt:
        t.grad = None

    def value():
        return make_loss(Tape(recording=False)).item()

    numeric = central_diff(value, wrt, h=h)
    err = max_rel_err(analytic, numeric, floor=floor)
    assert err < rtol, f"gradcheck failed: max rel err {err:.3e} >= {rtol}"
    return err


def counted_parses(monkeypatch):
    """A list that gains an entry each time read_logs parses a log's JSON,
    which a read from its table cache does not."""
    parses = []
    parse = data._read_records
    monkeypatch.setattr(data, "_read_records",
                        lambda raw: parses.append(1) or parse(raw))
    return parses


class ProbeTape(Tape):
    """A tape that counts its linear ops, keeps the weight each multiplies
    by, and keeps every tensor its add and attention ops read."""

    def __init__(self, recording: bool = False):
        super().__init__(recording=recording)
        self.weights = []
        self.operands = []

    @property
    def linears(self) -> int:
        return len(self.weights)

    def linear(self, x, w, b=None):
        self.weights.append(w)
        return super().linear(x, w, b)

    def add(self, a, b):
        self.operands += [a, b]
        return super().add(a, b)

    def attention(self, q, k, v, heads, **kwargs):
        self.operands += [q, k, v]
        return super().attention(q, k, v, heads, **kwargs)


def fresh_params(params):
    """A copy of params with arrays of its own and nothing memoised."""
    copy = Params()
    for name, t in params.items():
        copy.add(name, t.data.copy())
    return copy
