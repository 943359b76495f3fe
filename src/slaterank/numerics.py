"""Tape-based reverse-mode differentiation over dense float64 arrays.

Every op is a method on `Tape`: it computes the forward value eagerly with
NumPy and, when the tape is recording, pushes one backward closure.
`Tape.backward(loss)` seeds the scalar loss with gradient 1 and replays the
closures in reverse, accumulating into each operand's `.grad` buffer. Each
closure is dropped as soon as it has run, so the activations and gradients
it holds are freed during the pass rather than after it.

Ops take an optional leading batch axis: a (rows, cols) matrix is one
example, a (B, rows, cols) stack is a minibatch of B examples that share the
parameters. Operands broadcast like NumPy's, and an operand that was
broadcast (a (rows, cols) weight against a batch, a bias row) receives the
sum of its gradient over the broadcast axes. One tape records a whole
minibatch and one backward pass serves it; a single example is the
unbatched case of the same ops. A tape is single-writer and is discarded
after one backward pass.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from .errors import (
    CheckpointError,
    MissingGradientError,
    NumericsError,
    ShapeError,
)

__all__ = [
    "Tensor",
    "Tape",
    "Params",
    "AdamState",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op} got {a.shape} and {b.shape}") from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over the axes along which an operand of `shape` was broadcast."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient array that nothing else refers to into t.grad. The
    first one becomes t's buffer as it is, instead of being added to zeros."""
    if t.grad is None and isinstance(g, np.ndarray) and g.shape == t.data.shape:
        t.grad = g
    else:
        t.ensure_grad()[...] += g


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d // heads), a view."""
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, hd) -> (..., n, heads * hd)."""
    *lead, heads, n, hd = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, heads * hd)


class Tape:
    """Records backward closures for the ops applied through it.

    Build with recording=False for pure inference: ops then skip closure
    creation entirely and behave as plain NumPy compositions.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self._ops: list = []
        self._recorded = 0

    def __len__(self) -> int:
        """Ops recorded, including those a backward pass has already run."""
        return self._recorded

    def _push(self, fn) -> None:
        if self.recording:
            self._ops.append(fn)
            self._recorded += 1

    def backward(self, root: Tensor) -> None:
        """Seed `root` (a scalar) with gradient 1 and replay the tape, dropping
        each closure once it has run."""
        if root.data.shape != ():
            raise ShapeError(f"backward root must be a scalar, got {root.data.shape}")
        if not np.isfinite(root.data):
            raise NumericsError("backward from a non-finite scalar")
        root.ensure_grad()[...] = 1.0
        ops = self._ops
        while ops:
            ops.pop()()

    # ---- core linear algebra ----

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a @ b over the last two axes; leading axes broadcast."""
        ad, bd = a.data, b.data
        if ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
            raise ShapeError(f"matmul got {ad.shape} @ {bd.shape}")
        out = Tensor(ad @ bd)

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape))
            _accumulate(b, _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))

        self._push(back)
        return out

    def linear(self, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
        """x @ w with an optional bias row; every row of every leading axis of
        x goes through one (rows, d) @ (d, e) product."""
        xd, wd = x.data, w.data
        if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
            raise ShapeError(f"linear got {xd.shape} @ {wd.shape}")
        rows = xd.reshape(-1, wd.shape[0])
        y = rows @ wd
        if b is not None:
            if b.data.shape != (wd.shape[1],):
                raise ShapeError(f"bias shape {b.data.shape} vs {wd.shape[1]} columns")
            y = y + b.data
        out = Tensor(y.reshape(*xd.shape[:-1], wd.shape[1]))

        def back():
            g = out.grad
            if g is None:
                return
            g2 = g.reshape(-1, wd.shape[1])
            _accumulate(x, (g2 @ wd.T).reshape(xd.shape))
            _accumulate(w, rows.T @ g2)
            if b is not None:
                _accumulate(b, g2.sum(axis=0))

        self._push(back)
        return out

    def transpose(self, a: Tensor) -> Tensor:
        """Swap the last two axes."""
        if a.data.ndim < 2:
            raise ShapeError("transpose expects a matrix")
        out = Tensor(a.data.swapaxes(-1, -2))

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g.swapaxes(-1, -2)

        self._push(back)
        return out

    def attention(self, q: Tensor, k: Tensor, v: Tensor, heads: int,
                  key_mask: np.ndarray | None = None, causal: bool = False) -> Tensor:
        """Multi-head scaled dot-product attention as one op.

        q is (..., nq, d), k and v are (..., nk, d); leading axes broadcast.
        The width d splits into `heads` heads of d // heads columns. key_mask,
        (nk,) or (..., nk), marks the keys each batch row may attend to;
        causal lets query i see keys 0..i only. Masked keys get weight
        exactly 0. Backward reuses the attention weights and views of q, k
        and v, so no per-head copy is kept.
        """
        qd, kd, vd = q.data, k.data, v.data
        d = qd.shape[-1]
        if min(qd.ndim, kd.ndim, vd.ndim) < 2 or kd.shape != vd.shape \
                or kd.shape[-1] != d or d % heads:
            raise ShapeError(f"attention got q {qd.shape}, k {kd.shape}, v {vd.shape} "
                             f"with {heads} heads")
        nq, nk = qd.shape[-2], kd.shape[-2]
        inv_sqrt = 1.0 / math.sqrt(d // heads)
        qh, kh, vh = _split_heads(qd, heads), _split_heads(kd, heads), _split_heads(vd, heads)
        allowed = None
        if key_mask is not None:
            km = np.asarray(key_mask, dtype=bool)
            if km.shape[-1:] != (nk,):
                raise ShapeError(f"key_mask {km.shape} does not cover {nk} keys")
            allowed = km[..., None, None, :]
        if causal:
            tril = np.tril(np.ones((nq, nk), dtype=bool))
            allowed = tril if allowed is None else allowed & tril
        scores = (qh @ kh.swapaxes(-1, -2)) * inv_sqrt
        if allowed is not None:
            scores = np.where(allowed, scores, -np.inf)
        top = scores.max(axis=-1, keepdims=True)
        if allowed is not None and np.isneginf(top).any():
            raise ShapeError("attention with a fully masked query row")
        w = np.exp(scores - top)
        w /= w.sum(axis=-1, keepdims=True)
        out = Tensor(_merge_heads(w @ vh))

        def back():
            g = out.grad
            if g is None:
                return
            gh = _split_heads(g, heads)
            dw = gh @ vh.swapaxes(-1, -2)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * inv_sqrt
            _accumulate(q, _unbroadcast(_merge_heads(ds @ kh), qd.shape))
            _accumulate(k, _unbroadcast(_merge_heads(ds.swapaxes(-1, -2) @ qh), kd.shape))
            _accumulate(v, _unbroadcast(_merge_heads(w.swapaxes(-1, -2) @ gh), vd.shape))

        self._push(back)
        return out

    # ---- elementwise ----

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data
        _check_broadcast(ad, bd, "add")
        out = Tensor(ad + bd)

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += _unbroadcast(g, ad.shape)
            b.ensure_grad()[...] += _unbroadcast(g, bd.shape)

        self._push(back)
        return out

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data
        _check_broadcast(ad, bd, "sub")
        out = Tensor(ad - bd)

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += _unbroadcast(g, ad.shape)
            b.ensure_grad()[...] -= _unbroadcast(g, bd.shape)

        self._push(back)
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data
        _check_broadcast(ad, bd, "mul")
        out = Tensor(ad * bd)

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, _unbroadcast(g * bd, ad.shape))
            _accumulate(b, _unbroadcast(g * ad, bd.shape))

        self._push(back)
        return out

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        out = Tensor(a.data * c)

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g * c)

        self._push(back)
        return out

    def neg(self, a: Tensor) -> Tensor:
        return self.scale(a, -1.0)

    def add_scalar(self, a: Tensor, c) -> Tensor:
        """a + c for a constant c: a float, or an array that broadcasts into a."""
        out = Tensor(a.data + np.asarray(c, dtype=np.float64))
        if out.data.shape != a.data.shape:
            raise ShapeError(f"add_scalar constant does not fit {a.data.shape}")

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g

        self._push(back)
        return out

    def mask(self, a: Tensor, m: np.ndarray) -> Tensor:
        """Elementwise product with a constant array that broadcasts into a
        (no gradient into m)."""
        md = np.asarray(m, dtype=np.float64)
        out = Tensor(a.data * md)
        if out.data.shape != a.data.shape:
            raise ShapeError(f"mask {md.shape} does not fit {a.data.shape}")

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g * md)

        self._push(back)
        return out

    def gelu(self, a: Tensor) -> Tensor:
        def tanh_inner(x):
            # x * x * x, not x**3: NumPy runs a float power through pow()
            return np.tanh(_GELU_C * (x + _GELU_K * (x * x * x)))

        x = a.data
        out = Tensor(0.5 * x * (1.0 + tanh_inner(x)))

        def back():
            g = out.grad
            if g is None:
                return
            # recomputed rather than kept: the tape then holds no copy
            t = tanh_inner(x)
            d_inner = _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
            local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
            _accumulate(a, g * local)

        self._push(back)
        return out

    def relu(self, a: Tensor) -> Tensor:
        out = Tensor(np.maximum(a.data, 0.0))

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g * (a.data > 0.0))

        self._push(back)
        return out

    def sigmoid(self, a: Tensor) -> Tensor:
        x = a.data
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        out = Tensor(y)

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g * y * (1.0 - y))

        self._push(back)
        return out

    def log(self, a: Tensor) -> Tensor:
        if (a.data <= 0.0).any():
            raise NumericsError("log of a non-positive value; clamp first")
        out = Tensor(np.log(a.data))

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g / a.data)

        self._push(back)
        return out

    def clamp_min(self, a: Tensor, lo: float) -> Tensor:
        lo = float(lo)
        out = Tensor(np.maximum(a.data, lo))

        def back():
            g = out.grad
            if g is None:
                return
            _accumulate(a, g * (a.data > lo))

        self._push(back)
        return out

    def softplus(self, a: Tensor) -> Tensor:
        """log(1 + exp(x)) computed without overflow."""
        x = a.data
        out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))

        def back():
            g = out.grad
            if g is None:
                return
            s = np.empty_like(x)
            pos = x >= 0
            s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            s[~pos] = ex / (1.0 + ex)
            _accumulate(a, g * s)

        self._push(back)
        return out

    # ---- reductions and normalization ----

    def sum(self, a: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
        """Sum of every entry, or over `axis` only (a per-example sum keeps
        the batch axis)."""
        out = Tensor(a.data.sum(axis=axis))

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g if axis is None else np.expand_dims(g, axis)

        self._push(back)
        return out

    def mean(self, a: Tensor) -> Tensor:
        n = a.data.size
        out = Tensor(a.data.sum() / n)

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[...] += g / n

        self._push(back)
        return out

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
        """Per-row normalization to zero mean, unit variance, then affine."""
        xd = x.data
        if xd.ndim < 2:
            raise ShapeError("layer_norm expects a matrix")
        d = xd.shape[-1]
        if gain.data.shape != (d,) or bias.data.shape != (d,):
            raise ShapeError("layer_norm gain/bias must match row width")

        def normalized():
            xc = xd - xd.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
            return xc * inv, inv

        out = Tensor(normalized()[0] * gain.data + bias.data)

        def back():
            g = out.grad
            if g is None:
                return
            # recomputed from x, which the tape holds anyway, rather than kept
            xhat, inv = normalized()
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
            dxhat = g * gain.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * term)

        self._push(back)
        return out

    def softmax_rows(self, a: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        """Softmax along each row; masked-out columns get exactly zero.

        key_mask covers the columns, (cols,), or broadcasts into the array,
        e.g. (rows, cols) for a different set of columns per row.
        """
        ad = a.data
        if ad.ndim < 2:
            raise ShapeError("softmax_rows expects a matrix")
        if key_mask is not None:
            km = np.asarray(key_mask, dtype=bool)
            try:
                full = np.broadcast_to(km, ad.shape)
            except ValueError:
                raise ShapeError("key_mask must cover columns or the full matrix") from None
            if not full.any(axis=-1).all():
                raise ShapeError("softmax_rows with a fully masked row")
            work = np.where(km, ad, -np.inf)
        else:
            work = ad
        shifted = work - work.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)
        out = Tensor(y)

        def back():
            g = out.grad
            if g is None:
                return
            dot = (g * y).sum(axis=-1, keepdims=True)
            _accumulate(a, y * (g - dot))

        self._push(back)
        return out

    def softmax_columns(self, a: Tensor, valid_rows: np.ndarray | None = None) -> Tensor:
        """Softmax along each column; rows outside valid_rows get exactly zero.

        valid_rows has one entry per row of each matrix: (rows,), or
        (B, rows) for a stack of B matrices.
        """
        ad = a.data
        if ad.ndim < 2:
            raise ShapeError("softmax_columns expects a matrix")
        if valid_rows is not None:
            vm = np.asarray(valid_rows, dtype=bool)
            if vm.shape != ad.shape[:-1]:
                raise ShapeError("valid_rows must have one entry per row")
            if not vm.any(axis=-1).all():
                raise ShapeError("softmax_columns with every row masked")
            work = np.where(vm[..., None], ad, -np.inf)
        else:
            work = ad
        shifted = work - work.max(axis=-2, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-2, keepdims=True)
        out = Tensor(y)

        def back():
            g = out.grad
            if g is None:
                return
            dot = (g * y).sum(axis=-2, keepdims=True)
            _accumulate(a, y * (g - dot))

        self._push(back)
        return out

    def row_normalize(self, a: Tensor) -> Tensor:
        """Scale each row to unit L2 norm; all-zero rows stay zero (flagged)."""
        ad = a.data
        if ad.ndim < 2:
            raise ShapeError("row_normalize expects a matrix")
        norms = np.sqrt((ad * ad).sum(axis=-1, keepdims=True))
        zero = norms == 0.0
        if zero.any():
            warnings.warn(
                "row_normalize saw zero-norm rows; their similarities are 0",
                RuntimeWarning,
                stacklevel=2,
            )
        safe = np.where(zero, 1.0, norms)
        y = ad / safe
        out = Tensor(y)

        def back():
            g = out.grad
            if g is None:
                return
            proj = (g * y).sum(axis=-1, keepdims=True)
            da = (g - y * proj) / safe
            _accumulate(a, np.where(zero, 0.0, da))

        self._push(back)
        return out

    # ---- indexing and shaping ----

    def take_entries(self, a: Tensor, rows, cols) -> Tensor:
        """Entries a[rows[j], cols[j]] of a matrix, as a vector; of a (B, r, c)
        stack, out[b, j] = a[b, rows[b, j], cols[b, j]] for (B, k) rows and
        (B, k) or (k,) cols."""
        ridx = np.asarray(rows, dtype=np.intp)
        cidx = np.asarray(cols, dtype=np.intp)
        ad = a.data
        if ad.ndim == 2 and ridx.ndim == 1 and ridx.shape == cidx.shape:
            index = (ridx, cidx)
        elif ad.ndim == 3 and ridx.ndim == 2 and ridx.shape[0] == ad.shape[0] \
                and cidx.shape in (ridx.shape, ridx.shape[1:]):
            index = (np.arange(ad.shape[0])[:, None], ridx, cidx)
        else:
            raise ShapeError("take_entries wants parallel index arrays, one row per matrix")
        out = Tensor(ad[index])

        def back():
            g = out.grad
            if g is None:
                return
            np.add.at(a.ensure_grad(), index, g)

        self._push(back)
        return out

    def slice_rows(self, a: Tensor, i0: int, i1: int) -> Tensor:
        out = Tensor(a.data[i0:i1].copy())

        def back():
            g = out.grad
            if g is None:
                return
            a.ensure_grad()[i0:i1] += g

        self._push(back)
        return out

    def concat_rows(self, parts: list[Tensor]) -> Tensor:
        out = Tensor(np.concatenate([p.data for p in parts], axis=0))
        heights = [p.data.shape[0] for p in parts]

        def back():
            g = out.grad
            if g is None:
                return
            i = 0
            for p, h in zip(parts, heights):
                p.ensure_grad()[...] += g[i:i + h]
                i += h

        self._push(back)
        return out


class Params:
    """Named parameter tensors with deterministic insertion order."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self._tensors:
            raise ShapeError(f"duplicate parameter name {name!r}")
        t = Tensor(array)
        self._tensors[name] = t
        return t

    def new_gaussian(self, name: str, shape, rng: np.random.Generator, std: float = 0.02) -> Tensor:
        return self.add(name, rng.normal(0.0, std, size=shape))

    def new_zeros(self, name: str, shape) -> Tensor:
        return self.add(name, np.zeros(shape))

    def new_ones(self, name: str, shape) -> Tensor:
        return self.add(name, np.ones(shape))

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grad(self) -> None:
        for t in self._tensors.values():
            if t.grad is not None:
                t.grad[...] = 0.0

    def scale_grads(self, c: float) -> None:
        for t in self._tensors.values():
            if t.grad is not None:
                t.grad[...] *= c

    def num_values(self) -> int:
        return sum(t.data.size for t in self._tensors.values())


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: Params, state: AdamState) -> Params:
    """One bias-corrected Adam update in place; zeroes every gradient after."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            raise MissingGradientError(f"no gradient for {name!r}")
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for {name!r}")
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(f"stale Adam buffer for {name!r}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        g[...] = 0.0
    return params


def save_checkpoint(path, params: Params, meta: dict | None = None) -> None:
    """Write named tensors plus a version stamp to one .npz container."""
    arrays: dict[str, np.ndarray] = {
        "__checkpoint_version__": np.array([CHECKPOINT_VERSION], dtype=np.int64)
    }
    arrays["__meta__"] = np.array(json.dumps(meta if meta is not None else {}))
    for name, t in params.items():
        arrays["param:" + name] = t.data
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[Params, dict]:
    """Read a checkpoint back; exact bit-level round trip of every tensor."""
    try:
        payload = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    with payload:
        if "__checkpoint_version__" not in payload.files:
            raise CheckpointError(f"{path} has no version stamp")
        version = int(payload["__checkpoint_version__"][0])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path} is version {version}, expected {CHECKPOINT_VERSION}"
            )
        meta = json.loads(str(payload["__meta__"]))
        params = Params()
        for key in payload.files:
            if key.startswith("param:"):
                params.add(key[len("param:"):], payload[key])
    return params, meta
