"""Tape-based reverse-mode differentiation over dense float64 arrays.

Every op is a method on `Tape`: it computes the forward value eagerly with
NumPy and hands its output and a backward function to `Tape._record`, which
keeps the `(out, back)` pair only when the tape is recording.
`Tape.backward(loss)` seeds the scalar loss with gradient 1, then pops the
pairs in reverse and calls `back(out.grad)`, which accumulates into each
operand's `.grad` buffer. A pair whose output received no gradient fed
nothing the loss depends on; it is skipped, so its operands get nothing from
it. Each pair is dropped as soon as it is popped, so the activations and
gradients it holds are freed during the pass rather than after it.

Ops take an optional leading batch axis: a (rows, cols) matrix is one
example, a (B, rows, cols) stack is a minibatch of B examples that share the
parameters. Operands broadcast like NumPy's, and an operand that was
broadcast (a (rows, cols) weight against a batch, a bias row) receives the
sum of its gradient over the broadcast axes. One tape records a whole
minibatch and one backward pass serves it; a single example is the
unbatched case of the same ops. A tape is single-writer and is discarded
after one backward pass.

The op bodies are written for per-call cost as well as for bits. Each one
keeps the order of its floating-point operations, so a rewrite of a body
must give the same bits as the formula it replaces. How a body sums along an
axis depends on the tape, never on the array's size:
- A non-recording (serving) tape calls the ufunc methods (`np.add.reduce`,
  `np.maximum.reduce`), which compute what `ndarray.sum` and `.max` compute
  without their Python wrappers. NumPy reduces each row on its own, so a
  request served inside a stack of requests with its own n gets the bits it
  gets when served alone.
- A recording (training) tape, which also runs the backward pass, sums
  through BLAS, where NumPy's reduce pays per row for a minibatch's short
  rows. Row sums over the last axis (layer_norm forward and backward, the
  normalisers of attention and softmax_rows and their backward,
  row_normalize) are one `x2 @ ones(d)`, and sums over leading axes (the
  bias gradients of linear and layer_norm, layer_norm's gain gradient,
  `_unbroadcast`) one `ones(r) @ x2`, with cached read-only ones vectors.
  The row maxima of attention and softmax_rows are folded column by column,
  faster than NumPy's reduce on a minibatch. The fold gives NumPy's maximum
  except for a zero's sign and a NaN's payload, neither of which
  exp(x - max) sees.
BLAS adds in its own order, and its bits for a row depend on the rows around
it, so a recording forward parts from a serving forward by ulps. Sums down
the columns of each matrix (softmax_columns) take NumPy's reduce on both
tapes, which already runs along the rows of memory.

Products follow the tape too. A serving tape's `linear` multiplies a stack
as `x @ w`, one (rows, d) @ (d, e) product per example, the call a lone
example gets, so an example's bits do not depend on the stack; a recording
tape's multiplies the flattened stack as one product.

An op writes in place (`out=`, `*=`) only into temporaries it allocated
itself, never into an operand, an op's output or the incoming gradient `g`:
`_accumulate` may adopt the array it is given as a `.grad`, and
`Params.memo` tensors are read-only.
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import zip_longest

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
_F64 = np.dtype(np.float64)
_ONES = np.ones(0)
_TRI = np.ones((0, 0), dtype=bool)
_LN_EPS = 1e-5  # layer_norm's variance floor
_INIT_STD = 0.02  # the standard deviation of new_gaussian's draws
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # adam_step's decay rates and floor


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        # a float64 ndarray is kept as it is, as np.asarray would keep it
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
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


def _broadcast_op(ufunc, a: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    """ufunc(a, b), with operands that do not broadcast reported as a
    ShapeError (NumPy raises ValueError for them)."""
    try:
        return ufunc(a, b)
    except ValueError:
        raise ShapeError(f"{op} got {a.shape} and {b.shape}") from None


def _ones(n: int) -> np.ndarray:
    """n ones, read-only: a prefix of one cached vector, which grows to the
    longest length asked for."""
    global _ONES
    if len(_ONES) < n:
        _ONES = np.ones(n)
        _ONES.flags.writeable = False
    return _ONES[:n]


def _causal_mask(nq: int, nk: int) -> np.ndarray:
    """np.tri(nq, nk, dtype=bool), read-only: the top-left corner of one
    cached lower-triangular matrix, which grows to the largest shape asked
    for."""
    global _TRI
    if _TRI.shape[0] < nq or _TRI.shape[1] < nk:
        _TRI = np.tri(max(nq, _TRI.shape[0]), max(nk, _TRI.shape[1]), dtype=bool)
        _TRI.flags.writeable = False
    return _TRI[:nq, :nk]


def _row_sum(x: np.ndarray) -> np.ndarray:
    """The sum over the last axis, keeping it, as one matrix-vector product
    with ones."""
    d = x.shape[-1]
    return (x.reshape(math.prod(x.shape[:-1]), d) @ _ones(d)).reshape(x.shape[:-1] + (1,))


def _row_max(x: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(x, axis=-1, keepdims=True) as a column fold. It is
    the same maximum, except that a zero may come out with the other sign
    and a NaN with another payload."""
    x2 = x.reshape(-1, x.shape[-1])
    top = x2[:, 0].copy()
    for j in range(1, x2.shape[1]):
        np.maximum(top, x2[:, j], out=top)
    return top.reshape(x.shape[:-1] + (1,))


def _lead_sum(x: np.ndarray, lead: int) -> np.ndarray:
    """The sum over the first `lead` axes of x, as one vector-matrix product
    with ones."""
    rows, tail = math.prod(x.shape[:lead]), x.shape[lead:]
    return (_ones(rows) @ x.reshape(rows, math.prod(tail))).reshape(tail)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` over the axes along which an operand of `shape` was broadcast."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = _lead_sum(g, lead)
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return np.add.reduce(g, axis=stretched, keepdims=True) if stretched else g


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient array that nothing else refers to into t.grad. The
    first one becomes t's buffer as it is, instead of being added to zeros."""
    if t.grad is None and isinstance(g, np.ndarray) and g.shape == t.data.shape:
        t.grad = g
    else:
        t.ensure_grad()[...] += g


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., n, d) -> (..., heads, n, d // heads), a view."""
    s = x.shape
    return x.reshape(s[:-1] + (heads, s[-1] // heads)).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, hd) -> (..., n, heads * hd)."""
    s = x.shape
    return x.swapaxes(-2, -3).reshape(s[:-3] + (s[-2], s[-3] * s[-1]))


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), without overflow for x of either sign: with
    e = exp(-|x|), 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere."""
    # min(x, -x), not -abs(x), which would flip the sign bit of a NaN
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    y = np.where(x >= 0, 1.0, e)
    e += 1.0
    y /= e
    return y


class Tape:
    """Records one (output, backward function) pair per op applied through it.

    Build with recording=False for pure inference: ops then record nothing
    and behave as plain NumPy compositions.

    `forwards` counts the whole-model or pointer passes run on the tape (one
    per `generator.forward`, one per AR pointer pass), so a caller can check
    the one-pass-versus-m-passes cost structurally and not only by the clock.
    """

    def __init__(self, recording: bool = True):
        self.recording = recording
        self.forwards = 0
        self._ops: list = []
        self._recorded = 0

    def __len__(self) -> int:
        """Ops recorded, including those a backward pass has already run."""
        return self._recorded

    def _record(self, out: Tensor, back) -> Tensor:
        """Return `out`; when recording, keep `back` to be called with out's
        gradient during the backward pass."""
        if self.recording:
            self._ops.append((out, back))
            self._recorded += 1
        return out

    def largest_output(self) -> Tensor | None:
        """The largest output recorded and not yet passed by backward. A
        training loop that holds it until its next minibatch is recorded
        keeps the allocator from returning the pages of the freed
        activations to the OS and faulting them in again."""
        return max((out for out, _ in self._ops), key=lambda t: t.data.size, default=None)

    def backward(self, root: Tensor) -> None:
        """Seed `root` (a scalar) with gradient 1 and replay the tape in
        reverse, dropping each pair once it has run. An op whose output got
        no gradient fed nothing `root` depends on, and is skipped."""
        if root.data.shape != ():
            raise ShapeError(f"backward root must be a scalar, got {root.data.shape}")
        if not np.isfinite(root.data):
            raise NumericsError("backward from a non-finite scalar")
        root.ensure_grad()[...] = 1.0
        ops = self._ops
        while ops:
            out, back = ops.pop()
            if out.grad is not None:
                back(out.grad)

    # ---- core linear algebra ----

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """a @ b over the last two axes; leading axes broadcast."""
        ad, bd = a.data, b.data
        if ad.ndim < 2 or bd.ndim < 2 or ad.shape[-1] != bd.shape[-2]:
            raise ShapeError(f"matmul got {ad.shape} @ {bd.shape}")

        def back(g):
            _accumulate(a, _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape))
            _accumulate(b, _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))

        return self._record(Tensor(ad @ bd), back)

    def linear(self, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
        """x @ w with an optional bias row; a stacked x is multiplied as the
        tape's product rule in the module docstring says."""
        xd, wd = x.data, w.data
        if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
            raise ShapeError(f"linear got {xd.shape} @ {wd.shape}")
        flat = xd.ndim == 2 or not self.recording
        rows = xd if flat else xd.reshape(-1, wd.shape[0])
        y = rows @ wd
        if b is not None:
            if b.data.shape != (wd.shape[1],):
                raise ShapeError(f"bias shape {b.data.shape} vs {wd.shape[1]} columns")
            y += b.data

        def back(g):
            g2 = g if flat else g.reshape(-1, wd.shape[1])
            gx = g2 @ wd.T
            _accumulate(x, gx if flat else gx.reshape(xd.shape))
            _accumulate(w, rows.T @ g2)
            if b is not None:
                _accumulate(b, _lead_sum(g2, 1))

        return self._record(Tensor(y if flat else y.reshape(xd.shape[:-1] + (wd.shape[1],))),
                            back)

    def transpose(self, a: Tensor) -> Tensor:
        """Swap the last two axes."""
        if a.data.ndim < 2:
            raise ShapeError("transpose expects a matrix")

        def back(g):
            a.ensure_grad()[...] += g.swapaxes(-1, -2)

        return self._record(Tensor(a.data.swapaxes(-1, -2)), back)

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
            tril = _causal_mask(nq, nk)
            allowed = tril if allowed is None else allowed & tril
        scores = qh @ kh.swapaxes(-1, -2)
        scores *= inv_sqrt
        if allowed is not None:
            scores = np.where(allowed, scores, -np.inf)
        serving = not self.recording
        top = np.maximum.reduce(scores, axis=-1, keepdims=True) if serving else _row_max(scores)
        if allowed is not None and np.isneginf(top).any():
            raise ShapeError("attention with a fully masked query row")
        scores -= top
        w = np.exp(scores, out=scores)
        w /= np.add.reduce(w, axis=-1, keepdims=True) if serving else _row_sum(w)

        def back(g):
            gh = _split_heads(g, heads)
            ds = gh @ vh.swapaxes(-1, -2)
            ds -= _row_sum(ds * w)
            np.multiply(w, ds, out=ds)
            ds *= inv_sqrt
            _accumulate(q, _unbroadcast(_merge_heads(ds @ kh), qd.shape))
            _accumulate(k, _unbroadcast(_merge_heads(ds.swapaxes(-1, -2) @ qh), kd.shape))
            _accumulate(v, _unbroadcast(_merge_heads(w.swapaxes(-1, -2) @ gh), vd.shape))

        return self._record(Tensor(_merge_heads(w @ vh)), back)

    # ---- elementwise ----

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data

        def back(g):
            a.ensure_grad()[...] += _unbroadcast(g, ad.shape)
            b.ensure_grad()[...] += _unbroadcast(g, bd.shape)

        return self._record(Tensor(_broadcast_op(np.add, ad, bd, "add")), back)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data

        def back(g):
            a.ensure_grad()[...] += _unbroadcast(g, ad.shape)
            b.ensure_grad()[...] -= _unbroadcast(g, bd.shape)

        return self._record(Tensor(_broadcast_op(np.subtract, ad, bd, "sub")), back)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        ad, bd = a.data, b.data

        def back(g):
            _accumulate(a, _unbroadcast(g * bd, ad.shape))
            _accumulate(b, _unbroadcast(g * ad, bd.shape))

        return self._record(Tensor(_broadcast_op(np.multiply, ad, bd, "mul")), back)

    def add_scalar(self, a: Tensor, c) -> Tensor:
        """a + c for a constant c: a float, or an array that broadcasts into a."""
        out = Tensor(a.data + np.asarray(c, dtype=np.float64))
        if out.data.shape != a.data.shape:
            raise ShapeError(f"add_scalar constant does not fit {a.data.shape}")

        def back(g):
            a.ensure_grad()[...] += g

        return self._record(out, back)

    def mask(self, a: Tensor, m: np.ndarray) -> Tensor:
        """Elementwise product with a constant array that broadcasts into a
        (no gradient into m)."""
        md = np.asarray(m, dtype=np.float64)
        out = Tensor(a.data * md)
        if out.data.shape != a.data.shape:
            raise ShapeError(f"mask {md.shape} does not fit {a.data.shape}")
        return self._record(out, lambda g: _accumulate(a, g * md))

    def gelu(self, a: Tensor) -> Tensor:
        x = a.data
        # t = tanh(C * (x + K * (x * x * x))); x * x * x, not x**3: NumPy
        # runs a float power through pow()
        t = x * x
        t *= x
        t *= _GELU_K
        np.add(x, t, out=t)
        t *= _GELU_C
        np.tanh(t, out=t)

        def back(g):
            # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * d_inner), with
            # d_inner = C * (1 + 3K * x * x)
            d_inner = (3.0 * _GELU_K) * x
            d_inner *= x
            d_inner += 1.0
            d_inner *= _GELU_C
            local = 0.5 * x
            tt = t * t
            np.subtract(1.0, tt, out=tt)
            local *= tt
            local *= d_inner
            half = t + 1.0
            half *= 0.5
            half += local
            np.multiply(g, half, out=half)
            _accumulate(a, half)

        y = 0.5 * x
        y *= t + 1.0
        return self._record(Tensor(y), back)

    def sigmoid(self, a: Tensor) -> Tensor:
        y = _logistic(a.data)

        def back(g):
            gy = g * y
            gy *= 1.0 - y
            _accumulate(a, gy)

        return self._record(Tensor(y), back)

    def log(self, a: Tensor) -> Tensor:
        if (a.data <= 0.0).any():
            raise NumericsError("log of a non-positive value; clamp first")
        return self._record(Tensor(np.log(a.data)), lambda g: _accumulate(a, g / a.data))

    def clamp_min(self, a: Tensor, lo: float) -> Tensor:
        lo = float(lo)
        return self._record(Tensor(np.maximum(a.data, lo)),
                            lambda g: _accumulate(a, g * (a.data > lo)))

    def softplus(self, a: Tensor) -> Tensor:
        """log(1 + exp(x)) computed without overflow."""
        x = a.data
        e = np.abs(x)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=e)
        y = np.maximum(x, 0.0)
        y += e

        def back(g):
            gl = _logistic(x)
            np.multiply(g, gl, out=gl)
            _accumulate(a, gl)

        return self._record(Tensor(y), back)

    # ---- reductions and normalization ----

    def sum(self, a: Tensor, axis: int | tuple[int, ...] | None = None) -> Tensor:
        """Sum of every entry, or over `axis` only (a per-example sum keeps
        the batch axis)."""
        def back(g):
            a.ensure_grad()[...] += g if axis is None else np.expand_dims(g, axis)

        return self._record(Tensor(np.add.reduce(a.data, axis=axis)), back)

    def layer_norm(self, x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        """Per-row normalization to zero mean, unit variance, then affine."""
        xd = x.data
        if xd.ndim < 2:
            raise ShapeError("layer_norm expects a matrix")
        d = xd.shape[-1]
        if gain.data.shape != (d,) or bias.data.shape != (d,):
            raise ShapeError("layer_norm gain/bias must match row width")

        # mu = sum(x) / d, not .mean(): the same bits without the Python-level
        # overhead of np.mean; inv = 1 / sqrt(sum(xc * xc) / d + eps).
        # Backward keeps the per-row mu and inv and rebuilds xhat from x,
        # which the tape holds anyway.
        serving = not self.recording
        mu = np.add.reduce(xd, axis=-1, keepdims=True) if serving else _row_sum(xd)
        mu /= d
        xc = xd - mu
        sq = xc * xc
        inv = np.add.reduce(sq, axis=-1, keepdims=True) if serving else _row_sum(sq)
        inv /= d
        inv += _LN_EPS
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)

        def back(g):
            # dx = inv * (dxhat - sum(dxhat) / d - xhat * (sum(dxhat * xhat) / d))
            # with dxhat = g * gain
            xhat = xd - mu
            xhat *= inv
            prod = g * xhat
            _accumulate(gain, _lead_sum(prod.reshape(-1, d), 1))
            _accumulate(bias, _lead_sum(g.reshape(-1, d), 1))
            dxhat = g * gain.data
            mean_d = _row_sum(dxhat)
            mean_d /= d
            np.multiply(dxhat, xhat, out=prod)
            mean_dx = _row_sum(prod)
            mean_dx /= d
            dxhat -= mean_d
            xhat *= mean_dx
            dxhat -= xhat
            np.multiply(inv, dxhat, out=dxhat)
            _accumulate(x, dxhat)

        xc *= inv
        xc *= gain.data
        xc += bias.data
        return self._record(Tensor(xc), back)

    def _softmax(self, a: Tensor, allowed: np.ndarray | None, axis: int) -> Tensor:
        """Softmax along `axis`; entries where `allowed` (which broadcasts
        into a) is False get exactly zero."""
        work = a.data if allowed is None else np.where(allowed, a.data, -np.inf)
        # a recording tape's rows go through _row_max and _row_sum; columns
        # and serving call NumPy directly
        plain = axis != -1 or not self.recording
        y = work - (np.maximum.reduce(work, axis=axis, keepdims=True) if plain
                    else _row_max(work))
        np.exp(y, out=y)
        y /= np.add.reduce(y, axis=axis, keepdims=True) if plain else _row_sum(y)

        def back(g):
            # y * (g - sum(g * y))
            gy = g * y
            np.subtract(g, np.add.reduce(gy, axis=axis, keepdims=True) if plain
                        else _row_sum(gy), out=gy)
            np.multiply(y, gy, out=gy)
            _accumulate(a, gy)

        return self._record(Tensor(y), back)

    def softmax_rows(self, a: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
        """Softmax along each row; masked-out columns get exactly zero.

        key_mask covers the columns, (cols,), or broadcasts into the array,
        e.g. (rows, cols) for a different set of columns per row.
        """
        if a.data.ndim < 2:
            raise ShapeError("softmax_rows expects a matrix")
        km = None
        if key_mask is not None:
            km = np.asarray(key_mask, dtype=bool)
            try:
                full = np.broadcast_to(km, a.data.shape)
            except ValueError:
                raise ShapeError("key_mask must cover columns or the full matrix") from None
            if not full.any(axis=-1).all():
                raise ShapeError("softmax_rows with a fully masked row")
        return self._softmax(a, km, axis=-1)

    def softmax_columns(self, a: Tensor, valid_rows: np.ndarray | None = None) -> Tensor:
        """Softmax along each column; rows outside valid_rows get exactly zero.

        valid_rows has one entry per row of each matrix: (rows,), or
        (B, rows) for a stack of B matrices.
        """
        if a.data.ndim < 2:
            raise ShapeError("softmax_columns expects a matrix")
        vm = None
        if valid_rows is not None:
            vm = np.asarray(valid_rows, dtype=bool)
            if vm.shape != a.data.shape[:-1]:
                raise ShapeError("valid_rows must have one entry per row")
            if not vm.any(axis=-1).all():
                raise ShapeError("softmax_columns with every row masked")
            vm = vm[..., None]
        return self._softmax(a, vm, axis=-2)

    def row_normalize(self, a: Tensor) -> Tensor:
        """Scale each row to unit L2 norm; all-zero rows stay zero (flagged)."""
        ad = a.data
        if ad.ndim < 2:
            raise ShapeError("row_normalize expects a matrix")
        sq = ad * ad
        norms = _row_sum(sq) if self.recording else np.add.reduce(sq, axis=-1, keepdims=True)
        np.sqrt(norms, out=norms)
        zero = norms == 0.0
        if zero.any():
            warnings.warn(
                "row_normalize saw zero-norm rows; their similarities are 0",
                RuntimeWarning,
                stacklevel=2,
            )
        safe = np.where(zero, 1.0, norms)
        y = ad / safe

        def back(g):
            # (g - y * sum(g * y)) / safe, 0 on zero rows
            da = y * _row_sum(g * y)
            np.subtract(g, da, out=da)
            da /= safe
            _accumulate(a, np.where(zero, 0.0, da))

        return self._record(Tensor(y), back)

    # ---- indexing and shaping ----

    def _gather(self, a: Tensor, index: tuple) -> Tensor:
        """a[index] for an advanced index; repeated entries add their gradients."""
        return self._record(Tensor(a.data[index]),
                            lambda g: np.add.at(a.ensure_grad(), index, g))

    def take_entries(self, a: Tensor, rows, cols) -> Tensor:
        """Entries a[rows[j], cols[j]] of a matrix, as a vector; of a (B, r, c)
        stack, out[b, j] = a[b, rows[b, j], cols[b, j]] for (B, k) rows and
        (B, k) or (k,) cols."""
        ridx = np.asarray(rows, dtype=np.intp)
        cidx = np.asarray(cols, dtype=np.intp)
        ad = a.data
        if ad.ndim == 2 and ridx.ndim == 1 and ridx.shape == cidx.shape:
            return self._gather(a, (ridx, cidx))
        if ad.ndim == 3 and ridx.ndim == 2 and ridx.shape[0] == ad.shape[0] \
                and cidx.shape in (ridx.shape, ridx.shape[1:]):
            return self._gather(a, (np.arange(ad.shape[0])[:, None], ridx, cidx))
        raise ShapeError("take_entries wants parallel index arrays, one row per matrix")

    def slice_rows(self, a: Tensor, i0: int, i1: int) -> Tensor:
        """Rows i0:i1 of a matrix, or of each matrix of a stack."""

        def back(g):
            a.ensure_grad()[..., i0:i1, :] += g

        return self._record(Tensor(a.data[..., i0:i1, :].copy()), back)

    def take_rows(self, a: Tensor, rows) -> Tensor:
        """Rows a[rows] of a matrix, for (k,) rows; of a (B, r, c) stack,
        out[b, j] = a[b, rows[b, j]] for (B, k) rows."""
        idx = np.asarray(rows, dtype=np.intp)
        ad = a.data
        if ad.ndim == 2 and idx.ndim == 1:
            return self._gather(a, (idx,))
        if ad.ndim == 3 and idx.ndim == 2 and idx.shape[0] == ad.shape[0]:
            return self._gather(a, (np.arange(ad.shape[0])[:, None], idx))
        raise ShapeError(f"take_rows got {ad.shape} with rows {idx.shape}")

    def concat_rows(self, parts: list[Tensor], axis: int = -2) -> Tensor:
        """Join parts along the row (second to last) axis, or along another
        axis counted from the end, such as -1 for columns. The axes before it
        broadcast, so a shared (r, c) part joins a (B, r', c) stack."""
        datas = [p.data for p in parts]
        if axis >= 0 or any(d.ndim < -axis for d in datas):
            raise ShapeError(f"concat_rows cannot join along axis {axis}")
        if len({d.shape[:axis] for d in datas}) > 1:
            lead = np.broadcast_shapes(*(d.shape[:axis] for d in datas))
            datas = [np.broadcast_to(d, lead + d.shape[axis:]) for d in datas]
        tail = (slice(None),) * (-1 - axis)

        def back(g):
            i = 0
            for p in parts:
                h = p.data.shape[axis]
                p.ensure_grad()[...] += _unbroadcast(g[(..., slice(i, i + h)) + tail],
                                                     p.data.shape)
                i += h

        return self._record(Tensor(np.concatenate(datas, axis=axis)), back)


class Params:
    """Named parameter tensors with deterministic insertion order, and values
    computed from them that `memo` keeps until the tensors change."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._memo: dict[str, tuple] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self._tensors:
            raise ShapeError(f"duplicate parameter name {name!r}")
        t = Tensor(array)
        self._tensors[name] = t
        return t

    def new_gaussian(self, name: str, shape, rng: np.random.Generator) -> Tensor:
        return self.add(name, rng.normal(0.0, _INIT_STD, size=shape))

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

    def memo(self, tag: str, names, extra, compute) -> tuple[Tensor, ...]:
        """The tensors compute() returns, or those it returned on the last
        call with this tag if `extra` and the named tensors' shapes and bytes
        are the same as then.

        The key holds the tensors' bytes, not their values, so any edit made
        in place since, even 0.0 to -0.0 or a NaN's payload, computes again.
        One value is kept per tag. Every later caller shares its tensors, so
        their arrays are made read-only.
        """
        arrays = [self._tensors[name].data for name in names]
        key = (extra, [a.shape for a in arrays], b"".join(a.tobytes() for a in arrays))
        hit = self._memo.get(tag)
        if hit is not None and hit[0] == key:
            return hit[1]
        value = compute()
        for t in value:
            t.data.flags.writeable = False
        self._memo[tag] = (key, value)
        return value


class AdamState:
    """First/second moment buffers plus the shared step counter.

    m and v are flat: every parameter's moments, in the order of the Params
    they were built for, which `layout` records as (name, shape) pairs.
    """

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.step = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.layout: tuple[tuple[str, tuple[int, ...]], ...] | None = None


def adam_step(params: Params, state: AdamState, grad_scale: float = 1.0) -> Params:
    """One bias-corrected Adam update in place on the gradients times
    grad_scale (1 / batch size for a minibatch mean); zeroes every gradient
    after.

    The gradients are joined into one flat vector, so the finiteness check
    and the moment update run once over all of them. Nothing is updated when
    a gradient is missing or not finite; a state built for other parameters
    is a ShapeError.
    """
    items = list(params.items())
    for name, p in items:
        if p.grad is None:
            raise MissingGradientError(f"no gradient for {name!r}")
    layout = tuple((name, p.data.shape) for name, p in items)
    if state.layout is None:
        state.layout = layout
        state.m = np.zeros(sum(p.data.size for _, p in items))
        state.v = np.zeros_like(state.m)
    elif state.layout != layout:
        # the first parameter, here or in the state's layout, that differs
        stale = next(new or old for new, old in zip_longest(layout, state.layout)
                     if new != old)
        raise ShapeError(f"stale Adam buffer for {stale[0]!r}")
    g = np.concatenate([p.grad.ravel() for _, p in items] or [np.zeros(0)]) * grad_scale
    bad = ~np.isfinite(g)
    if bad.any():
        ends = np.cumsum([p.data.size for _, p in items])
        name = items[int(np.searchsorted(ends, bad.argmax(), side="right"))][0]
        raise NumericsError(f"non-finite gradient for {name!r}")
    state.step += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    update = state.lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)
    start = 0
    for _, p in items:
        size = p.data.size
        p.data -= update[start:start + size].reshape(p.data.shape)
        p.grad[...] = 0.0
        start += size
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
    """Read a checkpoint back; exact bit-level round trip of every tensor.

    A file that is not such a checkpoint raises CheckpointError naming it:
    bytes that do not read back as an .npz (a file cut short, say), a
    missing or other version stamp, metadata that is not a JSON object, or
    a parameter that is not a float64 array."""
    key = None
    try:
        with np.load(path, allow_pickle=False) as payload:
            arrays = {}
            for key in payload.files:
                arrays[key] = payload[key]
    except Exception as exc:
        # damaged bytes raise many types (BadZipFile, EOFError, OSError, ...),
        # and an object array, which would need pickle, ValueError
        entry = "" if key is None else f" entry {key!r}"
        raise CheckpointError(f"unreadable checkpoint {path}{entry}: {exc}") from exc
    if "__checkpoint_version__" not in arrays:
        raise CheckpointError(f"{path} has no version stamp")
    stamp = arrays["__checkpoint_version__"]
    # one integer, as save_checkpoint writes it: int() would read 1.7, "1" and True as 1
    if stamp.dtype.kind not in "iu" or stamp.shape != (1,):
        raise CheckpointError(f"{path} has an unreadable version stamp")
    version = int(stamp[0])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path} is version {version}, expected {CHECKPOINT_VERSION}")
    if "__meta__" not in arrays:
        raise CheckpointError(f"{path} has no metadata")
    try:
        meta = json.loads(str(arrays["__meta__"]))
    except ValueError as exc:
        raise CheckpointError(f"{path} has unreadable metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path} metadata is not a JSON object")
    params = Params()
    for key, array in arrays.items():
        if key.startswith("param:"):
            name = key[len("param:"):]
            if array.dtype != _F64:
                raise CheckpointError(
                    f"{path} parameter {name!r} is {array.dtype}, not float64")
            params.add(name, array)
    return params, meta
