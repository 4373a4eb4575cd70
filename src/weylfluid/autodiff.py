"""Forward-mode automatic differentiation on batches of points.

A :class:`Dual` carries a value array of shape ``(N,)`` together with the
gradient with respect to the ``m`` chart coordinates, shape ``(N, m)``.
Seeding the coordinates of a batch of points and pushing them through a
closed-form component function yields exact first derivatives, vectorized
over the batch.  The helpers at the bottom (``exp``, ``log``, ``sqrt``,
``sin``, ``cos``, ``mat_inv``, ``mat_det``) dispatch on the argument type so
the same component function runs on plain numpy arrays (value-only
evaluation) and on duals (value + jacobian).
"""

from __future__ import annotations

import numpy as np


class Dual:
    """Batch dual number: value ``(N,)`` and gradient ``(N, m)``."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val if type(val) is np.ndarray else np.asarray(val, dtype=float)
        self.grad = grad if type(grad) is np.ndarray else np.asarray(grad, dtype=float)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.grad + other.grad)
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.grad - other.grad)
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val * other.val,
                self.grad * other.val[..., None] + other.grad * self.val[..., None],
            )
        other = np.asarray(other, dtype=float)
        return Dual(self.val * other, self.grad * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            val = self.val * inv
            grad = (self.grad - val[..., None] * other.grad) * inv[..., None]
            return Dual(val, grad)
        other = np.asarray(other, dtype=float)
        return Dual(self.val / other, self.grad / other[..., None])

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        val = other * inv
        return Dual(val, -val[..., None] * self.grad * inv[..., None])

    def __pow__(self, k):
        if isinstance(k, Dual):
            # a**b = exp(b ln a)
            return exp(k * log(self))
        val = self.val**k
        grad = (k * self.val ** (k - 1))[..., None] * self.grad
        return Dual(val, grad)

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    # comparisons act on the value part only
    def __lt__(self, other):
        return self.val < value(other)

    def __le__(self, other):
        return self.val <= value(other)

    def __gt__(self, other):
        return self.val > value(other)

    def __ge__(self, other):
        return self.val >= value(other)

    def __repr__(self):
        return f"Dual(val={self.val!r})"


def value(x):
    """Value part of a dual, or the argument itself."""
    return x.val if isinstance(x, Dual) else x


def seed(points: np.ndarray) -> list:
    """Seed the coordinates of a point batch ``(N, m)`` as dual numbers.

    Returns a list of ``m`` duals; coordinate ``j`` carries the unit
    gradient ``e_j`` so that any expression built from them differentiates
    with respect to the chart coordinates.
    """
    pts = np.asarray(points, dtype=float)
    n, m = pts.shape
    out = []
    for j in range(m):
        grad = np.zeros((n, m))
        grad[:, j] = 1.0
        out.append(Dual(pts[:, j], grad))
    return out


def _unary(x, f, df):
    if isinstance(x, Dual):
        v = f(x.val)
        return Dual(v, df(x.val, v)[..., None] * x.grad)
    return f(x)


def exp(x):
    return _unary(x, np.exp, lambda v, fv: fv)


def log(x):
    return _unary(x, np.log, lambda v, fv: 1.0 / v)


def sqrt(x):
    return _unary(x, np.sqrt, lambda v, fv: 0.5 / fv)


def sin(x):
    return _unary(x, np.sin, lambda v, fv: np.cos(v))


def cos(x):
    return _unary(x, np.cos, lambda v, fv: -np.sin(v))


def tanh(x):
    return _unary(x, np.tanh, lambda v, fv: 1.0 - fv**2)


def absolute(x):
    return _unary(x, np.abs, lambda v, fv: np.sign(v))


# -- packing nested component structures ------------------------------------


def pack(components, n: int, m: int, want_grad: bool):
    """Stack a (possibly nested) component structure into dense arrays.

    ``components`` is a scalar-like entry or nested lists of entries, where
    an entry is a float, an ``(N,)`` array, or a :class:`Dual`.  Returns the
    value array of shape ``(N, *shape)`` and, if ``want_grad``, the jacobian
    ``(N, *shape, m)`` (entries without dual content contribute zeros).
    """
    shape = _shape_of(components)
    val = np.empty((n, *shape))
    grad = np.zeros((n, *shape, m)) if want_grad else None
    for idx, entry in _walk(components, shape):
        if isinstance(entry, Dual):
            val[(slice(None), *idx)] = entry.val
            if want_grad:
                grad[(slice(None), *idx)] = entry.grad
        else:
            val[(slice(None), *idx)] = entry
    return (val, grad) if want_grad else val


def _shape_of(components):
    shape = []
    c = components
    while isinstance(c, (list, tuple)):
        shape.append(len(c))
        c = c[0]
    return tuple(shape)


def _walk(components, shape):
    if not shape:
        yield (), components
        return
    for i, sub in enumerate(components):
        for idx, entry in _walk(sub, shape[1:]):
            yield (i, *idx), entry


# -- dual-aware matrix algebra ----------------------------------------------


def _has_dual(entries) -> bool:
    return any(isinstance(e, Dual) for row in entries for e in row)


def _mat_unpack(val, grad):
    dim = val.shape[1]
    if grad is None:
        return [[val[:, i, j] for j in range(dim)] for i in range(dim)]
    return [[Dual(val[:, i, j], grad[:, i, j]) for j in range(dim)] for i in range(dim)]


def mat_inv(entries, n: int, m: int):
    """Inverse of an ``m x m`` matrix of entries, dual-aware.

    Uses d(g^-1) = -g^-1 (dg) g^-1 for the gradient part.
    """
    if not _has_dual(entries):
        return _mat_unpack(np.linalg.inv(pack(entries, n, m, want_grad=False)), None)
    val, grad = pack(entries, n, m, want_grad=True)
    inv = np.linalg.inv(val)
    # the derivative index goes in front for the batched matrix products
    dinv = -np.moveaxis(inv[:, None] @ np.moveaxis(grad, 3, 1) @ inv[:, None], 1, 3)
    return _mat_unpack(inv, dinv)


def mat_det(entries, n: int, m: int):
    """Determinant of an ``m x m`` matrix of entries, dual-aware.

    Uses d(det g) = det g * tr(g^-1 dg) for the gradient part.
    """
    from .geometry import inverse_trace  # geometry imports this module

    if not _has_dual(entries):
        return np.linalg.det(pack(entries, n, m, want_grad=False))
    val, grad = pack(entries, n, m, want_grad=True)
    det = np.linalg.det(val)
    ddet = det[:, None] * inverse_trace(np.linalg.inv(val), grad)
    return Dual(det, ddet)
