"""Forward-mode automatic differentiation on batches of points.

A :class:`Jet` carries a value array of shape ``(N, *shape)`` together with
its gradient with respect to the ``m`` chart coordinates, shape
``(N, *shape, m)``.  Seeding the coordinates of a batch of points and
pushing them through a closed-form component function yields exact first
derivatives, vectorized over the batch.

A component function takes the tuple of the ``m`` coordinates of a point
batch, each an ``(N,)`` array or a seeded jet, and returns the components as
one ``(N, *shape)`` array or jet.  It is written with numpy arithmetic and
broadcasting, jet indexing and the helpers below (``stack``, ``diag``,
``einsum``, ``mat_inv_det``, ``exp``, ``log``, ...), which take plain arrays
(value-only evaluation) and jets (value + jacobian) alike; :func:`apply`
lifts a function whose derivative is known in closed form.  A result that is
not a jet has a zero jacobian, so constant and structurally zero components
cost no dual arithmetic; :func:`parts` reads a result back as dense arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .cofactors import inverse_det


class Jet:
    """Batch jet: value ``(N, *shape)`` and gradient ``(N, *shape, m)``.

    Arithmetic broadcasts like numpy on the values; an index addresses the
    value axes and carries the derivative axis along."""

    __slots__ = ("val", "grad")
    # an ndarray operand defers to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, val: np.ndarray, grad: np.ndarray):
        self.val, self.grad = val, grad

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.val[key], self.grad[key + (slice(None),)])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad)
        val = self.val + other
        return Jet(val, _fit(self.grad, val))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad)
        val = self.val - other
        return Jet(val, _fit(self.grad, val))

    def __rsub__(self, other):
        val = other - self.val
        return Jet(val, _fit(-self.grad, val))

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val * other.val,
                       self.grad * other.val[..., None] + other.grad * self.val[..., None])
        other = np.asarray(other, dtype=float)
        return Jet(self.val * other, self.grad * other[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            val = self.val / other.val
            return Jet(val, (self.grad - val[..., None] * other.grad) / other.val[..., None])
        other = np.asarray(other, dtype=float)
        return Jet(self.val / other, self.grad / other[..., None])

    def __rtruediv__(self, other):
        val = other / self.val
        return Jet(val, -(val / self.val)[..., None] * self.grad)

    def __pow__(self, k: float):
        return Jet(self.val**k, (k * self.val ** (k - 1))[..., None] * self.grad)

    def __neg__(self):
        return Jet(-self.val, -self.grad)


def _fit(grad, val):
    """``grad`` broadcast to the value shape of ``val``."""
    if grad.shape[:-1] == val.shape:
        return grad
    return np.broadcast_to(grad, val.shape + grad.shape[-1:])


def value(x):
    """Value part of a jet, or the argument itself."""
    return x.val if isinstance(x, Jet) else x


def seed(points: np.ndarray) -> tuple:
    """Seed the coordinates of a point batch ``(N, m)`` as jets.

    Returns ``m`` jets; coordinate ``j`` carries the unit gradient ``e_j``
    so that any expression built from them differentiates with respect to
    the chart coordinates.
    """
    pts = np.asarray(points, dtype=float)
    n, m = pts.shape
    unit = np.zeros((m, n, m))
    unit[np.arange(m), :, np.arange(m)] = 1.0
    return tuple(Jet(pts[:, j], unit[j]) for j in range(m))


def parts(x, shape: tuple, m: int):
    """Dense value ``shape`` and jacobian ``(*shape, m)`` of a component
    function's result at seeded coordinates."""
    if isinstance(x, Jet):
        return dense(x.val, shape), dense(x.grad, shape + (m,))
    return dense(x, shape), np.zeros(shape + (m,))


def dense(a, shape: tuple) -> np.ndarray:
    """``a`` as a writeable C-contiguous float array of ``shape``,
    broadcast (and copied) only when it is not one already."""
    a = np.asarray(a, dtype=float)
    if a.shape == shape and a.flags.c_contiguous and a.flags.writeable:
        return a
    return np.array(np.broadcast_to(a, shape))


def apply(x, f, chain):
    """``f`` at an array or jet ``x``.  For a jet the gradient is
    ``chain(v, f(v), grad)`` at its value ``v`` and gradient ``grad``: the
    derivative of ``f`` at ``v`` applied to ``grad``."""
    if isinstance(x, Jet):
        v = f(x.val)
        return Jet(v, chain(x.val, v, x.grad))
    return f(x)


def _elementwise(f, df):
    """``f`` on arrays and jets, with the derivative ``df(v, f(v))``."""
    return lambda x: apply(x, f, lambda v, fv, g: df(v, fv)[..., None] * g)


exp = _elementwise(np.exp, lambda v, fv: fv)
log = _elementwise(np.log, lambda v, fv: 1.0 / v)
sqrt = _elementwise(np.sqrt, lambda v, fv: 0.5 / fv)
sin = _elementwise(np.sin, lambda v, fv: np.cos(v))
cos = _elementwise(np.cos, lambda v, fv: -np.sin(v))
tanh = _elementwise(np.tanh, lambda v, fv: 1.0 - fv**2)
absolute = _elementwise(np.abs, lambda v, fv: np.sign(v))


# -- assembling and contracting components ------------------------------------


def stack(entries):
    """Stack ``(N, *shape)`` arrays or jets along a new axis 1."""
    first = value(entries[0])
    val = np.empty(first.shape[:1] + (len(entries),) + first.shape[1:])
    grad = None
    for k, e in enumerate(entries):
        val[:, k] = value(e)
        if isinstance(e, Jet):
            if grad is None:
                grad = np.zeros(val.shape + e.grad.shape[-1:])
            grad[:, k] = e.grad
    return val if grad is None else Jet(val, grad)


def diag(d):
    """Diagonal matrices ``(N, k, k)`` with the rows of ``d``, ``(N, k)``."""

    def place(a):
        n, k = a.shape[:2]
        out = np.zeros((n, k, k) + a.shape[2:])
        out.reshape((n, k * k) + a.shape[2:])[:, ::k + 1] = a
        return out

    return Jet(place(d.val), place(d.grad)) if isinstance(d, Jet) else place(d)


def einsum(spec: str, a, b):
    """``np.einsum(spec, a, b)`` of two arrays or jets, with the product
    rule for the gradient.  ``spec`` names its output, uses each index at
    most once per operand and does not use the letter ``Z``."""
    val = _contract(spec, value(a), value(b))
    if not (isinstance(a, Jet) or isinstance(b, Jet)):
        return val
    sa, sb, out = _indices(spec)[:3]
    grad = 0.0
    if isinstance(a, Jet):
        grad = _contract(f"{sa}Z,{sb}->{out}Z", a.grad, value(b))
    if isinstance(b, Jet):
        grad = grad + _contract(f"{sa},{sb}Z->{out}Z", value(a), b.grad)
    return Jet(val, grad)


@lru_cache(maxsize=None)
def _indices(spec: str) -> tuple:
    """The operand and output indices of ``spec``, then its batch indices
    (in both operands and the output), its summed ones (in both operands
    only) and each operand's own."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    return (sa, sb, out, [i for i in out if i in sa and i in sb],
            [i for i in sa if i in sb and i not in out],
            [i for i in sa if i not in sb], [i for i in sb if i not in sa])


def _contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, a, b)`` as one batched ``matmul`` of the operands
    transposed and flattened to ``(batch, rows, columns)``: numpy's
    ``matmul`` reaches BLAS, an unoptimized ``einsum`` does not."""
    sa, sb, out, batch, summed, own_a, own_b = _indices(spec)
    size = {**dict(zip(sa, a.shape)), **dict(zip(sb, b.shape))}

    def matrix(x, s, rows, cols):
        flat = [math.prod(size[i] for i in rows), math.prod(size[i] for i in cols)]
        return x.transpose([s.index(i) for i in batch + rows + cols]).reshape(
            [size[i] for i in batch] + flat)

    order = batch + own_a + own_b
    c = matrix(a, sa, own_a, summed) @ matrix(b, sb, summed, own_b)
    return c.reshape([size[i] for i in order]).transpose([order.index(i) for i in out])


def mat_inv_det(a):
    """Inverse ``(N, m, m)`` and determinant ``(N,)`` of an ``(N, m, m)``
    array or jet, from one cofactor kernel call.

    Uses d(g^-1) = -g^-1 (dg) g^-1 and d(det g) = det g * tr(g^-1 dg) for
    the gradient parts.
    """
    from .geometry import inverse_trace  # geometry imports this module

    inv, det = inverse_det(value(a))
    if not isinstance(a, Jet):
        return inv, det
    # the derivative index goes in front for the batched matrix products
    dinv = -np.moveaxis(inv[:, None] @ np.moveaxis(a.grad, 3, 1) @ inv[:, None], 1, 3)
    return Jet(inv, dinv), Jet(det, det[:, None] * inverse_trace(inv, a.grad))
