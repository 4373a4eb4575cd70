"""Batched adjugates, determinants and inverses of small matrices from
closed-form cofactors.

Every point-batch inverse and determinant of the library goes through
:func:`adjugate_det`; LAPACK's ``inv`` and ``det`` factorize each matrix of
a batch on its own, at about a microsecond per 4x4 matrix, where the
cofactor expansion is a few gathers and products over the whole batch.

The expansion runs along the first row of each submatrix.  A level-``k``
minor (the determinant of ``k`` rows and ``k`` columns of the matrix) is a
signed sum of ``k`` products of an entry of its first row with a
level-``k-1`` minor of its remaining rows.  The minors of one level are
therefore ``einsum("ntq,tq->nq", a[:, E] * minor[:, L], S)``, with
``E[t, q]`` the flat index of the entry of term ``t`` of minor ``q``,
``L[t, q]`` the index of its lower minor and ``S[t, q]`` its sign; the 1x1
minors are the entries themselves, so the first level's ``L`` indexes the
matrix.  Only the minors on which the adjugate depends are formed, and the
last level places each level-``m-1`` minor at its signed, transposed
adjugate slot.

Every operation is elementwise or a sum over the terms of one matrix, so a
matrix's adjugate does not depend on the rows it is batched with: a BLAS
product on the point axis rounds differently by row count (a one-row batch
goes to ``gemv``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SingularMetricError

DET_FLOOR = 1e-12
# points per block of the point-major products: bounds the size of the
# product arrays, which grow with the batch otherwise
_BLOCK = 256


@lru_cache(maxsize=None)
def _tables(m: int) -> tuple:
    """``(E, L, S)`` per level, lowest first, for ``m x m`` matrices: level
    2 first for ``m > 2``, level 1 alone for ``m = 2``.
    Every call shares the arrays, so they are read-only."""
    full = tuple(range(m))
    # the level-(m-1) minors M_ij (row i and column j deleted) in the flat
    # order j*m + i of adj[j, i], each with its cofactor sign (-1)^(i+j)
    wanted = [(full[:i] + full[i + 1:], full[:j] + full[j + 1:]) for j in full for i in full]
    sign = [(-1.0) ** (i + j) for j in full for i in full]
    levels = []
    while True:
        lower = sorted({(r[1:], c[:t] + c[t + 1:]) for r, c in wanted for t in range(len(c))})
        if len(lower[0][0]) == 1:
            # the 1x1 minors are the entries themselves, read from the matrix
            slot = {key: key[0][0] * m + key[1][0] for key in lower}
        else:
            slot = {key: k for k, key in enumerate(lower)}
        terms = range(len(wanted[0][1]))
        E = [[r[0] * m + c[t] for r, c in wanted] for t in terms]
        L = [[slot[(r[1:], c[:t] + c[t + 1:])] for r, c in wanted] for t in terms]
        S = [[sq * (-1.0) ** t for sq in sign] for t in terms]
        level = (np.array(E), np.array(L), np.array(S))
        for arr in level:
            arr.setflags(write=False)
        levels.insert(0, level)
        if len(lower[0][0]) <= 1:
            return tuple(levels)
        wanted, sign = lower, [1.0] * len(lower)


def adjugate_det(a) -> tuple:
    """Adjugate ``(N, m, m)`` and determinant ``(N,)`` of a batch of
    ``m x m`` matrices, ``m >= 2``; ``a @ adj = det * I``."""
    a = np.asarray(a, dtype=float)
    n, m = a.shape[:2]
    levels = _tables(m)
    flat = a.reshape(n, m * m)
    adj = np.empty((n, m * m))
    for lo in range(0, n, _BLOCK):
        block = flat[lo:lo + _BLOCK]
        # the first level reads the 1x1 minors, the entries; only the 2x2
        # adjugate reads the empty minor, 1
        minor = block if m > 2 else np.ones((1, 1))
        for E, L, S in levels:
            minor = np.einsum("ntq,tq->nq", block[:, E] * minor[:, L], S)
        adj[lo:lo + _BLOCK] = minor
    # expansion along the first row: det = sum_j a_0j C_0j, C_0j = adj[j, 0]
    det = np.einsum("nj,nj->n", flat[:, :m], adj[:, ::m])
    return adj.reshape(n, m, m), det


def inverse_det(a, pts=None) -> tuple:
    """Inverse ``(N, m, m)`` and determinant ``(N,)`` of a batch of
    matrices.  Raises :class:`SingularMetricError` before dividing when
    ``|det| < DET_FLOOR`` at a matrix, naming its point of ``pts`` (its row
    of the batch when no points are given)."""
    adj, det = adjugate_det(a)
    small = np.abs(det) < DET_FLOOR
    if small.any():
        k = int(np.argmax(small))
        where = f"point {pts[k]}" if pts is not None else f"batch row {k}"
        raise SingularMetricError(
            f"|det g| = {abs(det[k]):.3e} below conditioning floor at {where}")
    return adj / det[:, None, None], det
