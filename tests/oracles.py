"""Independent brute-force oracles for the test suite.

Everything here is deliberately dumb: plain Python index loops over tensor
slots, or ``einsum`` in index notation, and central finite differences for
every derivative.  None of these
routines share code with the library paths they check.
"""

from itertools import permutations

import numpy as np

H_FD = 1e-6


def fd_gradient(f, x, h=H_FD):
    """Central-difference gradient of a scalar callable f(point array)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(len(x))
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[j] = (f(xp) - f(xm)) / (2 * h)
    return out


def fd_richardson_gradient(f, x, h=1e-4):
    d1 = fd_gradient(f, x, h)
    d2 = fd_gradient(f, x, h / 2)
    return (4 * d2 - d1) / 3


def metric_at(g_field, x):
    return g_field(np.asarray(x, dtype=float)[None, :])[0]


def christoffel_fd(g_field, x, h=H_FD):
    """Christoffel symbols by finite differences and explicit loops."""
    x = np.asarray(x, dtype=float)
    m = len(x)
    g = metric_at(g_field, x)
    ginv = np.linalg.inv(g)
    dg = np.zeros((m, m, m))  # dg[c, a, b] = d_c g_ab
    for c in range(m):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        dg[c] = (metric_at(g_field, xp) - metric_at(g_field, xm)) / (2 * h)
    gam = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                s = 0.0
                for e in range(m):
                    s += ginv[a, e] * (dg[b, e, c] + dg[c, e, b] - dg[e, b, c])
                gam[a, b, c] = 0.5 * s
    return gam


# (points, chart dimension) of the batched-kernel tests
KERNEL_BATCHES = [(n, m) for n in (1, 2, 689) for m in (3, 4)]


def rel_err(got, ref):
    """Largest deviation from ``ref`` relative to the largest entry of ``ref``."""
    return np.abs(got - ref).max() / np.abs(ref).max()


def random_metric_batch(n, m, seed):
    """Random pointwise metric data on ``n`` points in dimension ``m``: a
    symmetric Lorentzian value near ``diag(-1, 1, ..., 1)``, its inverse,
    and a jacobian ``dg[n, a, b, c] = d_c g_ab`` symmetric in ``a, b``."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, m, m))
    val = np.diag([-1.0] + [1.0] * (m - 1)) + 0.1 * (s + np.swapaxes(s, 1, 2))
    d = rng.normal(size=(n, m, m, m))
    return val, np.linalg.inv(val), d + np.swapaxes(d, 1, 2)


def eps_shift_loops(g, ginv, a_low):
    """Connection deformation by explicit index loops."""
    m = len(a_low)
    a_up = np.zeros(m)
    for i in range(m):
        for j in range(m):
            a_up[i] += ginv[i, j] * a_low[j]
    shift = np.zeros((m, m, m))
    for al in range(m):
        for b in range(m):
            for c in range(m):
                s = a_up[al] * g[b, c]
                if al == b:
                    s -= a_low[c]
                if al == c:
                    s -= a_low[b]
                shift[al, b, c] = s
    return shift


def vector_divergence_fd(v_field, x, h=H_FD):
    """Plain coordinate divergence of a vector(-density) callable."""
    x = np.asarray(x, dtype=float)
    out = 0.0
    for j in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out += (v_field(xp[None, :])[0][j] - v_field(xm[None, :])[0][j]) / (2 * h)
    return out


def divergence_T_fd(g_field, gamma_field, t_up_fn, x, h=H_FD):
    """nabla_nu T^{mu nu} with FD partials and loop contractions.

    ``t_up_fn(point) -> (m, m)`` must return the raised components.
    """
    x = np.asarray(x, dtype=float)
    m = len(x)
    out = np.zeros(m)
    for mu in range(m):
        for nu in range(m):
            xp, xm = x.copy(), x.copy()
            xp[nu] += h
            xm[nu] -= h
            out[mu] += (t_up_fn(xp)[mu, nu] - t_up_fn(xm)[mu, nu]) / (2 * h)
    gam = gamma_field(x[None, :])[0]
    t = t_up_fn(x)
    for mu in range(m):
        for nu in range(m):
            for lam in range(m):
                out[mu] += gam[mu, lam, nu] * t[lam, nu]
                out[mu] += gam[nu, lam, nu] * t[mu, lam]
    return out


def covector_transport_contraction(g_field, gamma_field, t_up_fn, n_field, x, h=H_FD):
    """T^{mu nu} nabla_mu n_nu with FD partials and loops."""
    x = np.asarray(x, dtype=float)
    m = len(x)

    def n_low(pt):
        return metric_at(g_field, pt) @ n_field(pt[None, :])[0]

    dn = np.zeros((m, m))  # dn[c, b] = d_c n_b
    for c in range(m):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        dn[c] = (n_low(xp) - n_low(xm)) / (2 * h)
    gam = gamma_field(x[None, :])[0]
    nl = n_low(x)
    t = t_up_fn(x)
    out = 0.0
    for mu in range(m):
        for nu in range(m):
            cov = dn[mu, nu]
            for lam in range(m):
                cov -= gam[lam, nu, mu] * nl[lam]
            out += t[mu, nu] * cov
    return out


def leibniz_det(a):
    """Determinant of one square matrix as a sum over permutations, in
    Python integers for an integer matrix."""
    m = len(a)
    total = 0
    for perm in permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(m):
            prod *= a[i][perm[i]]
        total += sign * prod
    return total


def covariant_derivative_einsum(gam, val, jac, variance):
    """Covariant derivative of a rank <= 2 field from ``Gamma^a_bc``, the
    field's values and its jacobian, in index notation: one ``+Gamma``
    contraction per upper index and one ``-Gamma`` per lower index."""
    out = jac.copy()
    if variance == ("u",):
        return out + np.einsum("nabc,nb->nac", gam, val)
    if variance == ("d",):
        return out - np.einsum("nbac,nb->nac", gam, val)
    first = {"u": np.einsum("nalc,nlb->nabc", gam, val),
             "d": -np.einsum("nlac,nlb->nabc", gam, val)}
    second = {"u": np.einsum("nblc,nal->nabc", gam, val),
              "d": -np.einsum("nlbc,nal->nabc", gam, val)}
    return out + first[variance[0]] + second[variance[1]]
