"""Acceptance checks shared by `fraclab verify` and the tests: each returns one
quantity measured against a closed form or a refinement; callers hold the bounds."""

import numpy as np

from . import constants, eigen, extension, grids, nonlocal_form


def bump(x):
    """The smooth bump exp(-1/(1-x^2)) on (-1, 1), zero elsewhere."""
    x = np.asarray(x, dtype=float)
    return np.exp(np.divide(-1.0, 1.0 - x**2, out=np.full_like(x, -np.inf), where=np.abs(x) < 1))


def profile_identity_defect(s, t, z, lam=2.0):
    """Largest absolute defect at the points (t, z) of the one-plane profile
    identities U(t, 0) = t_+^s, U(0, z) = (|z|/2)^s, U(lam t, lam z) =
    lam^s U(t, z) and polar form = U."""
    U = constants.one_plane_solution
    t, z = np.broadcast_arrays(t, z)
    u = U(t, z, s)
    defects = (U(t, 0.0, s) - np.maximum(t, 0.0) ** s, U(0.0, z, s) - (np.abs(z) / 2.0) ** s,
               U(lam * t, lam * z, s) - lam**s * u,
               constants.one_plane_solution_polar(np.hypot(t, z), np.arctan2(z, t), s) - u)
    return float(max(np.max(np.abs(d)) for d in defects))


def residual_order(s):
    """Observed order of the median |la_residual| of the one-plane profile on
    [-1, 1] x [h, 1/2 + 2h] from h = 0.02 to h = 0.01."""
    meds = []
    for h in (0.02, 0.01):
        t = -1.0 + h * np.arange(int(round(2.0 / h)) + 1)
        z = h * (1 + np.arange(int(round(0.5 / h)) + 1))
        g = constants.one_plane_solution(t[:, None], z[None, :], s)
        meds.append(np.median(np.abs(constants.la_residual(g, s, h, t0=t[0], z0=z[0]))))
    return float(np.log2(meds[0] / meds[1]))


def interval_bundle(s, cells, m, half=1.0):
    """The m lowest eigenpairs of (-half, half) on a grid of [-2 half, 2 half]."""
    dom = grids.interval_domain(grids.BoxGrid(1, -2.0 * half, 2.0 * half, cells), -half, half)
    return eigen.lowest_eigenpairs(nonlocal_form.assemble_form(
        dom, constants.FracParams(1, s, 1.0)), m)


def scaling_defect(s, cells, m, half=1.0):
    """Largest relative defect of lambda_i(2 Omega) = 2^(-2s) lambda_i(Omega),
    Omega = (-half, half), grid and domain dilated together."""
    lam, lam2 = (interval_bundle(s, cells, m, r).lambdas for r in (half, 2.0 * half))
    return float(np.max(np.abs(lam2 * 4.0**s / lam - 1.0)))


def energy_mismatch(traces, slab, s):
    """Relative mismatch |d_s E - q| / q of each trace: E the energy of its
    extension into `slab`, q its discrete form u^T K u. The traces share the
    slab's factorization and one stiffness matrix."""
    inner = np.flatnonzero(slab.base.interior().ravel())
    K = nonlocal_form.kernel_table(slab.base, s).stiffness(inner)
    traces = [np.asarray(u, dtype=float) for u in traces]
    q = np.array([u.ravel()[inner] @ K @ u.ravel()[inner] for u in traces])
    E = np.array([extension.extension_energy(extension.extend(u, slab)) for u in traces])
    return np.abs(constants.extension_constant(s) * E - q) / q
