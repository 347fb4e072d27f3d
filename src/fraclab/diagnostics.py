"""Free-boundary diagnostics: blow-up rescaling, densities, Weiss energies,
flatness, slopes, and point classification.

Ball quantities use cell-center membership; sphere integrals use Gauss-Jacobi
quadrature in the polar variable (absorbing the |y|^a weight) and periodic
trapezoid in azimuth. Volume integrals are doubled for the even reflection.
The penalized local energy J carries the rescaled penalty lambda_tilde; Weiss
values are comparable to densities after dividing by lambda_tilde.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .constants import _gauss_jacobi, one_plane_solution, slope_constant, unit_ball_volume
from .extension import (ExtensionField, _apply, _ball_energies, _c_tilde, _cell_stencil,
                        _gather, _in_footprint, _slab_stencil)
from .grids import (BoxGrid, ThinDomain, _ball_counts, _chunks, _groups, _nearest_node,
                    _neighbor_counts)

__all__ = [
    "GeometryError",
    "ResolutionError",
    "FreeBoundarySet",
    "WeissCurve",
    "PointClassification",
    "ClassifierConfig",
    "free_boundary_set",
    "density_ratio",
    "weiss_curve",
    "weiss_monotonicity_audit",
    "flatness",
    "boundary_slope",
    "classify",
]

WEISS_FLOOR_CELLS = 5  # the smallest Weiss radius, in cells


class GeometryError(ValueError):
    """Ball or window leaves the region where the quantity is defined."""


class ResolutionError(ValueError):
    """Requested radius is below the resolution floor of the grid."""


# ---------------------------------------------------------------------------


@dataclass
class FreeBoundarySet:
    """Mask cells adjacent to the complement, with smoothed outward normals (nan where none)."""

    domain: ThinDomain
    points: np.ndarray  # (k, n) cell centers
    normals: np.ndarray  # (k, n) outward unit vectors, nan rows where there is none
    flat_indices: np.ndarray

    def __len__(self):
        return len(self.points)

    def check(self):
        norms = np.linalg.norm(self.normals, axis=1)
        if not np.all((np.abs(norms - 1.0) <= 1e-12) | np.isnan(self.normals).all(axis=1)):
            raise AssertionError("free-boundary normals are not unit length")
        m = self.domain.mask
        counts = _neighbor_counts(m)
        on_fb = m.ravel()[self.flat_indices] & (counts.ravel()[self.flat_indices] < 2 * m.ndim)
        if not np.all(on_fb):
            raise AssertionError("free-boundary point lacks a complement neighbor")
        return True


def free_boundary_set(domain):
    """Extract the discrete free boundary of a mask with smoothed normals."""
    m = domain.mask
    counts = _neighbor_counts(m)
    fb = m & (counts < 2 * domain.grid.n)
    flat = np.flatnonzero(fb.ravel())
    coords = domain.grid.node_coords()[flat]
    smooth = m.astype(float)
    for ax in range(domain.grid.n):
        # [1/4, 1/2, 1/4] along ax; np.roll wraps only the empty outer layer
        smooth = 0.5 * smooth + 0.25 * (np.roll(smooth, 1, ax) + np.roll(smooth, -1, ax))
    gvec = np.stack([np.gradient(smooth, domain.grid.h, axis=ax).ravel()[flat]
                     for ax in range(domain.grid.n)], axis=1)
    norms = np.linalg.norm(gvec, axis=1)
    normals = np.full_like(gvec, np.nan)
    ok = norms > 1e-14
    normals[ok] = -gvec[ok] / norms[ok, None]
    return FreeBoundarySet(domain=domain, points=coords, normals=normals, flat_indices=flat)


# ---------------------------------------------------------------------------


def _as_fields(source):
    """The fields argument as a list: source is one ExtensionField, or a
    non-empty list or tuple of them on one slab layout."""
    fields = [source] if isinstance(source, ExtensionField) else source
    if (not isinstance(fields, (list, tuple)) or not fields
            or not all(isinstance(f, ExtensionField) for f in fields)):
        raise ValueError("fields must be an ExtensionField or a non-empty list of them")
    first = fields[0]
    if any(f.values.shape != first.values.shape
           or not np.array_equal(f.slab.y_nodes, first.slab.y_nodes) for f in fields):
        raise ValueError("extension fields must share one slab layout")
    return list(fields)


def _trace_support(traces, tol):
    """Nodes where |G| = sqrt(sum_i trace_i^2) exceeds tol * max |G|."""
    sup = np.sqrt(sum(tr**2 for tr in traces))
    return sup > tol * max(sup.max(), 1e-300)


def _as_points(grid, x0):
    """x0, one thin-space point (n,) or a (k, n) stack of them, as a (k, n) array."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.ndim > 2 or x0.shape[-1] != grid.n:
        raise GeometryError("center must be a thin-space point of the grid dimension")
    return x0.reshape(-1, grid.n)


def _check_ball(grid, x0, radii, floor):
    """x0 as a (k, n) stack (_as_points); raises unless the balls of the radii (one or an
    array) about each point fit."""
    x0 = _as_points(grid, x0)
    r_lo, r_hi = np.min(radii), np.max(radii)
    if r_lo < floor * grid.h - 1e-12:
        raise ResolutionError(f"radius {r_lo} below the {floor}h resolution floor")
    if np.any(x0 - r_hi < grid.lower - 1e-12) or np.any(x0 + r_hi > grid.upper + 1e-12):
        raise GeometryError("ball exits the design box")
    return x0


def density_ratio(mask, x0, r):
    """Node-counted |B_r(x0) and Omega| / (omega_n r^n), in [0, 1] (_in_ball). A 1-D array
    of radii r gives the array of them, and a (k, n) stack of points a leading axis of k:
    one gather of the mask per point (_ball_counts)."""
    grid, radii = mask.grid, np.asarray(r, dtype=float)
    pts = _check_ball(grid, x0, radii, floor=3)
    counts = _ball_counts(grid, pts, radii.ravel(), mask.mask)
    volumes = np.array([unit_ball_volume(grid.n) * q**grid.n for q in radii.ravel()])
    out = np.minimum(1.0, grid.h**grid.n * counts / volumes)
    if np.ndim(x0) < 2 and not radii.ndim:
        return float(out[0, 0])
    return out.reshape(pts.shape[:np.ndim(x0) - 1] + radii.shape)


# ---------------------------------------------------------------------------


# Gauss-Jacobi nodes in the polar variable, trapezoid nodes in azimuth (n = 2)
_K_POLAR, _K_AZIMUTH = 48, 64


def _hemisphere_rule(n, a):
    """Quadrature nodes/weights for int_{upper half unit sphere} |y|^a f dS.

    Returns (directions (q, n+1), weights (q,)) with the weight |y|^a folded in.
    """
    if n == 1:
        # x = cos(theta): int_0^pi f (sin)^a dtheta = int_-1^1 f (1-x^2)^((a-1)/2) dx
        x, wts = _gauss_jacobi(_K_POLAR, (a - 1.0) / 2.0, (a - 1.0) / 2.0)
        dirs = np.column_stack([x, np.sqrt(1.0 - x * x)])
    else:
        # n=2: t = y/r in [0,1]: dS = r^2 t^a f  dt dphi on the weight side
        t, wt = _gauss_jacobi(_K_POLAR, 0.0, a)
        t = 0.5 * (t + 1.0)
        wt = wt * 0.5 ** (a + 1.0)
        phi = 2.0 * np.pi * (np.arange(_K_AZIMUTH) + 0.5) / _K_AZIMUTH
        rho = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        dirs = np.column_stack([np.outer(rho, np.cos(phi)).ravel(),
                                np.outer(rho, np.sin(phi)).ravel(),
                                np.repeat(t, _K_AZIMUTH)])
        wts = np.repeat(wt * (2.0 * np.pi / _K_AZIMUTH), _K_AZIMUTH)
    return dirs, wts


def _sphere_forms(slab, radii, f, rule):
    """The hemisphere rule (dirs, wts) at the radii about a point f cells off a node as forms,
    radius after radius: per slab cell holding samples q, the offsets of its K = 2^(n+1)
    corners from the node's level-0 index (cells, K), sum_q w_q phi_q phi_q^T with phi_q their
    corner weights (cells, K, K); each radius's first cell. The samples lie in the ball."""
    (dirs, wts), parts = rule, []
    for q in (r * dirs for r in radii):  # one radius's temporaries at a time
        flat, weight, first, _, ty, *_ = _slab_stencil(slab, q[:, :-1] / slab.base.h + f, q[:, -1])
        phi = (weight.prod(axis=1)[:, None] * np.stack([1.0 - ty, ty])).reshape(-1, ty.size)
        flat, k = flat.reshape(len(phi), -1) + first, len(phi)
        cell, at, inv = np.unique(flat[0], return_index=True, return_inverse=True)
        forms, wphi = np.empty((len(cell), k, k)), wts * phi  # cells named by low corner
        for i, j in itertools.combinations_with_replacement(range(k), 2):
            forms[:, i, j] = forms[:, j, i] = np.bincount(inv, phi[i] * wphi[j], len(cell))
        parts.append((flat[:, at].T, forms, len(cell)))
    offsets, forms, counts = zip(*parts)
    return np.concatenate(offsets), np.concatenate(forms), np.cumsum((0,) + counts[:-1])


def _quadratic(forms, u):
    """Per cell u^T M u of the forms M (cells, K, K) at u (cells, points, K): (cells, points)."""
    um = u @ forms
    um *= u
    return um.sum(axis=-1)


def _weiss_energies(fields, X0, radii, params):
    """Weiss energy W(X0, G, r) of the extension fields at each of the radii, for each
    point of X0 (one point, or a (k, n) stack); (k, radii):

    W = r^-n [2 sum_i E_half(g_i, B_r) + lambda_tilde meas({|G|>0} in B_r)]
        - s r^-(n+1) * 2 * int_{upper hemisphere} |y|^a |G|^2 dS.

    All radii share the support. Per group of points with one offset from their nodes,
    the node counts (_ball_counts), the ball energies (_ball_energies) and the sphere
    sums (_sphere_forms) reduce one index set each, in chunks of points."""
    slab = fields[0].slab
    grid, n = slab.base, slab.base.n
    x0 = _check_ball(grid, X0, radii, floor=WEISS_FLOOR_CELLS)
    if radii.max() > slab.Y:
        raise GeometryError("ball exits the slab vertically")
    supp = _trace_support([f.trace for f in fields], 1e-12)
    if not supp.any():
        return np.zeros((len(x0), len(radii)))
    nodes, offs = _nearest_node(grid, x0)
    base = np.ravel_multi_index((*nodes.T, 0), slab.values_shape())
    sums, rule = np.empty((len(x0), len(radii))), _hemisphere_rule(n, params.a)
    for f, idx in _groups(offs):
        offsets, forms, starts = _sphere_forms(slab, radii, f, rule)
        for part in _chunks(idx, 3 * offsets.nbytes):  # at, u and u M per point
            # numpy takes a one-row product through gemv, which orders its sums unlike
            # gemm: a lone point goes twice, so no point's sums depend on its chunk
            at = offsets[:, None] + base[part if len(part) > 1 else np.repeat(part, 2), None]
            cells = sum(_quadratic(forms, fld.values.reshape(-1).take(at)) for fld in fields)
            sums[part] = np.add.reduceat(cells, starts).T[:len(part)]
    # per radius r^n, r^a and r^(n+1); the rule's weights hold (y/r)^a: scale back
    rn, ra, rn1 = (np.array(v) for v in zip(*[(r**n, r**params.a, r ** (n + 1)) for r in radii]))
    energies = sum(_ball_energies(fields, x0, radii))
    counts = _ball_counts(grid, x0, radii, supp)
    return ((2.0 * energies + params.lambda_tilde * (grid.h**n * counts)) / rn
            - 2.0 * params.s * (sums * rn * ra) / rn1)


@dataclass
class WeissCurve:
    """Weiss energies of one center across radii, with audit metadata.

    The volume term carries lambda_tilde; divide values by lambda_tilde before
    comparing with densities.
    """

    center: np.ndarray
    radii: np.ndarray
    values: np.ndarray
    s: float
    c_tilde: float = 1.0

    def check(self):
        if not np.all(np.diff(self.radii) > 0):
            raise AssertionError("radii must be increasing")
        if not np.all(np.isfinite(self.values)):
            raise AssertionError("Weiss values must be finite")
        return True


def weiss_curve(G_ext, X0, radii, params, c_tilde=None):
    """Evaluate the Weiss energy across radii and package as a WeissCurve; for a (k, n)
    stack of centers X0, the list of their curves on the one ladder, each what it is alone."""
    fields = _as_fields(G_ext)
    radii = np.sort(np.asarray(radii, dtype=float))
    vals = _weiss_energies(fields, X0, radii, params)
    if c_tilde is None:
        c_tilde = _c_tilde(fields, params)
    curves = [WeissCurve(center=x, radii=radii.copy(), values=v, s=params.s,
                         c_tilde=float(c_tilde))
              for x, v in zip(_as_points(fields[0].slab.base, X0).copy(), vals)]
    return curves if np.ndim(X0) == 2 else curves[0]


def weiss_monotonicity_audit(curve, holder_seminorm):
    """Smallest sigma >= 0 making r -> W(r) + 2 sigma (C/s) [G]_s r^s nondecreasing.

    Report-only: returns the fitted sigma and the per-pair slack.
    """
    if len(curve.radii) < 4:
        raise ValueError("audit needs at least 4 radii")
    curve.check()
    H = float(holder_seminorm)
    scale = 2.0 * (curve.c_tilde / curve.s) * H
    sigma = 0.0
    pairs = []
    for i in range(len(curve.radii) - 1):
        r0, r1 = curve.radii[i], curve.radii[i + 1]
        drop = curve.values[i] - curve.values[i + 1]
        denom = scale * (r1**curve.s - r0**curve.s)
        need = max(0.0, drop / denom) if denom > 0 else (np.inf if drop > 0 else 0.0)
        sigma = max(sigma, need)
        pairs.append({"r_lo": float(r0), "r_hi": float(r1), "drop": float(drop),
                      "sigma_needed": float(need)})
    corrected = curve.values + sigma * scale * curve.radii**curve.s
    return {
        "sigma_fit": float(sigma),
        "pairs": pairs,
        "corrected_nondecreasing": bool(np.all(np.diff(corrected) >= -1e-12)),
        "correction_scale": float(scale),
    }


# ---------------------------------------------------------------------------


def _blow_up_stencil(slab, r, f):
    """(unit grid on [-1, 1]^n, y / r levels, slab stencil of every (node, level) pair,
    node-major) of a blow-up at radius r on the slab, f cells off a node."""
    h, y_native = slab.base.h, slab.y_nodes
    xg = BoxGrid(slab.base.n, -1.0, 1.0, int(np.clip(np.round(2.0 * r / h), 8, 128)))
    y_lv = y_native[y_native <= r * (1 + 1e-12)] / r
    if y_lv.size == 0 or y_lv[-1] < 1.0 - 1e-12:
        y_lv = np.append(y_lv, 1.0)
    x = np.repeat(xg.node_coords() * r / h + f, y_lv.size, axis=0)
    return xg, y_lv, _slab_stencil(slab, x, np.tile(y_lv * r, xg.num_nodes))


def _blow_up_window(source, x0, r):
    """(fields, x0 as a (k, n) stack, r, nodes, offsets: _nearest_node) of blow-up windows,
    balls that must fit in the box (_check_ball)."""
    fields = _as_fields(source)
    r = float(r)
    if r <= 0:
        raise ValueError("rescale radius must be positive")
    x0 = _check_ball(fields[0].slab.base, x0, r, floor=0)
    return (fields, x0, r, *_nearest_node(fields[0].slab.base, x0))


def _blow_up_model(slab, r, f, s, lambda_penalty, angle_count):
    """(the blow-up stencil of its unit-ball (node, level) pairs, with the whole window's
    reach; the directions nu (k, n); slope_const * U(<x, nu>, y) at those points
    (k, points), one matrix-vector product per direction)."""
    xg, y_lv, stencil = _blow_up_stencil(slab, r, f)
    pts_x = np.repeat(xg.node_coords(), y_lv.size, axis=0)
    pts_y = np.tile(y_lv, xg.num_nodes)
    mask = (pts_x**2).sum(axis=1) + pts_y**2 <= 1.0 + 1e-12  # the closed unit ball
    count = angle_count if xg.n == 2 else 2  # +-1 in 1D
    ang = 2.0 * np.pi * np.arange(count) / count
    nus = np.column_stack([np.cos(ang), np.sin(ang)])[:, :xg.n]
    model = slope_constant(lambda_penalty, s) * one_plane_solution(
        (pts_x[mask] @ nus[..., None])[..., 0], pts_y[mask], s)
    flat, weight, first, reach, ty, x, y = stencil
    ball = (flat[..., mask], weight[..., mask], first, reach, ty[mask], x[mask], y[mask])
    return ball, nus, model


def _sup(model, M, f):
    """max over the points of |M - f model|, the squares summed in place component by
    component: model (..., points), M (..., points, m), f (..., m), broadcast."""
    dev2 = np.zeros(np.broadcast_shapes(model.shape, M.shape[:-1]))
    dev = np.empty_like(dev2)
    for fi, mi in zip(np.moveaxis(f, -1, 0), np.moveaxis(M, -1, 0)):
        dev2 += np.square(np.subtract(mi, np.multiply(fi[..., None], model, out=dev), out=dev),
                          out=dev)
    return np.sqrt(dev2.max(axis=-1))  # sqrt is monotone, so only the maxima need it


def flatness(G_fields, X0, r, params, angle_count=128):
    """Distance of the blow-up at (X0, r) from the best one-plane profile.

    Minimizes sup_{|X|<=1} |G_{X0,r}(X) - slope_const * U(<x, nu>, y) f| over
    a grid of unit directions nu and the dominant component direction f.
    Returns (epsilon, nu, f); for a (k, n) stack of centers X0, the (k,), (k, n)
    and (k, m) arrays of them, each row what it is alone.
    """
    fields, x0, r, nodes, offs = _blow_up_window(G_fields, X0, r)
    eps, nu, f = np.empty(len(x0)), np.empty(x0.shape), np.empty((len(x0), len(fields)))
    for off, idx in _groups(offs):
        ball, nus, model = _blow_up_model(fields[0].slab, r, off, params.s,
                                          params.lambda_penalty, angle_count)
        for part in _chunks(idx, 3 * 8 * 32 * len(nus)):  # the bounds: 32 points a direction
            # the blow-up's values at the ball points, (points of part, ball points, m)
            M = np.stack(_gather(fields, ball, nodes[part]), axis=-1) * r ** (-params.s)
            F = np.linalg.svd(M, full_matrices=False)[2][:, 0]  # dominant component directions
            F[np.sum(M @ F[..., None], axis=(1, 2)) < 0] *= -1.0
            # the sup over the 32 points of largest |M| bounds each direction's from below, so
            # only directions bounded by the best one's sup can hold the first of equal minima
            rows = np.arange(len(part))
            sub = np.argsort(np.square(M).sum(axis=-1), axis=-1)[:, -32:]
            low = _sup(np.moveaxis(model[:, sub], 0, 1), M[rows[:, None], sub][:, None], F[:, None])
            best = _sup(model[np.argmin(low, axis=1)], M, F)
            pt, dr = np.nonzero(low <= best[:, None])  # point by point, directions ascending
            e = np.empty(len(pt))
            for q in _chunks(np.arange(len(pt)), (3 + M.shape[-1]) * M[0, :, 0].nbytes):
                e[q] = _sup(model[dr[q]], M[pt[q]], F[pt[q]])
            hit = np.flatnonzero(e == np.minimum.reduceat(e, np.searchsorted(pt, rows))[pt])
            first = hit[np.searchsorted(pt[hit], rows)]  # each point's first minimum
            eps[part], nu[part], f[part] = e[first], nus[dr[first]], F
    return (eps, nu, f) if np.ndim(X0) == 2 else (float(eps[0]), nu[0], f[0])


def _slopes(fields, pts, normals, params, t_lo=3.0, t_hi=10.0):
    """(slopes, reasons) of boundary_slope's fits at the (k, n) points along their normals:
    the (k,) slopes, nan where a point has none, and per point None or why it has none,
    which is exactly one of two: no normal (nan), or fewer than 4 samples in the grid."""
    grid, h = fields[0].slab.base, fields[0].slab.base.h
    missing = np.isnan(normals).any(axis=1)
    nu = normals / np.array([np.linalg.norm(v) for v in normals])[:, None]
    ts = np.arange(np.ceil(t_lo), np.floor(t_hi) + 1) * h
    pts = pts[:, None, :] + ts[:, None] * nu[:, None, :]
    ok = np.all((pts >= grid.lower - 1e-12) & (pts <= grid.upper + 1e-12), axis=2)
    few = ok.sum(axis=1) < 4
    ok[missing | few] = False
    reasons = ["no normal: the smoothed mask's gradient vanishes here" if m
               else "fewer than 4 slope samples inside the grid" if f else None
               for m, f in zip(missing, few)]
    vals = np.zeros(ok.shape)
    if ok.any():
        x = _in_footprint((pts[ok] - grid.lower) / h, grid.cells_per_axis)
        flat, weight, first, _ = _cell_stencil(x, grid.cells_per_axis, grid.node_shape)
        # |G| at the samples' cell corners only, then interpolated as _apply does
        mag = np.sqrt(sum(f.trace.reshape(-1)[first:].take(flat) ** 2 for f in fields))
        vals[ok] = _apply(mag, np.arange(mag.size).reshape(mag.shape), weight, 0)
    slopes = np.full(len(ok), np.nan)
    for _, rows in _groups(map(bytes, ok)):  # points whose samples sit at the same t
        if ok[rows[0]].any():
            tk = ts[ok[rows[0]]]
            slopes[rows] = ((vals[np.ix_(rows, ok[rows[0]])] * tk**params.s).sum(axis=1)
                            / np.sum(tk ** (2.0 * params.s)))
    return slopes, reasons


def boundary_slope(G_fields, x0, normal, params, t_lo=3.0, t_hi=10.0):
    """Least-squares power-law slope of |G| along a ray from a boundary point.

    Fits |G|(x0 + t * normal, 0) ~ alpha * t^s over t in [t_lo*h, t_hi*h];
    pass the inward normal (pointing into the positivity set). Needs a normal (not nan)
    and at least 4 samples in the grid, 1e-12 past the wall included, else ResolutionError.
    For a (k, n) stack of points and normals, the (k,) slopes, nan where a point has
    none, each what it is alone: one stencil for every sample, one fit per sample set.
    """
    fields = _as_fields(G_fields)
    pts = _as_points(fields[0].slab.base, x0)
    normals = np.reshape(np.asarray(normal, dtype=float), pts.shape)
    slopes, reasons = _slopes(fields, pts, normals, params, t_lo, t_hi)
    if np.ndim(x0) == 2:
        return slopes
    if reasons[0] is not None:
        raise ResolutionError(reasons[0])
    return float(slopes[0])


@dataclass(frozen=True)
class ClassifierConfig:
    tol: float = 0.1
    delta: float = 0.05
    flat_threshold: float = 0.2
    num_radii: int = 4
    r_max: float | None = None


@dataclass
class PointClassification:
    """A point's label and the measurements behind it; `reason` says why
    `slope` is nan (no normal, or too few samples: _slopes), else it is None."""

    density_limit: float
    label: str
    flatness: float
    slope: float
    radii: np.ndarray = field(default=None)
    ratios: np.ndarray = field(default=None)
    reason: str | None = None

    def check(self, config):
        if self.label == "regular" and abs(self.density_limit - 0.5) > config.tol:
            raise AssertionError("regular label with off-half density")
        if self.label == "singular" and self.density_limit < 0.5 + config.delta:
            raise AssertionError("singular label below the density threshold")
        return True


def _ladder_top(grid, x0, r_max):
    """A radius ladder's top at the point x0, or at each of a (k, n) stack: r_max,
    clipped to 0.95 of the wall distance."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    wall = np.minimum(np.min(x0 - grid.lower, axis=-1), np.min(grid.upper - x0, axis=-1))
    return np.minimum(r_max, 0.95 * wall)


def _classifier_tops(grid, x0, config):
    """The top of classify's ladder at each point of x0: config.r_max (default 12h),
    clipped to the wall as _ladder_top does; a ladder fits if it exceeds the floor
    WEISS_FLOOR_CELLS * h."""
    return _ladder_top(grid, x0, 12.0 * grid.h if config.r_max is None else config.r_max)


def _no_ladder(grid, top):
    """Why classify has no ladder at a point whose ladder top is `top`."""
    return (f"no radius ladder above {WEISS_FLOOR_CELLS}h = {WEISS_FLOOR_CELLS * grid.h:g} "
            f"fits: the largest radius is {top:g}")


def classify(mask, G_fields, x0, config, params, normal):
    """Classify a free-boundary point as regular / singular / undetermined.

    Density ratios on a radius ladder from 5h to config.r_max (default 12h),
    clipped to 0.95 times the distance to the box wall, are extrapolated
    linearly in r to a density limit; regular additionally requires small
    flatness of the blow-up of the extension fields at the finest radius.
    Raises GeometryError when no ladder above 5h fits.

    normal is the outward unit normal at x0 (pointing out of the positivity
    set), the orientation of FreeBoundarySet.normals; the slope is taken
    along its negative, the inward direction that boundary_slope expects.

    For a (k, n) stack of points and normals, the list of their classifications,
    each what it is alone: one density call and one fit per ladder, one flatness
    and one slope call for all; GeometryError if any point has no ladder.
    """
    grid = mask.grid
    pts = _as_points(grid, x0)
    normals = np.reshape(np.asarray(normal, dtype=float), pts.shape)
    r_lo = WEISS_FLOOR_CELLS * grid.h
    tops = _classifier_tops(grid, pts, config)
    short = np.flatnonzero(~(tops > r_lo))
    if short.size:
        raise GeometryError(_no_ladder(grid, tops[short[0]]))
    ladders, ratios, gamma = [None] * len(pts), np.empty((len(pts), config.num_radii)), {}
    for top, idx in _groups(tops.tolist()):
        radii = np.geomspace(r_lo, top, config.num_radii)
        ratios[idx] = density_ratio(mask, pts[idx], radii)
        A = np.column_stack([np.ones_like(radii), radii])
        coef = np.linalg.lstsq(A, ratios[idx].T, rcond=None)[0]  # one column per point
        gamma.update(zip(idx.tolist(), coef[0].tolist()))
        for i in idx:
            ladders[i] = radii.copy()
    eps = flatness(G_fields, pts, r_lo, params)[0]
    slopes, reasons = _slopes(_as_fields(G_fields), pts, -normals, params)
    out = []
    for i in range(len(pts)):
        if abs(gamma[i] - 0.5) <= config.tol and eps[i] < config.flat_threshold:
            label = "regular"
        elif gamma[i] >= 0.5 + config.delta:
            label = "singular"
        else:
            label = "undetermined"
        out.append(PointClassification(density_limit=gamma[i], label=label,
                                       flatness=float(eps[i]), slope=float(slopes[i]),
                                       radii=ladders[i], ratios=ratios[i], reason=reasons[i]))
    return out if np.ndim(x0) == 2 else out[0]
