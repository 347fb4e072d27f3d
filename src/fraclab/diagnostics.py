"""Free-boundary diagnostics: perimeter, blow-up rescaling, densities,
non-degeneracy, Weiss energies, flatness, slopes, and point classification.

Ball quantities use cell-center membership; sphere integrals use Gauss-Jacobi
quadrature in the polar variable (absorbing the |y|^a weight) and periodic
trapezoid in azimuth. Volume integrals are doubled for the even reflection.
The penalized local energy J carries the rescaled penalty lambda_tilde; Weiss
values are comparable to densities after dividing by lambda_tilde, and every
curve records that normalization.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .constants import one_plane_solution, slope_constant, unit_ball_volume
from .extension import (_as_fields, _ball_energies, _c_tilde, _interp, _multilinear_at,
                        _trace_support)
from .grids import BoxGrid, ThinDomain, _neighbor_counts, _node_dist2

__all__ = [
    "GeometryError",
    "ResolutionError",
    "FreeBoundarySet",
    "WeissCurve",
    "PointClassification",
    "ClassifierConfig",
    "free_boundary_set",
    "perimeter_estimate",
    "RescaledField",
    "blow_up_rescale",
    "density_ratio",
    "nondegeneracy_scan",
    "weiss_energy",
    "weiss_curve",
    "weiss_monotonicity_audit",
    "flatness",
    "boundary_slope",
    "classify",
    "support_coincidence",
]

WEISS_FLOOR_CELLS = 5  # the smallest Weiss radius, in cells


class GeometryError(ValueError):
    """Ball or window leaves the region where the quantity is defined."""


class ResolutionError(ValueError):
    """Requested radius is below the resolution floor of the grid."""


# ---------------------------------------------------------------------------


@dataclass
class FreeBoundarySet:
    """Mask cells adjacent to the complement, with smoothed outward normals."""

    domain: ThinDomain
    points: np.ndarray  # (k, n) cell centers
    normals: np.ndarray  # (k, n) outward unit vectors
    flat_indices: np.ndarray

    def __len__(self):
        return len(self.points)

    def check(self):
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
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
    normals = np.zeros_like(gvec)
    ok = norms > 1e-14
    normals[ok] = -gvec[ok] / norms[ok, None]
    if np.any(~ok):
        normals[~ok, 0] = 1.0
    return FreeBoundarySet(domain=domain, points=coords, normals=normals, flat_indices=flat)


def perimeter_estimate(mask):
    """h^(n-1) times the count of mask/non-mask cell interfaces inside D."""
    if not isinstance(mask, ThinDomain):
        raise TypeError("mask must be a ThinDomain")
    grid = mask.grid
    # masks never touch the ring, so each mask node has all 2n face neighbours
    count = int(np.sum(2 * grid.n - _neighbor_counts(mask.mask)[mask.mask]))
    return count * grid.h ** (grid.n - 1)


# ---------------------------------------------------------------------------


def _check_ball(grid, x0, r, floor):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (grid.n,):
        raise GeometryError("center must be a thin-space point of the grid dimension")
    if r < floor * grid.h - 1e-12:
        raise ResolutionError(f"radius {r} below the {floor}h resolution floor")
    if np.any(x0 - r < grid.lower - 1e-12) or np.any(x0 + r > grid.upper + 1e-12):
        raise GeometryError("ball exits the design box")
    return x0


def density_ratio(mask, x0, r):
    """Cell-counted |B_r(x0) and Omega| / (omega_n r^n), in [0, 1]."""
    grid = mask.grid
    x0 = _check_ball(grid, x0, r, floor=3)
    cnt = int(np.sum((_node_dist2(grid, x0) < r * r) & mask.mask))
    vol = unit_ball_volume(grid.n) * r**grid.n
    return min(1.0, grid.h**grid.n * cnt / vol)


def nondegeneracy_scan(G_fields, fb, radii, params, points=None):
    """Empirical non-degeneracy constants c(X0) = min_r r^-s sup_{B_r} |G|.

    G_fields: extension fields or a (grid, traces) pair on fb's grid, in any
    form `_as_fields` accepts; only the traces are used.
    Returns a dict with per-point constants and summary statistics; points not
    on the free boundary are flagged, not rejected.
    """
    grid = fb.domain.grid
    fgrid, _, traces = _as_fields(G_fields)
    if not fgrid.same_layout(grid):
        raise ValueError("fields and free boundary live on different grids")
    mag = np.sqrt(sum(tr**2 for tr in traces))
    radii = np.sort(np.asarray(radii, dtype=float))
    if radii[0] < 3 * grid.h - 1e-12:
        raise ResolutionError("non-degeneracy radii below the 3h floor")
    if points is None:
        pts = fb.points
    else:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
    fbset = {tuple(np.round(p / grid.h).astype(int)) for p in fb.points}
    consts = np.empty(len(pts))
    flags = np.zeros(len(pts), dtype=bool)
    for k, p in enumerate(pts):
        d2 = _node_dist2(grid, p)
        consts[k] = min(mag[d2 < r * r].max(initial=0.0) / r**params.s for r in radii)
        flags[k] = tuple(np.round(p / grid.h).astype(int)) not in fbset
    return {
        "constants": consts,
        "not_on_boundary": flags,
        "min": float(consts[~flags].min()) if np.any(~flags) else float("nan"),
        "median": float(np.median(consts[~flags])) if np.any(~flags) else float("nan"),
    }


# ---------------------------------------------------------------------------


def _gauss_jacobi(k, alpha, beta):
    """k-point Gauss rule for the weight (1-x)^alpha (1+x)^beta on [-1, 1] by
    Golub-Welsch (1969): nodes from the Jacobi matrix, weights mu_0 v_0^2."""
    ab = alpha + beta
    i = np.arange(1.0, k)
    t = 2.0 * i + ab
    diag = np.append((beta - alpha) / (ab + 2.0), (beta**2 - alpha**2) / (t * (t + 2.0)))
    # q = (i+ab)/(t-1) in the off-diagonal^2; it is 1 at i = 1 (0/0 if ab = -1)
    q = np.append(1.0, (i[1:] + ab) / (t[1:] - 1.0))
    x, v = eigh_tridiagonal(diag, np.sqrt(4.0 * i * (i + alpha) * (i + beta) * q
                                          / (t * t * (t + 1.0))))
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
    return x, mu0 / math.gamma(ab + 2.0) * v[0] ** 2


# Gauss-Jacobi nodes in the polar variable, trapezoid nodes in azimuth (n = 2)
_K_POLAR, _K_AZIMUTH = 48, 64


@functools.lru_cache(maxsize=8)
def _hemisphere_rule(n, a):
    """Quadrature nodes/weights for int_{upper half unit sphere} |y|^a f dS.

    Returns (directions (q, n+1), weights (q,)) with the weight |y|^a folded in.
    Built once per (n, a); the cached arrays are read-only.
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
    dirs.setflags(write=False)
    wts.setflags(write=False)
    return dirs, wts


def weiss_energy(G_ext, X0, r, params):
    """Weiss energy W(X0, G, r) of extension fields at one radius.

    W = r^-n [2 sum_i E_half(g_i, B_r) + lambda_tilde meas({|G|>0} in B_r)]
        - s r^-(n+1) * 2 * int_{upper hemisphere} |y|^a |G|^2 dS.
    """
    _, fields, _ = _as_fields(G_ext, need_slab=True)
    return float(_weiss_energies(fields, X0, np.array([r], dtype=float), params)[0])


def _weiss_energies(fields, X0, radii, params):
    """weiss_energy at each of the radii: the support, the node distances and
    one interpolation of all fields at the sphere points of all radii are
    shared, and each field's ball energies at all radii come from one window
    (_ball_energies)."""
    grid, n = fields[0].slab.base, fields[0].slab.base.n
    x0 = np.atleast_1d(np.asarray(X0, dtype=float))
    for r in radii:
        _check_ball(grid, x0, r, floor=WEISS_FLOOR_CELLS)
        if r > fields[0].slab.Y:
            raise GeometryError("ball exits the slab vertically")
    supp = _trace_support([f.trace for f in fields], 1e-12)
    if not supp.any():
        return np.zeros(len(radii))
    d2 = _node_dist2(grid, x0)
    dirs, wts = _hemisphere_rule(n, params.a)
    q = (radii[:, None, None] * dirs).reshape(-1, n + 1)
    q[:, :n] += x0
    mag2 = sum(v ** 2 for v in _interp(fields, q)).reshape(len(radii), len(dirs))
    energies = sum(_ball_energies(f, x0, radii) for f in fields)
    out = np.empty(len(radii))
    for i, r in enumerate(radii):
        meas = grid.h**n * int(np.sum((d2 < r * r) & supp))
        # the |y|^a factor is inside the rule's weights: (y/r)^a there, scale back
        sphere = float(np.sum(wts * mag2[i])) * r**n * r**params.a
        out[i] = ((2.0 * energies[i] + params.lambda_tilde * meas) / r**n
                  - 2.0 * params.s * sphere / r ** (n + 1))
    return out


@dataclass
class WeissCurve:
    """Weiss energies of one center across radii, with audit metadata.

    normalization records that the volume term carries lambda_tilde; divide
    values by lambda_tilde before comparing with densities.
    """

    center: np.ndarray
    radii: np.ndarray
    values: np.ndarray
    s: float
    c_tilde: float = 1.0
    normalization: str = "J-includes-lambda-tilde"

    def check(self):
        if not np.all(np.diff(self.radii) > 0):
            raise AssertionError("radii must be increasing")
        if not np.all(np.isfinite(self.values)):
            raise AssertionError("Weiss values must be finite")
        return True


def weiss_curve(G_ext, X0, radii, params, c_tilde=None):
    """Evaluate the Weiss energy across radii and package as a WeissCurve."""
    _, fields, _ = _as_fields(G_ext, need_slab=True)
    radii = np.sort(np.asarray(radii, dtype=float))
    vals = _weiss_energies(fields, X0, radii, params)
    if c_tilde is None:
        c_tilde = _c_tilde(fields, params)
    return WeissCurve(
        center=np.atleast_1d(np.asarray(X0, dtype=float)),
        radii=radii,
        values=vals,
        s=params.s,
        c_tilde=float(c_tilde),
    )


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


@dataclass
class RescaledField:
    """Blow-up sample G_{X0,r}(X) = r^{-s} G(X0 + r X) on a unit-scale grid.

    values has shape xgrid.node_shape + (len(y_levels), m).
    """

    xgrid: BoxGrid
    y_levels: np.ndarray
    values: np.ndarray
    r: float
    x0: np.ndarray

    @property
    def m(self):
        return self.values.shape[-1]

    def magnitude(self):
        return np.sqrt(np.sum(self.values**2, axis=-1))

    def ball_mask(self):
        """Boolean array over nodes with |(x, y)| <= 1."""
        coords = self.xgrid.node_coords()
        d2 = (coords**2).sum(axis=1)[:, None] + self.y_levels[None, :] ** 2
        return (d2 <= 1.0 + 1e-12).reshape(self.xgrid.node_shape + (len(self.y_levels),))


def blow_up_rescale(source, x0, r, s):
    """Rescale a field around a thin-space point onto the unit ball scale.

    source: extension fields or a (BoxGrid, node_array) trace pair, in any
    form `_as_fields` accepts; a trace pair is sampled on y = 0 only. The
    rescaled field has one component per field or trace.
    """
    base, fields, traces = _as_fields(source)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    r = float(r)
    if r <= 0:
        raise ValueError("rescale radius must be positive")
    if np.any(x0 - r < base.lower - 1e-12) or np.any(x0 + r > base.upper + 1e-12):
        raise ValueError("blow-up window exits the field footprint")
    cells = int(np.clip(np.round(2.0 * r / base.h), 8, 128))
    xg = BoxGrid(base.n, -1.0, 1.0, cells)
    if fields is not None:
        y_native = fields[0].slab.y_nodes
        y_lv = y_native[y_native <= r * (1 + 1e-12)] / r
        if y_lv.size == 0 or y_lv[-1] < 1.0 - 1e-12:
            y_lv = np.append(y_lv, 1.0)
    else:
        y_lv = np.array([0.0])
    pts_x = xg.node_coords() * r + x0[None, :]
    if fields is not None:
        # every (node, level) pair, node-major, in one interpolation of all fields
        q = np.column_stack([np.repeat(pts_x, y_lv.size, axis=0),
                             np.tile(y_lv * r, len(pts_x))])
        comps = _interp(fields, q)
    else:
        at = _multilinear_at(base, pts_x)
        comps = [at(comp) for comp in traces]
    vals = np.stack(comps, axis=-1).reshape(len(pts_x), y_lv.size, len(traces))
    vals *= r ** (-s)
    return RescaledField(
        xgrid=xg,
        y_levels=y_lv,
        values=vals.reshape(xg.node_shape + (y_lv.size, -1)),
        r=r,
        x0=x0,
    )


def flatness(G_fields, X0, r, params, angle_count=128):
    """Distance of the blow-up at (X0, r) from the best one-plane profile.

    Minimizes sup_{|X|<=1} |G_{X0,r}(X) - slope_const * U(<x, nu>, y) f| over
    a grid of unit directions nu and the dominant component direction f.
    A (grid, trace) pair is compared on y = 0 only. Returns (epsilon, nu, f).
    """
    bu = blow_up_rescale(G_fields, X0, r, params.s)
    n = bu.xgrid.n
    mask = bu.ball_mask().ravel()
    M = bu.values.reshape(-1, bu.m)[mask]
    # dominant component direction
    _, _, vt = np.linalg.svd(M, full_matrices=False)
    f = vt[0]
    if np.sum(M @ f) < 0:
        f = -f
    c = slope_constant(params.lambda_penalty, params.s)
    coords = bu.xgrid.node_coords()
    y = bu.y_levels
    pts_x = np.repeat(coords, len(y), axis=0)[mask]
    pts_y = np.tile(y, len(coords))[mask]
    if n == 1:
        nus = np.array([[1.0], [-1.0]])
    else:
        ang = 2.0 * np.pi * np.arange(angle_count) / angle_count
        nus = np.column_stack([np.cos(ang), np.sin(ang)])
    # all directions at once, in chunks of ~2^21 entries: the stacked product is
    # one matrix-vector product per direction; components lead for fast sums
    eps = []
    for nu in np.array_split(nus, max(1, nus.size * M.size >> 21)):
        model = c * one_plane_solution((pts_x @ nu[..., None])[..., 0], pts_y, params.s)
        dev = M.T[:, None] - f[:, None, None] * model
        eps.append(np.sqrt((dev * dev).sum(axis=0)).max(axis=-1))
    eps = np.concatenate(eps)
    k = int(np.argmin(eps))  # the first of equal minima
    return float(eps[k]), nus[k], f


def boundary_slope(G_fields, x0, normal, params, t_lo=3.0, t_hi=10.0):
    """Least-squares power-law slope of |G| along a ray from a boundary point.

    Fits |G|(x0 + t * normal, 0) ~ alpha * t^s over t in [t_lo*h, t_hi*h];
    pass the inward normal (pointing into the positivity set). Needs at least
    4 in-grid samples, else raises ResolutionError.
    """
    grid, _, traces = _as_fields(G_fields)
    mag = np.sqrt(sum(tr**2 for tr in traces))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    nu = np.atleast_1d(np.asarray(normal, dtype=float))
    nu = nu / np.linalg.norm(nu)
    h = grid.h
    ts = np.arange(np.ceil(t_lo), np.floor(t_hi) + 1) * h
    pts = x0[None, :] + ts[:, None] * nu[None, :]
    ok = np.all((pts >= grid.lower) & (pts <= grid.upper), axis=1)
    if ok.sum() < 4:
        raise ResolutionError("fewer than 4 slope samples inside the grid")
    vals = _multilinear_at(grid, pts[ok])(mag)
    tk = ts[ok]
    return float(np.sum(vals * tk**params.s) / np.sum(tk ** (2.0 * params.s)))


@dataclass(frozen=True)
class ClassifierConfig:
    tol: float = 0.1
    delta: float = 0.05
    flat_threshold: float = 0.2
    num_radii: int = 4
    r_max: float | None = None


@dataclass
class PointClassification:
    density_limit: float
    label: str
    flatness: float
    slope: float
    radii: np.ndarray = field(default=None)
    ratios: np.ndarray = field(default=None)

    def check(self, config):
        if self.label == "regular" and abs(self.density_limit - 0.5) > config.tol:
            raise AssertionError("regular label with off-half density")
        if self.label == "singular" and self.density_limit < 0.5 + config.delta:
            raise AssertionError("singular label below the density threshold")
        return True


def classify(mask, G_fields, x0, config=None, params=None, normal=None):
    """Classify a free-boundary point as regular / singular / undetermined.

    Density ratios on a decreasing radius ladder are extrapolated linearly in
    r to a density limit; regular additionally requires small flatness of the
    blow-up at the finest radius (needs G_fields, in any form `_as_fields`
    accepts, and params).

    normal is the outward unit normal at x0 (pointing out of the positivity
    set), the orientation of FreeBoundarySet.normals, which supplies it when
    omitted; the slope is taken along its negative, the inward direction that
    boundary_slope expects.
    """
    if config is None:
        config = ClassifierConfig()
    grid = mask.grid
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    h = grid.h
    r_hi = config.r_max
    if r_hi is None:
        r_hi = min(np.min(x0v - grid.lower), np.min(grid.upper - x0v))
        r_hi = min(0.95 * r_hi, 12.0 * h)
    r_lo = 5.0 * h
    if r_hi <= r_lo:
        r_hi = r_lo * 1.5
    radii = np.geomspace(r_lo, r_hi, config.num_radii)
    ratios = np.array([density_ratio(mask, x0v, r) for r in radii])
    A = np.column_stack([np.ones_like(radii), radii])
    coef, *_ = np.linalg.lstsq(A, ratios, rcond=None)
    gamma = float(coef[0])
    eps = float("nan")
    slope = float("nan")
    if G_fields is not None and params is not None:
        eps, _, _ = flatness(G_fields, x0v, radii[0], params)
        if normal is None:
            fb = free_boundary_set(mask)
            k = int(np.argmin(((fb.points - x0v[None, :]) ** 2).sum(axis=1)))
            normal = fb.normals[k]
        try:
            slope = boundary_slope(G_fields, x0v, -np.asarray(normal), params)
        except ResolutionError:
            slope = float("nan")
    if abs(gamma - 0.5) <= config.tol and (np.isnan(eps) or eps < config.flat_threshold):
        label = "regular"
    elif gamma >= 0.5 + config.delta:
        label = "singular"
    else:
        label = "undetermined"
    return PointClassification(
        density_limit=gamma,
        label=label,
        flatness=eps,
        slope=slope,
        radii=radii,
        ratios=ratios,
    )


def support_coincidence(bundle, mask):
    """Fraction of mask cells where each eigenfunction is numerically silent.

    Returns (fractions, low_resolution flag); the flag marks masks with a
    connected component smaller than 4 cells.
    """
    fractions = np.empty(bundle.m)
    for i in range(bundle.m):
        v = bundle.vectors[i]
        fractions[i] = float(np.mean(np.abs(v) < 1e-10 * np.abs(v).max()))
    return fractions, bool(np.any(_component_sizes(mask.mask) < 4))


def _component_sizes(m):
    """Cell counts of the face-connected components of m (outer layer empty):
    each cell takes the least flat index of itself and its neighbours in m."""
    lab, old = np.where(m, np.arange(m.size).reshape(m.shape), m.size), None
    while not np.array_equal(lab, old):
        old = lab
        lab = np.minimum.reduce([old] + [np.roll(old, k, ax) for ax in range(m.ndim)
                                         for k in (1, -1)])
        lab[~m] = m.size
    return np.unique(lab[m], return_counts=True)[1]
