"""Degenerate-elliptic extension of thin-space traces into a slab.

Solves div(y^a grad g) = 0 on D x (0, Y] with Dirichlet trace data at y=0,
zero on the lateral walls and the top, on a tensor grid whose y-levels are
graded toward the degenerate line. The discretization is a finite-volume
stencil on that grid. Field values have shape node_shape + (J+1,), and each
edge joins two neighbours along one of the n+1 axes, so np.diff(values, axis)
lists the edge differences of that axis. The conductances depend only on the
axis and the level: a vertical edge between levels j and j+1 has the exact
resistance integral of the weight (so pure powers of y are reproduced
exactly), and a lateral edge on level j has the cell-averaged weight of that
level. The discrete energy is the sum over axes of c * np.diff(values)^2,
which makes harmonic replacement an exact discrete energy minimizer.

The extension solve is separable. On the free nodes (interior x-nodes times
levels 1..J-1) the operator is h^(n-2) L_x (x) diag(w) + I (x) T_y, with L_x the
Dirichlet lattice Laplacian and T_y the tridiagonal vertical part. The
orthonormal DST-I diagonalises L_x, so in sine coordinates the operator splits
into one tridiagonal block per mode. The block-diagonal matrix is factored
once per slab by one sparse LU in natural order, whose fill is about four
entries per unknown; each extend is then a DST of the trace, one LU solve and
an inverse DST (sine-matrix products, O(N M) for N slab nodes and M nodes per
axis). The method is exact: the result agrees with a direct sparse solve of
the assembled system up to roundoff.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sla

from .constants import unit_ball_volume
from .grids import BoxGrid

__all__ = [
    "SlabGrid",
    "ExtensionField",
    "extend",
    "extension_energy",
    "neumann_trace",
    "harmonic_replacement",
    "ball_energy",
    "almost_minimality_audit",
]


class SlabGrid:
    """Tensor grid D x {graded y-levels} for the weighted extension.

    Parameters
    ----------
    base : BoxGrid
        Thin-space grid (the slab footprint).
    J : int
        Number of vertical cells; y-levels are j = 0..J.
    Y : float, optional
        Slab height, default 2 * diam(D); must be at least diam(D).
    gamma : float, optional
        Grading exponent, y_j = Y * (j/J)^gamma; default 2/(1-a) resolves the
        y^(1-a) boundary layer of the weight.
    a : float
        Weight exponent in (-1, 1).
    """

    def __init__(self, base, J, a, Y=None, gamma=None):
        a = float(a)
        if not -1.0 < a < 1.0:
            raise ValueError("weight exponent a must lie in (-1, 1)")
        diam = (base.upper - base.lower) * np.sqrt(base.n)
        if Y is None:
            Y = 2.0 * diam
        if Y < diam - 1e-12:
            raise ValueError(f"slab height Y={Y} below the footprint diameter {diam}")
        if gamma is None:
            gamma = 2.0 / (1.0 - a)
        if gamma < 1.0:
            raise ValueError("grading exponent must be >= 1")
        J = int(J)
        if J < 4:
            raise ValueError("need at least 4 vertical cells")
        self.base = base
        self.J = J
        self.Y = float(Y)
        self.gamma = float(gamma)
        self.a = a
        self.y_nodes = self.Y * (np.arange(J + 1) / J) ** self.gamma
        self._lu = None

    @property
    def num_nodes(self):
        return self.base.num_nodes * (self.J + 1)

    def values_shape(self):
        return self.base.node_shape + (self.J + 1,)

    def _level_conductances(self):
        """(cv, w_cv): vertical edge conductances between levels j and j+1,
        the exact resistance integral of y^-a times h^n, and the control-volume
        weight integral of y^a per level; a lateral edge on level j has
        conductance w_cv[j] * h^(n-2).
        """
        a, y = self.a, self.y_nodes
        res = (y[1:] ** (1.0 - a) - y[:-1] ** (1.0 - a)) / (1.0 - a)
        y_half = self.control_bounds()
        w_cv = (y_half[1:] ** (1.0 + a) - y_half[:-1] ** (1.0 + a)) / (1.0 + a)
        return self.base.h**self.base.n / res, w_cv

    def _modal_lu(self):
        """LU of the extension operator in DST-I coordinates, built on first use.

        Unknowns are ordered mode-major, level-minor (levels 1..J-1); mode k
        of the Dirichlet lattice Laplacian on the interior x-nodes has the
        eigenvalue sum over axes of 2 - 2 cos(pi k / cells_per_axis).
        """
        if self._lu is None:
            base = self.base
            N = base.cells_per_axis
            lam1 = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, N) / N)
            mu = lam1 if base.n == 1 else np.add.outer(lam1, lam1).ravel()
            cv, w_cv = self._level_conductances()
            diag = cv[:-1] + cv[1:] + base.h ** (base.n - 2) * np.outer(mu, w_cv[1:-1])
            # one tridiagonal block per mode: the zero ends each block's coupling
            off = np.tile(np.append(-cv[1:-1], 0.0), mu.size)[:-1]
            A = sparse.diags([diag.ravel(), off, off], [0, -1, 1], format="csc")
            self._lu = sla.splu(A, permc_spec="NATURAL")
        return self._lu

    def control_bounds(self):
        """Control-volume bounds in y: midpoints between levels, closed at 0 and Y."""
        y = self.y_nodes
        return np.concatenate([[0.0], 0.5 * (y[:-1] + y[1:]), [y[-1]]])

    def boundary_mask(self):
        """Mask of Dirichlet nodes for the extension solve, values-shaped."""
        mask = np.zeros(self.values_shape(), dtype=bool)
        mask[..., 0] = mask[..., -1] = True
        mask[~self.base.interior()] = True
        return mask


def _conductances(slab):
    """Edge conductances per axis of the values array, indexed by level.

    Entry k < n holds the lateral conductances w_cv[j] * h^(n-2) of the edges
    along x-axis k on level j (length J+1); entry n holds the vertical ones cv
    (length J). Either broadcasts against d = np.diff(values, axis=k); on a
    window of the lowest levels, c[:d.shape[-1]] does.
    """
    cv, w_cv = slab._level_conductances()
    return [w_cv * slab.base.h ** (slab.base.n - 2)] * slab.base.n + [cv]


def _laplacian(slab, keep):
    """System matrix A over the `keep` nodes and coupling B to the rest, so
    that A g[keep] = B g[~keep] is the weighted Laplace equation on `keep`.

    `keep` masks the values array or a window of it from level 0; a node
    whose neighbours all lie in the window gets its whole-slab row.
    The graph Laplacian is the sum over axes of D^T diag(c) D, with D the
    difference matrix along that axis (a Kronecker product of one path-graph
    difference and identities) and c its conductances.
    """
    shape = keep.shape
    L = sparse.csr_matrix((keep.size, keep.size))
    for axis, c in enumerate(_conductances(slab)):
        factors = [sparse.identity(m, format="csr") for m in shape]
        factors[axis] = sparse.diags([-1.0, 1.0], [0, 1], (shape[axis] - 1, shape[axis]))
        D = functools.reduce(sparse.kron, factors).tocsr()
        edge_shape = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1:]
        c = np.broadcast_to(c[: edge_shape[-1]], edge_shape)
        L = L + D.T @ sparse.diags(c.ravel()) @ D
    keep = keep.ravel()
    rows = L.tocsr()[keep]
    return rows[:, keep], -rows[:, ~keep]


def _solve_dirichlet(slab, keep, boundary_values):
    """Solve the weighted Laplace system on the `keep` nodes of
    `boundary_values` (shaped as `keep`, see _laplacian), the rest as data."""
    out = boundary_values.copy()
    A, B = _laplacian(slab, keep)
    out[keep] = sla.splu(A.tocsc()).solve(B @ boundary_values[~keep])
    _check_residual(slab, keep, out)
    return out


def _apply_laplacian(slab, g):
    """Graph Laplacian of the slab stencil applied to the values array g, or
    to a window of it that starts at level 0: per axis, the edge fluxes
    c * np.diff(g), then minus their difference into the nodes (zero flux
    past the ends)."""
    out = np.zeros_like(g)
    for axis, c in enumerate(_conductances(slab)):
        d = np.diff(g, axis=axis)
        out -= np.diff(c[: d.shape[-1]] * d, axis=axis, prepend=0.0, append=0.0)
    return out


def _check_residual(slab, free, solved):
    """Raise unless the solution g of a Dirichlet solve on the `free` nodes has
    relative residual ||(L g)[free]|| / ||(L d)[free]|| <= 1e-10, where d is g
    with its free entries zeroed (the boundary data alone)."""
    resid = np.linalg.norm(_apply_laplacian(slab, solved)[free])
    scale = np.linalg.norm(_apply_laplacian(slab, np.where(free, 0.0, solved))[free])
    if scale > 0 and resid / scale > 1e-10:
        raise RuntimeError(f"extension solve residual {resid / scale:.2e} above 1e-10")


@dataclass
class ExtensionField:
    """Solution values of the weighted extension on a SlabGrid.

    values has shape base.node_shape + (J+1,); the y=0 slice is the trace.
    The field represents the even-in-y reflection of itself; energies returned
    by extension_energy are for the upper half only.
    """

    slab: SlabGrid
    values: np.ndarray

    @property
    def trace(self):
        return self.values[..., 0]

    def interp(self, points):
        """Multilinear interpolation at (k, n+1) points (x..., y); y may be 0."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        base = self.slab.base
        if pts.shape[1] != base.n + 1:
            raise ValueError("points must have n+1 columns")
        y = pts[:, -1]
        if np.any(y < -1e-12) or np.any(y > self.slab.Y + 1e-12):
            raise ValueError("query points leave the slab vertically")
        ynodes = self.slab.y_nodes
        j = np.clip(np.searchsorted(ynodes, y, side="right") - 1, 0, self.slab.J - 1)
        ty = (y - ynodes[j]) / (ynodes[j + 1] - ynodes[j])
        ty = np.clip(ty, 0.0, 1.0)
        lo, hi = _multilinear(base, self.values, pts[:, :-1], np.stack([j, j + 1]))
        return lo * (1.0 - ty) + hi * ty


def _as_fields(source, need_slab=False):
    """Normalize a "fields" argument to (grid, fields, traces).

    source is one ExtensionField, a non-empty list or tuple of them on one
    slab layout, or a (BoxGrid, array) trace pair whose array is one node
    field or a stack of them. grid is the thin-space grid, traces the y=0
    node arrays, and fields the ExtensionFields, or None for a trace pair,
    which need_slab=True rejects.
    """
    if isinstance(source, ExtensionField):
        source = [source]
    if not isinstance(source, (list, tuple)) or not source:
        raise ValueError("fields must be ExtensionFields or a (BoxGrid, array) pair")
    if all(isinstance(f, ExtensionField) for f in source):
        first = source[0]
        if any(f.values.shape != first.values.shape
               or not np.array_equal(f.slab.y_nodes, first.slab.y_nodes) for f in source):
            raise ValueError("extension fields must share one slab layout")
        return first.slab.base, list(source), [f.trace for f in source]
    if len(source) != 2 or not isinstance(source[0], BoxGrid):
        raise ValueError("fields must be ExtensionFields or a (BoxGrid, array) pair")
    if need_slab:
        raise ValueError("this quantity needs extension fields, not a (grid, trace) pair")
    grid, arr = source
    arr = np.asarray(arr, dtype=float)
    if arr.shape == grid.node_shape:
        arr = arr[None]
    if arr.shape[1:] != grid.node_shape or len(arr) == 0:
        raise ValueError("trace array does not match the grid's node shape")
    return grid, None, list(arr)


def _trace_support(traces, tol):
    """Nodes where |G| = sqrt(sum_i trace_i^2) exceeds tol * max |G|."""
    sup = np.sqrt(sum(tr**2 for tr in traces))
    return sup > tol * max(sup.max(), 1e-300)


def _c_tilde(fields, params):
    """C = 2 omega_n (sum_i lambda_i) / d_s from the Rayleigh quotients
    lambda_i = d_s E(g_i) / ||trace g_i||^2 of the fields; fields with a zero
    trace contribute nothing.
    """
    grid = fields[0].slab.base
    lam_sum = 0.0
    for f in fields:
        tr = f.trace.ravel()
        nrm2 = float(np.sum(tr * tr)) * grid.h**grid.n
        if nrm2 > 0:
            lam_sum += params.d_s * extension_energy(f) / nrm2
    return 2.0 * unit_ball_volume(grid.n) * lam_sum / params.d_s


def _multilinear(grid, field, pts, *tail):
    """Multilinear interpolation of a node field at thin-space points.

    tail: index arrays into trailing axes of field that broadcast against
    one entry per point; ExtensionField.interp passes the (2, points) levels
    below and above each point and gets both interpolants in one gather.
    """
    x = (np.atleast_2d(pts) - grid.lower) / grid.h
    eps = 1e-9
    if np.any(x < -eps) or np.any(x > grid.cells_per_axis + eps):
        raise ValueError("query points leave the grid footprint")
    x = np.clip(x, 0.0, grid.cells_per_axis)
    i0 = np.clip(x.astype(int), 0, grid.cells_per_axis - 1)
    t = x - i0

    def f(*corner):
        return field[corner + tail]

    if grid.n == 1:
        return f(i0[:, 0]) * (1 - t[:, 0]) + f(i0[:, 0] + 1) * t[:, 0]
    i, k = i0[:, 0], i0[:, 1]
    tx, ty = t[:, 0], t[:, 1]
    return (
        f(i, k) * (1 - tx) * (1 - ty)
        + f(i + 1, k) * tx * (1 - ty)
        + f(i, k + 1) * (1 - tx) * ty
        + f(i + 1, k + 1) * tx * ty
    )


def _dst1(x, n):
    """Orthonormal DST-I along the first n axes of x, its own inverse: the
    symmetric sine matrix sqrt(2/N) sin(pi j k / N), j, k = 1..N-1, per axis."""
    for ax in range(n):
        k = np.arange(1, x.shape[ax] + 1)
        S = np.sqrt(2.0 / (k.size + 1)) * np.sin(np.pi * np.outer(k, k) / (k.size + 1))
        x = np.moveaxis(np.tensordot(S, x, axes=(1, ax)), 0, ax)
    return x


def extend(trace, slab):
    """Extend thin-space Dirichlet data into the slab.

    trace : full node array on slab.base (must vanish on the lateral ring).
    Returns the ExtensionField; an identically-zero trace short-circuits to
    the zero field.
    """
    base = slab.base
    trace = np.asarray(trace, dtype=float)
    if trace.shape != base.node_shape:
        raise ValueError("trace shape does not match the slab footprint")
    ring = ~base.interior()
    if np.any(np.abs(trace[ring]) > 0):
        raise ValueError("trace must vanish on the design-box boundary ring")
    vals = np.zeros(slab.values_shape())
    vals[..., 0] = trace
    if not np.any(trace):
        return ExtensionField(slab, vals)
    inner = (slice(1, -1),) * base.n
    cv, _ = slab._level_conductances()
    rhs = np.zeros(trace[inner].shape + (slab.J - 1,))
    rhs[..., 0] = cv[0] * _dst1(trace[inner], base.n)
    z = slab._modal_lu().solve(rhs.ravel()).reshape(rhs.shape)
    vals[inner + (slice(1, -1),)] = _dst1(z, base.n)
    _check_residual(slab, ~slab.boundary_mask(), vals)
    return ExtensionField(slab, vals)


def extension_energy(field):
    """Weighted Dirichlet energy of the upper half-slab, edge quadrature."""
    total = 0.0
    for axis, c in enumerate(_conductances(field.slab)):
        d = np.diff(field.values, axis=axis)
        total += np.sum(c * d * d)
    return float(total)


def neumann_trace(field):
    """Weighted normal derivative -y^a dg/dy at y=0, per thin-space node.

    Two-point estimates from the first two levels are combined by power-law
    extrapolation consistent with the y^(1-a) boundary behavior; entries where
    the two estimates disagree badly are flagged.
    Returns (values, flagged) arrays shaped like the footprint.
    """
    slab = field.slab
    a = slab.a
    y = slab.y_nodes
    g0 = field.values[..., 0]
    est = []
    for j in (1, 2):
        est.append((1.0 - a) * (field.values[..., j] - g0) / y[j] ** (1.0 - a))
    n1, n2 = est
    w = y[1] ** (1.0 + a) / (y[2] ** (1.0 + a) - y[1] ** (1.0 + a))
    grad = n1 + (n1 - n2) * w
    scale = np.abs(grad).max() if grad.size else 0.0
    flagged = np.abs(n2 - n1) > 0.5 * np.maximum(np.abs(n1), 0.05 * scale + 1e-300)
    return -grad, flagged


def harmonic_replacement(field, center, radius):
    """Replace the field inside the half-ball at a thin-space center by the
    weighted-harmonic fill-in with the same outside values.

    Nodes on y=0 inside the ball become free with the natural (zero weighted
    flux) condition, matching the even reflection; the discrete energy inside
    never exceeds the original's.
    """
    slab = field.slab
    base = slab.base
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (base.n,):
        raise ValueError("center must be a thin-space point")
    lo, hi = base.lower, base.upper
    if np.any(center - radius < lo - 1e-12) or np.any(center + radius > hi + 1e-12):
        raise ValueError("replacement ball exits the slab footprint")
    if radius > slab.Y:
        raise ValueError("replacement ball exits the slab vertically")
    d2 = ((base.node_coords() - center[None, :]) ** 2).sum(axis=1)
    inside = d2.reshape(base.node_shape)[..., None] + slab.y_nodes**2 < radius**2
    # free nodes must not touch the outer Dirichlet shell of the slab itself
    # (the top level y = Y >= radius is outside); y=0 nodes in the ball are free
    inside &= base.interior()[..., None]
    values = field.values.copy()
    if inside.any():
        # solve on the free nodes' bounding box plus one node per side (their
        # neighbours), from level 0: the rows of the free nodes are whole there
        at = np.nonzero(inside)
        window = tuple(slice(max(k.min() - 1, 0), k.max() + 2) for k in at)
        values[window] = _solve_dirichlet(slab, inside[window], values[window])
    return ExtensionField(slab, values)


def ball_energy(field, center, radius):
    """Edge-quadrature energy of the upper half-ball at a thin-space center:
    the sum of c * (dg)^2 over the edges whose midpoints lie in the open ball.

    Only the ball's index window is read: such an edge joins x-nodes within
    r + h of the center, at levels up to the first one with y >= r.
    """
    slab = field.slab
    base = slab.base
    center = np.atleast_1d(np.asarray(center, dtype=float))
    at = (center - base.lower) / base.h  # the center in index units
    lo = np.maximum(np.floor(at - radius / base.h).astype(int) - 1, 0)
    hi = np.maximum(np.ceil(at + radius / base.h).astype(int) + 2, 0)
    top = int(np.searchsorted(slab.y_nodes, radius)) + 1
    window = tuple(slice(i, k) for i, k in zip(lo, hi)) + (slice(0, top),)
    g = field.values[window]
    # per axis: node coordinates and the center, with y the last axis
    coords = [base.axis_nodes()[w] for w in window[:-1]] + [slab.y_nodes[:top]]
    origin = list(center) + [0.0]
    total = 0.0
    for axis, c in enumerate(_conductances(slab)):
        d2 = 0.0
        for k, x in enumerate(coords):
            if k == axis:
                x = 0.5 * (x[:-1] + x[1:])
            shape = [-1 if m == k else 1 for m in range(g.ndim)]
            d2 = d2 + ((x - origin[k]) ** 2).reshape(shape)
        d = np.diff(g, axis=axis)
        total += np.sum((c[: d.shape[-1]] * d * d)[d2 < radius**2])
    return float(total)


def _node_volumes(slab):
    """Lebesgue control-volume sizes (upper half, per slab node)."""
    dv = np.diff(slab.control_bounds()) * slab.base.h**slab.base.n
    return np.broadcast_to(dv, (slab.base.num_nodes, slab.J + 1))


def almost_minimality_audit(fields, mask, params, centers, radii, support_tol=1e-10):
    """Fit the smallest sigma making the energy-vs-replacement inequality hold.

    For each sampled ball, builds the componentwise harmonic replacement Gt of
    the vector field G and compares the penalized local energies
    J(F, B) = 2 * sum_i E_half(F_i, B) + lambda_tilde * meas({|trace F| > 0} in B).
    The fitted sigma is the smallest value with
    J(G, B) <= J(Gt, B) + sigma * C * ||Gt - G||_L1(B) over the sample, where
    C = 2 * omega_n * (sum_i lambda_i) / d_s comes from the Rayleigh quotients
    of the traces (see _c_tilde). Report-only: returns a dict per ball plus the
    overall sigma.
    """
    base, fields, _ = _as_fields(fields, need_slab=True)
    h = base.h
    coords = base.node_coords()
    vols = _node_volumes(fields[0].slab).ravel()
    c_tilde = _c_tilde(fields, params)
    rows = []
    sigma = 0.0
    mask_flat = mask.mask.ravel()
    for center in centers:
        center = np.atleast_1d(np.asarray(center, dtype=float))
        for r in radii:
            ball_thin = ((coords - center[None, :]) ** 2).sum(axis=1) < r**2
            reps = [harmonic_replacement(f, center, r) for f in fields]
            e_g = sum(ball_energy(f, center, r) for f in fields)
            e_t = sum(ball_energy(f, center, r) for f in reps)
            supp_t = _trace_support([f.trace for f in reps], support_tol).ravel()
            meas_g = h**base.n * np.sum(ball_thin & mask_flat)
            meas_t = h**base.n * np.sum(ball_thin & supp_t)
            j_g = 2.0 * e_g + params.lambda_tilde * meas_g
            j_t = 2.0 * e_t + params.lambda_tilde * meas_t
            dv = 0.0
            for f, g in zip(fields, reps):
                dv += np.sum(np.abs(g.values.ravel() - f.values.ravel()) * vols)
            l1 = 2.0 * float(dv)  # reflected volume
            s_ball = 0.0
            if j_g > j_t and l1 > 0:
                s_ball = (j_g - j_t) / (c_tilde * l1)
            sigma = max(sigma, s_ball)
            rows.append(
                {
                    "center": center.tolist(),
                    "r": float(r),
                    "J_field": float(j_g),
                    "J_replacement": float(j_t),
                    "l1_distance": float(l1),
                    "sigma_ball": float(s_ball),
                }
            )
    return {"sigma_fit": float(sigma), "c_tilde": float(c_tilde), "balls": rows}
