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
level. The discrete energy is the sum over axes of c * np.diff(values)^2.

The extension solve is separable. On the free nodes (interior x-nodes times
levels 1..J-1) the operator is h^(n-2) L_x (x) diag(w) + I (x) T_y, with L_x the
Dirichlet lattice Laplacian and T_y the tridiagonal vertical part. The
orthonormal DST-I diagonalises L_x, so in sine coordinates the operator splits
into one tridiagonal block T_mu per mode, which depends on the mode only through
its eigenvalue mu. A trace's right-hand side lies on level 1 alone, so a mode's
solution is the trace's DST coefficient times the profile T_mu^-1 e_1. Each extend
call finds the sine matrix and the profiles once for all its traces, the profiles by
one sparse LU in natural order of the blocks of the distinct mu; each trace then costs
two DSTs (sine-matrix products, O(N M) for N slab nodes and M nodes per axis) and a
product. The method is exact: the result agrees with a direct sparse solve of the
assembled system up to roundoff.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sla

from .constants import unit_ball_volume
from .grids import _chunks, _groups, _in_ball, _nearest_node

__all__ = [
    "SlabGrid",
    "ExtensionField",
    "extend",
    "extension_energy",
    "neumann_trace",
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
        if not diam - 1e-12 <= Y < np.inf:
            raise ValueError(f"slab height Y={Y} must be finite and at least the footprint "
                             f"diameter {diam}")
        if gamma is None:
            gamma = 2.0 / (1.0 - a)
        if not 1.0 <= gamma < np.inf:
            raise ValueError("grading exponent must be finite and >= 1")
        J = int(J)
        if J < 4:
            raise ValueError("need at least 4 vertical cells")
        self.base = base
        self.J = J
        self.Y = float(Y)
        self.gamma = float(gamma)
        self.a = a
        self.y_nodes = self.Y * (np.arange(J + 1) / J) ** self.gamma

    def values_shape(self):
        return self.base.node_shape + (self.J + 1,)

    def boundary_mask(self):
        """Mask of Dirichlet nodes for the extension solve, values-shaped."""
        mask = np.zeros(self.values_shape(), dtype=bool)
        mask[..., 0] = mask[..., -1] = True
        mask[~self.base.interior()] = True
        return mask


def _modal_profiles(slab):
    """The profile T_mu^-1 e_1 over levels 1..J-1 of each DST-I mode, (N-1,)*n + (J-1,):
    one LU of the blocks of the distinct mu, mode k's mu the sum over axes of
    2 - 2 cos(pi k / N)."""
    base = slab.base
    N = base.cells_per_axis
    lam1 = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, N) / N)
    mu = functools.reduce(np.add.outer, [lam1] * base.n)
    distinct, mode = np.unique(mu, return_inverse=True)  # mirror modes' sums are equal
    *lateral, cv = _conductances(slab)
    diag = cv[:-1] + cv[1:] + np.outer(distinct, lateral[0][1:-1])
    # one tridiagonal block per distinct mu: the zero ends each block's coupling
    off = np.tile(np.append(-cv[1:-1], 0.0), distinct.size)[:-1]
    A = sparse.diags([diag.ravel(), off, off], [0, -1, 1], format="csc")
    e1 = np.repeat(np.eye(1, slab.J - 1), distinct.size, axis=0)
    # supernodes buy nothing on a tridiagonal: one-column panels, no relaxation
    lu = sla.splu(A, permc_spec="NATURAL", panel_size=1, relax=1)
    return lu.solve(e1.ravel()).reshape(diag.shape)[mode.reshape(mu.shape)]


def _conductances(slab):
    """Edge conductances per axis of the values array, indexed by level.

    Entry n holds the vertical ones between levels j and j+1 (length J): h^n over
    the exact resistance integral of y^-a. Entry k < n holds the lateral ones of
    the edges along x-axis k on level j (length J+1): h^(n-2) times the integral
    of y^a over the level's control volume, whose bounds are the midpoints between
    levels, closed at 0 and Y. Either broadcasts against d = np.diff(values,
    axis=k); on a window of the lowest levels, c[:d.shape[-1]] does.
    """
    a, y, h, n = slab.a, slab.y_nodes, slab.base.h, slab.base.n
    res = (y[1:] ** (1.0 - a) - y[:-1] ** (1.0 - a)) / (1.0 - a)
    bounds = np.concatenate([[0.0], 0.5 * (y[:-1] + y[1:]), [y[-1]]])
    w_cv = (bounds[1:] ** (1.0 + a) - bounds[:-1] ** (1.0 + a)) / (1.0 + a)
    return [w_cv * h ** (n - 2)] * n + [h**n / res]


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
    a finite relative residual ||(L g)[free]|| / ||(L d)[free]|| <= 1e-10,
    where d is g with its free entries zeroed (the boundary data alone)."""
    resid = np.linalg.norm(_apply_laplacian(slab, solved)[free])
    scale = np.linalg.norm(_apply_laplacian(slab, np.where(free, 0.0, solved))[free])
    if not np.isfinite(resid + scale):
        raise RuntimeError("extension solve residual is not finite")
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


def _slab_stencil(slab, x, y):
    """The stencil on the slab of samples at cell coordinates x (k, n) from a node and
    heights y: the cell stencil of the levels around each, ty of the way up, x, y."""
    J, ynodes = slab.J, slab.y_nodes
    if np.any(y < -1e-12) or np.any(y > slab.Y + 1e-12):
        raise ValueError("query points leave the slab vertically")
    j = np.clip(np.searchsorted(ynodes, y, side="right") - 1, 0, J - 1)
    ty = np.clip((y - ynodes[j]) / (ynodes[j + 1] - ynodes[j]), 0.0, 1.0)
    stencil = _cell_stencil(x, slab.base.cells_per_axis, slab.values_shape(), np.stack([j, j + 1]))
    return stencil + (ty, x, y)


def _gather(fields, stencil, node):
    """The fields at a slab stencil's samples placed at the node index `node`, one take per
    corner and field; where the stencil reaches past the footprint, _interp of them. For a
    (k, n) stack of nodes, each field's (k, samples) values, row by row the same."""
    flat, weight, first, reach, ty, x, y = stencil
    base, shape = fields[0].slab.base, fields[0].slab.values_shape()
    nodes = np.reshape(node, (-1, base.n))
    out = [np.empty((len(nodes), ty.size)) for _ in fields]
    past = np.any((nodes + reach[0] < 0) | (nodes + reach[1] > base.cells_per_axis), axis=1)
    for k in np.flatnonzero(past):
        pts = np.column_stack([base.lower + (x + nodes[k]) * base.h, y])
        for row, values in zip(out, _interp(fields, pts)):
            row[k] = values
    if not past.all():
        at = first + np.ravel_multi_index((*nodes[~past].T, 0), shape)
        for row, f in zip(out, fields):
            below, above = np.moveaxis(_apply(f.values, flat, weight, at), -2, 0)
            row[~past] = below * (1.0 - ty) + above * ty
    return out if np.ndim(node) == 2 else [row[0] for row in out]


def _interp(fields, points):
    """Multilinear interpolation of the fields, which share one slab layout, at
    (k, n+1) points (x..., y), y >= 0: their slab stencil about node 0."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = fields[0].slab.base
    if pts.shape[1] != base.n + 1:
        raise ValueError("points must have n+1 columns")
    node, _ = _nearest_node(base, [base.lower] * base.n)
    x = _in_footprint((pts[:, :-1] - base.lower) / base.h, base.cells_per_axis)
    return _gather(fields, _slab_stencil(fields[0].slab, x, pts[:, -1]), node)


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


def _in_footprint(x, cells):
    """Cell coordinates x clipped to [0, cells]; ValueError if one lies more than 1e-9 outside."""
    if np.any(x < -1e-9) or np.any(x > cells + 1e-9):
        raise ValueError("query points leave the grid footprint")
    return np.clip(x, 0.0, cells)


def _cell_stencil(x, cells, shape, *tail):
    """The multilinear stencil (flat, weight, first, reach) of points at cell coordinates
    x (k, n) from a node, on fields of `shape` with tail index arrays into the trailing
    axes, in cells with low corners i0 = min(floor(x), cells - 1). Per corner, first
    axis fastest: flat, C-order offsets from the node minus first = min(0, their
    minimum); weight, (1 - t or t) per axis, t = x - i0. reach bounds corners and x."""
    i0 = np.minimum(np.floor(x), cells - 1).astype(int)
    index = [*i0.T, *tail]
    if len(index) != len(shape):
        raise ValueError("tail must index every trailing axis of the field")
    low = index[0]  # the low corner's C-order index (Horner)
    for i, m in zip(index[1:], shape[1:]):
        low = low * m + i
    corners = [c[::-1] for c in itertools.product((0, 1), repeat=x.shape[1])]
    flat = np.stack([low + sum(c * math.prod(shape[k + 1:]) for k, c in enumerate(corner))
                     for corner in corners])
    first = int(flat.min(initial=0))
    w = (1 - (x - i0), x - i0)
    weight = np.array([[w[c][:, k] for k, c in enumerate(corner)] for corner in corners])
    reach = [i0.min(axis=0), np.maximum(i0.max(axis=0) + 1, np.ceil(x.max(axis=0)))]
    return flat - first, weight, first, np.array(reach, dtype=int)


def _apply(field, flat, weight, first):
    """A float field at a cell stencil's points: per corner one take from C-order index
    `first` on, times the axis weights in order, in place; the corners summed in order.
    For an array of indices `first`, one such result per index, stacked in front."""
    values, first = field.reshape(-1), np.reshape(first, np.shape(first) + (1,) * (flat.ndim - 1))
    terms = (functools.reduce(operator.imul, w, values.take(first + fl))
             for fl, w in zip(flat, weight))
    return functools.reduce(operator.iadd, terms)


def _sine_matrix(N):
    """The symmetric orthonormal DST-I matrix sqrt(2/N) sin(pi j k / N), j, k = 1..N-1."""
    k = np.arange(1, N)
    return np.sqrt(2.0 / N) * np.sin(np.pi * np.outer(k, k) / N)


def _dst1(x, n, S):
    """Orthonormal DST-I along the first n axes of x, each of length N-1, its own
    inverse: the sine matrix S = _sine_matrix(N) applied per axis."""
    for ax in range(n):
        x = np.moveaxis(np.tensordot(S, x, axes=(1, ax)), 0, ax)
    return x


def _check_trace(trace, base):
    """The trace as a float array; ValueError unless finite, on `base`, zero on its ring."""
    trace = np.asarray(trace, dtype=float)
    if trace.shape != base.node_shape:
        raise ValueError("trace shape does not match the slab footprint")
    if not np.all(np.isfinite(trace)):
        raise ValueError("trace has non-finite values")
    if np.any(trace[~base.interior()] != 0):
        raise ValueError("trace must vanish on the design-box boundary ring")
    return trace


def extend(traces, slab):
    """One ExtensionField per trace: each a full node array on slab.base that
    vanishes on the lateral ring, all checked before anything is solved. The
    sine matrix, the profiles and the free nodes are found once per call, and only
    if some trace is nonzero; a zero trace short-circuits to the zero field."""
    traces = [_check_trace(trace, slab.base) for trace in traces]
    n, inner = slab.base.n, (slice(1, -1),) * slab.base.n
    cv = _conductances(slab)[-1]
    if any(map(np.any, traces)):
        S, profiles = _sine_matrix(slab.base.cells_per_axis), _modal_profiles(slab)
        free = ~slab.boundary_mask()
    fields = []
    for trace in traces:
        vals = np.zeros(slab.values_shape())
        vals[..., 0] = trace
        if np.any(trace):
            z = profiles * (cv[0] * _dst1(trace[inner], n, S))[..., None]
            vals[inner + (slice(1, -1),)] = _dst1(z, n, S)
            _check_residual(slab, free, vals)
        fields.append(ExtensionField(slab, vals))
    return fields


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


def _ball_edges(slab, radii, f):
    """(the reach (2, n) of their cells; per axis, in C order, both ends' offsets from the
    node's level-0 index (2, m), the low ends' cells (n, m) and levels, and per radius the
    positions in its ball) of the slab edges whose midpoints lie in the open ball
    (_in_ball) of the largest radius about a point f cells off a node."""
    n, h, y, shape = slab.base.n, slab.base.h, slab.y_nodes, slab.values_shape()
    strides = [math.prod(shape[ax + 1:]) for ax in range(n + 1)]
    top = max(radii, default=0.0)
    o, axes = np.arange(-int(top / h) - 1, int(top / h) + 2), []
    for step in np.eye(n + 1, dtype=int):
        mid = [((o + 0.5 * step[ax] - c) * h) ** 2 for ax, c in enumerate(f)]
        ys = 0.5 * (y[:-1] + y[1:]) if step[n] else y
        d2 = functools.reduce(np.add.outer, mid + [ys**2])
        idx = np.nonzero(_in_ball(d2, top))
        cell = o[np.array(idx[:n])]
        low = np.dot(strides, [*cell, idx[n]])
        axes.append((np.stack([low, low + np.dot(strides, step)]), cell, idx[n],
                     *(np.flatnonzero(_in_ball(d2[idx], r)) for r in radii)))
    every = np.concatenate([cell for _, cell, *_ in axes], axis=1)
    reach = np.array([every.min(axis=1, initial=0), every.max(axis=1, initial=0) + 1])
    return reach, tuple(axes)


def _edge_sums(values, at, ce, picks):
    """Per point, the sums of c * dg^2 over each pick of edges, dg = values at the
    edges' high ends (at[1]) less the low ends (at[0]), clipped; (points, picks)."""
    lo, hi = values.reshape(-1).take(at, mode="clip")
    d = hi - lo
    e = ce * d
    e *= d
    return np.stack([e.take(i, axis=-1).sum(axis=-1) for i in picks], axis=-1)


def _ball_energies(fields, center, radii):
    """Edge-quadrature energy of the upper half-ball at a thin-space center, per
    field (rows) of fields on one slab layout and radius (columns): the sum of
    c * (dg)^2 over the edges whose midpoints lie in the open ball (_in_ball).
    For a (k, n) stack of centers, (fields, k, radii). Per group of centers with one
    offset from their nodes, the edges are found once (_ball_edges); per axis, field
    and chunk of centers, two gathers give dg on them, and each radius sums its
    entries in C order, those past the footprint left out, as a window of the values
    array selects them; a row is what it is alone."""
    slab, cells = fields[0].slab, fields[0].slab.base.cells_per_axis
    center = np.asarray(center, dtype=float)
    nodes, offs = _nearest_node(slab.base, center.reshape(-1, slab.base.n))
    radii = np.asarray(radii, dtype=float)
    base = np.ravel_multi_index((*nodes.T, 0), slab.values_shape())
    out = np.zeros((len(fields), len(nodes), len(radii)))
    for f, idx in _groups(offs):
        reach, edges = _ball_edges(slab, radii, f)
        # where the ball passes the wall the gathers clip, and no sum takes an edge past it
        past = np.any((nodes + reach[0] < 0) | (nodes + reach[1] > cells), axis=1)
        for axis, (c, (ends, cell, levels, *picks)) in enumerate(zip(_conductances(slab), edges)):
            ce = c[levels]
            for part in _chunks(idx, 4 * ends.nbytes):  # at, its gathers, dg and c dg^2
                at = ends[:, None, :] + base[part, None]
                for row, fld in zip(out, fields):
                    sums = _edge_sums(fld.values, at, ce, picks)
                    for j in np.flatnonzero(past[part]):
                        low = nodes[part[j], :, None] + cell
                        keep = np.all((low >= 0) & (low + (np.arange(len(low)) == axis)[:, None]
                                                    <= cells), 0)
                        sums[j] = _edge_sums(fld.values, at[:, j], ce, [i[keep[i]] for i in picks])
                    row[part] += sums
    return out if center.ndim == 2 else out[:, 0]
