"""Uniform node grids on a design box and pixel domains living inside them.

Conventions used throughout the package:

* Nodes sit at the lattice points of a uniform subdivision of the box D, so a
  grid with ``cells_per_axis = N`` carries ``(N+1)**n`` nodes, stored in
  C (row-major) order.
* Each node owns the cell of side h centered at it ("node-cell" convention);
  a pixel domain is a set of interior nodes and its Lebesgue measure is
  ``h**n`` times the node count.
* Functions are extended by zero outside the domain; masks never touch the
  outermost node layer, so the domain stays compactly inside D.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["BoxGrid", "ThinDomain", "interval_domain", "ball_domain", "mask_from_indices"]


class BoxGrid:
    """Uniform grid of nodes on the box [lower, upper]^n.

    Parameters
    ----------
    n : int
        Dimension (1 or 2).
    lower, upper : float
        Box corners, identical per axis (the box is a cube).
    cells_per_axis : int
        Number of cells per axis, at least 4.
    """

    def __init__(self, n, lower, upper, cells_per_axis):
        if n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {n}")
        lower = float(lower)
        upper = float(upper)
        if not np.isfinite([lower, upper]).all():
            raise ValueError("box corners must be finite")
        if not upper > lower:
            raise ValueError("upper must exceed lower")
        cells_per_axis = int(cells_per_axis)
        if cells_per_axis < 4:
            raise ValueError("need at least 4 cells per axis")
        self.n = n
        self.lower = lower
        self.upper = upper
        self.cells_per_axis = cells_per_axis
        self.h = (upper - lower) / cells_per_axis
        self.node_shape = (cells_per_axis + 1,) * n
        self.num_nodes = (cells_per_axis + 1) ** n

    def axis_nodes(self):
        """Node coordinates along one axis, length cells_per_axis+1."""
        return self.lower + self.h * np.arange(self.cells_per_axis + 1)

    def node_coords(self):
        """(num_nodes, n) array of node coordinates in C order."""
        axes = np.meshgrid(*[self.axis_nodes()] * self.n, indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, self.n)

    def interior(self):
        """Boolean node_shape array marking nodes strictly inside D."""
        m = np.zeros(self.node_shape, dtype=bool)
        m[(slice(1, -1),) * self.n] = True
        return m

    def same_layout(self, other):
        """Same dimension, cell count and box corners (to 1e-12 h)."""
        tol = 1e-12 * self.h
        return (
            self.n == other.n
            and self.cells_per_axis == other.cells_per_axis
            and abs(self.lower - other.lower) <= tol
            and abs(self.upper - other.upper) <= tol
        )

    def __repr__(self):
        return (
            f"BoxGrid(n={self.n}, lower={self.lower}, upper={self.upper}, "
            f"cells_per_axis={self.cells_per_axis})"
        )


@dataclass(frozen=True)
class ThinDomain:
    """A pixel domain: boolean node mask over a BoxGrid, one-layer margin enforced."""

    grid: BoxGrid
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != self.grid.node_shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match grid {self.grid.node_shape}"
            )
        if np.any(mask & ~self.grid.interior()):
            raise ValueError("mask touches the boundary layer of the design box")
        object.__setattr__(self, "mask", mask)

    @property
    def cell_count(self):
        return int(self.mask.sum())

    @property
    def measure(self):
        """Lebesgue measure h^n * (number of cells)."""
        return self.grid.h**self.grid.n * self.cell_count

    @property
    def flat_indices(self):
        return np.flatnonzero(self.mask.ravel())

    def coords(self):
        """Coordinates of the domain's nodes, (cell_count, n)."""
        return self.grid.node_coords()[self.flat_indices]

    def full_field(self, values):
        """Scatter a domain vector to a full-grid node array (zeros elsewhere)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.cell_count,):
            raise ValueError("values length does not match the domain")
        out = np.zeros(self.grid.num_nodes)
        out[self.flat_indices] = values
        return out.reshape(self.grid.node_shape)

    def with_mask(self, mask):
        return ThinDomain(self.grid, mask)


def interval_domain(grid, a, b):
    """Nodes of a 1d grid with a <= x <= b (clipped to the interior)."""
    if grid.n != 1:
        raise ValueError("interval_domain needs a 1d grid")
    x = grid.axis_nodes()
    mask = (x >= a - 1e-12 * grid.h) & (x <= b + 1e-12 * grid.h)
    mask &= grid.interior()
    return ThinDomain(grid, mask)


def ball_domain(grid, center, radius):
    """Nodes within `radius` of `center` (clipped to the interior)."""
    coords = grid.node_coords()
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = np.linalg.norm(coords - center[None, :], axis=1)
    mask = (d <= radius + 1e-12 * grid.h).reshape(grid.node_shape)
    mask &= grid.interior()
    return ThinDomain(grid, mask)


def _neighbor_counts(mask):
    """Number of face neighbours of each node that lie in `mask`.

    Works on any boolean node array; neighbours beyond the array edges do not
    exist (there is no wraparound).
    """
    mask = np.asarray(mask, dtype=bool)
    counts = np.zeros(mask.shape, dtype=int)
    for ax in range(mask.ndim):
        lo = [slice(None)] * mask.ndim
        hi = [slice(None)] * mask.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        counts[tuple(lo)] += mask[tuple(hi)]
        counts[tuple(hi)] += mask[tuple(lo)]
    return counts


def _in_ball(d2, r):
    """Points strictly inside B_r at squared distances d2; one within 1e-12 r^2 of the
    sphere is outside, as in exact arithmetic on lattice ties (3-4-5 at 5h)."""
    return d2 < r * r * (1.0 - 1e-12)


def _nearest_node(grid, x0):
    """(node, f): the node nearest the point x0, x0's offset from it in cells (0 within 1e-12);
    for a (k, n) stack of points, the (k, n) nodes and a list of the k offsets."""
    u = (np.atleast_1d(np.asarray(x0, dtype=float)) - grid.lower) / grid.h
    f = u - np.rint(u)
    f = np.where(np.abs(f) <= 1e-12, 0.0, f).tolist()
    return np.rint(u).astype(int), (tuple(f) if u.ndim == 1 else list(map(tuple, f)))


# a chunk's batched temporaries together, about: a stack of points is reduced in
# chunks, so that the reductions add no more to the peak memory than per point
_CHUNK_BYTES = 1 << 20


def _chunks(idx, point_bytes):
    """The index array idx in consecutive parts, few enough points each that
    temporaries of point_bytes per point stay within about _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // max(int(point_bytes), 1))
    return [idx[i:i + step] for i in range(0, len(idx), step)]


def _groups(keys):
    """[(key, index array of its positions)] of a sequence of hashable keys, in
    order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [(key, np.array(idx)) for key, idx in groups.items()]


def _ball_nodes(grid, radii, f):
    """The C-order offsets of the grid's nodes in the ball of the largest radius about a
    point f cells off a node, and per radius their _in_ball mask."""
    h, top = grid.h, max(radii)
    o = np.arange(-1 - int(top / h), 2 + int(top / h))
    d2 = functools.reduce(np.add.outer, [((o - c) * h) ** 2 for c in f])
    idx = np.nonzero(_in_ball(d2, top))
    offsets = np.dot((grid.cells_per_axis + 1) ** np.arange(len(f) - 1, -1, -1), o[np.array(idx)])
    return offsets, np.array([_in_ball(d2[idx], r) for r in radii])


def _ball_counts(grid, x0, radii, flags):
    """Per radius, the flagged nodes (a node_shape bool array) in the ball about the point
    x0 (_in_ball), which must lie in the box; for a (k, n) stack of points, a (k, radii)
    array. Per group of points with one offset from their nodes, one gather at each
    point's nearest node."""
    x0 = np.asarray(x0, dtype=float)
    nodes, offs = _nearest_node(grid, x0.reshape(-1, grid.n))
    radii = np.ravel(radii)
    base = np.ravel_multi_index(tuple(nodes.T), grid.node_shape)
    out = np.empty((len(nodes), len(radii)), dtype=int)
    for f, idx in _groups(offs):
        offsets, inside = _ball_nodes(grid, radii, f)
        for part in _chunks(idx, offsets.nbytes + inside.nbytes):
            at = offsets + base[part, None]
            out[part] = np.count_nonzero(inside & flags.reshape(-1).take(at)[:, None], axis=2)
    return out if x0.ndim == 2 else out[0]


def mask_from_indices(grid, flat_indices):
    mask = np.zeros(grid.num_nodes, dtype=bool)
    mask[np.asarray(flat_indices, dtype=int)] = True
    return ThinDomain(grid, mask.reshape(grid.node_shape))
