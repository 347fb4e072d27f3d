"""Discrete quadratic form of the fractional seminorm on pixel domains.

The seminorm ``(C(n,s)/2) * double-integral of (u(x)-u(z))^2 / |x-z|^(n+2s)``
is discretized by a cell-pair quadrature on the node-cell partition:

* far node pairs (cells not touching) use the midpoint rule
  ``h^(2n) / |x_i - x_j|^(n+2s)``;
* touching cell pairs (offsets within one cell, where the plain rule diverges
  as h -> 0) are integrated semi-analytically against the local linear
  interpolant, which turns the singular kernel into an integrable one and
  yields per-offset weights exact for affine functions; in 2d their kernel
  moments are taken in polar coordinates about the singular corner, with
  exact radial power integrals and Gauss-Legendre quadrature in the angle;
* the exterior of the box (where functions vanish identically) contributes a
  closed-form tail potential to each diagonal entry.

The resulting matrix K is symmetric, has nonpositive off-diagonal entries,
and is positive definite for any nonempty admissible mask.

Pair weights depend only on the lattice offset between two nodes, so a
KernelTable stores one per offset, O(N) numbers for N grid nodes, and
gathers K from them; the neighbor sums are one FFT convolution.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import normalization_constant
from .grids import ThinDomain

__all__ = ["StiffnessForm", "KernelTable", "assemble_form", "seminorm"]

# ---------------------------------------------------------------------------
# near-field weights (touching cells, local linear model)


def _near_weight_1d(s, h):
    # integral of |w|^(1-2s) against the tent overlap functions of the same
    # cell and the adjacent cell, split so affine functions get exact energy
    nu = (2.0 - 2.0 * s) * (3.0 - 2.0 * s)
    return h ** (1.0 - 2.0 * s) * (2.0 ** (3.0 - 2.0 * s) - 1.0) / nu


# Gauss-Legendre rule on [-1, 1]; each angular piece below is analytic in the
# angle, so 40 points reach roundoff
_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)
# the tent overlap on [0, 2] as (lo, hi, p0, p1): p0 + p1 w on [lo, hi]
_TENT = ((0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 2.0, -1.0))


def _corner_moment(s, component, pieces):
    """Sum over pieces (a1, b1, a2, b2, p0, p1, q0, q2) of the integral of
    w_c^2 |w|^(-2-2s) (p0 + p1 w1)(q0 + q2 w2) over [a1,b1]x[a2,b2] >= 0.

    In polar coordinates about the singular corner w = 0 the radial integrals
    are exact powers between the ray's entry and exit radii, which are smooth
    between the rectangle's corner angles; Gauss-Legendre takes the angle."""
    e = np.arange(3.0)[:, None] + 2.0 - 2.0 * s
    total = 0.0
    for a1, b1, a2, b2, p0, p1, q0, q2 in pieces:
        cuts = np.unique(np.arctan2([a2, a2, b2, b2], [a1, b1, a1, b1]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            phi = 0.5 * (hi - lo) * _GL_X + 0.5 * (hi + lo)
            c, sn = np.cos(phi), np.sin(phi)
            r0 = np.maximum(a1 / c, a2 / sn)
            r1 = np.minimum(b1 / c, b2 / sn)
            k = np.stack([np.full_like(c, p0 * q0), p1 * q0 * c + p0 * q2 * sn,
                          p1 * q2 * c * sn])
            radial = (k * (r1**e - r0**e) / e).sum(axis=0)
            total += 0.5 * (hi - lo) * (_GL_W @ ((c, sn)[component] ** 2 * radial))
    return total


def _near_moments_2d(s):
    """Second moments of the kernel against the tent overlaps of a cell pair.

    At h = 1: the same cell (m_same, w1^2 over [-1,1]^2), the (1,0) offset
    along and across it (m_par, m_perp: w1^2, w2^2 over [0,2]x[-1,1]) and
    the (1,1) offset (m_di, w1^2 over [0,2]^2).
    """
    axis = [(lo, hi, 0.0, 1.0, p0, p1, 1.0, -1.0) for lo, hi, p0, p1 in _TENT]
    return (
        4.0 * _corner_moment(s, 0, [(0.0, 1.0, 0.0, 1.0, 1.0, -1.0, 1.0, -1.0)]),
        2.0 * _corner_moment(s, 0, axis),
        2.0 * _corner_moment(s, 1, axis),
        _corner_moment(s, 0, [(l1, h1, l2, h2, p0, p1, q0, q2)
                              for l1, h1, p0, p1 in _TENT for l2, h2, q0, q2 in _TENT]),
    )


def _near_weights_2d(s, h):
    """(axis, diagonal) pair weights for touching cells in 2d."""
    m_same, m_par, m_perp, m_di = _near_moments_2d(s)
    scale = h ** (2.0 - 2.0 * s)
    return (m_par + m_perp + 0.5 * m_same) * scale, m_di * scale


# ---------------------------------------------------------------------------
# exterior tail potentials


def _pow_integral(dm, dp, q):
    # int_dm^dp tau^(-q) dtau for 0 < dm < dp
    if abs(q - 1.0) < 1e-13:
        return math.log(dp / dm)
    return (dp ** (1.0 - q) - dm ** (1.0 - q)) / (1.0 - q)


def _tail_1d(grid, s):
    """Exact cell-integrated tail potential for every interior node (1d)."""
    h = grid.h
    x = grid.axis_nodes()
    left_edge = grid.lower - 0.5 * h
    right_edge = grid.upper + 0.5 * h
    tail = np.zeros(grid.num_nodes)
    for i in range(1, grid.cells_per_axis):
        tL = _pow_integral(x[i] - left_edge - 0.5 * h, x[i] - left_edge + 0.5 * h, 2.0 * s)
        tR = _pow_integral(right_edge - x[i] - 0.5 * h, right_edge - x[i] + 0.5 * h, 2.0 * s)
        tail[i] = (tL + tR) / (2.0 * s)
    return tail


def _tail_2d(grid, s):
    """Half-plane closed-form tail per interior node.

    Summing the four half-plane integrals double-counts the four exterior
    corner quadrants, so the assembled tail overestimates the true one.
    """
    h = grid.h
    hp_const = math.sqrt(math.pi) * math.gamma(s + 0.5) / (math.gamma(s + 1.0) * 2.0 * s)
    coords = grid.node_coords()
    lo = grid.lower - 0.5 * h
    hi = grid.upper + 0.5 * h
    dw = coords[:, 0] - lo
    de = hi - coords[:, 0]
    ds_ = coords[:, 1] - lo
    dn = hi - coords[:, 1]
    interior = grid.interior().ravel()
    tail = np.zeros(grid.num_nodes)
    walls = np.stack([dw, de, ds_, dn], axis=1)
    tail[interior] = h * h * hp_const * (walls[interior] ** (-2.0 * s)).sum(axis=1)
    return tail


# ---------------------------------------------------------------------------
# kernel table and stiffness form


class KernelTable:
    """Pair weights of one grid and fractional order, indexed by lattice offset.

    The weight between two nodes depends only on their signed offset k in
    cells: the midpoint rule h^(2n) / |h k|^(n+2s), the near-field weights
    at the offsets of touching cells, and zero at k = 0. ``w`` holds it for
    every offset in the box, shape (2M-1)^n with M nodes per axis and k = 0
    at flat position ``centre``; ``key[p]`` is node p's index tuple raveled
    in that shape, so nodes p and q weigh ``w.flat[key[p] - key[q] + centre]``.
    The stiffness matrix of any admissible mask is one such gather (zero
    extension makes the form of a subdomain the principal submatrix of the
    box's), plus the diagonal: ``row_sums`` (each node's weight sum over the
    whole box, the valid part of the convolution of ``w`` with the box
    indicator, by FFT) and the exterior tail potential.
    """

    def __init__(self, grid, s):
        self.s = float(s)
        self.c_ns = normalization_constant(grid.n, s)
        n, h = grid.n, grid.h
        M = grid.cells_per_axis + 1
        ksq = functools.reduce(np.add.outer, [np.arange(1 - M, M) ** 2] * n)
        self.w = w = np.zeros(ksq.shape)
        np.power(ksq, -(n + 2.0 * self.s) / 2.0, out=w, where=ksq > 0)
        w *= h ** (n - 2.0 * self.s)
        c = M - 1
        near = w[(slice(c - 1, c + 2),) * n]  # offsets of touching cells
        if n == 1:
            near[:] = _near_weight_1d(self.s, h)
            self.tail = _tail_1d(grid, self.s)
        else:
            beta_axis, beta_diag = _near_weights_2d(self.s, h)
            near[:] = beta_diag
            near[1, :] = near[:, 1] = beta_axis
            self.tail = _tail_2d(grid, self.s)
        near[(1,) * n] = 0.0
        self.centre = int(np.ravel_multi_index((c,) * n, w.shape))
        self.key = np.ravel_multi_index(np.indices(grid.node_shape).reshape(n, -1), w.shape)
        # a circular convolution of length L >= 2M-1 wraps nothing into the
        # valid part; a 5-smooth L avoids the slower, less exact prime lengths
        L = 2 * M - 1
        while L // math.gcd(L, 60**40) > 1:
            L += 1
        size, axes = (L,) * n, tuple(range(n))
        spec = np.fft.rfftn(w, size, axes) * np.fft.rfftn(np.ones(grid.node_shape), size, axes)
        self.row_sums = np.fft.irfftn(spec, size, axes)[(slice(c, c + M),) * n].ravel()

    def _weights(self, rows, cols):
        """Pair weights between the nodes `rows` and `cols`, shape (rows, cols)."""
        return self.w.take(np.subtract.outer(self.key[rows] + self.centre, self.key[cols]))

    def stiffness(self, flat_indices):
        """Dense stiffness matrix over the given (mask) nodes."""
        idx = np.asarray(flat_indices, dtype=int)
        K = -self._weights(idx, idx)
        diag = self.row_sums[idx] + self.tail[idx]
        K[np.arange(idx.size), np.arange(idx.size)] = diag
        K *= self.c_ns
        return K

    def border(self, flat_indices, cells):
        """What adding one of `cells` to a mask appends to its stiffness matrix.

        Returns (B, alpha): column j of B holds the entries between the mask
        nodes and cells[j], alpha[j] the diagonal entry of cells[j].
        """
        idx = np.asarray(flat_indices, dtype=int)
        cells = np.asarray(cells, dtype=int)
        B = -self.c_ns * self._weights(idx, cells)
        return B, self.c_ns * (self.row_sums[cells] + self.tail[cells])


def kernel_table(grid, s):
    """A new KernelTable of the grid and order (a build takes milliseconds)."""
    return KernelTable(grid, s)


@dataclass(frozen=True)
class StiffnessForm:
    """Stiffness matrix of the fractional form restricted to a pixel domain.

    K acts on vectors indexed by the domain's nodes; the mass matrix is the
    constant diagonal h^n. Off-diagonal entries are nonpositive (the kernel
    is positive), and the diagonal carries the neighbor sums plus the
    exterior tail, so K is strictly positive definite.
    """

    K: np.ndarray
    h: float
    n: int
    domain: ThinDomain

    @property
    def dim(self):
        return self.K.shape[0]

    @property
    def mass(self):
        """Diagonal mass entry (constant h^n)."""
        return self.h**self.n

    def check(self):
        K = self.K
        if not np.array_equal(K, K.T):
            raise AssertionError("stiffness matrix is not exactly symmetric")
        off = K - np.diag(np.diag(K))
        if off.size and off.max() > 0:
            raise AssertionError("positive off-diagonal entry in stiffness matrix")
        if np.diag(K).min() < 0:
            raise AssertionError("negative diagonal entry in stiffness matrix")
        return True


def assemble_form(domain, params):
    """Build the StiffnessForm of a domain for the given parameters."""
    if domain.cell_count == 0:
        raise ValueError("cannot assemble the form of an empty domain")
    if params.n != domain.grid.n:
        raise ValueError("parameter dimension does not match the grid")
    table = kernel_table(domain.grid, params.s)
    return StiffnessForm(
        K=table.stiffness(domain.flat_indices),
        h=domain.grid.h,
        n=domain.grid.n,
        domain=domain,
    )


def seminorm(form, u):
    """Quadratic form value u^T K u (the discrete squared seminorm)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (form.dim,):
        raise ValueError(f"vector length {u.shape} does not match form dim {form.dim}")
    return float(u @ form.K @ u)
