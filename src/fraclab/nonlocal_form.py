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
  tail potential to each diagonal entry: exact cell integrals in 1d, and in
  2d the potential at the node, half-planes in closed form less the corner
  quadrants they cover twice.

The resulting matrix K is symmetric, has nonpositive off-diagonal entries,
and is positive definite for any nonempty admissible mask.

Pair weights depend only on the lattice offset between two nodes, so a
KernelTable stores one per offset, O(N) numbers for N grid nodes, and
gathers K from them; the neighbor sums are one FFT convolution.
"""

import functools
import math

import numpy as np

from .constants import _gauss_jacobi, normalization_constant

__all__ = ["KernelTable"]

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


def _tail_1d(grid, s):
    """Exact cell-integrated tail potential for every interior node (1d): the
    integral of tau^(-2s) over [jh, (j+1)h], j = 1..N-1 the node's distance in
    cells from each end node, divided by 2s. In cells that is h^e g(j) with
    e = 1 - 2s and g(j) = j^e expm1(e log1p(1/j)) / e (log1p(1/j) at e = 0),
    which does not cancel as ((j+1)^e - j^e) / e does far from the walls."""
    N, e = grid.cells_per_axis, 1.0 - 2.0 * s
    j = np.arange(1.0, N)
    L = np.log1p(1.0 / j)
    g = L if e == 0.0 else j**e * np.expm1(e * L) / e
    tail = np.zeros(grid.num_nodes)
    tail[1:N] = grid.h**e * (g + g[::-1]) / (2.0 * s)
    return tail


# Gauss-Jacobi points of the corner integrals' angular factor, which is
# analytic: 8 points reach roundoff for s in [0.01, 0.99]
_K_CORNER = 10


def _corner_integrals(N, s):
    """Q(a, b), the integral of |z|^(-2-2s) over x > a, y > b, at a = p + 1/2
    along axis 0 and b = q + 1/2 along axis 1 for p, q = 1..N-1 (in cells).

    In polar form Q = [b^(-2s) G(t) + a^(-2s) G(pi/2 - t)] / (2s), where
    t = atan(b/a) and G(phi), the integral of sin^(2s) over [0, phi], is
    phi^(2s+1) times the integral over [0, 1] of u^(2s) (sin(phi u) / (phi u))^(2s);
    Gauss-Jacobi with the weight u^(2s) takes the analytic second factor.
    G(pi/2 - t(a, b)) = G(t(b, a)) is the transposed table of G(t).
    """
    x, w = _gauss_jacobi(_K_CORNER, 0.0, 2.0 * s)
    u = 0.5 * (x + 1.0)
    w = w * 0.5 ** (2.0 * s + 1.0)
    d = np.arange(1, N) + 0.5
    phi = np.arctan2(d, d[:, None])
    g = np.zeros_like(phi)
    for uk, wk in zip(u, w):
        arg = phi * uk
        g += wk * (np.sin(arg) / arg) ** (2.0 * s)
    g *= phi ** (2.0 * s + 1.0)
    p = d ** (-2.0 * s)
    return (p * g + p[:, None] * g.T) / (2.0 * s)


def _tail_2d(grid, s):
    """h^2 times the integral of |x - z|^(-2-2s) over the z outside the box's
    cells, at every interior node x (2d).

    The exterior is four half-planes beyond the walls, each integral in closed
    form, less the four corner quadrants, each of which two half-planes cover.
    An interior node's distance to a wall is (i + 1/2) h at node index i from
    that wall, and its corner integrals depend only on those distances, so one
    table of them (``_corner_integrals``) flipped along each axis holds all
    four corners.
    """
    N = grid.cells_per_axis
    d = np.arange(1, N) + 0.5
    # a half-plane at distance d gives B(s+1/2, 1/2) d^-2s / (2s); two walls per axis
    c = math.sqrt(math.pi) * math.gamma(s + 0.5) / (math.gamma(s + 1.0) * 2.0 * s)
    half = c * (d ** (-2.0 * s) + d[::-1] ** (-2.0 * s))
    corners = _corner_integrals(N, s)
    corners = corners + corners[::-1]
    corners = corners + corners[:, ::-1]
    tail = np.zeros(grid.node_shape)
    tail[1:-1, 1:-1] = grid.h ** (2.0 - 2.0 * s) * (half[:, None] + half - corners)
    return tail.ravel()


# ---------------------------------------------------------------------------
# kernel table

# entries per row block of a gathered matrix, so that the gathered values of
# `block` and `packed` and the temporaries of `KernelTable.check` stay
# at 512 KiB
_BLOCK = 2**16


def _row_blocks(dim, width=None):
    """Slices of consecutive rows of a dim x width matrix (width = dim by
    default), each block holding at most _BLOCK entries (at least one row)."""
    rows = max(1, _BLOCK // max(dim if width is None else width, 1))
    return [slice(r0, min(r0 + rows, dim)) for r0 in range(0, dim, rows)]


def _valid_convolution(w, field):
    """out[p] = sum_q w[p - q + centre] field[q] for an offset array w of
    shape (2 b_a - 1) along axis a, centre its middle, and a field of shape
    (b_a): the valid part of their convolution, by FFT. A circular
    convolution of length L >= 2 b_a - 1 wraps nothing into the valid part; a
    5-smooth L avoids the slower, less exact prime lengths."""
    size = []
    for L in w.shape:
        while L // math.gcd(L, 60**40) > 1:
            L += 1
        size.append(L)
    axes = tuple(range(w.ndim))
    spec = np.fft.rfftn(w, size, axes)
    spec *= np.fft.rfftn(field, size, axes)
    return np.fft.irfftn(spec, size, axes)[tuple(slice(b // 2, b) for b in w.shape)]


class KernelTable:
    """Stiffness entries of one grid and fractional order, indexed by offset.

    The pair weight between two nodes depends only on their signed offset k
    in cells: the midpoint rule h^(2n) / |h k|^(n+2s), the near-field weights
    at the offsets of touching cells, and zero at k = 0. ``entries`` holds
    the stiffness entry of that weight, -c_ns times it, for every offset in
    the box, shape (2M-1)^n with M nodes per axis and k = 0 at flat position
    ``centre``; ``key[p]`` is node p's index tuple raveled in that shape, so
    distinct nodes p and q have the entry ``entries.flat[key[p] - key[q] +
    centre]``. The stiffness matrix of any admissible mask is one such gather
    (zero extension makes the form of a subdomain the principal submatrix of
    the box's), plus the diagonal: c_ns times the sum of ``row_sums`` (each
    node's weight sum over the whole box, the valid part of the convolution
    of the weights with the box indicator) and the exterior tail. The same
    convolution of ``entries`` with a zero-extended vector is K times it.
    ``grid`` is the grid the table was built on; the mass matrix of every
    mask on it is the constant diagonal grid.h^grid.n.
    """

    def __init__(self, grid, s):
        self.grid = grid
        self.s = float(s)
        self.c_ns = normalization_constant(grid.n, s)
        n, h = grid.n, grid.h
        M = grid.cells_per_axis + 1
        ksq = functools.reduce(np.add.outer, [np.arange(1 - M, M) ** 2] * n)
        self.entries = w = np.zeros(ksq.shape)
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
        self.row_sums = _valid_convolution(w, np.ones(grid.node_shape)).ravel()
        # the weights become stiffness entries; w * (-c) == -(w * c) bit for bit
        w *= -self.c_ns

    def diagonal(self, flat_indices):
        """The diagonal stiffness entries of the given nodes."""
        return (self.row_sums[flat_indices] + self.tail[flat_indices]) * self.c_ns

    def block(self, rows, cols):
        """The off-diagonal stiffness entries between nodes `rows` and `cols`
        (where a row and a column node coincide it holds -0.0, not K's
        diagonal entry), the only full-size array made: each block of rows
        (``_row_blocks``) first holds its key differences as int64, then the
        entries they select. An index array of its own per block would be
        mapped and page-faulted anew (12 k faults for the 80^2 disk)."""
        low, keys = self.key[rows] + self.centre, self.key[cols]
        B = np.empty((low.size, keys.size))
        for r in _row_blocks(low.size, keys.size):
            diff = B[r].view(np.int64)
            np.subtract.outer(low[r], keys, out=diff)
            B[r] = self.entries.take(diff)
        return B

    def stiffness(self, flat_indices):
        """Dense stiffness matrix over the given (mask) nodes: their ``block``
        with the diagonal filled in."""
        K = self.block(flat_indices, flat_indices)
        np.fill_diagonal(K, self.diagonal(flat_indices))
        return K

    def packed(self, flat_indices):
        """The lower triangle of ``stiffness(flat_indices)`` in rectangular full
        packed storage (LAPACK RFP, TRANSR='N', UPLO='L'), d(d+1)/2 entries.

        RFP is a Fortran W x k array, k = ceil(d/2), W = d + 1 - (d mod 2);
        as the C-order (k, W) array A returned flat, row c of A is K's lower
        triangle in row r = k + c - (d mod 2) from column k to r, then in
        column c from row c to d - 1. Rows of A are gathered a block at a
        time into A itself, through int64 key differences, as in `block`.
        """
        idx = np.asarray(flat_indices, dtype=int)
        keys = self.key[idx]
        d = idx.size
        odd = d % 2
        k, W = (d + 1) // 2, d + 1 - odd
        A = np.empty((k, W))
        # the row node of A's entry (c, t) in the column-c part, t >= c + 1 -
        # odd, is t - 1 + odd; t = 0 at even d lies in the row part
        low = keys[np.arange(odd - 1, d)] + self.centre
        t = np.arange(k - odd)
        for rows in _row_blocks(k, W):
            c = np.arange(rows.start, rows.stop)
            diff = A[rows].view(np.int64)
            np.add.outer(-keys[c], low, out=diff)
            np.copyto(diff[:, : t.size],
                      np.subtract.outer(keys[k + c - odd] + self.centre, keys[k:k + t.size]),
                      where=t < (c + 1 - odd)[:, None])
            A[rows] = self.entries.take(diff)
        c = np.arange(k)
        diag = self.diagonal(idx)
        A[c, c + 1 - odd] = diag[:k]
        A[c[odd:], c[odd:] - odd] = diag[k:]
        return A.ravel()

    def product(self, flat_indices, x):
        """K x for the stiffness matrix K over the given nodes, without K: the
        diagonal term plus the valid convolution (``_valid_convolution``) of
        the entries at the offsets within the nodes' bounding box with x
        zero-extended to that box."""
        idx = np.asarray(flat_indices, dtype=int)
        x = np.asarray(x, dtype=float)
        c = (self.entries.shape[0] - 1) // 2
        at = tuple(a - a.min() for a in np.unravel_index(idx, (c + 1,) * self.entries.ndim))
        field = np.zeros(tuple(a.max() + 1 for a in at))
        field[at] = x
        w = self.entries[tuple(slice(c + 1 - b, c + b) for b in field.shape)]
        return _valid_convolution(w, field)[at] + self.diagonal(idx) * x

    def check(self, flat_indices):
        """Exact symmetry, nonpositive off-diagonal and nonnegative diagonal
        entries of the stiffness matrix over the given nodes, checked on
        gathered blocks of rows (no d x d array)."""
        idx = np.asarray(flat_indices, dtype=int)
        blocks = _row_blocks(idx.size)
        if not all(np.array_equal(self.block(idx[b], idx), self.block(idx, idx[b]).T)
                   for b in blocks):
            raise AssertionError("stiffness matrix is not exactly symmetric")
        if any(_positive_off_diagonal(self.block(idx[b], idx), b) for b in blocks):
            raise AssertionError("positive off-diagonal entry in stiffness matrix")
        if np.any(self.diagonal(idx) < 0):
            raise AssertionError("negative diagonal entry in stiffness matrix")
        return True


def _positive_off_diagonal(rows_of_k, rows):
    """Whether the block `rows` of K's rows has a positive entry off K's diagonal."""
    positive = rows_of_k > 0
    np.fill_diagonal(positive[:, rows], False)
    return positive.any()
