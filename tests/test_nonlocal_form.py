import copy
import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import lapack

from fraclab.checks import bump
from fraclab.constants import normalization_constant
from fraclab.grids import BoxGrid, ball_domain, interval_domain, mask_from_indices
from fraclab.nonlocal_form import (
    _corner_integrals,
    _near_moments_2d,
    _near_weight_1d,
    _near_weights_2d,
    _row_blocks,
    _tail_1d,
    _tail_2d,
    _BLOCK,
    KernelTable,
)

# Fractional seminorms of two reference traces supported on (-1,1), computed
# independently on the Fourier side, (1/2pi) int |xi|^(2s) |u^(xi)|^2 dxi,
# with mpmath (30 digits, oscillatory tail summed by quadosc).  The hat value
# at s=1/2 has the closed form 4*ln(2)/pi.
HAT_SEMINORM = {0.3: 0.729341410590285, 0.5: 0.882542400610606, 0.7: 1.152627356927450}
BUMP_SEMINORM = {0.3: 0.14692186344749, 0.5: 0.17930836271941, 0.7: 0.2365192080843}


def hat(x):
    return np.maximum(0.0, 1.0 - np.abs(x))


def quad_form(u_fn, s, cells, box=2.0):
    g = BoxGrid(1, -box, box, cells)
    u = u_fn(g.axis_nodes())
    ii = np.flatnonzero(g.interior().ravel())
    K = KernelTable(g, s).stiffness(ii)
    return float(u[ii] @ K @ u[ii])


def test_seminorm_matches_fourier_oracle():
    for s in (0.3, 0.5, 0.7):
        q = quad_form(hat, s, 512)
        assert q == pytest.approx(HAT_SEMINORM[s], rel=5e-3)
        q = quad_form(bump, s, 512)
        assert q == pytest.approx(BUMP_SEMINORM[s], rel=5e-3)


def test_seminorm_refinement_consistency():
    """Successive corrections shrink by >= 1.7x per halving at s <= 1/2.

    At s=0.7 the asymptotic order of the midpoint far-field rule drops below
    one, so there only plain decrease is asserted.
    """
    for u_fn, refs in ((hat, HAT_SEMINORM), (bump, BUMP_SEMINORM)):
        for s in (0.3, 0.5, 0.7):
            qs = [quad_form(u_fn, s, c) for c in (128, 256, 512)]
            d1 = abs(qs[1] - qs[0])
            d2 = abs(qs[2] - qs[1])
            assert d2 < d1
            if s <= 0.5:
                assert d1 / d2 >= 1.7, f"{u_fn.__name__} s={s}: ratio {d1/d2:.2f}"


def test_far_field_entries_are_literal_midpoint_weights():
    """Off-diagonal stiffness entries at distance > 2h equal the closed form."""
    for n, cells in ((1, 48), (2, 20)):
        g = BoxGrid(n, -1.0, 1.0, cells)
        s = 0.4
        c = normalization_constant(n, s)
        ii = np.flatnonzero(g.interior().ravel())
        K = KernelTable(g, s).stiffness(ii)
        coords = g.node_coords()[ii]
        rng = np.random.default_rng(1)
        for _ in range(40):
            i, j = rng.integers(0, len(ii), size=2)
            dist = np.linalg.norm(coords[i] - coords[j])
            if dist <= 2.5 * g.h:
                continue
            expected = -c * g.h ** (2 * n) * dist ** (-n - 2 * s)
            assert K[i, j] == pytest.approx(expected, rel=1e-10)


def test_stiffness_symmetry_and_positivity():
    g = BoxGrid(2, -1.0, 1.0, 24)
    dom = ball_domain(g, [0.0, 0.0], 0.6)
    K = KernelTable(g, 0.5).stiffness(dom.flat_indices)
    assert np.abs(K - K.T).max() < 1e-12 * np.abs(K).max()
    w = np.linalg.eigvalsh(K)
    assert w[0] > 0  # tail load makes the pinned form strictly positive


@pytest.mark.parametrize("n,cells", [(1, 30), (2, 10), (2, 40)])
def test_border_is_the_new_column_of_the_grown_stiffness(n, cells):
    g = BoxGrid(n, -1.0, 1.0, cells)
    table = KernelTable(g, 0.4)
    idx = ball_domain(g, np.zeros(n), 0.5).flat_indices
    outside = np.setdiff1d(np.flatnonzero(g.interior().ravel()), idx)
    B, alpha = table.block(idx, outside), table.diagonal(outside)
    if cells == 40:  # the grown matrices span two row blocks of the gather
        assert len(_row_blocks(idx.size + 1)) == 2
    for j, c in enumerate(outside):
        K = table.stiffness(np.append(idx, c))
        assert np.array_equal(K[:-1, -1], B[:, j]) and K[-1, -1] == alpha[j]


def test_quadratic_form_scaling_homogeneity():
    """u^T K u scales as t^(n-2s) under joint grid-domain dilation, exactly."""
    rng = np.random.default_rng(7)
    for n, cells in ((1, 32), (2, 12)):
        for s in (0.3, 0.6):
            g1 = BoxGrid(n, -1.0, 1.0, cells)
            g2 = BoxGrid(n, -2.0, 2.0, cells)
            ii = np.flatnonzero(g1.interior().ravel())
            u = rng.normal(size=ii.size)
            q1 = u @ KernelTable(g1, s).stiffness(ii) @ u
            q2 = u @ KernelTable(g2, s).stiffness(ii) @ u
            assert q2 == pytest.approx(2.0 ** (n - 2 * s) * q1, rel=1e-12)


def test_kernel_table_stiffness_of_an_interval():
    g = BoxGrid(1, -2.0, 2.0, 64)
    dom = interval_domain(g, -1.0, 1.0)
    table = KernelTable(g, 0.5)
    assert table.grid is g
    assert table.stiffness(dom.flat_indices).shape == (dom.cell_count,) * 2
    assert table.check(dom.flat_indices)


def test_monotonicity_under_domain_inclusion():
    """Removing cells (same grid) cannot decrease the ground energy of a fixed
    trace restricted to the smaller set: the form acts on fewer free nodes."""
    g = BoxGrid(1, -1.0, 1.0, 64)
    big = interval_domain(g, -0.8, 0.8)
    small = interval_domain(g, -0.5, 0.5)
    Kb = KernelTable(g, 0.5).stiffness(big.flat_indices)
    Ks = KernelTable(g, 0.5).stiffness(small.flat_indices)
    # embed a vector supported on the small set
    u_small = np.cos(np.pi * small.coords()[:, 0] / 1.0)
    pos = np.searchsorted(big.flat_indices, small.flat_indices)
    u_big = np.zeros(big.cell_count)
    u_big[pos] = u_small
    qb = float(u_big @ Kb @ u_big)
    qs = float(u_small @ Ks @ u_small)
    assert qs == pytest.approx(qb, rel=1e-12)


def test_kernel_table_is_freed_with_its_grid():
    """Building a table stores nothing on the grid, and the table holds no
    reference cycle, so it is freed with its last reference."""
    g = BoxGrid(1, -1.0, 1.0, 8)
    before = dict(vars(g))
    ref = weakref.ref(KernelTable(g, 0.5))
    gc.disable()
    try:
        assert ref() is None
    finally:
        gc.enable()
    assert vars(g) == before


def pairwise_weights(g, s):
    """Pair weights over all grid nodes, one row per node: the midpoint rule
    h^(2n) / |x_p - x_q|^(n+2s) from node coordinates, overwritten by the
    near-field weight where the cells touch, zero on the diagonal."""
    n, h = g.n, g.h
    coords = g.node_coords()
    ids = np.indices(g.node_shape).reshape(n, -1).T
    if n == 1:
        near = {1: _near_weight_1d(s, h)}
    else:
        beta_axis, beta_diag = _near_weights_2d(s, h)
        near = {1: beta_axis, 2: beta_diag}  # by squared offset
    W = np.zeros((g.num_nodes, g.num_nodes))
    for p in range(g.num_nodes):
        r2 = ((coords - coords[p]) ** 2).sum(axis=1)
        k = ids - ids[p]
        cells_apart = np.abs(k).max(axis=1)
        far = cells_apart > 1
        W[p, far] = h ** (2 * n) * r2[far] ** (-(n + 2 * s) / 2)
        for q in np.flatnonzero(cells_apart == 1):
            W[p, q] = near[int((k[q] ** 2).sum())]
    return W


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n,cells", [(1, 64), (1, 200), (2, 24), (2, 32), (2, 48)])
def test_offset_table_matches_pairwise_reference(n, cells, s):
    """Row sums agree to 1e-14 relative, K to 1e-14 of its largest entry
    (the reference's own distances carry up to 3e-14 relative rounding at 200
    cells), and K is exactly symmetric."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    table = KernelTable(g, s)
    W = pairwise_weights(g, s)
    row_sums = W.sum(axis=1)
    assert np.abs(table.row_sums - row_sums).max() <= 1e-14 * row_sums.min()
    ii = np.flatnonzero(g.interior().ravel())
    tail = (_tail_1d if n == 1 else _tail_2d)(g, s)
    ref = -W[np.ix_(ii, ii)]
    ref[np.diag_indices(ii.size)] = row_sums[ii] + tail[ii]
    ref *= normalization_constant(n, s)
    K = table.stiffness(ii)
    assert np.array_equal(K, K.T)
    assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max()


def test_offset_table_at_128_squared_stays_small():
    """A dense table over the 129^2 nodes would take 2.2 GB; the offset
    table's build, near-field moments included (nothing is cached), peaks
    below 16 MB, and its stiffness matrices pass check()."""
    g = BoxGrid(2, -1.0, 1.0, 128)
    tracemalloc.start()
    try:
        table = KernelTable(g, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    dom = ball_domain(g, [0.1, -0.2], 0.15)
    assert table.check(dom.flat_indices)


def offset_weights(g, s):
    """The pair weight of every lattice offset (not yet scaled to stiffness
    entries), each node's key into it and the key of offset zero, by the
    table's own formula."""
    n, h = g.n, g.h
    M = g.cells_per_axis + 1
    ksq = functools.reduce(np.add.outer, [np.arange(1 - M, M) ** 2] * n)
    w = np.zeros(ksq.shape)
    np.power(ksq, -(n + 2.0 * s) / 2.0, out=w, where=ksq > 0)
    w *= h ** (n - 2.0 * s)
    near = w[(slice(M - 2, M + 1),) * n]
    if n == 1:
        near[:] = _near_weight_1d(s, h)
    else:
        beta_axis, beta_diag = _near_weights_2d(s, h)
        near[:] = beta_diag
        near[1, :] = near[:, 1] = beta_axis
    near[(1,) * n] = 0.0
    key = np.ravel_multi_index(np.indices(g.node_shape).reshape(n, -1), w.shape)
    return w, key, int(np.ravel_multi_index((M - 1,) * n, w.shape))


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("n,cells", [(1, 1024), (2, 32)])
def test_blocked_gather_matches_the_one_shot_gather_byte_for_byte(n, cells, s):
    """The gather of the negated weights over all pairs at once, the diagonal
    written in, then scaled by c_ns: K, an off-diagonal block and the
    diagonal entries of its columns' nodes equal it byte for byte,
    on shuffled node subsets around the size where one row block stops
    holding all of K, and on the whole interior (several blocks)."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    table = KernelTable(g, s)
    w, key, centre = offset_weights(g, s)
    inner = np.random.default_rng(5).permutation(np.flatnonzero(g.interior().ravel()))
    one_block = int(np.sqrt(_BLOCK))
    assert len(_row_blocks(one_block)) == 1 and len(_row_blocks(one_block + 1)) == 2
    for d in (0, 1, one_block - 1, one_block, one_block + 1, inner.size):
        idx = inner[:d]
        ref = -w.take(np.subtract.outer(key[idx] + centre, key[idx]))
        ref[np.arange(d), np.arange(d)] = table.row_sums[idx] + table.tail[idx]
        ref *= table.c_ns
        assert table.stiffness(idx).tobytes() == ref.tobytes(), d
        B, alpha = table.block(idx[: d // 2], idx[d // 2:]), table.diagonal(idx[d // 2:])
        assert B.tobytes() == ref[: d // 2, d // 2:].tobytes(), d
        assert alpha.tobytes() == np.diagonal(ref)[d // 2:].tobytes(), d


@pytest.mark.parametrize("n,cells", [(1, 1024), (2, 32)])
def test_packed_is_the_rfp_form_of_the_stiffness_matrix_byte_for_byte(n, cells):
    """LAPACK's own conversion (dtrttf, TRANSR='N', UPLO='L') of the dense
    gather is the packed gather, at odd and even d and, on the whole
    interior, over several row blocks of the (k, W) array."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    table = KernelTable(g, 0.3)
    inner = np.random.default_rng(4).permutation(np.flatnonzero(g.interior().ravel()))
    assert len(_row_blocks((inner.size + 1) // 2, inner.size + 1)) > 1
    for d in (1, 2, 3, 4, 7, 40, 41, inner.size):
        ref, info = lapack.dtrttf(table.stiffness(inner[:d]), transr="N", uplo="L")
        assert info == 0
        assert table.packed(inner[:d]).tobytes() == ref.tobytes(), d


@pytest.mark.parametrize("case", ["interval-0.2", "interval-0.8", "disk-0.5"])
def test_fft_product_matches_the_dense_product(case):
    """K x by FFT on the nodes' bounding box against the gathered K, within
    1e-13 of the largest |K| |x|: on the 2048-cell interval, where s = 0.8
    makes K's diagonal dominate, and on an off-centre 48^2 disk."""
    kind, s = case.split("-")
    if kind == "interval":
        dom = interval_domain(BoxGrid(1, -2.0, 2.0, 2048), -1.0, 1.0)
    else:
        dom = ball_domain(BoxGrid(2, -1.0, 1.0, 48), [0.13, -0.07], 0.6)
    table = KernelTable(dom.grid, float(s))
    K = table.stiffness(dom.flat_indices)
    rng = np.random.default_rng(6)
    d = dom.cell_count
    X = np.column_stack([rng.standard_normal(d), np.ones(d), np.cos(np.arange(d))])
    got = np.column_stack([table.product(dom.flat_indices, x) for x in X.T])
    assert np.abs(got - K @ X).max() <= 1e-13 * (np.abs(K) @ np.abs(X)).max()


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stiffness_allocates_one_matrix_and_check_none():
    """On the 80^2 disk of the `spectrum` benchmark the gather allocates K and
    one row block's values; check() holds one row block's comparisons
    (whole-matrix ways take 2 x 25 MB in either)."""
    g = BoxGrid(2, -1.0, 1.0, 80)
    idx = ball_domain(g, [0.0, 0.0], 0.6).flat_indices
    table = KernelTable(g, 0.5)
    K, peak = traced_peak(table.stiffness, idx)
    assert K.shape == (idx.size, idx.size) and len(_row_blocks(idx.size)) > 1
    assert peak <= K.nbytes + 2 * 2**20
    ok, peak = traced_peak(table.check, idx)
    assert ok and peak <= 2 * 2**20


def late_pair_nodes():
    """A kernel table and a node set whose last row block holds a node pair
    (i, j) = (d - 2, d - 1) at an offset no other pair of its nodes has: a
    disk, then two nodes on one grid row above it, farther apart than the
    disk is wide."""
    g = BoxGrid(2, -1.0, 1.0, 32)
    disk = ball_domain(g, [0.0, 0.0], 0.8).flat_indices
    pair = np.ravel_multi_index(([30, 30], [1, 31]), g.node_shape)
    idx = mask_from_indices(g, np.append(disk, pair)).flat_indices
    return KernelTable(g, 0.5), idx, idx.size - 2, idx.size - 1


@pytest.mark.parametrize("defect,message", [
    ("asymmetric", "not exactly symmetric"),
    ("positive off-diagonal", "positive off-diagonal"),
    ("negative diagonal", "negative diagonal"),
], ids=["asymmetric", "positive-off-diagonal", "negative-diagonal"])
def test_check_finds_a_defect_in_a_late_row_block(defect, message):
    """Each defect is put into a copy of the kernel table, where it reaches
    K only inside the last row block."""
    good, idx, i, j = late_pair_nodes()
    blocks = _row_blocks(idx.size)
    assert len(blocks) >= 3 and good.check(idx) and i >= blocks[-1].start
    table = copy.copy(good)
    table.entries, table.tail = table.entries.copy(), table.tail.copy()
    key, p = table.key[idx], idx[i]
    at = table.centre + key[i] - key[j]
    if defect == "asymmetric":
        table.entries.flat[at] = np.nextafter(table.entries.flat[at], 0.0)
    elif defect == "positive off-diagonal":
        table.entries.flat[[at, 2 * table.centre - at]] = 1e-300
    else:
        table.tail[p] -= 2.0 * (table.row_sums[p] + table.tail[p])
    K = table.stiffness(idx)
    changed = np.argwhere(K != good.stiffness(idx))
    assert changed.size and changed.min() >= blocks[-1].start
    with pytest.raises(AssertionError, match=message):
        table.check(idx)
    assert table.stiffness(idx).tobytes() == K.tobytes()


def test_check_accepts_an_empty_form():
    """The 0 x 0 stiffness matrix of an empty node set breaks no symmetry,
    sign or diagonal rule."""
    g = BoxGrid(2, -1.0, 1.0, 8)
    empty = mask_from_indices(g, [])
    assert empty.cell_count == 0 and KernelTable(g, 0.5).check(empty.flat_indices)


# The four near-field moments of _near_moments_2d, by region and integrand:
# (factor, component, pieces), a piece (a1, b1, a2, b2, f(w1), g(w2)) standing
# for int_{[a1,b1]x[a2,b2]} w_c^2 |w|^(-2-2s) f(w1) g(w2) dw.
_RISE, _FALL, _DOWN = (lambda w: w), (lambda w: 2 - w), (lambda w: 1 - w)
_TENT_PIECES = ((0, 1, _RISE), (1, 2, _FALL))
MOMENT_REGIONS = (
    (4, 0, [(0, 1, 0, 1, _DOWN, _DOWN)]),
    (2, 0, [(lo, hi, 0, 1, t, _DOWN) for lo, hi, t in _TENT_PIECES]),
    (2, 1, [(lo, hi, 0, 1, t, _DOWN) for lo, hi, t in _TENT_PIECES]),
    (1, 0, [(l1, h1, l2, h2, t1, t2) for l1, h1, t1 in _TENT_PIECES
            for l2, h2, t2 in _TENT_PIECES]),
)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_near_field_moments_match_dblquad(s):
    """Cartesian adaptive quadrature, split at the tent kinks. The kernel is
    singular at the corner w = 0 of the pieces on [0, 1]^2; there a Duffy
    substitution (w2 = w1 v below the diagonal, w1 = w2 v above it) leaves a
    power of the outer variable, which dblquad integrates without warning."""
    from scipy import integrate

    p = 1.0 + s

    def kernel(comp, f, g, w1, w2):
        return (w1, w2)[comp] ** 2 * (w1 * w1 + w2 * w2) ** -p * f(w1) * g(w2)

    def piece(comp, a1, b1, a2, b2, f, g):
        if (a1, b1, a2, b2) == (0, 1, 0, 1):
            return sum(integrate.dblquad(fn, 0, 1, 0, 1, epsabs=1e-13, epsrel=1e-12)[0] for fn in (
                lambda v, u: u * kernel(comp, f, g, u, u * v),
                lambda v, u: u * kernel(comp, f, g, u * v, u)))
        return integrate.dblquad(lambda w2, w1: kernel(comp, f, g, w1, w2),
                                 a1, b1, a2, b2, epsabs=1e-12, epsrel=1e-10)[0]

    for got, (factor, comp, pieces) in zip(_near_moments_2d(s), MOMENT_REGIONS):
        want = factor * sum(piece(comp, *pc) for pc in pieces)
        assert abs(got - want) <= 1e-12 * abs(want), (comp, pieces[0][:4])


def test_near_field_moments_match_mpmath_at_s_095():
    """Where dblquad gives up: the w2 integral in closed form (2F1), the w1
    integral by tanh-sinh quadrature after w1 = t^10 at the singular corner."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    s = 0.95
    p = 1 + mp.mpf(s)

    def inner(j, w1, a2, b2):
        # int_{a2}^{b2} w2^j (w1^2 + w2^2)^(-p) dw2
        def prim(B):
            B = mp.mpf(B)
            return B ** (j + 1) / (j + 1) * w1 ** (-2 * p) * mp.hyp2f1(
                p, mp.mpf(j + 1) / 2, mp.mpf(j + 3) / 2, -((B / w1) ** 2))
        return prim(b2) - prim(a2)

    def piece(comp, a1, b1, a2, b2, f, g):
        # g is affine, g(w2) = g(0) + (g(1) - g(0)) w2
        g0, g1 = g(0), g(1) - g(0)
        j = 2 * comp

        def integrand(w1):
            lead = w1 ** 2 if comp == 0 else 1
            return lead * f(w1) * (g0 * inner(j, w1, a2, b2) + g1 * inner(j + 1, w1, a2, b2))

        if a1 == 0:
            return mp.quad(lambda t: integrand(t ** 10) * 10 * t ** 9, [0, 1])
        return mp.quad(integrand, [a1, b1])

    for got, (factor, comp, pieces) in zip(_near_moments_2d(s), MOMENT_REGIONS):
        want = factor * sum(piece(comp, *pc) for pc in pieces)
        assert abs(got - float(want)) <= 1e-12 * abs(float(want)), (comp, pieces[0][:4])


# -- exterior tail: corner integrals and the torsion oracle ----------------------


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_interval_tail_matches_mpmath(s):
    """The 1D tail at every node of the 2048-cell box of `fraclab eig`'s
    interval benchmark against its integrals in 30 digits: h^e ((j+1)^e -
    j^e) / e, e = 1 - 2s (log((j+1)/j) at e = 0), from both end nodes, over
    2s. Powers subtracted in doubles were up to 2e-13 off far from the walls."""
    mp = pytest.importorskip("mpmath")
    g = BoxGrid(1, -2.0, 2.0, 2048)
    N = g.cells_per_axis
    with mp.workdps(30):
        e, h = 1 - 2 * mp.mpf(s), mp.mpf(g.h)

        def cell(j):
            return mp.log(mp.mpf(j + 1) / j) if e == 0 else ((j + 1) ** e - mp.mpf(j) ** e) / e

        want = np.array([float(h**e * (cell(i) + cell(N - i)) / (2 * mp.mpf(s)))
                         for i in range(1, N)])
    got = _tail_1d(g, s)
    assert got[0] == got[N] == 0.0
    assert np.max(np.abs(got[1:N] / want - 1.0)) <= 1e-15


@pytest.mark.parametrize("s", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_corner_integrals_match_the_incomplete_beta_form(s):
    """Q(a, b) = B(s+1/2, 1/2) [I_{sin^2 t}(s+1/2, 1/2) b^(-2s)
    + I_{cos^2 t}(s+1/2, 1/2) a^(-2s)] / (4s), t = atan(b/a), the polar form
    of the integral of |z|^(-2-2s) over x > a, y > b."""
    special = pytest.importorskip("scipy.special")
    for N in (8, 80):
        d = np.arange(1, N) + 0.5
        a, b = d[:, None], d[None, :]
        t = np.arctan2(b, a)
        want = 0.5 * special.beta(s + 0.5, 0.5) * (
            special.betainc(s + 0.5, 0.5, np.sin(t) ** 2) * b ** (-2 * s)
            + special.betainc(s + 0.5, 0.5, np.cos(t) ** 2) * a ** (-2 * s)) / (2 * s)
        got = _corner_integrals(N, s)
        assert got.shape == (N - 1, N - 1)
        assert np.abs(got / want - 1.0).max() <= 1e-13


def torsion_error(dom, centre, R, s):
    """RMS relative error of the solution of K u = h^n 1 against the torsion
    function (R^2 - |x - c|^2)^s / kappa of the ball B_R(c), over the nodes
    with |x - c| <= R/2, where kappa = 4^s Gamma(1+s) Gamma(n/2+s) / Gamma(n/2)
    (Getoor 1961; Dyda 2012, Fract. Calc. Appl. Anal. 15)."""
    n = dom.grid.n
    K = KernelTable(dom.grid, s).stiffness(dom.flat_indices)
    u = np.linalg.solve(K, np.full(dom.cell_count, dom.grid.h**n))
    r2 = ((dom.coords() - centre) ** 2).sum(axis=1)
    near = r2 <= (R / 2) ** 2
    kappa = 4**s * math.gamma(1 + s) * math.gamma(n / 2 + s) / math.gamma(n / 2)
    exact = (R * R - r2[near]) ** s / kappa
    return np.sqrt(np.mean((u[near] / exact - 1.0) ** 2))


# the ball's centre off the lattice, in cells: nodes exactly on the circle
# make the pixel ball's measure jump between refinements
SHIFTS = ((0.37, 0.21), (0.11, 0.45), (0.5, 0.5))


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_torsion_error_halves_under_refinement_in_2d(s):
    """Torsion on the disk R = 0.6 in [-1, 1]^2: the error, averaged over
    three off-lattice centres, falls about 2x from 20^2 to 40^2 (0.42 -> 0.21,
    3.3 -> 1.7 and 9.3 -> 4.9 % at s = 0.2, 0.5, 0.8). A tail that counts
    the exterior corner quadrants twice stalls at 31 % at s = 0.2."""
    errs = []
    for cells in (20, 40):
        g = BoxGrid(2, -1.0, 1.0, cells)
        errs.append(np.mean([torsion_error(ball_domain(g, np.multiply(c, g.h), 0.6),
                                           np.multiply(c, g.h), 0.6, s) for c in SHIFTS]))
    assert errs[0] >= 1.7 * errs[1], errs
    assert errs[1] <= {0.2: 0.003, 0.5: 0.02, 0.8: 0.06}[s], errs


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_torsion_error_falls_under_refinement_in_1d(s):
    """The same oracle on the interval of half-width 0.6 in [-1, 1]: over two
    halvings, 64 -> 256 cells, the error falls 3.2x, 2.5x and 3.1x at
    s = 0.2, 0.5, 0.8 (single halvings are uneven)."""
    errs = []
    for cells in (64, 256):
        g = BoxGrid(1, -1.0, 1.0, cells)
        errs.append(np.mean([torsion_error(interval_domain(g, c * g.h - 0.6, c * g.h + 0.6),
                                           c * g.h, 0.6, s) for c, _ in SHIFTS]))
    assert errs[0] >= 2.0 * errs[1], errs
