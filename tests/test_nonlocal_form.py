import dataclasses
import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from fraclab.checks import bump
from fraclab.constants import FracParams, normalization_constant
from fraclab.grids import BoxGrid, ball_domain, interval_domain, mask_from_indices
from fraclab.nonlocal_form import (
    _near_moments_2d,
    _near_weight_1d,
    _near_weights_2d,
    _row_blocks,
    _tail_1d,
    _tail_2d,
    _BLOCK,
    KernelTable,
    StiffnessForm,
    assemble_form,
    kernel_table,
    seminorm,
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
    K = kernel_table(g, s).stiffness(ii)
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
        K = kernel_table(g, s).stiffness(ii)
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
    K = kernel_table(g, 0.5).stiffness(dom.flat_indices)
    assert np.abs(K - K.T).max() < 1e-12 * np.abs(K).max()
    w = np.linalg.eigvalsh(K)
    assert w[0] > 0  # tail load makes the pinned form strictly positive


@pytest.mark.parametrize("n,cells", [(1, 30), (2, 10), (2, 40)])
def test_border_is_the_new_column_of_the_grown_stiffness(n, cells):
    g = BoxGrid(n, -1.0, 1.0, cells)
    table = kernel_table(g, 0.4)
    idx = ball_domain(g, np.zeros(n), 0.5).flat_indices
    outside = np.setdiff1d(np.flatnonzero(g.interior().ravel()), idx)
    B, alpha = table.border(idx, outside)
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
            q1 = u @ kernel_table(g1, s).stiffness(ii) @ u
            q2 = u @ kernel_table(g2, s).stiffness(ii) @ u
            assert q2 == pytest.approx(2.0 ** (n - 2 * s) * q1, rel=1e-12)


def test_assemble_form_consistency():
    g = BoxGrid(1, -2.0, 2.0, 64)
    dom = interval_domain(g, -1.0, 1.0)
    p = FracParams(1, 0.5, 1.0)
    form = assemble_form(dom, p)
    assert form.dim == dom.cell_count
    assert form.mass == pytest.approx(g.h)
    form.check()


def test_seminorm_helper_matches_quadratic_form():
    g = BoxGrid(1, -2.0, 2.0, 64)
    dom = interval_domain(g, -1.0, 1.0)
    p = FracParams(1, 0.5, 1.0)
    form = assemble_form(dom, p)
    rng = np.random.default_rng(0)
    u = rng.normal(size=form.dim)
    assert seminorm(form, u) == pytest.approx(float(u @ form.K @ u), rel=1e-14)
    with pytest.raises(ValueError):
        seminorm(form, u[:-1])


def test_monotonicity_under_domain_inclusion():
    """Removing cells (same grid) cannot decrease the ground energy of a fixed
    trace restricted to the smaller set: the form acts on fewer free nodes."""
    g = BoxGrid(1, -1.0, 1.0, 64)
    big = interval_domain(g, -0.8, 0.8)
    small = interval_domain(g, -0.5, 0.5)
    Kb = kernel_table(g, 0.5).stiffness(big.flat_indices)
    Ks = kernel_table(g, 0.5).stiffness(small.flat_indices)
    # embed a vector supported on the small set
    u_small = np.cos(np.pi * small.coords()[:, 0] / 1.0)
    pos = np.searchsorted(big.flat_indices, small.flat_indices)
    u_big = np.zeros(big.cell_count)
    u_big[pos] = u_small
    qb = float(u_big @ Kb @ u_big)
    qs = float(u_small @ Ks @ u_small)
    assert qs == pytest.approx(qb, rel=1e-12)


def test_empty_domain_rejected_by_assembly():
    g = BoxGrid(1, -1.0, 1.0, 16)
    empty = mask_from_indices(g, [])
    assert empty.cell_count == 0 and empty.measure == 0.0
    with pytest.raises(ValueError):
        assemble_form(empty, FracParams(1, 0.5, 1.0))


def test_kernel_table_is_freed_with_its_grid():
    """Building a table stores nothing on the grid, and the table holds no
    reference cycle, so it is freed with its last reference."""
    g = BoxGrid(1, -1.0, 1.0, 8)
    before = dict(vars(g))
    ref = weakref.ref(kernel_table(g, 0.5))
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
    table = kernel_table(g, s)
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
    form = assemble_form(dom, FracParams(2, 0.5, 1.0))
    assert np.array_equal(form.K, table.stiffness(dom.flat_indices))
    assert form.check()


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
    written in, then scaled by c_ns: K and the border equal it byte for byte,
    on shuffled node subsets around the size where one row block stops
    holding all of K, and on the whole interior (several blocks)."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    table = kernel_table(g, s)
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
        B, alpha = table.border(idx[: d // 2], idx[d // 2:])
        assert B.tobytes() == ref[: d // 2, d // 2:].tobytes(), d
        assert alpha.tobytes() == np.diagonal(ref)[d // 2:].tobytes(), d


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
    form = assemble_form(ball_domain(g, [0.0, 0.0], 0.6), FracParams(2, 0.5, 1.0))
    table = kernel_table(g, 0.5)
    K, peak = traced_peak(table.stiffness, form.domain.flat_indices)
    assert K.shape == (form.dim, form.dim) and len(_row_blocks(form.dim)) > 1
    assert peak <= K.nbytes + 2 * 2**20
    ok, peak = traced_peak(form.check)
    assert ok and peak <= 2 * 2**20


@pytest.mark.parametrize("defect,message", [
    ("asymmetric", "not exactly symmetric"),
    ("positive off-diagonal", "positive off-diagonal"),
    ("negative diagonal", "negative diagonal"),
], ids=["asymmetric", "positive-off-diagonal", "negative-diagonal"])
def test_check_finds_a_defect_in_a_late_row_block(defect, message):
    g = BoxGrid(2, -1.0, 1.0, 32)
    form = assemble_form(ball_domain(g, [0.0, 0.0], 0.8), FracParams(2, 0.5, 1.0))
    blocks = _row_blocks(form.dim)
    assert len(blocks) >= 3 and form.check()
    i, j = blocks[-1].start + 1, blocks[-1].start + 2
    K = form.K.copy()
    if defect == "asymmetric":
        K[i, j] = np.nextafter(K[i, j], 0.0)
    elif defect == "positive off-diagonal":
        K[i, j] = K[j, i] = 1e-300
    else:
        K[i, i] = -K[i, i]
    with pytest.raises(AssertionError, match=message):
        dataclasses.replace(form, K=K).check()


def test_check_accepts_an_empty_form():
    """A 0 x 0 form breaks no symmetry, sign or diagonal rule."""
    g = BoxGrid(2, -1.0, 1.0, 8)
    form = StiffnessForm(np.empty((0, 0)), g.h, 2, mask_from_indices(g, []))
    assert form.dim == 0 and form.check()


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
    """Cartesian adaptive quadrature, split at the tent kinks."""
    from scipy import integrate

    p = 1.0 + s
    for got, (factor, comp, pieces) in zip(_near_moments_2d(s), MOMENT_REGIONS):
        want = factor * sum(
            integrate.dblquad(
                lambda w2, w1: (w1, w2)[comp] ** 2 * (w1 * w1 + w2 * w2) ** -p * f(w1) * g(w2),
                a1, b1, a2, b2, epsabs=1e-12, epsrel=1e-10,
            )[0]
            for a1, b1, a2, b2, f, g in pieces
        )
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
