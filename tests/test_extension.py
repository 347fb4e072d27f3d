import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sla

from fraclab.checks import bump, energy_mismatch
from fraclab.constants import FracParams, one_plane_solution
from fraclab.eigen import lowest_eigenpairs
from fraclab import extension
from fraclab.extension import (
    ExtensionField,
    SlabGrid,
    _apply_laplacian,
    _ball_energies,
    _check_residual,
    _conductances,
    _dst1,
    _interp,
    _apply,
    _cell_stencil,
    _in_footprint,
    _modal_profiles,
    extend,
    extension_energy,
    neumann_trace,
)
from fraclab.grids import BoxGrid, _in_ball, interval_domain
from fraclab.nonlocal_form import KernelTable

from references import windowed_ball_energies


def _multilinear_at(grid, pts, *tail):
    """Multilinear interpolation at thin-space points, as a function of the node
    field: their cell stencil about node 0 for the field's shape."""
    x = _in_footprint((np.atleast_2d(pts) - grid.lower) / grid.h, grid.cells_per_axis)
    return lambda field: _apply(field, *_cell_stencil(x, grid.cells_per_axis, field.shape,
                                                      *tail)[:3])


def bump_trace(grid, seed=None):
    x = grid.axis_nodes()
    if seed is None:
        return bump(x)
    c = np.random.default_rng(seed).normal(size=3)
    return bump(x) * (c[0] + c[1] * x + 0.5 * c[2] * np.sin(3.0 * x))


def exact_profile_field(grid, J, Y, s, scale=1.0):
    slab = SlabGrid(grid, J, a=1.0 - 2.0 * s, Y=Y)
    X, Yv = np.meshgrid(grid.axis_nodes(), slab.y_nodes, indexing="ij")
    U = scale * one_plane_solution(X, Yv, s)
    return ExtensionField(slab, U.reshape(slab.values_shape()))


# -- slab geometry -----------------------------------------------------------


def test_slab_grid_layout():
    g = BoxGrid(1, -2.0, 2.0, 32)
    slab = SlabGrid(g, 16, a=0.0)
    y = slab.y_nodes
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(slab.Y)
    assert slab.Y == pytest.approx(8.0)  # default: twice the base diameter
    assert np.all(np.diff(y) > 0)
    # graded: spacing grows monotonically away from the trace plane
    assert np.all(np.diff(np.diff(y)) >= -1e-12)


def test_slab_grading_exponent_tracks_weight():
    g = BoxGrid(1, -1.0, 1.0, 16)
    s = 0.3  # a = 0.4, default gamma = 2/(1-a)
    slab = SlabGrid(g, 16, a=1.0 - 2.0 * s)
    assert slab.gamma == pytest.approx(2.0 / (1.0 - slab.a))
    slab2 = SlabGrid(g, 16, a=1.0 - 2.0 * s, gamma=1.0)
    np.testing.assert_allclose(np.diff(slab2.y_nodes), slab2.y_nodes[1], rtol=1e-12)


def test_slab_grid_validation():
    g = BoxGrid(1, -1.0, 1.0, 16)
    with pytest.raises(ValueError):
        SlabGrid(g, 3, a=0.0)
    with pytest.raises(ValueError):
        SlabGrid(g, 16, a=0.0, Y=1.0)  # shallower than the base diameter
    with pytest.raises(ValueError):
        SlabGrid(g, 16, a=0.0, gamma=0.5)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SlabGrid(g, 16, a=0.0, Y=bad)
        with pytest.raises(ValueError, match="finite"):
            SlabGrid(g, 16, a=0.0, gamma=bad)


# -- extension solve ---------------------------------------------------------


def test_zero_trace_extends_to_zero():
    g = BoxGrid(1, -1.0, 1.0, 16)
    slab = SlabGrid(g, 8, a=0.0)
    (f,) = extend([np.zeros(g.node_shape)], slab)
    assert np.all(f.values == 0.0)
    assert extension_energy(f) == 0.0


def test_extend_rejects_boundary_supported_trace():
    g = BoxGrid(1, -1.0, 1.0, 16)
    slab = SlabGrid(g, 8, a=0.0)
    tr = np.zeros(g.node_shape)
    tr[0] = 1.0
    with pytest.raises(ValueError):
        extend([tr], slab)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_extend_rejects_non_finite_trace(value):
    g = BoxGrid(1, -1.0, 1.0, 16)
    tr = bump_trace(g)
    tr[8] = value
    with pytest.raises(ValueError, match="non-finite"):
        extend([tr], SlabGrid(g, 8, a=0.0))


def test_extend_residual_check_rejects_a_non_finite_solve(monkeypatch):
    g = BoxGrid(1, -2.0, 2.0, 32)
    slab = SlabGrid(g, 8, a=0.0)

    monkeypatch.setattr(extension, "_modal_profiles", lambda slab: np.nan * _modal_profiles(slab))
    with pytest.raises(RuntimeError, match="not finite"):
        extend([bump_trace(g)], slab)


def test_energy_identity_against_seminorm():
    """d_s * (slab energy) approximates the fractional seminorm of the trace."""
    for s, tol in ((0.3, 0.06), (0.5, 0.05), (0.7, 0.06)):
        g = BoxGrid(1, -2.0, 2.0, 256)
        (rel,) = energy_mismatch([bump_trace(g)], SlabGrid(g, 32, a=1.0 - 2.0 * s, Y=4.0), s)
        assert rel <= tol, f"s={s}: mismatch {rel:.3%}"


def test_energy_identity_improves_under_refinement():
    rels = []
    for cells, J, Y in ((256, 32, 4.0), (512, 64, 4.0)):
        g = BoxGrid(1, -2.0, 2.0, cells)
        rels.extend(energy_mismatch([bump_trace(g, seed=7)], SlabGrid(g, J, a=0.0, Y=Y), 0.5))
    assert rels[1] < rels[0]


def test_extension_maximum_principle_and_linearity():
    g = BoxGrid(1, -2.0, 2.0, 128)
    slab = SlabGrid(g, 32, a=0.0, Y=4.0)
    u1 = bump_trace(g)
    u2 = np.roll(u1, 7)
    u2[:7] = 0.0
    f1, f2 = extend([u1, u2], slab)
    # nonnegative trace -> nonnegative extension, bounded by the trace sup
    assert f1.values.min() >= -1e-12
    assert f1.values.max() <= u1.max() + 1e-12
    # comparison: ordered traces give ordered extensions
    (fsum,) = extend([u1 + u2], slab)
    assert np.all(fsum.values >= f1.values - 1e-12)
    # linearity is exact (same sparse solve)
    np.testing.assert_allclose(fsum.values, f1.values + f2.values, atol=1e-9)


# The sparse reference for the separable solve and the stencil: the slab's
# weighted Laplace system assembled as a Kronecker sum and solved by sparse LU.


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


def random_interior_trace(grid, seed):
    tr = np.zeros(grid.node_shape)
    inner = grid.interior()
    tr[inner] = np.random.default_rng(seed).normal(size=int(inner.sum()))
    return tr


@pytest.mark.parametrize("n,cells,J,a", [
    (2, 16, 16, -0.6), (2, 16, 16, 0.0), (2, 16, 16, 0.6), (1, 64, 16, 0.3),
])
def test_separable_extend_matches_sparse_lu(n, cells, J, a):
    """The DST-I / modal profile solve equals a sparse LU of the assembled
    system on the same free nodes, up to roundoff, for one trace alone and for
    two traces in one call."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    slab = SlabGrid(g, J, a=a)
    traces = [random_interior_trace(g, seed=cells + J), random_interior_trace(g, seed=J)]
    for fields in (extend(traces[:1], slab), extend(traces, slab)):
        for f, tr in zip(fields, traces):
            data = np.zeros(slab.values_shape())
            data[..., 0] = tr
            ref = _solve_dirichlet(slab, ~slab.boundary_mask(), data)
            rel = np.abs(f.values - ref).max() / np.abs(ref).max()
            assert rel <= 1e-12


@pytest.mark.parametrize("n,cells", [(1, 64), (2, 16)])
def test_extend_of_a_sequence_equals_single_calls(n, cells):
    """k traces in one call, a zero trace among them, give the fields of k
    one-trace calls byte for byte; the slab's attributes are unchanged."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    slab = SlabGrid(g, 12, a=0.3)
    before = {k: np.copy(v) if isinstance(v, np.ndarray) else v for k, v in vars(slab).items()}
    traces = [random_interior_trace(g, seed=1), np.zeros(g.node_shape),
              random_interior_trace(g, seed=2)]
    fields = extend(traces, slab)
    assert len(fields) == 3 and all(f.slab is slab for f in fields)
    for f, tr in zip(fields, traces):
        (one,) = extend([tr], slab)
        assert f.values.tobytes() == one.values.tobytes()
    assert not np.any(fields[1].values)
    assert vars(slab).keys() == before.keys()
    for k, v in vars(slab).items():
        assert np.array_equal(v, before[k]) if isinstance(v, np.ndarray) else v is before[k]


def test_extend_checks_every_trace_before_factoring(monkeypatch):
    """A bad trace anywhere in the sequence raises before the factorization,
    and a call whose traces are all zero factors nothing."""
    def fail(slab):
        raise AssertionError("the operator was factored")

    monkeypatch.setattr(extension, "_modal_profiles", fail)
    g = BoxGrid(1, -1.0, 1.0, 16)
    slab = SlabGrid(g, 8, a=0.0)
    bad = bump_trace(g)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        extend([bump_trace(g), bad], slab)
    zero = [np.zeros(g.node_shape)] * 2
    assert [f.values.tobytes() for f in extend(zero, slab)] == [
        np.zeros(slab.values_shape()).tobytes()] * 2
    assert extend([], slab) == []


@pytest.mark.parametrize("shape,n", [((63,), 1), ((63, 7), 1), ((31, 31), 2), ((47, 47, 9), 2)])
def test_dst1_matches_scipy_fft(shape, n):
    fft = pytest.importorskip("scipy.fft")
    x = np.random.default_rng(len(shape)).normal(size=shape)
    ref = fft.dstn(x, type=1, norm="ortho", axes=tuple(range(n)))
    assert np.abs(_dst1(x, n) - ref).max() <= 1e-14 * np.abs(ref).max()
    np.testing.assert_allclose(_dst1(_dst1(x, n), n), x, rtol=0, atol=1e-13)


def test_extend_at_scale_passes_residual_check(monkeypatch):
    """128^2 x 48 (758k unknowns); extend raises if the residual of the
    assembled operator exceeds 1e-10 relative, and keeps no per-edge data."""
    g = BoxGrid(2, -1.0, 1.0, 128)
    slab = SlabGrid(g, 48, a=0.0)
    r2 = (g.node_coords() ** 2).sum(axis=1).reshape(g.node_shape)
    u = np.maximum(0.0, 0.5 - r2)
    tracemalloc.start()
    try:
        (f,) = extend([u], slab)
        extension_energy(f)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # nothing per edge stays cached: about the field itself remains allocated
    assert resident < 3 * f.values.nbytes
    np.testing.assert_array_equal(f.trace, u)
    assert f.values.min() >= -1e-12 and f.values.max() <= u.max() + 1e-12
    # one tridiagonal block per distinct mu: the LU fill stays linear in the unknowns
    lus, splu = [], sla.splu
    monkeypatch.setattr(sla, "splu", lambda *a, **kw: lus.append(splu(*a, **kw)) or lus[-1])
    _modal_profiles(slab)
    assert len(lus) == 1 and lus[0].L.nnz + lus[0].U.nnz <= 4 * 127**2 * 47


def test_extend_residual_check_rejects_a_wrong_solve(monkeypatch):
    g = BoxGrid(1, -2.0, 2.0, 32)
    slab = SlabGrid(g, 8, a=0.0)
    monkeypatch.setattr(extension, "_modal_profiles", lambda slab: 1.0001 * _modal_profiles(slab))
    with pytest.raises(RuntimeError, match="residual"):
        extend([bump_trace(g)], slab)


@pytest.mark.parametrize("n,cells,J,rows", [(2, 32, 32, 483 * 31), (1, 64, 12, 63 * 11)])
def test_extend_factors_the_distinct_modes_once(monkeypatch, n, cells, J, rows):
    """One extend of two traces factors once, a matrix of (distinct mu) * (J-1)
    rows: 483 of the 961 modes on the 32^2 x 32 slab, every mode in 1D."""
    shapes, splu = [], sla.splu
    monkeypatch.setattr(sla, "splu", lambda A, **kw: shapes.append(A.shape) or splu(A, **kw))
    g = BoxGrid(n, -1.0, 1.0, cells)
    extend([random_interior_trace(g, seed=1), random_interior_trace(g, seed=2)],
           SlabGrid(g, J, a=0.0))
    assert shapes == [(rows, rows)]


def test_mirror_modes_get_bit_identical_profiles():
    """On the square, modes (i, j) and (j, i) share mu bit for bit, so their
    profiles are one and the same."""
    P = _modal_profiles(SlabGrid(BoxGrid(2, -1.0, 1.0, 32), 32, a=-0.4))
    assert P.shape == (31, 31, 31) and np.all(np.isfinite(P))
    assert P.tobytes() == np.ascontiguousarray(P.transpose(1, 0, 2)).tobytes()


def oracle_edges(slab):
    """(p, q, conductance, midpoint) of every slab edge, by a loop over node
    pairs, with the conductances integrated from their definitions: a vertical
    edge has h^n over the resistance integral of y^-a between its levels, and
    a lateral edge on level j has h^(n-2) times the integral of y^a over the
    control interval of that level (level midpoints, closed at 0 and Y)."""
    base, y, a = slab.base, slab.y_nodes, slab.a
    x = base.axis_nodes()
    h, n, J = base.h, base.n, slab.J
    shape = slab.values_shape()
    bounds = [0.0] + [0.5 * (y[j] + y[j + 1]) for j in range(J)] + [y[J]]
    edges = []
    for p in itertools.product(*(range(m) for m in shape)):
        for axis in range(n + 1):
            q = list(p)
            q[axis] += 1
            if q[axis] == shape[axis]:
                continue
            j = p[-1]
            if axis == n:
                res = (y[j + 1] ** (1 - a) - y[j] ** (1 - a)) / (1 - a)
                c = h**n / res
            else:
                w = (bounds[j + 1] ** (1 + a) - bounds[j] ** (1 + a)) / (1 + a)
                c = h ** (n - 2) * w
            pt_p = [x[i] for i in p[:-1]] + [y[p[-1]]]
            pt_q = [x[i] for i in q[:-1]] + [y[q[-1]]]
            mid = [0.5 * (u + v) for u, v in zip(pt_p, pt_q)]
            ids = np.ravel_multi_index(p, shape), np.ravel_multi_index(q, shape)
            edges.append((*ids, c, mid))
    return edges


@pytest.mark.parametrize("a", [-0.6, 0.0, 0.6])
@pytest.mark.parametrize("n,cells,J", [(2, 8, 6), (1, 16, 6)])
def test_stencil_matches_edge_by_edge_oracle(n, cells, J, a):
    """Energy, Laplacian and ball energies of the tensor stencil agree with a
    plain sum over the slab's node pairs, on a random field."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    slab = SlabGrid(g, J, a=a)
    vals = np.random.default_rng(cells + J).normal(size=slab.values_shape())
    f = ExtensionField(slab, vals)
    v = vals.ravel()
    edges = oracle_edges(slab)

    energy = sum(c * (v[p] - v[q]) ** 2 for p, q, c, _ in edges)
    assert extension_energy(f) == pytest.approx(energy, rel=1e-13)

    lap = np.zeros(v.size)
    for p, q, c, _ in edges:
        lap[p] += c * (v[p] - v[q])
        lap[q] -= c * (v[p] - v[q])
    scale = np.abs(lap).max()
    assert np.abs(_apply_laplacian(slab, vals).ravel() - lap).max() <= 1e-13 * scale
    A, _ = _laplacian(slab, np.ones(vals.shape, dtype=bool))
    assert np.abs(A @ v - lap).max() <= 1e-13 * scale

    # inside the footprint, across its edge, and tall enough to pass two levels
    balls = (([0.1, -0.2], 0.45), ([0.85, 0.3], 0.5), ([-0.3, 0.95], 1.7))
    assert balls[-1][1] > slab.y_nodes[2]
    for center, r in balls:
        center = center[:n]
        want = sum(
            c * (v[p] - v[q]) ** 2
            for p, q, c, mid in edges
            if sum((m - o) ** 2 for m, o in zip(mid, center + [0.0])) < r * r
        )
        assert want > 0
        assert _ball_energies([f], center, [r])[0, 0] == pytest.approx(want, rel=1e-13)


def test_trace_property_roundtrip():
    g = BoxGrid(1, -2.0, 2.0, 64)
    slab = SlabGrid(g, 16, a=0.0, Y=4.0)
    u = bump_trace(g)
    (f,) = extend([u], slab)
    np.testing.assert_allclose(f.trace, u, atol=1e-12)


def test_interp_reproduces_multilinear_functions():
    g = BoxGrid(2, -1.0, 1.0, 12)
    slab = SlabGrid(g, 8, a=0.0, Y=4.0)
    X = g.node_coords()
    vals = np.empty((g.num_nodes, slab.J + 1))
    for j, y in enumerate(slab.y_nodes):
        vals[:, j] = 1.0 + 2.0 * X[:, 0] - 0.5 * X[:, 1] + 0.25 * y
    f = ExtensionField(slab, vals.reshape(slab.values_shape()))
    rng = np.random.default_rng(2)
    pts = np.column_stack(
        [
            rng.uniform(-0.9, 0.9, size=30),
            rng.uniform(-0.9, 0.9, size=30),
            rng.uniform(0.0, slab.Y * 0.9, size=30),
        ]
    )
    (got,) = _interp([f], pts)
    want = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1] + 0.25 * pts[:, 2]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_multilinear_at_matches_the_explicit_formulas(n):
    """The loop over the 2^n cell corners equals the 1D and 2D multilinear
    formulas bit for bit, on a node field and on a gather of two levels per
    point (trailing level indices)."""
    g = BoxGrid(n, -1.0, 1.0, 10)
    rng = np.random.default_rng(7)
    k = 60
    pts = rng.uniform(-1.0, 1.0, size=(k, n))
    pts[:2] = g.lower
    pts[2:4] = g.upper
    values = rng.standard_normal(g.node_shape + (6,))
    j = rng.integers(0, 5, size=k)
    x = np.clip((pts - g.lower) / g.h, 0.0, g.cells_per_axis)
    i0 = np.clip(x.astype(int), 0, g.cells_per_axis - 1)
    t = x - i0
    for field, tail in ((values[..., 0], ()), (values, (np.stack([j, j + 1]),))):
        def f(*corner):
            return field[corner + tail]

        if n == 1:
            want = f(i0[:, 0]) * (1 - t[:, 0]) + f(i0[:, 0] + 1) * t[:, 0]
        else:
            i, m = i0[:, 0], i0[:, 1]
            tx, ty = t[:, 0], t[:, 1]
            want = (f(i, m) * (1 - tx) * (1 - ty) + f(i + 1, m) * tx * (1 - ty)
                    + f(i, m + 1) * (1 - tx) * ty + f(i + 1, m + 1) * tx * ty)
        got = _multilinear_at(g, pts, *tail)(field)
        assert got.shape == want.shape == ((2, k) if tail else (k,))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2])
def test_flat_gather_matches_advanced_indexing(n):
    """The flat-index gather of _multilinear_at equals the advanced-indexing
    formula bit for bit on C-ordered slab values, on the strided trace view
    and on a Fortran-ordered copy; one interpolant serves fields of either
    layout."""
    g = BoxGrid(n, -1.0, 1.0, 9)
    slab = SlabGrid(g, 7, a=-0.3)
    rng = np.random.default_rng(11)
    f = ExtensionField(slab, rng.standard_normal(slab.values_shape()))
    k = 50
    pts = rng.uniform(-1.0, 1.0, size=(k, n))
    pts[:2] = g.lower
    pts[2:4] = g.upper
    j = rng.integers(0, slab.J, size=k)
    levels = np.stack([j, j + 1])
    x = np.clip((pts - g.lower) / g.h, 0.0, g.cells_per_axis)
    i0 = np.clip(x.astype(int), 0, g.cells_per_axis - 1)
    t = x - i0

    def advanced(field, *tail):
        terms = []
        for corner in [c[::-1] for c in itertools.product((0, 1), repeat=n)]:
            term = field[tuple(i0[:, m] + c for m, c in enumerate(corner)) + tail]
            for m, c in enumerate(corner):
                term = term * (t[:, m] if c else 1 - t[:, m])
            terms.append(term)
        return sum(terms[1:], terms[0])

    fortran = np.asfortranarray(f.values)
    assert not f.trace.flags.c_contiguous and fortran.flags.f_contiguous
    at = _multilinear_at(g, pts, levels)
    for field in (f.values, fortran):
        np.testing.assert_array_equal(at(field), advanced(field, levels))
    at = _multilinear_at(g, pts)
    for field in (f.trace, np.asfortranarray(f.trace)):
        np.testing.assert_array_equal(at(field), advanced(field))
    with pytest.raises(ValueError, match="every trailing axis"):
        at(f.values)


@pytest.mark.parametrize("n,cells", [(1, 40), (2, 12)])
def test_interp_matches_per_level_multilinear(n, cells):
    """One gather over all levels equals interpolating each level on its own."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    slab = SlabGrid(g, 10, a=0.3, Y=4.0)
    rng = np.random.default_rng(5)
    f = ExtensionField(slab, rng.standard_normal(slab.values_shape()))
    k = 200
    y = np.concatenate([rng.uniform(0.0, slab.Y, k - 4 - slab.J - 1),
                        [0.0, slab.Y, 1e-13, slab.Y - 1e-13], slab.y_nodes])
    x = rng.uniform(-1.0, 1.0, size=(k, n))
    x[:3] = g.lower  # footprint corners and edges
    x[3:6] = g.upper
    (got,) = _interp([f], np.column_stack([x, y]))
    want = np.empty(k)
    for i in range(k):
        j = min(max(np.searchsorted(slab.y_nodes, y[i], side="right") - 1, 0), slab.J - 1)
        ty = min(max((y[i] - slab.y_nodes[j]) / (slab.y_nodes[j + 1] - slab.y_nodes[j]),
                     0.0), 1.0)
        lo = _multilinear_at(g, x[i:i + 1])(f.values[..., j])[0]
        hi = _multilinear_at(g, x[i:i + 1])(f.values[..., j + 1])[0]
        want[i] = lo * (1.0 - ty) + hi * ty
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        _interp([f], np.column_stack([x[:1] + 3.0, y[:1]]))


# -- Neumann trace -----------------------------------------------------------


def test_neumann_trace_matches_eigenvalue_condition():
    """-lim y^a d_y g = (lambda/d_s) v on Omega for the eigenfunction's
    extension, within 10% relative L2 at moderate resolution."""
    for s, tol in ((0.3, 0.10), (0.5, 0.10)):
        p = FracParams(1, s, 1.0)
        g = BoxGrid(1, -2.0, 2.0, 256)
        dom = interval_domain(g, -1.0, 1.0)
        bundle = lowest_eigenpairs(KernelTable(dom.grid, p.s), dom, 1)
        lam = bundle.lambdas[0]
        v = bundle.full_fields()[0]
        (f,) = extend([v], SlabGrid(g, 48, a=p.a, Y=4.0))
        nt, flags = neumann_trace(f)
        om = dom.flat_indices
        target = (lam / p.d_s) * v.ravel()[om]
        rel = np.linalg.norm(nt.ravel()[om] - target) / np.linalg.norm(target)
        assert rel <= tol, f"s={s}: rel {rel:.3f}"
        # Richardson disagreement flags fire only near the free boundary
        assert flags.ravel()[om].sum() <= 4


def test_neumann_trace_interior_accuracy_at_large_s():
    """At s=0.7 the global error is endpoint-dominated; the interior part of
    the trace still satisfies the eigenvalue condition to ~5%."""
    s = 0.7
    p = FracParams(1, s, 1.0)
    g = BoxGrid(1, -2.0, 2.0, 512)
    dom = interval_domain(g, -1.0, 1.0)
    bundle = lowest_eigenpairs(KernelTable(dom.grid, p.s), dom, 1)
    v = bundle.full_fields()[0]
    (f,) = extend([v], SlabGrid(g, 96, a=p.a, Y=4.0))
    nt, _ = neumann_trace(f)
    om = dom.flat_indices
    x = g.axis_nodes()[om]
    target = (bundle.lambdas[0] / p.d_s) * v.ravel()[om]
    err = nt.ravel()[om] - target
    inner = np.abs(np.abs(x) - 1.0) > 0.1
    rel_inner = np.linalg.norm(err[inner]) / np.linalg.norm(target)
    assert rel_inner <= 0.06


def test_neumann_trace_of_exact_profile():
    # d^a_y U = 0 on {t > 0} (the positivity set), in the scaled sense
    g = BoxGrid(1, -2.0, 2.0, 256)
    f = exact_profile_field(g, 64, 4.0, 0.5)
    nt, _ = neumann_trace(f)
    x = g.axis_nodes()
    sel = x > 0.2
    scale = np.abs(nt).max()
    assert np.abs(nt[sel]).max() <= 0.05 * scale


def test_ball_energies_of_two_fields_equal_their_one_field_calls():
    """One window for two fields gives each field's row of one-field calls bit
    for bit, inside the footprint and on windows clipped by the box wall."""
    for g, centers in ((BoxGrid(1, -1.0, 1.0, 40), ([0.1], [-0.95], [0.9])),
                       (BoxGrid(2, -1.0, 1.0, 16), ([0.1, -0.2], [-0.9, 0.85], [0.95, 0.0]))):
        slab = SlabGrid(g, 6, a=-0.3, Y=3.0)
        rng = np.random.default_rng(7)
        fields = [ExtensionField(slab, rng.normal(size=slab.values_shape())) for _ in range(2)]
        radii = np.array([0.3, 0.15, 0.45, 0.3])
        for center in centers:
            got = _ball_energies(fields, center, radii)
            assert got.shape == (2, 4)
            for row, f in zip(got, fields):
                assert row.tolist() == _ball_energies([f], center, radii)[0].tolist()


def test_ball_energy_splits_total():
    """Multi-radius ball energies equal one-radius calls bit for bit, for
    unsorted and repeated radii, and the sum over every slab edge whose
    midpoint lies in the open ball, in 1D and 2D: inside the footprint, clipped
    by the box's lower corner, and tall enough that the window takes the top
    level (and the whole footprint)."""
    cases = (
        (BoxGrid(1, -2.0, 2.0, 32), 4.0, [(0.1, [0.5, 0.2, 0.5, 0.35]),
                                          (-1.9, [0.3, 0.15, 0.3]),
                                          (0.0, [3.0, 1.0])]),
        (BoxGrid(2, -1.0, 1.0, 10), 3.0, [([0.1, -0.2], [0.45, 0.3, 0.45, 0.21]),
                                          ([-0.9, -0.85], [0.4, 0.25, 0.4]),
                                          ([0.05, 0.0], [2.5, 0.6])]),
    )
    for g, Y, balls in cases:
        slab = SlabGrid(g, 5, a=0.2, Y=Y)
        vals = np.random.default_rng(g.n).normal(size=slab.values_shape())
        f = ExtensionField(slab, vals)
        v = vals.ravel()
        edges = oracle_edges(slab)
        e_tot = extension_energy(f)
        for center, radii in balls:
            center = np.atleast_1d(center)
            (got,) = _ball_energies([f], center, radii)
            assert got.tolist() == [_ball_energies([f], center, [r])[0, 0] for r in radii]
            for r, e in zip(radii, got):
                want = sum(c * (v[p] - v[q]) ** 2 for p, q, c, mid in edges
                           if sum((m - o) ** 2 for m, o in zip(mid, [*center, 0.0])) < r * r)
                assert 0.0 < e <= e_tot * (1 + 1e-13)
                assert e == pytest.approx(want, rel=1e-13)
        # the tall ball's window holds every level: its radius passes y[J-1]
        assert balls[-1][1][0] > slab.y_nodes[-2]
        assert balls[-1][1][0] < slab.Y


@pytest.mark.parametrize("n,cells,J", [(1, 40, 9), (2, 16, 7)])
def test_ball_energies_equal_the_windowed_reference(n, cells, J):
    """The edge sets give the windowed code's sums bit for bit: centres on a node
    and off one, inside the footprint and clipped by the box wall, with unsorted
    and repeated radii, for one and two fields, alone and as a stack; each sum
    also matches the edge-by-edge oracle. Half a cell off a node, lateral midpoints lie on the
    spheres of whole-cell radii (3-4-5 at 5h in 2D), where the windowed code's
    bare d2 < r^2 let rounding decide; there both the edge sets and the oracle
    take the tie rule of _in_ball, so a midpoint on the sphere is outside."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    slab = SlabGrid(g, J, a=0.35, Y=3.0)
    rng = np.random.default_rng(cells)
    fields = [ExtensionField(slab, rng.normal(size=slab.values_shape())) for _ in range(2)]
    node = g.axis_nodes()[[cells // 2 + 1, cells // 3][:n]]
    radii_sets = ([0.3, 0.12, 0.3, 0.21], [0.45], [5.5 * g.h, 5.0 * g.h, 8.0 * g.h, 6.5 * g.h])
    cases = [(center, radii) for center in (
        node, node + np.array([0.31, -0.27])[:n] * g.h,  # on and off a node
        np.array([-0.93, 0.88])[:n], np.array([0.97, -1.0])[:n])  # by the wall
        for radii in radii_sets]
    cases += [(node + 0.5 * g.h, [6.3 * g.h, 5.2 * g.h, 6.3 * g.h])]  # f = -0.5 (rint to even)
    half = node + np.array([0.5, 0.0])[:n] * g.h  # midpoints on the spheres of 5h and 6h
    v = fields[0].values.ravel()
    edges = oracle_edges(slab)
    for tie, (center, radii) in [(False, case) for case in cases] + [
            (True, (half, [6.0 * g.h, 5.0 * g.h]))]:
        got = _ball_energies(fields, center, radii)
        if not tie:
            assert got.tolist() == windowed_ball_energies(fields, center, radii).tolist()
        assert got[:1].tolist() == _ball_energies(fields[:1], center, radii).tolist()
        for r, e in zip(radii, got[0]):
            d2 = np.array([sum((m - o) ** 2 for m, o in zip(mid, [*center, 0.0]))
                           for *_, mid in edges])
            assert not tie or np.any(np.abs(d2 - r * r) <= 1e-9 * r * r)
            want = sum(c * (v[p] - v[q]) ** 2 for (p, q, c, _), inside in
                       zip(edges, _in_ball(d2, r)) if inside)
            assert e == pytest.approx(want, rel=1e-13)
    # a stack of the centers, on and off a node and by the wall, gives each center's
    # sums bit for bit: per offset from the nodes one edge set, chunks of centers
    for radii in radii_sets:
        centers = np.array([center for center, r in cases if r is radii])
        got = _ball_energies(fields, centers, radii)
        assert got.shape == (2, len(centers), len(radii))
        for k, center in enumerate(centers):
            assert got[:, k].tolist() == windowed_ball_energies(fields, center, radii).tolist()
