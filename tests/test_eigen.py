import copy
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from fraclab.checks import interval_bundle, scaling_defect
from fraclab.eigen import _next_block, lowest_eigenpairs
from fraclab.grids import BoxGrid, ball_domain, interval_domain, mask_from_indices
from fraclab.nonlocal_form import KernelTable

# Ground eigenvalue of (-1,1) at s=1/2, design box (-2,2), frozen from this
# discretization at four resolutions.  Richardson extrapolation of the ladder
# gives 1.15772, matching the known continuum value 1.15777... to 5e-5.
LAM1_LADDER = {
    64: 1.1073379838,
    128: 1.1321189806,
    256: 1.1448408821,
    512: 1.1512822618,
}
LAM1_CONTINUUM = 1.15777


def test_ground_eigenvalue_ladder():
    for cells, ref in LAM1_LADDER.items():
        bundle = interval_bundle(0.5, cells, 1)
        assert bundle.lambdas[0] == pytest.approx(ref, abs=1e-9)


def test_ladder_extrapolates_to_continuum():
    lams = [LAM1_LADDER[c] for c in (128, 256, 512)]
    # observed order from the ladder itself
    p = np.log2((lams[1] - lams[0]) / (lams[2] - lams[1]))
    rich = lams[2] + (lams[2] - lams[1]) / (2**p - 1)
    assert rich == pytest.approx(LAM1_CONTINUUM, abs=2e-4)


def test_bundle_invariants():
    bundle = interval_bundle(0.5, 128, 3)
    bundle.check()
    assert np.all(np.diff(bundle.lambdas) > 0)
    assert bundle.residuals.max() < 1e-10
    # ground state single-signed and symmetric
    v1 = bundle.vectors[0]
    assert v1.min() >= 0.0
    np.testing.assert_allclose(v1, v1[::-1], atol=1e-8 * v1.max())


def test_orthonormality_in_discrete_l2():
    bundle = interval_bundle(0.5, 128, 4)
    G = bundle.h * bundle.vectors @ bundle.vectors.T
    np.testing.assert_allclose(G, np.eye(4), atol=1e-10)


def test_scaling_law_exact():
    """lambda(t*Omega) = t^(-2s) lambda(Omega) when grid and domain scale
    together (identical index pattern), to 1e-10 relative."""
    for s in (0.3, 0.5, 0.7):
        # (-1/2, 1/2) on [-1, 1] against (-1, 1) on [-2, 2], 64 cells each
        assert scaling_defect(s, 64, 1, half=0.5) <= 1e-10


def test_monotonicity_under_inclusion():
    g = BoxGrid(1, -2.0, 2.0, 128)
    table = KernelTable(g, 0.5)
    lam_big = lowest_eigenpairs(table, interval_domain(g, -1.2, 1.2), 1).lambdas[0]
    lam_small = lowest_eigenpairs(table, interval_domain(g, -0.8, 0.8), 1).lambdas[0]
    assert lam_small > lam_big


def test_two_interval_domain_components_both_active():
    g = BoxGrid(1, -2.0, 2.0, 256)
    x = g.axis_nodes()
    mask = ((x > -1.5) & (x < -0.3)) | ((x > 0.5) & (x < 1.3))
    dom = mask_from_indices(g, np.flatnonzero(mask))
    bundle = lowest_eigenpairs(KernelTable(g, 0.5), dom, 3)
    left = x[dom.flat_indices] < 0
    for i in range(3):
        v = bundle.vectors[i]
        mass_left = bundle.h * float((v[left] ** 2).sum())
        mass_right = bundle.h * float((v[~left] ** 2).sum())
        # nonlocal coupling forbids exact silence on a component
        assert min(mass_left, mass_right) > 0.0
        assert min(mass_left, mass_right) > 1e-12


def test_degenerate_pair_flags_clustering():
    """The 2d ball's first excited pair is exactly degenerate by symmetry."""
    g = BoxGrid(2, -1.0, 1.0, 40)
    dom = ball_domain(g, [0.0, 0.0], 0.6)
    bundle = lowest_eigenpairs(KernelTable(g, 0.5), dom, 3)
    gap = (bundle.lambdas[2] - bundle.lambdas[1]) / bundle.lambdas[1]
    assert gap < 1e-12
    assert bundle.clustered


def test_symmetric_two_intervals_split_by_nonlocal_coupling():
    """Equal mirrored intervals are NOT degenerate here: the slow kernel
    couples them across the gap, splitting even/odd combinations by percents."""
    g = BoxGrid(1, -2.0, 2.0, 256)
    x = g.axis_nodes()
    mask = ((x > -1.4) & (x < -0.4)) | ((x > 0.4) & (x < 1.4))
    dom = mask_from_indices(g, np.flatnonzero(mask))
    bundle = lowest_eigenpairs(KernelTable(g, 0.5), dom, 2)
    gap = (bundle.lambdas[1] - bundle.lambdas[0]) / bundle.lambdas[0]
    assert 1e-3 < gap < 0.2
    assert not bundle.clustered


def test_magnitude_field_is_rotation_invariant():
    bundle = interval_bundle(0.5, 128, 2)
    dom = bundle.domain
    mag = bundle.magnitude_field()
    th = 0.7
    Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = Q @ bundle.vectors
    stack = np.stack([dom.full_field(v) for v in rotated])
    mag_rot = np.sqrt((stack**2).sum(axis=0))
    np.testing.assert_allclose(mag, mag_rot, atol=1e-12 * mag.max())


def test_ball_ground_state_2d():
    g = BoxGrid(2, -1.0, 1.0, 48)
    dom = ball_domain(g, [0.0, 0.0], 0.6)
    bundle = lowest_eigenpairs(KernelTable(g, 0.5), dom, 2)
    bundle.check()
    assert bundle.lambdas[1] > bundle.lambdas[0] * 1.05
    # radial symmetry of the ground state
    v = dom.full_field(bundle.vectors[0])
    np.testing.assert_allclose(v, v[::-1, :], atol=1e-7 * v.max())
    np.testing.assert_allclose(v, v.T, atol=1e-7 * v.max())


# -- block Lanczos against the dense LAPACK solver ------------------------------


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("kind,cells", [("interval", 128), ("interval", 1024),
                                        ("disk", 24), ("disk", 48)])
def test_lanczos_matches_dense_eigh(kind, cells, s):
    if kind == "interval":
        dom, m = interval_domain(BoxGrid(1, -2.0, 2.0, cells), -1.0, 1.0), 3
    else:
        # centred: the first excited pair is exactly degenerate
        dom, m = ball_domain(BoxGrid(2, -1.0, 1.0, cells), [0.0, 0.0], 0.6), 4
    table, mass = KernelTable(dom.grid, s), dom.grid.h**dom.grid.n
    K0 = table.stiffness(dom.flat_indices)
    bundle = lowest_eigenpairs(table, dom, m)
    assert table.stiffness(dom.flat_indices).tobytes() == K0.tobytes()
    bundle.check()
    assert bundle.residuals.max() < 1e-10
    # two more reference pairs, so a cluster at the m-th pair is seen whole
    vals, vecs = linalg.eigh(K0, subset_by_index=[0, m + 1], driver="evr")
    ref = vals / mass
    assert np.all(np.abs(bundle.lambdas - ref[:m]) <= 1e-12 * ref[:m])
    # vectors are defined up to rotation within a cluster: each must lie in
    # the span of its cluster's reference vectors
    x = bundle.vectors.T * np.sqrt(mass)
    for i in range(m):
        cluster = np.abs(ref - ref[i]) <= 1e-9 * ref[i]
        V = vecs[:, cluster]
        assert np.linalg.norm(x[:, i] - V @ (V.T @ x[:, i])) < 1e-8


def test_lanczos_converges_where_roundoff_bounds_the_residual():
    """At s = 0.8 on 1025 nodes eps ||K|| / lambda_1 is near 1e-11, which
    even the dense solver's residual exceeds; the solve must still succeed.
    Either solver's eigenvalues are then only good to ~eps ||K|| absolute,
    with ||K|| <= 2 max K_ii for this diagonally dominant K."""
    dom = interval_domain(BoxGrid(1, -2.0, 2.0, 2048), -1.0, 1.0)
    table, mass = KernelTable(dom.grid, 0.8), dom.grid.h
    bundle = lowest_eigenpairs(table, dom, 3)
    bundle.check()
    K = table.stiffness(dom.flat_indices)
    ref = linalg.eigh(K, subset_by_index=[0, 2], driver="evr", eigvals_only=True) / mass
    roundoff = np.finfo(float).eps * 2 * K.diagonal().max() / mass
    assert np.all(np.abs(bundle.lambdas - ref) <= 4 * roundoff)


def test_lanczos_replays_byte_for_byte():
    dom = ball_domain(BoxGrid(2, -1.0, 1.0, 32), [0.01, -0.02], 0.6)
    table = KernelTable(dom.grid, 0.5)
    a, b = lowest_eigenpairs(table, dom, 4), lowest_eigenpairs(table, dom, 4)
    for field in ("lambdas", "vectors", "residuals", "gram"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


@pytest.mark.parametrize("hook", [sys.settrace, sys.setprofile])
def test_eig_runs_under_a_trace_or_profile_hook(hook):
    """A no-op trace or profile hook holds the solver's frame locals, the
    growing basis among them; the solve runs as it does without the hook."""
    dom = interval_domain(BoxGrid(1, -2.0, 2.0, 64), -1.0, 1.0)
    table = KernelTable(dom.grid, 0.5)
    want = lowest_eigenpairs(table, dom, 2)
    hook(lambda *args: None)
    try:
        got = lowest_eigenpairs(table, dom, 2)
    finally:
        hook(None)
    assert got.lambdas.tobytes() == want.lambdas.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()


def test_indefinite_matrix_raises_and_keeps_k():
    dom = ball_domain(BoxGrid(2, -1.0, 1.0, 24), [0.0, 0.0], 0.6)
    good, idx = KernelTable(dom.grid, 0.5), dom.flat_indices
    lam = lowest_eigenpairs(good, dom, 2).lambdas * dom.grid.h**2
    # a lower exterior tail shifts K's diagonal to between its two lowest
    # eigenvalues: one negative eigenvalue
    bad = copy.copy(good)
    bad.tail = bad.tail - 0.5 * (lam[0] + lam[1]) / bad.c_ns
    K0 = bad.stiffness(idx)
    shift = K0 - good.stiffness(idx)
    assert np.array_equal(shift, np.diag(np.diagonal(shift)))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lowest_eigenpairs(bad, dom, 2)
    assert bad.stiffness(idx).tobytes() == K0.tobytes()


def test_table_and_domain_on_different_boxes_are_rejected():
    """A table of another box with the same cell count gives a stiffness
    matrix of the same size and wrong entries; the solver refuses it."""
    dom = interval_domain(BoxGrid(1, -2.0, 2.0, 64), -1.0, 1.0)
    for other in (BoxGrid(1, -1.0, 1.0, 64), BoxGrid(1, -2.0, 3.0, 64)):
        with pytest.raises(ValueError, match="does not match the kernel table"):
            lowest_eigenpairs(KernelTable(other, 0.5), dom, 1)


def test_empty_domain_rejected_by_the_eigensolver():
    g = BoxGrid(1, -1.0, 1.0, 16)
    empty = mask_from_indices(g, [])
    assert empty.cell_count == 0 and empty.measure == 0.0
    with pytest.raises(ValueError, match="exceeds the domain dimension 0"):
        lowest_eigenpairs(KernelTable(g, 0.5), empty, 1)


def test_eig_holds_one_packed_triangle_and_no_dense_matrix():
    """From the domain to the eigenpairs on the 80^2 disk of the `spectrum`
    benchmark, the largest array is the packed factor, d(d+1)/2 doubles; the
    basis, the FFT products and the kernel table fit in 2 MiB beside it (a
    dense K alone is 2 x that factor)."""
    dom = ball_domain(BoxGrid(2, -1.0, 1.0, 80), [0.0, 0.0], 0.6)
    tracemalloc.start()
    try:
        bundle = lowest_eigenpairs(KernelTable(dom.grid, 0.5), dom, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = dom.cell_count
    assert bundle.residuals.max() < 1e-10 and bundle.lanczos_blocks > 1
    assert peak <= 8 * d * (d + 1) // 2 + 2 * 2**20


@pytest.mark.parametrize("cells", [8, 12, 16])
def test_every_block_size_up_to_the_dimension(cells):
    """d = 5, 7, 9: m need not divide d, and m = d spans everything at once."""
    dom = interval_domain(BoxGrid(1, -2.0, 2.0, cells), -1.0, 1.0)
    table = KernelTable(dom.grid, 0.5)
    K0 = table.stiffness(dom.flat_indices)
    ref = linalg.eigh(K0, eigvals_only=True, driver="evr") / dom.grid.h
    for m in range(1, dom.cell_count + 1):
        bundle = lowest_eigenpairs(table, dom, m)
        bundle.check()
        assert bundle.residuals.max() < 1e-10
        np.testing.assert_allclose(bundle.lambdas, ref[:m], rtol=1e-12, atol=0)
        assert table.stiffness(dom.flat_indices).tobytes() == K0.tobytes()


def test_next_block_makes_up_for_zero_columns():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    W = np.zeros((12, 3))
    W[:, 1] = rng.standard_normal(12)
    block = _next_block(Q, W, 3, rng)
    basis = np.hstack([Q, block])
    np.testing.assert_allclose(basis.T @ basis, np.eye(7), atol=1e-14)
