import numpy as np
import pytest
from scipy import linalg

from fraclab.checks import interval_bundle, scaling_defect
from fraclab.constants import FracParams
from fraclab.eigen import (
    _next_block,
    gram_schmidt,
    lowest_eigenpairs,
    objective,
    sup_bound_check,
)
from fraclab.grids import BoxGrid, ball_domain, interval_domain, mask_from_indices
from fraclab.nonlocal_form import StiffnessForm, assemble_form

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
    p = FracParams(1, 0.5, 1.0)
    lam_big = lowest_eigenpairs(assemble_form(interval_domain(g, -1.2, 1.2), p), 1).lambdas[0]
    lam_small = lowest_eigenpairs(assemble_form(interval_domain(g, -0.8, 0.8), p), 1).lambdas[0]
    assert lam_small > lam_big


def test_two_interval_domain_components_both_active():
    g = BoxGrid(1, -2.0, 2.0, 256)
    x = g.axis_nodes()
    mask = ((x > -1.5) & (x < -0.3)) | ((x > 0.5) & (x < 1.3))
    dom = mask_from_indices(g, np.flatnonzero(mask))
    p = FracParams(1, 0.5, 1.0)
    bundle = lowest_eigenpairs(assemble_form(dom, p), 3)
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
    bundle = lowest_eigenpairs(assemble_form(dom, FracParams(2, 0.5, 1.0)), 3)
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
    bundle = lowest_eigenpairs(assemble_form(dom, FracParams(1, 0.5, 1.0)), 2)
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
    p = FracParams(2, 0.5, 1.0)
    bundle = lowest_eigenpairs(assemble_form(dom, p), 2)
    bundle.check()
    assert bundle.lambdas[1] > bundle.lambdas[0] * 1.05
    # radial symmetry of the ground state
    v = dom.full_field(bundle.vectors[0])
    np.testing.assert_allclose(v, v[::-1, :], atol=1e-7 * v.max())
    np.testing.assert_allclose(v, v.T, atol=1e-7 * v.max())


def test_sup_bound_report_shape_and_stability():
    rows_by_res = []
    for cells in (128, 256):
        rows = sup_bound_check(interval_bundle(0.5, cells, 2), FracParams(1, 0.5, 1.0),
                               prefactor=4.0)
        assert [r["index"] for r in rows] == [1, 2]
        assert all(np.isfinite(r["sup"]) and np.isfinite(r["ratio"]) for r in rows)
        rows_by_res.append(rows)
    for r_coarse, r_fine in zip(*rows_by_res):
        assert r_fine["ratio"] == pytest.approx(r_coarse["ratio"], rel=0.1)


def test_objective_combines_spectrum_and_measure():
    g = BoxGrid(1, -2.0, 2.0, 64)
    dom = interval_domain(g, -1.0, 1.0)
    p = FracParams(1, 0.5, 2.5)
    bundle = lowest_eigenpairs(assemble_form(dom, p), 2)
    val = objective(dom, p, 2)
    assert val == pytest.approx(bundle.lambdas.sum() + 2.5 * dom.measure, rel=1e-12)
    with pytest.raises(ValueError):
        objective(dom, p, dom.cell_count + 1)


def test_gram_schmidt_orthonormalizes():
    rng = np.random.default_rng(5)
    V = rng.normal(size=(3, 40))
    h = 0.05
    W = gram_schmidt(V, h)
    G = h * W @ W.T
    np.testing.assert_allclose(G, np.eye(3), atol=1e-12)
    # first vector keeps its direction
    c = h * W[0] @ V[0]
    np.testing.assert_allclose(W[0] * c, V[0], rtol=1e-10)


def test_gram_schmidt_rejects_dependent_input():
    V = np.ones((2, 10))
    V[1] = 2.0 * V[0]
    with pytest.raises(ValueError, match="index 2"):
        gram_schmidt(V, 0.1)


# -- block Lanczos against the dense LAPACK solver ------------------------------


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("kind,cells", [("interval", 128), ("interval", 1024),
                                        ("disk", 24), ("disk", 48)])
def test_lanczos_matches_dense_eigh(kind, cells, s):
    if kind == "interval":
        dom = interval_domain(BoxGrid(1, -2.0, 2.0, cells), -1.0, 1.0)
        form, m = assemble_form(dom, FracParams(1, s, 1.0)), 3
    else:
        # centred: the first excited pair is exactly degenerate
        dom = ball_domain(BoxGrid(2, -1.0, 1.0, cells), [0.0, 0.0], 0.6)
        form, m = assemble_form(dom, FracParams(2, s, 1.0)), 4
    K0 = form.K.copy()
    bundle = lowest_eigenpairs(form, m)
    assert form.K.tobytes() == K0.tobytes()
    bundle.check()
    assert bundle.residuals.max() < 1e-10
    # two more reference pairs, so a cluster at the m-th pair is seen whole
    vals, vecs = linalg.eigh(form.K, subset_by_index=[0, m + 1], driver="evr")
    ref = vals / form.mass
    assert np.all(np.abs(bundle.lambdas - ref[:m]) <= 1e-12 * ref[:m])
    # vectors are defined up to rotation within a cluster: each must lie in
    # the span of its cluster's reference vectors
    x = bundle.vectors.T * np.sqrt(form.mass)
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
    form = assemble_form(dom, FracParams(1, 0.8, 1.0))
    bundle = lowest_eigenpairs(form, 3)
    bundle.check()
    ref = linalg.eigh(form.K, subset_by_index=[0, 2], driver="evr",
                      eigvals_only=True) / form.mass
    roundoff = np.finfo(float).eps * 2 * form.K.diagonal().max() / form.mass
    assert np.all(np.abs(bundle.lambdas - ref) <= 4 * roundoff)


def test_lanczos_replays_byte_for_byte():
    dom = ball_domain(BoxGrid(2, -1.0, 1.0, 32), [0.01, -0.02], 0.6)
    form = assemble_form(dom, FracParams(2, 0.5, 1.0))
    a, b = lowest_eigenpairs(form, 4), lowest_eigenpairs(form, 4)
    for field in ("lambdas", "vectors", "residuals", "gram"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_indefinite_matrix_raises_and_keeps_k():
    dom = ball_domain(BoxGrid(2, -1.0, 1.0, 24), [0.0, 0.0], 0.6)
    form = assemble_form(dom, FracParams(2, 0.5, 1.0))
    lam = lowest_eigenpairs(form, 2).lambdas * form.mass
    # shift between the two lowest eigenvalues: one negative eigenvalue
    K = form.K - 0.5 * (lam[0] + lam[1]) * np.eye(form.dim)
    bad = StiffnessForm(K=K, h=form.h, n=form.n, domain=dom)
    K0 = K.copy()
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lowest_eigenpairs(bad, 2)
    assert bad.K.tobytes() == K0.tobytes()


@pytest.mark.parametrize("cells", [8, 12, 16])
def test_every_block_size_up_to_the_dimension(cells):
    """d = 5, 7, 9: m need not divide d, and m = d spans everything at once."""
    dom = interval_domain(BoxGrid(1, -2.0, 2.0, cells), -1.0, 1.0)
    form = assemble_form(dom, FracParams(1, 0.5, 1.0))
    ref = linalg.eigh(form.K, eigvals_only=True, driver="evr") / form.mass
    K0 = form.K.copy()
    for m in range(1, form.dim + 1):
        bundle = lowest_eigenpairs(form, m)
        bundle.check()
        assert bundle.residuals.max() < 1e-10
        np.testing.assert_allclose(bundle.lambdas, ref[:m], rtol=1e-12, atol=0)
        assert form.K.tobytes() == K0.tobytes()


def test_next_block_makes_up_for_zero_columns():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((12, 4)))[0]
    W = np.zeros((12, 3))
    W[:, 1] = rng.standard_normal(12)
    block = _next_block(Q, W, 3, rng)
    basis = np.hstack([Q, block])
    np.testing.assert_allclose(basis.T @ basis, np.eye(7), atol=1e-14)
