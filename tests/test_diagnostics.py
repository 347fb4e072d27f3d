import functools
import gc
import weakref

import numpy as np
import pytest

from fraclab import diagnostics, extension
from fraclab.constants import FracParams, _gauss_jacobi, one_plane_solution, slope_constant
from fraclab.diagnostics import (
    ClassifierConfig,
    GeometryError,
    ResolutionError,
    WeissCurve,
    boundary_slope,
    classify,
    density_ratio,
    flatness,
    free_boundary_set,
    weiss_curve,
    weiss_monotonicity_audit,
)
from fraclab.diagnostics import _hemisphere_rule, _trace_support
from fraclab.eigen import lowest_eigenpairs
from fraclab.extension import (ExtensionField, SlabGrid, _ball_energies, _gather, _interp,
                               _slab_stencil, extend)
from fraclab.grids import (BoxGrid, ThinDomain, _ball_counts, _in_ball, _nearest_node,
                           ball_domain, interval_domain, mask_from_indices)
from fraclab.nonlocal_form import KernelTable

from references import blow_up_rescale, windowed_ball_energies


def exact_field(grid, J, Y, s, scale=1.0):
    slab = SlabGrid(grid, J, a=1.0 - 2.0 * s, Y=Y)
    X, Yv = np.meshgrid(grid.axis_nodes(), slab.y_nodes, indexing="ij")
    U = scale * one_plane_solution(X, Yv, s)
    return ExtensionField(slab, U.reshape(slab.values_shape()))


def half_line_domain(grid):
    """Nodes with x > 0 (positivity set of the exact profile)."""
    x = grid.axis_nodes()
    keep = (x > 1e-12) & grid.interior()
    return mask_from_indices(grid, np.flatnonzero(keep))


# -- free boundary extraction ------------------------------------------------


def test_free_boundary_of_ball():
    g = BoxGrid(2, -1.0, 1.0, 48)
    dom = ball_domain(g, [0.0, 0.0], 0.6)
    fb = free_boundary_set(dom)
    fb.check()
    assert len(fb) > 20
    radii = np.hypot(fb.points[:, 0], fb.points[:, 1])
    assert np.all(np.abs(radii - 0.6) <= 2.5 * g.h)
    # normals point outward (along the position vector)
    dots = np.sum(fb.normals * fb.points / radii[:, None], axis=1)
    assert np.all(dots > 0.8)
    nrm = np.linalg.norm(fb.normals, axis=1)
    np.testing.assert_allclose(nrm, 1.0, atol=1e-12)


def test_free_boundary_of_interval():
    g = BoxGrid(1, -1.0, 1.0, 64)
    dom = interval_domain(g, -0.5, 0.5)
    fb = free_boundary_set(dom)
    assert len(fb) == 2
    xs = sorted(fb.points[:, 0])
    assert xs[0] == pytest.approx(-0.5, abs=g.h)
    assert xs[1] == pytest.approx(0.5, abs=g.h)
    signs = fb.normals[np.argsort(fb.points[:, 0]), 0]
    assert signs[0] < 0 < signs[1]


def test_a_point_without_a_normal_gets_no_slope():
    """An isolated node's smoothed gradient vanishes: it gets a nan normal, which
    FreeBoundarySet.check accepts; boundary_slope raises ResolutionError for it,
    so classify takes no slope there but gives the reason; its density and
    flatness are still measured."""
    g = BoxGrid(2, -1.0, 1.0, 20)
    mask = ball_domain(g, [-0.3, 0.0], 0.3).mask.copy()
    mask[14, 10] = True  # the node (0.4, 0)
    dom = ThinDomain(g, mask)
    fb = free_boundary_set(dom)
    fb.check()
    bare = np.flatnonzero(np.isnan(fb.normals).any(axis=1))
    assert fb.flat_indices[bare].tolist() == [14 * 21 + 10]
    assert np.isnan(fb.normals[bare]).all()
    p = FracParams(2, 0.5, 1.0)
    fields = extend([dom.mask * 1.0], SlabGrid(g, 8, a=p.a, Y=4.0))
    for k in (bare[0], bare[0] - 1):
        pc = classify(dom, fields, fb.points[k], ClassifierConfig(), p, fb.normals[k])
        assert np.isfinite(pc.density_limit) and np.isfinite(pc.flatness)
        assert (pc.reason is not None and "no normal" in pc.reason) == (k == bare[0])
        assert np.isnan(pc.slope) == (k == bare[0])
    with pytest.raises(ResolutionError, match="no normal"):
        boundary_slope(fields, fb.points[bare[0]], -fb.normals[bare[0]], p)


def test_classify_takes_the_slope_reasons_from_one_slope_call(monkeypatch):
    """A stack that holds a point without a normal costs classify one slope call
    (_slopes) for all its points and no single-point boundary_slope call; the
    point gets the reason that boundary_slope raises for it alone."""
    g = BoxGrid(2, -1.0, 1.0, 20)
    mask = ball_domain(g, [-0.3, 0.0], 0.3).mask.copy()
    mask[14, 10] = True  # the node (0.4, 0)
    dom = ThinDomain(g, mask)
    fb = free_boundary_set(dom)
    p = FracParams(2, 0.5, 1.0)
    fields = extend([dom.mask * 1.0], SlabGrid(g, 8, a=p.a, Y=4.0))
    bare = np.flatnonzero(np.isnan(fb.normals).any(axis=1))
    pick = [bare[0], bare[0] - 1]
    with pytest.raises(ResolutionError) as alone:
        boundary_slope(fields, fb.points[bare[0]], -fb.normals[bare[0]], p)
    calls, slopes = [], diagnostics._slopes
    monkeypatch.setattr(diagnostics, "_slopes", lambda *a: calls.append(len(a[1])) or slopes(*a))
    monkeypatch.setattr(diagnostics, "boundary_slope", lambda *a: calls.append("alone"))
    pcs = classify(dom, fields, fb.points[pick], ClassifierConfig(), p, fb.normals[pick])
    assert calls == [len(pick)]
    assert [pc.reason for pc in pcs] == [str(alone.value), None]
    assert np.isnan(pcs[0].slope) and np.isfinite(pcs[1].slope)


# -- density -----------------------------------------------------------------


def test_density_ratio_model_cases():
    g = BoxGrid(2, -1.0, 1.0, 64)
    x = g.axis_nodes()
    half = (x[:, None] > 1e-12) & np.ones_like(x[None, :], dtype=bool) & g.interior()
    dom_half = mask_from_indices(g, np.flatnonzero(half.ravel()))
    r = 10 * g.h
    assert density_ratio(dom_half, [0.0, 0.0], r) == pytest.approx(0.5, abs=0.08)
    full = mask_from_indices(g, np.flatnonzero(g.interior().ravel()))
    assert density_ratio(full, [0.0, 0.0], r) == pytest.approx(1.0, abs=0.08)


def test_density_ratio_guards():
    g = BoxGrid(2, -1.0, 1.0, 32)
    dom = ball_domain(g, [0.0, 0.0], 0.5)
    with pytest.raises(ResolutionError):
        density_ratio(dom, [0.0, 0.0], 2.0 * g.h)  # below the 3h floor
    with pytest.raises(GeometryError):
        density_ratio(dom, [0.9, 0.9], 0.5)  # ball exits the box
    for radii in ([2.0 * g.h, 5.0 * g.h], [5.0 * g.h, 0.5]):  # a ladder is checked whole
        with pytest.raises((ResolutionError, GeometryError)):
            density_ratio(dom, [0.9, 0.0], np.array(radii))


def test_density_ladder_equals_its_radii_one_by_one():
    g = BoxGrid(2, -1.0, 1.0, 30)
    dom = ball_domain(g, [0.03, -0.02], 0.55)
    pts = free_boundary_set(dom).points
    x0 = pts[np.argmin(((pts - [0.55, 0.0]) ** 2).sum(axis=1))]
    radii = np.geomspace(3 * g.h, 6 * g.h, 6)
    got = density_ratio(dom, x0, radii)
    assert isinstance(got, np.ndarray) and got.tolist() == [density_ratio(dom, x0, r) for r in radii]
    assert type(density_ratio(dom, x0, radii[2])) is float


@pytest.mark.parametrize("cells", [20, 30, 48])
def test_node_counts_leave_lattice_ties_outside(cells):
    """At whole-cell radii lattice nodes lie on the circle (12 of them at 5h:
    3-4-5); a node count leaves them outside at every node, whether or not h
    is exact in binary, as the exact lattice count does."""
    g = BoxGrid(2, -1.0, 1.0, cells)
    full = ThinDomain(g, g.interior())  # every node the balls reach
    radii = np.array([5.0, 6.0, 7.0, 8.0]) * g.h
    x = g.axis_nodes()
    counts = {tuple(np.rint(density_ratio(full, [x[i], x[j]], radii) * np.pi * radii**2
                            / g.h**2).astype(int).tolist())
              for i in range(8, cells - 7) for j in range(8, cells - 7)}
    assert counts == {(69, 109, 145, 193)}


def test_density_limit_is_the_same_along_a_straight_edge():
    """On 30 cells (h inexact) every node of a straight edge whose default
    ladder the walls do not clip sees the same density limit."""
    p = FracParams(2, 0.5, 1.0)
    g = BoxGrid(2, -1.0, 1.0, 30)
    x = g.axis_nodes()
    keep = (x[:, None] > 1e-12) & g.interior()
    dom = mask_from_indices(g, np.flatnonzero(keep.ravel()))
    slab = SlabGrid(g, 8, a=p.a, Y=4.0)
    U = one_plane_solution(x[:, None, None], slab.y_nodes[None, None, :], p.s)
    f = ExtensionField(slab, np.broadcast_to(U, slab.values_shape()).copy())
    edge = [[x[16], x[j]] for j in range(13, 18)]  # 12.6h or more from every wall
    limits = {classify(dom, f, x0, ClassifierConfig(), p, [-1.0, 0.0]).density_limit
              for x0 in edge}
    assert len(limits) == 1


# -- Weiss energy ------------------------------------------------------------


def test_weiss_constant_on_homogeneous_profile():
    """W(r) is constant (= lambda_tilde * omega_n / 2 after normalization) on
    the closed-form blow-up profile, to quadrature accuracy."""
    p = FracParams(1, 0.5, 1.0)
    c = slope_constant(1.0, 0.5)
    g = BoxGrid(1, -1.0, 1.0, 160)
    f = exact_field(g, 64, 4.0, 0.5, scale=c)
    radii = np.round(np.linspace(0.1, 0.4, 7) / g.h) * g.h
    cur = weiss_curve(f, [0.0], radii, p)
    rel_var = (cur.values.max() - cur.values.min()) / cur.values.mean()
    assert rel_var <= 0.06
    assert cur.values.mean() / p.lambda_tilde == pytest.approx(1.0, abs=0.05)
    # theory value carries omega_1 / 2 = 1


def test_weiss_quadratic_structure():
    """W(c*U) = c^2 * A(r) + M(r): the field enters through quadratic forms
    only, and the amplitude-independent remainder is the volume term."""
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 160)
    r = np.round(np.array([0.15, 0.25]) / g.h) * g.h
    w1 = weiss_curve(exact_field(g, 64, 4.0, 0.5, 1.0), [0.0], r, p).values
    w2 = weiss_curve(exact_field(g, 64, 4.0, 0.5, 2.0), [0.0], r, p).values
    w3 = weiss_curve(exact_field(g, 64, 4.0, 0.5, 3.0), [0.0], r, p).values
    A = (w3 - w1) / 8.0
    np.testing.assert_allclose(A, (w2 - w1) / 3.0, rtol=1e-10)
    # remainder M = volume term ~ lambda_tilde up to the staircase error in
    # the ball/positivity-set intersection
    np.testing.assert_allclose(w1 - A, p.lambda_tilde, atol=0.12 * p.lambda_tilde)


def test_weiss_energy_guards():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 16, 4.0, 0.5)
    with pytest.raises(ResolutionError):
        weiss_curve(f, [0.0], [3.0 * g.h], p)  # below the 5h floor
    with pytest.raises(GeometryError):
        weiss_curve(f, [0.9], [0.5], p)


def test_weiss_curve_requires_enough_radii():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 16, 4.0, 0.5)
    cur = weiss_curve(f, [0.0], [0.2, 0.25, 0.3, 0.35], p)  # all above 5h
    cur.check()
    with pytest.raises(ValueError):
        weiss_monotonicity_audit(
            WeissCurve(center=np.array([0.0]), radii=np.array([0.1, 0.2]),
                       values=np.array([1.0, 1.0]), s=0.5),
            holder_seminorm=1.0,
        )


def test_monotonicity_audit_on_monotone_and_dipped_curves():
    radii = np.array([0.1, 0.15, 0.2, 0.3, 0.4])
    up = WeissCurve(center=np.array([0.0]), radii=radii,
                    values=np.array([1.0, 1.1, 1.2, 1.25, 1.3]), s=0.5)
    rep = weiss_monotonicity_audit(up, holder_seminorm=1.0)
    assert rep["sigma_fit"] == 0.0
    assert rep["corrected_nondecreasing"]

    dipped = WeissCurve(center=np.array([0.0]), radii=radii,
                        values=np.array([1.0, 1.1, 1.05, 1.2, 1.3]), s=0.5)
    rep2 = weiss_monotonicity_audit(dipped, holder_seminorm=1.0)
    assert rep2["sigma_fit"] > 0.0
    assert rep2["corrected_nondecreasing"]
    # a larger Holder bound explains the same dip with a smaller sigma
    rep3 = weiss_monotonicity_audit(dipped, holder_seminorm=2.0)
    assert rep3["sigma_fit"] < rep2["sigma_fit"]


def test_homogeneous_baseline_audit_sigma_near_zero():
    p = FracParams(1, 0.5, 1.0)
    c = slope_constant(1.0, 0.5)
    g = BoxGrid(1, -1.0, 1.0, 160)
    f = exact_field(g, 64, 4.0, 0.5, scale=c)
    radii = np.round(np.linspace(0.1, 0.4, 7) / g.h) * g.h
    cur = weiss_curve(f, [0.0], radii, p)
    rep = weiss_monotonicity_audit(cur, holder_seminorm=c)
    assert rep["sigma_fit"] <= 0.05


# -- flatness ----------------------------------------------------------------


def test_flatness_small_on_exact_profile():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 256)
    c = slope_constant(1.0, 0.5)
    f = exact_field(g, 64, 4.0, 0.5, scale=c)
    for r in (0.125, 0.25):  # node-aligned radii
        eps, nu, fvec = flatness(f, [0.0], r, p)
        assert eps <= 2e-3
        assert nu[0] == pytest.approx(1.0)
        np.testing.assert_allclose(np.linalg.norm(fvec), 1.0, atol=1e-12)


def test_flatness_detects_rotated_direction_2d():
    p = FracParams(2, 0.5, 1.0)
    g = BoxGrid(2, -1.0, 1.0, 48)
    slab = SlabGrid(g, 24, a=0.0, Y=4.0)
    th = np.deg2rad(30.0)
    nu_true = np.array([np.cos(th), np.sin(th)])
    t = g.node_coords() @ nu_true
    c = slope_constant(1.0, 0.5)
    vals = np.empty((g.num_nodes, slab.J + 1))
    for j, y in enumerate(slab.y_nodes):
        vals[:, j] = c * one_plane_solution(t, y, 0.5)
    f = ExtensionField(slab, vals.reshape(slab.values_shape()))
    eps, nu, _ = flatness(f, [0.0, 0.0], 0.3, p)
    ang = np.rad2deg(np.arctan2(nu[1], nu[0]))
    assert abs(ang - 30.0) <= 360.0 / 128 + 1e-9
    assert eps < 0.15


def test_flatness_large_on_non_homogeneous_data():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 128)
    slab = SlabGrid(g, 32, a=0.0, Y=4.0)
    X, Yv = np.meshgrid(g.axis_nodes(), slab.y_nodes, indexing="ij")
    vals = np.cos(4.0 * X) * np.exp(-Yv)  # nothing like a one-plane profile
    f = ExtensionField(slab, vals.reshape(slab.values_shape()))
    eps, _, _ = flatness(f, [0.0], 0.25, p)
    assert eps > 0.3


# -- boundary slope ----------------------------------------------------------


def test_boundary_slope_exact_profile():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 256)
    c = slope_constant(1.0, 0.5)
    f = exact_field(g, 64, 4.0, 0.5, scale=c)
    al = boundary_slope(f, [0.0], [1.0], p)  # inward = +e1 here
    assert al == pytest.approx(c, rel=1e-6)


def test_boundary_slope_keeps_a_sample_on_the_wall():
    """On 20 cells of [-1, 1] the node 0.4 is 6h from the wall and 0.4 + 6h
    rounds to 1 + 2e-16: that sample is kept, so the ray has its 4 samples."""
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 20)
    x0 = g.axis_nodes()[14]
    assert x0 + 6 * g.h > 1.0
    c = slope_constant(1.0, 0.5)
    slab = SlabGrid(g, 8, a=0.0, Y=4.0)
    X, Yv = np.meshgrid(g.axis_nodes(), slab.y_nodes, indexing="ij")
    f = ExtensionField(slab, c * one_plane_solution(X - x0, Yv, 0.5))
    assert boundary_slope(f, [x0], [1.0], p) == pytest.approx(c, rel=1e-12)


def test_boundary_slope_needs_enough_window():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 16, 4.0, 0.5)
    with pytest.raises(ResolutionError):
        boundary_slope(f, [0.93], [1.0], p)  # window falls off the grid


# -- classification ----------------------------------------------------------


def test_classify_exact_profile_regular():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 256)
    c = slope_constant(1.0, 0.5)
    f = exact_field(g, 64, 4.0, 0.5, scale=c)
    dom = half_line_domain(g)
    # the default 5h..12h ladder sits inside the staircase transient; a wider
    # ladder is needed before the extrapolated density settles near 1/2
    cfg = ClassifierConfig(r_max=0.5, num_radii=6)
    # classify wants the outward normal; the positivity set is x > 0
    pc = classify(dom, f, [0.0], cfg, p, [-1.0])
    pc.check(cfg)
    assert pc.label == "regular"
    assert pc.density_limit == pytest.approx(0.5, abs=0.1)
    assert pc.flatness <= 0.05
    assert pc.slope == boundary_slope(f, [0.0], [1.0], p)
    assert pc.slope == pytest.approx(c, rel=1e-9)


def test_classify_slit_point_singular():
    p = FracParams(2, 0.5, 1.0)
    g = BoxGrid(2, -1.0, 1.0, 48)
    x = g.axis_nodes()
    inner = g.interior().copy()
    iy0 = int(np.argmin(np.abs(x)))
    inner[x >= -1e-12, iy0] = False
    dom = mask_from_indices(g, np.flatnonzero(inner.ravel()))
    bundle = lowest_eigenpairs(KernelTable(dom.grid, p.s), dom, 1)
    f = extend(bundle.full_fields(), SlabGrid(g, 16, a=0.0, Y=4.0))
    fb = free_boundary_set(dom)
    for X0 in ([0.25, 0.0], [0.5, 0.0]):
        k = int(np.argmin(((fb.points - X0) ** 2).sum(axis=1)))
        pc = classify(dom, f, X0, ClassifierConfig(), p, fb.normals[k])
        assert pc.label == "singular"
        assert pc.density_limit > 0.55


def test_classify_respects_threshold_override():
    """Same data, two thresholds: the kink-interpolation floor lands between
    them, so the label flips from undetermined to regular."""
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)  # deliberately coarse
    c = slope_constant(1.0, 0.5)
    f = exact_field(g, 24, 4.0, 0.5, scale=c)
    dom = half_line_domain(g)
    strict = classify(dom, f, [0.0],
                      ClassifierConfig(flat_threshold=1e-4, r_max=0.6, num_radii=6),
                      p, [1.0])
    loose = classify(dom, f, [0.0],
                     ClassifierConfig(flat_threshold=1.0, r_max=0.6, num_radii=6),
                     p, [1.0])
    assert strict.label == "undetermined"
    assert loose.label == "regular"


def test_classify_clips_its_ladder_to_the_box():
    """The ladder's top radius, r_max included, stays 0.95 of the distance to
    the wall; a point with no ladder above 5h raises GeometryError."""
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 24, 4.0, 0.5, scale=slope_constant(1.0, 0.5))
    dom = half_line_domain(g)
    for r_max in (None, 0.5):
        pc = classify(dom, f, [1.0 - 8 * g.h], ClassifierConfig(r_max=r_max), p, [1.0])
        assert pc.radii[0] == 5 * g.h
        assert pc.radii[-1] == pytest.approx(0.95 * 8 * g.h, rel=1e-12)
    for x0, r_max in (([1.0 - 5 * g.h], None), ([0.0], 4 * g.h)):
        with pytest.raises(GeometryError, match="no radius ladder"):
            classify(dom, f, x0, ClassifierConfig(r_max=r_max), p, [-1.0])


def test_classify_says_why_a_slope_is_missing():
    """5.5h from the wall a ladder above 5h fits, but the inward ray toward
    that wall keeps only its samples at 3h, 4h and 5h in the grid: the slope
    is nan and the classification carries boundary_slope's reason."""
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 24, 4.0, 0.5, scale=slope_constant(1.0, 0.5))
    dom = half_line_domain(g)
    pc = classify(dom, f, [1.0 - 5.5 * g.h], ClassifierConfig(), p, [-1.0])
    assert np.isnan(pc.slope) and pc.reason == "fewer than 4 slope samples inside the grid"
    assert classify(dom, f, [1.0 - 5.5 * g.h], ClassifierConfig(), p, [1.0]).reason is None


# -- fields arguments --------------------------------------------------------


def test_field_arguments_give_identical_results_in_every_form():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 24, 4.0, 0.5, scale=slope_constant(1.0, 0.5))
    calls = {
        "weiss_curve": lambda G: (lambda c: np.append(c.values, c.c_tilde))(
            weiss_curve(G, [0.0], [0.2, 0.25, 0.3, 0.35], p)),
        "flatness": lambda G: flatness(G, [0.0], 0.25, p)[0],
        "boundary_slope": lambda G: boundary_slope(G, [0.0], [1.0], p),
        "blow_up_rescale": lambda G: blow_up_rescale(G, [0.0], 0.25, 0.5).values,
    }
    for name, call in calls.items():
        ref = call(f)
        np.testing.assert_array_equal(call([f]), ref, err_msg=name)
        np.testing.assert_array_equal(call((f,)), ref, err_msg=name)
    other = exact_field(g, 12, 4.0, 0.5)
    for bad in ([], [f.trace], [f, other]):
        with pytest.raises(ValueError):
            boundary_slope(bad, [0.0], [1.0], p)


def test_a_trace_pair_is_not_a_fields_argument():
    """Every function that takes fields rejects a (grid, trace) pair: the
    diagnostics act on the extension, not on its y = 0 trace."""
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    pair = (g, exact_field(g, 24, 4.0, 0.5).trace)
    calls = (
        lambda G: weiss_curve(G, [0.0], [0.2, 0.25, 0.3, 0.35], p),
        lambda G: flatness(G, [0.0], 0.25, p),
        lambda G: boundary_slope(G, [0.0], [1.0], p),
        lambda G: blow_up_rescale(G, [0.0], 0.25, 0.5),
        lambda G: classify(half_line_domain(g), G, [0.0], ClassifierConfig(), p, [-1.0]),
    )
    for call in calls:
        with pytest.raises(ValueError, match="fields must be an ExtensionField"):
            call(pair)


# -- batched evaluation against per-direction, per-level and per-radius loops


def smooth_fields(n, count, s):
    """count extension fields of traces supported in a centred ball."""
    g = BoxGrid(n, -1.0, 1.0, 40 if n == 2 else 96)
    slab = SlabGrid(g, 16, a=1.0 - 2.0 * s, Y=4.0)
    x = g.node_coords()
    bump = np.sqrt(np.clip(0.5 - (x**2).sum(axis=1), 0.0, None))
    traces = [bump, bump * (x[:, 0] + 0.3)][:count]
    return extend([t.reshape(g.node_shape) for t in traces], slab)


def relative_samples(fields, x0, offsets, y):
    """The fields at thin-space offsets (k, n) from x0 and heights y, through
    the node-relative stencil placed at the node nearest x0."""
    slab = fields[0].slab
    node, off = _nearest_node(slab.base, x0)
    return _gather(fields, _slab_stencil(slab, offsets / slab.base.h + off, y), node)


def absolute_samples(fields, x0, offsets, y):
    """The same samples from their absolute positions (_interp)."""
    return _interp(fields, np.column_stack([np.asarray(x0, dtype=float) + offsets, y]))


def loop_blow_up(fields, x0, r, s, samples=relative_samples):
    """blow_up_rescale's values from one gather per level and field."""
    bu = blow_up_rescale(fields, x0, r, s)
    offsets = bu.xgrid.node_coords() * r
    vals = np.empty((len(offsets), bu.y_levels.size, len(fields)))
    for k, yl in enumerate(bu.y_levels):
        for ci, f in enumerate(fields):
            vals[:, k, ci] = samples([f], x0, offsets, np.full(len(offsets), yl * r))[0]
    vals *= r ** (-s)
    return bu, vals.reshape(bu.values.shape)


def loop_flatness(fields, x0, r, p, angle_count):
    """flatness with one one-plane model per direction, kept while strictly best."""
    bu, vals = loop_blow_up(fields, x0, r, p.s)
    mask = bu.ball_mask().ravel()
    M = vals.reshape(-1, bu.m)[mask]
    f = np.linalg.svd(M, full_matrices=False)[2][0]
    if np.sum(M @ f) < 0:
        f = -f
    coords = bu.xgrid.node_coords()
    pts_x = np.repeat(coords, len(bu.y_levels), axis=0)[mask]
    pts_y = np.tile(bu.y_levels, len(coords))[mask]
    if len(x0) == 1:
        nus = np.array([[1.0], [-1.0]])
    else:
        ang = 2.0 * np.pi * np.arange(angle_count) / angle_count
        nus = np.column_stack([np.cos(ang), np.sin(ang)])
    best = (np.inf, None)
    for nu in nus:
        model = slope_constant(p.lambda_penalty, p.s) * one_plane_solution(pts_x @ nu, pts_y, p.s)
        dev = M - model[:, None] * f[None, :]
        eps = float(np.sqrt((dev * dev).sum(axis=1)).max())
        if eps < best[0]:
            best = (eps, nu)
    return best[0], best[1], f


def loop_weiss(fields, x0, radii, p, samples=relative_samples):
    """The Weiss energy radius by radius, one sphere gather per radius and field."""
    grid = fields[0].slab.base
    n = grid.n
    x0 = np.asarray(x0, dtype=float)
    dirs, wts = _hemisphere_rule(n, p.a)
    supp = _trace_support([f.trace for f in fields], 1e-12).ravel()
    out = []
    for r in radii:
        e = sum(_ball_energies([f], x0, [r])[0, 0] for f in fields)
        d2 = ((grid.node_coords() - x0[None, :]) ** 2).sum(axis=1)
        inside = (d2 < r * r) & ~np.isclose(d2, r * r, rtol=1e-12, atol=0.0)  # ties outside
        meas = grid.h**n * int(np.sum(inside & supp))
        mag2 = np.zeros(len(dirs))
        for f in fields:
            gv = samples([f], x0, r * dirs[:, :n], r * dirs[:, n])[0]
            mag2 += gv * gv
        sphere = float(np.sum(wts * mag2)) * r**n * r**p.a
        out.append((2.0 * e + p.lambda_tilde * meas) / r**n
                   - 2.0 * p.s * sphere / r ** (n + 1))
    return np.array(out)


@pytest.mark.parametrize("n,count", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_batched_diagnostics_equal_their_loops(n, count):
    p = FracParams(n, 0.3, 1.0)
    fields = smooth_fields(n, count, p.s)
    h = fields[0].slab.base.h
    x0 = [0.55, 0.1][:n]  # near the edge of the support
    for r in (6 * h, 8.5 * h):
        bu, ref = loop_blow_up(fields, x0, r, p.s)
        np.testing.assert_array_equal(bu.values, ref)
        for angles in (128, 2048):  # 2048 directions take several chunks in 2d
            eps, nu, f = flatness(fields, x0, r, p, angle_count=angles)
            ref_eps, ref_nu, ref_f = loop_flatness(fields, x0, r, p, angles)
            assert eps == ref_eps
            np.testing.assert_array_equal(nu, ref_nu)
            np.testing.assert_array_equal(f, ref_f)
    radii = np.array([5.0, 6.0, 7.0, 8.5]) * h
    ref = loop_weiss(fields, x0, radii, p)
    got = weiss_curve(fields, x0, radii[::-1], p).values  # the sphere forms regroup sums
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    assert [weiss_curve(fields, x0, [r], p).values[0] for r in radii] == got.tolist()


@pytest.mark.parametrize("n", [1, 2])
def test_node_relative_stencils_match_absolute_interpolation(n):
    """Weiss values and blow-up values from the node-relative stencils agree
    with sampling the absolute points (_interp) to 1e-14 relative, at a node
    center and off a node."""
    p = FracParams(n, 0.3, 1.0)
    fields = smooth_fields(n, 2, p.s)
    base = fields[0].slab.base
    h = base.h
    node = base.axis_nodes()[[int(0.75 * base.cells_per_axis), 20][:n]]
    radii = np.array([5.0, 6.0, 7.0, 8.5]) * h
    for x0, on_node in ((node, True), (node + np.array([0.37, -0.21])[:n] * h, False)):
        assert (_nearest_node(base, x0)[1] == (0.0,) * n) == on_node
        want = loop_weiss(fields, x0, radii, p, samples=absolute_samples)
        got = weiss_curve(fields, x0, radii, p).values
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        for r in (6 * h, 8.5 * h):
            _, want = loop_blow_up(fields, x0, r, p.s, samples=absolute_samples)
            got = blow_up_rescale(fields, x0, r, p.s).values
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2])
def test_a_blow_up_window_on_the_wall_is_sampled_at_its_points(n, monkeypatch):
    """A blow-up window that touches the box wall reaches past the footprint
    from its node, so its samples are interpolated from their absolute points."""
    p = FracParams(n, 0.3, 1.0)
    fields = smooth_fields(n, 2, p.s)
    x0, r = np.array([0.75, 0.0])[:n], 0.25  # x0 + r = 1, offsets whole cells
    calls = []
    monkeypatch.setattr(extension, "_interp", lambda *a: calls.append(1) or _interp(*a))
    got = blow_up_rescale(fields, x0, r, p.s).values
    assert calls == [1]
    _, want = loop_blow_up(fields, x0, r, p.s, samples=absolute_samples)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2])
def test_a_blow_up_window_obeys_the_ball_rule(n):
    """A blow-up window is a ball and fits in the box as every ball must
    (_check_ball): one past the wall, by more than 1e-12, and one about a center
    of the wrong dimension raise GeometryError for flatness and blow_up_rescale."""
    p = FracParams(n, 0.3, 1.0)
    fields = smooth_fields(n, 1, p.s)
    for x0, r in ((np.array([0.75, 0.0])[:n], 0.25 + 1e-9), (np.zeros(n + 1), 0.25)):
        reason = "design box" if len(x0) == n else "dimension"
        with pytest.raises(GeometryError, match=reason):
            flatness(fields, x0, r, p)
        with pytest.raises(GeometryError, match=reason):
            blow_up_rescale(fields, x0, r, p.s)


def test_stencil_caches_hold_no_slab_and_key_the_levels():
    """The diagnostics keep no slab alive after an evaluation, and a slab whose
    y_nodes differ (as gridio.read_slab_field may set them) gets its own index
    sets."""
    p = FracParams(2, 0.3, 1.0)
    fields = smooth_fields(2, 1, p.s)
    h = fields[0].slab.base.h
    x0, radii = [0.55, 0.1], np.array([5.0, 6.0, 7.0, 8.5]) * h
    weiss_curve(fields, x0, radii, p)
    flatness(fields, x0, 6 * h, p)
    slab = SlabGrid(fields[0].slab.base, 16, a=p.a, Y=4.0)
    slab.y_nodes = slab.y_nodes * (1.0 + 0.01 * np.arange(slab.J + 1) / slab.J)
    moved = [ExtensionField(slab, fields[0].values)]
    for samples in (relative_samples, absolute_samples):
        want = loop_weiss(moved, x0, radii, p, samples=samples)
        assert np.all(np.abs(weiss_curve(moved, x0, radii, p).values - want)
                      <= 1e-14 * np.abs(want))
    alive = weakref.ref(fields[0].slab), weakref.ref(slab)
    del fields, moved, slab
    gc.collect()
    assert alive[0]() is None and alive[1]() is None


def test_weiss_from_the_sphere_forms_equals_the_per_sample_sums(monkeypatch):
    """On one slab layout (its levels graded alike) under two weight exponents,
    Weiss values equal the per-sample sums of loop_weiss to 1e-14 relative, on a
    node, off one, and on a ladder whose largest sphere touches the box wall. The
    rule's samples lie strictly inside the ball, so that ladder's forms stay in
    the footprint and nothing is interpolated from absolute points. Each curve
    finds its ball edges once, and the edge sets hold no conductance, so both
    exponents ask for the same three."""
    g = BoxGrid(2, -1.0, 1.0, 40)
    x = g.node_coords()
    bump = np.sqrt(np.clip(0.5 - (x**2).sum(axis=1), 0.0, None))
    traces = [bump.reshape(g.node_shape), (bump * (x[:, 0] + 0.3)).reshape(g.node_shape)]
    ladders = [([0.55, 0.1], 8.5 * g.h), ([0.55 + 0.3 * g.h, 0.1 - 0.2 * g.h], 8.5 * g.h),
               ([0.6, 0.1], 0.4)]  # 0.6 + 0.4 = 1: the wall
    calls, builds, ball_edges = [], [], extension._ball_edges
    monkeypatch.setattr(extension, "_interp", lambda *a: calls.append(1) or _interp(*a))
    monkeypatch.setattr(extension, "_ball_edges", lambda *key: builds.append(key)
                        or ball_edges(*key))
    cases = []
    for s in (0.3, 0.6):
        p = FracParams(2, s, 1.0)
        fields = extend(traces, SlabGrid(g, 16, a=p.a, Y=4.0, gamma=2.5))
        for x0, top in ladders:
            radii = np.linspace(5 * g.h, top, 4)
            cases.append((fields, x0, radii, p, weiss_curve(fields, x0, radii, p).values))
    # the build keys without the slab; the radii as a tuple, since arrays do not hash
    assert calls == [] and len(builds) == 6
    assert len({(tuple(radii), f) for _, radii, f in builds}) == 3
    assert len({case[0][0].slab.a for case in cases}) == 2
    for fields, x0, radii, p, got in cases:
        for samples in (relative_samples, absolute_samples):
            want = loop_weiss(fields, x0, radii, p, samples=samples)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("n,cells", [(2, 20), (2, 29), (2, 30), (2, 48), (1, 30)])
def test_ball_node_counts_equal_brute_force_at_every_node(n, cells):
    """Node counts from the node sets (_ball_counts) equal _in_ball counts
    over every node's distance, for a ladder with lattice ties (5h: 3-4-5), at
    every node whose ladder fits in the box and at points off a node. On 29
    cells the node-relative squared distances of the ties round below (5h)^2,
    so there the tie rule decides."""
    g = BoxGrid(n, -1.0, 1.0, cells)
    rng = np.random.default_rng(cells)
    flags = rng.random(g.node_shape) < 0.6
    radii = [5.0 * g.h, 3.0 * g.h, 4.5 * g.h, 5.0 * g.h, 3.7 * g.h]
    nodes = g.node_coords()
    fits = np.all((nodes - 5 * g.h >= g.lower - 1e-12)
                  & (nodes + 5 * g.h <= g.upper + 1e-12), axis=1)
    off = nodes[fits] + rng.uniform(-0.5, 0.5, (np.count_nonzero(fits), n)) * g.h
    off = off[np.all((off - 5 * g.h >= g.lower) & (off + 5 * g.h <= g.upper), axis=1)]
    for x0 in np.concatenate([nodes[fits], off]):
        d2 = functools.reduce(np.add.outer, [(g.axis_nodes() - c) ** 2 for c in x0])
        want = [np.count_nonzero(_in_ball(d2, r) & flags) for r in radii]
        assert _ball_counts(g, x0, radii, flags).tolist() == want


def test_flatness_equals_its_loop_across_layouts_and_parameters(monkeypatch):
    """Two blow-up radii, on and off a node, then the same blow-ups under a new s
    and a new Lambda, and last a window on the wall, whose ball points are
    interpolated from their absolute positions: each call builds its model once,
    and flatness equals the per-direction loop bit for bit."""
    fields = smooth_fields(2, 2, 0.3)
    h = fields[0].slab.base.h
    builds, model = [], diagnostics._blow_up_model
    monkeypatch.setattr(diagnostics, "_blow_up_model", lambda *key: builds.append(key)
                        or model(*key))
    cases = [(p, x0, r) for p in (FracParams(2, 0.3, 1.0), FracParams(2, 0.45, 1.0),
                                  FracParams(2, 0.45, 2.5))
             for x0 in ([0.55, 0.1], [0.55 + 0.3 * h, 0.1]) for r in (6 * h, 8.5 * h)]
    calls = []
    monkeypatch.setattr(extension, "_interp", lambda *a: calls.append(1) or _interp(*a))
    for p, x0, r in cases + [(FracParams(2, 0.3, 1.0), [0.75, 0.0], 0.25)]:
        before = len(calls)
        eps, nu, f = flatness(fields, x0, r, p)
        assert (len(calls) > before) == (x0 == [0.75, 0.0])  # the wall window alone
        ref_eps, ref_nu, ref_f = loop_flatness(fields, x0, r, p, 128)
        assert eps == ref_eps
        np.testing.assert_array_equal(nu, ref_nu)
        np.testing.assert_array_equal(f, ref_f)
    assert len(builds) == 13


def test_flatness_returns_the_first_of_equal_directions(monkeypatch):
    """With a direction-blind model every direction ties; the first is kept."""
    p = FracParams(2, 0.3, 1.0)
    fields = smooth_fields(2, 2, p.s)
    build = diagnostics._blow_up_model
    monkeypatch.setattr(diagnostics, "_blow_up_model", lambda *key: (
        lambda mask, nus, model: (mask, nus, np.ones_like(model)))(*build(*key)))
    for angles in (128, 2048):
        eps, nu, _ = flatness(fields, [0.55, 0.1], 0.3, p, angle_count=angles)
        assert np.isfinite(eps) and nu.tolist() == [1.0, 0.0]


@pytest.fixture(scope="module", params=["disk", "wall"])
def diagnose_case(request):
    """A mask, its two lowest eigenfunctions' extension fields and its free
    boundary, as diagnose meets them on 32^2: a disk with a seeded wavy boundary
    (the diagnose benchmark's kind), or a disk within 5h of the box wall."""
    g = BoxGrid(2, -1.0, 1.0, 32)
    if request.param == "disk":
        rng = np.random.default_rng(5)
        X, Y = np.meshgrid(g.axis_nodes(), g.axis_nodes(), indexing="ij")
        theta = np.arctan2(Y, X)
        wave = sum(a * np.cos(k * theta + ph) for k, a, ph in
                   zip((2, 3, 4), rng.uniform(-0.02, 0.02, 3), rng.uniform(0, 2 * np.pi, 3)))
        dom = ThinDomain(g, (X**2 + Y**2 <= (0.42 * (1 + wave)) ** 2) & g.interior())
    else:
        dom = ball_domain(g, [0.3, 0.0], 0.39)
    p = FracParams(2, 0.5, 10.0)
    fields = extend(lowest_eigenpairs(KernelTable(g, p.s), dom, 2).full_fields(),
                    SlabGrid(g, 8, a=p.a))
    return dom, fields, free_boundary_set(dom), p


def test_a_batch_equals_its_points_alone_and_the_references(diagnose_case):
    """Every point of a batch, grouped by Weiss ladder as diagnose groups them
    (plus a group moved off the nodes, one offset each), gets bit for bit what it
    gets alone: Weiss values, ball energies, densities, flatness, slopes and the
    classification; the ball energies equal the windowed reference bit for bit,
    the Weiss values the per-sample sphere quadrature from absolute points
    (_interp) to 1e-14, and flatness, on every third point, the per-direction
    loop over the blow_up_rescale reference bit for bit."""
    dom, fields, fb, p = diagnose_case
    g, h = dom.grid, dom.grid.h
    X, normals = fb.points, fb.normals
    tops = diagnostics._ladder_top(g, X, 8 * h)
    inner = np.flatnonzero(tops == 8 * h)[:4]
    moved = X[inner] + np.random.default_rng(1).uniform(-0.4, 0.4, (len(inner), 2)) * h
    groups = [(X[idx], np.linspace(5 * h, top, 4)) for top, idx in
              diagnostics._groups(tops.tolist()) if top >= 5 * h]
    assert len(groups) > (dom.grid.upper - np.abs(X).max() < 8 * h)
    for pts, radii in groups + [(moved, np.linspace(5 * h, 7 * h, 4))]:
        curves = weiss_curve(fields, pts, radii, p)
        energies = _ball_energies(fields, pts, radii)
        ratios = density_ratio(dom, pts, radii)
        for x, cur, e, q in zip(pts, curves, energies.transpose(1, 0, 2), ratios):
            assert cur.values.tolist() == weiss_curve(fields, x, radii, p).values.tolist()
            want = loop_weiss(fields, x, radii, p, samples=absolute_samples)
            assert np.all(np.abs(cur.values - want) <= 1e-14 * np.abs(want))
            assert e.tolist() == windowed_ball_energies(fields, x, radii).tolist()
            assert q.tolist() == density_ratio(dom, x, radii).tolist()
    eps, nus, fs = flatness(fields, X, 5 * h, p)
    slopes = boundary_slope(fields, X, -normals, p)
    fits = diagnostics._classifier_tops(g, X, ClassifierConfig()) > 5 * h
    labels = classify(dom, fields, X[fits], ClassifierConfig(), p, normals[fits])
    for k, (x, nu) in enumerate(zip(X, normals)):
        alone = flatness(fields, x, 5 * h, p)
        assert (eps[k], nus[k].tolist(), fs[k].tolist()) == (
            alone[0], alone[1].tolist(), alone[2].tolist())
        if k % 3 == 0:
            ref = loop_flatness(fields, x, 5 * h, p, 128)
            assert (eps[k], nus[k].tolist(), fs[k].tolist()) == (
                ref[0], ref[1].tolist(), ref[2].tolist())
        try:
            assert slopes[k] == boundary_slope(fields, x, -nu, p)
        except ResolutionError:
            assert np.isnan(slopes[k])
    for x, nu, pc in zip(X[fits], normals[fits], labels):
        alone = classify(dom, fields, x, ClassifierConfig(), p, nu)
        assert (pc.label, pc.density_limit, pc.flatness, pc.reason, pc.ratios.tolist(),
                pc.radii.tolist()) == (alone.label, alone.density_limit, alone.flatness,
                                       alone.reason, alone.ratios.tolist(), alone.radii.tolist())
        assert pc.slope == alone.slope or np.isnan(pc.slope) and np.isnan(alone.slope)


def test_a_chunk_of_one_point_equals_the_whole_batch(diagnose_case, monkeypatch):
    """A ladder group's per-cell sphere sums (_quadratic) and Weiss values are the
    same bits in one chunk and in two, the last of which holds one point."""
    dom, fields, fb, p = diagnose_case
    h = dom.grid.h
    tops = diagnostics._ladder_top(dom.grid, fb.points, 8 * h)
    pts, radii = fb.points[tops == 8 * h][:5], np.linspace(5 * h, 8 * h, 4)
    quadratic, sums = diagnostics._quadratic, []
    monkeypatch.setattr(diagnostics, "_quadratic", lambda forms, u: sums.append(
        quadratic(forms, u)) or sums[-1])
    runs = []
    for split in (lambda idx: [idx], lambda idx: [idx[:-1], idx[-1:]]):
        monkeypatch.setattr(diagnostics, "_chunks", lambda idx, point_bytes: split(idx))
        runs.append([c.values.tolist() for c in weiss_curve(fields, pts, radii, p)])
    assert runs[0] == runs[1]
    k = len(fields)
    assert len(sums) == 3 * k and sums[0].shape[1] == len(pts)
    for whole, head, lone in zip(sums[:k], sums[k:2 * k], sums[2 * k:]):
        assert whole.tolist() == np.hstack([head, lone[:, :1]]).tolist()


def test_weiss_energy_keeps_its_guards_and_empty_support():
    p = FracParams(2, 0.3, 1.0)
    fields = smooth_fields(2, 1, p.s)
    h = fields[0].slab.base.h
    with pytest.raises(ResolutionError):
        weiss_curve(fields, [0.0, 0.0], [0.3, 4.0 * h], p)
    with pytest.raises(GeometryError, match="design box"):
        weiss_curve(fields, [0.9, 0.0], [0.3, 0.35], p)
    zero = [ExtensionField(fields[0].slab, np.zeros_like(fields[0].values))]
    assert weiss_curve(zero, [0.0, 0.0], [0.3], p).values.tolist() == [0.0]
    assert weiss_curve(zero, [0.0, 0.0], [0.3, 0.4], p).values.tolist() == [0.0, 0.0]


# -- numpy stand-ins for scipy.special and scipy.ndimage, against those and mpmath


@pytest.mark.parametrize("s", [0.2, 0.8, 0.95])
def test_gauss_jacobi_matches_mpmath_golub_welsch(s):
    mpmath = pytest.importorskip("mpmath")
    a = 1.0 - 2.0 * s
    for alpha, beta in (((a - 1.0) / 2.0, (a - 1.0) / 2.0), (0.0, a)):  # n = 1, n = 2
        x, w = _gauss_jacobi(48, alpha, beta)
        with mpmath.workdps(40):
            X, W = mpmath.gauss_quadrature(48, "jacobi", alpha, beta)
            xr = np.array([float(v) for v in X])
            wr = np.array([float(v) for v in W])
        assert np.abs(x - xr).max() <= 1e-15
        assert np.abs(w / wr - 1.0).max() <= 1e-12


def test_free_boundary_normals_match_ndimage_smoothing():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(3)
    for n, cells in ((1, 60), (2, 30)):
        g = BoxGrid(n, -1.0, 1.0, cells)
        keep = np.flatnonzero(g.interior().ravel() & (rng.random(g.num_nodes) < 0.6))
        dom = mask_from_indices(g, keep)
        fb = free_boundary_set(dom)
        smooth = dom.mask.astype(float)
        for ax in range(n):
            smooth = ndimage.correlate1d(smooth, [0.25, 0.5, 0.25], axis=ax, mode="constant")
        grads = np.gradient(smooth, g.h, edge_order=1)
        gvec = np.stack([gr.ravel()[fb.flat_indices] for gr in (grads if n > 1 else [grads])],
                        axis=1)
        norms = np.linalg.norm(gvec, axis=1)
        ok = norms > 1e-14
        np.testing.assert_array_equal(fb.normals[ok], -gvec[ok] / norms[ok, None])
