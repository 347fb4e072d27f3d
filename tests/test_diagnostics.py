import numpy as np
import pytest

from fraclab import diagnostics
from fraclab.constants import FracParams, one_plane_solution, slope_constant
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
    nondegeneracy_scan,
    support_coincidence,
    weiss_curve,
    weiss_energy,
    weiss_monotonicity_audit,
)
from fraclab.diagnostics import _component_sizes, _gauss_jacobi, _hemisphere_rule
from fraclab.eigen import lowest_eigenpairs
from fraclab.extension import ExtensionField, SlabGrid, _trace_support, ball_energy, extend
from fraclab.grids import BoxGrid, ball_domain, interval_domain, mask_from_indices
from fraclab.nonlocal_form import assemble_form
from fraclab.shape_opt import blow_up_rescale


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
        weiss_energy(f, [0.0], 3.0 * g.h, p)  # below the 5h floor
    with pytest.raises(GeometryError):
        weiss_energy(f, [0.9], 0.5, p)


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


def test_boundary_slope_needs_enough_window():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 16, 4.0, 0.5)
    with pytest.raises(ResolutionError):
        boundary_slope(f, [0.93], [1.0], p)  # window falls off the grid


# -- nondegeneracy -----------------------------------------------------------


def test_nondegeneracy_scan_structure():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -2.0, 2.0, 128)
    dom = interval_domain(g, -1.0, 1.0)
    bundle = lowest_eigenpairs(assemble_form(dom, p), 1)
    fb = free_boundary_set(dom)
    radii = [6 * g.h, 9 * g.h, 12 * g.h]
    rep = nondegeneracy_scan((g, bundle.full_fields()), fb, radii, p)
    assert set(rep) >= {"constants", "not_on_boundary", "min", "median"}
    arr = np.asarray(rep["constants"])
    assert arr.shape == (fb.points.shape[0],)
    assert rep["min"] > 0.0
    assert rep["median"] >= rep["min"]
    with pytest.raises(ResolutionError):
        nondegeneracy_scan((g, bundle.full_fields()), fb, [2.0 * g.h], p)
    # off-boundary points are flagged, not rejected
    rep2 = nondegeneracy_scan((g, bundle.full_fields()), fb, radii, p,
                              points=[[0.33 * g.h + 0.5]])
    assert rep2["not_on_boundary"].all()


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
    bundle = lowest_eigenpairs(assemble_form(dom, p), 1)
    f = [extend(v, SlabGrid(g, 16, a=0.0, Y=4.0)) for v in bundle.full_fields()]
    for X0 in ([0.25, 0.0], [0.5, 0.0]):
        pc = classify(dom, f, X0, ClassifierConfig(), p, None)
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


# -- support coincidence -----------------------------------------------------


def test_support_coincidence_full_support():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -2.0, 2.0, 128)
    dom = interval_domain(g, -1.0, 1.0)
    bundle = lowest_eigenpairs(assemble_form(dom, p), 2)
    fracs, low = support_coincidence(bundle, dom)
    assert fracs.shape == (2,)
    assert np.all(fracs < 0.05)
    assert not low


def test_support_coincidence_flags_tiny_component():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -2.0, 2.0, 64)
    x = g.axis_nodes()
    keep = ((x > -1.0) & (x < 0.2)) | ((x > 1.45) & (x < 1.58))  # 2-cell island
    keep &= g.interior()
    dom = mask_from_indices(g, np.flatnonzero(keep))
    bundle = lowest_eigenpairs(assemble_form(dom, p), 1)
    _, low = support_coincidence(bundle, dom)
    assert low


# -- fields arguments --------------------------------------------------------


def test_field_arguments_give_identical_results_in_every_form():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 24, 4.0, 0.5, scale=slope_constant(1.0, 0.5))
    fb = free_boundary_set(half_line_domain(g))
    calls = {
        "weiss_energy": lambda G: weiss_energy(G, [0.0], 0.2, p),
        "weiss_curve": lambda G: (lambda c: np.append(c.values, c.c_tilde))(
            weiss_curve(G, [0.0], [0.2, 0.25, 0.3, 0.35], p)),
        "flatness": lambda G: flatness(G, [0.0], 0.25, p)[0],
        "boundary_slope": lambda G: boundary_slope(G, [0.0], [1.0], p),
        "nondegeneracy_scan": lambda G: nondegeneracy_scan(
            G, fb, [6 * g.h, 9 * g.h], p)["constants"],
        "blow_up_rescale": lambda G: blow_up_rescale(G, [0.0], 0.25, 0.5).values,
    }
    trace_only = {"boundary_slope", "nondegeneracy_scan"}
    for name, call in calls.items():
        ref = call(f)
        np.testing.assert_array_equal(call([f]), ref, err_msg=name)
        np.testing.assert_array_equal(call((f,)), ref, err_msg=name)
        if name in trace_only:
            np.testing.assert_array_equal(call((g, f.trace)), ref, err_msg=name)
            np.testing.assert_array_equal(call((g, f.trace[None])), ref, err_msg=name)
    for name in ("weiss_energy", "weiss_curve"):
        with pytest.raises(ValueError, match="needs extension fields"):
            calls[name]((g, f.trace))
    for bad in ([], [f.trace], (g, np.zeros(5))):
        with pytest.raises(ValueError):
            boundary_slope(bad, [0.0], [1.0], p)


def test_trace_pair_is_the_y0_slice_of_the_blow_up():
    g = BoxGrid(1, -1.0, 1.0, 64)
    f = exact_field(g, 24, 4.0, 0.5)
    full = blow_up_rescale(f, [0.0], 0.25, 0.5)
    pair = blow_up_rescale((g, f.trace), [0.0], 0.25, 0.5)
    assert pair.y_levels.tolist() == [0.0]
    np.testing.assert_allclose(pair.values[:, 0], full.values[:, 0], rtol=0, atol=1e-15)


def test_flatness_and_classify_accept_a_trace_pair():
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -1.0, 1.0, 256)
    f = exact_field(g, 64, 4.0, 0.5, scale=slope_constant(1.0, 0.5))
    pair = (g, f.trace)
    eps, nu, fvec = flatness(pair, [0.0], 0.25, p)
    assert eps <= 0.05 and nu.tolist() == [1.0] and fvec.tolist() == [1.0]
    cfg = ClassifierConfig(r_max=0.5, num_radii=6)
    pc = classify(half_line_domain(g), pair, [0.0], cfg, p, [-1.0])  # outward normal
    assert pc.label == "regular"
    assert pc.flatness == flatness(pair, [0.0], pc.radii[0], p)[0]
    assert pc.slope == boundary_slope(f, [0.0], [1.0], p) > 0


# -- batched evaluation against per-direction, per-level and per-radius loops


def smooth_fields(n, count, s):
    """count extension fields of traces supported in a centred ball."""
    g = BoxGrid(n, -1.0, 1.0, 40 if n == 2 else 96)
    slab = SlabGrid(g, 16, a=1.0 - 2.0 * s, Y=4.0)
    x = g.node_coords()
    bump = np.sqrt(np.clip(0.5 - (x**2).sum(axis=1), 0.0, None))
    traces = [bump, bump * (x[:, 0] + 0.3)][:count]
    return [extend(t.reshape(g.node_shape), slab) for t in traces]


def loop_blow_up(fields, x0, r, s):
    """blow_up_rescale's values from one interp per level and field."""
    bu = blow_up_rescale(fields, x0, r, s)
    pts_x = bu.xgrid.node_coords() * r + np.asarray(x0, dtype=float)
    vals = np.empty((len(pts_x), bu.y_levels.size, len(fields)))
    for k, yl in enumerate(bu.y_levels):
        q = np.column_stack([pts_x, np.full(len(pts_x), yl * r)])
        for ci, f in enumerate(fields):
            vals[:, k, ci] = f.interp(q)
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


def loop_weiss(fields, x0, radii, p):
    """The Weiss energy radius by radius, one sphere gather per radius and field."""
    grid = fields[0].slab.base
    n = grid.n
    x0 = np.asarray(x0, dtype=float)
    dirs, wts = _hemisphere_rule(n, p.a)
    supp = _trace_support([f.trace for f in fields], 1e-12).ravel()
    out = []
    for r in radii:
        e = sum(ball_energy(f, x0, r) for f in fields)
        inside = ((grid.node_coords() - x0[None, :]) ** 2).sum(axis=1) < r * r
        meas = grid.h**n * int(np.sum(inside & supp))
        pts = np.column_stack([x0[None, :] + r * dirs[:, :n], r * dirs[:, n]])
        mag2 = np.zeros(len(dirs))
        for f in fields:
            gv = f.interp(pts)
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
    np.testing.assert_array_equal(weiss_curve(fields, x0, radii[::-1], p).values, ref)
    assert [weiss_energy(fields, x0, r, p) for r in radii] == ref.tolist()


def test_flatness_returns_the_first_of_equal_directions(monkeypatch):
    """With a direction-blind model every direction ties; the first is kept."""
    p = FracParams(2, 0.3, 1.0)
    fields = smooth_fields(2, 2, p.s)
    monkeypatch.setattr(diagnostics, "one_plane_solution", lambda t, z, s: np.ones_like(t))
    for angles in (128, 2048):
        eps, nu, _ = flatness(fields, [0.55, 0.1], 0.3, p, angle_count=angles)
        assert np.isfinite(eps) and nu.tolist() == [1.0, 0.0]


def test_weiss_energy_keeps_its_guards_and_empty_support():
    p = FracParams(2, 0.3, 1.0)
    fields = smooth_fields(2, 1, p.s)
    h = fields[0].slab.base.h
    with pytest.raises(ResolutionError):
        weiss_curve(fields, [0.0, 0.0], [0.3, 4.0 * h], p)
    with pytest.raises(GeometryError, match="design box"):
        weiss_curve(fields, [0.9, 0.0], [0.3, 0.35], p)
    zero = [ExtensionField(fields[0].slab, np.zeros_like(fields[0].values))]
    assert weiss_energy(zero, [0.0, 0.0], 0.3, p) == 0.0
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


def test_component_sizes_match_ndimage_label():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(5)
    for shape in ((80,), (40, 40), (9, 10, 11)):
        for density in (0.3, 0.55, 0.8):
            m = np.pad(rng.random(shape) < density, 1)  # masks leave the outer layer empty
            labels, count = ndimage.label(m, ndimage.generate_binary_structure(m.ndim, 1))
            ref = np.bincount(labels.ravel())[1:]
            assert sorted(_component_sizes(m)) == sorted(ref.tolist())
    snake = np.zeros((15, 15), dtype=bool)  # one 61-cell path: many propagation rounds
    snake[1::4, 1:-1] = True
    snake[2:5, -2] = snake[6:9, 1] = snake[10:13, -2] = True
    assert ndimage.label(snake)[1] == 1 and _component_sizes(snake).tolist() == [61]
