"""Acceptance gate: one test per release criterion.

Each test is self-contained, pins its own configuration (resolutions, seeds,
penalties), and asserts the quantitative bar for that criterion.  Run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.
"""

import json
import time

import numpy as np
import pytest
from scipy import linalg

from fraclab.checks import (
    bump,
    energy_mismatch,
    interval_bundle,
    profile_identity_defect,
    residual_order,
    scaling_defect,
)
from fraclab.constants import FracParams, one_plane_solution, slope_constant
from fraclab.diagnostics import (
    boundary_slope,
    density_ratio,
    free_boundary_set,
    support_coincidence,
    weiss_curve,
    weiss_monotonicity_audit,
)
from fraclab.eigen import lowest_eigenpairs, sup_bound_check
from fraclab.extension import ExtensionField, SlabGrid, extend
from fraclab.grids import BoxGrid, mask_from_indices
from fraclab.nonlocal_form import assemble_form, kernel_table
from fraclab.shape_opt import OptimizerConfig, optimize


def bump_trace(x, seed):
    """Smooth compactly supported trace on (-1, 1) with seeded coefficients."""
    c = np.random.default_rng(seed).normal(size=3)
    return bump(x) * (c[0] + c[1] * x + 0.5 * c[2] * np.sin(3.0 * x))


def holder_estimate(grid, values, s):
    """Subsampled sup over node pairs of |v(x)-v(y)| / |x-y|^s."""
    x = grid.node_coords()
    v = np.asarray(values, dtype=float).ravel()
    best = 0.0
    sub = np.arange(0, grid.num_nodes)
    for i in sub[:: max(1, len(sub) // 400)]:
        d = np.linalg.norm(x - x[i], axis=1)
        m = d > 0
        best = max(best, np.max(np.abs(v[m] - v[i]) / d[m] ** s))
    return best


def model_field(grid, J, Y, s, amplitude):
    slab = SlabGrid(grid, J, a=1.0 - 2.0 * s, Y=Y)
    X, Yv = np.meshgrid(grid.axis_nodes(), slab.y_nodes, indexing="ij")
    U = amplitude * one_plane_solution(X, Yv, s)
    return ExtensionField(slab, U.reshape(slab.values_shape()))


def test_criterion_01_extension_energy_matches_seminorm():
    """d_s times the slab energy reproduces the quadratic form on 10 random
    traces within 5% and improves under one joint refinement step."""
    t_start = time.perf_counter()
    resolutions = ((512, 64, 4.0), (1024, 128, 8.0))
    for s in (0.3, 0.5, 0.7):
        mismatch = np.empty((10, 2))
        for rj, (cells, J, Y) in enumerate(resolutions):
            g = BoxGrid(1, -2.0, 2.0, cells)
            traces = [bump_trace(g.axis_nodes(), seed) for seed in range(10)]
            mismatch[:, rj] = energy_mismatch(traces, SlabGrid(g, J, a=1.0 - 2.0 * s, Y=Y), s)
        assert mismatch[:, 0].max() <= 0.05, f"s={s}: {mismatch[:, 0].max():.4f}"
        assert np.all(mismatch[:, 1] < mismatch[:, 0]), f"s={s}: not decreasing"
    assert time.perf_counter() - t_start <= 120.0


def test_criterion_02_single_interval_minimizes_among_splits():
    """Greedy search lands on a unit-measure interval, and exhaustive
    enumeration confirms no equal-cell-count two-interval mask beats it."""
    t_start = time.perf_counter()
    p = FracParams(1, 0.5, 2.3)
    g = BoxGrid(1, -1.0, 1.0, 64)
    h = g.h
    tr = optimize(g, OptimizerConfig(m=1, Lambda=2.3, schedule="greedy", seed=11), p)
    assert tr.certified
    assert 0.8 <= tr.best_mask.measure <= 1.2

    kt = kernel_table(g, 0.5)
    interior = np.flatnonzero(g.interior().ravel())
    lo, hi = interior[0], interior[-1]

    def obj_of(idx):
        K = kt.stiffness(idx)
        lam = linalg.eigh(K, subset_by_index=(0, 0), eigvals_only=True,
                          driver="evr")[0] / h
        return lam + 2.3 * h * idx.size

    best_single = min(
        obj_of(np.arange(i, j + 1))
        for i in range(lo, hi + 1)
        for j in range(i, hi + 1)
    )
    assert best_single == pytest.approx(tr.best_objective, abs=1e-9)

    kstar = round(tr.best_mask.measure / h)
    best_two = np.inf
    for k1 in range(1, kstar // 2 + 1):
        k2 = kstar - k1
        for i1 in range(lo, hi - k1 - k2):
            for i2 in range(i1 + k1 + 1, hi - k2 + 2):
                idx = np.concatenate(
                    [np.arange(i1, i1 + k1), np.arange(i2, i2 + k2)]
                )
                best_two = min(best_two, obj_of(idx))
    assert best_single < best_two
    assert time.perf_counter() - t_start <= 600.0


def test_criterion_03_weiss_constant_on_model_profile():
    """The localized scaled energy of the model profile at the model amplitude
    is flat in r: within 10% at base resolution, 5% after refinement."""
    t_start = time.perf_counter()
    p = FracParams(1, 0.5, 1.0)
    amp = slope_constant(1.0, 0.5)
    rel_vars = []
    for cells, J in ((160, 64), (320, 128)):
        g = BoxGrid(1, -1.0, 1.0, cells)
        f = model_field(g, J, 4.0, 0.5, amp)
        radii = np.round(np.linspace(0.1, 0.4, 7) / g.h) * g.h
        cur = weiss_curve(f, [0.0], radii, p)
        rel_vars.append(
            (cur.values.max() - cur.values.min()) / abs(cur.values.mean())
        )
    assert rel_vars[0] <= 0.10, f"base variation {rel_vars[0]:.4f}"
    assert rel_vars[1] <= 0.05, f"refined variation {rel_vars[1]:.4f}"
    assert time.perf_counter() - t_start <= 60.0


def test_criterion_04_monotonicity_deficit_stable_under_refinement():
    """The fitted almost-monotonicity deficit sigma stays finite and does not
    grow when h is refined, across >= 5 optimized-domain endpoints."""
    endpoints = 0
    for Lam in (1.5, 2.3, 3.5):
        p = FracParams(1, 0.5, Lam)
        sig_by_res = []
        for cells, J in ((128, 48), (256, 96)):
            g = BoxGrid(1, -1.0, 1.0, cells)
            tr = optimize(
                g, OptimizerConfig(m=1, Lambda=Lam, schedule="greedy", seed=3), p
            )
            dom = tr.best_mask
            bundle = lowest_eigenpairs(assemble_form(dom, p), 1)
            f = extend(bundle.full_fields()[0], SlabGrid(g, J, a=p.a, Y=4.0))
            fb = free_boundary_set(dom)
            H = holder_estimate(g, np.abs(f.trace), 0.5)
            sigs = []
            for k in range(len(fb)):
                x0 = fb.points[k]
                rmax = min(1.0 - abs(x0[0]) - 1e-9, 0.3)
                radii = np.geomspace(5 * g.h, rmax, 6)
                rep = weiss_monotonicity_audit(weiss_curve(f, x0, radii, p), H)
                sigs.append(rep["sigma_fit"])
            sig_by_res.append(np.asarray(sigs))
        coarse, fine = sig_by_res
        assert np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))
        assert np.all(fine <= coarse + 1e-8), f"Lambda={Lam}: {coarse} -> {fine}"
        endpoints += len(fine)
    assert endpoints >= 5


def test_criterion_05_endpoint_slope_matches_model_constant():
    """On the optimized interval the eigenfunction leaves each endpoint with
    slope coefficient within 20% of sqrt(Lambda)/Gamma(1+s)."""
    p = FracParams(1, 0.5, 2.3)
    g = BoxGrid(1, -1.0, 1.0, 512)
    tr = optimize(g, OptimizerConfig(m=1, Lambda=2.3, schedule="greedy", seed=3), p)
    dom = tr.best_mask
    bundle = lowest_eigenpairs(assemble_form(dom, p), 1)
    f = extend(bundle.full_fields()[0], SlabGrid(g, 128, a=p.a, Y=4.0))
    fb = free_boundary_set(dom)
    assert len(fb) == 2
    target = slope_constant(2.3, 0.5)
    for k in range(len(fb)):
        alpha = boundary_slope(f, fb.points[k], -fb.normals[k], p)
        assert abs(alpha / target - 1.0) <= 0.20, f"endpoint {fb.points[k]}"


def test_criterion_06_boundary_density_ratios_2d():
    """Every boundary point of a 2D optimized domain has positivity-set
    density in [0.25, 0.75] at radii 5h and 10h, and the small-r trend moves
    toward 1/2 for at least 90% of points."""
    p = FracParams(2, 0.5, 7.0)
    g = BoxGrid(2, -1.0, 1.0, 32)
    tr = optimize(g, OptimizerConfig(m=1, Lambda=7.0, schedule="greedy", seed=5), p)
    dom = tr.best_mask
    fb = free_boundary_set(dom)
    assert len(fb) >= 8
    h = g.h
    trend_ok = 0
    for k in range(len(fb)):
        r_lo = density_ratio(dom, fb.points[k], 5 * h)
        r_hi = density_ratio(dom, fb.points[k], 10 * h)
        assert 0.25 <= r_lo <= 0.75, f"point {fb.points[k]} at 5h: {r_lo}"
        assert 0.25 <= r_hi <= 0.75, f"point {fb.points[k]} at 10h: {r_hi}"
        trend_ok += abs(r_lo - 0.5) <= max(abs(r_hi - 0.5), 0.1)
    assert trend_ok >= 0.9 * len(fb)


def test_criterion_07_model_profile_identities_and_residual_order():
    """Closed-form identities of the model profile (trace, axis, homogeneity
    under random dilations, polar form) hold to 1e-13 and its equation
    residual shrinks with at least first order from h = 0.02 to 0.01."""
    rng = np.random.default_rng(0)
    t = rng.uniform(-2.0, 2.0, size=200)
    z = rng.uniform(-2.0, 2.0, size=200)
    for s in (0.3, 0.5, 0.7):
        lam = rng.uniform(0.1, 3.0, size=t.shape)
        defect = profile_identity_defect(s, t, z, lam)
        assert defect <= 1e-13, f"s={s}: identity defect {defect:.2e}"
        order = residual_order(s)
        assert order >= 1.0, f"s={s}: residual order {order:.2f}"


def test_criterion_08_spectral_structure():
    """Ground state simple and single-signed; no eigenfunction of a
    two-interval domain is silent on a component; sup-norm ratios against the
    power-law bound stay stable under refinement."""
    p = FracParams(1, 0.5, 1.0)
    ratios = []
    for cells in (128, 256):
        bundle = interval_bundle(0.5, cells, 3)
        gap = (bundle.lambdas[1] - bundle.lambdas[0]) / bundle.lambdas[0]
        assert gap > 0.1
        assert not bundle.clustered
        v1 = bundle.vectors[0]
        assert v1.min() * v1.max() >= 0.0  # single-signed ground state
        assert np.all(np.isfinite([np.abs(v).max() for v in bundle.vectors]))
        rows = sup_bound_check(bundle, p, prefactor=4.0)
        ratios.append([r["ratio"] for r in rows])
    np.testing.assert_allclose(ratios[0], ratios[1], rtol=0.1)

    g = BoxGrid(1, -2.0, 2.0, 256)
    x = g.axis_nodes()
    keep = (((x > -1.5) & (x < -0.3)) | ((x > 0.4) & (x < 1.2))) & g.interior()
    dom2 = mask_from_indices(g, np.flatnonzero(keep))
    bundle2 = lowest_eigenpairs(assemble_form(dom2, p), 3)
    silent_fraction, low = support_coincidence(bundle2, dom2)
    assert not low
    assert np.all(silent_fraction < 0.9), "an eigenfunction is silent on a component"


def test_criterion_09_exact_spectral_scaling():
    """lambda_i(t * Omega) = t^(-2s) lambda_i(Omega) to 1e-10 when grid and
    domain are dilated together."""
    for s in (0.3, 0.5, 0.7):
        # (-1, 1) on [-2, 2] against (-2, 2) on [-4, 4], 256 cells each
        defect = scaling_defect(s, 256, 3, half=1.0)
        assert defect <= 1e-10, f"s={s}: scaling defect {defect:.2e}"


def test_criterion_10_manifest_replay_byte_identical(tmp_path):
    """Re-running a command from its saved manifest reproduces every output
    file byte for byte."""
    from fraclab.cli import main

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 1\ncells = 32\nlower = -1\nupper = 1\ns = 0.5\n"
        "lambda = 2.3\nm = 1\nschedule = anneal\nsteps = 120\n"
        "stale_limit = 100\nseed = 5\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["optimize", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["complete"]
    for name in man["outputs"]:
        if name == "manifest.json":
            continue
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    ecfg = tmp_path / "eig.cfg"
    ecfg.write_text(
        "n = 1\ncells = 48\nlower = -2\nupper = 2\ns = 0.5\n"
        "domain = interval -1 1\nm = 2\n"
    )
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["eig", "--config", str(ecfg), "--out", str(e1)]) == 0
    assert main(["eig", "--config", str(e1 / "manifest.json"),
                 "--out", str(e2)]) == 0
    for name in ("mask.frlb", "v01.frlb", "v02.frlb", "lambdas.json"):
        assert (e1 / name).read_bytes() == (e2 / name).read_bytes(), name
