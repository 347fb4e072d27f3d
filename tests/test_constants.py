import math

import numpy as np
import pytest

from fraclab.constants import (
    FracParams,
    extension_constant,
    la_residual,
    normalization_constant,
    one_plane_solution,
    one_plane_solution_polar,
    slope_constant,
    unit_ball_volume,
)

# Reference values computed independently with mpmath at 30 digits from the
# closed forms d_s = 2^(2s-1) Gamma(s)/Gamma(1-s) and
# C(n,s) = 4^s s Gamma(n/2+s) / (pi^(n/2) Gamma(1-s)).
D_S_REF = {
    0.1: 5.1131654156581887,
    0.25: 2.0920992401062033,
    0.4: 1.2966895589460238,
    0.5: 1.0,
    0.6: 0.7711946110006629,
    0.75: 0.477988797486125,
    0.9: 0.19557356719531744,
}
C1_REF = {
    0.25: 0.19947114020071634,
    0.5: 0.31830988618379067,
    0.75: 0.29920671030107451,
}
C2_REF = {
    0.25: 0.083241983875425065,
    0.5: 0.15915494309189534,
    0.75: 0.17116712969055234,
}


def test_extension_constant_reference_values():
    for s, ref in D_S_REF.items():
        assert extension_constant(s) == pytest.approx(ref, rel=1e-13)


def test_normalization_constant_reference_values():
    for s, ref in C1_REF.items():
        assert normalization_constant(1, s) == pytest.approx(ref, rel=1e-13)
    for s, ref in C2_REF.items():
        assert normalization_constant(2, s) == pytest.approx(ref, rel=1e-13)
    # classical closed form at s = 1/2 in one dimension
    assert normalization_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_constants_reject_bad_order():
    for s in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            extension_constant(s)
        with pytest.raises(ValueError):
            normalization_constant(1, s)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    with pytest.raises(ValueError):
        unit_ball_volume(0)


def test_slope_constant():
    assert slope_constant(1.0, 0.5) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)
    assert slope_constant(4.0, 0.5) == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-14)
    # Gamma(2) = 1
    assert slope_constant(9.0, 1.0 - 1e-12) == pytest.approx(3.0, rel=1e-9)
    with pytest.raises(ValueError):
        slope_constant(-1.0, 0.5)


def test_frac_params_derived_fields():
    p = FracParams(1, 0.3, 2.0)
    assert p.a == pytest.approx(0.4)
    assert p.lambda_tilde == pytest.approx(2.0 * 2.0 / extension_constant(0.3), rel=1e-14)
    assert p.d_s == extension_constant(0.3)
    assert p.c_ns == normalization_constant(1, 0.3)


def test_frac_params_validation():
    with pytest.raises(ValueError):
        FracParams(3, 0.5, 1.0)
    with pytest.raises(ValueError):
        FracParams(1, 1.2, 1.0)
    with pytest.raises(ValueError):
        FracParams(1, 0.5, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            FracParams(1, 0.5, bad)


# -- one-plane profile -------------------------------------------------------


def test_profile_trace_is_positive_part_power():
    t = np.linspace(-2, 2, 201)
    for s in (0.3, 0.5, 0.7):
        np.testing.assert_allclose(
            one_plane_solution(t, 0.0, s), np.maximum(t, 0.0) ** s, atol=1e-12
        )


def test_profile_on_vertical_axis():
    z = np.linspace(0.05, 3.0, 40)
    for s in (0.25, 0.5, 0.75):
        np.testing.assert_allclose(
            one_plane_solution(0.0, z, s), (np.abs(z) / 2.0) ** s, rtol=1e-12
        )


def test_profile_homogeneity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        s = rng.uniform(0.05, 0.95)
        t, z = rng.normal(size=2)
        lam = rng.uniform(0.1, 10.0)
        lhs = one_plane_solution(lam * t, lam * z, s)
        rhs = lam**s * one_plane_solution(t, z, s)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_profile_polar_matches_cartesian():
    rng = np.random.default_rng(3)
    r = rng.uniform(0.1, 2.0, size=64)
    th = rng.uniform(0.0, np.pi, size=64)
    for s in (0.3, 0.5, 0.7):
        np.testing.assert_allclose(
            one_plane_solution_polar(r, th, s),
            one_plane_solution(r * np.cos(th), r * np.sin(th), s),
            atol=1e-12,
        )
    # on the wall theta = +-pi both forms are exactly 0, even at small s where
    # cos(pi/2)^(2s) is 5.7e-4
    for s in (0.1, 0.3, 0.5):
        for wall in (np.pi, -np.pi):
            got = one_plane_solution_polar(r, np.full_like(r, wall), s)
            assert np.array_equal(got, one_plane_solution(-r, np.zeros_like(r), s))
            assert not got.any() and one_plane_solution_polar(1.0, wall, s) == 0.0


def test_profile_has_no_cancellation_behind_the_wall():
    """For t < 0 and |z| << |t| the base (|(t, z)| + t)/2 is far below an ulp
    of |t|; against mpmath at 50 digits it must stay exact to rounding."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    t = -(10.0 ** rng.uniform(-3.0, 0.0, size=200))
    z = -t * 10.0 ** rng.uniform(-9.0, -1.0, size=200)
    for s in (0.2, 0.5, 0.8):
        got = one_plane_solution(t, z, s)
        with mpmath.workdps(50):
            want = [float(((mpmath.sqrt(mpmath.mpf(a) ** 2 + mpmath.mpf(b) ** 2) + a) / 2) ** s)
                    for a, b in zip(t, z)]
        assert np.max(np.abs(got - want) / want) <= 1e-14


def test_profile_continuous_and_monotone_in_t():
    t = np.linspace(-3, 3, 601)
    u = one_plane_solution(t, 0.3, 0.5)
    assert np.all(np.diff(u) > 0)
    assert np.all(u > 0)


def test_profile_residual_sup_away_from_degenerate_line():
    """Away from {z=0} the residual sup also vanishes under refinement."""
    sups = []
    for h in (0.02, 0.01):
        t = -1.0 + h * np.arange(int(round(2.0 / h)) + 1)
        z = h * (1 + np.arange(int(round(0.5 / h)) + 1))
        g = one_plane_solution(t[:, None], z[None, :], 0.5)
        r = np.abs(la_residual(g, 0.5, h, t0=t[0], z0=z[0]))
        sups.append(r[:, z[1:-1] >= 0.1].max())
    assert sups[1] < 0.45 * sups[0]


def test_residual_rejects_bad_grids():
    with pytest.raises(ValueError):
        la_residual(np.zeros((5, 5)), 0.5, 0.1, z0=0.01)
    with pytest.raises(ValueError):
        la_residual(np.zeros(5), 0.5, 0.1)
    with pytest.raises(TypeError):
        la_residual(lambda t, z: t + z, 0.5, 0.1)
