"""Closed-form constants and reference profiles of the fractional Dirichlet problem.

Everything downstream (form assembly, extension solves, free-boundary
diagnostics) consults this module for the kernel normalization C(n, s), the
extension energy constant d_s, and the one-plane profile U.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FracParams",
    "normalization_constant",
    "extension_constant",
    "unit_ball_volume",
    "slope_constant",
    "one_plane_solution",
    "one_plane_solution_polar",
    "la_residual",
]


def _check_order(s):
    s = float(s)
    if not (0.0 < s < 1.0):
        raise ValueError(f"fractional order s must lie in (0, 1), got {s}")
    return s


def normalization_constant(n, s):
    """Kernel normalization C(n,s) = 2^(2s) * s * Gamma(n/2+s) / (pi^(n/2) * Gamma(1-s)).

    This is the constant that makes the singular-kernel quadratic form agree
    with the Fourier symbol |xi|^(2s).
    """
    s = _check_order(s)
    if n not in (1, 2):
        raise ValueError(f"dimension n must be 1 or 2, got {n}")
    return (
        4.0**s * s * math.gamma(0.5 * n + s)
        / (math.pi ** (0.5 * n) * math.gamma(1.0 - s))
    )


def extension_constant(s):
    """Energy constant d_s = 2^(2s-1) * Gamma(s) / Gamma(1-s) of the weighted extension."""
    s = _check_order(s)
    return 2.0 ** (2.0 * s - 1.0) * math.gamma(s) / math.gamma(1.0 - s)


def unit_ball_volume(n):
    """Volume of the unit ball in R^n (2 for n=1, pi for n=2)."""
    if n < 1 or n != int(n):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    return math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)


def slope_constant(lambda_penalty, s):
    """Free-boundary slope sqrt(Lambda) / Gamma(1+s) of the optimality condition."""
    s = _check_order(s)
    if lambda_penalty < 0:
        raise ValueError("volume penalty must be nonnegative")
    return math.sqrt(lambda_penalty) / math.gamma(1.0 + s)


@dataclass(frozen=True)
class FracParams:
    """Problem parameters: dimension, fractional order, and volume penalty.

    Attributes
    ----------
    n : int
        Thin-space dimension, 1 or 2.
    s : float
        Fractional order in (0, 1).
    lambda_penalty : float
        Volume penalty Lambda > 0 of the shape objective.
    a : float
        Extension weight exponent, always 1 - 2s.
    lambda_tilde : float
        Rescaled penalty 2*Lambda/d_s used by the extended functional.
    """

    n: int
    s: float
    lambda_penalty: float = 1.0
    a: float = field(init=False)
    lambda_tilde: float = field(init=False)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension n must be 1 or 2, got {self.n}")
        _check_order(self.s)
        if not self.lambda_penalty > 0:
            raise ValueError("lambda_penalty must be > 0")
        object.__setattr__(self, "a", 1.0 - 2.0 * self.s)
        object.__setattr__(
            self, "lambda_tilde", 2.0 * self.lambda_penalty / extension_constant(self.s)
        )

    @property
    def d_s(self):
        return extension_constant(self.s)

    @property
    def c_ns(self):
        return normalization_constant(self.n, self.s)


def one_plane_solution(t, z, s):
    """One-plane profile U(t,z) = ((sqrt(t^2+z^2)+t)/2)^s.

    Vanishes on the half-line {t <= 0, z = 0}, restricts to t_+^s on the thin
    space, and is s-homogeneous. Accepts scalars or arrays.
    """
    s = _check_order(s)
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    # blow-up and slab coordinates lie far inside (1e-150, 1e150), where the
    # plain sum neither overflows nor underflows; np.hypot is ~3x slower
    r = np.sqrt(t * t + z * z)
    # r + t cancels for t < 0, where z^2 / (r - t) is the same number
    base = 0.5 * np.divide(z * z, r - t, out=np.asarray(r + t), where=t < 0)
    # base >= 0 by construction; 0**s == 0 for s > 0
    out = np.power(base, s)
    if out.ndim == 0:
        return float(out)
    return out


def one_plane_solution_polar(r, theta, s):
    """Polar form r^s * cos(theta/2)^(2s) of the one-plane profile.

    At theta = +-pi the cosine vanishes and the power is taken through the
    Cartesian formula, which is continuous there.
    """
    s = _check_order(s)
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c = np.cos(0.5 * theta)
    # cos(theta/2) can go negative by rounding just past +-pi; clamp at 0
    c = np.maximum(c, 0.0)
    out = np.power(r, s) * np.power(c, 2.0 * s)
    if out.ndim == 0:
        return float(out)
    return out


def la_residual(field, s, h, t0=0.0, z0=None):
    """Conservative finite-difference residual of div(|z|^a grad g) on a (t,z) grid.

    Parameters
    ----------
    field : 2d array
        Node values on the uniform grid with t along axis 0 and z along
        axis 1. A callable is rejected with TypeError: sample it first.
    s : float
        Fractional order; the weight exponent is a = 1 - 2s.
    h : float
        Grid spacing, identical in t and z.
    t0, z0 : float
        Coordinates of the (0,0) grid node. z0 defaults to h and must stay at
        least h away from the degenerate line z = 0.

    Returns
    -------
    2d array of residuals at interior nodes (shape reduced by 2 per axis).
    """
    s = _check_order(s)
    a = 1.0 - 2.0 * s
    if z0 is None:
        z0 = h
    if z0 < h - 1e-12 * h:
        raise ValueError("grid must stay at least h away from the line z=0")
    if callable(field):
        raise TypeError("pass sampled node values, not a callable")
    g = np.asarray(field, dtype=float)
    if g.ndim != 2 or min(g.shape) < 3:
        raise ValueError("need a 2d array with at least 3 nodes per axis")
    z = z0 + h * np.arange(g.shape[1])
    zc = z[1:-1]
    w_up = np.abs(zc + 0.5 * h) ** a
    w_dn = np.abs(zc - 0.5 * h) ** a
    # faces in t carry the weight evaluated at the node's own height
    w_t = np.abs(zc) ** a
    interior = g[1:-1, 1:-1]
    t_term = w_t * (g[2:, 1:-1] - 2.0 * interior + g[:-2, 1:-1]) / h**2
    z_term = (
        w_up * (g[1:-1, 2:] - interior) - w_dn * (interior - g[1:-1, :-2])
    ) / h**2
    return t_term + z_term
