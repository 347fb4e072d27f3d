"""Property tests of the secular root finder against dense eigensolves.

The oracle is np.linalg.eigvalsh of the explicitly built bordered matrix
(an added cell) or row-and-column-deleted matrix (a removed cell). The
spectra have repeated eigenvalues, and the weights include exact zeros and
weights of order 1e-30, the two ways a root sits on a bracket end.
_secular_roots raises AssertionError if it reaches its iteration cap, so a
passing example also shows that the cap was not hit. Where the spectrum has
more than m + 1 poles, the same roots are also found by the annealing path,
`_move_roots`, from a form of diag(lam) holding its m + 1 lowest pairs (so
every root whose bracket has no deflated end starts from the model step).
The single-move score from a mask's Householder form is checked against a
dense solve of the moved mask. The annealing decision that stops the roots
early is checked against converging them first and deciding by the rule it
replaces.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fraclab.constants import FracParams  # noqa: E402
from fraclab.grids import BoxGrid  # noqa: E402
from fraclab.shape_opt import (  # noqa: E402
    _Evaluator,
    _Form,
    _move_roots,
    _secular_metropolis,
    _secular_roots,
)


def spectrum(rng, d, distinct):
    """d sorted eigenvalues in [1, 10] taking only `distinct` values."""
    pool = 10.0 ** rng.uniform(0.0, 1.0, size=distinct)
    return np.sort(rng.choice(pool, size=d))


def assert_roots_match(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)


def annealing_roots(lam, v, m, alpha=None, settled=None):
    """`_move_roots` of the move with vector v (weights v^2 on the poles lam),
    from the form of diag(lam) that holds its m + 1 lowest pairs; None where
    that form would hold every pair (the batch path's case)."""
    if m + 1 >= lam.size:
        return None
    form = _Form(np.diag(lam), np.arange(lam.size), m + 1)
    counts = dict.fromkeys(("early", "root_steps", "bisections"), 0)
    w = (v @ form.S) ** 2
    return np.array(_move_roots(form, v, w, m, alpha, counts, settled)), counts


def removal_case(rng, d, distinct, n_zero):
    """lam and the eigenvector matrix Q of a d x d matrix with poles repeated
    and row 0 of Q holding n_zero exact zeros, one of them turned into a
    weight of order 1e-30."""
    n_zero = min(n_zero, d - 1)
    lam = spectrum(rng, d, distinct)
    # eigenvectors: a random rotation of the first d - n_zero coordinates, so
    # row 0 has exact zeros in the other columns; one Givens rotation by 1e-15
    # turns one of those zeros into a weight of order 1e-30
    Q = np.eye(d)
    Q[: d - n_zero, : d - n_zero] = np.linalg.qr(rng.standard_normal((d - n_zero,) * 2))[0]
    if n_zero:
        c, s = np.cos(1e-15), np.sin(1e-15)
        Q[:, [0, d - 1]] = Q[:, [0, d - 1]] @ np.array([[c, -s], [s, c]])
    return lam, Q[:, rng.permutation(d)]


def addition_case(rng, d, distinct, where):
    """lam, border z (zero, normal and 1e-15-scaled entries) and diagonal
    alpha below, inside or above the spectrum, the bordered matrix positive
    definite as every stiffness matrix is."""
    lam = spectrum(rng, d, distinct)
    z = rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 0.5)
    kind = rng.integers(0, 3, size=d)  # normal, zero, or of order 1e-15
    z[kind == 1] = 0.0
    z[kind == 2] *= 1e-15
    alpha = {"below": lam[0] * rng.uniform(0.05, 0.95),
             "inside": rng.uniform(lam[0], lam[-1]),
             "above": lam[-1] * (1.0 + rng.uniform(0.05, 2.0))}[where]
    # keep z^T diag(lam)^-1 z below alpha / 2
    q = np.sum(z**2 / lam)
    z *= min(1.0, np.sqrt(0.5 * alpha / q)) if q > 0 else 1.0
    return lam, z, alpha


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 12),
       st.integers(0, 4), st.data())
def test_removal_roots_match_deleted_matrix(seed, d, distinct, n_zero, data):
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(1, d - 1))
    lam, Q = removal_case(rng, d, distinct, n_zero)
    A = (Q * lam) @ Q.T
    j = 0
    want = np.linalg.eigvalsh(np.delete(np.delete(A, j, 0), j, 1))[:m]
    got = _secular_roots(lam, Q[j][None] ** 2, m)[0]
    assert_roots_match(got, want)
    scalar = annealing_roots(lam, Q[j], m)
    if scalar is not None:
        assert_roots_match(scalar[0], want)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.sampled_from(["below", "inside", "above"]), st.data())
def test_addition_roots_match_bordered_matrix(seed, d, distinct, where, data):
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(1, d + 1))
    lam, z, alpha = addition_case(rng, d, distinct, where)
    M = np.block([[np.diag(lam), z[:, None]], [z[None, :], np.array([[alpha]])]])
    want = np.linalg.eigvalsh(M)[:m]
    got = _secular_roots(lam, z[None] ** 2, m, np.array([alpha]))[0]
    assert_roots_match(got, want)
    scalar = annealing_roots(lam, z, m, alpha)
    if scalar is not None:
        assert_roots_match(scalar[0], want)


@pytest.mark.parametrize("alpha", [0.5, 2.2509037220921337, 4.5, 4.84799285992818, 7.0])
def test_vanishing_weights_give_the_merged_spectrum(alpha):
    """With every weight (nearly) zero the bordered matrix is diagonal to
    roundoff: its eigenvalues are lam and alpha, so each root sits on a
    bracket end or at alpha, and the model pole at a bracket end has no
    weight behind it. (At alpha = 2.25... an early iteration that stopped on
    a tiny model step returned lam[0] for the second root.)"""
    lam = np.array([1.6693463778056556, 4.318832268911055] + [4.84799285992818] * 3)
    z = np.array([-1.2729435055578035e-18, 0.0, -1.0626637717143397e-18, 0.0,
                  -9.07132007566055e-19])
    got = _secular_roots(lam, z[None] ** 2, lam.size + 1, np.array([alpha]))[0]
    assert_roots_match(got, np.sort(np.append(lam, alpha)))


_EVALUATORS = {}


def _evaluator(n, s, m):
    if (n, s, m) not in _EVALUATORS:
        g = BoxGrid(n, -1.0, 1.0, 24 if n == 1 else 10)
        _EVALUATORS[n, s, m] = g, _Evaluator(g, FracParams(n, s, 1.0), m, 1.7)
    return _EVALUATORS[n, s, m]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2]), st.sampled_from([0.2, 0.5, 0.8]), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_single_move_score_matches_dense_solve(n, s, m, seed, mirror, data):
    g, ev = _evaluator(n, s, m)
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(g.interior().ravel())
    d = data.draw(st.integers(max(1, m - 1), interior.size))
    mask = np.zeros(g.node_shape, dtype=bool)
    mask.ravel()[rng.choice(interior, size=d, replace=False)] = True
    if mirror:  # symmetric masks put weights on zero and can split T
        mask |= mask[..., ::-1]
    mask = mask.ravel()
    cell = data.draw(st.sampled_from(interior.tolist()))
    idx = np.flatnonzero(mask)
    got = ev.move_objectives(_Form(ev.table.stiffness(idx), idx, m + 1), np.array([cell]))[0]
    new = mask.copy()
    new[cell] = ~new[cell]
    want = ev.solve(np.flatnonzero(new))[0]
    if np.isinf(want):
        assert np.isinf(got)
    else:
        assert abs(got - want) <= 1e-12 * want, (got, want)


class Draws:
    """Stand-in generator whose every uniform draw is `u`; counts the draws."""

    def __init__(self, u):
        self.u, self.count = u, 0

    def random(self):
        self.count += 1
        return self.u


class RootSums:
    """Stand-in evaluator: a move's score is the sum of the `annealing_roots`
    of (lam, v, m, alpha); its dense solve gives `dense`."""

    def __init__(self, case, dense):
        self.case, self.dense, self.score = case, dense, None
        self.counts = {"guard": 0, "early": 0}

    def move_objective(self, form, cell, settled=None):
        roots, counts = annealing_roots(*self.case, lambda low: settled(sum(low)))
        self.counts["early"] += counts["early"]
        self.score = float(sum(roots))
        return self.score

    def solve(self, idx):
        return self.dense, None, None


def converge_then_decide(score, dense, obj, T, u):
    """(accept, draws, guard) of the annealing rule before the early stop, on
    the converged score: u drawn for a finite score above obj + eps, reject
    once u >= exp(-(delta - eps) / T), accept below obj - eps or under
    exp(-(delta + eps) / T); else the dense rule on `dense`, which draws u if
    it was not drawn and the dense change is not negative."""
    eps, T = 1e-9 * max(1.0, abs(obj)), max(T, 1e-12)
    delta = score - obj
    draws = int(np.isfinite(score) and delta > eps)
    if draws and u >= np.exp(-(delta - eps) / T):
        return False, 1, 0
    if delta < -eps or draws and u < np.exp(-(delta + eps) / T):
        return True, draws, 0
    d = dense - obj
    if d < 0 or not np.isfinite(dense):
        return d < 0, draws, 1
    return u < np.exp(-d / T), 1, 1


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(1, 12), st.integers(0, 4),
       st.sampled_from(["removal", "below", "inside", "above"]),
       st.sampled_from(["random", "band", "tie"]), st.data())
def test_early_stop_decides_as_the_converged_score(seed, d, distinct, n_zero, where, case,
                                                   data):
    """The annealing decision with roots stopped once the low ends of their
    sign brackets settle it: same verdict, draws and guard-band solves as
    converging first, the same score where it converges, and a stop only on
    a rejection."""
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(1, d - 2))
    if where == "removal":
        lam, Q = removal_case(rng, d, distinct, n_zero)
        move = lam, Q[0], m, None
    else:
        lam, z, alpha = addition_case(rng, d, distinct, where)
        move = lam, z, m, alpha
    score = float(sum(annealing_roots(*move)[0]))  # the objective: the root sum
    dense = score * (1.0 + rng.uniform(-1e-13, 1e-13))
    T = 10.0 ** rng.uniform(-4.0, 1.0)
    if case == "random":
        obj, u = score - rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6.0, 0.5), rng.random()
    elif case == "band":  # u between the thresholds of delta -eps and +eps
        obj = score - 10.0 ** rng.uniform(-6.0, 0.0)
        u = math.exp(-(score - obj) / T) * (1.0 + rng.uniform(-1e-12, 1e-12))
    else:  # |delta| within eps
        obj, u = score * (1.0 + rng.uniform(-1e-10, 1e-10)), rng.random()
    want = converge_then_decide(score, dense, obj, T, u)
    ev, draw = RootSums(move, dense), Draws(u)
    accept = _secular_metropolis(ev, None, 0, np.ones(1, dtype=bool), obj, T, draw)[0]
    assert (accept, draw.count, ev.counts["guard"]) == want, (ev.score, score, obj, T, u)
    if math.isnan(ev.score):
        assert not accept and ev.counts["early"] == 1
    else:
        assert ev.score == score and ev.counts["early"] == 0
