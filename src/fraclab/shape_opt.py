"""Pixel-set minimization of sum-of-eigenvalues plus volume penalty.

The search space is node masks on a BoxGrid with a one-cell margin. Because
zero-extension makes the stiffness matrix of a subdomain a principal submatrix
of the full-grid matrix, every mask's matrix is a selection from a kernel
table assembled once. A single-cell move borders or deletes one row and
column of that matrix, scored by a secular equation from the mask's
Householder form K = Q T Q^T; a dense solve is that reduction and bisection
for T's m lowest eigenvalues. Both schedules carry the form of the accepted
mask's dense solve. Greedy descent (steepest, deterministic ties) scores
every candidate from all pairs of the carried T and re-solves densely the
few within 1e-9 of the best score; the tie rule runs on those dense values.
Annealing (Metropolis with geometric cooling, one candidate per step) scores
each proposal alone, in scalars, from the carried form's m + 1 lowest pairs
and T's resolvent, re-solving densely an accepted proposal or a decision
within 1e-9 of its threshold. A proposal's roots step in turn and stop as soon
as the low ends of their sign brackets reject it; only a proposal that may be
accepted, falls in the guard band or scores inf is converged.
Both record what a dense solve of every candidate gives. The local-optimality
certificate is solved densely. A start mask below m nodes has no form and no
finite objective: the run records it and ends aborted.
Degenerate proposals (disconnecting or emptying the mask) are admissible.
"""

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.linalg import lapack

from .grids import BoxGrid, ThinDomain, _neighbor_counts, ball_domain
from .nonlocal_form import KernelTable

__all__ = ["OptimizerConfig", "OptimizationTrace", "optimize"]

_MOVE_KINDS = ("single-flip", "boundary-flip")
_SCHEDULES = ("greedy", "anneal")
# a root takes a few steps (at most 10 on the benchmark inputs); this bounds the loop
_ROOT_STEPS = 128
_EPS = float(np.finfo(float).eps)
# numpy's functions in `_first_iterate` and `_root_step`, for one root in Python floats;
# a division by zero gives nan, which fails every bracket test as inf does
_SCALAR = SimpleNamespace(
    where=lambda c, a, b: a if c else b, maximum=max, minimum=min, copysign=math.copysign,
    sqrt=lambda t: math.sqrt(t) if t >= 0 else math.nan, divide=lambda p, q: p / q if q else math.nan)


@dataclass(frozen=True)
class OptimizerConfig:
    m: int = 1
    Lambda: float = 1.0
    move_kind: str = "boundary-flip"
    schedule: str = "greedy"
    t0: float = 0.1
    cooling: float = 0.97
    steps: int = 400
    restarts: int = 1
    seed: int = 0
    stale_limit: int = 200
    initial_mask: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.Lambda < np.inf:
            raise ValueError("Lambda must be positive and finite")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.move_kind not in _MOVE_KINDS:
            raise ValueError(f"move_kind must be one of {_MOVE_KINDS}")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"schedule must be one of {_SCHEDULES}")
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError("cooling must lie in (0, 1]")
        if not 0 < self.t0 < np.inf:
            raise ValueError("t0 must be positive and finite")
        if self.steps < 1 or self.stale_limit < 1:
            raise ValueError("steps and stale_limit must be >= 1")


@dataclass
class OptimizationTrace:
    """Per-iteration searching record plus the best mask found."""

    records: list = field(default_factory=list)  # dict rows
    best_mask: ThinDomain | None = None
    best_objective: float = np.inf
    best_lambdas: np.ndarray | None = None
    wall_time: float = 0.0
    evaluations: dict = field(default_factory=dict)  # _Evaluator.counts
    certified: bool = False
    aborted: bool = False
    interrupted: bool = False
    seed: int = 0
    config: OptimizerConfig | None = None

    def check(self):
        if self.config is not None and self.config.schedule == "greedy":
            for r in range(self.config.restarts):
                objs = [
                    row["objective"]
                    for row in self.records
                    if row["restart"] == r and row["accepted"]
                ]
                if any(b > a + 1e-12 for a, b in zip(objs, objs[1:])):
                    raise AssertionError("greedy objective increased along accepted moves")
        first = [r for r in self.records if r["iteration"] == 0]
        if first and self.best_objective > min(r["objective"] for r in first) + 1e-12:
            raise AssertionError("best objective above an initial objective")
        return True


class _Evaluator:
    """Objective evaluation shared across moves, against one kernel table.

    `solve` (a dense solve) reduces a mask's matrix to its Householder form
    (`_Form`); `move_objectives` scores single-cell moves from that form, or
    from it with every pair of T (`full_spectrum`).
    `counts` tallies dense solves, secular move scores, full spectra of T,
    annealing guard-band re-solves, annealing proposals rejected before their
    roots converged, and the steps and midpoint fallbacks of the secular root
    iterations.
    """

    def __init__(self, grid, params, m, Lambda):
        self.table = KernelTable(grid, params.s)
        self.h, self.n, self.m, self.Lambda = grid.h, grid.n, m, Lambda
        self.counts = dict.fromkeys(("dense", "secular", "full_eigh", "guard", "early",
                                     "root_steps", "bisections"), 0)

    def solve(self, idx):
        """(objective, lambdas, form with T's m + 1 lowest pairs); inf, Nones below m nodes."""
        if idx.size < self.m:
            return np.inf, None, None
        self.counts["dense"] += 1
        form = _Form(self.table.stiffness(idx), idx, self.m + 1)
        lams = form.lam[: self.m] / self.h**self.n
        return float(np.sum(lams) + self.Lambda * self.h**self.n * idx.size), lams, form

    def full_spectrum(self, form):
        """`form` with every pair of its T (divide and conquer, dstevd), in place."""
        self.counts["full_eigh"] += 1
        form.lam, form.S = _lapack("dstevd", form.diag, form.off)
        return form

    def move_objectives(self, form, cells):
        """Objective after flipping each one of `cells` alone in the mask of `form`.

        With K = Q T Q^T, T = S diag(lam) S^T, an added cell borders K with a
        column b and a diagonal alpha, a removal deletes row and column j. The
        new m lowest eigenvalues are the roots of F(mu) = [mu - alpha] +
        sum_i w_i / (lam_i - mu), w = (S^T v)^2, v = Q^T b with the bracketed
        term or v = Q^T e_j without it (Golub 1973; see `_secular_roots`). A
        form with every pair of T scores all cells at once; one holding T's
        m + 1 lowest pairs only scores them one by one (`move_objective`). A
        move leaving fewer than m nodes scores inf.
        """
        idx, m, d = form.idx, self.m, form.idx.size
        if form.lam.size < d:
            return np.array([self.move_objective(form, c) for c in cells])
        self.counts["secular"] += cells.size
        pos = np.searchsorted(idx, cells)
        add = idx[np.minimum(pos, d - 1)] != cells
        B, alpha = self.table.block(idx, cells[add]), self.table.diagonal(cells[add])
        V = form.qt(np.hstack([B, np.arange(d)[:, None] == pos[~add]]))
        roots = np.full((cells.size, m), np.inf)
        for sel, v, alpha in ((add, V[:, : B.shape[1]], alpha), (~add, V[:, B.shape[1]:], None)):
            if sel.any() and d + (1 if alpha is not None else -1) >= m:
                roots[sel] = _secular_roots(form.lam, (v.T @ form.S) ** 2, m, alpha, self.counts)
        return self._score(roots.T, d + np.where(add, 1, -1))

    def move_objective(self, form, cell, settled=None):
        """`move_objectives` of one cell from a form holding T's m + 1 lowest
        pairs only, where sum_i w_i / (lam_i - mu) is v^T (T - mu)^-1 v
        (`_move_roots`). `settled`, given, is called with a lower bound of the
        objective before every root step; once it returns True the objective
        is left nan."""
        idx, d = form.idx, form.idx.size
        self.counts["secular"] += 1
        j = int(np.searchsorted(idx, cell))
        add = j == d or idx[j] != cell
        size = d + 1 if add else d - 1
        if size < self.m:
            return math.inf
        if add:
            V, alpha = self.table.block(idx, [cell]), float(self.table.diagonal(cell))
        else:
            V, alpha = np.zeros((d, 1)), None
            V[j] = 1.0
        V = form.qt(V)
        bound = None if settled is None else (lambda low: settled(self._score(low, size)))
        roots = _move_roots(form, V[:, 0], ((V.T @ form.S) ** 2)[0], self.m, alpha,
                            self.counts, bound)
        return self._score(roots, size)

    def _score(self, roots, size):
        """The objective from the m roots (floats, or arrays over moves) summed in
        order, so that lower bounds of the roots give one of the objective."""
        return sum(roots) / self.h**self.n + self.Lambda * self.h**self.n * size


class _Form:
    """K = Q T Q^T (dsytrd, lower; K is overwritten) and the k lowest pairs
    (lam, S) of T by bisection and inverse iteration, for d >= 1 nodes."""

    def __init__(self, K, idx, k):
        d, self.idx = idx.size, idx
        # block size 16 (set by the workspace) beat 32 at d = 145..1200, one thread
        c, self.diag, off, self.tau = _lapack("dsytrd", K.T, lower=1, lwork=16 * d,
                                              overwrite_a=1)
        # Q = diag(1, Q'), Q' from the reflectors below the subdiagonal: c viewed with lda d
        self.reflectors = c.ravel(order="F")[1:1 + d * (d - 1)].reshape((d, d - 1), order="F")
        self.off = off if d > 1 else np.zeros(1)  # the wrappers want one entry at d = 1
        # a bound on |T|: a solve with T - mu is exact to about eps |T| in mu
        self.norm = np.abs(self.diag).max() + 2 * np.abs(self.off).max()
        k, lam, block, split = _lapack("dstebz", self.diag, self.off, 2, 0.0, 0.0, 1,
                                       min(k, d), 0.0, b"B")
        S = _lapack("dstein", self.diag, self.off, lam[:k], block, split)[0]
        order = np.argsort(lam[:k], kind="stable")  # a split T comes block by block
        self.lam, self.S = lam[order], S[:, order]

    def qt(self, X):
        """Q^T X, in place, for a float array X of d rows."""
        if X.shape[0] > 1:
            lwork = 1 if X.shape[1] == 1 else 64 * (X.shape[1] + 65)  # blocks of 64; 1: unblocked
            X[1:] = _lapack("dormqr", "L", "T", self.reflectors, self.tau, X[1:], lwork)[0]
        return X


def _lapack(name, *args, **kwargs):
    """LAPACK `name`'s outputs but info; a nonzero info raises LinAlgError."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info {info}")
    return out


def _secular_roots(lam, w, m, alpha=None, counts=None):
    """The m lowest roots of F(mu) = [mu - alpha] + sum_i w_i / (lam_i - mu).

    lam holds every pole, w one row of weights per candidate; alpha (one per
    candidate) is given for an addition only. `counts`, if given, tallies the
    `root_steps` and `bisections` of `_root_step`.

    With e = (0, lam, top), top = max(lam_d, alpha) + |w|^(1/2) (Weyl), root k
    lies in [a, b] = [e_k, e_{k+1}] for an addition (the new matrix is
    positive definite) and in [lam_k, lam_{k+1}] for a removal. Every pair
    (candidate, root) starts at `_first_iterate` and takes `_root_step`s, all
    pairs at once.
    """
    total = w.sum(1)
    top = None if alpha is None else np.maximum(lam.max(initial=0.0), alpha) + np.sqrt(total)
    cand, r = np.divmod(np.arange(w.shape[0] * m), m)  # the pairs (candidate, root)
    split = r + (alpha is None)  # number of poles left of the pair's bracket
    ext = np.concatenate([[0.0], lam[: m + 1], [np.inf]])
    a, b = ext[split], ext[split + 1]
    if top is not None:
        b = np.where(split == lam.size, top[cand], b)
    k = min(m, lam.size)
    left = np.arange(k) < split[:, None]  # left poles are among the first m
    # whether the weights of the poles at a and b vanish (an end that is no pole: inf)
    wx = np.hstack([np.full((len(w), 1), np.inf), w[:, : m + 1], np.full((len(w), 1), np.inf)])
    flat = wx[cand[:, None], split[:, None] + [0, 1]] <= _EPS * total[cand, None]
    x = _first_iterate(a, b, flat[:, 0], flat[:, 1], 0.0)
    lo, hi = a.copy(), b.copy()  # (lo, hi) is F's sign bracket
    act = np.flatnonzero((x > lo) & (x < hi))  # pairs still iterating
    counts = dict.fromkeys(("root_steps", "bisections"), 0) if counts is None else counts
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_ROOT_STEPS):
            if act.size == 0:
                return x.reshape(-1, m)
            xa = x[act]
            inv = 1.0 / (lam - xa[:, None])
            t = w[cand[act]] * inv
            dt = t * inv
            F, dF = t.sum(1), dt.sum(1)
            fl = np.where(left[act], t[:, :k], 0.0).sum(1)
            gl = np.where(left[act], dt[:, :k], 0.0).sum(1)
            l, h, new, done, model = _root_step(
                xa, a[act], b[act], lo[act], hi[act], F, dF, fl, gl,
                None if alpha is None else alpha[cand[act]], 0.0, ~flat[act].any(1) | (it > 0))
            lo[act], hi[act] = l, h
            counts["root_steps"] += act.size
            counts["bisections"] += int(np.count_nonzero(~(done | model)))
            x[act] = np.where(done, xa, new)
            act = act[~(done | (new <= l) | (new >= h))]
    raise AssertionError(f"secular roots did not converge in {_ROOT_STEPS} steps")


def _move_roots(form, v, w, m, alpha, counts, settled=None):
    """`_secular_roots` of one move from a form holding T's m + 1 lowest
    pairs only, in scalars, the roots taking a step each in turn. The sum over
    all d poles is v^T y and its derivative y^T y for the tridiagonal solve
    y = (T - x)^-1 v, exact to about eps max(|x|, norm) in x; w holds the
    weights of the m + 1 lowest poles, |v|^2 the weights' total. Every bracket
    ends at or below lam_{m+1}, a pole of the form. A root whose bracket has no
    deflated end starts from one step on the form's model: those m + 1 poles,
    and the rest of |v|^2 at norm >= |T|, which needs no solve.

    `settled`, if given, is called before every step with a lower bound of
    each root, its sign bracket's low end (the root once found); once it
    returns True the roots are nan and `early` counts the stop."""
    lam, wl, total, norm = form.lam.tolist(), w.tolist(), float(v @ v), float(form.norm)
    model = lam + [norm], wl + [max(total - sum(wl), 0.0)]
    k = [r + (alpha is None) for r in range(m)]  # poles left of each root's bracket
    a, b = [lam[j - 1] if j else 0.0 for j in k], [lam[j] for j in k]
    # whether the poles at a and b have vanishing weights (are deflated)
    flat = [(j > 0 and wl[j - 1] <= _EPS * total, wl[j] <= _EPS * total) for j in k]
    x = []
    for r, j in enumerate(k):
        mid, guess = 0.5 * (a[r] + b[r]), None
        if not any(flat[r]) and a[r] < mid < b[r]:  # the model's step from the midpoint
            new, done = _root_step(mid, a[r], b[r], a[r], b[r], *_pole_sums(*model, mid),
                                   *_pole_sums(lam[:j], wl[:j], mid), alpha, norm, True)[2:4]
            guess = mid if done else new
        x.append(_first_iterate(a[r], b[r], *flat[r], norm, guess))
    lo, hi = a[:], b[:]  # a found root's bracket closes on it
    for it in range(_ROOT_STEPS + 1):
        act = [r for r in range(m) if lo[r] < x[r] < hi[r]]
        if not act or it == _ROOT_STEPS:
            break
        for r in act:
            if settled is not None and settled(lo):
                counts["early"] += 1
                return [math.nan] * m
            y = _lapack("dgtsv", form.off, form.diag - x[r], form.off, v)[3]
            lo[r], hi[r], new, done, model_root = _root_step(
                x[r], a[r], b[r], lo[r], hi[r], float(y @ v), float(y @ y),
                *_pole_sums(lam[: k[r]], wl[: k[r]], x[r]), alpha, norm,
                it > 0 or not any(flat[r]))
            counts["root_steps"] += 1
            counts["bisections"] += not (done or model_root)
            lo[r], hi[r], x[r] = (x[r], x[r], x[r]) if done else (lo[r], hi[r], new)
    if act:
        raise AssertionError(f"secular roots did not converge in {_ROOT_STEPS} steps")
    return x


def _pole_sums(lam, w, x):
    """sum_i w_i / (lam_i - x) and its derivative, summed in order, in Python floats."""
    f = g = 0.0
    for li, wi in zip(lam, w):
        inv = 1.0 / (li - x)
        f += wi * inv
        g += wi * inv * inv
    return f, g


def _first_iterate(a, b, flat_a, flat_b, norm, guess=None):
    """The first iterate in a root's bracket [a, b], arrays or one root in
    scalars: the midpoint, or `guess` kept 16 ulps inside [a, b], or, where
    the pole at an end has a vanishing weight (at most eps times the total, as
    on a nodal line; the pole is deflated), a probe 16 ulps inside that end
    for the side of the root. 16 ulps: an iterate closer than 8 ulps to a
    weighted pole would count as a root."""
    xp = np if isinstance(a, np.ndarray) else _SCALAR
    near = xp.minimum(16 * _EPS * xp.maximum(abs(b), norm), 0.5 * (b - a))
    inner = 0.5 * (a + b) if guess is None else xp.minimum(xp.maximum(guess, a + near), b - near)
    return xp.where(flat_a, a + near, xp.where(flat_b, b - near, inner))


def _root_step(x, a, b, lo, hi, F, dF, fl, gl, alpha, norm, free):
    """One step at x inside F's sign bracket (lo, hi) within [a, b], for
    arrays of roots or for one root in Python floats.

    F, dF are the pole sum and its derivative at x, fl, gl their parts from
    the poles left of [a, b]; alpha is None for a removal; norm bounds |T|
    where the pole sum comes from a solve with T - x. The step matches the
    pole sums left and right of [a, b] (the linear term counts right) in value
    and derivative by P/(a - mu) and Q/(b - mu) plus a constant, and takes
    that model's root in [a, b] (Bunch, Nielsen and Sorensen 1978) where it is
    `free` to (not on the first step from a deflated end) and the root lies in
    the new sign bracket, else the bracket's midpoint. x is a root once |F| is
    within 8 eps of its rounding error. Returns the new bracket, the next
    iterate, whether x is a root and whether the model root was taken.
    """
    xp = np if isinstance(x, np.ndarray) else _SCALAR
    # rounding error of F, chiefly from lam_i - mu (exact only to an ulp of
    # max(|mu|, norm), hence the F' part); a smaller |F| is a root
    noise = F - 2.0 * fl  # sum of |w_i / (lam_i - mu)|
    if alpha is not None:
        F = F + (x - alpha)
        dF = dF + 1.0
        noise = noise + abs(alpha)
    noise = noise + xp.maximum(abs(x), norm) * dF
    lo, hi = xp.where(F < 0, x, lo), xp.where(F > 0, x, hi)
    da, db = a - x, b - x
    P, Q = gl * da * da, (dF - gl) * db * db
    c = F - P / da - Q / db
    # c y^2 - B y + C = 0 in the step y = new - x, its stable root pair
    B, C = c * (da + db) + P + Q, F * da * db
    q = B + xp.copysign(xp.sqrt(B * B - 4.0 * c * C), B)
    y = xp.divide(2 * C, q)
    new = x + xp.where((y > da) & (y < db), y, xp.divide(q, 2 * c))
    model = (new > lo) & (new < hi) & free
    new = xp.where(model, new, 0.5 * (lo + hi))
    return lo, hi, new, abs(F) <= 8 * _EPS * noise, model


def _candidates(grid, mask_flat, kind):
    """Seed cells of admissible moves, sorted by flat index."""
    interior = grid.interior().ravel()
    if kind == "single-flip":
        return np.flatnonzero(interior)
    nbr_mask = _neighbor_counts(mask_flat.reshape(grid.node_shape)).ravel()
    add = interior & ~mask_flat & (nbr_mask > 0)
    rem = mask_flat & (nbr_mask < 2 * grid.n)
    return np.flatnonzero(add | rem)


def _apply_move(mask_flat, cell):
    """The mask with `cell` flipped."""
    new = mask_flat.copy()
    new[cell] = ~new[cell]
    return new


def _initial_mask(grid, config, rng, jitter):
    if config.initial_mask is not None:
        m0 = np.asarray(config.initial_mask, dtype=bool)
        if m0.shape != grid.node_shape:
            raise ValueError("initial mask shape mismatch")
        start = m0.ravel().copy()
    else:
        feas = 0.5 * (grid.upper - grid.lower) - grid.h
        dom = ball_domain(grid, np.zeros(grid.n) + 0.5 * (grid.upper + grid.lower),
                          0.5 * feas)
        start = dom.mask.ravel().copy()
    if jitter:
        unjittered = start.copy()
        edge = _candidates(grid, start, "boundary-flip")
        flips = edge[rng.random(edge.size) < 0.3]
        start[flips] = ~start[flips]
        start &= grid.interior().ravel()
        if start.sum() < config.m:
            start = unjittered
    return start


def optimize(design_box, config, params, should_stop=None):
    """Search for a locally optimal mask; returns the full OptimizationTrace.

    should_stop: optional zero-arg callable polled once per iteration; when it
    returns True the search stops early and the trace is marked interrupted.
    """
    if not isinstance(design_box, BoxGrid):
        raise TypeError("design_box must be a BoxGrid")
    ev = _Evaluator(design_box, params, config.m, config.Lambda)
    trace = OptimizationTrace(seed=config.seed, config=config)
    t_start = time.perf_counter()
    try:
        for restart in range(config.restarts):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, restart]))
            mask = _initial_mask(design_box, config, rng, jitter=restart > 0)
            if config.schedule == "greedy":
                stopped = _run_greedy(design_box, ev, config, mask, trace, restart,
                                      should_stop)
            else:
                stopped = _run_anneal(design_box, ev, config, mask, trace, restart,
                                      rng, should_stop)
            trace.interrupted = stopped
            if stopped or trace.aborted:
                break
    except np.linalg.LinAlgError:
        trace.aborted = True
    trace.wall_time = time.perf_counter() - t_start
    trace.evaluations = dict(ev.counts)
    return trace


def _record(trace, restart, iteration, obj, mask_flat, lams, accepted, h, n):
    trace.records.append(
        {
            "restart": restart,
            "iteration": iteration,
            "objective": float(obj),
            "measure": float(h**n * int(mask_flat.sum())),
            "lambdas": tuple(float(v) for v in (lams if lams is not None else [])),
            "accepted": bool(accepted),
        }
    )


def _update_best(trace, design_box, mask_flat, obj, lams):
    if obj < trace.best_objective - 1e-15:
        trace.best_objective = float(obj)
        trace.best_mask = ThinDomain(design_box, mask_flat.reshape(design_box.node_shape).copy())
        trace.best_lambdas = np.array(lams)


def _shortlist(scores):
    """Positions of the scores at most 1e-9·max(1, |low|) above the lowest finite one."""
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return np.empty(0, dtype=int)
    low = finite.min()
    return np.flatnonzero(scores <= low + 1e-9 * max(1.0, abs(low)))


def _start(grid, ev, mask, trace, restart):
    """The start mask's dense solve, recorded as iteration 0. A start below
    m nodes has no form (and objective inf): the run is aborted."""
    obj, lams, form = ev.solve(np.flatnonzero(mask))
    _record(trace, restart, 0, obj, mask, lams, True, grid.h, grid.n)
    _update_best(trace, grid, mask, obj, lams)
    trace.aborted = form is None
    return obj, lams, form


def _run_greedy(grid, ev, config, mask, trace, restart, should_stop):
    h, n = grid.h, grid.n
    obj, lams, form = _start(grid, ev, mask, trace, restart)
    if form is None:
        return False
    iteration = 0
    while True:
        if should_stop is not None and should_stop():
            return True
        iteration += 1
        cands = _candidates(grid, mask, config.move_kind)
        # secular scores pick the few candidates that can win; those are
        # re-solved densely so the tie rule sees exactly the dense values
        scores = ev.move_objectives(ev.full_spectrum(form), cands)
        best_i, best_obj, best_lams, best_new = -1, obj, lams, None
        for i in _shortlist(scores):
            new = _apply_move(mask, cands[i])
            o, lms, f = ev.solve(np.flatnonzero(new))
            if o < best_obj - 1e-12:
                best_i, best_obj, best_lams, best_new, form = i, o, lms, new, f
        if best_i < 0:
            trace.certified = _certify(grid, ev, config, mask, obj)
            return False
        _check_secular(scores[best_i], best_obj, cands[best_i])
        # removing a cell cannot lower an eigenvalue (Cauchy interlacing)
        if best_new.sum() < mask.sum() and np.any(best_lams < lams - 1e-9 * np.abs(lams)):
            raise AssertionError("eigenvalue decreased after removing a cell")
        mask, obj, lams = best_new, best_obj, best_lams
        _record(trace, restart, iteration, obj, mask, lams, True, h, n)
        _update_best(trace, grid, mask, obj, lams)


def _check_secular(score, dense, cell):
    if abs(score - dense) > 1e-10 * abs(dense):
        raise AssertionError(
            f"secular objective {score!r} of cell {cell} differs from the dense {dense!r}")


def _certify(grid, ev, config, mask, obj):
    for c in _candidates(grid, mask, config.move_kind):
        new = _apply_move(mask, c)
        o = ev.solve(np.flatnonzero(new))[0]
        if o < obj - 1e-10:
            raise AssertionError(
                f"local optimality certificate failed: cell {c} improves by {obj - o:.3e}"
            )
    return True


def _run_anneal(grid, ev, config, mask, trace, restart, rng, should_stop):
    h, n = grid.h, grid.n
    kind = config.move_kind
    obj, lams, form = _start(grid, ev, mask, trace, restart)
    if form is None:
        return False
    T = config.t0
    stale = 0
    cands = _candidates(grid, mask, kind)
    for step in range(1, config.steps + 1):
        if should_stop is not None and should_stop():
            return True
        if cands.size == 0:
            break
        c = cands[rng.integers(cands.size)]
        new = _apply_move(mask, c)
        accept, o, lms, f = _secular_metropolis(ev, form, c, new, obj, T, rng)
        if accept:
            mask, obj, lams, form = new, o, lms, f
            cands = _candidates(grid, mask, kind)
        _record(trace, restart, step, obj, mask, lams, accept, h, n)
        before = trace.best_objective
        _update_best(trace, grid, mask, obj, lams)
        stale = 0 if trace.best_objective < before - 1e-15 else stale + 1
        if stale > config.stale_limit:
            break
        T *= config.cooling
    return False


def _metropolis(ev, new, obj, T, rng, u=None):
    """Dense Metropolis decision on `new`, and its form; u is the uniform if drawn."""
    o, lms, form = ev.solve(np.flatnonzero(new))
    delta = o - obj
    accept = delta < 0 or (
        np.isfinite(o)
        and (rng.random() if u is None else u) < np.exp(-delta / max(T, 1e-12))
    )
    return accept, o, lms, form


def _secular_metropolis(ev, form, cell, new, obj, T, rng):
    """`_metropolis`'s decision from the secular score, which is far closer
    than eps = 1e-9·max(1, |obj|) to the dense one: below obj - eps accept;
    above obj + eps draw u as the dense rule would and let it decide unless it
    lies between the thresholds of the score -eps and +eps. That guard band and
    non-finite scores are decided densely; an accepted proposal is solved
    densely, so the recorded values are the dense ones. The roots stop once a
    lower bound of the score rejects: rounding is monotone, so the bound draws
    u at the score's point of the random stream and rejects what it would."""
    eps, T, u = 1e-9 * max(1.0, abs(obj)), max(T, 1e-12), None

    def rejects(score):
        nonlocal u
        if u is None and math.isfinite(score) and score - obj > eps:
            u = rng.random()
        return u is not None and u >= np.exp(-(score - obj - eps) / T)

    score = ev.move_objective(form, cell, rejects)
    if math.isnan(score) or rejects(score):
        return False, None, None, None
    delta = score - obj
    if not delta < -eps and (u is None or u >= np.exp(-(delta + eps) / T)):
        ev.counts["guard"] += 1
        return _metropolis(ev, new, obj, T, rng, u)
    o, lms, f = ev.solve(np.flatnonzero(new))
    _check_secular(score, o, cell)
    return True, o, lms, f
