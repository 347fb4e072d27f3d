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
each proposal from the carried form through T's resolvent, re-solving
densely an accepted proposal or a decision within 1e-9 of its threshold.
Both record what a dense solve of every candidate gives.
Block-flip moves, the moves of a mask below m nodes (it has no form) and the
local-optimality certificate are solved densely.
Degenerate proposals (disconnecting or emptying the mask) are admissible.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .extension import _as_fields, _interp, _multilinear_at
from .grids import BoxGrid, ThinDomain, _neighbor_counts, ball_domain
from .nonlocal_form import kernel_table

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "optimize",
    "blow_up_rescale",
    "RescaledField",
    "perimeter_estimate",
]

_MOVE_KINDS = ("single-flip", "boundary-flip", "block-flip")
_SCHEDULES = ("greedy", "anneal")
# a root takes a few steps (at most 10 on the benchmark inputs); this bounds the loop
_ROOT_STEPS = 128
_EPS = np.finfo(float).eps


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
        if self.Lambda <= 0:
            raise ValueError("Lambda must be positive")
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
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
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

    `solve`/`objective` (a dense solve) reduce a mask's matrix to its
    Householder form (`_Form`); `move_objectives` scores single-cell moves
    from that form, or from it with every pair of T (`full_spectrum`).
    `counts` tallies dense solves, secular move scores, full spectra of T and
    annealing guard-band re-solves.
    """

    def __init__(self, grid, params, m, Lambda):
        self.table = kernel_table(grid, params.s)
        self.h, self.n, self.m, self.Lambda = grid.h, grid.n, m, Lambda
        self.counts = {"dense": 0, "secular": 0, "full_eigh": 0, "guard": 0}

    def solve(self, idx):
        """(objective, lambdas, form with T's m + 1 lowest pairs); inf, Nones below m nodes."""
        if idx.size < self.m:
            return np.inf, None, None
        self.counts["dense"] += 1
        form = _Form(self.table.stiffness(idx), idx, self.m + 1)
        lams = form.lam[: self.m] / self.h**self.n
        return float(np.sum(lams) + self.Lambda * self.h**self.n * idx.size), lams, form

    def objective(self, idx):
        return self.solve(idx)[:2]

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
        term or v = Q^T e_j without it (Golub 1973; see `_secular_roots`). If
        the form holds T's lowest pairs only, sum_i w_i / (lam_i - mu) is
        v^T (T - mu)^-1 v. A move leaving fewer than m nodes scores inf.
        """
        idx, m, d = form.idx, self.m, form.idx.size
        self.counts["secular"] += cells.size
        add = ~np.isin(cells, idx)
        B, alpha = self.table.border(idx, cells[add])
        V = form.qt(np.hstack([B, np.arange(d)[:, None] == np.searchsorted(idx, cells[~add])]))
        roots = np.full((cells.size, m), np.inf)
        for sel, v, alpha in ((add, V[:, : B.shape[1]], alpha), (~add, V[:, B.shape[1]:], None)):
            if sel.any() and d + (1 if alpha is not None else -1) >= m:
                res = None if form.lam.size == d else form.resolvent(v)
                roots[sel] = _secular_roots(form.lam, (v.T @ form.S) ** 2, m, alpha, res)
        size = d + np.where(add, 1, -1)
        return roots.sum(axis=1) / self.h**self.n + self.Lambda * self.h**self.n * size


class _Form:
    """K = Q T Q^T (dsytrd, lower; K is overwritten) and the k lowest pairs
    (lam, S) of T by bisection and inverse iteration, for d >= 1 nodes."""

    def __init__(self, K, idx, k):
        d, self.idx = idx.size, idx
        # block size 16 (set by the workspace) beat 32 at d = 145..1200, one thread
        c, self.diag, off, self.tau = _lapack("dsytrd", K.T, lower=1, lwork=16 * d,
                                              overwrite_a=1)
        # Q = diag(1, Q'), Q' the product of the reflectors below the subdiagonal
        self.reflectors = np.asfortranarray(c[1:, :-1])
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

    def resolvent(self, V):
        """`_secular_roots`' resolvent for the columns v of V: its sums are v^T y
        and y^T y for the tridiagonal solve y = (T - x)^-1 v."""
        def sums(cand, x):
            y = np.array([_lapack("dgtsv", self.off, self.diag - mu, self.off, V[:, c])[3]
                          for c, mu in zip(cand, x)])
            return np.einsum("ij,ji->i", y, V[:, cand]), np.einsum("ij,ij->i", y, y)
        return sums, (V * V).sum(0), self.norm


def _lapack(name, *args, **kwargs):
    """LAPACK `name`'s outputs but info; a nonzero info raises LinAlgError."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed with info {info}")
    return out


def _secular_roots(lam, w, m, alpha=None, resolvent=None):
    """The m lowest roots of F(mu) = [mu - alpha] + sum_i w_i / (lam_i - mu).

    w has one row of weights per candidate; alpha (one per candidate) is given
    for an addition only. Given resolvent = (sums, total, norm), lam and w
    hold only the min(m + 1, d) lowest of the d > m + 1 poles, sums(cand, x)
    gives sum_i w_i / (lam_i - x) and its derivative over all poles at one x
    per candidate (exact to eps max(|x|, norm) in x), total the weight sums.

    With e = (0, lam, top), top = max(lam_d, alpha) + |w|^(1/2) (Weyl), root k
    lies in [a, b] = [e_k, e_{k+1}] for an addition (the new matrix is
    positive definite) and in [lam_k, lam_{k+1}] for a removal. Each step
    matches the pole sums left and right of [a, b] (the linear term counts
    right) in value and derivative by P/(a - mu) and Q/(b - mu) plus a
    constant, and takes that model's root in [a, b] (Bunch, Nielsen and
    Sorensen 1978), or the midpoint of F's sign bracket if the model root
    leaves it. A pole at a bracket end whose weight vanishes (at most eps
    times the total, as on a nodal line) is deflated: the first step probes
    a few ulps inside that end for the side of the root.
    """
    top = None  # needed only where every pole is explicit
    if resolvent is None:
        def sums(cand, x, lam=lam, w=w):
            inv = 1.0 / (lam - x[:, None])
            t = w[cand] * inv
            return t.sum(1), (t * inv).sum(1)
        resolvent = sums, w.sum(1), 0.0
        if alpha is not None:
            top = np.maximum(lam.max(initial=0.0), alpha) + np.sqrt(w.sum(1))
        lam, w = lam[: m + 1], w[:, : m + 1]
    sums, total, norm = resolvent
    cand, r = np.divmod(np.arange(w.shape[0] * m), m)  # the pairs (candidate, root)
    split = r + (alpha is None)  # number of poles left of the pair's bracket
    ext = np.concatenate([[0.0], lam, [np.inf]])
    a, b = ext[split], ext[split + 1]
    if top is not None:
        b = np.where(split == lam.size, top[cand], b)
    left = np.arange(min(m, lam.size)) < split[:, None]  # left poles are among the first m
    # whether the weights of the poles at a and b vanish (an end that is no pole: inf)
    wx = np.hstack([np.full((len(w), 1), np.inf), w, np.full((len(w), 1), np.inf)])
    flat = wx[cand[:, None], split[:, None] + [0, 1]] <= _EPS * total[cand, None]
    # 16 ulps: a step to a weighted pole closer than 8 ulps would count as done
    near = np.minimum(16 * _EPS * np.maximum(np.abs(b), norm), 0.5 * (b - a))
    x = np.select([flat[:, 0], flat[:, 1]], [a + near, b - near], 0.5 * (a + b))
    lo, hi = a.copy(), b.copy()  # (lo, hi) is F's sign bracket
    act = np.flatnonzero((x > lo) & (x < hi))  # pairs still iterating
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(_ROOT_STEPS):
            if act.size == 0:
                return x.reshape(-1, m)
            xa, da, db = x[act], a[act] - x[act], b[act] - x[act]
            inv = 1.0 / (lam[: left.shape[1]] - xa[:, None])
            t = w[cand[act], : left.shape[1]] * inv
            fl = np.where(left[act], t, 0.0).sum(1)
            gl = np.where(left[act], t * inv, 0.0).sum(1)
            F, dF = sums(cand[act], xa)
            # rounding error of F, chiefly from lam_i - mu (exact only to an ulp
            # of max(|mu|, norm), hence the F' part); a smaller |F| is a root
            noise = F - 2.0 * fl  # sum of |w_i / (lam_i - mu)|
            if alpha is not None:
                F += xa - alpha[cand[act]]
                dF += 1.0
                noise += np.abs(alpha[cand[act]])
            noise += np.maximum(np.abs(xa), norm) * dF
            lo[act] = l = np.where(F < 0, xa, lo[act])
            hi[act] = h = np.where(F > 0, xa, hi[act])
            P, Q = gl * da * da, (dF - gl) * db * db
            c = F - P / da - Q / db
            # c y^2 - B y + C = 0 in the step y = new - x, its stable root pair
            B, C = c * (da + db) + P + Q, F * da * db
            q = B + np.copysign(np.sqrt(B * B - 4.0 * c * C), B)
            step = np.where((2 * C / q > da) & (2 * C / q < db), 2 * C / q, q / (2 * c))
            new = xa + step
            probe = flat[act].any(1) & (it == 0)  # no model step from beside a pole
            new = np.where((new > l) & (new < h) & ~probe, new, 0.5 * (l + h))
            done = np.abs(F) <= 8 * _EPS * noise
            x[act] = np.where(done, xa, new)
            act = act[~(done | (new <= l) | (new >= h))]
    raise AssertionError(f"secular roots did not converge in {_ROOT_STEPS} steps")


def _neighbor_offsets(grid):
    """Flat-index offsets of the 2n face neighbours of a node."""
    stride = np.ones(grid.n, dtype=int)
    for ax in range(grid.n - 2, -1, -1):
        stride[ax] = stride[ax + 1] * grid.node_shape[ax + 1]
    return np.stack([stride, -stride], axis=1).ravel()


def _candidates(grid, mask_flat, kind):
    """Seed cells of admissible moves, sorted by flat index."""
    interior = grid.interior().ravel()
    if kind == "single-flip":
        return np.flatnonzero(interior)
    nbr_mask = _neighbor_counts(mask_flat.reshape(grid.node_shape)).ravel()
    add = interior & ~mask_flat & (nbr_mask > 0)
    rem = mask_flat & (nbr_mask < 2 * grid.n)
    return np.flatnonzero(add | rem)


def _apply_move(grid, mask_flat, seed_cell, kind):
    new = mask_flat.copy()
    if kind in ("single-flip", "boundary-flip"):
        new[seed_cell] = ~new[seed_cell]
        return new
    offs = _neighbor_offsets(grid)
    target = ~mask_flat[seed_cell]
    interior = grid.interior().ravel()
    block = [seed_cell]
    for o in offs:
        j = seed_cell + o
        if 0 <= j < new.size and interior[j]:
            block.append(j)
    new[np.array(block)] = target
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
        if not start.any():
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
            if stopped:
                trace.interrupted = True
                break
    except np.linalg.LinAlgError:
        trace.aborted = True
    trace.wall_time = time.perf_counter() - t_start
    trace.evaluations = dict(ev.counts)
    if trace.best_mask is None and trace.records:
        trace.aborted = True
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
        trace.best_lambdas = None if lams is None else np.array(lams)


def _shortlist(scores):
    """Positions of the scores at most 1e-9·max(1, |low|) above the lowest finite one."""
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return np.empty(0, dtype=int)
    low = finite.min()
    return np.flatnonzero(scores <= low + 1e-9 * max(1.0, abs(low)))


def _run_greedy(grid, ev, config, mask, trace, restart, should_stop):
    h, n = grid.h, grid.n
    kind = config.move_kind
    obj, lams, form = ev.solve(np.flatnonzero(mask))
    _record(trace, restart, 0, obj, mask, lams, True, h, n)
    _update_best(trace, grid, mask, obj, lams)
    iteration = 0
    while True:
        if should_stop is not None and should_stop():
            return True
        iteration += 1
        cands = _candidates(grid, mask, kind)
        if kind == "block-flip" or form is None:
            scores, near = None, range(cands.size)
        else:
            # secular scores pick the few candidates that can win; those are
            # re-solved densely so the tie rule sees exactly the dense values
            scores = ev.move_objectives(ev.full_spectrum(form), cands)
            near = _shortlist(scores)
        best_i, best_obj, best_lams, best_new = -1, obj, lams, None
        for i in near:
            new = _apply_move(grid, mask, cands[i], kind)
            o, lms, f = ev.solve(np.flatnonzero(new))
            if o < best_obj - 1e-12:
                best_i, best_obj, best_lams, best_new, form = i, o, lms, new, f
        if best_i < 0:
            # no finite objective was found: there is no optimum to certify
            trace.certified = bool(np.isfinite(obj)) and _certify(grid, ev, config, mask, obj)
            return False
        if scores is not None:
            _check_secular(scores[best_i], best_obj, cands[best_i])
        # removing a cell cannot lower an eigenvalue (Cauchy interlacing)
        if (best_new.sum() < mask.sum() and lams is not None and best_lams is not None
                and np.any(np.asarray(best_lams) < np.asarray(lams) - 1e-9 * np.abs(lams))):
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
        new = _apply_move(grid, mask, c, config.move_kind)
        o, _ = ev.objective(np.flatnonzero(new))
        if o < obj - 1e-10:
            raise AssertionError(
                f"local optimality certificate failed: cell {c} improves by {obj - o:.3e}"
            )
    return True


def _run_anneal(grid, ev, config, mask, trace, restart, rng, should_stop):
    h, n = grid.h, grid.n
    kind = config.move_kind
    obj, lams, form = ev.solve(np.flatnonzero(mask))
    _record(trace, restart, 0, obj, mask, lams, True, h, n)
    _update_best(trace, grid, mask, obj, lams)
    T = config.t0
    stale = 0
    cands = _candidates(grid, mask, kind)
    for step in range(1, config.steps + 1):
        if should_stop is not None and should_stop():
            return True
        if cands.size == 0:
            break
        c = cands[rng.integers(cands.size)]
        new = _apply_move(grid, mask, c, kind)
        if kind == "block-flip" or form is None:
            accept, o, lms, f = _metropolis(ev, new, obj, T, rng)
        else:
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
    densely, so the recorded values are the dense ones."""
    score = ev.move_objectives(form, np.array([cell]))[0]
    delta, eps, T = score - obj, 1e-9 * max(1.0, abs(obj)), max(T, 1e-12)
    u = rng.random() if np.isfinite(score) and delta > eps else None
    if u is not None and u >= np.exp(-(delta - eps) / T):
        return False, None, None, None
    if not delta < -eps and (u is None or u >= np.exp(-(delta + eps) / T)):
        ev.counts["guard"] += 1
        return _metropolis(ev, new, obj, T, rng, u)
    o, lms, f = ev.solve(np.flatnonzero(new))
    _check_secular(score, o, cell)
    return True, o, lms, f


# ---------------------------------------------------------------------------


@dataclass
class RescaledField:
    """Blow-up sample G_{X0,r}(X) = r^{-s} G(X0 + r X) on a unit-scale grid.

    values has shape xgrid.node_shape + (len(y_levels), m).
    """

    xgrid: BoxGrid
    y_levels: np.ndarray
    values: np.ndarray
    r: float
    x0: np.ndarray

    @property
    def m(self):
        return self.values.shape[-1]

    def magnitude(self):
        return np.sqrt(np.sum(self.values**2, axis=-1))

    def ball_mask(self):
        """Boolean array over nodes with |(x, y)| <= 1."""
        coords = self.xgrid.node_coords()
        d2 = (coords**2).sum(axis=1)[:, None] + self.y_levels[None, :] ** 2
        return (d2 <= 1.0 + 1e-12).reshape(self.xgrid.node_shape + (len(self.y_levels),))


def blow_up_rescale(source, x0, r, s):
    """Rescale a field around a thin-space point onto the unit ball scale.

    source: extension fields or a (BoxGrid, node_array) trace pair, in any
    form `_as_fields` accepts; a trace pair is sampled on y = 0 only. The
    rescaled field has one component per field or trace.
    """
    base, fields, traces = _as_fields(source)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    r = float(r)
    if r <= 0:
        raise ValueError("rescale radius must be positive")
    if np.any(x0 - r < base.lower - 1e-12) or np.any(x0 + r > base.upper + 1e-12):
        raise ValueError("blow-up window exits the field footprint")
    cells = int(np.clip(np.round(2.0 * r / base.h), 8, 128))
    xg = BoxGrid(base.n, -1.0, 1.0, cells)
    if fields is not None:
        y_native = fields[0].slab.y_nodes
        y_lv = y_native[y_native <= r * (1 + 1e-12)] / r
        if y_lv.size == 0 or y_lv[-1] < 1.0 - 1e-12:
            y_lv = np.append(y_lv, 1.0)
    else:
        y_lv = np.array([0.0])
    pts_x = xg.node_coords() * r + x0[None, :]
    if fields is not None:
        # every (node, level) pair, node-major, in one interpolation of all fields
        q = np.column_stack([np.repeat(pts_x, y_lv.size, axis=0),
                             np.tile(y_lv * r, len(pts_x))])
        comps = _interp(fields, q)
    else:
        at = _multilinear_at(base, pts_x)
        comps = [at(comp) for comp in traces]
    vals = np.stack(comps, axis=-1).reshape(len(pts_x), y_lv.size, len(traces))
    vals *= r ** (-s)
    return RescaledField(
        xgrid=xg,
        y_levels=y_lv,
        values=vals.reshape(xg.node_shape + (y_lv.size, -1)),
        r=r,
        x0=x0,
    )


def perimeter_estimate(mask):
    """h^(n-1) times the count of mask/non-mask cell interfaces inside D."""
    if not isinstance(mask, ThinDomain):
        raise TypeError("mask must be a ThinDomain")
    grid = mask.grid
    # masks never touch the ring, so each mask node has all 2n face neighbours
    count = int(np.sum(2 * grid.n - _neighbor_counts(mask.mask)[mask.mask]))
    return count * grid.h ** (grid.n - 1)
