"""Pixel-set minimization of sum-of-eigenvalues plus volume penalty.

The search space is node masks on a BoxGrid with a one-cell margin. Because
zero-extension makes the stiffness matrix of a subdomain a principal submatrix
of the full-grid matrix, every mask's matrix is a selection from a kernel
table assembled once. A single-cell move borders or deletes one row and
column of that matrix, so one eigendecomposition of a mask scores any number
of such moves through secular equations. Greedy descent (steepest, with
deterministic tie-breaking) scores every candidate so and re-solves densely
the few within 1e-9 of the best score; the tie rule runs on those dense
values. Annealing (Metropolis with geometric cooling, one candidate per step)
solves the first proposal on each mask densely and scores later ones
secularly, re-solving densely an accepted proposal or a decision within 1e-9
of its threshold. Both record what a dense solve of every candidate gives.
Block-flip moves and the local-optimality certificate are solved densely.
Degenerate proposals (disconnecting or emptying the mask) are admissible.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from .extension import _as_fields, _multilinear
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
# a root takes a few steps, up to ~55 midpoint steps at a bracket end; this
# only bounds the loop
_ROOT_STEPS = 128


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
    spot_check_rate: float = 0.05

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
        if not 0.0 <= self.spot_check_rate <= 1.0:
            raise ValueError("spot_check_rate must lie in [0, 1]")


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

    `objective` solves the dense eigenproblem of one mask; `move_objectives`
    scores single-cell moves from a mask's eigendecomposition (`decompose`).
    `counts` tallies dense subset solves, secular move scores, full
    eigendecompositions and annealing guard-band re-solves.
    """

    def __init__(self, grid, params, m, Lambda):
        self.table = kernel_table(grid, params.s)
        self.h = grid.h
        self.n = grid.n
        self.m = m
        self.Lambda = Lambda
        self.counts = {"dense": 0, "secular": 0, "full_eigh": 0, "guard": 0}

    def lambdas(self, idx):
        if idx.size < self.m:
            return None
        K = self.table.stiffness(idx)
        self.counts["dense"] += 1
        vals = linalg.eigh(
            K, subset_by_index=(0, self.m - 1), eigvals_only=True, driver="evr"
        )
        return vals / self.h**self.n

    def objective(self, idx):
        lams = self.lambdas(idx)
        if lams is None:
            return np.inf, None
        meas = self.h**self.n * idx.size
        return float(np.sum(lams) + self.Lambda * meas), lams

    def decompose(self, mask_flat):
        """(mask, nodes, lam, U) with K = U diag(lam) U^T the mask's matrix."""
        idx = np.flatnonzero(mask_flat)
        lam, U = linalg.eigh(self.table.stiffness(idx), driver="evd")
        self.counts["full_eigh"] += 1
        return mask_flat, idx, lam, U

    def move_objectives(self, dec, cells):
        """Objective after flipping each one of `cells` alone in the decomposed mask.

        With K = U diag(lam) U^T the mask's matrix, adding a cell borders K with a
        column b and a diagonal entry alpha, and removing the node at position
        j deletes row and column j. The m lowest eigenvalues of the new matrix
        are the roots of the increasing secular function
        F(mu) = [mu - alpha] + sum_i w_i / (lam_i - mu), with w = (U^T b)^2 and
        the bracketed term for an addition, w = U[j]^2 and no bracketed term
        for a removal (Golub 1973); Cauchy interlacing brackets them (see
        `_secular_roots`; the top bracket of an addition ends at
        max(lam_d, alpha) + |U^T b|). A move that leaves fewer than m nodes
        scores inf.
        """
        mask_flat, idx, lam, U = dec
        m, d = self.m, idx.size
        self.counts["secular"] += cells.size
        add = ~mask_flat[cells]
        roots = np.full((cells.size, m), np.inf)
        if d + 1 >= m and add.any():
            B, alpha = self.table.border(idx, cells[add])
            z = B.T @ U  # one row U^T b per cell
            top = np.maximum(lam.max(initial=0.0), alpha) + np.linalg.norm(z, axis=1)
            roots[add] = _secular_roots(lam, z**2, m, alpha, top)
        if d - 1 >= m and not add.all():
            w = U[np.searchsorted(idx, cells[~add])] ** 2
            roots[~add] = _secular_roots(lam, w, m)
        size = d + np.where(add, 1, -1)
        return roots.sum(axis=1) / self.h**self.n + self.Lambda * self.h**self.n * size


def _secular_roots(lam, w, m, alpha=None, top=None):
    """The m lowest roots of F(mu) = [mu - alpha] + sum_i w_i / (lam_i - mu).

    w has one row of weights per candidate; alpha and top (one per candidate)
    are given for an addition only. With e = (0, lam, top), root k lies in
    [a, b] = [e_k, e_{k+1}] for an addition (the new matrix is positive
    definite) and in [lam_k, lam_{k+1}] for a removal. Each step matches the
    pole sums left and right of [a, b] (the linear term counts right) in value
    and derivative by P/(a - mu) and Q/(b - mu) plus a constant, and takes
    that model's root in [a, b] (Bunch, Nielsen and Sorensen 1978), or the
    midpoint of F's sign bracket if the model root leaves it. Roots at a
    bracket end (a vanishing weight, coinciding poles) need no special code.
    """
    cand, r = np.divmod(np.arange(w.shape[0] * m), m)  # the pairs (candidate, root)
    split = r + (alpha is None)  # number of poles left of the pair's bracket
    ext = np.concatenate([[0.0], lam, [np.inf]])
    a, b = ext[split], ext[split + 1]
    if alpha is not None:
        b = np.where(split == lam.size, top[cand], b)
    left = np.arange(min(m, lam.size)) < split[:, None]  # left poles are among the first m
    lo, hi, x = a.copy(), b.copy(), 0.5 * (a + b)  # (lo, hi) is F's sign bracket
    act = np.flatnonzero((x > lo) & (x < hi))  # pairs still iterating
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_ROOT_STEPS):
            if act.size == 0:
                return x.reshape(-1, m)
            xa, da, db = x[act], a[act] - x[act], b[act] - x[act]
            inv = 1.0 / (lam - xa[:, None])
            t = w[cand[act]] * inv
            dt = t * inv
            fl = np.where(left[act], t[:, :left.shape[1]], 0.0).sum(1)
            gl = np.where(left[act], dt[:, :left.shape[1]], 0.0).sum(1)
            F, dF = t.sum(1), dt.sum(1)
            # rounding error of F, chiefly from lam_i - mu (exact only to an ulp
            # of mu, hence the |mu| F' part); a smaller |F| is a root
            noise = F - 2.0 * fl  # sum of |w_i / (lam_i - mu)|
            if alpha is not None:
                F += xa - alpha[cand[act]]
                dF += 1.0
                noise += np.abs(alpha[cand[act]])
            noise += np.abs(xa) * dF
            lo[act] = l = np.where(F < 0, xa, lo[act])
            hi[act] = h = np.where(F > 0, xa, hi[act])
            P, Q = gl * da * da, (dF - gl) * db * db
            c = F - P / da - Q / db
            # c y^2 - B y + C = 0 in the step y = new - x, its stable root pair
            B, C = c * (da + db) + P + Q, F * da * db
            q = B + np.copysign(np.sqrt(B * B - 4.0 * c * C), B)
            step = np.where((2 * C / q > da) & (2 * C / q < db), 2 * C / q, q / (2 * c))
            new = xa + step
            new = np.where((new > l) & (new < h), new, 0.5 * (l + h))
            done = np.abs(F) <= 8 * np.finfo(float).eps * noise
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
                                      rng, should_stop)
            else:
                stopped = _run_anneal(design_box, ev, config, mask, trace, restart,
                                      rng, should_stop)
            if stopped:
                trace.interrupted = True
                break
    except linalg.LinAlgError:
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


def _run_greedy(grid, ev, config, mask, trace, restart, rng, should_stop):
    h, n = grid.h, grid.n
    kind = config.move_kind
    obj, lams = ev.objective(np.flatnonzero(mask))
    _record(trace, restart, 0, obj, mask, lams, True, h, n)
    _update_best(trace, grid, mask, obj, lams)
    iteration = 0
    while True:
        if should_stop is not None and should_stop():
            return True
        iteration += 1
        cands = _candidates(grid, mask, kind)
        if kind == "block-flip":
            scores, near = None, range(cands.size)
        else:
            # secular scores pick the few candidates that can win; those are
            # re-solved densely so the tie rule sees exactly the dense values
            scores = ev.move_objectives(ev.decompose(mask), cands)
            near = _shortlist(scores)
        best_i, best_obj, best_lams, best_new = -1, obj, lams, None
        for i in near:
            new = _apply_move(grid, mask, cands[i], kind)
            o, lms = ev.objective(np.flatnonzero(new))
            if o < best_obj - 1e-12:
                best_i, best_obj, best_lams, best_new = i, o, lms, new
        if best_i < 0:
            # no finite objective was found: there is no optimum to certify
            trace.certified = bool(np.isfinite(obj)) and _certify(grid, ev, config, mask, obj)
            return False
        if scores is not None:
            _check_secular(scores[best_i], best_obj, cands[best_i])
        if (
            best_new.sum() < mask.sum()
            and lams is not None
            and best_lams is not None
            and rng.random() < config.spot_check_rate
        ):
            if np.any(np.asarray(best_lams) < np.asarray(lams) - 1e-9 * np.abs(lams)):
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
    obj, lams = ev.objective(np.flatnonzero(mask))
    _record(trace, restart, 0, obj, mask, lams, True, h, n)
    _update_best(trace, grid, mask, obj, lams)
    T = config.t0
    stale = 0
    # whether a proposal on the current mask was rejected; the mask's decomposition
    rejected, dec = False, None
    for step in range(1, config.steps + 1):
        if should_stop is not None and should_stop():
            return True
        cands = _candidates(grid, mask, kind)
        if cands.size == 0:
            break
        c = cands[rng.integers(cands.size)]
        new = _apply_move(grid, mask, c, kind)
        if not rejected or kind == "block-flip" or not np.isfinite(obj):
            accept, o, lms = _metropolis(ev, new, obj, T, rng)
        else:
            if dec is None:
                dec = ev.decompose(mask)
            accept, o, lms = _secular_metropolis(ev, dec, c, new, obj, T, rng)
        rejected = not accept
        if accept:
            mask, obj, lams, dec = new, o, lms, None
        _record(trace, restart, step, obj, mask, lams, accept, h, n)
        before = trace.best_objective
        _update_best(trace, grid, mask, obj, lams)
        stale = 0 if trace.best_objective < before - 1e-15 else stale + 1
        if stale > config.stale_limit:
            break
        T *= config.cooling
    return False


def _metropolis(ev, new, obj, T, rng, u=None):
    """Dense Metropolis decision on the mask `new`; u is the uniform if already drawn."""
    o, lms = ev.objective(np.flatnonzero(new))
    delta = o - obj
    accept = delta < 0 or (
        np.isfinite(o)
        and (rng.random() if u is None else u) < np.exp(-delta / max(T, 1e-12))
    )
    return accept, o, lms


def _secular_metropolis(ev, dec, cell, new, obj, T, rng):
    """`_metropolis`'s decision from the secular score, which is far closer
    than eps = 1e-9·max(1, |obj|) to the dense one: below obj - eps accept;
    above obj + eps draw u as the dense rule would and let it decide unless it
    lies between the thresholds of the score -eps and +eps. That guard band and
    non-finite scores are decided densely; an accepted proposal is solved
    densely, so the recorded values are the dense ones."""
    score = ev.move_objectives(dec, np.array([cell]))[0]
    delta, eps, T = score - obj, 1e-9 * max(1.0, abs(obj)), max(T, 1e-12)
    u = rng.random() if np.isfinite(score) and delta > eps else None
    if u is not None and u >= np.exp(-(delta - eps) / T):
        return False, None, None
    if not delta < -eps and (u is None or u >= np.exp(-(delta + eps) / T)):
        ev.counts["guard"] += 1
        return _metropolis(ev, new, obj, T, rng, u)
    o, lms = ev.objective(np.flatnonzero(new))
    _check_secular(score, o, cell)
    return True, o, lms


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
    vals = np.empty((xg.num_nodes, y_lv.size, len(traces)))
    if fields is not None:
        # every (node, level) pair, node-major, in one gather per field
        q = np.column_stack([np.repeat(pts_x, y_lv.size, axis=0),
                             np.tile(y_lv * r, len(pts_x))])
        for ci, f in enumerate(fields):
            vals[..., ci] = f.interp(q).reshape(len(pts_x), y_lv.size)
    else:
        for ci, comp in enumerate(traces):
            vals[:, 0, ci] = _multilinear(base, comp, pts_x)
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
