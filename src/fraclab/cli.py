"""Command-line entry point: constants | eig | extend | optimize | diagnose | verify.

Every run writes a RunManifest (config snapshot, seed, input/output hashes,
phase wall-times) sufficient to replay it: pass a manifest.json as --config
and the recorded snapshot is reused. Exit codes: 0 success, 2 usage or config
parse error, 3 input compatibility (inputs on a grid of another dimension,
cell count or box), 4 numerical failure (LinAlgError included). The BLAS thread
count is set by OPENBLAS_NUM_THREADS / OMP_NUM_THREADS at launch: the package
imports numpy and scipy before main() runs, so it cannot change it.
"""

import argparse
import json
import math
import os
import signal
import sys
import threading
import time

import numpy as np

from . import (__version__, constants, diagnostics, eigen, extension, gridio, grids,
               nonlocal_form, shape_opt)

EXIT_OK, EXIT_USAGE, EXIT_COMPAT, EXIT_NUMERIC = 0, 2, 3, 4
_INTERRUPT_RC = 130


class UsageError(Exception):
    pass


# -- config plumbing ---------------------------------------------------------


def _load_config(path):
    """Returns (config dict, recorded seed or None). Accepts manifest JSON."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict) or "config" not in data:
            raise UsageError(f"{path}: JSON config must be a run manifest")
        return dict(data["config"]), data.get("seed")
    return gridio.parse_config(text), None


def _cfg(cfg, key, cast, default=None, required=False):
    if key not in cfg:
        if required:
            raise UsageError(f"config key '{key}' is required")
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key '{key}': {exc}") from None


def _checked(build, *args, **kwargs):
    """Call a constructor on config values; its ValueError is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_grid(cfg):
    n = _cfg(cfg, "n", int, required=True)
    cells = _cfg(cfg, "cells", int, required=True)
    lower = _cfg(cfg, "lower", float, -1.0)
    upper = _cfg(cfg, "upper", float, 1.0)
    return _checked(grids.BoxGrid, n, lower, upper, cells)


def _build_params(cfg):
    return _checked(constants.FracParams, _cfg(cfg, "n", int, required=True),
                    _cfg(cfg, "s", float, required=True), _cfg(cfg, "lambda", float, 1.0))


def _require_layout(grid, other, what):
    """CompatibilityError unless `other` has grid's dimension, cells and box."""
    if not other.same_layout(grid):
        raise gridio.CompatibilityError(f"{what}: grid {other!r} does not match {grid!r}")


class _Run:
    """The bookkeeping of one manifest-writing command: its config, the
    RunManifest with the hashes of the inputs read and the outputs written
    under --out, and the phase wall-times."""

    def __init__(self, args, command):
        self.t0 = time.perf_counter()
        self.args = args
        self.manifest = gridio.RunManifest(__version__, command, {})
        self.cfg, self._recorded_seed = self.input(args.config, _load_config)
        self.manifest.config = dict(self.cfg)

    def input(self, path, read):
        """read(path), with the file's hash recorded."""
        value = read(path)
        self.manifest.input_hashes[path] = gridio.sha256_file(path)
        return value

    def seed(self):
        """--seed, else the seed of a replayed manifest, else config key
        `seed` (default 0); recorded in the manifest."""
        seed = self.args.seed if self.args.seed is not None else self._recorded_seed
        self.manifest.seed = int(_cfg(self.cfg, "seed", int, 0) if seed is None else seed)
        return self.manifest.seed

    def timed(self, phase, fn, *args):
        t1 = time.perf_counter()
        out = fn(*args)
        self.manifest.wall_times[phase] = round(time.perf_counter() - t1, 6)
        return out

    def output(self, name):
        """Path of output `name` in --out, which is created; finish hashes it."""
        os.makedirs(self.args.out, exist_ok=True)
        self.manifest.outputs[name] = None
        return os.path.join(self.args.out, name)

    def write_text(self, name, text):
        gridio.atomic_write_text(self.output(name), text)

    def write_json(self, name, data):
        self.write_text(name, json.dumps(data, indent=2, sort_keys=True) + "\n")

    def finish(self, complete=True):
        for name in self.manifest.outputs:
            self.manifest.outputs[name] = gridio.sha256_file(os.path.join(self.args.out, name))
        self.manifest.wall_times["total"] = round(time.perf_counter() - self.t0, 6)
        self.manifest.complete = complete
        self.manifest.save(os.path.join(self.args.out, "manifest.json"))


def _domain_from(run, grid):
    spec = _cfg(run.cfg, "domain", str, required=True).split() or [""]
    if spec[0] == "interval":
        if grid.n != 1 or len(spec) != 3:
            raise UsageError("domain = interval A B needs n=1")
        a, b = _checked(lambda: [float(v) for v in spec[1:]])
        return grids.interval_domain(grid, a, b)
    if spec[0] == "ball":
        if len(spec) != grid.n + 2:
            raise UsageError("domain = ball CENTER... R")
        *center, radius = _checked(lambda: [float(v) for v in spec[1:]])
        return grids.ball_domain(grid, center, radius)
    if spec[0] == "mask":
        if len(spec) != 2:
            raise UsageError("domain = mask PATH")
        dom = run.input(spec[1], gridio.read_mask)
        _require_layout(grid, dom.grid, spec[1])
        return dom
    raise UsageError(f"unknown domain kind {spec[0]!r}")


def _fmt(x):
    return repr(float(x))


# -- subcommands -------------------------------------------------------------


def cmd_constants(args):
    p = _checked(constants.FracParams, args.n, args.s, args.Lambda)
    out = {
        "n": args.n,
        "s": args.s,
        "Lambda": args.Lambda,
        "C_ns": p.c_ns,
        "d_s": p.d_s,
        "lambda_tilde": p.lambda_tilde,
        "slope_const": constants.slope_constant(args.Lambda, args.s),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eig(args):
    run = _Run(args, "eig")
    grid = _build_grid(run.cfg)
    params = _build_params(run.cfg)
    m = _cfg(run.cfg, "m", int, 1)
    dom = _domain_from(run, grid)
    if dom.cell_count == 0:
        raise UsageError("the domain contains no nodes")
    if not 1 <= m <= dom.cell_count:
        raise UsageError(f"m = {m} must lie in [1, {dom.cell_count}] (domain nodes)")
    form = run.timed("assemble", nonlocal_form.assemble_form, dom, params)
    bundle = run.timed("solve", eigen.lowest_eigenpairs, form, m)
    try:
        bundle.check()
    except AssertionError as exc:
        raise ArithmeticError(f"eigenpairs fail their check: {exc}") from None
    gridio.write_mask(run.output("mask.frlb"), dom)
    for i, fld in enumerate(bundle.full_fields(), start=1):
        gridio.write_fields(run.output(f"v{i:02d}.frlb"), grid, fld)
    run.write_json("lambdas.json", {
        "lambdas": [float(v) for v in bundle.lambdas],
        "residuals": [float(v) for v in bundle.residuals],
        "clustered": bool(bundle.clustered),
        "measure": dom.measure,
        "m": m,
    })
    run.finish()
    return EXIT_OK


def cmd_extend(args):
    run = _Run(args, "extend")
    params = _build_params(run.cfg)
    trace_path = _cfg(run.cfg, "trace", str, required=True)
    grid, fields = run.input(trace_path, gridio.read_fields)
    comp = _cfg(run.cfg, "component", int, 0)
    if not 0 <= comp < fields.shape[0]:
        raise UsageError(f"component {comp} out of range for {trace_path}")
    J = _cfg(run.cfg, "J", int, 32)
    Y = _cfg(run.cfg, "Y", float, None)
    gamma = _cfg(run.cfg, "gamma", float, None)
    slab = _checked(extension.SlabGrid, grid, J, a=params.a, Y=Y, gamma=gamma)
    fld = run.timed("solve", extension.extend, fields[comp], slab)
    energy = extension.extension_energy(fld)
    nt, flags = extension.neumann_trace(fld)
    gridio.write_slab_field(run.output("slab.frlb"), fld)
    gridio.write_fields(run.output("neumann.frlb"), grid, [nt, flags.astype(float)])
    run.write_json("energy.json", {
        "energy": energy,
        "ds_energy": params.d_s * energy,
        "neumann_flagged": int(flags.sum()),
        "J": J,
        "Y": slab.Y,
        "gamma": slab.gamma,
    })
    run.finish()
    return EXIT_OK


def _trace_csv(trace, m):
    head = "restart,iteration,objective,measure," + ",".join(
        f"lambda{i+1}" for i in range(m)
    ) + ",accepted\n"
    rows = []
    for r in trace.records:
        lams = list(r["lambdas"]) + [float("nan")] * (m - len(r["lambdas"]))
        rows.append(
            f"{r['restart']},{r['iteration']},{_fmt(r['objective'])},"
            f"{_fmt(r['measure'])},"
            + ",".join(_fmt(v) for v in lams)
            + f",{int(r['accepted'])}\n"
        )
    return head + "".join(rows)


def cmd_optimize(args):
    run = _Run(args, "optimize")
    cfg = run.cfg
    grid = _build_grid(cfg)
    params = _build_params(cfg)
    ocfg = _checked(
        shape_opt.OptimizerConfig,
        m=_cfg(cfg, "m", int, 1),
        Lambda=_cfg(cfg, "lambda", float, required=True),
        move_kind=_cfg(cfg, "move_kind", str, "boundary-flip"),
        schedule=_cfg(cfg, "schedule", str, "greedy"),
        t0=_cfg(cfg, "t0", float, 0.1),
        cooling=_cfg(cfg, "cooling", float, 0.97),
        steps=_cfg(cfg, "steps", int, 400),
        restarts=_cfg(cfg, "restarts", int, 1),
        seed=run.seed(),
        stale_limit=_cfg(cfg, "stale_limit", int, 200),
    )
    if ocfg.m > grid.interior().sum():
        raise UsageError(f"m = {ocfg.m} exceeds the design box's interior nodes")
    stop_flag = threading.Event()
    previous = {}

    def _handler(signum, frame):
        stop_flag.set()

    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _handler)
    try:
        trace = shape_opt.optimize(grid, ocfg, params, should_stop=stop_flag.is_set)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    run.write_text("trace.csv", _trace_csv(trace, ocfg.m))
    if trace.best_mask is not None:
        gridio.write_mask(run.output("best_mask.frlb"), trace.best_mask)
    run.write_json("summary.json", {
        # a run that found no finite objective has no best value (and JSON
        # has no Infinity)
        "best_objective": (trace.best_objective
                           if math.isfinite(trace.best_objective) else None),
        "best_lambdas": None
        if trace.best_lambdas is None
        else [float(v) for v in trace.best_lambdas],
        "measure": None if trace.best_mask is None else trace.best_mask.measure,
        "certified": trace.certified,
        "evaluations": trace.evaluations,
        "aborted": trace.aborted,
        "interrupted": trace.interrupted,
        "seed": ocfg.seed,
        "restarts": ocfg.restarts,
    })
    run.finish(complete=not (trace.interrupted or trace.aborted))
    if trace.interrupted:
        return _INTERRUPT_RC
    if trace.aborted:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_diagnose(args):
    run = _Run(args, "diagnose")
    cfg = run.cfg
    params = _build_params(cfg)
    dom = run.input(_cfg(cfg, "mask", str, required=True), gridio.read_mask)
    grid = dom.grid
    traces = []
    for fp in _cfg(cfg, "fields", str, required=True).split(","):
        fp = fp.strip()
        fgrid, arr = run.input(fp, gridio.read_fields)
        _require_layout(grid, fgrid, fp)
        traces.extend(arr)
    fb = diagnostics.free_boundary_set(dom)
    sel = list(range(len(fb)))
    if args.points:
        sel = _checked(lambda: [int(v) for v in args.points.split(",")])
        bad = [i for i in sel if not 0 <= i < len(fb)]
        if bad:
            raise UsageError(f"--points indices out of range: {bad}")
    J = _cfg(cfg, "J", int, 32)
    Y = _cfg(cfg, "Y", float, None)
    slab = _checked(extension.SlabGrid, grid, J, a=params.a, Y=Y)
    ext_fields = [extension.extend(tr, slab) for tr in traces]
    c_tilde = extension._c_tilde(ext_fields, params)
    h = grid.h
    r_lo = _cfg(cfg, "r_min_cells", float, 5.0) * h
    r_hi = _cfg(cfg, "r_max_cells", float, 10.0) * h
    ccfg = diagnostics.ClassifierConfig(
        tol=_cfg(cfg, "class_tol", float, 0.1),
        delta=_cfg(cfg, "class_delta", float, 0.05),
        flat_threshold=_cfg(cfg, "class_flat_threshold", float, 0.2),
    )
    xcols = ",".join(f"x{i}" for i in range(grid.n))
    weiss_rows = [f"# point,{xcols},r,W\n"]
    dens_rows = [f"# point,{xcols},r,ratio\n"]
    slope_rows = [f"# point,{xcols},alpha,target\n"]
    cls_points = []
    target = constants.slope_constant(params.lambda_penalty, params.s)
    counts = {}
    for k in sel:
        x0 = fb.points[k]
        xs = ",".join(_fmt(v) for v in x0)
        rmax_geo = min(np.min(x0 - grid.lower), np.min(grid.upper - x0))
        radii = [r for r in np.linspace(r_lo, r_hi, 4) if r < rmax_geo]
        for r in radii:
            dens_rows.append(f"{k},{xs},{_fmt(r)},{_fmt(diagnostics.density_ratio(dom, x0, r))}\n")
        if len(radii) >= 4:
            cur = diagnostics.weiss_curve(ext_fields, x0, radii, params, c_tilde=c_tilde)
            for r, w in zip(cur.radii, cur.values):
                weiss_rows.append(f"{k},{xs},{_fmt(r)},{_fmt(w)}\n")
        pc = diagnostics.classify(dom, ext_fields, x0, ccfg, params, fb.normals[k])
        slope_rows.append(f"{k},{xs},{_fmt(pc.slope)},{_fmt(target)}\n")
        counts[pc.label] = counts.get(pc.label, 0) + 1
        cls_points.append(
            {
                "point": int(k),
                "x": [float(v) for v in x0],
                "density_limit": pc.density_limit,
                "label": pc.label,
                "flatness": None if np.isnan(pc.flatness) else pc.flatness,
                "slope": None if np.isnan(pc.slope) else pc.slope,
            }
        )
    run.write_text("weiss.csv", "".join(weiss_rows))
    run.write_text("density.csv", "".join(dens_rows))
    run.write_text("slopes.csv", "".join(slope_rows))
    run.write_json("classification.json", {
        "counts": counts,
        "points": cls_points,
        "tolerances": {
            "tol": ccfg.tol,
            "delta": ccfg.delta,
            "flat_threshold": ccfg.flat_threshold,
        },
    })
    run.finish()
    return EXIT_OK


def cmd_verify(args):
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    t = np.linspace(-1, 1, 101)
    u0 = constants.one_plane_solution(t, 0.0, 0.5)
    ok = np.allclose(u0, np.maximum(t, 0.0) ** 0.5, atol=1e-12)
    z = np.linspace(0.1, 1, 10)
    ok &= np.allclose(constants.one_plane_solution(0.0, z, 0.3), (z / 2) ** 0.3, atol=1e-12)
    r = np.full(8, 0.7)
    th = np.linspace(0, np.pi, 8)
    ok &= np.allclose(
        constants.one_plane_solution_polar(r, th, 0.6),
        constants.one_plane_solution(r * np.cos(th), r * np.sin(th), 0.6),
        atol=1e-12,
    )
    lam4 = constants.one_plane_solution(2.0 * 0.37, 2.0 * 0.11, 0.45)
    ok &= abs(lam4 - 2.0**0.45 * constants.one_plane_solution(0.37, 0.11, 0.45)) < 1e-12
    check("one-plane profile identities", bool(ok))

    res = []
    for h in (0.02, 0.01):
        tt = -1.0 + h * np.arange(int(round(2.0 / h)) + 1)
        zz = h * (1 + np.arange(int(round(0.5 / h)) + 1))
        gg = constants.one_plane_solution(tt[:, None], zz[None, :], 0.5)
        res.append(np.median(np.abs(constants.la_residual(gg, 0.5, h, t0=tt[0], z0=zz[0]))))
    order = np.log2(res[0] / res[1])
    check("weighted-operator residual refinement order >= 1", order >= 1.0,
          f"order {order:.2f}")

    check("extension constant d_{1/2} = 1", abs(constants.extension_constant(0.5) - 1.0) < 1e-13)
    check(
        "slope constant at s=1/2, Lambda=1",
        abs(constants.slope_constant(1.0, 0.5) - 2.0 / np.sqrt(np.pi)) < 1e-13,
    )

    p = constants.FracParams(1, 0.5, 1.0)
    g = grids.BoxGrid(1, -2.0, 2.0, 128)
    dom = grids.interval_domain(g, -1.0, 1.0)
    bundle = eigen.lowest_eigenpairs(nonlocal_form.assemble_form(dom, p), 2)
    lam = bundle.lambdas
    check(
        "interval spectrum: simple, positive, ordered",
        lam[0] > 0 and lam[1] > lam[0] * 1.01 and float(bundle.vectors[0].min()) >= 0,
        f"lam1={lam[0]:.4f}",
    )

    gs = grids.BoxGrid(1, -1.0, 1.0, 64)
    doms = grids.interval_domain(gs, -0.5, 0.5)
    ls = eigen.lowest_eigenpairs(nonlocal_form.assemble_form(doms, p), 1).lambdas[0]
    g2 = grids.BoxGrid(1, -2.0, 2.0, 64)
    dom2 = grids.interval_domain(g2, -1.0, 1.0)
    l2 = eigen.lowest_eigenpairs(nonlocal_form.assemble_form(dom2, p), 1).lambdas[0]
    check("scaling law exact", abs(l2 - ls / 2.0) < 1e-10 * ls, f"defect {abs(l2-ls/2):.2e}")

    x = g.axis_nodes()
    m = np.abs(x) < 1
    u = np.zeros_like(x)
    u[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    K = nonlocal_form.kernel_table(g, 0.5).stiffness(np.flatnonzero(g.interior().ravel()))
    q = float(u[g.interior().ravel()] @ K @ u[g.interior().ravel()])
    slab = extension.SlabGrid(g, 24, a=0.0, Y=4.0)
    e = extension.extension_energy(extension.extend(u, slab))
    rel = abs(p.d_s * e - q) / q
    check("extension energy identity within 5%", rel <= 0.05, f"mismatch {rel:.3%}")

    ok_all = all(checks)
    print(f"{sum(checks)}/{len(checks)} checks passed")
    return EXIT_OK if ok_all else EXIT_NUMERIC


# -- parser ------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fraclab",
        description="Spectral shape optimization laboratory for the fractional Laplacian",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print kernel and extension constants")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--s", type=float, required=True)
    c.add_argument("--Lambda", type=float, default=1.0)
    c.set_defaults(func=cmd_constants)

    for name, fn in (
        ("eig", cmd_eig),
        ("extend", cmd_extend),
        ("optimize", cmd_optimize),
        ("diagnose", cmd_diagnose),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        if name == "optimize":
            sp.add_argument("--seed", type=int, default=None)
        if name == "diagnose":
            sp.add_argument("--points", default=None,
                            help="comma-separated free-boundary point indices")
        sp.set_defaults(func=fn)

    v = sub.add_parser("verify", help="run the built-in acceptance spot checks")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except gridio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except gridio.CompatibilityError as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except (diagnostics.GeometryError, diagnostics.ResolutionError, np.linalg.LinAlgError,
            ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
