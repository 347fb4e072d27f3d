"""Command-line entry point: constants | eig | extend | optimize | diagnose | verify.

Every run writes a RunManifest (config snapshot, seed, input/output hashes,
phase wall-times) sufficient to replay it: pass a manifest.json as --config
and the recorded snapshot is reused. Exit codes: 0 success, 2 usage or config
parse error, 3 input compatibility (inputs on a grid of another dimension,
cell count or box; a trace that is not finite or not zero on the boundary
ring), 4 numerical failure (LinAlgError included). The BLAS thread
count is set by OPENBLAS_NUM_THREADS / OMP_NUM_THREADS at launch: the package
imports numpy and scipy before main() runs, so it cannot change it.
"""

import argparse
import json
import math
import os
import resource
import signal
import sys
import threading
import time

import numpy as np

from . import (__version__, checks, constants, diagnostics, eigen, extension, gridio, grids,
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
    if not text.lstrip().startswith("{"):
        return gridio.parse_config(text), None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise gridio.ConfigError(f"{path}: not valid JSON ({exc})") from None
    seed = data.get("seed")
    if not isinstance(data.get("config"), dict) or not isinstance(seed, (int, type(None))):
        raise gridio.ConfigError(f"{path}: JSON config must be a run manifest, with an "
                                 "object 'config' and an integer or null 'seed'")
    return data["config"], seed


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
        # ru_maxrss is in KiB on Linux
        self.manifest.peak_rss_mb = round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        self.manifest.save(os.path.join(self.args.out, "manifest.json"))


def _extend(trace, slab, path):
    """extension.extend of a trace read from `path`; a trace it rejects (not
    finite, or nonzero on the boundary ring) is an input error."""
    try:
        return extension.extend(trace, slab)
    except ValueError as exc:
        raise gridio.CompatibilityError(f"{path}: {exc}") from None


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
    fld = run.timed("solve", _extend, fields[comp], slab, trace_path)
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
        traces.extend((tr, fp) for tr in arr)
    fb = diagnostics.free_boundary_set(dom)
    sel = list(range(len(fb)))
    if args.points:
        sel = _checked(lambda: [int(v) for v in args.points.split(",")])
        bad = [i for i in sel if not 0 <= i < len(fb)]
        if bad:
            raise UsageError(f"--points indices out of range: {bad}")
    floor = diagnostics.WEISS_FLOOR_CELLS
    r_min_cells = _cfg(cfg, "r_min_cells", float, floor)
    if not r_min_cells >= floor:
        raise UsageError(f"r_min_cells = {r_min_cells} is below the Weiss floor, {floor} cells")
    r_lo = r_min_cells * grid.h
    r_hi = _cfg(cfg, "r_max_cells", float, 10.0) * grid.h
    ccfg = diagnostics.ClassifierConfig(
        tol=_cfg(cfg, "class_tol", float, 0.1),
        delta=_cfg(cfg, "class_delta", float, 0.05),
        flat_threshold=_cfg(cfg, "class_flat_threshold", float, 0.2),
    )
    J = _cfg(cfg, "J", int, 32)
    Y = _cfg(cfg, "Y", float, None)
    slab = _checked(extension.SlabGrid, grid, J, a=params.a, Y=Y)
    ext_fields = [_extend(tr, slab, fp) for tr, fp in traces]
    c_tilde = extension._c_tilde(ext_fields, params)
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
    """The acceptance criteria's check functions (fraclab.checks) at small
    sizes, one row each: name, measured value, pass rule, detail format."""
    t, z = np.meshgrid(np.linspace(-1.0, 1.0, 21), np.linspace(0.1, 1.0, 10))
    energy = []
    for cells, J, Y in ((128, 24, 4.0), (256, 48, 8.0)):  # one joint refinement
        g = grids.BoxGrid(1, -2.0, 2.0, cells)
        slab = extension.SlabGrid(g, J, a=0.0, Y=Y)
        energy.extend(checks.energy_mismatch([checks.bump(g.axis_nodes())], slab, 0.5))
    profile = max(checks.profile_identity_defect(s, t, z) for s in (0.3, 0.5, 0.7))
    rows = [
        ("one-plane profile identities", profile, lambda d: d <= 1e-12, ""),
        ("weighted-operator residual refinement order >= 1", checks.residual_order(0.5),
         lambda order: order >= 1.0, "  (order {:.2f})"),
        ("extension constant d_{1/2} = 1", constants.extension_constant(0.5),
         lambda d: abs(d - 1.0) < 1e-13, ""),
        ("slope constant at s=1/2, Lambda=1", constants.slope_constant(1.0, 0.5),
         lambda c: abs(c - 2.0 / np.sqrt(np.pi)) < 1e-13, ""),
        ("interval spectrum: simple, positive, ordered", checks.interval_bundle(0.5, 128, 2),
         lambda b: b.lambdas[0] > 0 and b.lambdas[1] > 1.01 * b.lambdas[0]
         and b.vectors[0].min() >= 0, "  (lam1={0.lambdas[0]:.4f})"),
        ("scaling law exact", checks.scaling_defect(0.3, 64, 1, half=0.5),
         lambda d: d <= 1e-10, "  (defect {:.2e})"),
        ("extension energy identity within 5%, lower after refinement", energy,
         lambda rel: rel[0] <= 0.05 and rel[1] < rel[0], "  (mismatch {0[0]:.3%} -> {0[1]:.3%})"),
    ]
    passed = 0
    for name, value, rule, detail in rows:
        ok = bool(rule(value))
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}{detail.format(value)}")
    print(f"{passed}/{len(rows)} checks passed")
    return EXIT_OK if passed == len(rows) else EXIT_NUMERIC


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
