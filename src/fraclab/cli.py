"""Command-line entry point: constants | eig | extend | optimize | diagnose | verify.

Every run writes a RunManifest (config snapshot, seed, input/output hashes,
phase wall-times) sufficient to replay it: pass a manifest.json as --config
and the recorded snapshot is reused. Exit codes: 0 success, 2 usage or config
parse error, 3 input compatibility, 4 numerical failure. The BLAS thread
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

EXIT_OK, EXIT_USAGE, EXIT_COMPAT, EXIT_NUMERIC = 0, 2, 3, 4
_INTERRUPT_RC = 130


class UsageError(Exception):
    pass


def _version():
    from fraclab import __version__

    return __version__


# -- config plumbing ---------------------------------------------------------


def _load_config(path):
    """Returns (config dict, recorded seed or None). Accepts manifest JSON."""
    from .gridio import parse_config

    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict) or "config" not in data:
            raise UsageError(f"{path}: JSON config must be a run manifest")
        return dict(data["config"]), data.get("seed")
    return parse_config(text), None


def _cfg(cfg, key, cast, default=None, required=False):
    if key not in cfg:
        if required:
            raise UsageError(f"config key '{key}' is required")
        return default
    try:
        if cast is bool:
            return str(cfg[key]).strip().lower() in ("1", "true", "yes", "on")
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
    from .grids import BoxGrid

    n = _cfg(cfg, "n", int, required=True)
    cells = _cfg(cfg, "cells", int, required=True)
    lower = _cfg(cfg, "lower", float, -1.0)
    upper = _cfg(cfg, "upper", float, 1.0)
    return _checked(BoxGrid, n, lower, upper, cells)


def _build_params(cfg):
    from .constants import FracParams

    n = _cfg(cfg, "n", int, required=True)
    s = _cfg(cfg, "s", float, required=True)
    lam = _cfg(cfg, "lambda", float, 1.0)
    if not 0.0 < s < 1.0:
        raise UsageError("s must lie in (0, 1)")
    if lam <= 0:
        raise UsageError("lambda must be positive")
    return _checked(FracParams, n, s, lam)


def _domain_from(cfg, grid, manifest):
    from .gridio import read_mask, sha256_file
    from .grids import ball_domain, interval_domain

    spec = _cfg(cfg, "domain", str, required=True).split() or [""]
    if spec[0] == "interval":
        if grid.n != 1 or len(spec) != 3:
            raise UsageError("domain = interval A B needs n=1")
        a, b = _checked(lambda: [float(v) for v in spec[1:]])
        return interval_domain(grid, a, b)
    if spec[0] == "ball":
        if len(spec) != grid.n + 2:
            raise UsageError("domain = ball CENTER... R")
        *center, radius = _checked(lambda: [float(v) for v in spec[1:]])
        return ball_domain(grid, center, radius)
    if spec[0] == "mask":
        if len(spec) != 2:
            raise UsageError("domain = mask PATH")
        dom = read_mask(spec[1])
        manifest.input_hashes[spec[1]] = sha256_file(spec[1])
        if dom.grid.n != grid.n or dom.grid.cells_per_axis != grid.cells_per_axis:
            from .gridio import CompatibilityError

            raise CompatibilityError(
                f"mask grid {dom.grid.n}d/{dom.grid.cells_per_axis} cells does not "
                f"match config grid {grid.n}d/{grid.cells_per_axis}"
            )
        return dom
    raise UsageError(f"unknown domain kind {spec[0]!r}")


def _finish(manifest, out_dir, names, t0, complete=True):
    from .gridio import sha256_file

    for name in names:
        manifest.outputs[name] = sha256_file(os.path.join(out_dir, name))
    manifest.wall_times["total"] = round(time.perf_counter() - t0, 6)
    manifest.complete = complete
    manifest.save(os.path.join(out_dir, "manifest.json"))


def _fmt(x):
    return repr(float(x))


# -- subcommands -------------------------------------------------------------


def cmd_constants(args):
    if not 0.0 < args.s < 1.0:
        raise UsageError("s must lie in (0, 1)")
    if args.n not in (1, 2):
        raise UsageError("n must be 1 or 2")
    if args.Lambda <= 0:
        raise UsageError("Lambda must be positive")
    from .constants import FracParams, slope_constant

    p = FracParams(args.n, args.s, args.Lambda)
    out = {
        "n": args.n,
        "s": args.s,
        "Lambda": args.Lambda,
        "C_ns": p.c_ns,
        "d_s": p.d_s,
        "lambda_tilde": p.lambda_tilde,
        "slope_const": slope_constant(args.Lambda, args.s),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_eig(args):
    from .eigen import lowest_eigenpairs
    from .gridio import RunManifest, atomic_write_text, sha256_file, write_fields, write_mask
    from .nonlocal_form import assemble_form

    t0 = time.perf_counter()
    cfg, _ = _load_config(args.config)
    manifest = RunManifest(_version(), "eig", dict(cfg))
    manifest.input_hashes[args.config] = sha256_file(args.config)
    grid = _build_grid(cfg)
    params = _build_params(cfg)
    m = _cfg(cfg, "m", int, 1)
    dom = _domain_from(cfg, grid, manifest)
    if dom.cell_count == 0:
        raise UsageError("the domain contains no nodes")
    if not 1 <= m <= dom.cell_count:
        raise UsageError(f"m = {m} must lie in [1, {dom.cell_count}] (domain nodes)")
    os.makedirs(args.out, exist_ok=True)
    t1 = time.perf_counter()
    form = assemble_form(dom, params)
    manifest.wall_times["assemble"] = round(time.perf_counter() - t1, 6)
    t1 = time.perf_counter()
    bundle = lowest_eigenpairs(form, m)
    manifest.wall_times["solve"] = round(time.perf_counter() - t1, 6)
    write_mask(os.path.join(args.out, "mask.frlb"), dom)
    names = ["mask.frlb"]
    for i, fld in enumerate(bundle.full_fields(), start=1):
        name = f"v{i:02d}.frlb"
        write_fields(os.path.join(args.out, name), grid, fld)
        names.append(name)
    report = {
        "lambdas": [float(v) for v in bundle.lambdas],
        "residuals": [float(v) for v in bundle.residuals],
        "clustered": bool(bundle.clustered),
        "measure": dom.measure,
        "m": m,
    }
    atomic_write_text(
        os.path.join(args.out, "lambdas.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    names.append("lambdas.json")
    _finish(manifest, args.out, names, t0)
    return EXIT_OK


def cmd_extend(args):
    from .extension import SlabGrid, extend, extension_energy, neumann_trace
    from .gridio import (
        RunManifest,
        atomic_write_text,
        read_fields,
        sha256_file,
        write_fields,
        write_slab_field,
    )

    t0 = time.perf_counter()
    cfg, _ = _load_config(args.config)
    manifest = RunManifest(_version(), "extend", dict(cfg))
    manifest.input_hashes[args.config] = sha256_file(args.config)
    params = _build_params(cfg)
    trace_path = _cfg(cfg, "trace", str, required=True)
    grid, fields = read_fields(trace_path)
    manifest.input_hashes[trace_path] = sha256_file(trace_path)
    comp = _cfg(cfg, "component", int, 0)
    if not 0 <= comp < fields.shape[0]:
        raise UsageError(f"component {comp} out of range for {trace_path}")
    J = _cfg(cfg, "J", int, 32)
    Y = _cfg(cfg, "Y", float, None)
    gamma = _cfg(cfg, "gamma", float, None)
    slab = _checked(SlabGrid, grid, J, a=params.a, Y=Y, gamma=gamma)
    t1 = time.perf_counter()
    fld = extend(fields[comp], slab)
    manifest.wall_times["solve"] = round(time.perf_counter() - t1, 6)
    energy = extension_energy(fld)
    nt, flags = neumann_trace(fld)
    os.makedirs(args.out, exist_ok=True)
    write_slab_field(os.path.join(args.out, "slab.frlb"), fld)
    write_fields(os.path.join(args.out, "neumann.frlb"), grid,
                 [nt, flags.astype(float)])
    atomic_write_text(
        os.path.join(args.out, "energy.json"),
        json.dumps(
            {
                "energy": energy,
                "ds_energy": params.d_s * energy,
                "neumann_flagged": int(flags.sum()),
                "J": J,
                "Y": slab.Y,
                "gamma": slab.gamma,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    _finish(manifest, args.out, ["slab.frlb", "neumann.frlb", "energy.json"], t0)
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
    from .gridio import RunManifest, atomic_write_text, sha256_file, write_mask
    from .shape_opt import OptimizerConfig, optimize

    t0 = time.perf_counter()
    cfg, recorded_seed = _load_config(args.config)
    manifest = RunManifest(_version(), "optimize", dict(cfg))
    manifest.input_hashes[args.config] = sha256_file(args.config)
    grid = _build_grid(cfg)
    params = _build_params(cfg)
    seed = args.seed
    if seed is None:
        seed = recorded_seed if recorded_seed is not None else _cfg(cfg, "seed", int, 0)
    manifest.seed = int(seed)
    ocfg = _checked(
        OptimizerConfig,
        m=_cfg(cfg, "m", int, 1),
        Lambda=_cfg(cfg, "lambda", float, required=True),
        move_kind=_cfg(cfg, "move_kind", str, "boundary-flip"),
        schedule=_cfg(cfg, "schedule", str, "greedy"),
        t0=_cfg(cfg, "t0", float, 0.1),
        cooling=_cfg(cfg, "cooling", float, 0.97),
        steps=_cfg(cfg, "steps", int, 400),
        restarts=_cfg(cfg, "restarts", int, 1),
        seed=int(seed),
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
        trace = optimize(grid, ocfg, params, should_stop=stop_flag.is_set)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "trace.csv"), _trace_csv(trace, ocfg.m))
    names = ["trace.csv"]
    summary = {
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
    }
    if trace.best_mask is not None:
        write_mask(os.path.join(args.out, "best_mask.frlb"), trace.best_mask)
        names.append("best_mask.frlb")
    atomic_write_text(
        os.path.join(args.out, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    names.append("summary.json")
    complete = not (trace.interrupted or trace.aborted)
    _finish(manifest, args.out, names, t0, complete=complete)
    if trace.interrupted:
        return _INTERRUPT_RC
    if trace.aborted:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_diagnose(args):
    from .constants import slope_constant
    from .diagnostics import (
        ClassifierConfig,
        classify,
        density_ratio,
        free_boundary_set,
        weiss_curve,
    )
    from .extension import SlabGrid, _c_tilde, extend
    from .gridio import (
        CompatibilityError,
        RunManifest,
        atomic_write_text,
        read_fields,
        read_mask,
        sha256_file,
    )
    import numpy as np

    t0 = time.perf_counter()
    cfg, _ = _load_config(args.config)
    manifest = RunManifest(_version(), "diagnose", dict(cfg))
    manifest.input_hashes[args.config] = sha256_file(args.config)
    params = _build_params(cfg)
    mask_path = _cfg(cfg, "mask", str, required=True)
    dom = read_mask(mask_path)
    manifest.input_hashes[mask_path] = sha256_file(mask_path)
    field_paths = _cfg(cfg, "fields", str, required=True).split(",")
    traces = []
    grid = dom.grid
    for fp in field_paths:
        fp = fp.strip()
        fgrid, arr = read_fields(fp)
        manifest.input_hashes[fp] = sha256_file(fp)
        if (
            fgrid.n != grid.n
            or fgrid.cells_per_axis != grid.cells_per_axis
            or abs(fgrid.h - grid.h) > 1e-14
        ):
            raise CompatibilityError(
                f"{fp}: field grid {fgrid!r} does not match mask grid {grid!r}"
            )
        traces.extend(arr)
    J = _cfg(cfg, "J", int, 32)
    Y = _cfg(cfg, "Y", float, None)
    slab = _checked(SlabGrid, grid, J, a=params.a, Y=Y)
    ext_fields = [extend(tr, slab) for tr in traces]
    c_tilde = _c_tilde(ext_fields, params)
    fb = free_boundary_set(dom)
    sel = list(range(len(fb)))
    if args.points:
        sel = [int(v) for v in args.points.split(",")]
        bad = [i for i in sel if not 0 <= i < len(fb)]
        if bad:
            raise UsageError(f"--points indices out of range: {bad}")
    h = grid.h
    r_lo = _cfg(cfg, "r_min_cells", float, 5.0) * h
    r_hi = _cfg(cfg, "r_max_cells", float, 10.0) * h
    ccfg = ClassifierConfig(
        tol=_cfg(cfg, "class_tol", float, 0.1),
        delta=_cfg(cfg, "class_delta", float, 0.05),
        flat_threshold=_cfg(cfg, "class_flat_threshold", float, 0.2),
    )
    xcols = ",".join(f"x{i}" for i in range(grid.n))
    weiss_rows = [f"# point,{xcols},r,W\n"]
    dens_rows = [f"# point,{xcols},r,ratio\n"]
    slope_rows = [f"# point,{xcols},alpha,target\n"]
    cls_points = []
    target = slope_constant(params.lambda_penalty, params.s)
    counts = {}
    for k in sel:
        x0 = fb.points[k]
        xs = ",".join(_fmt(v) for v in x0)
        rmax_geo = min(np.min(x0 - grid.lower), np.min(grid.upper - x0))
        radii = [r for r in np.linspace(r_lo, r_hi, 4) if r < rmax_geo]
        for r in radii:
            dens_rows.append(f"{k},{xs},{_fmt(r)},{_fmt(density_ratio(dom, x0, r))}\n")
        if len(radii) >= 4:
            cur = weiss_curve(ext_fields, x0, radii, params, c_tilde=c_tilde)
            for r, w in zip(cur.radii, cur.values):
                weiss_rows.append(f"{k},{xs},{_fmt(r)},{_fmt(w)}\n")
        pc = classify(dom, ext_fields, x0, ccfg, params, fb.normals[k])
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
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "weiss.csv"), "".join(weiss_rows))
    atomic_write_text(os.path.join(args.out, "density.csv"), "".join(dens_rows))
    atomic_write_text(os.path.join(args.out, "slopes.csv"), "".join(slope_rows))
    atomic_write_text(
        os.path.join(args.out, "classification.json"),
        json.dumps(
            {
                "counts": counts,
                "points": cls_points,
                "tolerances": {
                    "tol": ccfg.tol,
                    "delta": ccfg.delta,
                    "flat_threshold": ccfg.flat_threshold,
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
    _finish(
        manifest,
        args.out,
        ["weiss.csv", "density.csv", "slopes.csv", "classification.json"],
        t0,
    )
    return EXIT_OK


def cmd_verify(args):
    import numpy as np

    from .constants import (
        FracParams,
        extension_constant,
        la_residual,
        one_plane_solution,
        one_plane_solution_polar,
        slope_constant,
    )
    from .eigen import lowest_eigenpairs
    from .extension import SlabGrid, extend, extension_energy
    from .grids import BoxGrid, interval_domain
    from .nonlocal_form import assemble_form, kernel_table

    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))

    t = np.linspace(-1, 1, 101)
    u0 = one_plane_solution(t, 0.0, 0.5)
    ok = np.allclose(u0, np.maximum(t, 0.0) ** 0.5, atol=1e-12)
    z = np.linspace(0.1, 1, 10)
    ok &= np.allclose(one_plane_solution(0.0, z, 0.3), (z / 2) ** 0.3, atol=1e-12)
    r = np.full(8, 0.7)
    th = np.linspace(0, np.pi, 8)
    ok &= np.allclose(
        one_plane_solution_polar(r, th, 0.6),
        one_plane_solution(r * np.cos(th), r * np.sin(th), 0.6),
        atol=1e-12,
    )
    lam4 = one_plane_solution(2.0 * 0.37, 2.0 * 0.11, 0.45)
    ok &= abs(lam4 - 2.0**0.45 * one_plane_solution(0.37, 0.11, 0.45)) < 1e-12
    check("one-plane profile identities", bool(ok))

    res = []
    for h in (0.02, 0.01):
        tt = -1.0 + h * np.arange(int(round(2.0 / h)) + 1)
        zz = h * (1 + np.arange(int(round(0.5 / h)) + 1))
        gg = one_plane_solution(tt[:, None], zz[None, :], 0.5)
        res.append(np.median(np.abs(la_residual(gg, 0.5, h, t0=tt[0], z0=zz[0]))))
    order = np.log2(res[0] / res[1])
    check("weighted-operator residual refinement order >= 1", order >= 1.0,
          f"order {order:.2f}")

    check("extension constant d_{1/2} = 1", abs(extension_constant(0.5) - 1.0) < 1e-13)
    check(
        "slope constant at s=1/2, Lambda=1",
        abs(slope_constant(1.0, 0.5) - 2.0 / np.sqrt(np.pi)) < 1e-13,
    )

    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -2.0, 2.0, 128)
    dom = interval_domain(g, -1.0, 1.0)
    bundle = lowest_eigenpairs(assemble_form(dom, p), 2)
    lam = bundle.lambdas
    check(
        "interval spectrum: simple, positive, ordered",
        lam[0] > 0 and lam[1] > lam[0] * 1.01 and float(bundle.vectors[0].min()) >= 0,
        f"lam1={lam[0]:.4f}",
    )

    gs = BoxGrid(1, -1.0, 1.0, 64)
    doms = interval_domain(gs, -0.5, 0.5)
    ls = lowest_eigenpairs(assemble_form(doms, p), 1).lambdas[0]
    g2 = BoxGrid(1, -2.0, 2.0, 64)
    dom2 = interval_domain(g2, -1.0, 1.0)
    l2 = lowest_eigenpairs(assemble_form(dom2, p), 1).lambdas[0]
    check("scaling law exact", abs(l2 - ls / 2.0) < 1e-10 * ls, f"defect {abs(l2-ls/2):.2e}")

    x = g.axis_nodes()
    m = np.abs(x) < 1
    u = np.zeros_like(x)
    u[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    K = kernel_table(g, 0.5).stiffness(np.flatnonzero(g.interior().ravel()))
    q = float(u[g.interior().ravel()] @ K @ u[g.interior().ravel()])
    slab = SlabGrid(g, 24, a=0.0, Y=4.0)
    e = extension_energy(extend(u, slab))
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

    for name, fn, needs_points in (
        ("eig", cmd_eig, False),
        ("extend", cmd_extend, False),
        ("optimize", cmd_optimize, False),
        ("diagnose", cmd_diagnose, True),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=None)
        if needs_points:
            sp.add_argument("--points", default=None,
                            help="comma-separated free-boundary point indices")
        sp.set_defaults(func=fn)

    v = sub.add_parser("verify", help="run the built-in acceptance spot checks")
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    from .diagnostics import GeometryError, ResolutionError
    from .gridio import CompatibilityError, ConfigError

    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except CompatibilityError as exc:
        print(f"incompatible inputs: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except (GeometryError, ResolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
