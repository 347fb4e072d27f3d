"""fraclab CLI benchmark: one workload, closed loop, one command at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke] [--out RECORD.json]

Run from anywhere; the checkout is the parent of this directory and the
program is its ``src/fraclab``. Inputs are generated from ``--seed`` into
``.bench_work/`` of the checkout, which is removed again at the end. Each
CLI command runs in a fresh interpreter (``child.py``) with BLAS/OpenMP
pinned to one thread; the next command starts when the previous one ended.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``). With ``--trace 1`` iterations
alternate between untraced and traced children and the last line carries
the per-layer metrics of ``tracer.py``. Every iteration's outputs are
checked; a failed check, a nonzero exit code or an exception counts the
iteration as failed. See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH)
import tracer  # noqa: E402

WORKLOADS = ("optimize-greedy-2d", "optimize-anneal-2d", "diagnose-2d", "spectrum")
MIN_ITERATIONS = 2
SETUP_PROBES = 3
RUN_LIMIT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Continuum first Dirichlet eigenvalue of (-Delta)^{1/2} on (-1, 1):
# M. Kwasnicki, J. Funct. Anal. 262 (2012), Table 1.
LAMBDA1_REF = 1.1577738836977

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class CheckFailed(Exception):
    pass


# -- children ----------------------------------------------------------------


class Runner:
    """Spawns child interpreters and collects their timings and peak RSS."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.pop("FRACLAB_THREADS", None)
        for var in THREAD_VARS:
            self.env[var] = "1"

    def spawn(self, argv, trace=False):
        """Run one command; returns a dict with rc/error/setup_s/main_s/rss_mb."""
        k = self.count
        self.count += 1
        tmp = os.path.join(self.run_dir, "child")
        os.makedirs(tmp, exist_ok=True)
        spec = os.path.join(tmp, f"spec{k}.json")
        result = os.path.join(tmp, f"result{k}.json")
        log = os.path.join(tmp, f"log{k}.txt")
        with open(spec, "w") as fh:
            json.dump({"src": SRC, "bench": BENCH, "argv": argv, "trace": trace,
                       "result": result}, fh)
        with open(log, "wb") as out:
            t0 = _now()
            proc = subprocess.Popen([sys.executable, CHILD, spec], cwd=self.run_dir,
                                    env=self.env, stdout=out, stderr=subprocess.STDOUT)
            status, usage, timed_out = self._wait(proc)
        res = {"rss_mb": usage.ru_maxrss / 1024.0, "error": None}
        if timed_out:
            res["error"] = "child killed at the run time limit"
            return res
        try:
            with open(result) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            with open(log, errors="replace") as fh:
                tail = fh.read()[-2000:]
            res["error"] = f"child exited with status {status} and no result:\n{tail}"
            return res
        res["error"] = data["error"]
        res["rc"] = data["rc"]
        res["spans"] = data["spans"]
        if data["error"] is None:
            res["setup_s"] = data["t_main0"] - t0
            res["main_s"] = data["t_main1"] - data["t_main0"]
            if data["rc"] != 0:
                with open(log, errors="replace") as fh:
                    res["error"] = f"exit code {data['rc']}: {fh.read()[-2000:]}"
        return res

    def _wait(self, proc):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage, False
            if _now() > self.deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage, True
            time.sleep(0.005)


# -- inputs --------------------------------------------------------------------


def _write_config(path, cfg):
    with open(path, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in cfg.items()))


def _write_mask(path, cells, lower, upper, mask):
    """FRLB mask file: header then (cells+1)^2 uint8 node flags, C order."""
    import struct

    head = struct.pack("<4sIIIIdd", b"FRLB", 1, 2, 2, cells, lower, upper)
    with open(path, "wb") as fh:
        fh.write(head + mask.astype("u1").tobytes())


class Command:
    """One CLI invocation of a workload iteration and the checks on its output."""

    def __init__(self, label, sub, config, **check):
        self.label = label
        self.sub = sub
        self.config = config
        self.check = check

    def argv(self, out_dir, replay_of=None):
        config = self.config
        if replay_of is not None and self.sub == "optimize":
            config = os.path.join(replay_of, "manifest.json")
        return [self.sub, "--config", config, "--out", out_dir]


def prepare(workload, seed, smoke, runner):
    """Write the workload's inputs into the run directory; returns its commands."""
    import numpy as np

    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(runner.run_dir, "in"), exist_ok=True)
    cfg_path = "in/{}.cfg".format
    if workload.startswith("optimize-"):
        greedy = workload == "optimize-greedy-2d"
        cfg = {"n": 2, "cells": 12 if smoke else (32 if greedy else 48), "s": 0.5,
               "lambda": 10, "m": 2, "schedule": "greedy" if greedy else "anneal",
               "seed": seed}
        if greedy:
            # The seed moves the penalty by up to 0.1 %, which changes every
            # output but not the search path. A jittered restart, or a 1 % move,
            # changes the work by 10 % or 4 % between seeds.
            cfg["lambda"] = float(10 * (1 + 0.001 * rng.uniform(-1, 1)))
            cfg["restarts"] = 1
        else:
            cfg["steps"] = cfg["stale_limit"] = 40 if smoke else 1000
        _write_config(os.path.join(runner.run_dir, cfg_path("optimize")), cfg)
        return [Command("optimize", "optimize", cfg_path("optimize"),
                        greedy=greedy, Lambda=float(cfg["lambda"]))]
    if workload == "diagnose-2d":
        cells, lower, upper = (24 if smoke else 32), -1.0, 1.0
        h = (upper - lower) / cells
        x = lower + h * np.arange(cells + 1)
        X, Y = np.meshgrid(x, x, indexing="ij")
        c = rng.uniform(-h / 2, h / 2, size=2)
        amp = rng.uniform(-0.02, 0.02, size=3)
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        theta = np.arctan2(Y - c[1], X - c[0])
        radius = (0.3 if smoke else 0.42) * (
            1 + sum(a * np.cos(k * theta + p) for k, a, p in zip((2, 3, 4), amp, phase)))
        mask = (X - c[0]) ** 2 + (Y - c[1]) ** 2 <= radius**2
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = False
        _write_mask(os.path.join(runner.run_dir, "in/mask.frlb"), cells, lower, upper,
                    mask)
        eig_cfg = {"n": 2, "cells": cells, "s": 0.5, "lambda": 10, "m": 2,
                   "domain": "mask in/mask.frlb"}
        _write_config(os.path.join(runner.run_dir, cfg_path("fields")), eig_cfg)
        res = runner.spawn(["eig", "--config", cfg_path("fields"), "--out", "in/fields"])
        if res["error"] is not None:
            raise RuntimeError(f"set-up eig failed: {res['error']}")
        diag_cfg = {"n": 2, "s": 0.5, "lambda": 10, "mask": "in/mask.frlb",
                    "fields": "in/fields/v01.frlb,in/fields/v02.frlb",
                    "J": 8 if smoke else 32, "r_min_cells": 5, "r_max_cells": 8}
        _write_config(os.path.join(runner.run_dir, cfg_path("diagnose")), diag_cfg)
        return [Command("diagnose", "diagnose", cfg_path("diagnose"))]
    if workload == "spectrum":
        cells = 12 if smoke else 80
        h = 2.0 / cells
        cx, cy = (float(v) for v in rng.uniform(-h / 2, h / 2, size=2))
        disk = {"n": 2, "cells": cells, "s": 0.5, "m": 2 if smoke else 4,
                "domain": f"ball {cx!r} {cy!r} 0.6"}
        line = {"n": 1, "cells": 64 if smoke else 2048, "lower": -2, "upper": 2,
                "s": 0.5, "m": 3, "domain": "interval -1 1"}
        _write_config(os.path.join(runner.run_dir, cfg_path("disk")), disk)
        _write_config(os.path.join(runner.run_dir, cfg_path("interval")), line)
        return [Command("disk", "eig", cfg_path("disk")),
                Command("interval", "eig", cfg_path("interval"), lambda1=True)]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks ---------------------------------------------------------------


def _sha256(path):
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def check_outputs(cmd, out_dir):
    """Checks that hold for any correct implementation; returns the output hashes."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    _require(manifest.get("complete") is True, "manifest is not complete")
    outputs = manifest["outputs"]
    _require(bool(outputs), "manifest lists no outputs")
    for name, digest in outputs.items():
        _require(_sha256(os.path.join(out_dir, name)) == digest,
                 f"{name} does not match its manifest hash")
    CHECKS[cmd.sub](cmd, out_dir)
    return outputs


def _check_eig(cmd, out_dir):
    with open(os.path.join(out_dir, "lambdas.json")) as fh:
        rep = json.load(fh)
    lam = rep["lambdas"]
    _require(len(lam) == rep["m"], "wrong number of eigenvalues")
    _require(all(v > 0 and math.isfinite(v) for v in lam), "eigenvalue not positive")
    _require(all(a <= b for a, b in zip(lam, lam[1:])), "eigenvalues not ascending")
    _require(all(r <= 1e-8 for r in rep["residuals"]), "eigen residual above 1e-8")


def _read_trace(out_dir):
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        head = fh.readline().strip().split(",")
        rows = [dict(zip(head, line.strip().split(","))) for line in fh if line.strip()]
    return rows


def _check_optimize(cmd, out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    rows = _read_trace(out_dir)
    _require(rows, "empty optimizer trace")
    _require(not summary["aborted"] and not summary["interrupted"],
             "optimizer aborted or interrupted")
    objs = [float(r["objective"]) for r in rows]
    best = summary["best_objective"]
    tol = 1e-12 * max(1.0, abs(best))
    if cmd.check.get("greedy"):
        _require(summary["certified"] is True, "greedy result not certified")
        for prev, cur in zip(rows, rows[1:]):
            if prev["restart"] == cur["restart"]:
                _require(float(cur["objective"]) <= float(prev["objective"]) + tol,
                         "greedy objective increased")
    _require(abs(best - min(objs)) <= tol, "best_objective is not the trace minimum")
    recomputed = sum(summary["best_lambdas"]) + cmd.check["Lambda"] * summary["measure"]
    _require(abs(recomputed - best) <= tol,
             "sum(best_lambdas) + Lambda*measure differs from best_objective")


def _check_diagnose(cmd, out_dir):
    def rows(name):
        with open(os.path.join(out_dir, name)) as fh:
            return [ln.strip().split(",") for ln in fh if ln.strip() and ln[0] != "#"]

    ratios = [float(r[-1]) for r in rows("density.csv")]
    _require(ratios and all(0.0 <= v <= 1.0 for v in ratios),
             "density ratio outside [0, 1]")
    weiss = [float(r[-1]) for r in rows("weiss.csv")]
    _require(all(math.isfinite(v) for v in weiss), "Weiss value not finite")
    with open(os.path.join(out_dir, "classification.json")) as fh:
        cls = json.load(fh)
    _require(cls["points"], "no boundary points classified")
    _require(sum(cls["counts"].values()) == len(cls["points"]),
             "label counts do not sum to the number of points")


CHECKS = {"eig": _check_eig, "optimize": _check_optimize, "diagnose": _check_diagnose}


def output_counts(cmd, out_dir):
    """Per-layer counts read from a command's output files."""
    out = {}
    if cmd.sub == "optimize":
        rows = _read_trace(out_dir)
        out["shape_opt.iterations"] = len(rows)
        out["shape_opt.accepted"] = sum(int(r["accepted"]) for r in rows)
    elif cmd.sub == "diagnose":
        with open(os.path.join(out_dir, "slopes.csv")) as fh:
            out["diagnostics.slope_nan"] = sum(
                1 for ln in fh if ln[0] != "#" and ln.split(",")[-2] == "nan")
    return out


# -- measurement loop -------------------------------------------------------------


def run_iteration(runner, commands, k, traced, state, corrupt=False):
    """One workload iteration; returns its record (failures in 'error')."""
    it = {"k": k, "traced": traced, "wall_s": 0.0, "setup": [], "rss_mb": 0.0,
          "error": None, "spans": [], "counts": {}}
    for cmd in commands:
        out_dir = f"out/{k:03d}/{cmd.label}"
        res = runner.spawn(cmd.argv(out_dir, state.get(("replay", cmd.label))), traced)
        it["rss_mb"] = max(it["rss_mb"], res["rss_mb"])
        if res["error"] is not None:
            it["error"] = f"{cmd.label}: {res['error']}"
            return it
        it["wall_s"] += res["main_s"]
        it["setup"].append(res["setup_s"])
        if res["spans"] is not None:
            it["spans"].append(res["spans"])
        full = os.path.join(runner.run_dir, out_dir)
        if corrupt:
            with open(os.path.join(full, sorted(os.listdir(full))[0]), "ab") as fh:
                fh.write(b"\n")
        try:
            hashes = check_outputs(cmd, full)
            ref = state.setdefault(("hashes", cmd.label), hashes)
            if hashes != ref:
                what = "replayed run" if cmd.sub == "optimize" else "repeat run"
                raise CheckFailed(f"{what} outputs differ from the first iteration")
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            it["error"] = f"{cmd.label}: check failed: {exc}"
            return it
        state.setdefault(("replay", cmd.label), out_dir)
        it["counts"].update(output_counts(cmd, full))
        if cmd.check.get("lambda1"):
            with open(os.path.join(full, "lambdas.json")) as fh:
                lam1 = json.load(fh)["lambdas"][0]
            it["lambda1_relerr"] = abs(lam1 - LAMBDA1_REF) / LAMBDA1_REF
    return it


def measure(workload, seed, seconds, trace, smoke=False, corrupt_iteration=None):
    """Set up and run one workload; returns the full result record."""
    t_begin = _now()
    run_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(run_dir, t_begin + RUN_LIMIT_S)
    try:
        warm = runner.spawn([])  # compiles bytecode; proves the program imports
        if warm["error"] is not None:
            raise RuntimeError(f"cannot import fraclab from {SRC}: {warm['error']}")
        probes = [] if trace else [runner.spawn([]) for _ in range(SETUP_PROBES)]
        commands = prepare(workload, seed, smoke, runner)
        iterations, state = [], {}
        t0 = _now()
        while len(iterations) < MIN_ITERATIONS or (
            _now() - t0 + (_now() - t0) / len(iterations) <= seconds
            and _now() < runner.deadline - 30
        ):
            k = len(iterations)
            iterations.append(run_iteration(runner, commands, k,
                                            traced=trace and k % 2 == 1, state=state,
                                            corrupt=k == corrupt_iteration))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return _result(workload, seed, seconds, trace, smoke, iterations, probes)


def _stats(values):
    """Median, quartiles, count and spread (quartile distance over the median)."""
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1,
                "spread": 0.0}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def _result(workload, seed, seconds, trace, smoke, iterations, probes):
    failed = [it for it in iterations if it["error"] is not None]
    good = [it for it in iterations if it["error"] is None] or iterations
    plain = [it for it in good if not it["traced"]] or good
    stats = {
        "wall_s": _stats([it["wall_s"] for it in plain]),
        "setup_s": _stats([s for it in plain for s in it["setup"]]
                          + [p["setup_s"] for p in probes if p["error"] is None]
                          or [0.0]),
        "peak_rss_mb": _stats([it["rss_mb"] for it in plain]),
    }
    extra = {"fail_frac": len(failed) / len(iterations)}
    relerr = [it["lambda1_relerr"] for it in good if "lambda1_relerr" in it]
    if relerr:
        extra["lambda1_relerr"] = statistics.median(relerr)
    if trace:
        traced = [it for it in good if it["traced"]]
        per_it = []
        for it in traced:
            m = tracer.summarize(it["spans"])
            m.update(it["counts"])
            m["trace.wall_s"] = it["wall_s"]
            per_it.append(m)
        metrics = {name: {"value": statistics.median(m[name] for m in per_it)
                          if per_it else 0.0, "unit": unit}
                   for name, unit in tracer.METRICS.items()}
        metrics["trace.untraced_wall_s"]["value"] = stats["wall_s"]["median"]
        metrics["trace.overhead_s"]["value"] = (
            metrics["trace.wall_s"]["value"] - stats["wall_s"]["median"])
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "env": environment(),
        "correct": not failed, "attempted": len(iterations), "failed": len(failed),
        "errors": [it["error"] for it in failed],
        "stats": stats, "extra": extra, "metrics": metrics,
    }


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "threads": {var: "1" for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def report(res):
    """Human-readable lines, then the one-line JSON result (last stdout line)."""
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
          f"iterations {res['attempted']}")
    for name, unit in E2E_UNITS.items():
        st = res["stats"][name]
        print(f"  {name:<14} {st['median']:.6g} {unit}  "
              f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})")
    for name, value in res["extra"].items():
        print(f"  {name:<14} {value:.6g} ratio")
    if res["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    env = res["env"]
    print(f"  env: {env['cpu']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for err in res["errors"]:
        print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--out", help="also write the full result record here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fraclab", "cli.py")):
        print(f"no fraclab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      smoke=args.smoke)
    except RuntimeError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
