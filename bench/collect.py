"""Run every workload over seeds 0-9 in two interleaved sets, e.g. for a baseline.

    python3 bench/collect.py [--out bench/baseline.json]

Two sets, ``a`` and ``b``, each run ``run.py`` untraced once per seed on
every workload of BENCHMARK.json, for its ``run_seconds``. The runs are
interleaved (seed by seed, with the set that goes first alternating), so a
slow period of the host falls on both sets alike. Then one traced run per
workload with seed 0. Prints, per workload and end-to-end metric, each set's
median over the seeds, its quartiles and spread (quartile distance over the
median), and the drift of set ``b``'s median from set ``a``'s; then the
failure fraction and, for ``spectrum``, ``lambda1_relerr``. Writes
everything to ``--out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

SEEDS = range(10)
SETS = ("a", "b")


def run_once(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_collect-") as tmp:
        rec_path = os.path.join(tmp, "record.json")
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", rec_path]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd[1:])} failed:\n{proc.stderr}")
        with open(rec_path) as fh:
            return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    seconds = contract["run_seconds"]
    names = [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    records = {(name, s): [] for name in names for s in SETS}
    for seed in SEEDS:
        for s in (SETS if seed % 2 == 0 else SETS[::-1]):
            for name in names:
                rec = run_once(name, seed, seconds, 0)
                records[name, s].append(rec)
                print(f"seed {seed} set {s} {name:<20} "
                      + "  ".join(f"{m} {v['value']:.5g}"
                                  for m, v in rec["metrics"].items()), flush=True)
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in names:
        every = records[name, "a"] + records[name, "b"]
        entry = {
            "failed": sum(r["failed"] for r in every),
            "attempted": sum(r["attempted"] for r in every),
            "sets": {s: {m: dict(run._stats([r["metrics"][m]["value"]
                                             for r in records[name, s]]),
                                 values=[r["metrics"][m]["value"]
                                         for r in records[name, s]])
                         for m in bounds}
                     for s in SETS},
            "extra": {k: statistics.median(r["extra"][k] for r in every)
                      for k in every[0]["extra"]},
        }
        for m, bound in bounds.items():
            a, b = (entry["sets"][s][m] for s in SETS)
            drift = b["median"] / a["median"] - 1
            entry.setdefault("drift", {})[m] = drift
            for s, st in zip(SETS, (a, b)):
                flag = "" if st["spread"] <= bound / 3 else "  (spread above bound/3)"
                print(f"{name:<20} {m:<12} set {s}  median {st['median']:.5g}  "
                      f"q1 {st['q1']:.5g}  q3 {st['q3']:.5g}  spread {st['spread']:.3f}"
                      f"{flag}", flush=True)
            worst = max(b["median"] / a["median"], a["median"] / b["median"]) - 1
            flag = "" if worst <= bound else "  (beyond the bound)"
            print(f"{name:<20} {m:<12} drift b/a {drift:+.3f}  bound {bound}{flag}",
                  flush=True)
        frac = entry["failed"] / entry["attempted"]
        print(f"{name:<20} {'fail_frac':<12} {frac:.5g} ratio "
              f"({entry['failed']}/{entry['attempted']} iterations)", flush=True)
        if "lambda1_relerr" in entry["extra"]:
            print(f"{name:<20} lambda1_relerr median {entry['extra']['lambda1_relerr']:.5g}"
                  " ratio", flush=True)
        summary["workloads"][name] = entry
    for name in names:
        traced = run_once(name, SEEDS[0], seconds, 1)
        summary["workloads"][name]["traced"] = {
            k: traced[k] for k in ("seed", "metrics", "stats", "extra", "attempted",
                                   "failed")}
        summary["workloads"][name]["env"] = traced["env"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
