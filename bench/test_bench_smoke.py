"""Smoke test of the benchmark itself: tiny inputs, every workload, traced.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the outputs of the pinned smoke inputs pass their checks, and that a
corrupted output counts as a failed iteration.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("fraclab_bench_run",
                                               os.path.join(HERE, "run.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def _units(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def _emitted(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_smoke_run_emits_every_layer_metric(workload):
    res = bench.measure(workload, seed=0, seconds=0, trace=True, smoke=True)
    assert res["errors"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert _emitted(res) == _units("per_layer")
    m = {name: v["value"] for name, v in res["metrics"].items()}
    assert m["trace.layer_sum_s"] == pytest.approx(m["trace.wall_s"], abs=1e-3)
    busy = {"optimize-greedy-2d": "shape_opt.evals",
            "optimize-anneal-2d": "shape_opt.evals",
            "diagnose-2d": "extension.factorizations",
            "spectrum": "nonlocal_form.table_builds"}[workload]
    assert m[busy] > 0


def test_untraced_smoke_run_counts_a_corrupted_output_as_failed():
    res = bench.measure("spectrum", seed=0, seconds=0, trace=False, smoke=True,
                        corrupt_iteration=1)
    assert _emitted(res) == _units("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert 0 < res["extra"]["lambda1_relerr"] < 0.1
    assert not res["correct"]
    assert res["attempted"] == 2 and res["failed"] == 1
    assert res["extra"]["fail_frac"] == 0.5
    assert "manifest hash" in res["errors"][0]
