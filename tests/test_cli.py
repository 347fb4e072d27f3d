import hashlib
import json
import os
import signal
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from fraclab import diagnostics, extension
from fraclab.cli import main
from fraclab.gridio import (RunManifest, read_fields, read_mask, read_slab_field, write_fields,
                            write_mask)
from fraclab.grids import BoxGrid, ThinDomain


def write_cfg(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


EIG_KEYS = dict(n=1, cells=64, lower=-2.0, upper=2.0, s=0.5,
                domain="interval -1 1", m=2)


# -- constants ---------------------------------------------------------------


def test_constants_prints_json(capsys):
    assert main(["constants", "--s", "0.5", "--Lambda", "2.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_s"] == pytest.approx(1.0)
    assert out["lambda_tilde"] == pytest.approx(4.0)
    assert out["C_ns"] == pytest.approx(1.0 / np.pi)


def test_constants_rejects_bad_order(capsys):
    assert main(["constants", "--s", "1.5"]) == 2
    assert main(["constants", "--s", "0.5", "--Lambda", "-1"]) == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- eig / extend / diagnose chain -------------------------------------------


@pytest.fixture(scope="module")
def eig_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("eig")
    cfg = write_cfg(base / "run.cfg", **EIG_KEYS)
    out = base / "out"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_eig_artifacts(eig_out):
    rep = json.loads((eig_out / "lambdas.json").read_text())
    assert rep["m"] == 2
    assert rep["lambdas"][0] < rep["lambdas"][1]
    assert max(rep["residuals"]) < 1e-8
    # one solve with the factor per block, at least one block per pair
    assert isinstance(rep["lanczos_blocks"], int) and rep["lanczos_blocks"] >= 1
    assert rep["measure"] == pytest.approx(2.0, abs=0.1)
    dom = read_mask(eig_out / "mask.frlb")
    assert dom.grid.cells_per_axis == 64
    _, v = read_fields(eig_out / "v01.frlb")
    assert v.shape == (1, 65)
    man = RunManifest.load(eig_out / "manifest.json")
    assert man.command == "eig"
    assert man.complete
    assert set(man.outputs) >= {"mask.frlb", "v01.frlb", "v02.frlb", "lambdas.json"}
    assert man.wall_times["total"] > 0
    assert 10 < man.peak_rss_mb < 10_000  # MiB, the whole process's peak


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    import platform

    import scipy

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cfg = write_cfg(tmp_path / "run.cfg", **EIG_KEYS)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                   "MKL_NUM_THREADS": None, "python": platform.python_version(),
                   "numpy": np.__version__, "scipy": scipy.__version__,
                   "blas": blas["name"], "blas_version": blas["version"]}
    assert env["blas"] and env["blas_version"]
    monkeypatch.setattr(scipy, "show_config", lambda mode: {})
    assert RunManifest("v", "eig", {}).environment["blas"] is None
    assert RunManifest.load(tmp_path / "out" / "manifest.json").environment == env
    older = json.loads((tmp_path / "out" / "manifest.json").read_text())
    del older["environment"], older["peak_rss_mb"]
    (tmp_path / "older.json").write_text(json.dumps(older))
    assert RunManifest.load(tmp_path / "older.json").environment is None
    assert RunManifest.load(tmp_path / "older.json").peak_rss_mb is None


def test_cli_import_loads_only_scipy_linalg_and_sparse():
    """The near-field moments need no scipy.integrate (13.7 MB, 0.14 s); the
    kernel table, the extension's DST, the quadrature and the diagnostics need
    no scipy.fft, scipy.special or scipy.ndimage (about 0.13 s per command).
    The process also builds a 2D kernel table, so an import inside a function
    (the exterior tail's corner integrals, say) is caught too."""
    import fraclab

    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclab.__file__)))
    code = ("import json, sys, fraclab.cli; from fraclab import BoxGrid, KernelTable;"
            " KernelTable(BoxGrid(2, -1.0, 1.0, 8), 0.3);"
            " print(json.dumps(sorted({m.split('.')[1]"
            " for m in sys.modules if m.startswith('scipy.')})))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert loaded >= {"linalg", "sparse"}
    assert not loaded & {"integrate", "fft", "special", "ndimage"}


def test_every_public_name_resolves():
    """Each name in fraclab.__all__ and in every submodule's __all__ exists."""
    import importlib
    import pkgutil

    import fraclab

    modules = [fraclab] + [importlib.import_module(f"fraclab.{m.name}")
                           for m in pkgutil.iter_modules(fraclab.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_eig_beyond_the_former_node_cap(tmp_path):
    """A 101^2 box (10201 nodes) once exceeded the dense kernel table's cap."""
    cfg = write_cfg(tmp_path / "run.cfg", n=2, cells=100, lower=-1.0, upper=1.0,
                    s=0.5, domain="ball 0 0 0.1", m=1)
    out = tmp_path / "out"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "lambdas.json").read_text())
    assert rep["lambdas"][0] > 0 and max(rep["residuals"]) < 1e-8
    man = RunManifest.load(out / "manifest.json")
    assert man.complete
    assert set(man.outputs) >= {"mask.frlb", "v01.frlb", "lambdas.json"}


def test_extend_artifacts(eig_out, tmp_path):
    cfg = write_cfg(tmp_path / "ext.cfg", n=1, s=0.5,
                    trace=str(eig_out / "v01.frlb"), J=16, Y=4.0)
    out = tmp_path / "ext"
    assert main(["extend", "--config", cfg, "--out", str(out)]) == 0
    energy = json.loads((out / "energy.json").read_text(), parse_constant=_reject_constant)
    rep = json.loads((eig_out / "lambdas.json").read_text())
    # d_s * slab energy approximates the (unit-mass) quadratic form value
    assert energy["ds_energy"] == pytest.approx(rep["lambdas"][0], rel=0.15)
    fld = read_slab_field(out / "slab.frlb")
    assert fld.slab.J == 16
    _, nt = read_fields(out / "neumann.frlb")
    assert nt.shape == (2, 65)  # trace + flag rows


def test_diagnose_artifacts(eig_out, tmp_path):
    cfg = write_cfg(tmp_path / "diag.cfg", n=1, s=0.5, **{"lambda": 2.0},
                    mask=str(eig_out / "mask.frlb"),
                    fields=str(eig_out / "v01.frlb"), J=12, Y=4.0)
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
    for name in ("weiss.csv", "density.csv", "slopes.csv", "classification.json"):
        assert (out / name).exists(), name
    cls = json.loads((out / "classification.json").read_text())
    assert len(cls["points"]) >= 2  # both interval endpoints
    labels = {p["label"] for p in cls["points"]}
    assert labels <= {"regular", "singular", "undetermined"}
    header = (out / "weiss.csv").read_text().splitlines()[0]
    assert header == "# point,x0,r,W"
    times = RunManifest.load(out / "manifest.json").wall_times
    assert times["extend"] > 0 and times["points"] > 0
    assert times["extend"] + times["points"] <= times["total"]
    # the Weiss curves and classifications, summed over the points, inside `points`
    assert times["weiss"] > 0 and times["classify"] > 0
    assert times["weiss"] + times["classify"] <= times["points"]


def test_diagnose_points_run_alone_as_in_the_full_run(tmp_path):
    """Each point's rows and classification entry are the same, byte for
    byte, whether `--points` selects it or the run covers every point."""
    eig_cfg = write_cfg(tmp_path / "eig.cfg", n=2, cells=24, lower=-1.0, upper=1.0,
                        s=0.5, domain="ball 0.02 -0.01 0.45", m=2)
    assert main(["eig", "--config", eig_cfg, "--out", str(tmp_path / "eig")]) == 0
    cfg = write_cfg(tmp_path / "diag.cfg", n=2, s=0.5, **{"lambda": 10},
                    mask=str(tmp_path / "eig" / "mask.frlb"),
                    fields=f"{tmp_path / 'eig' / 'v01.frlb'},{tmp_path / 'eig' / 'v02.frlb'}",
                    J=8, r_min_cells=5, r_max_cells=6)
    full, some = tmp_path / "full", tmp_path / "some"
    assert main(["diagnose", "--config", cfg, "--out", str(full)]) == 0
    count = len(json.loads((full / "classification.json").read_text())["points"])
    picked = (3, count - 2)
    assert main(["diagnose", "--config", cfg, "--out", str(some),
                 "--points", ",".join(map(str, picked))]) == 0
    for name in ("weiss.csv", "density.csv", "slopes.csv"):
        want = [ln for ln in (full / name).read_text().splitlines(keepends=True)
                if ln.startswith("#") or int(ln.split(",")[0]) in picked]
        assert len(want) > 1 + len(picked) or name == "slopes.csv"
        assert (some / name).read_text() == "".join(want), name
    entries = [json.loads((out / "classification.json").read_text())["points"]
               for out in (full, some)]
    assert [json.dumps(p) for p in entries[1]] == [
        json.dumps(p) for p in entries[0] if p["point"] in picked]


def test_diagnose_outputs_do_not_depend_on_the_stencil_caches(tmp_path, clear_caches):
    """Two diagnose runs in one process, the first on cold caches (every
    lru_cache of diagnostics, extension and grids), the second on warm ones,
    write the same bytes, also after a run on another slab layout in between;
    the warm run misses no cache, and the runs use both caches."""
    eig_cfg = write_cfg(tmp_path / "eig.cfg", n=2, cells=24, lower=-1.0, upper=1.0,
                        s=0.5, domain="ball 0.02 -0.01 0.45", m=2)
    assert main(["eig", "--config", eig_cfg, "--out", str(tmp_path / "eig")]) == 0
    keys = dict(n=2, s=0.5, mask=str(tmp_path / "eig" / "mask.frlb"), r_max_cells=6,
                fields=f"{tmp_path / 'eig' / 'v01.frlb'},{tmp_path / 'eig' / 'v02.frlb'}")
    caches = clear_caches()
    outs, misses = [], []
    for run, J in enumerate((8, 8, 10, 8)):
        cfg = write_cfg(tmp_path / f"diag{run}.cfg", J=J, **keys)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / f"d{run}")]) == 0
        outs.append({name: (tmp_path / f"d{run}" / name).read_bytes() for name in
                     ("weiss.csv", "density.csv", "slopes.csv", "classification.json")})
        misses.append([cache.cache_info().misses for cache in caches])
    assert outs[0] == outs[1] == outs[3] != outs[2]
    assert misses[1] == misses[0] and sum(map(bool, misses[0])) >= 2


def test_diagnose_gives_one_node_features_no_normal_and_no_slope(tmp_path):
    """A 32^2 mask of a disk, a one-node-wide filament and an isolated node:
    where the smoothed mask's gradient vanishes (the filament's inner nodes and
    the isolated node) a point has no normal, so it gets no slope, a reason,
    and a nan row in slopes.csv; its density and flatness are still measured."""
    g = BoxGrid(2, -1.0, 1.0, 32)
    X, Y = np.meshgrid(g.axis_nodes(), g.axis_nodes(), indexing="ij")
    mask = (X + 0.35) ** 2 + Y**2 <= 0.3**2
    mask |= (np.abs(Y - 0.3125) < 1e-9) & (X > 0.05) & (X < 0.45)
    mask |= (np.abs(X - 0.375) < 1e-9) & (np.abs(Y + 0.375) < 1e-9)
    write_mask(str(tmp_path / "mask.frlb"), ThinDomain(g, mask))
    eig_cfg = write_cfg(tmp_path / "eig.cfg", n=2, cells=32, s=0.5, m=1,
                        domain=f"mask {tmp_path / 'mask.frlb'}")
    assert main(["eig", "--config", eig_cfg, "--out", str(tmp_path / "eig")]) == 0
    cfg = write_cfg(tmp_path / "diag.cfg", n=2, s=0.5, mask=str(tmp_path / "mask.frlb"),
                    fields=str(tmp_path / "eig" / "v01.frlb"), J=8, r_max_cells=6)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    points = json.loads((tmp_path / "d" / "classification.json").read_text())["points"]
    bare = [p for p in points if "no normal" in p.get("reason", "")]
    assert [p["x"] for p in bare] == [[0.1875, 0.3125], [0.25, 0.3125], [0.3125, 0.3125],
                                      [0.375, -0.375]]
    assert len(points) == 34
    assert all(p["slope"] is None and p["density_limit"] is not None
               and p["flatness"] is not None for p in bare)
    assert all(p["slope"] is not None for p in points if p not in bare)
    rows = (tmp_path / "d" / "slopes.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows if int(row.split(",")[0]) in
            [p["point"] for p in bare]] == ["nan"] * 4


@pytest.fixture
def wall_run(tmp_path, clear_caches, monkeypatch):
    """A diagnose run, from cold caches, on a 32^2 disk mask whose boundary comes
    within 5h of the box wall; returns every cache's hit/miss counts after it, and
    the number of sphere-form and ball-edge builds under "builds"."""
    eig_cfg = write_cfg(tmp_path / "eig.cfg", n=2, cells=32, lower=-1.0, upper=1.0,
                        s=0.5, domain="ball 0.3 0 0.39", m=1)
    assert main(["eig", "--config", eig_cfg, "--out", str(tmp_path / "eig")]) == 0
    cfg = write_cfg(tmp_path / "diag.cfg", n=2, s=0.5, mask=str(tmp_path / "eig" / "mask.frlb"),
                    fields=str(tmp_path / "eig" / "v01.frlb"), J=8)
    builds = {}
    for module, name in ((diagnostics, "_sphere_forms"), (extension, "_ball_edges")):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *key, name=name, build=build: (
            builds.__setitem__(name, builds.get(name, 0) + 1) or build(*key)))
    caches = clear_caches()
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    return {"builds": builds, **{cache.__name__: cache.cache_info() for cache in caches}}


def test_every_cache_is_reused_on_a_run_near_the_wall(wall_run):
    """Each of the two caches of diagnostics, extension and grids is hit on the
    run: a cache that no run reuses only costs its bookkeeping."""
    caches = {name: info for name, info in wall_run.items() if name != "builds"}
    assert {name: info.hits for name, info in caches.items() if info.hits == 0} == {}
    assert sorted(caches) == ["_ball_nodes", "_hemisphere_rule"]


def test_diagnose_marks_a_point_near_the_wall_undetermined(tmp_path, wall_run):
    """A free-boundary point 5h from the box wall has no radius ladder above
    5h inside the box: it alone is undetermined, with a reason, and the run
    succeeds. The ladders clipped at the wall depend only on the points' whole-
    cell wall distance, so the points share them: the run builds the sphere
    forms and ball edges once per distinct Weiss ladder, one call per ladder."""
    points = json.loads((tmp_path / "d" / "classification.json").read_text())["points"]
    ladders = {}
    for row in (tmp_path / "d" / "weiss.csv").read_text().splitlines()[1:]:
        ladders.setdefault(row.split(",")[0], []).append(row.split(",")[3])
    distinct = len(set(map(tuple, ladders.values())))
    assert 2 < distinct < len(ladders) // 4
    assert wall_run["builds"] == {"_sphere_forms": distinct, "_ball_edges": distinct}
    near = [p for p in points if "reason" in p]
    assert [p["x"][0] for p in near] == [0.6875]  # 5h from the wall x = 1
    assert near[0]["label"] == "undetermined" and "no radius ladder" in near[0]["reason"]
    assert near[0]["density_limit"] is near[0]["flatness"] is near[0]["slope"] is None
    assert all(p["density_limit"] is not None for p in points if "reason" not in p)
    # every other point gets its whole ladder, clipped to 0.95 of its wall
    # distance as the classifier's is; the point with the reason gets no rows
    for name in ("density.csv", "weiss.csv"):
        rows = (tmp_path / "d" / name).read_text().splitlines()[1:]
        per_point = [sum(r.startswith(f"{p['point']},") for r in rows) for p in points]
        assert per_point == [0 if "reason" in p else 4 for p in points], name


def test_diagnose_says_why_a_slope_is_missing(tmp_path):
    """On (0.4, 0.9) in [-1, 1] with h = 0.1 the right endpoint, 1h from the
    wall x = 1, has no ladder: its entry has a null slope and says why. The
    left endpoint is 6h from that wall, and its inward ray keeps its sample
    on the wall (x0 + 6h rounds above 1 by 2e-16), so it gets its slope."""
    eig_cfg = write_cfg(tmp_path / "eig.cfg", n=1, cells=20, lower=-1.0, upper=1.0,
                        s=0.5, domain="interval 0.35 0.95", m=1)
    assert main(["eig", "--config", eig_cfg, "--out", str(tmp_path / "eig")]) == 0
    cfg = write_cfg(tmp_path / "diag.cfg", n=1, s=0.5, mask=str(tmp_path / "eig" / "mask.frlb"),
                    fields=str(tmp_path / "eig" / "v01.frlb"), J=8)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    left, right = json.loads((tmp_path / "d" / "classification.json").read_text())["points"]
    assert left["x"] == [pytest.approx(0.4)] and left["x"][0] + 6 * 0.1 > 1.0
    assert left["slope"] > 0 and "reason" not in left
    assert right["slope"] is None and "no radius ladder" in right["reason"]
    rows = (tmp_path / "d" / "slopes.csv").read_text().splitlines()
    assert float(rows[1].split(",")[2]) == left["slope"] and rows[2].split(",")[2] == "nan"


def test_diagnose_grid_mismatch(eig_out, tmp_path):
    other = write_cfg(tmp_path / "o.cfg", n=1, cells=32, lower=-2.0,
                      upper=2.0, s=0.5, domain="interval -1 1")
    oout = tmp_path / "oeig"
    assert main(["eig", "--config", other, "--out", str(oout)]) == 0
    cfg = write_cfg(tmp_path / "mix.cfg", n=1, s=0.5,
                    mask=str(eig_out / "mask.frlb"),
                    fields=str(oout / "v01.frlb"), J=8)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 3


def test_eig_rejects_a_mask_on_another_box(eig_out, tmp_path, capsys):
    """Same dimension and cell count, but the mask lives on [-2, 2]."""
    cfg = write_cfg(tmp_path / "run.cfg", **{**EIG_KEYS, "lower": -1.0, "upper": 1.0,
                                             "domain": f"mask {eig_out / 'mask.frlb'}"})
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "incompatible inputs" in capsys.readouterr().err


def test_diagnose_rejects_fields_on_a_shifted_box(eig_out, tmp_path):
    """Same dimension, cell count and h as the mask, box shifted by 0.5."""
    grid, arr = read_fields(eig_out / "v01.frlb")
    shifted = BoxGrid(1, grid.lower + 0.5, grid.upper + 0.5, grid.cells_per_axis)
    write_fields(tmp_path / "shifted.frlb", shifted, arr)
    cfg = write_cfg(tmp_path / "diag.cfg", n=1, s=0.5, mask=str(eig_out / "mask.frlb"),
                    fields=str(tmp_path / "shifted.frlb"), J=12, Y=4.0)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == 3


@pytest.mark.parametrize("points", ["1,x", "0,99"])
def test_diagnose_checks_points_before_extending(eig_out, tmp_path, monkeypatch, capsys,
                                                 points):
    """A malformed or out-of-range --points is a usage error, found before
    either slab extension is solved."""
    def fail(*args, **kwargs):
        raise AssertionError("a slab extension ran before --points was checked")

    keys, _ = _manifest_run("diagnose", eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys)
    monkeypatch.setattr("fraclab.extension.extend", fail)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--points", points]) == 2
    assert "usage error" in capsys.readouterr().err


def test_diagnose_rejects_radii_below_the_weiss_floor(eig_out, tmp_path, monkeypatch, capsys):
    """r_min_cells < 5 is a usage error naming the key, found before either
    slab extension is solved; nothing is written."""
    def fail(*args, **kwargs):
        raise AssertionError("a slab extension ran before r_min_cells was checked")

    keys, _ = _manifest_run("diagnose", eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys, r_min_cells=3)
    monkeypatch.setattr("fraclab.extension.extend", fail)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "usage error: r_min_cells" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["eig", "extend", "diagnose"])
def test_seed_flag_is_for_optimize_only(eig_out, tmp_path, command):
    keys, _ = _manifest_run(command, eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 2


def test_verify_passes_every_check(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "7/7 checks passed"
    assert all(ln.startswith("PASS  ") for ln in lines[:-1])
    defect = float(next(ln for ln in lines if "scaling law" in ln).split()[-1].rstrip(")"))
    assert 0.0 < defect <= 1e-10  # grids whose K differ (s != 1/2 in 1D)


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr("fraclab.checks.scaling_defect", lambda *args, **kwargs: 1e-3)
    assert main(["verify"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "6/7 checks passed"
    assert [ln for ln in lines if ln.startswith("FAIL")] == [
        "FAIL  scaling law exact  (defect 1.00e-03)"]


def _manifest_run(command, eig_out):
    """Config keys of a small run of `command` and the input files it reads."""
    mask, v01 = str(eig_out / "mask.frlb"), str(eig_out / "v01.frlb")
    if command == "eig":
        return {**EIG_KEYS, "domain": f"mask {mask}"}, [mask]
    if command == "extend":
        return dict(n=1, s=0.5, trace=v01, J=16, Y=4.0), [v01]
    if command == "optimize":
        return OPT_KEYS, []
    v02 = str(eig_out / "v02.frlb")
    return dict(n=1, s=0.5, mask=mask, fields=f"{v01},{v02}", J=12, Y=4.0), [mask, v01, v02]


@pytest.mark.parametrize("command", ["eig", "extend", "optimize", "diagnose"])
def test_manifest_hashes_every_input_and_output(eig_out, tmp_path, command):
    def sha(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    keys, inputs = _manifest_run(command, eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    man = RunManifest.load(out / "manifest.json")
    assert man.command == command and man.complete
    assert set(man.outputs) == set(os.listdir(out)) - {"manifest.json"}
    assert man.outputs == {name: sha(out / name) for name in man.outputs}
    assert man.input_hashes == {path: sha(path) for path in [cfg, *inputs]}


@pytest.mark.parametrize("command,target", [
    ("eig", "scipy.linalg.eigh"),
    ("diagnose", "numpy.linalg.svd"),
])
def test_linalg_error_is_a_numerical_failure(eig_out, tmp_path, monkeypatch, capsys,
                                             command, target):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    keys, _ = _manifest_run(command, eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys)
    monkeypatch.setattr(target, fail)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "numerical failure: forced failure" in capsys.readouterr().err


def test_eig_checks_the_bundle_before_writing(tmp_path, monkeypatch, capsys):
    from fraclab import eigen

    solve = eigen.lowest_eigenpairs

    def loose(table, domain, m):
        bundle = solve(table, domain, m)
        bundle.residuals[-1] = 1e-6
        return bundle

    monkeypatch.setattr(eigen, "lowest_eigenpairs", loose)
    cfg = write_cfg(tmp_path / "run.cfg", **EIG_KEYS)
    out = tmp_path / "out"
    assert main(["eig", "--config", cfg, "--out", str(out)]) == 4
    assert "check: residual 1.00e-06 > 1e-8" in capsys.readouterr().err
    assert not (out / "lambdas.json").exists()
    assert not out.exists() or os.listdir(out) == []


# -- optimize and replay -----------------------------------------------------


OPT_KEYS = dict(n=1, cells=24, lower=-1.0, upper=1.0, s=0.5, m=1,
                schedule="greedy", seed=11, **{"lambda": 2.3})


def test_optimize_and_manifest_replay(tmp_path):
    cfg = write_cfg(tmp_path / "opt.cfg", **OPT_KEYS)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["optimize", "--config", cfg, "--out", str(out1)]) == 0
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["certified"]
    assert not summary["aborted"] and not summary["interrupted"]
    assert summary["best_objective"] > 0
    man = RunManifest.load(out1 / "manifest.json")
    assert man.complete and man.seed == 11

    # replaying from the manifest reproduces every artifact byte for byte
    assert main(["optimize", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    for name in ("trace.csv", "best_mask.frlb", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_optimize_without_finite_objective_is_not_certified(tmp_path, monkeypatch, capsys):
    """m = 20 exceeds the 11 nodes of the start mask, so no objective could
    be finite: a usage error naming both counts, found before the optimizer
    runs, with nothing written."""
    def fail(*args, **kwargs):
        raise AssertionError("the optimizer ran on a start below m nodes")

    monkeypatch.setattr("fraclab.shape_opt.optimize", fail)
    cfg = write_cfg(tmp_path / "opt.cfg", **{**OPT_KEYS, "m": 20, "lambda": 10})
    out = tmp_path / "o"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
    assert "m = 20 exceeds the 11 nodes of the start mask" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,schedule", [
    ("dsytrd", "greedy"), ("dstebz", "greedy"), ("dstein", "greedy"),
    ("dstevd", "greedy"), ("dormqr", "greedy"), ("dgtsv", "anneal"),
])
def test_optimize_lapack_failure_is_a_numerical_failure(tmp_path, monkeypatch, name,
                                                        schedule):
    from scipy.linalg import lapack

    real = getattr(lapack, name)
    monkeypatch.setattr(lapack, name, lambda *a, **kw: (*real(*a, **kw)[:-1], 1))
    cfg = write_cfg(tmp_path / "opt.cfg", **{**OPT_KEYS, "schedule": schedule, "steps": 20})
    out = tmp_path / "o"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 4
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["aborted"] and not summary["certified"]
    assert not RunManifest.load(out / "manifest.json").complete


def test_optimize_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "opt.cfg", **{**OPT_KEYS, "schedule": "anneal",
                                             "steps": 60, "stale_limit": 50})
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["optimize", "--config", cfg, "--out", str(out1),
                 "--seed", "3"]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(out2),
                 "--seed", "4"]) == 0
    m1 = RunManifest.load(out1 / "manifest.json")
    m2 = RunManifest.load(out2 / "manifest.json")
    assert (m1.seed, m2.seed) == (3, 4)


# -- error paths -------------------------------------------------------------


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 1\nnot a key value pair\n")
    assert main(["eig", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_required_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", n=1, s=0.5)  # no cells
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "cells" in capsys.readouterr().err


@pytest.mark.parametrize("command,keys", [
    ("eig", {**EIG_KEYS, "n": 3}),
    ("eig", {**EIG_KEYS, "cells": 2}),
    ("eig", {**EIG_KEYS, "m": 0}),
    ("eig", {**EIG_KEYS, "m": 1000}),
    ("eig", {**EIG_KEYS, "domain": "interval 0.5 -0.5"}),
    ("eig", {**EIG_KEYS, "domain": "interval -1 one"}),
    ("optimize", {**OPT_KEYS, "schedule": "foo"}),
    ("optimize", {**OPT_KEYS, "cooling": 2}),
    ("optimize", {**OPT_KEYS, "m": 40}),
    ("optimize", {**OPT_KEYS, "move_kind": "block-flip"}),
    ("optimize", {**OPT_KEYS, "steps": "ten"}),
    ("extend", {"n": 1, "s": 0.5, "J": 2}),
    ("extend", {"n": 1, "s": 0.5, "Y": 1.0}),
    ("diagnose", {"n": 1, "s": 0.5, "J": 2}),
    ("diagnose", {"n": 1, "s": 0.5, "r_max_cells": 2}),
    ("diagnose", {"n": 1, "s": 0.5, "r_max_cells": "nan"}),
    ("diagnose", {"n": 1, "s": 0.5, "class_tol": "abc"}),
    ("optimize", {**OPT_KEYS, "lambda": "inf"}),
    ("optimize", {**OPT_KEYS, "schedule": "anneal", "t0": "nan"}),
    ("diagnose", {"n": 1, "s": 0.5, "lambda": "inf"}),
    ("diagnose", {"n": 1, "s": 0.5, "class_delta": "nan"}),
    ("eig", {**EIG_KEYS, "upper": "inf"}),
    ("extend", {"n": 1, "s": 0.5, "Y": "inf"}),
    ("extend", {"n": 1, "s": 0.5, "gamma": "nan"}),
], ids=["n3", "cells2", "m0", "m-too-large", "empty-interval", "bad-number",
        "schedule-foo", "cooling2", "optimize-m-too-large", "block-flip", "steps-ten", "J2",
        "Y-below-diameter", "diagnose-J2", "r_max_cells2", "r_max_cells-nan", "class_tol-abc",
        "optimize-lambda-inf", "t0-nan", "diagnose-lambda-inf", "class_delta-nan", "upper-inf",
        "Y-inf", "gamma-nan"])
def test_bad_config_values_are_usage_errors(eig_out, tmp_path, capsys, command, keys):
    keys = dict(keys)
    if command == "extend":
        keys["trace"] = str(eig_out / "v01.frlb")
    if command == "diagnose":
        keys.update(mask=str(eig_out / "mask.frlb"), fields=str(eig_out / "v01.frlb"))
    cfg = write_cfg(tmp_path / "bad.cfg", **keys)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("keys", [
    {**EIG_KEYS, "domain": "interval -inf 1"},
    {**EIG_KEYS, "n": 2, "cells": 16, "domain": "ball nan 0 0.3"},
    {**EIG_KEYS, "n": 2, "cells": 16, "domain": "ball 0 0 inf"},
], ids=["interval-inf", "ball-nan-center", "ball-inf-radius"])
def test_non_finite_domain_numbers_are_usage_errors(tmp_path, capsys, keys):
    """A domain spec with an infinite or nan number exits 2 naming `domain`, not
    with every node selected or as a domain without nodes."""
    cfg = write_cfg(tmp_path / "bad.cfg", **keys)
    assert main(["eig", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "usage error: config key 'domain'" in err and "non-finite" in err


@pytest.mark.parametrize("key", ["bogus_key", "stale_limt"])
@pytest.mark.parametrize("command", ["eig", "extend", "optimize", "diagnose"])
def test_unknown_config_key_is_a_usage_error(eig_out, tmp_path, monkeypatch, capsys,
                                             command, key):
    """A key the command does not read exits 2 and names the key, before any
    solve and with nothing written under --out."""
    def fail(*args, **kwargs):
        raise AssertionError("a solve ran before the config keys were checked")

    for target in ("fraclab.eigen.lowest_eigenpairs", "fraclab.extension.extend",
                   "fraclab.shape_opt.optimize"):
        monkeypatch.setattr(target, fail)
    keys, _ = _manifest_run(command, eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys, **{key: 3})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"usage error: config keys unknown to {command}: {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eig", "extend", "optimize", "diagnose"])
def test_accepted_config_keys_are_the_keys_read(eig_out, tmp_path, monkeypatch, command):
    """The keys a command accepts are exactly those its run looks up."""
    from fraclab import cli

    read = set()
    cfg_lookup = cli._cfg
    monkeypatch.setattr(cli, "_cfg", lambda cfg, key, *a, **kw: read.add(key)
                        or cfg_lookup(cfg, key, *a, **kw))
    keys, _ = _manifest_run(command, eig_out)
    cfg = write_cfg(tmp_path / "run.cfg", **keys)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert read == cli._KEYS[command]


@pytest.mark.parametrize("text", [
    '{"config": {', '{"config": [1]}', '{"config": "x"}', '{"config": {}, "seed": "x"}',
    '{"seed": 1}',
], ids=["truncated", "config-list", "config-string", "seed-string", "no-config"])
def test_malformed_manifest_is_a_config_error(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


@pytest.mark.parametrize("defect", ["nan", "ring", "empty"])
@pytest.mark.parametrize("command", ["extend", "diagnose"])
def test_bad_trace_is_an_input_error(eig_out, tmp_path, capsys, command, defect):
    """A trace that is not finite or not zero on the boundary ring, or a
    fields file that holds no fields, exits 3 and names its file; no energy
    with a NaN reaches energy.json."""
    grid, arr = read_fields(eig_out / "v01.frlb")
    bad = str(tmp_path / "bad.frlb")
    if defect == "empty":
        # write_fields refuses m = 0: the header of v01.frlb with m = 0 and
        # no payload
        data = (eig_out / "v01.frlb").read_bytes()
        head = len(data) - 8 * grid.num_nodes - 4
        (tmp_path / "bad.frlb").write_bytes(data[:head] + struct.pack("<I", 0))
    else:
        arr[0, 0 if defect == "ring" else grid.num_nodes // 2] = (
            np.nan if defect == "nan" else 0.5)
        write_fields(bad, grid, arr)
    keys, _ = _manifest_run(command, eig_out)
    keys = {**keys, "trace": bad} if command == "extend" else {**keys, "fields": bad}
    cfg = write_cfg(tmp_path / "run.cfg", **keys)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    assert f"incompatible inputs: {bad}" in capsys.readouterr().err
    assert not (out / "energy.json").exists()


def test_diagnose_factors_once_for_all_fields_files(tmp_path, monkeypatch):
    """diagnose extends the fields of both files in one call: one LU."""
    from scipy.sparse import linalg as sla

    eig_cfg = write_cfg(tmp_path / "eig.cfg", n=2, cells=24, lower=-1.0, upper=1.0,
                        s=0.5, domain="ball 0.02 -0.01 0.45", m=2)
    assert main(["eig", "--config", eig_cfg, "--out", str(tmp_path / "eig")]) == 0
    calls = []
    splu = sla.splu
    monkeypatch.setattr(sla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw))
    cfg = write_cfg(tmp_path / "diag.cfg", n=2, s=0.5, **{"lambda": 10},
                    mask=str(tmp_path / "eig" / "mask.frlb"),
                    fields=f"{tmp_path / 'eig' / 'v01.frlb'},{tmp_path / 'eig' / 'v02.frlb'}",
                    J=8, r_min_cells=5, r_max_cells=6)
    assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d"),
                 "--points", "0"]) == 0
    assert len(calls) == 1


def test_missing_config_file(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert main(["eig", "--config", missing, "--out", str(tmp_path / "o")]) == 3


def test_missing_trace_file(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", n=1, s=0.5,
                    trace=str(tmp_path / "absent.frlb"))
    assert main(["extend", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


# -- interrupt handling ------------------------------------------------------


def test_sigint_flushes_partial_results(tmp_path):
    cfg = write_cfg(tmp_path / "long.cfg",
                    **{**OPT_KEYS, "schedule": "anneal", "steps": 2000000,
                       "stale_limit": 2000000, "t0": 0.05})
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fraclab.cli", "optimize",
         "--config", cfg, "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    time.sleep(2.5)
    proc.send_signal(signal.SIGINT)
    rc = proc.wait(timeout=120)
    assert rc == 130
    man = RunManifest.load(out / "manifest.json")
    assert not man.complete
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) > 1  # header plus flushed partial trace
    summary = json.loads((out / "summary.json").read_text())
    assert summary["interrupted"]
