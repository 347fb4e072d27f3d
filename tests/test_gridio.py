import gc
import json
import struct
import warnings

import numpy as np
import pytest

from fraclab.constants import FracParams
from fraclab.extension import SlabGrid, extend
from fraclab.grids import BoxGrid, ball_domain, interval_domain
from fraclab.gridio import (
    CompatibilityError,
    ConfigError,
    RunManifest,
    atomic_write_bytes,
    format_config,
    parse_config,
    read_fields,
    read_mask,
    read_slab_field,
    sha256_file,
    write_fields,
    write_mask,
    write_slab_field,
)


def same_grid(a, b):
    return (a.n == b.n and a.cells_per_axis == b.cells_per_axis
            and a.lower == b.lower and a.upper == b.upper)


# -- binary round trips ------------------------------------------------------


def test_mask_roundtrip_1d(tmp_path):
    g = BoxGrid(1, -2.0, 2.0, 32)
    dom = interval_domain(g, -1.0, 1.0)
    path = tmp_path / "m.frlb"
    write_mask(path, dom)
    back = read_mask(path)
    assert same_grid(back.grid, g)
    np.testing.assert_array_equal(back.mask, dom.mask)


def test_mask_roundtrip_2d(tmp_path):
    g = BoxGrid(2, -1.0, 1.0, 16)
    dom = ball_domain(g, [0.1, -0.2], 0.5)
    path = tmp_path / "m.frlb"
    write_mask(path, dom)
    back = read_mask(path)
    assert back.grid.n == 2
    np.testing.assert_array_equal(back.mask, dom.mask)
    assert back.measure == pytest.approx(dom.measure)


def test_fields_roundtrip_single_and_stack(tmp_path):
    g = BoxGrid(1, 0.0, 1.0, 16)
    x = g.node_coords()[:, 0]
    one = np.sin(3 * x)
    stack = np.stack([np.cos(k * x) for k in range(3)])

    p1 = tmp_path / "one.frlb"
    write_fields(p1, g, one)
    g1, arr1 = read_fields(p1)
    assert same_grid(g1, g)
    assert arr1.shape == (1,) + g.node_shape
    np.testing.assert_array_equal(arr1[0], one)  # bit-exact

    p2 = tmp_path / "stack.frlb"
    write_fields(p2, g, stack)
    _, arr2 = read_fields(p2)
    assert arr2.shape == (3,) + g.node_shape
    np.testing.assert_array_equal(arr2, stack)


def test_fields_shape_mismatch_raises(tmp_path):
    g = BoxGrid(1, 0.0, 1.0, 16)
    with pytest.raises(ValueError):
        write_fields(tmp_path / "bad.frlb", g, np.zeros(7))


def test_slab_roundtrip(tmp_path):
    p = FracParams(1, 0.5, 1.0)
    g = BoxGrid(1, -2.0, 2.0, 24)
    dom = interval_domain(g, -1.0, 1.0)
    x = g.node_coords()[:, 0]
    tr = np.where(dom.mask.ravel(), np.cos(0.5 * np.pi * x), 0.0)
    f = extend(tr, SlabGrid(g, 12, a=0.0, Y=4.0))
    path = tmp_path / "s.frlb"
    write_slab_field(path, f)
    back = read_slab_field(path)
    assert same_grid(back.slab.base, g)
    assert back.slab.J == 12
    assert back.slab.a == f.slab.a
    assert back.slab.gamma == f.slab.gamma
    # the stored y-nodes are authoritative, not recomputed
    np.testing.assert_array_equal(back.slab.y_nodes, f.slab.y_nodes)
    np.testing.assert_array_equal(back.values, f.values)


# -- header rejection --------------------------------------------------------


def test_kind_mismatch_rejected(tmp_path):
    g = BoxGrid(1, -1.0, 1.0, 8)
    dom = interval_domain(g, -0.5, 0.5)
    mpath = tmp_path / "m.frlb"
    write_mask(mpath, dom)
    fpath = tmp_path / "f.frlb"
    write_fields(fpath, g, np.zeros(g.node_shape))
    with pytest.raises(CompatibilityError):
        read_fields(mpath)
    with pytest.raises(CompatibilityError):
        read_mask(fpath)
    with pytest.raises(CompatibilityError):
        read_slab_field(fpath)


def test_non_frlb_and_truncated_rejected(tmp_path):
    junk = tmp_path / "junk.frlb"
    junk.write_bytes(b"GARBAGE-NOT-A-REAL-FILE-" + b"\x00" * 64)
    with pytest.raises(CompatibilityError):
        read_mask(junk)
    short = tmp_path / "short.frlb"
    short.write_bytes(b"FRLB\x01")
    with pytest.raises(CompatibilityError):
        read_mask(short)


def test_unsupported_version_rejected(tmp_path):
    hdr = struct.Struct("<4sIIII dd").pack(b"FRLB", 99, 2, 1, 8, -1.0, 1.0)
    path = tmp_path / "v99.frlb"
    path.write_bytes(hdr + bytes(9))
    with pytest.raises(CompatibilityError):
        read_mask(path)


def test_truncated_payload_rejected(tmp_path):
    g = BoxGrid(1, -1.0, 1.0, 16)
    path = tmp_path / "f.frlb"
    write_fields(path, g, np.ones(g.node_shape))
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CompatibilityError):
        read_fields(path)


def _frlb_files(tmp_path):
    """One valid file of each kind, with its reader."""
    g = BoxGrid(1, -2.0, 2.0, 16)
    dom = interval_domain(g, -1.0, 1.0)
    write_mask(tmp_path / "m.frlb", dom)
    write_fields(tmp_path / "f.frlb", g, np.stack([dom.mask * 1.0, dom.mask * 2.0]))
    write_slab_field(tmp_path / "s.frlb", extend(dom.mask * 1.0, SlabGrid(g, 6, a=0.0)))
    return [(tmp_path / "m.frlb", read_mask), (tmp_path / "f.frlb", read_fields),
            (tmp_path / "s.frlb", read_slab_field)]


@pytest.mark.parametrize("cut", [1, 7, -1, -8],
                         ids=["drop1", "drop7", "extra1", "extra8"])
def test_payload_length_must_be_exact(tmp_path, cut):
    for path, reader in _frlb_files(tmp_path):
        reader(path)  # the intact file reads
        blob = path.read_bytes()
        path.write_bytes(blob[:-cut] if cut > 0 else blob + bytes(-cut))
        with pytest.raises(CompatibilityError, match="bytes"):
            reader(path)


def test_payload_cut_inside_the_kind_header(tmp_path):
    for path, reader in _frlb_files(tmp_path)[1:]:
        path.write_bytes(path.read_bytes()[: struct.calcsize("<4sIIII dd") + 3])
        with pytest.raises(CompatibilityError, match="truncated"):
            reader(path)


def test_mask_bytes_outside_0_1_rejected(tmp_path):
    path = _frlb_files(tmp_path)[0][0]
    blob = bytearray(path.read_bytes())
    blob[-8] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(CompatibilityError, match="0 or 1"):
        read_mask(path)


def test_ring_touching_mask_rejected(tmp_path):
    path = _frlb_files(tmp_path)[0][0]
    blob = bytearray(path.read_bytes())
    blob[-1] = 1  # last node of the grid sits on the ring
    path.write_bytes(bytes(blob))
    with pytest.raises(CompatibilityError, match="boundary layer"):
        read_mask(path)


def test_bad_header_grid_rejected(tmp_path):
    hdr = struct.Struct("<4sIIII dd").pack(b"FRLB", 1, 2, 3, 8, -1.0, 1.0)
    path = tmp_path / "n3.frlb"
    path.write_bytes(hdr + bytes(9**3))
    with pytest.raises(CompatibilityError, match="bad grid"):
        read_mask(path)


# -- config files ------------------------------------------------------------


def test_parse_config_text_and_file(tmp_path):
    text = (
        "# run setup\n"
        "n = 1\n"
        "\n"
        "s = 0.5   # order\n"
        "domain = interval -1 1\n"
    )
    cfg = parse_config(text)
    assert cfg == {"n": "1", "s": "0.5", "domain": "interval -1 1"}
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert parse_config(str(path)) == cfg


def test_parse_config_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("a = 1\nthis has no equals sign\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("= 3\n")


def test_format_config_roundtrip():
    cfg = {"cells": "64", "Lambda": "2.3", "note": "a = b"}
    assert parse_config(format_config(cfg)) == cfg


# -- manifests and hashing ---------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    man = RunManifest(
        tool_version="0.1.0",
        command="eig",
        config={"n": "1", "s": "0.5"},
        seed=7,
        input_hashes={"cfg": "ab" * 32},
        outputs={"lambdas.json": "cd" * 32},
        wall_times={"total": 1.25},
        complete=True,
    )
    path = tmp_path / "manifest.json"
    man.save(path)
    back = RunManifest.load(path)
    assert back == man
    # serialized form is key-sorted, hence insertion-order independent
    man2 = RunManifest(
        command="eig",
        tool_version="0.1.0",
        config={"s": "0.5", "n": "1"},
        seed=7,
        input_hashes={"cfg": "ab" * 32},
        outputs={"lambdas.json": "cd" * 32},
        wall_times={"total": 1.25},
        complete=True,
    )
    assert man2.to_json() == man.to_json()
    data = json.loads(man.to_json())
    assert data["complete"] is True


def test_sha256_stability(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"payload-1")
    b.write_bytes(b"payload-1")
    assert sha256_file(a) == sha256_file(b)
    b.write_bytes(b"payload-2")
    assert sha256_file(a) != sha256_file(b)


def test_atomic_write_overwrites_and_leaves_no_temps(tmp_path):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"first")
    atomic_write_bytes(path, b"second")
    assert path.read_bytes() == b"second"
    leftovers = [q.name for q in tmp_path.iterdir() if q.name.startswith(".tmp-")]
    assert leftovers == []


def test_readers_close_every_file(tmp_path):
    """No reader leaves its file to the garbage collector (a ResourceWarning)."""
    g = BoxGrid(1, -2.0, 2.0, 16)
    dom = interval_domain(g, -1.0, 1.0)
    write_mask(tmp_path / "m.frlb", dom)
    write_fields(tmp_path / "f.frlb", g, dom.mask.astype(float))
    write_slab_field(tmp_path / "s.frlb", extend(dom.mask.astype(float), SlabGrid(g, 8, a=0.0)))
    (tmp_path / "run.cfg").write_text("n = 1\n")
    RunManifest("0.1.0", "eig", {}).save(tmp_path / "manifest.json")
    for read, name in ((read_mask, "m.frlb"), (read_fields, "f.frlb"),
                       (read_slab_field, "s.frlb"), (sha256_file, "m.frlb"),
                       (parse_config, "run.cfg"), (RunManifest.load, "manifest.json")):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            read(str(tmp_path / name))
            gc.collect()
        assert not [w for w in seen if issubclass(w.category, ResourceWarning)], name
