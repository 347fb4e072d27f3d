"""Property tests of FRLB field/mask round-trips and corruption, and of
KEY = VALUE config parsing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fraclab.gridio import (  # noqa: E402
    CompatibilityError,
    format_config,
    parse_config,
    read_fields,
    read_mask,
    write_fields,
    write_mask,
)
from fraclab.grids import BoxGrid, ThinDomain  # noqa: E402

_FILES = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def grids(draw):
    n = draw(st.integers(1, 2))
    cells = draw(st.integers(4, 40 if n == 1 else 12))
    lower = draw(st.floats(-10.0, 10.0))
    width = draw(st.floats(0.1, 10.0))
    return BoxGrid(n, lower, lower + width, cells)


def field_stack(draw, grid):
    m = draw(st.integers(1, 3))
    return draw(arrays("<f8", (m,) + grid.node_shape))


def interior_mask(draw, grid):
    return draw(arrays(bool, grid.node_shape)) & grid.interior()


def same_grid(a, b):
    key = ("n", "cells_per_axis", "lower", "upper")
    return [getattr(a, k) for k in key] == [getattr(b, k) for k in key]


@_FILES
@given(grids(), st.data())
def test_fields_roundtrip(tmp_path, grid, data):
    fields = field_stack(data.draw, grid)
    path = tmp_path / "f.frlb"
    write_fields(path, grid, fields)
    got_grid, got = read_fields(path)
    assert same_grid(got_grid, grid)
    assert got.shape == fields.shape
    assert got.tobytes() == fields.tobytes()  # bitwise, NaN and -0.0 included


@_FILES
@given(grids(), st.data())
def test_mask_roundtrip(tmp_path, grid, data):
    dom = ThinDomain(grid, interior_mask(data.draw, grid))
    path = tmp_path / "m.frlb"
    write_mask(path, dom)
    got = read_mask(path)
    assert same_grid(got.grid, grid)
    np.testing.assert_array_equal(got.mask, dom.mask)


@_FILES
@given(grids(), st.sampled_from(["fields", "mask"]), st.data())
def test_truncated_or_extended_file_is_rejected(tmp_path, grid, kind, data):
    path = tmp_path / "ok.frlb"
    if kind == "fields":
        write_fields(path, grid, field_stack(data.draw, grid))
        read = read_fields
    else:
        write_mask(path, ThinDomain(grid, interior_mask(data.draw, grid)))
        read = read_mask
    blob = path.read_bytes()
    if data.draw(st.booleans()):
        bad = blob[: data.draw(st.integers(0, len(blob) - 1))]
    else:
        bad = blob + data.draw(st.binary(min_size=1, max_size=16))
    corrupt = tmp_path / "bad.frlb"
    corrupt.write_bytes(bad)
    with pytest.raises(CompatibilityError):
        read(corrupt)


# keys and values hold no comment marker and no line break; keys no "=" either
_text = st.characters(blacklist_categories=("Cc", "Zl", "Zp", "Cs"),
                      blacklist_characters="#")
keys = st.text(_text, min_size=1, max_size=12).map(str.strip).filter(
    lambda k: k and "=" not in k)
values = st.text(_text, max_size=20).map(str.strip)
pads = st.text(" \t", max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(keys, values, pads, pads, st.booleans()), max_size=8), st.data())
def test_parse_config_roundtrips_key_value_text(entries, data):
    lines = []
    for key, value, pad, pad2, comment in entries:
        if data.draw(st.booleans()):
            lines.append(pad + "# a comment line")
        tail = pad2 + "# note" if comment else pad2
        lines.append(f"{pad}{key}{pad2}={pad}{value}{tail}")
    expected = {key: value for key, value, *_ in entries}
    assert parse_config("\n".join(lines) + "\n") == expected
    assert parse_config(format_config(expected)) == expected
