import numpy as np
import pytest

from fraclab.grids import (
    BoxGrid,
    ThinDomain,
    ball_domain,
    interval_domain,
    mask_from_indices,
)


def test_boxgrid_layout():
    g = BoxGrid(1, -2.0, 2.0, 8)
    assert g.h == pytest.approx(0.5)
    assert g.node_shape == (9,)
    assert g.num_nodes == 9
    x = g.axis_nodes()
    assert x[0] == -2.0 and x[-1] == 2.0
    assert np.allclose(np.diff(x), 0.5)

    g2 = BoxGrid(2, 0.0, 1.0, 4)
    assert g2.node_shape == (5, 5)
    assert g2.node_coords().shape == (25, 2)


def test_boxgrid_validation():
    with pytest.raises(ValueError):
        BoxGrid(3, 0.0, 1.0, 8)
    with pytest.raises(ValueError):
        BoxGrid(1, 1.0, 0.0, 8)
    with pytest.raises(ValueError):
        BoxGrid(1, 0.0, 1.0, 3)
    for lower, upper in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            BoxGrid(1, lower, upper, 8)


def test_same_layout_compares_the_box_corners():
    g = BoxGrid(2, -1.0, 1.0, 16)
    assert g.same_layout(BoxGrid(2, -1.0, 1.0 + 1e-14, 16))
    assert not g.same_layout(BoxGrid(2, -0.5, 1.5, 16))  # same n, cells and h
    assert not g.same_layout(BoxGrid(1, -1.0, 1.0, 16))
    assert not g.same_layout(BoxGrid(2, -1.0, 1.0, 32))


def test_interior_excludes_boundary_ring():
    g = BoxGrid(2, -1.0, 1.0, 6)
    inner = g.interior()
    assert inner.sum() == 5 * 5
    assert not inner[0].any() and not inner[-1].any()
    assert not inner[:, 0].any() and not inner[:, -1].any()


def test_interval_domain_measure_and_margin():
    g = BoxGrid(1, -2.0, 2.0, 64)
    dom = interval_domain(g, -1.0, 1.0)
    # node-cell convention: each kept node owns one h-cell
    assert dom.measure == pytest.approx(g.h * dom.cell_count)
    assert abs(dom.measure - 2.0) <= 2 * g.h
    # requests reaching the box edge are clipped to the one-layer interior
    clipped = interval_domain(g, -2.0, 0.0)
    assert clipped.mask.ravel()[0] == False  # noqa: E712
    assert clipped.coords().min() >= -2.0 + g.h - 1e-12


def test_ball_domain_2d_measure():
    g = BoxGrid(2, -1.0, 1.0, 64)
    dom = ball_domain(g, [0.0, 0.0], 0.5)
    assert abs(dom.measure - np.pi * 0.25) < 0.05
    # a ball reaching past the box edge is clipped, never touching the margin
    clipped = ball_domain(g, [0.9, 0.0], 0.3)
    assert clipped.cell_count > 0
    assert not (clipped.mask & ~g.interior()).any()


def test_flat_indices_roundtrip():
    g = BoxGrid(2, -1.0, 1.0, 16)
    dom = ball_domain(g, [0.1, -0.2], 0.4)
    idx = dom.flat_indices
    rebuilt = mask_from_indices(g, idx)
    assert np.array_equal(rebuilt.mask, dom.mask)
    assert rebuilt.cell_count == dom.cell_count


def test_full_field_scatter():
    g = BoxGrid(1, -1.0, 1.0, 16)
    dom = interval_domain(g, -0.5, 0.5)
    vals = np.arange(dom.cell_count, dtype=float) + 1.0
    fld = dom.full_field(vals)
    assert fld.shape == g.node_shape
    assert np.all(fld.ravel()[dom.flat_indices] == vals)
    outside = np.setdiff1d(np.arange(g.num_nodes), dom.flat_indices)
    assert np.all(fld.ravel()[outside] == 0.0)


def test_coords_lie_inside_mask_bounds():
    g = BoxGrid(2, -1.0, 1.0, 32)
    dom = ball_domain(g, [0.0, 0.0], 0.6)
    pts = dom.coords()
    assert pts.shape == (dom.cell_count, 2)
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 0.6 + 1e-12)


def test_with_mask_enforces_margin():
    g = BoxGrid(1, -1.0, 1.0, 8)
    dom = interval_domain(g, -0.5, 0.5)
    bad = np.ones(g.node_shape, dtype=bool)
    with pytest.raises(ValueError):
        dom.with_mask(bad)
    good = np.zeros(g.node_shape, dtype=bool)
    good[3:6] = True
    dom2 = dom.with_mask(good)
    assert dom2.cell_count == 3


def test_thindomain_rejects_wrong_shape():
    g = BoxGrid(2, -1.0, 1.0, 8)
    with pytest.raises(ValueError):
        ThinDomain(g, np.zeros((3, 3), dtype=bool))
