"""Slow references the tests hold the code to: the blow-up of extension
fields on a unit-scale grid (once public API), whose values flatness gathers at
the unit-ball points, the ball energies as one index window computed them, and
an anneal that converges every proposal's roots before deciding."""

from dataclasses import dataclass
from unittest import mock

import numpy as np

from fraclab import shape_opt
from fraclab.diagnostics import _blow_up_stencil, _blow_up_window
from fraclab.extension import _conductances, _gather
from fraclab.grids import BoxGrid


@dataclass
class RescaledField:
    """Blow-up sample G_{X0,r}(X) = r^{-s} G(X0 + r X) on a unit-scale grid.

    values has shape xgrid.node_shape + (len(y_levels), m).
    """

    xgrid: BoxGrid
    y_levels: np.ndarray
    values: np.ndarray
    r: float
    x0: np.ndarray

    @property
    def m(self):
        return self.values.shape[-1]

    def magnitude(self):
        return np.sqrt(np.sum(self.values**2, axis=-1))

    def ball_mask(self):
        """Boolean array over nodes with |(x, y)| <= 1."""
        coords = self.xgrid.node_coords()
        d2 = (coords**2).sum(axis=1)[:, None] + self.y_levels[None, :] ** 2
        return (d2 <= 1.0 + 1e-12).reshape(self.xgrid.node_shape + (len(self.y_levels),))


def blow_up_rescale(source, x0, r, s):
    """Rescale extension fields around a thin-space point onto the unit ball
    scale (_blow_up_stencil); the rescaled field has one component per field."""
    fields, x0, r, layout, nodes, offs = _blow_up_window(source, x0, r)
    xg, y_lv, stencil = _blow_up_stencil(layout, r, offs[0])
    vals = np.stack(_gather(fields, stencil, nodes[0]), axis=-1) * r ** (-s)
    return RescaledField(xg, y_lv, vals.reshape(xg.node_shape + (y_lv.size, -1)), r, x0[0])


def windowed_ball_energies(fields, center, radii):
    """The ball energies as one index window of the values array computed them
    before the cached edge sets: per axis, the midpoints' squared distances d2 over
    the largest radius's window, each radius's mask d2 < r^2, and per field the
    masked entries of c * (dg)^2 summed in C order."""
    slab = fields[0].slab
    base = slab.base
    center = np.atleast_1d(np.asarray(center, dtype=float))
    radii = np.asarray(radii, dtype=float)
    radius = radii.max(initial=0.0)
    at = (center - base.lower) / base.h  # the center in index units
    lo = np.maximum(np.floor(at - radius / base.h).astype(int) - 1, 0)
    hi = np.maximum(np.ceil(at + radius / base.h).astype(int) + 2, 0)
    top = int(np.searchsorted(slab.y_nodes, radius)) + 1
    window = tuple(slice(i, k) for i, k in zip(lo, hi)) + (slice(0, top),)
    gs = [f.values[window] for f in fields]
    coords = [base.axis_nodes()[w] for w in window[:-1]] + [slab.y_nodes[:top]]
    origin = list(center) + [0.0]
    out = np.zeros((len(fields), len(radii)))
    for axis, c in enumerate(_conductances(slab)):
        d2 = 0.0
        for k, x in enumerate(coords):
            if k == axis:
                x = 0.5 * (x[:-1] + x[1:])
            shape = [-1 if m == k else 1 for m in range(gs[0].ndim)]
            d2 = d2 + ((x - origin[k]) ** 2).reshape(shape)
        inside = [d2 < r**2 for r in radii]
        for row, g in zip(out, gs):
            d = np.diff(g, axis=axis)
            e = c[: d.shape[-1]] * d * d
            row += [e[m].sum() for m in inside]
    return out


def converged_anneal(grid, config, params):
    """`optimize` whose annealing proposals converge every root before the
    Metropolis test: `move_objective` without the early stop it is handed."""
    score = shape_opt._Evaluator.move_objective
    with mock.patch.object(shape_opt._Evaluator, "move_objective",
                           lambda self, form, cell, settled=None: score(self, form, cell)):
        return shape_opt.optimize(grid, config, params)
