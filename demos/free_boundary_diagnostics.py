"""Free-boundary diagnostics on optimized domains.

1D: optimize at three penalties, extend the ground state, and tabulate the
localized scaled energy (flat in r at the boundary), the almost-monotonicity
audit, and the endpoint slope against sqrt(Lambda)/Gamma(1+s).

2D: optimize a blob at Lambda=7, list boundary density ratios at radii 5h
and 10h, and classify boundary points of a pixel disk.
"""

import numpy as np

from fraclab.constants import FracParams, slope_constant
from fraclab.diagnostics import (
    ClassifierConfig,
    boundary_slope,
    classify,
    density_ratio,
    free_boundary_set,
    weiss_curve,
    weiss_monotonicity_audit,
)
from fraclab.eigen import lowest_eigenpairs
from fraclab.extension import SlabGrid, extend
from fraclab.grids import BoxGrid, ball_domain
from fraclab.nonlocal_form import KernelTable
from fraclab.shape_opt import OptimizerConfig, optimize


def holder_estimate(grid, values, s):
    x = grid.node_coords()
    v = np.asarray(values, dtype=float).ravel()
    best = 0.0
    for i in range(0, grid.num_nodes, max(1, grid.num_nodes // 400)):
        d = np.linalg.norm(x - x[i], axis=1)
        m = d > 0
        best = max(best, np.max(np.abs(v[m] - v[i]) / d[m] ** s))
    return best


print("== 1D optimized intervals ==")
s = 0.5
for Lam in (1.5, 2.3, 3.5):
    p = FracParams(1, s, Lam)
    g = BoxGrid(1, -1.0, 1.0, 256)
    tr = optimize(g, OptimizerConfig(m=1, Lambda=Lam, schedule="greedy", seed=3), p)
    dom = tr.best_mask
    bundle = lowest_eigenpairs(KernelTable(g, s), dom, 1)
    (f,) = extend(bundle.full_fields()[:1], SlabGrid(g, 96, a=p.a, Y=4.0))
    fb = free_boundary_set(dom)
    H = holder_estimate(g, np.abs(f.trace), s)
    target = slope_constant(Lam, s)
    for k in range(len(fb)):
        x0 = fb.points[k]
        rmax = min(1.0 - abs(x0[0]) - 1e-9, 0.3)
        cur = weiss_curve(f, x0, np.geomspace(5 * g.h, rmax, 6), p)
        audit = weiss_monotonicity_audit(cur, H)
        alpha = boundary_slope(f, x0, -fb.normals[k], p)
        wspan = (cur.values.max() - cur.values.min()) / abs(cur.values.mean())
        print(f"  Lambda={Lam} endpoint {x0[0]:+.4f}: W-span {wspan:6.2%} "
              f"sigma_fit {audit['sigma_fit']:.4f} "
              f"slope {alpha:.4f} (target {target:.4f}, "
              f"off by {abs(alpha / target - 1):.1%})")

print()
print("== 2D optimized blob, boundary densities ==")
p2 = FracParams(2, 0.5, 7.0)
g2 = BoxGrid(2, -1.0, 1.0, 32)
tr2 = optimize(g2, OptimizerConfig(m=1, Lambda=7.0, schedule="greedy", seed=5), p2)
dom2 = tr2.best_mask
fb2 = free_boundary_set(dom2)
h2 = g2.h
lo = density_ratio(dom2, fb2.points, 5 * h2)  # one call for the stack of points
hi = density_ratio(dom2, fb2.points, 10 * h2)
print(f"  measure {dom2.measure:.4f}, {len(fb2)} boundary points")
print(f"  density at 5h : min {lo.min():.3f} max {lo.max():.3f}")
print(f"  density at 10h: min {hi.min():.3f} max {hi.max():.3f}")
toward = np.sum(np.abs(lo - 0.5) <= np.maximum(np.abs(hi - 0.5), 0.1))
print(f"  small-r trend toward 1/2: {toward}/{len(fb2)} points")

print()
print("== pixel-disk classification ==")
dom3 = ball_domain(BoxGrid(2, -1.0, 1.0, 64), [0.0, 0.0], 0.6)
bundle3 = lowest_eigenpairs(KernelTable(dom3.grid, p2.s), dom3, 1)
fields3 = extend(bundle3.full_fields(), SlabGrid(dom3.grid, 24, a=0.0, Y=4.0))
fb3 = free_boundary_set(dom3)
cfg = ClassifierConfig(flat_threshold=1.0)  # flatness floor ~sqrt(h/r) here
counts = {}
for pc in classify(dom3, fields3, fb3.points, cfg, p2, fb3.normals):  # all points at once
    counts[pc.label] = counts.get(pc.label, 0) + 1
print(f"  labels over {len(fb3)} boundary points: {counts}")
