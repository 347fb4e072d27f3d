"""Slab extension energy against the nonlocal quadratic form.

For a smooth compactly supported trace v, the weighted Dirichlet energy of
its extension into the upper half-slab satisfies d_s * E(ext v) ~= q(v),
where q is the discrete nonlocal form.  The demo tabulates the mismatch on a
refinement ladder and compares the weighted Neumann trace of an
eigenfunction's extension with (lambda_1 / d_s) * v_1.
"""

import numpy as np

from fraclab.constants import FracParams
from fraclab.eigen import lowest_eigenpairs
from fraclab.extension import SlabGrid, extend, extension_energy, neumann_trace
from fraclab.grids import BoxGrid, interval_domain
from fraclab.nonlocal_form import KernelTable


def bump(x, seed=7):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)
    core = np.zeros_like(x)
    m = np.abs(x) < 1.0
    core[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    return core * (c[0] + c[1] * x + 0.5 * c[2] * np.sin(3.0 * x))


for s in (0.3, 0.5, 0.7):
    p = FracParams(1, s, 1.0)
    print(f"s={s}  (d_s = {p.d_s:.6f})")
    for cells, J, Y in ((256, 32, 4.0), (512, 64, 4.0), (1024, 128, 8.0)):
        g = BoxGrid(1, -2.0, 2.0, cells)
        x = g.axis_nodes()
        u = bump(x)
        ii = np.flatnonzero(g.interior().ravel())
        q = float(u[ii] @ KernelTable(g, s).product(ii, u[ii]))
        (f,) = extend([u], SlabGrid(g, J, a=p.a, Y=Y))
        E = extension_energy(f)
        print(f"  cells={cells:5d} J={J:3d} Y={Y}: q={q:.6f} "
              f"d_s E={p.d_s * E:.6f}  mismatch {abs(p.d_s * E - q) / q:7.4%}")

print()
print("Neumann trace of the ground-state extension vs (lambda_1/d_s) v_1:")
p = FracParams(1, 0.5, 1.0)
g = BoxGrid(1, -2.0, 2.0, 256)
dom = interval_domain(g, -1.0, 1.0)
bundle = lowest_eigenpairs(KernelTable(g, p.s), dom, 1)
v1 = bundle.full_fields()[0]
(f,) = extend([v1], SlabGrid(g, 48, a=0.0, Y=4.0))
nt, flags = neumann_trace(f)
target = (bundle.lambdas[0] / p.d_s) * v1
on = dom.mask.ravel()
rel = np.linalg.norm((nt.ravel() - target.ravel())[on]) / np.linalg.norm(target.ravel()[on])
print(f"  lambda_1 = {bundle.lambdas[0]:.6f}, relative L2 deviation on the "
      f"domain: {rel:.4%}, flagged nodes: {int(flags.sum())}")
