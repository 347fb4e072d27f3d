"""Spectrum of the interval under the nonlocal quadratic form.

Solves for the lowest eigenvalues of (-1, 1) inside the design box (-2, 2)
on a ladder of grids, Richardson-extrapolates lambda_1, and checks the exact
dilation law lambda_i(t Omega) = t^(-2s) lambda_i(Omega).

Usage: python3 interval_spectrum.py [--s 0.5] [--m 3]
"""

import argparse

import numpy as np

from fraclab.eigen import lowest_eigenpairs
from fraclab.grids import BoxGrid, interval_domain
from fraclab.nonlocal_form import KernelTable

ap = argparse.ArgumentParser()
ap.add_argument("--s", type=float, default=0.5)
ap.add_argument("--m", type=int, default=3)
args = ap.parse_args()

lams = []
ladder = (64, 128, 256, 512)
for cells in ladder:
    g = BoxGrid(1, -2.0, 2.0, cells)
    dom = interval_domain(g, -1.0, 1.0)
    bundle = lowest_eigenpairs(KernelTable(g, args.s), dom, args.m)
    lams.append(bundle.lambdas)
    print(f"cells={cells:4d}  lambda = {np.round(bundle.lambdas, 8)}  "
          f"max residual {max(bundle.residuals):.2e}")

lam1 = np.array([l[0] for l in lams])
rate = (lam1[-2] - lam1[-3]) / (lam1[-1] - lam1[-2])
extrap = lam1[-1] + (lam1[-1] - lam1[-2]) / (rate - 1.0)
print(f"\nlambda_1 Richardson extrapolation: {extrap:.6f} "
      f"(observed rate {np.log2(rate):.2f} in h)")

t = 2.0
g1 = BoxGrid(1, -2.0, 2.0, 256)
g2 = BoxGrid(1, -2.0 * t, 2.0 * t, 256)
l1 = lowest_eigenpairs(KernelTable(g1, args.s), interval_domain(g1, -1, 1), args.m).lambdas
l2 = lowest_eigenpairs(KernelTable(g2, args.s), interval_domain(g2, -t, t), args.m).lambdas
err = np.abs(l2 * t ** (2 * args.s) / l1 - 1.0).max()
print(f"dilation law lambda(t*Omega) * t^(2s) vs lambda(Omega): "
      f"max relative error {err:.2e}")
