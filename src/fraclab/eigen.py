"""Lowest Dirichlet eigenpairs of the discrete fractional form.

Solves K v = lambda M v with M = h^n I for the m smallest eigenvalues and
packages the result with the invariants downstream code relies on: ascending
eigenvalues, L2-orthonormal vectors, per-pair residuals, and a single-signed
ground state.

The solver is the spectral transformation Lanczos method (Ericsson and Ruhe,
Math. Comp. 35, 1980): the m lowest eigenpairs of K are the m highest of
K^-1, so block Lanczos on K^-1 converges at a rate set by the ratios
lambda_m / lambda_(m+1), not by the h^(-2s) conditioning of K.

* The solver gathers its own copy of K's lower triangle in rectangular full
  packed storage (``KernelTable.packed``, d(d+1)/2 entries) and factors it
  in place by Cholesky (LAPACK dpftrf); each step solves for one block of m
  vectors (dpftrs). No d x d array is made, and the table is not touched.
* K^-1 times each block is orthogonalized twice against the whole basis;
  the coefficients of both passes make up the Rayleigh-Ritz matrix
  Q^T K^-1 Q.
* The iteration stops when every true residual ||K x - lambda x|| / ||K x||
  is at most 1e-11, or at the roundoff floor ~eps ||K|| / lambda where that
  is higher. Products with K are FFT convolutions on the kernel table
  (``KernelTable.product``), independent of the factor.
* The basis grows to the dimension at most, where the projection is exact;
  a residual still above the tolerance there, or a K that is not positive
  definite, raises ``np.linalg.LinAlgError``.

The start block is seeded, so a solve repeats byte for byte at equal BLAS
thread count. Results agree with a dense LAPACK solve (``eigh``, driver
``evr``) to about 1e-12 relative in the eigenvalues, not byte for byte.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import lapack

__all__ = ["EigenBundle", "lowest_eigenpairs"]

_CLUSTER_GAP = 1e-10
_TOL = 1e-11  # relative residual at which the Lanczos iteration stops
_ROUNDOFF = 32 * np.finfo(float).eps


@dataclass
class EigenBundle:
    """Result of an m-lowest eigenpair solve on a pixel domain.

    Attributes
    ----------
    lambdas : (m,) ascending eigenvalues.
    vectors : (m, dim) eigenvectors, L2(Omega)-orthonormal: h^n * v_i . v_j = delta_ij.
    gram : (m, m) matrix of discrete L2 inner products (identity to 1e-10).
    residuals : per-pair relative residuals ||K v - lambda M v|| / ||K v||.
    clustered : True when some consecutive gap is below the clustering floor,
        in which case individual eigenvectors are defined only up to rotation.
    lanczos_blocks : number of blocks the Lanczos basis took (solves with
        the Cholesky factor).
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    gram: np.ndarray
    residuals: np.ndarray
    clustered: bool
    domain: object
    h: float
    lanczos_blocks: int

    @property
    def m(self):
        return len(self.lambdas)

    def full_fields(self):
        """Eigenvectors scattered to full-grid node arrays."""
        return [self.domain.full_field(v) for v in self.vectors]

    def magnitude_field(self):
        """|V| = sqrt(sum_i v_i^2) on the full grid (basis-invariant)."""
        stack = np.stack(self.full_fields())
        return np.sqrt((stack**2).sum(axis=0))

    def check(self):
        lam = self.lambdas
        if np.any(np.diff(lam) < -1e-12 * max(abs(lam[-1]), 1.0)):
            raise AssertionError("eigenvalues not ascending")
        if lam[0] <= 0:
            raise AssertionError("lowest eigenvalue not positive")
        defect = np.abs(self.gram - np.eye(self.m)).max()
        if defect > 1e-10:
            raise AssertionError(f"orthonormality defect {defect:.2e} > 1e-10")
        if self.residuals.max() > 1e-8:
            raise AssertionError(f"residual {self.residuals.max():.2e} > 1e-8")
        if self.vectors[0].min() < 0:
            raise AssertionError("ground state changes sign")
        return True


def lowest_eigenpairs(table, domain, m):
    """Solve K v = lambda M v for the m smallest eigenvalues, K the stiffness
    matrix of the kernel table `table` over the nodes of `domain`, a domain
    on the table's grid layout.

    The mass matrix is the constant diagonal h^n, so the generalized problem
    is the ordinary symmetric one for K / h^n, solved by block Lanczos on
    K^-1 (module docstring) on a packed Cholesky factor the solver gathers
    and discards; the table is left as it is.
    """
    m = int(m)
    dim = domain.cell_count
    if not domain.grid.same_layout(table.grid):
        raise ValueError(f"domain grid {domain.grid!r} does not match the kernel table's "
                         f"grid {table.grid!r}")
    if m < 1:
        raise ValueError("need m >= 1")
    if m > dim:
        raise ValueError(f"m={m} exceeds the domain dimension {dim}")
    idx = domain.flat_indices
    L, info = lapack.dpftrf(dim, table.packed(idx), transr="N", uplo="L", overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"stiffness matrix is not positive definite (dpftrf info {info})")
    lam, X, residuals, blocks = _block_lanczos(L, table, idx, m)
    mass = domain.grid.h**domain.grid.n
    lam = lam / mass
    # Euclidean-orthonormal columns, rescaled to unit L2 norm
    vectors = (X / np.sqrt(mass)).T.copy()
    for i in range(m):
        k = np.argmax(np.abs(vectors[i]))
        if vectors[i][k] < 0:
            vectors[i] = -vectors[i]
    gram = mass * vectors @ vectors.T
    gaps = np.diff(lam)
    clustered = bool(m > 1 and np.any(gaps < _CLUSTER_GAP * max(abs(lam[-1]), 1.0)))
    return EigenBundle(
        lambdas=lam,
        vectors=vectors,
        gram=gram,
        residuals=residuals,
        clustered=clustered,
        domain=domain,
        h=domain.grid.h,
        lanczos_blocks=blocks,
    )


def _block_lanczos(L, table, idx, m):
    """The m lowest eigenpairs of the stiffness matrix K of `table` over the
    nodes `idx`, from its Cholesky factor L (RFP, lower): (ascending
    eigenvalues, (dim, m) Euclidean-orthonormal vectors, relative residuals
    ||K x - lambda x|| / ||K x||, number of blocks)."""
    dim = idx.size
    kmax = table.diagonal(idx).max()
    rng = np.random.default_rng(0)
    # the basis Q, stored as the rows of Qt, grows in place (ndarray.resize, a realloc),
    # so no step holds the old and the new basis at once. No view of Qt outlives its
    # statement, and a trace or profile hook holds Qt itself, so refcheck is off
    Qt = np.empty((0, dim))
    W = rng.standard_normal((dim, m))
    T = np.empty((0, 0))
    blocks = 0
    while True:
        k, b = Qt.shape[0], min(m, dim - Qt.shape[0])
        Qt.resize((k + b, dim), refcheck=False)
        Qt[k:] = _next_block(Qt[:k].T, W, b, rng).T
        k += b
        W, _ = lapack.dpftrs(dim, L, Qt[k - b:].T, transr="N", uplo="L")
        blocks += 1
        # projections of K^-1 block on the whole basis, two passes; together
        # they are the block's columns of the Rayleigh-Ritz matrix Q^T K^-1 Q
        H = Qt @ W
        W -= Qt.T @ H
        H2 = Qt @ W
        W -= Qt.T @ H2
        T = np.pad(T, ((0, b), (0, b)))
        T[:, k - b:] = H + H2
        theta, Y = linalg.eigh(T, lower=False, subset_by_index=[k - m, k - 1],
                               check_finite=False)
        lam, Y = 1.0 / theta[::-1], Y[:, ::-1]
        # roundoff bounds a residual below by ~ eps ||K|| / lambda, and
        # max K_ii <= ||K|| <= 2 max K_ii for these diagonally dominant K
        tol = np.maximum(_TOL, _ROUNDOFF * kmax / lam)
        # W y is K^-1 x - theta x, and ||K x - lambda x|| / ||K x|| is about
        # lambda_1 ||W y|| or more: skip the product with K until that can pass
        if k == dim or np.all(lam[0] * np.linalg.norm(W @ Y[k - b:], axis=0) <= 2 * tol):
            # one Ritz vector x at a time, so that the FFT product's
            # temporaries sit beside one vector, not beside all m
            residuals = np.array([_residual(table.product(idx, x), l, x)
                                  for l, x in zip(lam, (Qt.T @ y for y in Y.T))])
            if np.all(residuals <= tol):
                return lam, Qt.T @ Y, residuals, blocks
            if k == dim:
                raise np.linalg.LinAlgError(
                    f"block Lanczos residual {residuals.max():.2e} above its tolerance "
                    f"with the basis spanning all {dim} dimensions")


def _residual(kx, lam, x):
    """||K x - lambda x|| / ||K x||, given K x."""
    return np.linalg.norm(kx - lam * x) / np.linalg.norm(kx)


def _next_block(Q, W, b, rng):
    """b orthonormal columns orthogonal to Q's, from W's columns in turn.
    Each is projected out twice and kept if the second projection leaves at
    least half of it, which makes it orthogonal to working precision ("twice
    is enough"). Random columns stand in for dropped ones, such as zeros."""
    cols = list(W.T)
    new = []
    while len(new) < b:
        w = cols.pop(0) if cols else rng.standard_normal(Q.shape[0])
        norms = []
        for _ in range(2):
            w = w - Q @ (Q.T @ w)
            for u in new:
                w -= (u @ w) * u
            norms.append(np.linalg.norm(w))
        if norms[1] > 0.5 * norms[0]:
            new.append(w / norms[1])
    return np.asfortranarray(np.column_stack(new))
