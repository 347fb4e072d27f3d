"""Lowest Dirichlet eigenpairs of the discrete fractional form.

Solves K v = lambda M v with M = h^n I for the m smallest eigenvalues and
packages the result with the invariants downstream code relies on: ascending
eigenvalues, L2-orthonormal vectors, per-pair residuals, and a single-signed
ground state.

The solver is the spectral transformation Lanczos method (Ericsson and Ruhe,
Math. Comp. 35, 1980): the m lowest eigenpairs of K are the m highest of
K^-1, so block Lanczos on K^-1 converges at a rate set by the ratios
lambda_m / lambda_(m+1), not by the h^(-2s) conditioning of K.

* K is factored once by Cholesky (LAPACK dpotrf), in place in the lower
  triangle of ``form.K``; each step solves for one block of m vectors
  (dpotrs).
* K^-1 times each block is orthogonalized twice against the whole basis;
  the coefficients of both passes make up the Rayleigh-Ritz matrix
  Q^T K^-1 Q.
* The iteration stops when every true residual ||K x - lambda x|| / ||K x||
  is at most 1e-11, or at the roundoff floor ~eps ||K|| / lambda where that
  is higher. Products with K use its intact strict upper triangle (dsymm)
  and its saved diagonal.
* The basis grows to the dimension at most, where the projection is exact;
  a residual still above the tolerance there, or a K that is not positive
  definite, raises ``np.linalg.LinAlgError``.
* K's lower triangle is copied back from the upper one, a block of rows at
  a time, before the call returns or raises: ``form.K`` leaves bit for bit
  as it came, and no second d x d array is made.

The start block is seeded, so a solve repeats byte for byte at equal BLAS
thread count. Results agree with a dense LAPACK solve (``eigh``, driver
``evr``) to about 1e-12 relative in the eigenvalues, not byte for byte.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack

from .nonlocal_form import assemble_form

__all__ = ["EigenBundle", "lowest_eigenpairs", "gram_schmidt", "sup_bound_check", "objective"]

_CLUSTER_GAP = 1e-10
_TOL = 1e-11  # relative residual at which the Lanczos iteration stops
_ROUNDOFF = 32 * np.finfo(float).eps
_ROWS = 128  # rows per block of the in-place restore of K


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
    """

    lambdas: np.ndarray
    vectors: np.ndarray
    gram: np.ndarray
    residuals: np.ndarray
    clustered: bool
    domain: object
    h: float

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


def lowest_eigenpairs(form, m):
    """Solve K v = lambda M v for the m smallest eigenvalues.

    The mass matrix is the constant diagonal h^n, so the generalized problem
    is the ordinary symmetric one for K / h^n, solved by block Lanczos on
    K^-1 (module docstring). K is factored in place in ``form.K`` and
    restored before the call returns or raises; it must be exactly
    symmetric, as ``assemble_form`` builds it.
    """
    m = int(m)
    dim = form.dim
    if m < 1:
        raise ValueError("need m >= 1")
    if m > dim:
        raise ValueError(f"m={m} exceeds the domain dimension {dim}")
    K = form.K
    diag = K.diagonal().copy()
    try:
        # K.T is K's memory in Fortran order: dpotrf's upper factor lands in
        # K's lower triangle and leaves the strict upper one as it was
        R, info = lapack.dpotrf(K.T, lower=0, clean=0, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"stiffness matrix is not positive definite (dpotrf info {info})")
        lam, X, residuals = _block_lanczos(R, diag, m)
    finally:
        _restore_lower(K, diag)
    mass = form.mass
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
        domain=form.domain,
        h=form.h,
    )


def _block_lanczos(R, diag, m):
    """The m lowest eigenpairs of K from its Cholesky factor R (upper, in R's
    upper triangle), K's strict upper triangle (R's strict lower one, Fortran
    order) and K's diagonal: (ascending eigenvalues, (dim, m) Euclidean-
    orthonormal vectors, relative residuals ||K x - lambda x|| / ||K x||)."""
    dim = R.shape[0]
    fix = diag - R.diagonal()  # dsymm reads R's diagonal where K's belongs
    rng = np.random.default_rng(0)
    Q = _next_block(np.empty((dim, 0)), rng.standard_normal((dim, m)), m, rng)
    block = Q
    T = np.empty((0, 0))
    while True:
        W, _ = lapack.dpotrs(R, block, lower=0)
        # projections of K^-1 block on the whole basis, two passes; together
        # they are the block's columns of the Rayleigh-Ritz matrix Q^T K^-1 Q
        H = Q.T @ W
        W -= Q @ H
        H2 = Q.T @ W
        W -= Q @ H2
        k, b = Q.shape[1], block.shape[1]
        T = np.pad(T, ((0, b), (0, b)))
        T[:, k - b:] = H + H2
        theta, Y = linalg.eigh(T, lower=False, subset_by_index=[k - m, k - 1],
                               check_finite=False)
        lam, Y = 1.0 / theta[::-1], Y[:, ::-1]
        # roundoff bounds a residual below by ~ eps ||K|| / lambda, and
        # max K_ii <= ||K|| <= 2 max K_ii for these diagonally dominant K
        tol = np.maximum(_TOL, _ROUNDOFF * diag.max() / lam)
        # W y is K^-1 x - theta x, and ||K x - lambda x|| / ||K x|| is about
        # lambda_1 ||W y|| or more: skip the product with K until that can pass
        if k == dim or np.all(lam[0] * np.linalg.norm(W @ Y[k - b:], axis=0) <= 2 * tol):
            X = Q @ Y
            KX = blas.dsymm(1.0, R, X, lower=1) + fix[:, None] * X
            residuals = np.linalg.norm(KX - lam * X, axis=0) / np.linalg.norm(KX, axis=0)
            if np.all(residuals <= tol):
                return lam, X, residuals
            if k == dim:
                raise np.linalg.LinAlgError(
                    f"block Lanczos residual {residuals.max():.2e} above its tolerance "
                    f"with the basis spanning all {dim} dimensions")
        block = _next_block(Q, W, min(m, dim - k), rng)
        Q = np.hstack([Q, block])


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


def _restore_lower(K, diag):
    """Copy K's strict upper triangle onto its lower one and put the diagonal
    back, a block of rows at a time so no whole-matrix temporary is made."""
    dim = K.shape[0]
    for r0 in range(0, dim, _ROWS):
        r1 = min(r0 + _ROWS, dim)
        K[r0:r1, :r0] = K[:r0, r0:r1].T
        block = K[r0:r1, r0:r1]
        low = np.tril_indices(r1 - r0, -1)
        block[low] = block.T[low]
    np.fill_diagonal(K, diag)


def gram_schmidt(v_tilde, mass):
    """Orthonormalize vectors in the discrete L2 inner product <u,v> = mass * u.v.

    The first output is the normalized first input; each later vector has the
    projections onto the previous outputs removed before normalization.
    Raises on near-dependence, naming the offending (1-based) index.
    """
    V = np.asarray(v_tilde, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a (m, dim) array of vectors")
    mass = float(mass)
    gram_in = mass * V @ V.T
    svals = np.linalg.svd(gram_in, compute_uv=False)
    if svals[-1] <= 1e-10:
        # locate the first vector that is (numerically) dependent on its precursors
        for i in range(1, len(V) + 1):
            sub = np.linalg.svd(gram_in[:i, :i], compute_uv=False)
            if sub[-1] <= 1e-10:
                raise ValueError(f"input vectors nearly dependent at index {i}")
        raise ValueError("input vectors nearly dependent")
    W = np.empty_like(V)
    for i in range(len(V)):
        w = V[i].copy()
        for j in range(i):
            w -= (mass * V[i] @ W[j]) * W[j]
        norm = np.sqrt(mass * w @ w)
        if norm <= 1e-10 * np.sqrt(mass * V[i] @ V[i]):
            raise ValueError(f"input vectors nearly dependent at index {i + 1}")
        W[i] = w / norm
    return W


def sup_bound_check(bundle, params, prefactor):
    """Report sup-norm ratios against the (prefactor * lambda)^(n/(4s)) bound.

    The sharp prefactor has no closed form here, so it is supplied by
    configuration; the report carries the per-eigenfunction ratio and a pass
    flag, never raising.
    """
    n, s = params.n, params.s
    rows = []
    for i in range(bundle.m):
        sup = float(np.abs(bundle.vectors[i]).max())
        bound = (prefactor * bundle.lambdas[i]) ** (n / (4.0 * s))
        ratio = sup / bound if bound > 0 else np.inf
        rows.append({"index": i + 1, "sup": sup, "bound": bound,
                     "ratio": ratio, "passes": bool(sup <= bound)})
    return rows


def objective(domain, params, m):
    """Shape objective: sum of the m lowest eigenvalues plus Lambda * measure."""
    if domain.cell_count == 0:
        raise ValueError("objective undefined on an empty domain")
    if m > domain.cell_count:
        raise ValueError("m exceeds the number of domain cells")
    form = assemble_form(domain, params)
    bundle = lowest_eigenpairs(form, m)
    return float(bundle.lambdas.sum() + params.lambda_penalty * domain.measure)
