"""Lowest Dirichlet eigenpairs of the discrete fractional form.

Solves K v = lambda M v with M = h^n I by dense symmetric eigensolve and
packages the result with the invariants downstream code relies on: ascending
eigenvalues, L2-orthonormal vectors, per-pair residuals, and a single-signed
ground state.
"""

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .nonlocal_form import assemble_form, domain_measure

__all__ = ["EigenBundle", "lowest_eigenpairs", "gram_schmidt", "sup_bound_check", "objective"]

_CLUSTER_GAP = 1e-10


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
    reduces to the ordinary symmetric one for K / h^n; LAPACK's dense solver
    is deterministic and accurate at the target sizes.
    """
    m = int(m)
    dim = form.dim
    if m < 1:
        raise ValueError("need m >= 1")
    if m > dim:
        raise ValueError(f"m={m} exceeds the domain dimension {dim}")
    mass = form.mass
    vals, vecs = linalg.eigh(
        form.K, subset_by_index=[0, m - 1], driver="evr", check_finite=False
    )
    lam = vals / mass
    # eigh returns Euclidean-orthonormal columns; rescale to unit L2 norm
    vectors = (vecs / np.sqrt(mass)).T.copy()
    for i in range(m):
        k = np.argmax(np.abs(vectors[i]))
        if vectors[i][k] < 0:
            vectors[i] = -vectors[i]
    gram = mass * vectors @ vectors.T
    residuals = np.empty(m)
    for i in range(m):
        r = form.K @ vectors[i] - lam[i] * mass * vectors[i]
        residuals[i] = np.linalg.norm(r) / max(np.linalg.norm(form.K @ vectors[i]), 1e-300)
    gaps = np.diff(lam)
    clustered = bool(m > 1 and np.any(gaps < _CLUSTER_GAP * max(abs(lam[-1]), 1.0)))
    bundle = EigenBundle(
        lambdas=lam,
        vectors=vectors,
        gram=gram,
        residuals=residuals,
        clustered=clustered,
        domain=form.domain,
        h=form.h,
    )
    return bundle


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
    return float(bundle.lambdas.sum() + params.lambda_penalty * domain_measure(domain))
