"""fraclab: spectral shape optimization for the fractional Laplacian on pixel grids.

Submodules
----------
constants      closed-form kernel/extension constants and the one-plane profile
grids          uniform box grids and pixel (node-mask) domains
nonlocal_form  kernel tables: the discrete fractional stiffness of pixel domains
eigen          lowest-m Dirichlet eigenpairs
extension      weighted slab extension, energies, Neumann traces
shape_opt      greedy/annealed mask optimization
diagnostics    free-boundary diagnostics: blow-up rescaling, density, Weiss
               energy, flatness, slopes, point classification
gridio         binary field/mask/slab files, flat configs, run manifests
checks         acceptance checks shared by `fraclab verify` and the tests
"""

__version__ = "0.1.0"

from .constants import (
    FracParams,
    extension_constant,
    normalization_constant,
    one_plane_solution,
    slope_constant,
    unit_ball_volume,
)
from .grids import BoxGrid, ThinDomain, ball_domain, interval_domain, mask_from_indices
from .nonlocal_form import KernelTable
from .eigen import EigenBundle, lowest_eigenpairs
from .extension import (
    ExtensionField,
    SlabGrid,
    extend,
    extension_energy,
    neumann_trace,
)
from .shape_opt import OptimizerConfig, OptimizationTrace, optimize
from .diagnostics import (
    ClassifierConfig,
    boundary_slope,
    classify,
    density_ratio,
    flatness,
    free_boundary_set,
    weiss_curve,
    weiss_monotonicity_audit,
)
from .gridio import RunManifest, read_fields, read_mask, write_fields, write_mask

__all__ = [
    "__version__",
    "FracParams",
    "extension_constant",
    "normalization_constant",
    "one_plane_solution",
    "slope_constant",
    "unit_ball_volume",
    "BoxGrid",
    "ThinDomain",
    "ball_domain",
    "interval_domain",
    "mask_from_indices",
    "KernelTable",
    "EigenBundle",
    "lowest_eigenpairs",
    "ExtensionField",
    "SlabGrid",
    "extend",
    "extension_energy",
    "neumann_trace",
    "OptimizerConfig",
    "OptimizationTrace",
    "optimize",
    "ClassifierConfig",
    "boundary_slope",
    "classify",
    "density_ratio",
    "flatness",
    "free_boundary_set",
    "weiss_curve",
    "weiss_monotonicity_audit",
    "RunManifest",
    "read_fields",
    "read_mask",
    "write_fields",
    "write_mask",
]
