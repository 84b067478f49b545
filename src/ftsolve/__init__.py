"""Weighted Fermat-Torricelli solvers for regular tetrahedra.

Closed-form axial solutions for two pairs of equal weights, the signed-weight
exterior critical point, vertex-angle formulas, floating/absorbed
classification, the ray-stretch (plasticity) construction, and independent
numerical oracles for cross-validation.
"""

__version__ = "0.1.0"

from .analytic import (
    QuarticCoefficients,
    complementary_axial,
    ft_axial,
    quartic_coefficients,
    solve_symmetric,
)
from .angles import AngleSet, angles_at
from .equilibrium import CaseLabel, classify, equilibrium_residual
from .errors import (
    CoincidentPoints,
    DegenerateTetrahedron,
    DegenerateTriangle,
    EqualWeights,
    FloatingViolated,
    FtSolveError,
    NoConvergence,
    NonPositiveEdge,
    OutOfDomain,
)
from .geom_core import (
    FtSolution,
    SymmetricInstance,
    WeightedTetrahedron,
    axial_distances,
    embed_regular,
    objective,
)
from .numeric import (
    minimize_reduced,
    reduced_objective,
    stationarity_defect,
    weiszfeld,
)
from .plasticity import (
    DihedralData,
    PlasticityInstance,
    dihedral_alpha,
    dihedral_angle,
    height_012,
    measure_dihedral_data,
    predict_a04p,
    stretch,
    verify_invariance,
    vertex_angle,
)
