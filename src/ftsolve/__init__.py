"""Weighted Fermat-Torricelli solvers for regular tetrahedra.

Closed-form axial solutions for two pairs of equal weights, the signed-weight
exterior critical point, vertex-angle formulas, floating/absorbed
classification, the ray-stretch (plasticity) construction, and independent
numerical oracles for cross-validation.

``import ftsolve`` loads no submodule.  The first public name (or
submodule other than cli) looked up on the package imports the submodules
and binds every public name, as an eager import would; a program that needs
only some modules (the CLI, for one) imports them directly.
"""

__version__ = "0.1.0"

_EXPORTS = {  # the one list of public names, each -> its submodule
    name: module
    for module, names in (
        (
            "analytic",
            "QuarticCoefficients complementary_axial ft_axial quartic_coefficients solve_symmetric "
            "stationarity_defect",
        ),
        ("angles", "AngleSet angles_at"),
        ("equilibrium", "CaseLabel classify equilibrium_residual"),
        (
            "errors",
            "CoincidentPoints DegenerateTetrahedron DegenerateTriangle EqualWeights FloatingViolated "
            "FtSolveError NoConvergence NonPositiveEdge OutOfDomain",
        ),
        ("geom_core", "FtSolution SymmetricInstance WeightedTetrahedron axial_distances embed_regular objective"),
        ("numeric", "minimize_reduced reduced_objective weiszfeld"),
        (
            "plasticity",
            "DihedralData PlasticityInstance dihedral_alpha dihedral_angle height_012 "
            "measure_dihedral_data predict_a04p stretch verify_invariance vertex_angle",
        ),
    )
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS and name not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for export, module in _EXPORTS.items():
        globals()[export] = getattr(import_module(f"{__name__}.{module}"), export)
    return globals()[name]
