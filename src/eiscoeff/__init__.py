"""Symbolic and numerical engine for first Fourier coefficients and constant
terms of Langlands Eisenstein series on Chevalley groups.

Each public name is imported from its submodule on first access, so
``import eiscoeff`` loads no layer until one of its names is used.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "errors": ("CapExceeded", "ConvergenceFailure", "DimensionMismatch", "EngineError",
                   "NotMaximal", "PoleAt", "SingularParameter"),
        "glcoords": ("GLParameters", "GLPartition", "alpha_from_s", "eisenstein_parameters",
                     "rho_P"),
        "hecke": ("borel_eigenvalue", "parabolic_eigenvalue"),
        "parabolic": ("ParabolicData", "build_parabolic", "unipotent_grading", "wl_orbits"),
        "roots": ("CartanType", "Root", "RootSystem", "Weight", "WeylElement",
                  "build_root_system", "enumerate_weyl", "pair", "reflect",
                  "weyl_denominator_check"),
        "specfun": ("bessel_k", "c_factor", "gamma", "gamma_r", "local_zeta", "zeta",
                    "zeta_star"),
        "symalg": ("Factor", "FormulaExpression", "LinearForm", "Symbol", "canonicalize",
                   "parse_formula_json", "render"),
        "template": ("SatakeAssignment", "constant_term", "first_coefficient",
                     "minimal_hecke_ratio_check", "standard_assignment",
                     "to_alpha_coordinates", "to_classical"),
        "whittaker": ("TorusPoint", "jacquet_sl2_quadrature", "leading_asymptotics",
                      "normalization_factor", "whittaker_padic", "whittaker_sl2_arch"),
    }.items()
    for name in names
}
__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
