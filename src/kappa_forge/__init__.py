"""Exact kappa-class localization for circle and SU(2) actions.

Everything computes with arbitrary-precision integers and rationals.  The
flat namespace below re-exports the working API; see the individual
modules for the mathematics.  A name's module is imported on first access
(PEP 562), so ``import kappa_forge`` alone loads none of them.
"""

import importlib

__version__ = "0.1.0"

# the public names each submodule contributes to the flat namespace: the one
# list of them, from which each submodule builds its __all__
_MODULE_EXPORTS = {
    "catalog": (
        "CatalogEntry",
        "RationalOddity",
        "WgHypothesisReport",
        "connected_sum_euler",
        "rationally_odd_check",
        "s2xs2_family",
        "wg_hypothesis_report",
    ),
    "errors": (
        "DomainError",
        "KappaForgeError",
        "ParseError",
    ),
    "localization": (
        "C2",
        "GAMMA",
        "Diagnostic",
        "ExpectedComparison",
        "FixedComponent",
        "FixedPointData",
        "FixedPointFile",
        "KappaValue",
        "compare_expected",
        "fixed_point_payload",
        "gamma_to_c2",
        "localize_circle",
        "parse_fixed_point_payload",
        "pullback_su2",
        "read_fixed_point_file",
        "validate_fixed_data",
        "write_fixed_point_file",
    ),
    "obstruction": (
        "BVector",
        "BettiFeasibility",
        "Certificate",
        "HypothesisFlags",
        "NotApplicable",
        "Reason",
        "Verdict",
        "adams_transform",
        "betti_feasible",
        "nonkinetic_certificate",
        "theorem_a_check",
        "weights_to_b",
    ),
    "su2rep": (
        "RealRep",
        "WeightMultiset",
        "parse_real_rep",
        "parse_weight_multiset",
        "realize_weights",
        "restrict_to_torus",
    ),
    "symalg": (
        "CharClassMonomial",
        "WeightVector",
        "elementary_symmetric",
        "parse_class_monomial",
        "reduce_monomial",
        "sigma_eval",
        "sigma_eval_many",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULE_EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULE_EXPORTS})
