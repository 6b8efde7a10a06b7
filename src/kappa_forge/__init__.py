"""Exact kappa-class localization for circle and SU(2) actions.

Everything computes with arbitrary-precision integers and rationals.  The
flat namespace below re-exports the working API; see the individual
modules for the mathematics.
"""

from .catalog import (
    CatalogEntry,
    RationalOddity,
    WgHypothesisReport,
    connected_sum_euler,
    rationally_odd_check,
    s2xs2_family,
    wg_hypothesis_report,
)
from .errors import DomainError, KappaForgeError, ParseError
from .localization import (
    C2,
    GAMMA,
    Diagnostic,
    ExpectedComparison,
    FixedComponent,
    FixedPointData,
    FixedPointFile,
    KappaValue,
    compare_expected,
    fixed_point_payload,
    gamma_to_c2,
    localize_circle,
    parse_fixed_point_payload,
    pullback_su2,
    read_fixed_point_file,
    validate_fixed_data,
    write_fixed_point_file,
)
from .obstruction import (
    BVector,
    BettiFeasibility,
    Certificate,
    HypothesisFlags,
    NotApplicable,
    Reason,
    Verdict,
    adams_transform,
    betti_feasible,
    nonkinetic_certificate,
    theorem_a_check,
    weights_to_b,
)
from .su2rep import (
    RealIrrep,
    RealRep,
    WeightMultiset,
    parse_real_rep,
    parse_weight_multiset,
    realize_weights,
    restrict_to_torus,
)
from .symalg import (
    CharClassMonomial,
    WeightVector,
    degree,
    elementary_symmetric,
    parse_class_monomial,
    reduce_monomial,
    sigma_eval,
    sigma_eval_many,
)

__version__ = "0.1.0"
