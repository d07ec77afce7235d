"""Exact arithmetic for zeta functions of curves over finite fields.

The package computes, with exact rational arithmetic throughout:

* Artin zeta functions in Weil form, from explicit point counts of curve
  models or from given numerator coefficients;
* the automorphism-weighted bundle-counting invariants alpha, beta, gamma
  in rank one and rank two;
* SL_r group zetas assembled from the type A_{r-1} Weyl sum as two chain
  sums over compositions, together with their functional equations and an
  independent period-residue oracle;
* masses of semistable bundles (the inclusion-exclusion telescope in the
  completed zeta values, and the general-degree Harder-Narasimhan mass sum),
  both chain sums over compositions;
* a rank-two zeta family, each member one rational function times a
  half-integral power of q, its functional equation, numerical
  Riemann-Hypothesis checks, and the multiplicity deformation that breaks
  RH for the bare family member.

Floating point appears only in the complex root finder and the RH verdicts;
every identity test is an exact rational-function identity.
"""

from curvezeta.artin import (
    CurveData,
    artin_fe_check,
    artin_fe_ratfun_check,
    counts_from_numerator,
    numerator_from_counts,
    rh_check_artin,
    zeta_hat_special,
    zeta_plain,
)
from curvezeta.exact import (
    ComplexRootSet,
    Poly,
    RationalFunction,
    ZeroReport,
    complex_roots,
)
from curvezeta.fields import CurveModel, census, count_points
from curvezeta.group_zeta import (
    SlrZeta,
    period_residue_oracle,
    slr_alpha_ratios,
    slr_fe_check,
    slr_rh_report,
    slr_zeta,
)
from curvezeta.invariants import (
    BrillNoetherTable,
    InvariantTable,
    A_from_alpha,
    alpha_from_A,
    beta0,
    elliptic_oracle,
    gamma,
    middle_coefficient_identity_check,
)
from curvezeta.mass import beta_composition_formula, beta_crosscheck, beta_hn_mass
from curvezeta.rank2 import (
    pure_fe_check,
    pure_zeta,
    rank2_closed_form,
    rank2_invariants,
    rank2_numerator,
)
from curvezeta.yoshida import (
    counterexample_search,
    rh_check_zeta2,
    zeta2_canonical,
    zeta2_family,
)

__all__ = [
    "A_from_alpha",
    "BrillNoetherTable",
    "ComplexRootSet",
    "CurveData",
    "CurveModel",
    "InvariantTable",
    "Poly",
    "RationalFunction",
    "SlrZeta",
    "ZeroReport",
    "alpha_from_A",
    "artin_fe_check",
    "artin_fe_ratfun_check",
    "beta0",
    "beta_composition_formula",
    "beta_crosscheck",
    "beta_hn_mass",
    "census",
    "complex_roots",
    "count_points",
    "counterexample_search",
    "counts_from_numerator",
    "elliptic_oracle",
    "gamma",
    "middle_coefficient_identity_check",
    "numerator_from_counts",
    "period_residue_oracle",
    "pure_fe_check",
    "pure_zeta",
    "rank2_closed_form",
    "rank2_invariants",
    "rank2_numerator",
    "rh_check_artin",
    "rh_check_zeta2",
    "slr_alpha_ratios",
    "slr_fe_check",
    "slr_rh_report",
    "slr_zeta",
    "zeta2_canonical",
    "zeta2_family",
    "zeta_hat_special",
    "zeta_plain",
]
