"""Choquet extensions of (non-monotone) submodular setfunctions, executable.

Evaluate the extension, compute bounded-variation decompositions, run
the uncrossing procedure as a certifying algorithm, and verify the
convexity and lopsided-Fubini inequalities numerically at desk scale.
"""

from .choquet import choquet, choquet_batch
from .fubini import (FubiniInstance, LlnTrace, LopsidedResult, lln_run,
                     lopsided_check, marginal_g, uniform_continuity_modulus)
from .intervals import (FlaggedSet, IntervalSet, IntervalSetFunction,
                        StepFunction, ae_gap, choquet_interval, extend_ls,
                        extend_ui)
from .setfunctions import (GroundSet, PreconditionError, SetFunction, Verdict,
                           conjugate, is_increasing, is_modular, is_submodular,
                           setfunction_from_json, setfunction_to_json)
from .uncrossing import (UncrossStep, UncrossTrace, WeightedFamily,
                         certify_chain_equality, family_sum, uncross)
from .variation import (DecompositionResult, canonical_decomposition,
                        ls_decomposition, max_variation_chain,
                        submodular_variation_closed_form, total_variation)

__version__ = "0.1.0"

__all__ = [
    "choquet", "choquet_batch",
    "FubiniInstance", "LlnTrace", "LopsidedResult", "lln_run",
    "lopsided_check", "marginal_g", "uniform_continuity_modulus",
    "FlaggedSet", "IntervalSet", "IntervalSetFunction", "StepFunction",
    "ae_gap", "choquet_interval", "extend_ls", "extend_ui",
    "GroundSet", "PreconditionError", "SetFunction", "Verdict",
    "conjugate", "is_increasing", "is_modular", "is_submodular",
    "setfunction_from_json", "setfunction_to_json",
    "UncrossStep", "UncrossTrace", "WeightedFamily",
    "certify_chain_equality", "family_sum", "uncross",
    "DecompositionResult", "canonical_decomposition", "ls_decomposition",
    "max_variation_chain", "submodular_variation_closed_form",
    "total_variation",
]
