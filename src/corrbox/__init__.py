"""Exact analysis of two-input two-output bipartite correlation boxes.

Everything except the dimension-deficit helper runs on exact rationals
(fractions.Fraction, and boxes as integer numerators over one denominator);
there are no floating-point tolerances in the core.

The six names of the verification layer (FindingsReport, PropertyResult,
analyze, check_box, fuzz, reproduce_paper) are read from corrbox.verify on
each access, which imports that module the first time (PEP 562).  A process
that only reads boxes, costs and decompositions, such as a one-shot
`corrbox analyze` or `decompose`, never loads it.
"""

from .boxes import (
    BadWeights,
    Box,
    DeterministicBox,
    Direction,
    MixingTable,
    NegativeEntry,
    NotNormalized,
    Relabeling,
    box_from_json_obj,
    box_from_table,
    box_to_json_obj,
    classify,
    enumerate_deterministic,
    is_no_signaling,
    mix,
    mix_ints,
    relabel,
    relabeling_group,
)
from .measures import (
    Analysis,
    ChshReport,
    SignalReport,
    UncertaintyReport,
    chsh,
    lhv_admissible,
    signal,
    uncertainty,
    unpredictability,
)
from .lp import DimensionMismatch, LinearProgram, LpSolution, solve
from .cost import (
    BadDimension,
    CostReport,
    Decomposition,
    NotInHull,
    communication_cost,
    eta_star,
    find_distinct_decompositions,
    optimal_cost,
)
from .generators import (
    TSIRELSON_ANGLES,
    BadParameter,
    FamilySpec,
    UnknownName,
    canonical,
    canonical_names,
    isotropic,
    no_signaling_vertices,
    quantum_box,
    sample,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "BadDimension",
    "BadParameter",
    "BadWeights",
    "Box",
    "ChshReport",
    "CostReport",
    "Decomposition",
    "DeterministicBox",
    "DimensionMismatch",
    "Direction",
    "FamilySpec",
    "FindingsReport",
    "LinearProgram",
    "LpSolution",
    "MixingTable",
    "NegativeEntry",
    "NotInHull",
    "NotNormalized",
    "PropertyResult",
    "Relabeling",
    "SignalReport",
    "TSIRELSON_ANGLES",
    "UncertaintyReport",
    "UnknownName",
    "analyze",
    "box_from_json_obj",
    "box_from_table",
    "box_to_json_obj",
    "canonical",
    "canonical_names",
    "check_box",
    "chsh",
    "classify",
    "communication_cost",
    "enumerate_deterministic",
    "eta_star",
    "find_distinct_decompositions",
    "fuzz",
    "is_no_signaling",
    "isotropic",
    "lhv_admissible",
    "mix",
    "mix_ints",
    "no_signaling_vertices",
    "optimal_cost",
    "quantum_box",
    "relabel",
    "relabeling_group",
    "reproduce_paper",
    "sample",
    "signal",
    "solve",
    "uncertainty",
    "unpredictability",
]

_VERIFY_NAMES = frozenset(
    ("FindingsReport", "PropertyResult", "analyze", "check_box", "fuzz", "reproduce_paper")
)


def __getattr__(name: str) -> object:
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _VERIFY_NAMES)
