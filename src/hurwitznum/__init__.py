"""Weak Hurwitz numbers for three-branch-point covers of the sphere.

Counts branched covers by three independent routes: closed-form counting
formulas for six parametrized families, enumeration of dessin witnesses,
and a brute-force monodromy oracle; the command line cross-validates them.
"""

from .branchdata import (
    BranchDatum,
    Coincidence,
    FamilyParams,
    MalformedDatumError,
    coincident_partitions,
    format_partition,
    make_family_datum,
    parse_partition,
    rh_compatible,
)
from .oracle import (
    ALL_CONVENTIONS,
    CONJUGATION_ONLY,
    FULL_MOVES,
    WITH_REFLECTION,
    WITH_SLOT_SWAPS,
    IncompatibleDatumError,
    InfeasibleDegreeError,
    MonodromyTriple,
    WeakConvention,
    enumerate_triples,
    strong_hurwitz,
    weak_hurwitz,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CONVENTIONS",
    "BranchDatum",
    "CONJUGATION_ONLY",
    "Coincidence",
    "FULL_MOVES",
    "FamilyParams",
    "IncompatibleDatumError",
    "InfeasibleDegreeError",
    "MalformedDatumError",
    "MonodromyTriple",
    "WITH_REFLECTION",
    "WITH_SLOT_SWAPS",
    "WeakConvention",
    "__version__",
    "coincident_partitions",
    "enumerate_triples",
    "format_partition",
    "make_family_datum",
    "parse_partition",
    "rh_compatible",
    "strong_hurwitz",
    "weak_hurwitz",
]
