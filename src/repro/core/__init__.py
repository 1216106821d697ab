"""The paper's results as code: Theorem 13, Theorem 6, executable lemmas.

This subpackage is the primary contribution layer: the Theorem 13 decision
procedure with certificates, the Theorem 6 FD-transfer checker, every lemma
as an executable property check, the proof-gadget counterexample engine,
and the bounded exhaustive search behind experiment E1.
"""

from repro.core.certificates import (
    EquivalenceCertificate,
    EquivalenceDecision,
    FailureStep,
    NonEquivalenceExplanation,
)
from repro.core.equivalence import cq_equivalent, decide_equivalence, locate_failure
from repro.core.theorem6 import (
    TransferredFD,
    fd_holds_in_keyed_schema,
    superkey_images,
    transferred_dependencies,
    verify_theorem6,
)
from repro.core.lemmas import (
    LemmaCheck,
    check_all,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma7,
    check_lemma8,
    check_lemma10,
    check_lemma11,
    check_lemma12,
    check_theorem9,
)
from repro.core.counterexample import (
    GadgetImages,
    find_round_trip_counterexample,
    gadget_instances,
    quick_reject,
)
from repro.core.search import (
    DominanceSearchResult,
    EquivalenceSearchResult,
    ScanRow,
    SearchStats,
    dominance_matrix,
    enumerate_mappings,
    enumerate_view_queries,
    search_dominance,
    search_equivalence,
    theorem13_scan,
)
from repro.core.report import Table, format_checks
from repro.core.proof_trace import ProofStep, ProofTrace, trace_theorem13
from repro.core.hull import (
    hull_dominance_pair,
    hull_equivalent,
    hull_witness,
    search_unkeyed_dominance,
)
from repro.core.obstructions import (
    Obstruction,
    dominance_obstructions,
    dominance_possible,
)
from repro.core.capacity import (
    capacity_equal_on_range,
    capacity_obstruction,
    capacity_profile,
    count_instances,
    count_relation_instances,
    uniform_sizes,
)

__all__ = [
    "DominanceSearchResult",
    "EquivalenceCertificate",
    "EquivalenceDecision",
    "EquivalenceSearchResult",
    "FailureStep",
    "GadgetImages",
    "LemmaCheck",
    "NonEquivalenceExplanation",
    "Obstruction",
    "ProofStep",
    "ProofTrace",
    "ScanRow",
    "SearchStats",
    "Table",
    "TransferredFD",
    "capacity_equal_on_range",
    "capacity_obstruction",
    "capacity_profile",
    "check_all",
    "count_instances",
    "count_relation_instances",
    "uniform_sizes",
    "check_lemma1",
    "check_lemma10",
    "check_lemma11",
    "check_lemma12",
    "check_lemma2",
    "check_lemma3",
    "check_lemma4",
    "check_lemma5",
    "check_lemma7",
    "check_lemma8",
    "check_theorem9",
    "cq_equivalent",
    "decide_equivalence",
    "dominance_matrix",
    "dominance_obstructions",
    "dominance_possible",
    "enumerate_mappings",
    "enumerate_view_queries",
    "fd_holds_in_keyed_schema",
    "find_round_trip_counterexample",
    "format_checks",
    "gadget_instances",
    "hull_dominance_pair",
    "hull_equivalent",
    "hull_witness",
    "locate_failure",
    "quick_reject",
    "search_dominance",
    "search_equivalence",
    "search_unkeyed_dominance",
    "superkey_images",
    "theorem13_scan",
    "trace_theorem13",
    "transferred_dependencies",
    "verify_theorem6",
]
