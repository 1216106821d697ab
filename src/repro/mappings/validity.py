"""Validity of query mappings: do key dependencies survive the mapping?

A query mapping α from keyed S₁ to keyed S₂ is *valid* (paper §2) when it
maps every key-satisfying instance of S₁ to a key-satisfying instance of
S₂.  Equivalently, for every target relation with key K, the FD
``K → other attributes`` is certain on the defining view over all
key-satisfying source instances.

The exact decision procedure is the classical certain-FD-on-a-view test:
pair the view query with a freshly renamed copy, equate the two copies'
key columns, chase the combined canonical database with the source key
EGDs, and check whether every non-key column pair was forced equal.
Soundness and completeness follow from the universal property of the
(terminating, EGD-only) chase; a surviving disagreement instantiates to a
concrete key-satisfying source instance on which the view violates the
target key, which is returned as the counterexample.  A target relation
whose attributes are all key has a trivial dependency and needs no chase.

The bounded search (:mod:`repro.core.search`) decides validity once per
candidate mapping and cell, before any pair is formed; its gadget
refuter only tests round trips.

A randomized falsifier over random key-satisfying instances is provided as
an independent cross-check (used in tests and experiment E3).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence

from repro.cq.canonical import instantiate_nulls
from repro.cq.chase import FDEgd, egds_of_schema
from repro.cq.containment_deps import chased_canonical
from repro.cq.syntax import Atom, ConjunctiveQuery
from repro.mappings.query_mapping import QueryMapping
from repro.relational.generators import random_instance
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.utils.fresh import FreshNames


class RelationValidity(NamedTuple):
    """Validity verdict for one target relation.

    ``holds`` is the exact verdict; ``counterexample`` (when the key can be
    violated) is a key-satisfying source instance whose image violates the
    target key.
    """

    relation: str
    holds: bool
    counterexample: Optional[DatabaseInstance]


class ValidityReport(NamedTuple):
    """Exact validity report for a whole mapping."""

    valid: bool
    per_relation: Dict[str, RelationValidity]

    def counterexample(self) -> Optional[DatabaseInstance]:
        """Some violating source instance, when the mapping is invalid."""
        for verdict in self.per_relation.values():
            if not verdict.holds:
                return verdict.counterexample
        return None


def _paired_query(
    query: ConjunctiveQuery, view_relation: RelationSchema
) -> ConjunctiveQuery:
    """Two fresh copies of ``query`` with their key columns equated."""
    first = query.paper_form()
    fresh = FreshNames(prefix="_w", avoid=[v.name for v in first.variables()])
    second = first.freshened(fresh)
    equalities = list(first.equalities) + list(second.equalities)
    for position in view_relation.key_positions():
        equalities.append((first.head.terms[position], second.head.terms[position]))
    head = Atom("_pair", first.head.terms + second.head.terms)
    return ConjunctiveQuery(head, first.body + second.body, equalities)


def check_view_key(
    query: ConjunctiveQuery,
    source_schema: DatabaseSchema,
    view_relation: RelationSchema,
    source_egds: Sequence[FDEgd],
) -> RelationValidity:
    """Exact check that the view's answers always satisfy the relation key.

    An unkeyed relation has no dependency to keep, and an all-key
    relation's dependency K → (no attributes) is trivial: both hold
    without a chase.
    """
    if not view_relation.is_keyed or not view_relation.nonkey_positions():
        return RelationValidity(view_relation.name, True, None)
    paired = _paired_query(query, view_relation)
    chased = chased_canonical(paired, source_schema, source_egds)
    if chased is None:
        # No key-satisfying source instance yields two answers agreeing on
        # the key columns at all — the dependency holds vacuously.
        return RelationValidity(view_relation.name, True, None)
    arity = view_relation.arity
    for position in view_relation.nonkey_positions():
        if chased.head_row[position] != chased.head_row[arity + position]:
            counterexample = instantiate_nulls(chased.instance)
            return RelationValidity(view_relation.name, False, counterexample)
    return RelationValidity(view_relation.name, True, None)


def validity_report(mapping: QueryMapping) -> ValidityReport:
    """Exact validity verdict for every target relation of ``mapping``."""
    source_egds = egds_of_schema(mapping.source)
    per_relation: Dict[str, RelationValidity] = {}
    for target_relation in mapping.target:
        per_relation[target_relation.name] = check_view_key(
            mapping.query(target_relation.name),
            mapping.source,
            target_relation,
            source_egds,
        )
    return ValidityReport(
        all(v.holds for v in per_relation.values()), per_relation
    )


def is_valid(mapping: QueryMapping) -> bool:
    """True iff ``mapping`` maps key-satisfying instances to key-satisfying ones."""
    return validity_report(mapping).valid


def find_validity_counterexample(
    mapping: QueryMapping,
    trials: int = 32,
    seed: int = 0,
    rows_per_relation: int = 4,
) -> Optional[DatabaseInstance]:
    """Randomized falsifier: search for a violating source instance.

    Returns a key-satisfying source instance whose image violates some
    target key, or ``None`` if no violation was found within the budget.
    Incomplete by nature — the exact procedure is :func:`validity_report` —
    but independent of the chase machinery, which makes it a useful
    cross-check.
    """
    for trial in range(trials):
        candidate = random_instance(
            mapping.source,
            rows_per_relation=rows_per_relation,
            seed=seed + trial,
        )
        if not candidate.satisfies_keys():
            continue
        if not mapping.apply(candidate).satisfies_keys():
            return candidate
    return None
