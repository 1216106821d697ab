"""Canonical (frozen) databases of conjunctive queries.

The canonical database of a CQ ``q`` freezes each equality class of body
variables into a *labelled null* — a typed value distinct from every
ordinary constant — and turns each body atom into a tuple.  The
Chandra–Merlin theorem then reduces containment to homomorphism into this
instance, and containment *under dependencies* to homomorphism into its
chase (:mod:`repro.cq.chase`).

Labelled nulls are ordinary :class:`Value` objects whose token is the pair
``(NULL_MARKER, name)``; they therefore flow through instances, evaluation
and the chase with no special cases, and :func:`is_null` distinguishes them
where it matters (EGD application, instantiation to fresh constants).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.cq.equality import substitute_representatives
from repro.cq.syntax import Atom, ConjunctiveQuery, Constant, Term, Variable
from repro.cq.typecheck import infer_types
from repro.errors import EvaluationError
from repro.obs.tracing import span as _span
from repro.relational.domain import Value
from repro.relational.instance import DatabaseInstance, RelationInstance, Row
from repro.relational.schema import DatabaseSchema

NULL_MARKER = "¿null"


def null_value(type_name: str, name: str) -> Value:
    """Make a labelled null of the given type."""
    return Value(type_name, (NULL_MARKER, name))


def is_null(value: Value) -> bool:
    """True iff ``value`` is a labelled null."""
    return (
        isinstance(value.token, tuple)
        and len(value.token) == 2
        and value.token[0] == NULL_MARKER
    )


class CanonicalDatabase(NamedTuple):
    """The frozen instance of a query, its head row, and the freeze map.

    ``instance`` contains one row per body atom; ``head_row`` is the head
    under the freeze; ``assignment`` maps each body variable (via its
    equality-class representative) to the value it froze to.  ``None`` is
    returned by :func:`canonical_database` instead when the query's
    equality list is inconsistent (the query is unsatisfiable, i.e. empty
    on every database).
    """

    instance: DatabaseInstance
    head_row: Row
    assignment: Dict[Variable, Value]


def canonical_database(
    query: ConjunctiveQuery, schema: DatabaseSchema
) -> Optional[CanonicalDatabase]:
    """Build the canonical database of ``query`` over ``schema``.

    Returns ``None`` for queries with inconsistent equality lists.  Not
    memoized: in the search it runs behind the chased-canonical memo
    (:mod:`repro.cq.containment_deps`), and a cache of it almost never hit.
    """
    with _span("canonical.build"):
        return _build_canonical_database(query, schema)


def _build_canonical_database(
    query: ConjunctiveQuery, schema: DatabaseSchema
) -> Optional[CanonicalDatabase]:
    # The rewrite comes from the shared equality memo; checking
    # consistency first skips type inference for unsatisfiable queries.
    rewritten, structure = substitute_representatives(query)
    if structure.inconsistent:
        return None
    types = infer_types(query, schema)

    def freeze(term: Term) -> Value:
        if isinstance(term, Constant):
            return term.value
        type_name = types.get(term)
        if type_name is None:
            raise EvaluationError(f"untyped variable {term!r} in query")
        return null_value(type_name, term.name)

    assignment: Dict[Variable, Value] = {}
    rows: Dict[str, list] = {}
    for body_atom in rewritten.body:
        row = []
        for term in body_atom.terms:
            value = freeze(term)
            if isinstance(term, Variable):
                assignment[term] = value
            row.append(value)
        rows.setdefault(body_atom.relation, []).append(tuple(row))
    instance = DatabaseInstance.from_rows(schema, rows)
    head_row = tuple(freeze(t) for t in rewritten.head.terms)
    return CanonicalDatabase(instance, head_row, assignment)


def instantiate_nulls(
    instance: DatabaseInstance, start_token: int = 0
) -> DatabaseInstance:
    """Replace every labelled null by a distinct fresh integer-token value.

    Turns a canonical database into an ordinary instance — the step the
    completeness arguments use ("labelled nulls can be instantiated to
    distinct fresh values because domains are infinite").  Distinct nulls
    receive distinct values; ordinary values are untouched.
    """
    mapping: Dict[Value, Value] = {}
    counter = start_token
    used = {
        v.token
        for v in instance.values()
        if isinstance(v.token, int)
    }
    for value in sorted(instance.values(), key=repr):
        if is_null(value):
            while counter in used:
                counter += 1
            mapping[value] = Value(value.type_name, counter)
            used.add(counter)
            counter += 1

    def sub(row: Row) -> Row:
        return tuple(mapping.get(v, v) for v in row)

    relations = {
        rel.schema.name: rel.map_rows(sub) for rel in instance
    }
    return DatabaseInstance(instance.schema, relations)
