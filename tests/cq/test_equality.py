"""Unit tests for equality classes (paper §2)."""

from hypothesis import given, settings, strategies as st

from repro.cq.equality import (
    EqualityStructure,
    equality_structure,
    induced_equalities,
    substitute_representatives,
)
from repro.cq.parser import parse_query
from repro.cq.syntax import Constant, Variable
from repro.relational.domain import Value


def test_closure_by_transitivity():
    q = parse_query("Q(X) :- R(X, Y), R(A, B), X = A, A = Y.")
    s = equality_structure(q)
    assert s.equivalent(Variable("X"), Variable("Y"))
    assert not s.equivalent(Variable("X"), Variable("B"))


def test_singletons_present():
    q = parse_query("Q(X) :- R(X, Y).")
    s = equality_structure(q)
    classes = s.variable_classes()
    assert frozenset({Variable("X")}) in classes
    assert frozenset({Variable("Y")}) in classes


def test_constant_pinning():
    q = parse_query("Q(X) :- R(X, Y), X = T:5.")
    s = equality_structure(q)
    assert s.constant_of(Variable("X")) == Value("T", 5)
    assert s.constant_of(Variable("Y")) is None


def test_constant_pinning_propagates_through_class():
    q = parse_query("Q(X) :- R(X, Y), X = Y, Y = T:5.")
    s = equality_structure(q)
    assert s.constant_of(Variable("X")) == Value("T", 5)


def test_inconsistent_two_constants():
    q = parse_query("Q(X) :- R(X, Y), X = T:1, X = T:2.")
    s = equality_structure(q)
    assert s.inconsistent


def test_consistent_same_constant_twice():
    q = parse_query("Q(X) :- R(X, Y), X = T:1, X = T:1.")
    assert not equality_structure(q).inconsistent


def test_substitute_representatives_merges_variables():
    q = parse_query("Q(X, Y) :- R(X, Z), S(Z2, Y), Z = Z2.")
    rewritten, structure = substitute_representatives(q)
    assert not structure.inconsistent
    assert rewritten.equalities == ()
    # The shared variable appears in both atoms now.
    z_terms = {rewritten.body[0].terms[1], rewritten.body[1].terms[0]}
    assert len(z_terms) == 1


def test_substitute_representatives_inlines_constants():
    q = parse_query("Q(X) :- R(X, Y), Y = U:3.")
    rewritten, _ = substitute_representatives(q)
    assert rewritten.body[0].terms[1] == Constant(Value("U", 3))


def test_substitute_representatives_rewrites_head():
    q = parse_query("Q(Y) :- R(X, Y), Y = U:3.")
    rewritten, _ = substitute_representatives(q)
    assert rewritten.head.terms[0] == Constant(Value("U", 3))


def test_resolve_is_deterministic():
    q = parse_query("Q(X) :- R(X, Y), R(A, B), X = A.")
    s = equality_structure(q)
    rep = s.resolve(Variable("X"))
    assert rep == s.resolve(Variable("A"))
    assert rep in (Variable("A"), Variable("X"))


def test_induced_equalities_full_closure():
    q = parse_query("Q(X) :- R(X, Y), R(A, B), X = A, A = Y.")
    induced = induced_equalities(q)
    # {X, A, Y} pairwise: 3 pairs.
    pairs = {frozenset({l.name, r.name}) for l, r in induced}
    assert pairs == {
        frozenset({"X", "A"}),
        frozenset({"X", "Y"}),
        frozenset({"A", "Y"}),
    }


def _least_variable_rule(structure, term):
    """The representative rule ``resolve`` used to apply term by term:
    a pinned constant, else the least-named variable of the full class."""
    pinned = structure.constant_of(term)
    if pinned is not None:
        return Constant(pinned)
    if isinstance(term, Constant):
        return term
    cls_vars = sorted(
        (t for t in structure.uf.class_of(term) if isinstance(t, Variable)),
        key=lambda v: v.name,
    )
    return cls_vars[0] if cls_vars else term


_VARIABLES = [Variable(name) for name in ("X", "X2", "X10", "Y", "_w0", "a")]
_CONSTANTS = [Constant(Value("T", token)) for token in (1, 2)]
_TERMS = st.sampled_from(_VARIABLES + _CONSTANTS)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TERMS, _TERMS), max_size=8))
def test_resolve_matches_the_least_variable_rule(equalities):
    from repro.cq.syntax import Atom, ConjunctiveQuery

    body = [Atom("R", (v, v)) for v in _VARIABLES]
    query = ConjunctiveQuery(Atom("Q", (_VARIABLES[0],)), body, equalities)
    fast, reference = equality_structure(query), equality_structure(query)
    for term in _VARIABLES + _CONSTANTS + [Variable("unseen")]:
        assert fast.resolve(term) == _least_variable_rule(reference, term)
