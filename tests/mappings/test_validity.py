"""Unit tests for exact mapping validity (key preservation)."""

import pytest

from repro.cq.parser import parse_query
from repro.mappings import (
    QueryMapping,
    find_validity_counterexample,
    is_valid,
    validity_report,
)
from repro.relational import relation, schema


@pytest.fixture
def s1():
    return schema(relation("A", [("a1", "T"), ("a2", "U")], key=["a1"]))


def single_view_mapping(s1, target_rel, text):
    target = schema(target_rel)
    return QueryMapping(s1, target, {target_rel.name: parse_query(text)})


def test_key_preserving_projection_is_valid(s1):
    target = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    mapping = single_view_mapping(s1, target, "V(X, Y) :- A(X, Y).")
    report = validity_report(mapping)
    assert report.valid
    assert report.counterexample() is None


def test_key_dropping_projection_is_invalid(s1):
    """Keying the view on the non-key source column breaks."""
    target = relation("V", [("v1", "T"), ("v2", "U")], key=["v2"])
    mapping = single_view_mapping(s1, target, "V(X, Y) :- A(X, Y).")
    report = validity_report(mapping)
    assert not report.valid
    counterexample = report.counterexample()
    assert counterexample is not None
    # The returned instance genuinely violates: it satisfies the source key
    # but its image does not satisfy the target key.
    assert counterexample.satisfies_keys()
    assert not mapping.apply(counterexample).satisfies_keys()


def test_swapped_key_still_valid_when_whole_key_kept(s1):
    """Key column exported twice: key on either copy is preserved."""
    target = relation("V", [("v1", "T"), ("v2", "T")], key=["v2"])
    mapping = single_view_mapping(s1, target, "V(X, X) :- A(X, Y).")
    assert is_valid(mapping)


def test_unkeyed_target_always_valid(s1):
    target = relation("V", [("v1", "U")])
    mapping = single_view_mapping(s1, target, "V(Y) :- A(X, Y).")
    assert is_valid(mapping)


def test_unary_view_keyed_on_itself_is_trivially_valid(s1):
    """A set of unary tuples always satisfies a key on its only column."""
    target = relation("V", [("v1", "U")], key=["v1"])
    mapping = single_view_mapping(s1, target, "V(Y) :- A(X, Y).")
    assert is_valid(mapping)


def test_nonkey_projection_keyed_on_nonkey_is_invalid(s1):
    """Keying the view on the source's non-key column: duplicates collide."""
    target = relation("V", [("v1", "U"), ("v2", "T")], key=["v1"])
    mapping = single_view_mapping(s1, target, "V(Y, X) :- A(X, Y).")
    assert not is_valid(mapping)


def test_join_view_key_through_source_key(s1):
    """Self-join on the key: key of the view follows from the source key."""
    target = relation("V", [("v1", "T"), ("v2", "U"), ("v3", "U")], key=["v1"])
    mapping = single_view_mapping(
        s1, target, "V(X, Y, Y2) :- A(X, Y), A(X2, Y2), X = X2."
    )
    assert is_valid(mapping)


def test_cross_product_view_is_invalid(s1):
    """A cross product keyed on one side's key duplicates key values."""
    target = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    mapping = single_view_mapping(
        s1, target, "V(X, Y2) :- A(X, Y), A(X2, Y2)."
    )
    assert not is_valid(mapping)


def test_constant_column_is_functionally_determined(s1):
    target = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    mapping = single_view_mapping(s1, target, "V(X, U:5) :- A(X, Y).")
    assert is_valid(mapping)


def test_randomized_falsifier_agrees_with_exact(s1):
    valid_target = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    valid = single_view_mapping(s1, valid_target, "V(X, Y) :- A(X, Y).")
    assert find_validity_counterexample(valid, trials=16) is None

    invalid_target = relation("V", [("v1", "U"), ("v2", "T")], key=["v1"])
    invalid = single_view_mapping(s1, invalid_target, "V(Y, X) :- A(X, Y).")
    found = find_validity_counterexample(invalid, trials=64)
    assert found is not None
    assert found.satisfies_keys()
    assert not invalid.apply(found).satisfies_keys()


def test_per_relation_report(s1):
    target = schema(
        relation("Good", [("g1", "T"), ("g2", "U")], key=["g1"]),
        relation("Bad", [("b1", "U"), ("b2", "T")], key=["b1"]),
    )
    mapping = QueryMapping(
        s1,
        target,
        {
            "Good": parse_query("Good(X, Y) :- A(X, Y)."),
            "Bad": parse_query("Bad(Y, X) :- A(X, Y)."),
        },
    )
    report = validity_report(mapping)
    assert not report.valid
    assert report.per_relation["Good"].holds
    assert not report.per_relation["Bad"].holds


@pytest.mark.parametrize("max_arity", [2, 3])
def test_all_key_view_holds_without_a_chase(max_arity):
    """A relation whose attributes are all key has a trivial dependency:
    every view into it is valid, and deciding that runs no chase."""
    from repro.core.search import enumerate_view_queries
    from repro.cq.chase import egds_of_schema
    from repro.mappings.validity import check_view_key
    from repro.utils import memo
    from repro.workloads import enumerate_keyed_schemas

    schemas = list(
        enumerate_keyed_schemas(["T"], max_relations=1, max_arity=max_arity)
    )
    all_key = [r for s in schemas for r in s if not r.nonkey_positions()]
    assert len(all_key) == max_arity
    memo.clear_all()  # a cached chase would hide one that still ran
    misses_before = memo.all_stats()["chased-canonical"]["misses"]
    checked = 0
    for source in schemas:
        egds = egds_of_schema(source)
        for relation in all_key:
            for query in enumerate_view_queries(source, relation, max_atoms=2):
                verdict = check_view_key(query, source, relation, egds)
                assert verdict == (relation.name, True, None)
                checked += 1
    assert checked
    assert memo.all_stats()["chased-canonical"]["misses"] == misses_before
