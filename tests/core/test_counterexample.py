"""Unit tests for the gadget-based counterexample engine."""

import pytest

from repro.core.counterexample import (
    GadgetImages,
    VerdictTable,
    find_round_trip_counterexample,
    gadget_instances,
    quick_reject,
)
from repro.cq.parser import parse_query
from repro.mappings import QueryMapping, isomorphism_pair
from repro.relational import find_isomorphism, parse_schema


@pytest.fixture
def genuine_pair(isomorphic_pair):
    s1, s2 = isomorphic_pair
    return isomorphism_pair(find_isomorphism(s1, s2))


def test_gadget_instances_are_valid(two_relation_schema):
    gadgets = list(gadget_instances(two_relation_schema))
    assert len(gadgets) >= 5
    for gadget in gadgets:
        assert gadget.satisfies_keys()
    # First gadget is the empty instance; some are non-empty everywhere.
    assert gadgets[0].is_empty()
    assert any(g.all_nonempty() for g in gadgets)


def test_no_counterexample_for_genuine_pair(genuine_pair):
    alpha, beta = genuine_pair
    assert find_round_trip_counterexample(alpha, beta) is None
    images = GadgetImages(alpha, gadget_instances(alpha.source))
    assert not quick_reject(images, beta)


def test_counterexample_for_constant_padding():
    s1, _ = parse_schema("A(a1*: T, a2: U)")
    s2, _ = parse_schema("M(m1*: T, m2: U)")
    alpha = QueryMapping(s1, s2, {"M": parse_query("M(X, U:0) :- A(X, Y).")})
    beta = QueryMapping(s2, s1, {"A": parse_query("A(X, Y) :- M(X, Y).")})
    found = find_round_trip_counterexample(alpha, beta)
    assert found is not None
    assert beta.apply(alpha.apply(found)) != found
    gadgets = gadget_instances(s1, avoid=alpha.constants())
    assert quick_reject(GadgetImages(alpha, gadgets), beta)


def test_counterexample_for_cross_join_beta():
    s1, _ = parse_schema("A(a1*: T, a2: U)")
    s2, _ = parse_schema("M(m1*: T, m2: U)")
    alpha = QueryMapping(s1, s2, {"M": parse_query("M(X, Y) :- A(X, Y).")})
    beta = QueryMapping(
        s2, s1, {"A": parse_query("A(X, Y2) :- M(X, Y), M(X2, Y2).")}
    )
    # The 2-row attribute-specific gadget distinguishes this pair.
    assert find_round_trip_counterexample(alpha, beta) is not None


def test_gadget_images_are_built_once_and_lazily(genuine_pair):
    """α is applied to a gadget only when a β first reaches it, and once."""
    alpha, beta = genuine_pair
    calls = []

    class CountingAlpha:
        def apply(self, instance):
            calls.append(instance)
            return alpha.apply(instance)

    gadgets = gadget_instances(alpha.source)
    images = GadgetImages(CountingAlpha(), gadgets)
    assert calls == []
    for _ in range(3):
        assert images.round_trip_counterexample(beta) is None
    assert calls == list(gadgets)


def test_verdict_table_tests_beta_once_per_image(genuine_pair):
    """Two α with the same images share β's verdicts: β is applied to
    each image once, and only to images some pair reached."""
    alpha, beta = genuine_pair
    applied = []

    class CountingBeta:
        def apply(self, instance):
            applied.append(instance)
            return beta.apply(instance)

    counting = CountingBeta()
    twin = QueryMapping(alpha.source, alpha.target, alpha.queries())
    gadgets = gadget_instances(alpha.source)
    table = VerdictTable(gadgets, [counting])
    assert applied == []
    for a in (alpha, twin, alpha):
        assert not quick_reject(GadgetImages(a, gadgets, table), counting)
    assert applied == [alpha.apply(g) for g in gadgets]
