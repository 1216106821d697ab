"""E3 — Lemmas 3–5 and 10–12: the receives analysis on dominance pairs.

Validated claim: every receives-relation lemma holds on genuine dominance
pairs and the gadget refuter catches perturbed (broken) pairs.  The
benchmark measures the full lemma battery and the refutation path.
"""

import pytest

from repro.core.counterexample import (
    GadgetImages,
    find_round_trip_counterexample,
    gadget_instances,
    quick_reject,
)
from repro.core.lemmas import (
    check_lemma3,
    check_lemma4,
    check_lemma5,
    check_lemma10,
    check_lemma11,
    check_lemma12,
)
from repro.cq.parser import parse_query
from repro.mappings import QueryMapping, isomorphism_pair
from repro.relational import find_isomorphism, parse_schema
from repro.workloads import random_keyed_schema, shuffled_copy

PAIRS = []
for seed in range(6):
    _s1 = random_keyed_schema(seed, ["A", "B"], n_relations=2, max_arity=3)
    _s2 = shuffled_copy(_s1, seed=seed + 40)
    PAIRS.append(isomorphism_pair(find_isomorphism(_s1, _s2)))


def broken_pair():
    s1, _ = parse_schema("A(a1*: T, a2: U)")
    s2, _ = parse_schema("M(m1*: T, m2: U)")
    alpha = QueryMapping(s1, s2, {"M": parse_query("M(X, U:0) :- A(X, Y).")})
    beta = QueryMapping(s2, s1, {"A": parse_query("A(X, Y) :- M(X, Y).")})
    return alpha, beta


@pytest.mark.benchmark(group="e3-receives")
def test_e3_lemma_battery_on_genuine_pairs(benchmark):
    def run():
        results = []
        for alpha, beta in PAIRS:
            results.extend(
                [
                    check_lemma3(alpha, beta),
                    check_lemma4(alpha, beta),
                    check_lemma5(alpha, beta),
                    check_lemma10(alpha, beta),
                    check_lemma11(alpha, beta),
                    check_lemma12(alpha, beta),
                ]
            )
        return results

    checks = benchmark(run)
    assert all(c.holds for c in checks)


@pytest.mark.benchmark(group="e3-receives")
def test_e3_gadget_refutation_of_broken_pair(benchmark):
    alpha, beta = broken_pair()

    found = benchmark(lambda: find_round_trip_counterexample(alpha, beta))
    assert found is not None


@pytest.mark.benchmark(group="e3-receives")
def test_e3_quick_reject_survivors(benchmark):
    """Genuine pairs must survive the gadget refuter (no false rejects)."""

    def run():
        return [
            quick_reject(GadgetImages(alpha, gadget_instances(alpha.source)), beta)
            for alpha, beta in PAIRS
        ]

    rejects = benchmark(run)
    assert not any(rejects)
