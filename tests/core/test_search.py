"""Unit tests for the bounded exhaustive search (experiment E1 machinery)."""

import pytest

from repro.core.search import (
    enumerate_mappings,
    enumerate_view_queries,
    search_dominance,
    search_equivalence,
    theorem13_scan,
)
from repro.cq.typecheck import is_well_typed
from repro.relational import is_isomorphic, parse_schema, relation, schema


@pytest.fixture
def tiny():
    s, _ = parse_schema("R(a*: T, b: U)")
    return s


def test_enumerated_queries_are_well_typed(tiny):
    view = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    queries = list(enumerate_view_queries(tiny, view, max_atoms=2))
    assert queries
    for q in queries:
        assert is_well_typed(q, tiny)
        assert q.view_name == "V"
        assert len(q.body) <= 2


def test_enumeration_includes_the_projection(tiny):
    """The canonical copy view must be among the candidates."""
    view = relation("V", [("v1", "T"), ("v2", "U")], key=["v1"])
    queries = list(enumerate_view_queries(tiny, view, max_atoms=1))
    from repro.cq.parser import parse_query
    from repro.cq.homomorphism import are_equivalent

    target = parse_query("V(X, Y) :- R(X, Y).")
    assert any(are_equivalent(q, target, tiny) for q in queries)


def test_enumeration_cap(tiny):
    view = relation("V", [("v1", "T")], key=["v1"])
    capped = list(enumerate_view_queries(tiny, view, max_atoms=2, max_queries=3))
    assert len(capped) == 3


def test_enumeration_empty_when_untypeable(tiny):
    """A view needing a type the source lacks has no candidates."""
    view = relation("V", [("v1", "Z")], key=["v1"])
    assert list(enumerate_view_queries(tiny, view, max_atoms=2)) == []


def test_enumerate_mappings_cross_product(tiny):
    target, _ = parse_schema("P(p*: T)\nQ0(q*: U)")
    mappings = list(enumerate_mappings(tiny, target, max_atoms=1))
    assert mappings
    for mapping in mappings:
        assert set(mapping.queries()) == {"P", "Q0"}


def test_search_finds_witness_for_isomorphic():
    s1, _ = parse_schema("R(a*: T, b: U)")
    s2, _ = parse_schema("P(x*: T, y: U)")
    result = search_dominance(s1, s2, max_atoms=1)
    assert result.found
    assert result.pair.holds()
    assert result.stats.exact_checks >= 1


def test_search_fails_for_incompatible_types():
    s1, _ = parse_schema("R(a*: T, b: U)")
    s2, _ = parse_schema("P(x*: T, y: T)")
    result = search_equivalence(s1, s2, max_atoms=2)
    assert not result.found


def test_search_fails_for_lossy_target():
    """S₂ has fewer attributes: nothing can encode S₁'s non-key column."""
    s1, _ = parse_schema("R(a*: T, b: U)")
    s2, _ = parse_schema("P(x*: T)")
    result = search_equivalence(s1, s2, max_atoms=2)
    assert not result.found


def test_theorem13_scan_consistency():
    schemas = [
        parse_schema("R(a*: T)")[0],
        parse_schema("P(x*: T)")[0],        # isomorphic to the first
        parse_schema("R(a*: T, b: T)")[0],  # not isomorphic
    ]
    rows = theorem13_scan(schemas, max_atoms=1)
    assert len(rows) == 6  # unordered pairs incl. self-pairs
    assert all(row.consistent_with_theorem13 for row in rows)
    assert any(row.isomorphic and row.index1 != row.index2 for row in rows)


# The E1 universe (type T, one relation, arity ≤ 2) at max_atoms=2: for
# every ordered pair, (witness found, alpha_candidates, beta_candidates,
# pairs_tried, pairs_gadget_rejected, exact_checks).  Any restructuring of
# the pair scan must reproduce these exactly, on every scan path.
E1_GOLDEN = {
    (0, 0): (True, 4, 4, 1, 0, 1),
    (0, 1): (True, 4, 40, 1, 0, 1),
    (0, 2): (True, 6, 40, 1, 0, 1),
    (1, 0): (False, 0, 0, 0, 0, 0),
    (1, 1): (True, 66, 66, 135, 134, 1),
    (1, 2): (False, 104, 40, 4160, 4160, 0),
    (2, 0): (False, 0, 0, 0, 0, 0),
    (2, 1): (False, 0, 0, 0, 0, 0),
    (2, 2): (True, 104, 104, 211, 210, 1),
}


def _e1_schemas():
    from repro.workloads import enumerate_keyed_schemas

    return list(enumerate_keyed_schemas(["T"], max_relations=1, max_arity=2))


def _golden_row(result):
    stats = result.stats
    return (
        result.found,
        stats.alpha_candidates,
        stats.beta_candidates,
        stats.pairs_tried,
        stats.pairs_gadget_rejected,
        stats.exact_checks,
    )


def _e1_grid(**kwargs):
    schemas = _e1_schemas()
    rows = {}
    for i, s1 in enumerate(schemas):
        for j, s2 in enumerate(schemas):
            result = search_dominance(s1, s2, max_atoms=2, **kwargs)
            assert result.complete
            if result.found:
                assert result.pair.holds()
            rows[(i, j)] = _golden_row(result)
    return rows


def test_e1_golden_default():
    assert _e1_grid() == E1_GOLDEN


def test_e1_golden_baseline_oracle():
    """Memo layer off, naive backend: the reference configuration."""
    from repro.cq import backends
    from repro.utils import memo

    previous_memo = memo.set_enabled(False)
    previous_backend = backends.set_default_backend("naive")
    try:
        assert _e1_grid() == E1_GOLDEN
    finally:
        backends.set_default_backend(previous_backend)
        memo.set_enabled(previous_memo)


def test_e1_golden_checkpointed(tmp_path):
    """One checkpointed chunk per direction scans the same pairs."""
    from repro.resilience.checkpoint import ScanCheckpoint

    schemas = _e1_schemas()
    rows = {}
    for i, s1 in enumerate(schemas):
        for j, s2 in enumerate(schemas):
            checkpoint = ScanCheckpoint.open(
                tmp_path / f"{i}-{j}.jsonl", {"cell": [i, j]}
            )
            result = search_dominance(s1, s2, max_atoms=2, checkpoint=checkpoint)
            assert result.complete
            rows[(i, j)] = _golden_row(result)
            if E1_GOLDEN[(i, j)][3]:
                assert len(checkpoint) == 1
    assert rows == E1_GOLDEN


def test_e1_golden_per_pair_progress():
    """Sequential scans report progress once up front, then per pair."""
    schemas = _e1_schemas()
    for (i, j), golden in E1_GOLDEN.items():
        updates = []
        result = search_dominance(
            schemas[i], schemas[j], max_atoms=2,
            on_progress=lambda done, total, proc: updates.append((done, total)),
        )
        assert _golden_row(result) == golden
        pairs_tried = golden[3]
        if pairs_tried == 0:
            assert updates == []
            continue
        total = golden[1] * golden[2]
        assert updates == [(k, total) for k in range(pairs_tried + 1)]


def test_deadline_inside_the_pair_loop_keeps_counts_and_records_timeout():
    """A whole-search deadline that expires mid-scan ends the search
    incomplete: the pairs scanned so far stay counted, and one timeout
    incident names the search scope."""
    from repro.obs import events
    from repro.resilience.deadline import Deadline

    schemas = _e1_schemas()
    scan_deadline = Deadline(600.0, label="search")

    def expire_after_three_pairs(done, total, proc):
        if done == 3:
            scan_deadline._expires_at = 0.0  # expire now, deterministically

    events.drain_incidents()
    result = search_dominance(
        schemas[1], schemas[2], max_atoms=2, deadline=scan_deadline,
        on_progress=expire_after_three_pairs,
    )
    assert not result.complete
    assert not result.found
    assert result.stats.pairs_tried == 3
    assert result.stats.pairs_gadget_rejected == 3
    timeouts = [e for e in events.drain_incidents() if e["type"] == "timeout"]
    assert [e["scope"] for e in timeouts] == ["search"]


def _valid_mappings(source, target, max_atoms):
    from repro.core.search import enumerate_mappings
    from repro.mappings.validity import is_valid

    return [
        m for m in enumerate_mappings(source, target, max_atoms=max_atoms)
        if is_valid(m)
    ]


@pytest.mark.parametrize(
    "types, cell, max_atoms",
    [
        (["T"], (1, 1), 2),
        (["T"], (1, 2), 2),
        (["T"], (2, 2), 2),
        (["T", "U"], (6, 6), 1),
    ],
)
def test_exact_checks_are_the_pairs_the_gadgets_cannot_refute(
    monkeypatch, types, cell, max_atoms
):
    """Per-pair differential: with every exact check answering "not a
    witness", the scan covers its whole grid, and the pairs it sends to
    the exact check are exactly those on which the stand-alone gadget
    refuter finds no counterexample."""
    from repro.core import search as search_module
    from repro.core.counterexample import find_round_trip_counterexample
    from repro.workloads import enumerate_keyed_schemas

    schemas = list(enumerate_keyed_schemas(types, max_relations=1, max_arity=2))
    s1, s2 = schemas[cell[0]], schemas[cell[1]]
    alphas = _valid_mappings(s1, s2, max_atoms)
    betas = _valid_mappings(s2, s1, max_atoms)
    alpha_index = {m: k for k, m in enumerate(alphas)}
    beta_index = {m: k for k, m in enumerate(betas)}
    checked = []

    def record(alpha, beta, pair_budget):
        checked.append((alpha_index[alpha], beta_index[beta]))
        return False, False

    monkeypatch.setattr(search_module, "_checked_pair", record)
    result = search_dominance(s1, s2, max_atoms=max_atoms)
    assert result.complete and not result.found
    assert result.stats.pairs_tried == len(alphas) * len(betas)
    assert len(checked) == len(set(checked)) == result.stats.exact_checks
    survivors = {
        (a, b)
        for a, alpha in enumerate(alphas)
        for b, beta in enumerate(betas)
        if find_round_trip_counterexample(alpha, beta, random_trials=2) is None
    }
    assert set(checked) == survivors


@pytest.mark.parametrize("cell", [(1, 1), (0, 1), "renamed"])
def test_equivalence_cell_validates_each_candidate_once(monkeypatch, cell):
    """An equivalence cell decides validity once per raw candidate of each
    direction: the backward search reuses the forward search's lists, and
    a self cell's one list serves as both α and β."""
    from repro.core import search as search_module

    schemas = _e1_schemas()
    if cell == "renamed":
        s1, s2 = schemas[1], parse_schema("P(x*: T, y: T)")[0]
    else:
        s1, s2 = schemas[cell[0]], schemas[cell[1]]
    raw = len(list(enumerate_mappings(s1, s2, max_atoms=2)))
    if s1 != s2:
        raw += len(list(enumerate_mappings(s2, s1, max_atoms=2)))
    calls = []
    real_is_valid = search_module.is_valid
    monkeypatch.setattr(
        search_module, "is_valid", lambda m: calls.append(m) or real_is_valid(m)
    )
    result = search_equivalence(s1, s2, max_atoms=2)
    assert result.found == (cell != (0, 1))
    assert len(calls) == raw


def test_a_cut_enumeration_keeps_no_partial_list(monkeypatch):
    """A deadline that fires while one direction's candidates are being
    validated leaves no list behind for the other direction to reuse."""
    from repro.core import search as search_module
    from repro.errors import DeadlineExceeded
    from repro.resilience import deadline as deadline_module
    from repro.resilience.deadline import Deadline

    s1 = _e1_schemas()[1]
    scan_deadline = Deadline(600.0, label="search")
    calls = []
    real_is_valid = search_module.is_valid

    def expire_after_three(m):
        calls.append(m)
        if len(calls) == 3:
            scan_deadline._expires_at = 0.0
        return real_is_valid(m)

    monkeypatch.setattr(search_module, "is_valid", expire_after_three)
    valid, found = {}, []
    with pytest.raises(DeadlineExceeded):
        with deadline_module.deadline_scope(scan_deadline):
            search_module._valid_mappings(valid, s1, s1, 2, None, None, found)
    assert valid == {}
    assert len(found) == sum(map(real_is_valid, calls[:3]))
