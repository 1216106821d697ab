"""Correctness gate: a wrong answer fails the run instead of becoming a number.

Every check returns a list of error strings; an empty list passes.  The
isomorphism oracle is the benchmark's own: two keyed schemas are
isomorphic exactly when their multisets of relation shapes (sorted key
types, sorted non-key types) agree, so the gate does not trust the
program's isomorphism test to judge the program.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

Row = Tuple[int, int, bool, bool, str]  # (i, j, isomorphic, found, verdict)


def shape_multiset(schema) -> Tuple:
    """The isomorphism invariant of a keyed schema."""
    shapes = []
    for relation in schema.relations:
        key = relation.key or frozenset()
        key_types = sorted(a.type_name for a in relation.attributes if a.name in key)
        other = sorted(a.type_name for a in relation.attributes if a.name not in key)
        shapes.append((tuple(key_types), tuple(other)))
    return tuple(sorted(shapes))


def isomorphic(s1, s2) -> bool:
    return shape_multiset(s1) == shape_multiset(s2)


def scan_errors(rows: Iterable[Row], schemas: Sequence) -> List[str]:
    """Theorem 13 on every decided cell: witness found ⇔ isomorphic."""
    errors = []
    for i, j, iso, found, verdict in rows:
        if verdict != "ok":
            continue
        expected = isomorphic(schemas[i], schemas[j])
        if iso != expected:
            errors.append(f"cell ({i},{j}): isomorphic={iso}, oracle says {expected}")
        if found != expected:
            errors.append(
                f"cell ({i},{j}): witness found={found} but isomorphic={expected}"
            )
    return errors


def same_rows_errors(first: Sequence[Row], again: Sequence[Row]) -> List[str]:
    """A question decided twice gets the same answer both times."""
    before = {(r[0], r[1]): r for r in first}
    errors = []
    for row in again:
        old = before.get((row[0], row[1]))
        if old is not None and old[4] == row[4] == "ok" and old != row:
            errors.append(f"cell ({row[0]},{row[1]}): repeat gave {row[2:]}, "
                          f"first gave {old[2:]}")
    return errors


def coverage_errors(merged: Iterable[Tuple[int, int]], n_schemas: int) -> List[str]:
    """The merged fabric journal covers every cell of the grid once."""
    cells = list(merged)
    planned = {(i, j) for i in range(n_schemas) for j in range(i, n_schemas)}
    errors = []
    if len(cells) != len(set(cells)):
        errors.append("merged journal repeats a cell")
    missing = planned - set(cells)
    if missing:
        errors.append(f"merged journal misses {len(missing)} planned cell(s)")
    extra = set(cells) - planned
    if extra:
        errors.append(f"merged journal has {len(extra)} unplanned cell(s)")
    return errors


def serve_errors(records: Iterable[dict], questions: Sequence[dict]) -> List[str]:
    """HTTP status, verdicts, equivalence vs isomorphism, byte-identical repeats.

    ``records`` holds one dict per response: ``question`` (index into
    ``questions``), ``status`` and ``body`` (bytes).  A question dict has
    ``kind`` and, for equivalence, ``expected`` (the oracle's answer).
    """
    errors: List[str] = []
    first_body: Dict[int, bytes] = {}
    for rec in records:
        q = rec["question"]
        body = rec["body"]
        if rec["status"] != 200:
            errors.append(f"question {q}: HTTP {rec['status']}")
            continue
        seen = first_body.setdefault(q, body)
        if seen != body:
            errors.append(f"question {q}: repeated answer differs from the first")
            continue
        try:
            payload = json.loads(body)
        except ValueError:
            errors.append(f"question {q}: body is not JSON")
            continue
        if payload.get("verdict") != "ok":
            errors.append(f"question {q}: verdict {payload.get('verdict')!r}")
            continue
        question = questions[q]
        if question["kind"] == "equivalence":
            if payload.get("equivalent") != question["expected"]:
                errors.append(
                    f"question {q}: equivalent={payload.get('equivalent')} "
                    f"but isomorphic={question['expected']}"
                )
    return errors


def oracle_errors(served: Dict[int, bytes], oracle: Dict[int, bytes]) -> List[str]:
    """Sampled answers equal the differential oracle's (naive backend, memo off)."""
    return [
        f"question {q}: served answer differs from the naive memo-off oracle"
        for q, body in oracle.items()
        if served.get(q) != body
    ]
