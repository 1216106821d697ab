"""Evaluation of conjunctive queries: the backend dispatcher.

The actual evaluators live in :mod:`repro.cq.backends` — ``naive``
(reference enumerator), ``indexed`` (pipelined hash joins), ``bitset``
(semijoin reduction over integer bitmasks) and ``auto`` (the router:
α-acyclic queries take the Yannakakis-over-bitsets path, everything else
the hash joins).  This module is the single entry point that:

* resolves the view scheme and the backend (explicit argument, else the
  process default — CLI ``--backend`` / ``REPRO_BACKEND`` / ``auto``);
* memoizes answers per ``(query, instance, view schema, backend)`` —
  the same views meet the same tiny gadget instances again in later
  scans, cells and service requests of one process, and the backend
  name in the key keeps differential runs honest;
* attributes the real work to per-backend ``evaluate.<name>`` spans and
  counts dispatches (``backend.dispatch.<name>``), so profiles and the
  dashboard show where each backend's time goes.

:func:`evaluate_naive` remains exported as the reference oracle for
differential tests.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cq import backends as _backends
from repro.cq.backends.base import synthesize_view_schema
from repro.cq.syntax import ConjunctiveQuery
from repro.obs import metrics as _metrics
from repro.obs.tracing import span as _span
from repro.relational.instance import DatabaseInstance, RelationInstance
from repro.relational.schema import RelationSchema
from repro.utils import memo

__all__ = [
    "evaluate",
    "evaluate_naive",
    "synthesize_view_schema",
]

# Answers are memoized on (query, instance, view schema, backend name)
# — all immutable value objects.  Instances above the row ceiling bypass
# the cache (retaining them is too expensive).  The key carries the
# *requested* backend name, not the routed one: routing is deterministic
# per query, so the requested name already determines the answer's
# producer, and a memo hit then skips routing entirely, so the hit path
# stays a single dict probe.  Within one scan the pair loop no longer
# repeats a question (each α image is built once, and each β verdict on
# it is kept for the scan); the repeats this memo answers come across
# scans and requests of one process: the cells of a universe share
# gadgets and views, and a warm repeat of a scan or a service question
# asks them all again.
_EVAL_MEMO = memo.memo("evaluate", maxsize=16384)
_EVAL_CACHE_MAX_ROWS = 2048

_DISPATCH_COUNTERS: Dict[str, _metrics.Counter] = {}


def _dispatch_counter(name: str) -> _metrics.Counter:
    counter = _DISPATCH_COUNTERS.get(name)
    if counter is None:
        counter = _metrics.registry().counter(f"backend.dispatch.{name}")
        _DISPATCH_COUNTERS[name] = counter
    return counter


def evaluate(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    view_schema: Optional[RelationSchema] = None,
    backend: Optional[str] = None,
) -> RelationInstance:
    """Evaluate ``query`` over ``instance`` via the selected backend.

    ``backend`` names a registered backend (``auto``, ``naive``,
    ``indexed``, ``bitset``); ``None`` uses the process default.
    Routing, the dispatch counter and the per-backend span all live on
    the memo-miss path: a cache hit is answered before any backend
    machinery runs, and the trace shows real join work only.
    """
    if view_schema is None:
        view_schema = synthesize_view_schema(query, instance)
    name = backend if backend is not None else _backends.default_backend_name()
    if instance.total_rows() <= _EVAL_CACHE_MAX_ROWS:
        return _EVAL_MEMO.get_or_compute(
            (query, instance, view_schema, name),
            lambda: _evaluate(name, query, instance, view_schema),
        )
    return _evaluate(name, query, instance, view_schema)


def _evaluate(
    name: str,
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    view_schema: RelationSchema,
) -> RelationInstance:
    chosen = _backends.get_backend(name).select(query, instance)
    _dispatch_counter(chosen.name).inc()
    with _span("evaluate." + chosen.name):
        return chosen.evaluate(query, instance, view_schema)


def evaluate_naive(
    query: ConjunctiveQuery,
    instance: DatabaseInstance,
    view_schema: Optional[RelationSchema] = None,
) -> RelationInstance:
    """Reference evaluator: enumerate all body-tuple combinations.

    Exponential in the body size; used for differential testing only.
    Deliberately un-memoized and un-spanned so the oracle stays
    independent of the machinery under test.
    """
    if view_schema is None:
        view_schema = synthesize_view_schema(query, instance)
    return _backends.get_backend("naive").evaluate(query, instance, view_schema)
