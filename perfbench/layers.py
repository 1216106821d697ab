"""Per-layer self time, measured by wrapping the program's public functions.

The program is not changed.  :class:`Tracer` replaces each target function
at every module (or class) binding it is reachable under, times every call,
and charges nested wrapped calls to their own layer, so a layer's *self*
time excludes the layers it calls.  Generators are timed per ``next()``.
Per-thread accumulators are kept in memory and read out when a run ends.

A target that no longer exists is skipped and listed in ``missing``, so a
refactor that renames a function shows up in the report instead of
crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Tuple

# layer -> targets, as "module:function" or "module:Class.method".  Every
# target belongs to exactly one layer, so the layers' self times partition
# the wrapped time.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "search": (
        "repro.core.search:theorem13_scan",
        "repro.core.search:theorem13_cell",
        "repro.core.search:search_equivalence",
        "repro.core.search:search_dominance",
    ),
    "search.enumerate": (
        "repro.core.search:enumerate_mappings",
        "repro.core.search:enumerate_view_queries",
    ),
    "validity": (
        "repro.mappings.validity:is_valid",
        "repro.mappings.validity:validity_report",
    ),
    "obstruct": ("repro.core.obstructions:dominance_obstructions",),
    "gadget": (
        "repro.core.counterexample:quick_reject",
        "repro.core.counterexample:find_key_violation",
        "repro.core.counterexample:find_round_trip_counterexample",
    ),
    "exact": (
        "repro.mappings.identity:composes_to_identity",
        "repro.mappings.identity:identity_report",
    ),
    "cq.evaluate": ("repro.cq.evaluation:evaluate",),
    "cq.chase": ("repro.cq.chase:chase", "repro.cq.chase:chase_egds"),
    "cq.canonical": ("repro.cq.canonical:canonical_database",),
    "cq.hom": (
        "repro.cq.homomorphism:find_homomorphism",
        "repro.cq.homomorphism:is_contained_in",
    ),
    "iso": (
        "repro.relational.isomorphism:is_isomorphic",
        "repro.relational.isomorphism:find_isomorphism",
    ),
    "decide": ("repro.core.equivalence:decide_equivalence",),
    "engine": (
        "repro.engine.core:Engine.equivalence_request",
        "repro.engine.core:Engine.dominance_request",
        "repro.engine.core:Engine.mapping_request",
    ),
    "service.parse": (
        "repro.service.protocol:parse_body",
        "repro.service.protocol:parse_equivalence_request",
        "repro.service.protocol:parse_dominance_request",
        "repro.service.protocol:parse_mapping_request",
    ),
    "service.serialize": ("repro.service.protocol:canonical_bytes",),
    "fabric.plan": (
        "repro.scanfabric.plan:build_plan",
        "repro.scanfabric.plan:ensure_plan",
    ),
    "fabric.worker": ("repro.scanfabric.worker:run_fabric_worker",),
    "fabric.journal": (
        "repro.resilience.checkpoint:ScanCheckpoint.open",
        "repro.resilience.checkpoint:ScanCheckpoint.record",
        "repro.scanfabric.journal:replay_shard",
        "repro.scanfabric.journal:shard_done",
        "repro.scanfabric.journal:mark_shard_done",
    ),
    "fabric.lease": (
        "repro.scanfabric.lease:ShardLease.try_acquire",
        "repro.scanfabric.lease:ShardLease.heartbeat",
        "repro.scanfabric.lease:ShardLease.release",
    ),
    "fabric.telemetry": (
        "repro.obs.telemetry:TelemetryWriter.frame",
        "repro.obs.telemetry:TelemetryWriter.lease",
        "repro.obs.telemetry:TelemetryWriter.close",
    ),
    "fabric.merge": (
        "repro.scanfabric.merge:merge_journals",
        "repro.scanfabric.merge:write_merged",
    ),
}

# Per-target accumulator slots.
CALLS, SELF, INCL, TRUTHY, YIELDS = range(5)


def _resolve(spec: str):
    """(owner, attribute name, raw attribute) for a target spec, or None."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


def rebind(original, replacement) -> List[Tuple[object, str, object]]:
    """Point every ``repro.*`` module binding of ``original`` at
    ``replacement``; return ``(module, name, original)`` for each."""
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


class Tracer:
    """Wrap the :data:`LAYERS` targets; read per-target totals back out."""

    def __init__(self) -> None:
        self.targets: List[str] = [t for ts in LAYERS.values() for t in ts]
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs: List[List[List[float]]] = []

    # ----------------------------------------------------------- accounting

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            n = len(self.targets)
            acc = [[0, 0.0, 0.0, 0, 0] for _ in range(n)]
            state = ([], [0] * n, acc)
            self._local.state = state
            with self._lock:
                self._accs.append(acc)
        return state

    def _timed(self, tid: int, call, count_yield: bool = False):
        stack, depth, acc = self._state()
        frame = [0.0]
        stack.append(frame)
        depth[tid] += 1
        start = perf_counter()
        try:
            result = call()
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            depth[tid] -= 1
            rec = acc[tid]
            rec[CALLS] += 1
            rec[SELF] += elapsed - frame[0]
            if depth[tid] == 0:
                rec[INCL] += elapsed
            if stack:
                stack[-1][0] += elapsed
        if count_yield:
            rec[YIELDS] += 1
        elif result:
            rec[TRUTHY] += 1
        return result

    def _wrap(self, tid: int, fn):
        timed = self._timed
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = timed(tid, inner.__next__, count_yield=True)
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(tid, lambda: fn(*args, **kwargs))

        return wrapper

    # --------------------------------------------------------- installation

    def install(self) -> "Tracer":
        """Patch every target at every binding under ``repro.*``."""
        for tid, spec in enumerate(self.targets):
            resolved = _resolve(spec)
            if resolved is None:
                self.missing.append(spec)
                continue
            owner, name, raw = resolved
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(self._wrap(tid, raw.__func__))
                else:
                    patched = self._wrap(tid, raw)
                self._patches.append((owner, name, raw))
                setattr(owner, name, patched)
                continue
            self._patches += rebind(raw, self._wrap(tid, raw))
        return self

    def uninstall(self) -> None:
        """Restore every patched binding."""
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    # -------------------------------------------------------------- readout

    def snapshot(self) -> Dict[str, List[float]]:
        """Per-target totals summed over threads: ``{spec: [calls, self,
        incl, truthy, yields]}``."""
        totals = {spec: [0, 0.0, 0.0, 0, 0] for spec in self.targets}
        with self._lock:
            for acc in self._accs:
                for spec, rec in zip(self.targets, acc):
                    total = totals[spec]
                    for slot in range(5):
                        total[slot] += rec[slot]
        return totals


def add_snapshots(
    a: Dict[str, List[float]], b: Optional[Dict[str, List[float]]]
) -> Dict[str, List[float]]:
    """Elementwise sum of two snapshots (``b`` may be None)."""
    if not b:
        return a
    out = {spec: list(rec) for spec, rec in a.items()}
    for spec, rec in b.items():
        total = out.setdefault(spec, [0, 0.0, 0.0, 0, 0])
        for slot in range(5):
            total[slot] += rec[slot]
    return out


def layer_self(snap: Dict[str, List[float]]) -> Dict[str, float]:
    """Self seconds per layer."""
    return {
        layer: sum(snap.get(t, [0, 0.0])[SELF] for t in targets)
        for layer, targets in LAYERS.items()
    }


def layer_calls(snap: Dict[str, List[float]]) -> Dict[str, int]:
    """Calls per layer (generators: per ``next()``)."""
    return {
        layer: int(sum(snap.get(t, [0])[CALLS] for t in targets))
        for layer, targets in LAYERS.items()
    }
