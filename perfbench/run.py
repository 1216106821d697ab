"""The benchmark of the decision pipeline, the scan fabric and the service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: scan_e1, scan_a3, scan_fabric, serve_mixed (see README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half with every layer's public functions wrapped,
and reports the per-layer metrics.  ``--smoke`` runs a tiny size.

Times are reported in ``ref``: multiples of the time a fixed reference
takes just before, in the same run (``reference.py``), so that the
host's drifting speed cancels out.  ``setup_s`` converts refs to
seconds at a fixed rate.  The notes give the unscaled seconds too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every correctness check passed, 1 when one failed and 2 when the
program could not be found or run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Measure  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "ops_per_ref": "1/ref",
    "ok_frac": "share",
    "lat_p50_ref": "ref",
    "lat_tail_ref": "ref",
    "first_p50_ref": "ref",
    "repeat_p50_ref": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.enumerate_frac": "share",
    "search.self_frac": "share",
    "search.candidates": "count",
    "search.pairs": "count",
    "validity.calls": "count",
    "validity.frac": "share",
    "validity.pass_frac": "share",
    "obstruct.calls": "count",
    "obstruct.hit_frac": "share",
    "gadget.calls": "count",
    "gadget.frac": "share",
    "gadget.reject_frac": "share",
    "exact.calls": "count",
    "exact.frac": "share",
    "cq.evaluate.calls": "count",
    "cq.evaluate_frac": "share",
    "cq.chase_frac": "share",
    "cq.canonical_frac": "share",
    "cq.hom_frac": "share",
    "memo.lookups": "count",
    "memo.hit_frac": "share",
    "iso.frac": "share",
    "decide.frac": "share",
    "engine.calls": "count",
    "engine.frac": "share",
    "engine.cache_hit_frac": "share",
    "service.parse_frac": "share",
    "service.serialize_frac": "share",
    "service.http_frac": "share",
    "fabric.plan_frac": "share",
    "fabric.busy_frac": "share",
    "fabric.journal_frac": "share",
    "fabric.lease_frac": "share",
    "fabric.telemetry_frac": "share",
    "fabric.merge_frac": "share",
    "fabric.shards_stolen": "count",
    "trace_overhead_frac": "share",
    "unattributed_frac": "share",
}


def median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values):
    """(percentile, value): the highest of p99, p95, p90, p75 and p50 (by
    nearest rank) with at least 10 samples beyond it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for level in (0.99, 0.95, 0.90, 0.75, 0.50):
        rank = math.ceil(level * n)
        if n - rank >= 10:
            return level, ordered[rank - 1]
    return 1.0, ordered[-1] if ordered else 0.0


def machine_facts(seed):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


# ------------------------------------------------------------------- measuring


def _passes(wl, m, until, traced, durations):
    """Run passes until the next one would end after ``until`` (at least
    one), taking reference times before each."""
    while True:
        m.calibrate()
        start = time.perf_counter()
        wl.run_pass(m, traced)
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + median(durations) > until:
            return


def measure(wl, seconds, trace):
    """Set up, then run passes for ``seconds``; half of them traced if asked."""
    m = Measure(ref_source=wl.make_reference())
    try:
        return _measure(wl, m, seconds, trace)
    finally:
        m.ref_source.close()


def _measure(wl, m, seconds, trace):
    m.calibrate(24)
    wl.setup(m)
    start = time.perf_counter()
    untraced, traced = [], []
    if not trace:
        _passes(wl, m, start + seconds, False, untraced)
    else:
        _passes(wl, m, start + seconds / 2, False, untraced)
        if wl.in_process:
            from repro.obs import metrics
            from repro.utils import memo

            before = metrics.registry().snapshot().get("search.pairs_tried", 0)
            memo_before = memo.all_stats()
            tracer = layers.Tracer().install()
            try:
                _passes(wl, m, start + seconds, True, traced)
            finally:
                tracer.uninstall()
            m.snapshot = tracer.snapshot()
            m.missing = tracer.missing
            after = metrics.registry().snapshot().get("search.pairs_tried", 0)
            m.add_counters({"search.pairs_tried": after - before})
            for name, stats in memo.all_stats().items():
                old = memo_before.get(name, {})
                m.add_memo({name: {k: stats.get(k, 0) - old.get(k, 0)
                                   for k in ("hits", "misses")}})
        else:
            _passes(wl, m, start + seconds, True, traced)
    m.calibrate()
    if wl.in_process:
        import resource

        m.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hasattr(wl, "check_oracle"):
        wl.check_oracle(m)
    return m, untraced, traced


def latencies(ops, ref_at=None, kind=None):
    """One latency per operation, in refs (``ref_at`` gives the ref at a
    position) or else seconds: a keyed operation, which every pass
    repeats, gets its median over the passes; unkeyed samples stay as
    they are."""
    samples, keyed = [], {}
    for op_kind, key, seconds, position in ops:
        if kind not in (None, op_kind):
            continue
        value = seconds / ref_at(position) if ref_at else seconds
        if key is None:
            samples.append(value)
        else:
            keyed.setdefault((op_kind, key), []).append(value)
    return samples + [median(values) for values in keyed.values()]


def end_to_end(m):
    ref_at = functools.lru_cache(maxsize=None)(m.local_ref)
    every, first, repeat = (latencies(m.ops, ref_at, kind)
                            for kind in (None, "first", "repeat"))
    # With 1,000 samples or more (the service), the tail is p99 over every
    # sample: over 2,400 per-request medians it fell among a few scattered
    # values.  With fewer, it is taken over one latency per operation, a
    # median over the passes: the top few raw samples of the fabric's
    # dozen were noisier than the median scan.
    samples = [seconds / ref_at(position) for _, _, seconds, position in m.ops]
    if len(samples) < 1000:
        samples = every
    level, tail_value = tail(samples)
    values = {
        "setup_s": median([s / ref_at(p) for s, p in m.setups]) * m.seconds_per_ref,
        "wall_ref": median([w / ref_at(p) for w, _, p in m.walls]),
        "ops_per_ref": median([d / w * ref_at(p) for w, d, p in m.walls]),
        "ok_frac": m.ok / max(m.attempted, 1),
        "lat_p50_ref": median(every),
        "lat_tail_ref": tail_value,
        "first_p50_ref": median(first),
        "repeat_p50_ref": median(repeat),
        "peak_rss_mb": m.rss_mb,
    }
    seconds = {
        "setup_s": median([s for s, _ in m.setups]),
        "wall_s": median([w for w, _, _ in m.walls]),
        "ops_per_s": median([d / w for w, d, _ in m.walls]),
        "lat_p50_s": median(latencies(m.ops)),
        "first_p50_s": median(latencies(m.ops, kind="first")),
        "repeat_p50_s": median(latencies(m.ops, kind="repeat")),
    }
    notes = [
        f"ref: {m.ref * 1e3:.4f} ms typical over {len(m.refs)} reference times; "
        f"setup_s counts a ref as {m.seconds_per_ref:g} s",
        "unscaled: " + ", ".join(f"{name}={value:.6g}" for name, value in seconds.items()),
        f"lat_tail_ref is p{level * 100:g} of {len(samples)} "
        + ("timed samples" if samples is not every else "timed operations"),
        f"first: {len(first)} timed, repeat: {len(repeat)} timed",
        f"passes: {len(m.walls)}, set-ups: {len(m.setups)}",
    ]
    return values, notes


def per_layer(m, untraced, traced):
    from layers import CALLS, INCL, TRUTHY, YIELDS

    snap, wall = m.snapshot, m.trace_wall
    selfs, calls = layers.layer_self(snap), layers.layer_calls(snap)

    def slot(spec, index):
        return snap.get(spec, [0, 0.0, 0.0, 0, 0])[index]

    def share(seconds, base=wall):
        return seconds / base if base else 0.0

    def ratio(spec, index):
        return share(slot(spec, index), slot(spec, CALLS))

    engine_incl = sum(slot(t, INCL) for t in layers.LAYERS["engine"])
    values = {
        "search.enumerate_frac": share(selfs["search.enumerate"]),
        "search.self_frac": share(selfs["search"]),
        "search.candidates": slot("repro.core.search:enumerate_mappings", YIELDS),
        "search.pairs": m.counters.get("search.pairs_tried", 0),
        "validity.calls": calls["validity"],
        "validity.frac": share(selfs["validity"]),
        "validity.pass_frac": ratio("repro.mappings.validity:is_valid", TRUTHY),
        "obstruct.calls": calls["obstruct"],
        "obstruct.hit_frac": ratio("repro.core.obstructions:dominance_obstructions", TRUTHY),
        "gadget.calls": slot("repro.core.counterexample:quick_reject", CALLS),
        "gadget.frac": share(selfs["gadget"]),
        "gadget.reject_frac": ratio("repro.core.counterexample:quick_reject", TRUTHY),
        "exact.calls": slot("repro.mappings.identity:composes_to_identity", CALLS),
        "exact.frac": share(selfs["exact"]),
        "cq.evaluate.calls": calls["cq.evaluate"],
        "cq.evaluate_frac": share(selfs["cq.evaluate"]),
        "cq.chase_frac": share(selfs["cq.chase"]),
        "cq.canonical_frac": share(selfs["cq.canonical"]),
        "cq.hom_frac": share(selfs["cq.hom"]),
        "memo.lookups": m.memo_lookups,
        "memo.hit_frac": share(m.memo_hits, m.memo_lookups),
        "iso.frac": share(selfs["iso"]),
        "decide.frac": share(selfs["decide"]),
        "engine.calls": calls["engine"],
        "engine.frac": share(selfs["engine"]),
        "engine.cache_hit_frac": share(
            m.counters.get("engine.cache.hits", 0),
            m.counters.get("engine.cache.hits", 0) + m.counters.get("engine.cache.misses", 0),
        ),
        "service.parse_frac": share(selfs["service.parse"]),
        "service.serialize_frac": share(selfs["service.serialize"]),
        "service.http_frac": share(m.client_latency - engine_incl, m.client_latency),
        "fabric.plan_frac": share(selfs["fabric.plan"]),
        "fabric.busy_frac": share(
            slot("repro.core.search:theorem13_scan", INCL), m.worker_wall
        ),
        "fabric.journal_frac": share(selfs["fabric.journal"]),
        "fabric.lease_frac": share(selfs["fabric.lease"]),
        "fabric.telemetry_frac": share(selfs["fabric.telemetry"]),
        "fabric.merge_frac": share(selfs["fabric.merge"]),
        "fabric.shards_stolen": m.counters.get("fabric.shards.stolen", 0),
        "trace_overhead_frac": share(median(traced) - median(untraced), median(untraced)),
        "unattributed_frac": share(wall - sum(selfs.values())),
    }
    lines = [f"per-layer self time over {wall:.3f} s traced wall "
             f"({len(traced)} traced, {len(untraced)} untraced passes)"]
    lines += [f"  {layer:<18} calls={calls[layer]:>9}  self_s={seconds:9.4f}  "
              f"share={share(seconds):.4f}" for layer, seconds in selfs.items()]
    lines.append(f"  {'unattributed':<18} {'':>15}  self_s={wall - sum(selfs.values()):9.4f}  "
                 f"share={values['unattributed_frac']:.4f}")
    lines.append(f"  shares + unattributed = {sum(share(s) for s in selfs.values()) + values['unattributed_frac']:.4f}")
    if m.missing:
        lines.append("  targets not found (skipped): " + ", ".join(m.missing))
    return values, lines


# --------------------------------------------------------------------- output


def emit(values, units, attempted, failed, errors, out=None) -> int:
    """Print the result line; 0 when every correctness check passed, else 1."""
    out = out or sys.stdout
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=out)
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), file=out)
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    facts = machine_facts(args.seed)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.smoke, work)
    try:
        m, untraced, traced = measure(wl, args.seconds, args.trace)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.trace:
        values, lines = per_layer(m, untraced, traced)
        units = PER_LAYER
    else:
        values, lines = end_to_end(m)
        units = END_TO_END
    print(f"workload: {args.workload} seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<24} {values[name]:>14.6g} {unit}")
    for line in lines:
        print(line)
    return emit(values, units, m.attempted, m.failed, m.errors)


if __name__ == "__main__":
    sys.exit(main())
