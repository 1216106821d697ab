"""Run one ``repro`` CLI command in this process and report what it cost.

    python3 perfbench/launch.py --report OUT.json [--trace] -- <repro args>

The fabric workers, the journal merge and the server of the benchmark are
started through this launcher.  It notes when the last
``theorem13_scan`` call ended, which in a fabric worker is its last
shard, and, with ``--trace``, installs the per-layer
:class:`layers.Tracer`.  Then it calls ``repro.cli.main``; when that
returns, it writes OUT.json with the wall time of ``main``, when it
ended and when its last scan ended (``time.monotonic()``), the process's
peak RSS, the tracer totals and the counters the per-layer table needs.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

COUNTERS = (
    "search.pairs_tried",
    "engine.cache.hits",
    "engine.cache.misses",
    "fabric.shards.stolen",
)


def time_scans(record: dict) -> None:
    """Keep in ``record["last_scan_end"]`` the ``time.monotonic()`` at
    which the latest ``theorem13_scan`` call ended; a fabric worker makes
    one call per shard.  The clock is the system's, shared by processes."""
    import repro.core.search as search

    original = search.theorem13_scan

    @functools.wraps(original)
    def timed_scan(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            record["last_scan_end"] = time.monotonic()

    layers.rebind(original, timed_scan)


def main(argv) -> int:
    if "--" not in argv:
        print("usage: launch.py --report OUT.json [--trace] -- ARGS", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = Path(own[own.index("--report") + 1])
    trace = "--trace" in own

    import repro.cli
    from repro.obs import metrics
    from repro.utils import memo

    tracer = layers.Tracer().install() if trace else None
    scans: dict = {"last_scan_end": None}
    time_scans(scans)
    start = time.perf_counter()
    try:
        return repro.cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        snapshot = metrics.registry().snapshot()
        report = {
            "wall_s": wall,
            "exit_at": time.monotonic(),
            "last_scan_end": scans["last_scan_end"],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": tracer.snapshot() if tracer is not None else None,
            "missing": tracer.missing if tracer is not None else [],
            "counters": {name: snapshot.get(name, 0) for name in COUNTERS},
            "memo": memo.all_stats(),
        }
        report_path.write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
