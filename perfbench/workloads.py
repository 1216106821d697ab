"""The four workloads: how each makes its inputs, sets up and runs one pass.

A pass is a fixed unit of work that asks every question of the workload
once ("first") and then asks some of them again ("repeat"):

* ``scan_e1``     in-process ``theorem13_scan`` over the E1 universe; the
                  repeat is a second scan in the same process, caches warm.
* ``scan_a3``     ``theorem13_cell`` under a fixed per-cell deadline on the
                  21 cells of the arity <= 3 universe; each decided cell
                  is asked three more times at once, caches warm.
* ``scan_fabric`` two concurrent ``repro theorem13 --fabric`` workers, then
                  ``repro merge-journals``, timed as one operation.  The
                  repeat is an ``--incremental`` rerun, which carries
                  every cell.
* ``serve_mixed`` a seeded request schedule sent by two closed-loop
                  clients to a fresh ``repro serve`` process.

Each workload records its operations (first or repeat, which one, the
latency) and its set-up times into a :class:`Measure`, and its
correctness errors into ``Measure.errors``.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import gate
import layers
import reference

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"


@dataclass
class Measure:
    """Everything one run records; ``run.py`` turns it into metrics.

    Every time is stored with its *position*: how many reference times
    had been taken when it was recorded, so that it can be divided by the
    reference's time at that moment (``local_ref``).
    """

    ref_source: Optional[reference.Reference] = None  # None: the loop, here only
    refs: List[float] = field(default_factory=list)  # reference times
    setups: List[tuple] = field(default_factory=list)  # (seconds, position)
    walls: List[tuple] = field(default_factory=list)  # (seconds, decided, position)
    ops: List[tuple] = field(default_factory=list)  # (kind, key, seconds, position)
    attempted: int = 0
    ok: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    # traced passes only
    snapshot: Dict[str, list] = field(default_factory=dict)
    trace_wall: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    memo_lookups: int = 0
    memo_hits: int = 0
    worker_wall: float = 0.0
    client_latency: float = 0.0
    missing: List[str] = field(default_factory=list)

    def op(self, kind: str, key, seconds: float, ok: bool, failed: bool = False) -> None:
        """Record one timed operation; ``key`` names it, so the same
        operation in later passes can be told apart from others."""
        self.ops.append((kind, key, seconds, len(self.refs)))
        self.attempted += 1
        self.ok += int(ok)
        self.failed += int(failed)

    def setup_done(self, seconds: float) -> None:
        self.setups.append((seconds, len(self.refs)))

    def pass_done(self, wall: float, decided: int) -> None:
        """Record a pass's first-time wall time and how many of its
        operations ended decided."""
        self.walls.append((wall, decided, len(self.refs)))

    def calibrate(self, count: int = 8) -> None:
        """Take ``count`` reference times in each of the reference's
        processes (see ``reference.py``)."""
        self.refs += (self.ref_source or reference).sample(count)

    @property
    def seconds_per_ref(self) -> float:
        return (self.ref_source or reference.Reference).seconds_per_ref

    @property
    def ref(self) -> float:
        """The reference's typical time over the whole run."""
        return reference.typical(self.refs)

    def local_ref(self, position: int) -> float:
        """The reference's typical time at ``position``: over the 16 times
        per reference process taken last before it.  The host's speed
        drifts within a run too, so a time is divided by the reference's
        time just before it, the same ref ``scan_a3`` sets its deadline by."""
        span = 16 * (self.ref_source.width if self.ref_source else 1)
        return reference.typical(self.refs[max(0, position - span):position])

    def add_counters(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def add_memo(self, stats: Dict[str, Dict[str, int]]) -> None:
        for entry in stats.values():
            self.memo_hits += entry.get("hits", 0)
            self.memo_lookups += entry.get("hits", 0) + entry.get("misses", 0)


def _rows(scan_rows):
    return [(r.index1, r.index2, r.isomorphic, r.equivalence_found, r.verdict)
            for r in scan_rows]


def _progress_timer(latencies: List[float]):
    """An ``on_progress`` callback of ``theorem13_scan`` that appends the
    time each settled cell took."""
    last = [time.perf_counter()]
    calls = [0]

    def on_progress(done, total, proc):
        now = time.perf_counter()
        calls[0] += 1
        if calls[0] > 1:  # the first report precedes every cell
            latencies.append(now - last[0])
        last[0] = now

    return on_progress


def wait(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` to end and return its exit code; kill it after
    ``timeout`` seconds.  ``Popen.wait`` with a timeout polls, sleeping up
    to 50 ms at a time, which put set-up times on a 50 ms grid."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()


def time_fresh_start(m: Measure, code: str, reps: int) -> None:
    """Time ``reps`` fresh interpreters that import the CLI and run ``code``:
    the set-up every ``repro`` command pays before its first cell."""
    prelude = (f"import sys; sys.path.insert(0, {str(HERE.parent / 'src')!r}); "
               "import repro.cli; ")
    for _ in range(reps):
        start = time.perf_counter()
        exit_code = wait(subprocess.Popen([sys.executable, "-c", prelude + code]), 120)
        m.setup_done(time.perf_counter() - start)
        if exit_code != 0:
            raise RuntimeError(f"set-up interpreter exited with code {exit_code}")


class _Subprocesses:
    """Launcher subprocesses of one workload; all are stopped on close."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.procs: List[subprocess.Popen] = []
        self.count = 0

    def start(self, cli_args: List[str], traced: bool, tag: str):
        self.count += 1
        report = self.work / f"{tag}-{self.count}.report.json"
        out = self.work / f"{tag}-{self.count}.out"
        cmd = [sys.executable, str(LAUNCH), "--report", str(report)]
        cmd += (["--trace"] if traced else []) + ["--"] + cli_args
        with open(out, "wb") as handle:
            proc = subprocess.Popen(
                cmd, cwd=self.work, stdout=handle, stderr=subprocess.STDOUT
            )
        self.procs.append(proc)
        return proc, report, out

    def finish(self, proc, report: Path, timeout: float = 150.0) -> dict:
        code = wait(proc, timeout)
        self.procs.remove(proc)
        data = json.loads(report.read_text()) if report.exists() else {}
        data["exit"] = code
        return data

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
        self.procs.clear()


def _absorb_report(m: Measure, report: dict) -> None:
    """Add a traced launcher's totals to ``m``."""
    m.snapshot = layers.add_snapshots(m.snapshot, report.get("layers"))
    m.add_counters(report.get("counters", {}))
    m.add_memo(report.get("memo", {}))
    m.missing = report.get("missing", m.missing)


# --------------------------------------------------------------------- scans


class ScanE1:
    """E1: type T, one relation, arity <= 2, ``max_atoms=2``: 6 cells."""

    name = "scan_e1"
    in_process = True

    @staticmethod
    def make_reference() -> reference.Reference:
        """The run's reference: the loop, in as many processes as the
        workload keeps busy (here one)."""
        return reference.Reference(1)

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        from repro.workloads import enumerate_keyed_schemas

        self.universe = dict(type_names=["T"], max_relations=1, max_arity=2)
        self.schemas = list(enumerate_keyed_schemas(**self.universe))
        self.max_atoms = 1 if smoke else 2
        self.setup_reps = 1 if smoke else 5

    def setup(self, m: Measure) -> None:
        time_fresh_start(
            m,
            "from repro.workloads import enumerate_keyed_schemas; "
            f"list(enumerate_keyed_schemas(**{self.universe!r}))",
            self.setup_reps,
        )

    def run_pass(self, m: Measure, traced: bool) -> None:
        from repro.core.search import theorem13_scan
        from repro.utils import memo

        memo.clear_all()  # every CLI run starts cold
        results = []
        for kind in ("first", "repeat"):
            latencies: List[float] = []
            start = time.perf_counter()
            rows = _rows(theorem13_scan(
                self.schemas, max_atoms=self.max_atoms,
                on_progress=_progress_timer(latencies),
            ))
            wall = time.perf_counter() - start
            for row, seconds in zip(rows, latencies):
                m.op(kind, row[:2], seconds, row[4] == "ok")
            if traced:
                m.trace_wall += wall
            if kind == "first":
                m.pass_done(wall, sum(r[4] == "ok" for r in rows))
            results.append(rows)
        m.errors += gate.scan_errors(results[0] + results[1], self.schemas)
        m.errors += gate.same_rows_errors(results[0], results[1])

    def close(self) -> None:
        pass


class ScanA3(ScanE1):
    """Type T, one relation, arity <= 3, ``max_atoms=2``: 21 cells, each
    under a fixed deadline; each decided cell is then asked three more
    times at once, caches warm.

    The deadline is set in reference-loop times (``reference.py``), so a
    slow minute of the host does not decide fewer cells.  Cold, decided
    cells took <= 72 refs or >= 354 refs here (2-CPU container; a ref was
    4.8 ms), so 140 refs keeps a margin of about 2x from both groups; the
    slow group and the arity-3 self cells end undecided.  Warm, the slow
    group takes 76-179 refs, so an undecided cell is not asked again: its
    repeat would be decided or not by the host's speed.  Three warm asks
    put the median of all operations inside the warm group (14-18 refs)
    rather than between the cold groups' times.
    """

    name = "scan_a3"
    deadline_refs = 140
    repeats = 3

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        from repro.workloads import enumerate_keyed_schemas

        self.universe = dict(type_names=["T"], max_relations=1, max_arity=3)
        self.schemas = list(enumerate_keyed_schemas(**self.universe))
        n = len(self.schemas)
        self.cells = [(i, j) for i in range(n) for j in range(i, n)]
        self.max_atoms = 2
        self.setup_reps = 5
        if smoke:
            self.cells, self.max_atoms, self.setup_reps = self.cells[:4], 1, 1

    def _ask(self, m: Measure, traced: bool, cell, kind: str, key, deadline: float):
        from repro.core.search import theorem13_cell

        i, j = cell
        start = time.perf_counter()
        iso, found, verdict = theorem13_cell(
            self.schemas[i], self.schemas[j],
            max_atoms=self.max_atoms, deadline=deadline,
        )
        seconds = time.perf_counter() - start
        m.op(kind, key, seconds, verdict == "ok")
        if traced:
            m.trace_wall += seconds
        return (i, j, iso, found, verdict), seconds

    def run_pass(self, m: Measure, traced: bool) -> None:
        from repro.utils import memo

        first_rows, repeat_rows = [], []
        wall = 0.0
        for cell in self.cells:
            m.calibrate(2)  # a pass is long: follow the host's speed through it
            memo.clear_all()  # cold per cell: no cell's outcome depends on another
            deadline = self.deadline_refs * m.local_ref(len(m.refs))
            row, seconds = self._ask(m, traced, cell, "first", cell, deadline)
            wall += seconds
            first_rows.append(row)
            if row[4] == "ok":
                repeat_rows += [self._ask(m, traced, cell, "repeat", (cell, k), deadline)[0]
                                for k in range(self.repeats)]
        m.pass_done(wall, sum(r[4] == "ok" for r in first_rows))
        m.errors += gate.scan_errors(first_rows + repeat_rows, self.schemas)
        m.errors += gate.same_rows_errors(first_rows, repeat_rows)


class ScanFabric:
    """Types T,U, one relation, arity <= 3, ``max_atoms=1``: 25 schemas,
    325 cells in 11 shards, two worker processes.  An operation is a
    whole fabric scan, workers and merge: the first, and the incremental
    rerun.

    Cells cost about 8.7 ms on average, as in the 1,485-cell universe of
    types T,U, <= 2 relations, arity <= 2.  That universe takes 10-16 s
    per pass, so a run held one or two passes, and its latencies spread
    by 0.31-0.50 of their median over ten runs.  This one takes about
    4 s.  Shards and single cells make poor operations: a worker's memo
    caches carry from shard to shard, so a shard's time depends on which
    shards its worker happened to claim before it.
    """

    name = "scan_fabric"
    in_process = False

    @staticmethod
    def make_reference() -> reference.Reference:
        return reference.Reference(2)  # two busy workers
    workers = ("w0", "w1")

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        from repro.workloads import enumerate_keyed_schemas

        types, relations, arity = (["T"], 1, 2) if smoke else (["T", "U"], 1, 3)
        self.universe = (types, relations, arity)
        self.max_atoms = 1
        self.universe_args = [
            "--types", ",".join(types), "--max-relations", str(relations),
            "--max-arity", str(arity), "--max-atoms", str(self.max_atoms),
        ]
        self.schemas = list(enumerate_keyed_schemas(
            types, max_relations=relations, max_arity=arity
        ))
        self.setup_reps = 1 if smoke else 5
        self.work = work
        self.procs = _Subprocesses(work)
        self.passes = 0

    def setup(self, m: Measure) -> None:
        types, relations, arity = self.universe
        time_fresh_start(
            m,
            "from repro.workloads import enumerate_keyed_schemas; "
            "from repro.scanfabric import build_plan; "
            f"build_plan(list(enumerate_keyed_schemas({types!r}, {relations}, "
            f"{arity})), max_atoms={self.max_atoms})",
            self.setup_reps,
        )

    def _fabric(self, m: Measure, fabric: Path, traced: bool, extra: List[str]):
        """Run the workers and the merge; return (wall, merged rows, reports).

        ``wall`` runs from launching the workers until the last shard is
        scanned, plus the merge from launch to exit.  A worker left without
        a shard to claim polls every 0.5 s until its peer finishes; that
        wait, a fixed sleep, is left out.
        """
        start = time.monotonic()
        started = [
            self.procs.start(
                ["theorem13", *self.universe_args, "--fabric", str(fabric),
                 "--fabric-owner", owner, *extra],
                traced, owner,
            )
            for owner in self.workers
        ]
        reports = [self.procs.finish(proc, report) for proc, report, _ in started]
        drained = max(rep.get("last_scan_end") or rep.get("exit_at", start)
                      for rep in reports)
        merge_start = time.monotonic()
        proc, report, _ = self.procs.start(
            ["merge-journals", str(fabric)], traced, "merge"
        )
        merge = self.procs.finish(proc, report)
        wall = drained - start + time.monotonic() - merge_start
        for name, rep in zip(self.workers + ("merge",), reports + [merge]):
            if rep["exit"] != 0:
                m.errors.append(f"{name} exited with code {rep['exit']}")
        rss = max(sum(r.get("maxrss_kb", 0) for r in reports), merge.get("maxrss_kb", 0))
        m.rss_mb = max(m.rss_mb, rss / 1024.0)
        if traced:
            for rep in reports + [merge]:
                _absorb_report(m, rep)
                m.trace_wall += rep.get("wall_s", 0.0)
            for rep in reports:
                m.worker_wall += rep.get("wall_s", 0.0)
        rows = []
        merged = fabric / "merged.jsonl"
        if merged.exists():
            for line in merged.read_text().splitlines():
                entry = json.loads(line)
                if entry.get("kind") == "cell":
                    data = entry["data"]
                    rows.append((entry["key"][0], entry["key"][1],
                                 data["isomorphic"], data["found"], data["verdict"]))
        return wall, rows, reports

    def run_pass(self, m: Measure, traced: bool) -> None:
        self.passes += 1
        first_dir = self.work / f"fabric-{self.passes}"
        wall, rows, reports = self._fabric(m, first_dir, traced, [])
        m.op("first", "scan", wall, all(r[4] == "ok" for r in rows))
        m.pass_done(wall, sum(r[4] == "ok" for r in rows))
        m.errors += gate.coverage_errors([(r[0], r[1]) for r in rows], len(self.schemas))
        m.errors += gate.scan_errors(rows, self.schemas)
        m.errors += [f"cell ({r[0]},{r[1]}) undecided" for r in rows if r[4] != "ok"]

        again_dir = self.work / f"fabric-{self.passes}-again"
        prior = ["--incremental", str(first_dir / "merged.jsonl")]
        again_wall, again_rows, _ = self._fabric(m, again_dir, traced, prior)
        m.op("repeat", "incremental", again_wall,
             len(again_rows) == len(rows) and all(r[4] == "ok" for r in again_rows))
        m.errors += gate.same_rows_errors(rows, again_rows)
        m.errors += gate.coverage_errors(
            [(r[0], r[1]) for r in again_rows], len(self.schemas)
        )

    def close(self) -> None:
        self.procs.close()


# -------------------------------------------------------------------- service


def _questions(seed: int, n_requests: int):
    """A seeded schedule: about half the requests repeat an earlier question.

    Distinct questions outnumber the result cache's default 1,024 entries,
    so repeats of old questions can find their entry evicted.  Kinds,
    dominance pairs and mapping-check pairs are dealt from seeded decks, a
    whole deck before any card comes again, so every seed asks the same
    mix.  Drawn at random, the few costliest dominance questions came up
    more often under some seeds, and the p99 latency of ten seeds spread by
    0.27 of its median.
    """
    from repro.core.search import enumerate_mappings
    from repro.mappings.serialization import format_mapping
    from repro.relational.catalog import format_schema
    from repro.workloads import (
        enumerate_keyed_schemas, random_keyed_schema, shuffled_copy,
    )

    rng = random.Random(seed)

    def deck(cards):
        while True:
            order = list(cards)
            rng.shuffle(order)
            yield from order

    # One relation, arity <= 2 over T,U: every dominance miss stays cheap
    # (<= 8 ms), so the mix, not a rare slow pair, sets the pass time.
    small = list(enumerate_keyed_schemas(["T", "U"], max_relations=1, max_arity=2))
    pairs = [(a, b) for a in small for b in small]
    kinds = deck(["equivalence", "equivalence", "dominance", "mapping-check"])
    equivalences = deck([(n, iso) for n in (1, 2, 3) for iso in (True, False)])
    dominance_pairs = deck(pairs)
    mapping_pairs = deck([(a, b) for a, b in pairs
                          if next(iter(enumerate_mappings(a, b, max_atoms=1)), None)])

    def copies(pair):
        return tuple(shuffled_copy(schema, rng.randrange(2**31)) for schema in pair)

    def make():
        kind = next(kinds)
        if kind == "equivalence":
            relations, iso = next(equivalences)
            s1 = random_keyed_schema(rng.randrange(2**31), ["T", "U"], relations, max_arity=3)
            if iso:
                s2 = shuffled_copy(s1, rng.randrange(2**31))
            else:
                s2 = random_keyed_schema(
                    rng.randrange(2**31), ["T", "U"], rng.randint(1, 3), max_arity=3
                )
            body = {"schema1": format_schema(s1), "schema2": format_schema(s2)}
            return {"kind": kind, "path": "/v1/equivalence",
                    "body": body, "expected": gate.isomorphic(s1, s2)}
        if kind == "dominance":
            s1, s2 = copies(next(dominance_pairs))
            body = {"schema1": format_schema(s1), "schema2": format_schema(s2),
                    "max_atoms": 1}
            return {"kind": kind, "path": "/v1/dominance", "body": body}
        while True:
            s1, s2 = copies(next(mapping_pairs))
            texts = sorted(format_mapping(m) for m in enumerate_mappings(s1, s2, max_atoms=1))
            if texts:
                body = {"source": format_schema(s1), "target": format_schema(s2),
                        "mapping": rng.choice(texts)}
                return {"kind": kind, "path": "/v1/mapping-check", "body": body}

    questions: List[dict] = []
    schedule: List[int] = []
    for position in range(n_requests):
        if position >= 8 and rng.random() < 0.5:
            schedule.append(schedule[rng.randrange(position - 4)])
        else:
            schedule.append(len(questions))
            questions.append(make())
    for q in questions:
        q["payload"] = json.dumps(q["body"], sort_keys=True).encode()
    return questions, schedule


class ServeMixed:
    """``repro serve --port 0 --workers 2`` under two closed-loop clients."""

    name = "serve_mixed"
    in_process = False

    @staticmethod
    def make_reference() -> reference.Reference:
        """Loopback round trips, not the loop: most of a request's time is
        outside every layer of the program, in connecting, waking processes
        and moving bytes, which the loop's speed did not follow."""
        return reference.RoundTrip()
    clients = 2
    oracle_sample = 6  # dominance and mapping-check answers re-derived per run

    def __init__(self, seed: int, smoke: bool, work: Path) -> None:
        self.seed = seed
        self.questions, self.schedule = _questions(seed, 40 if smoke else 2400)
        self.first_position = {}
        for position, q in enumerate(self.schedule):
            self.first_position.setdefault(q, position)
        self.setup_reps = 1 if smoke else 2
        self.procs = _Subprocesses(work)
        self.served: Dict[int, bytes] = {}  # first body seen per question

    def _start(self, m: Measure, traced: bool):
        start = time.perf_counter()
        proc, report, out = self.procs.start(
            ["serve", "--port", "0", "--workers", "2"], traced, "serve"
        )
        limit = start + 60.0
        while True:
            match = re.search(rb"listening on http://[^:]+:(\d+)", out.read_bytes())
            if match:
                m.setup_done(time.perf_counter() - start)
                return proc, report, int(match.group(1))
            if proc.poll() is not None or time.perf_counter() > limit:
                raise RuntimeError(f"server did not start: {out.read_text()[-500:]}")
            time.sleep(0.002)

    def _stop(self, m: Measure, proc, report: Path, traced: bool) -> dict:
        proc.send_signal(signal.SIGTERM)
        rep = self.procs.finish(proc, report, timeout=60)
        if rep["exit"] != 0:
            m.errors.append(f"server exited with code {rep['exit']}")
        m.rss_mb = max(m.rss_mb, rep.get("maxrss_kb", 0) / 1024.0)
        if traced:
            _absorb_report(m, rep)
        return rep

    def setup(self, m: Measure) -> None:
        for _ in range(self.setup_reps):
            proc, report, _ = self._start(m, False)
            self._stop(m, proc, report, False)

    def _client(self, port: int, cursor, out: List[dict]) -> None:
        while True:
            position = cursor()
            if position is None:
                return
            q = self.schedule[position]
            question = self.questions[q]
            start = time.perf_counter()
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                conn.request("POST", question["path"], body=question["payload"],
                             headers={"Content-Type": "application/json"})
                reference.reset_on_close(conn.sock)
                response = conn.getresponse()
                status, body = response.status, response.read()
                conn.close()
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, str(exc).encode()
            out.append({"position": position, "question": q, "status": status,
                        "body": body, "seconds": time.perf_counter() - start})

    def run_pass(self, m: Measure, traced: bool) -> None:
        proc, report, port = self._start(m, traced)
        lock = threading.Lock()
        positions = iter(range(len(self.schedule)))

        def cursor() -> Optional[int]:
            with lock:
                return next(positions, None)

        results: List[List[dict]] = [[] for _ in range(self.clients)]
        threads = [threading.Thread(target=self._client, args=(port, cursor, out))
                   for out in results]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        wall = time.perf_counter() - start
        self._stop(m, proc, report, traced)
        records = sorted((r for out in results for r in out), key=lambda r: r["position"])
        if len(records) != len(self.schedule):
            m.errors.append(f"{len(self.schedule) - len(records)} request(s) unanswered")
        ok_count = 0
        for rec in records:
            ok = rec["status"] == 200 and b'"verdict":"ok"' in rec["body"]
            ok_count += ok
            kind = "first" if self.first_position[rec["question"]] == rec["position"] else "repeat"
            m.op(kind, rec["position"], rec["seconds"], ok, failed=not ok)
        if traced:
            latency = sum(r["seconds"] for r in records)
            m.client_latency += latency
            m.trace_wall += latency
        m.pass_done(wall, ok_count)
        m.errors += gate.serve_errors(records, self.questions)
        for rec in records:
            self.served.setdefault(rec["question"], rec["body"])

    def check_oracle(self, m: Measure) -> None:
        """Re-derive a seeded sample of answers with the naive backend, memo off."""
        from repro.engine import Engine, EngineConfig
        from repro.service import protocol

        served = self.served
        rng = random.Random(self.seed + 1)
        sample = []
        for kind in ("dominance", "mapping-check"):
            pool = sorted(q for q in served if self.questions[q]["kind"] == kind)
            sample += rng.sample(pool, min(self.oracle_sample, len(pool)))
        oracle = {}
        config = EngineConfig(backend="naive", use_cache=False)
        with Engine(config) as engine:
            for q in sample:
                body = self.questions[q]["body"]
                if self.questions[q]["kind"] == "dominance":
                    parsed = protocol.parse_dominance_request(body)
                    payload = engine.dominance_request(
                        parsed.schema1, parsed.schema2, max_atoms=parsed.max_atoms
                    )
                else:
                    parsed = protocol.parse_mapping_request(body)
                    payload = engine.mapping_request(
                        parsed.source, parsed.target, parsed.mapping
                    )
                oracle[q] = protocol.canonical_bytes(payload)
        m.errors += gate.oracle_errors(served, oracle)

    def close(self) -> None:
        self.procs.close()


WORKLOADS = {cls.name: cls for cls in (ScanE1, ScanA3, ScanFabric, ServeMixed)}
