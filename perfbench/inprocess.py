"""Set-up replicas and the closed-loop timed phase of the in-process workloads.

An untraced run sets the workload up ``Workload.replicas`` times: in child
processes, one after another, each under another ``PYTHONHASHSEED``, and
last in this process.  Every replica runs the same probe, and their
engine, buffer and disk counts must be equal.  Each replica then times
its own share of ``--seconds`` and checks its outputs.  A process's
memory layout is its own (physical pages, hash seeds), and on a small
shared host it moved whole runs of the memory-bound workloads by a
fifth; splitting the timed phase over processes averages that out.

A traced run sets up one child replica for the determinism check only
and times the whole phase here.  In the timed phase one caller runs one
operation after another until the deadline.  A traced phase alternates
untraced and traced slices of ``SLICE_SECONDS`` each (the tracer is
installed only for the traced ones), so both halves see the same
database state on average: ``trace.overhead_pct`` compares their
throughputs and the per-layer self times come from the traced slices
only.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import common
import layers
from tracing import END, PARENT, START, Tracer

SLICE_SECONDS = 0.25
#: the child replica's set-up and probe, with room for a slow host.
CHILD_TIMEOUT = 120.0


@dataclass
class Phase:
    latencies: dict = field(default_factory=lambda: {"read": [], "write": []})
    #: when each latency sample began, in the same order
    stamps: dict = field(default_factory=lambda: {"read": [], "write": []})
    host: common.HostSpeed = field(default_factory=common.HostSpeed)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    start: float = 0.0
    seconds: float = 0.0
    elapsed: float = 0.0
    #: completion time of every successful operation
    ends: list = field(default_factory=list)
    # traced runs only
    traced_ops: int = 0
    traced_elapsed: float = 0.0
    traced_op_seconds: float = 0.0
    #: ids returned by queries run in traced slices.
    traced_returned: int = 0
    untraced_ops: int = 0
    untraced_elapsed: float = 0.0
    span_start: int = 0
    attributed_seconds: float = 0.0
    leaves: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_timed(next_op, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run ``next_op() -> (kind, thunk)`` operations for ``seconds``."""
    phase = Phase(seconds=seconds)
    latencies = phase.latencies
    stamps = phase.stamps
    ends = phase.ends
    host = phase.host
    if tracer is not None:
        phase.span_start = len(tracer.spans)
        top_leaf_before = tracer.top_leaf_seconds
        leaves_before = {k: list(v) for k, v in tracer.leaves.items()}
    traced = False
    start = phase.start = perf_counter()
    deadline = start + seconds
    slice_start = start
    slice_end = start + SLICE_SECONDS
    slice_ops = 0
    op_index = 0
    while True:
        now = perf_counter()
        if tracer is not None and (now >= slice_end or now >= deadline):
            if traced:
                tracer.uninstall()
                phase.traced_ops += slice_ops
                phase.traced_elapsed += now - slice_start
            else:
                phase.untraced_ops += slice_ops
                phase.untraced_elapsed += now - slice_start
            traced = not traced
            slice_ops = 0
            slice_start = now
            slice_end = now + SLICE_SECONDS
            if traced and now < deadline:
                tracer.install()
        if now >= deadline:
            break
        if now >= host.next_at:
            host.sample()
        kind, thunk = next_op()
        if traced:
            tracer.request = op_index
        began = perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # counted into failed_ratio, reported
            out = None
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(repr(exc))
        else:
            ends.append(perf_counter())
        took = perf_counter() - began
        latencies[kind].append(took)
        stamps[kind].append(began)
        if traced:
            phase.traced_op_seconds += took
            if isinstance(out, list):
                phase.traced_returned += len(out)
        phase.attempted += 1
        slice_ops += 1
        op_index += 1
    phase.elapsed = perf_counter() - start
    if tracer is not None:
        tracer.request = None
        if tracer.installed:
            tracer.uninstall()
        phase.attributed_seconds = (tracer.top_leaf_seconds - top_leaf_before) + sum(
            record[END] - record[START]
            for record in tracer.spans[phase.span_start:]
            if record[PARENT] < 0
        )
        phase.leaves = {
            name: [
                now - then
                for now, then in zip(totals, leaves_before.get(name, [0, 0.0, 0.0]))
            ]
            for name, totals in tracer.leaves.items()
        }
    return phase


def trace_summary(phase: Phase) -> dict:
    """``trace.overhead_pct`` and ``trace.unattributed_pct`` of a traced phase."""
    untraced = phase.untraced_ops / phase.untraced_elapsed
    traced = phase.traced_ops / phase.traced_elapsed
    return {
        "trace.overhead_pct": 100.0 * (1.0 - traced / untraced),
        "trace.unattributed_pct": 100.0
        * (1.0 - phase.attributed_seconds / phase.traced_op_seconds),
    }


@dataclass
class Workload:
    """What an in-process workload hands the shared driver."""

    name: str
    #: imports what ``set_up`` uses and builds one throwaway schema, so
    #: the RSS baseline taken after it leaves the library's fixed cost out.
    prepare: Callable[[], None]
    #: builds a database: ``() -> (db, stream, seconds)``, where
    #: ``stream.next()`` yields ``(kind, thunk)`` operations from the seed.
    set_up: Callable[[], tuple]
    #: operations every replica runs after set-up before counting again.
    probe_ops: int
    #: ``(section, counter)`` pairs every replica must repeat exactly.
    keys: tuple
    #: ``(db, stream, full) -> checks made``, run after the timed phase;
    #: child replicas may run a lighter check (``full=False``).
    check: Callable[[Any, Any, bool], int]
    #: processes an untraced run sets up and times the phase in.
    replicas: int = 2


def replica(work: Workload, tracer: Tracer | None = None):
    """One set-up and the probe: ``(db, stream, seconds, RSS growth, counts)``.

    The set-up is traced when ``tracer`` is given; the counts are the
    ``work.keys`` after set-up and after the probe.
    """
    work.prepare()
    gc.collect()
    rss_before = common.rss_bytes()
    if tracer is not None:
        tracer.install()
    db, stream, seconds = work.set_up()
    if tracer is not None:
        tracer.uninstall()
    rss_growth = common.rss_bytes() - rss_before
    after_setup = db.metrics().as_dict()
    for __ in range(work.probe_ops):
        stream.next()[1]()
    after_probe = db.metrics().as_dict()
    counts = {
        f"{when}.{section}.{key}": snap[section][key]
        for when, snap in (("setup", after_setup), ("probe", after_probe))
        for section, key in work.keys
    }
    return db, stream, seconds, rss_growth, counts


#: the Phase fields a child replica reports back.
SHIPPED = (
    "latencies", "stamps", "ends", "start", "seconds", "elapsed", "attempted", "failed", "errors",
)


def print_replica(work: Workload, seconds: float) -> int:
    """The child's side of :func:`child_replica`: one replica, one JSON line."""
    db, stream, setup_s, __, counts = replica(work)
    phase = run_timed(stream.next, seconds) if seconds > 0 else None
    checks = work.check(db, stream, False)
    shipped = None
    if phase is not None:
        shipped = {name: getattr(phase, name) for name in SHIPPED}
        shipped["host"] = [phase.host.stamps, phase.host.costs]
    print(
        json.dumps({"seconds": setup_s, "counts": counts, "phase": shipped, "checks": checks}),
        flush=True,
    )
    return 0


def child_replica(args, index: int, seconds: float) -> dict:
    """Run a replica in a child process under another hash seed.

    String hashing, and so the iteration order of string sets and dicts
    built from them, differs between the processes; the counts must not.
    The child times ``seconds`` of the phase (none when 0).  Returns the
    child's ``{"seconds", "counts", "phase", "checks", "pythonhashseed"}``
    with ``phase`` a :class:`Phase` or ``None``.
    """
    ours = os.environ.get("PYTHONHASHSEED", "")
    theirs = str((int(ours) + index) % 2**32) if ours.isdigit() else str(index - 1)
    command = [
        sys.executable, os.path.join(common.ROOT, "perfbench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--replica",
    ]
    try:
        done = subprocess.run(
            command,
            env=dict(os.environ, PYTHONHASHSEED=theirs),
            cwd=common.ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT + seconds,
        )
    except subprocess.TimeoutExpired as exc:
        raise common.BenchmarkError(f"{args.workload}: replica process timed out") from exc
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise common.BenchmarkError(
            f"{args.workload}: replica process failed ({done.returncode}): {done.stderr[-500:]}"
        )
    child = json.loads(lines[-1])
    shipped = child["phase"]
    if shipped is not None:
        stamps, costs = shipped.pop("host")
        child["phase"] = Phase(**shipped, host=common.HostSpeed(stamps, costs))
    return {**child, "pythonhashseed": theirs}


def engine_layer_values(db, tracer, phase: Phase, delta, setup_spans: int) -> dict:
    """Per-layer metrics every in-process workload reports.

    Self times are per traced operation; counts are per operation over
    the whole timed phase (they do not depend on tracing).
    """
    stats = layers.span_stats(tracer, phase.span_start)
    setup_stats = layers.span_stats(tracer, 0, setup_spans)
    ops = phase.traced_ops
    snapshot = db.metrics()

    def per_op(name):
        return stats.get(name, [0.0, 0])[0] / ops

    def per_call(name):
        total, calls = setup_stats.get(name, [0.0, 0])
        return total / calls if calls else 0.0

    touches = phase.leaves["storage.touch"]
    values = layers.counter_values(delta, phase.attempted, len(phase.latencies["write"]))
    values.update(
        {
            "txn.commit_s": per_op("txn.commit"),
            "txn.history_length": snapshot["txn"]["history_length"],
            "evaluation.mark_s": per_op("evaluation.mark"),
            "evaluation.demand_s": per_op("evaluation.demand"),
            "evaluation.scheduler_s": per_op("evaluation.scheduler"),
            "storage.touch_s": touches[2] / ops,
            "storage.touches_per_op": touches[0] / ops,
            "storage.reorganize_s": per_call("storage.reorganize"),
            "core.create_s": per_call("core.create"),
            "core.connect_s": per_call("core.connect"),
            "graph.depgraph_edges": db.depgraph.edge_count,
            "compile.plans_built": snapshot["compile"]["plans_built"],
            "index.maintain_s": per_op("index.maintain"),
            "index.sweep_s": per_op("index.sweep"),
            "dsl.plan_s": per_op("dsl.plan"),
            "dsl.execute_s": per_op("dsl.execute"),
        }
    )
    values.update(trace_summary(phase))
    return values


def run_inprocess(args, tracer, work: Workload):
    """Set-ups, determinism check, timed phases, correctness checks.

    Child replicas run first, one at a time; the last replica -- the one
    a traced phase and the per-layer metrics use -- runs here.
    ``setup_s`` is the median over all set-ups and their counts must be
    equal.  Returns the pieces ``run.py`` and the workload's own
    per-layer metrics need.
    """
    replicas = 2 if tracer is not None else work.replicas
    share = 0.0 if tracer is not None else args.seconds / replicas
    children = [child_replica(args, index, share) for index in range(1, replicas)]
    db, stream, seconds, rss_growth, counts = replica(work, tracer)
    ours = os.environ.get("PYTHONHASHSEED", "random")
    common.check_determinism(
        work.name,
        [child["counts"] for child in children] + [counts],
        {"pythonhashseed": [child["pythonhashseed"] for child in children] + [ours]},
    )
    setup_spans = len(tracer.spans) if tracer is not None else 0
    before = db.metrics()
    phase = run_timed(stream.next, share or args.seconds, tracer)
    after = db.metrics()
    checks = work.check(db, stream, True)
    result = {
        "phase": phase,
        "phases": [child["phase"] for child in children if child["phase"]] + [phase],
        "checks": checks + sum(child["checks"] for child in children),
        "setups": [child["seconds"] for child in children] + [seconds],
        "rss_bytes_per_instance": rss_growth / len(db),
        "instances": len(db),
        "blocks": after["disk"]["blocks_in_use"],
    }
    delta = after - before
    if tracer is not None:
        result["layers"] = engine_layer_values(db, tracer, phase, delta, setup_spans)
    return db, stream, delta, result
