"""The repository's benchmark: three Cactis workloads, one command.

Run from the root of a checkout (no build step; the library is imported
from ``src/``)::

    python3 perfbench/run.py --workload edit_wave --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload served_session --seed 1 --seconds 8 --trace 1

``--trace 0`` (untraced) measures the end-to-end metrics:

* ``setup_s`` -- median over the run's set-ups of build, warm-up,
  clustering or checkpoint, up to the first timed operation (the
  in-process workloads set up once per replica process, see
  ``inprocess.py``; the server sets up twice);
* ``throughput_ops_s`` -- completed operations (a transaction or a
  query) per second, the median over the 1-second windows of the timed
  phase;
* ``read_p50_ms`` / ``read_p99_ms`` and ``write_p50_ms`` /
  ``write_p99_ms`` -- latency percentiles, each the median over
  consecutive chunks of 1000 samples (every chunk has ten samples beyond
  its p99);
* ``rss_bytes_per_instance`` -- RSS growth over one set-up divided by
  the instances (the server process's RSS on ``served_session``); the
  baseline is taken after the library is imported and one schema built,
  so only the instances' cost counts.

Medians over windows and chunks keep a burst of CPU lost to other
tenants from moving the whole result.  Longer swings of the shared
host's speed are taken out by a reference loop timed through the phase:
every latency and window rate is scaled to the speed at which that loop
takes ``common.REFERENCE_S`` (see ``common.HostSpeed``).  The unscaled
figures and the slowdown of every window are printed on the ``host:``
line.

``--trace 1`` wraps the public functions of each layer from this
directory (``layers.py``; nothing in ``src/`` changes), alternates
untraced and traced slices of the timed phase, and reports the per-layer
metrics instead, with ``trace.overhead_pct`` (throughput lost to tracing)
and ``trace.unattributed_pct`` (operation time outside every layer
span).  Spans are written to ``.perfbench_out/trace-<workload>.jsonl``.

Before the last line the run prints ``environment:`` (Python version,
``nproc``, commit, seed, flush policy, instance counts), ``determinism:``
(the engine, buffer and disk counts every replica of an in-process
set-up repeated exactly, and their hash seeds), ``samples:``
(latency sample counts and the samples beyond each p99), ``host:``
(above; untraced runs only), and ``extra:``
(``failed_ratio``, and ``recovery_s`` on ``served_session``).  The last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any failed
correctness check prints ``correct: false`` and exits 1; a checkout
without the library exits 2 without a result.

Workloads are closed loops from one process at a time; see each module's
docstring for its sizes:

* ``edit_wave`` -- 10^5 nodes, 64-frame pool, skewed single editor.
* ``served_session`` -- 2x10^4 nodes served from a separate process over
  ``Database.open(path, sync=False)``; 2 pipelined connections.
* ``milestone_query`` -- 2x10^4 indexed milestones; slips and queries.

Prototype sizing seen while this benchmark was specified, as context and
not as a baseline: ``edit_wave`` at 10^5 instances set up in about 21 s
and ran about 1.5k ops/s; ``served_session`` ran about 0.8-1k txn/s
without fsync.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("edit_wave", "served_session", "milestone_query")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set an in-process workload up once, time --seconds of it
    # and print its counts and samples (a child replica, inprocess.py).
    parser.add_argument("--replica", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics over every timed phase of the run.

    Each phase's latencies and window rates are scaled by its own host
    slowdowns (``common.HostSpeed``); windows and latency chunks of all
    phases are then pooled, in the order the phases ran.
    """
    import common

    latencies = {"read": [], "write": []}
    raw = {"read": [], "write": []}
    rates, raw_rates, slowdowns, references = [], [], [], 0
    for phase in result["phases"]:
        slow = phase.host.slowdowns(phase.start, phase.seconds, common.WINDOW_SECONDS)
        for kind in latencies:
            raw[kind] += phase.latencies[kind]
            latencies[kind] += common.scale(
                phase.latencies[kind], phase.stamps[kind], phase.start, phase.seconds, phase.host
            )
        measured = common.windowed_rates(phase.ends, phase.start, phase.seconds)
        raw_rates += measured
        rates += [None if rate is None else rate * s for rate, s in zip(measured, slow)]
        slowdowns += slow
        references += len(phase.host.costs)
    reads = common.latency_summary(latencies["read"])
    writes = common.latency_summary(latencies["write"])
    keys = ("samples", "chunks", "beyond_p99_per_chunk")
    common.emit(
        "samples",
        {
            "read": {k: reads[k] for k in keys},
            "write": {k: writes[k] for k in keys},
            "setups_s": result["setups"],
            "timed_phases": len(result["phases"]),
            "completed": sum(phase.completed for phase in result["phases"]),
            "elapsed_s": sum(phase.elapsed for phase in result["phases"]),
        },
    )
    raw_reads = common.latency_summary(raw["read"])
    raw_writes = common.latency_summary(raw["write"])
    common.emit(
        "host",
        {
            "reference_s": common.REFERENCE_S,
            "reference_samples": references,
            "slowdown_per_window": [round(x, 3) for x in slowdowns],
            "raw_throughput_ops_s": common.median_rate(raw_rates),
            "raw_read_p50_ms": raw_reads["p50_ms"],
            "raw_read_p99_ms": raw_reads["p99_ms"],
            "raw_write_p50_ms": raw_writes["p50_ms"],
            "raw_write_p99_ms": raw_writes["p99_ms"],
        },
    )
    return common.declared_metrics(
        "end_to_end",
        {
            "setup_s": statistics.median(result["setups"]),
            "throughput_ops_s": common.median_rate(rates),
            "read_p50_ms": reads["p50_ms"],
            "read_p99_ms": reads["p99_ms"],
            "write_p50_ms": writes["p50_ms"],
            "write_p99_ms": writes["p99_ms"],
            "rss_bytes_per_instance": result["rss_bytes_per_instance"],
        },
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no library under {root}/src; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import common
    import layers
    import tracing

    os.makedirs(common.OUT, exist_ok=True)
    module = __import__(args.workload)
    if args.replica:
        import inprocess

        return inprocess.print_replica(module.workload(args), args.seconds)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        layers.register_layers(tracer)
    try:
        result = module.run(args, tracer)
    except common.BenchmarkError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    phases = result["phases"]
    attempted = sum(phase.attempted for phase in phases) + result["checks"]
    failed = sum(phase.failed for phase in phases)
    common.emit("environment", common.environment(args, **result["sizes"]))
    extra = {"failed_ratio": failed / attempted, **result.get("extra", {})}
    errors = [error for phase in phases for error in phase.errors]
    if errors:
        extra["errors"] = errors[:5]
    common.emit("extra", extra)
    if tracer is not None:
        path = os.path.join(common.OUT, f"trace-{args.workload}.jsonl")
        tracer.write(path)
        metrics = layers.fill(result["layers"])
    else:
        metrics = end_to_end(result)
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
