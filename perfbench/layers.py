"""Which public functions of which layer the traced run wraps.

Span names are ``<layer>.<what>``, the layer named after its
``src/repro`` package.  One :class:`~tracing.Tracer` per process gets
every boundary; a workload simply never calls the layers it does not
use, so their spans stay empty and their metrics read zero.

The per-layer metrics themselves are named, and given units, in
``BENCHMARK.json``.  ``*_s`` metrics are seconds of self time per timed
operation, except the per-call ones: storage.reorganize_s, core.create_s
and core.connect_s (set-up calls), persistence.wal_append_s,
persistence.recover_s and persistence.checkpoint_s.  Counts and ratios
cover the whole timed phase; self times only its traced slices.
"""

from __future__ import annotations

import common
from tracing import Tracer

def register_layers(tracer: Tracer) -> None:
    """Register every layer boundary with ``tracer`` (not yet installed)."""
    import repro.persistence.manager as persistence_manager
    import repro.server.server as server_module
    from repro.core.database import Database
    from repro.core.predicates import Predicate
    from repro.dsl.query import Query, QueryPlan
    from repro.evaluation.engine import IncrementalEngine
    from repro.evaluation.scheduler import ChunkScheduler
    from repro.index.manager import IndexManager
    from repro.persistence.manager import PersistenceManager
    from repro.persistence.wal import WriteAheadLog
    from repro.server.mux import SessionMultiplexer
    from repro.storage.manager import StorageManager
    from repro.txn.manager import MultiUserScheduler
    from repro.txn.transaction import TransactionManager

    tracer.async_span(
        server_module, "read_frame", "server.decode",
        request_of=lambda message: message.get("id") if message else None,
    )
    tracer.span(
        server_module, "encode_frame", "server.encode",
        request_of=lambda args, __: args[0].get("id"),
    )
    tracer.span(
        SessionMultiplexer, "submit", "server.admit",
        request_of=lambda args, handle: handle.request_id if handle else None,
    )
    tracer.span(
        MultiUserScheduler, "step", "txn.step",
        request_of=lambda args, state: state.name if state else None,
    )
    tracer.span(TransactionManager, "commit", "txn.commit")
    tracer.span(Database, "create", "core.create")
    tracer.span(Database, "connect", "core.connect")
    tracer.span(Database, "reorganize", "storage.reorganize")
    tracer.span(IncrementalEngine, "propagate_intrinsic_change", "evaluation.mark")
    tracer.span(IncrementalEngine, "demand", "evaluation.demand")
    tracer.span(IncrementalEngine, "evaluate_slots", "evaluation.demand")
    tracer.span(ChunkScheduler, "run_to_exhaustion", "evaluation.scheduler")
    tracer.leaf(StorageManager, "touch", "storage.touch")
    for hook in (
        "note_create",
        "note_delete",
        "note_attr_written",
        "note_membership_written",
        "note_attach",
        "note_detach",
    ):
        tracer.span(IndexManager, hook, "index.maintain")
    tracer.span(IndexManager, "refresh_attr_index", "index.sweep")
    tracer.span(IndexManager, "refresh_extent", "index.sweep")
    tracer.span(Query, "plan", "dsl.plan")
    tracer.span(QueryPlan, "execute", "dsl.execute")
    tracer.leaf(Predicate, "on_view", "dsl.on_view")
    tracer.span(WriteAheadLog, "append", "persistence.wal_append")
    tracer.span(persistence_manager, "recover_database", "persistence.recover")
    tracer.span(PersistenceManager, "checkpoint", "persistence.checkpoint")


def span_stats(tracer: Tracer, since: int = 0, until: int | None = None) -> dict:
    """Self seconds and call count per span name over a slice of spans."""
    from tracing import NAME, self_times

    spans = tracer.spans
    own = self_times(spans)
    stop = len(spans) if until is None else until
    out: dict[str, list] = {}
    for i in range(since, stop):
        entry = out.setdefault(spans[i][NAME], [0.0, 0])
        entry[0] += own[i]
        entry[1] += 1
    return out


def fill(values: dict) -> dict:
    """Every per-layer metric; a layer the workload never ran reads 0."""
    return common.declared_metrics("per_layer", values, default=0.0)


def counter_values(delta, ops: int, writes: int) -> dict:
    """Count-based per-layer metrics from a ``Database.metrics()`` delta.

    ``ops`` operations (``writes`` of them writes) ran in the interval;
    counts do not depend on tracing, so they cover the whole timed phase.
    """
    engine, sched = delta["engine"], delta["scheduler"]
    buffer, disk = delta["buffer"], delta["disk"]
    executed = sched["chunks_executed"] + sched["fast_lane_executed"]
    lookups = buffer["hits"] + buffer["misses"]
    evaluations = engine["rule_evaluations"]
    return {
        "evaluation.slots_marked_per_write": engine["slots_marked"] / writes,
        "evaluation.mark_edge_visits_per_write": engine["mark_edge_visits"] / writes,
        "evaluation.rule_evaluations_per_op": evaluations / ops,
        "evaluation.chunks_per_op": sched["chunks_executed"] / ops,
        "evaluation.fast_lane_ratio": (
            sched["fast_lane_executed"] / executed if executed else 0.0
        ),
        "evaluation.unchanged_ratio": (
            engine["unchanged_evaluations"] / evaluations if evaluations else 0.0
        ),
        "storage.buffer_hit_ratio": buffer["hits"] / lookups if lookups else 0.0,
        "storage.disk_reads_per_op": disk["reads"] / ops,
        "storage.disk_writes_per_op": disk["writes"] / ops,
        "storage.evictions_per_op": buffer["evictions"] / ops,
    }
