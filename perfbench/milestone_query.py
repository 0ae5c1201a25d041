"""``milestone_query``: one project manager slipping milestones and querying.

In-process and in-memory.  Figure 1's milestone schema plus Section 4's
``very_late_milestone`` predicate subtype, with secondary indexes on
``sched_compl`` (intrinsic) and ``exp_compl`` (derived).  About 2x10^4
milestones in projects of 50; each milestone depends on up to two
earlier milestones of its project, so every project is a DAG.  The pool
holds every block.

The caller alternates a slip -- ``set_attr`` of ``local_work`` in its
own transaction -- with a query, cycling through four shapes in the
order 1, 2, 3, 3, 3, 3, 4 (``ROTATION``):

1. an equality or a narrow range on ``sched_compl`` (index probe);
2. ``order by exp_compl desc limit k`` (ordered index walk);
3. ``select very_late_milestone`` (maintained extent);
4. a two-sided range on ``sched_compl`` with a residual ``late``
   conjunct, placed to examine about ``RESIDUAL_CANDIDATES`` milestones.

Slips and queries hit the same indexes, so a change that speeds queries
by making index maintenance dearer shows on ``write_*``.  Shape 3 makes
up four of every seven queries, so the median read falls inside one
narrow distribution (the stale-slot sweep every refreshed read pays)
instead of on the edge between two shapes; the residual shape, the
slowest, sets the p99.  The residual's cost drifts as its candidates'
``late`` slots are evaluated and re-marked, so it does not carry the
median.  The sweep and the scans are memory-bound, and their speed
differed from process to process by up to a fifth, so an untraced run
splits its timed phase over ``REPLICAS`` processes.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import common
from inprocess import Workload, run_inprocess

MILESTONES = 20_000
PROJECT = 50
MAX_DEPS = 2
SCHED_RANGE = 2000
WORK_RANGE = (1, 10)
VERY_LATE_LIMIT = 10
POOL_FRAMES = 4096
RESIDUAL_CANDIDATES = 400
RESIDUAL_WIDTH = 10
VARIANTS = 32
PROBE_OPS = 400
#: processes the untraced timed phase is split over (see inprocess.py).
REPLICAS = 3
#: distinct query texts checked per shape (one in a child replica);
#: every check runs a full scan too.
CHECK_QUERIES = 4
#: query shapes (indices into Plan.queries) in the order they are run.
ROTATION = (0, 1, 2, 2, 2, 2, 3)

DETERMINISM_KEYS = (
    ("engine", "rule_evaluations"),
    ("engine", "slots_marked"),
    ("engine", "mark_edge_visits"),
    ("index", "inserts"),
    ("index", "swept_slots"),
    ("disk", "reads"),
    ("disk", "writes"),
)


class Plan:
    """Generated milestones: schedule, work and dependencies by index."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.sched = [rng.randrange(SCHED_RANGE) for __ in range(MILESTONES)]
        self.work = [rng.randrange(*WORK_RANGE) for __ in range(MILESTONES)]
        self.deps: list[list[int]] = []
        for k in range(MILESTONES):
            first = k - k % PROJECT
            earlier = list(range(first, k))
            self.deps.append(rng.sample(earlier, min(len(earlier), rng.randrange(MAX_DEPS + 1))))
        # Query texts, VARIANTS per shape, drawn from the same seed.  The
        # planner answers a two-sided range from one side's index slice
        # and filters the rest through the residual, so the residual
        # shape examines every milestone below its upper bound, placed so
        # that about RESIDUAL_CANDIDATES lie below it.  The conjunction
        # stops at ``sched_compl > low``, so the lower bound sets how many
        # candidates evaluate ``late``: it is fixed too, keeping the cost
        # of the shape the same from seed to seed.
        high = sorted(self.sched)[RESIDUAL_CANDIDATES]
        low = high - RESIDUAL_WIDTH
        self.queries: list[list[str]] = [[], [], [], []]
        for v in range(VARIANTS):
            value = rng.randrange(SCHED_RANGE)
            if v % 2:
                self.queries[0].append(f"select milestone where sched_compl == {value}")
            else:
                self.queries[0].append(
                    f"select milestone where sched_compl < {rng.randrange(1, 5)}"
                )
            self.queries[1].append(
                f"select milestone order by exp_compl desc limit {rng.randrange(5, 21)}"
            )
            self.queries[2].append("select very_late_milestone")
            self.queries[3].append(
                f"select milestone where sched_compl > {low} "
                f"and sched_compl < {high} and late"
            )


def build_schema():
    from repro.dsl import compile_schema
    from repro.env.milestones import MILESTONE_SCHEMA, VERY_LATE_EXTENSION

    schema = compile_schema(MILESTONE_SCHEMA, freeze=False)
    compile_schema(
        VERY_LATE_EXTENSION.format(limit=VERY_LATE_LIMIT), schema=schema, freeze=False
    )
    schema.add_index("milestone", "sched_compl")
    schema.add_index("milestone", "exp_compl")
    return schema.freeze()


def prepare() -> None:
    from repro.core.database import Database  # noqa: F401
    from repro.dsl.query import compile_query  # noqa: F401

    build_schema()


def set_up(plan: Plan, seed: int):
    """Build, then answer every query variant once (the warm-up)."""
    from repro.core.database import Database
    from repro.dsl.query import compile_query

    started = perf_counter()
    db = Database(build_schema(), pool_capacity=POOL_FRAMES)
    iids = [0] * MILESTONES
    for first in range(0, MILESTONES, PROJECT):
        with db.transaction("project", batch=True):
            for k in range(first, min(first + PROJECT, MILESTONES)):
                iids[k] = db.create(
                    "milestone", sched_compl=plan.sched[k], local_work=plan.work[k]
                )
                for dep in plan.deps[k]:
                    db.connect(iids[k], "depends_on", iids[dep], "consists_of")
    compiled = {
        text: compile_query(db.schema, text) for shape in plan.queries for text in shape
    }
    queries = [[compiled[text] for text in shape] for shape in plan.queries]
    for shape in queries:
        for query in shape:
            query.run(db)
    seconds = perf_counter() - started
    return db, OpStream(seed, plan, db, iids, queries), seconds


class OpStream:
    """Slip, query, slip, query, ...; query shapes follow ``ROTATION``."""

    def __init__(self, seed: int, plan: Plan, db, iids, queries) -> None:
        self.rng = random.Random(seed)
        self.db = db
        self.iids = iids
        self.queries = queries
        self.work = list(plan.work)
        self.count = 0

    def next(self):
        rng, db = self.rng, self.db
        self.count += 1
        if self.count % 2:
            node = rng.randrange(MILESTONES)
            value = rng.randrange(*WORK_RANGE)
            if value == self.work[node]:
                value = value % (WORK_RANGE[1] - 1) + 1
            self.work[node] = value
            iid = self.iids[node]

            def slip():
                db.begin()
                db.set_attr(iid, "local_work", value)
                db.commit()

            return "write", slip
        shape = self.queries[ROTATION[(self.count // 2) % len(ROTATION)]]
        query = shape[rng.randrange(len(shape))]
        return "read", lambda: query.run(db)


def check_queries(db, queries, seed: int, per_shape: int) -> int:
    """Sampled indexed results must equal ``Query.run_scan`` byte for byte."""
    rng = random.Random(seed ^ 0xC4EC)
    checks = 0
    for shape in queries:
        distinct = list({id(query): query for query in shape}.values())
        for query in rng.sample(distinct, min(len(distinct), per_shape)):
            planned = json.dumps(query.run(db))
            scanned = json.dumps(query.run_scan(db))
            if planned != scanned:
                raise common.BenchmarkError(
                    f"milestone_query: planned result differs from the scan "
                    f"for {query}: {planned[:200]} vs {scanned[:200]}"
                )
            checks += 1
    return checks


def workload(args) -> Workload:
    plan = Plan(args.seed)
    return Workload(
        name="milestone_query",
        prepare=prepare,
        set_up=lambda: set_up(plan, args.seed + 1),
        probe_ops=PROBE_OPS,
        keys=DETERMINISM_KEYS,
        check=lambda db, stream, full: check_queries(
            db, stream.queries, args.seed, CHECK_QUERIES if full else 1
        ),
        replicas=REPLICAS,
    )


def run(args, tracer=None) -> dict:
    db, stream, delta, result = run_inprocess(args, tracer, workload(args))
    result["sizes"] = {
        "instances": result["instances"],
        "projects": MILESTONES // PROJECT,
        "pool_frames": POOL_FRAMES,
        "data_blocks": result["blocks"],
        "query_variants": sum(len(shape) for shape in stream.queries),
        "setups": len(result["setups"]),
        "probe_ops": PROBE_OPS,
    }
    if tracer is not None:
        phase, index = result["phase"], delta["index"]
        writes = len(phase.latencies["write"])
        returned = phase.traced_returned
        result["layers"].update(
            {
                "index.inserts_per_write": index["inserts"] / writes,
                "index.removes_per_write": index["removes"] / writes,
                "index.swept_slots_per_query": index["swept_slots"]
                / len(phase.latencies["read"]),
                "dsl.examined_per_result": (
                    phase.leaves["dsl.on_view"][0] / returned if returned else 0.0
                ),
                "dsl.scan_ratio": (
                    index["scan_queries"] / index["queries"] if index["queries"] else 0.0
                ),
            }
        )
    return result
