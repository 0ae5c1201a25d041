"""``edit_wave``: one editor over a software project far larger than the pool.

In-process and in-memory.  About 10^5 ``sum_node_schema`` nodes in groups
of four chains of sixteen, with eight cross-links inside each group, so
a write reaches tens of slots (about 46 in a clean graph).  The pool
holds 64 frames against thousands of data blocks.  Set-up builds the
graph (one batched transaction per group), demands every chain tail
once so no derived slot is left marked, and runs the paper's greedy
clustering once (``Database.reorganize``).

The caller alternates a write -- ``set_attr`` of ``weight`` in its own
transaction -- with a read -- ``get_attr`` of the ``total`` at the tail
of the written node's chain, downstream of the write, so every read
demands the region the write just marked.  80% of the writes go to a
hot tenth of the groups; that hot set is still several times the pool,
so reads and writes miss.
"""

from __future__ import annotations

import random
from time import perf_counter

import common
from inprocess import Workload, run_inprocess

INSTANCES = 100_000
CHAINS = 4
LENGTH = 16
CROSS_LINKS = 8
POOL_FRAMES = 64
HOT_GROUPS = 0.10
HOT_SHARE = 0.80
#: operations each set-up replica runs before the determinism check
#: compares their counts.
PROBE_OPS = 2000
CHECK_SAMPLES = 300

DETERMINISM_KEYS = (
    ("engine", "rule_evaluations"),
    ("engine", "slots_marked"),
    ("engine", "mark_edge_visits"),
    ("buffer", "misses"),
    ("disk", "reads"),
    ("disk", "writes"),
)


class OpStream:
    """The seeded operation sequence: write, then read downstream of it."""

    def __init__(self, seed: int, plan: common.ProjectPlan, iids: list[int], db) -> None:
        self.rng = random.Random(seed)
        self.plan = plan
        self.iids = iids
        self.db = db
        self.weights = list(plan.weights)
        groups = len(plan.groups)
        self.hot = random.Random(seed ^ 0x5EED).sample(
            range(groups), max(1, int(groups * HOT_GROUPS))
        )
        self.count = 0
        self.chain: list[int] = []

    def _group(self) -> list[list[int]]:
        rng = self.rng
        if rng.random() < HOT_SHARE:
            return self.plan.groups[rng.choice(self.hot)]
        return self.plan.groups[rng.randrange(len(self.plan.groups))]

    def next(self):
        rng, db = self.rng, self.db
        self.count += 1
        if self.count % 2:
            chain = self.chain = rng.choice(self._group())
            node = rng.choice(chain)
            value = rng.randrange(1, 100)
            if value == self.weights[node]:
                value += 1
            self.weights[node] = value
            iid = self.iids[node]

            def write():
                db.begin()
                db.set_attr(iid, "weight", value)
                db.commit()

            return "write", write
        iid = self.iids[self.chain[-1]]
        return "read", lambda: db.get_attr(iid, "total")


def prepare() -> None:
    from repro.core.database import Database  # noqa: F401
    from repro.workloads import sum_node_schema

    sum_node_schema()


def set_up(plan: common.ProjectPlan, seed: int):
    from repro.core.database import Database
    from repro.workloads import sum_node_schema

    started = perf_counter()
    db = Database(sum_node_schema(), pool_capacity=POOL_FRAMES)
    iids = common.build_project(db, plan)
    common.warm_project(db, plan, iids)
    db.reorganize()
    seconds = perf_counter() - started
    return db, OpStream(seed, plan, iids, db), seconds


def check_totals(db, plan: common.ProjectPlan, stream: OpStream, seed: int) -> int:
    """Sampled totals must equal an independent recompute; returns checks run."""
    rng = random.Random(seed ^ 0xC4EC)
    hot = rng.sample(stream.hot, min(len(stream.hot), CHECK_SAMPLES // 3))
    nodes = [rng.choice(rng.choice(plan.groups[g])) for g in hot]
    nodes += [rng.randrange(len(stream.iids)) for __ in range(CHECK_SAMPLES - len(nodes))]
    expected = plan.totals(nodes, stream.weights)
    for node in nodes:
        got = db.get_attr(stream.iids[node], "total")
        if got != expected[node]:
            raise common.BenchmarkError(
                f"edit_wave: node {stream.iids[node]} total {got} "
                f"!= recomputed {expected[node]}"
            )
    return len(nodes)


def workload(args) -> Workload:
    plan = common.plan_project(
        random.Random(args.seed), INSTANCES, CHAINS, LENGTH, CROSS_LINKS
    )
    return Workload(
        name="edit_wave",
        prepare=prepare,
        set_up=lambda: set_up(plan, args.seed + 1),
        probe_ops=PROBE_OPS,
        keys=DETERMINISM_KEYS,
        check=lambda db, stream, full: check_totals(db, plan, stream, args.seed),
    )


def run(args, tracer=None) -> dict:
    db, stream, __, result = run_inprocess(args, tracer, workload(args))
    result["sizes"] = {
        "instances": result["instances"],
        "groups": len(stream.plan.groups),
        "pool_frames": POOL_FRAMES,
        "data_blocks": result["blocks"],
        "hot_groups": len(stream.hot),
        "setups": len(result["setups"]),
        "probe_ops": PROBE_OPS,
    }
    return result
