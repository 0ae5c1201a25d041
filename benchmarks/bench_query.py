"""Indexed query execution vs the naive full scan (the PR-10 A/B).

Claim under test: over >=10^4 instances, a selective ``where`` answered
from an attribute index, a narrow two-sided window answered from one
index slice, and an ``order by ... limit`` answered by an ordered index
walk are all >=10x faster than :meth:`Query.run_scan`, with
byte-identical results; and the write-path cost of maintaining the
indexes stays a small constant factor on update throughput.

Numbers land in ``results/BENCH_query.json`` (and ``query.txt``).
"""

import statistics
import time

from benchmarks.common import fresh_results, metrics_snapshot, report, report_json
from repro.core.database import Database
from repro.dsl import compile_schema
from repro.dsl.query import compile_query

fresh_results("query")

N = 12_000
BUCKETS = 120  # ~100 instances per bucket: selectivity ~0.8%

SOURCE = """
object class item is
  attributes
    bucket : integer;
    score  : integer;
end object;
"""


def build_schema(indexed: bool):
    schema = compile_schema(SOURCE, freeze=False)
    if indexed:
        schema.add_index("item", "bucket")
        schema.add_index("item", "score")
    schema.freeze()
    return schema


def build_db(indexed: bool = True) -> Database:
    db = Database(build_schema(indexed), pool_capacity=1024)
    with db.transaction("seed", batch=True):
        for i in range(N):
            db.create("item", bucket=i % BUCKETS, score=(i * 7919) % 65_521)
    return db


def timed(fn, repeats=7):
    samples = []
    for __ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


QUERIES = {
    "selective_where": "select item where bucket == 17",
    "where_order_limit": "select item where bucket == 17 order by score desc limit 10",
    "order_limit": "select item order by score desc limit 10",
    # ~55 instances lie in the window; the residual keeps one of them.
    "two_sided_residual": (
        "select item where score > 30000 and score < 30300 and bucket == 16"
    ),
}


def test_indexed_vs_scan(benchmark):
    db = build_db(indexed=True)
    compiled = {
        name: compile_query(db.schema, text) for name, text in QUERIES.items()
    }
    # Warm every structure once so the A/B measures steady state, and pin
    # byte-identical results before any timing.
    for name, query in compiled.items():
        assert query.run(db) == query.run_scan(db), name

    rows = []
    payload = {}
    for name, query in compiled.items():
        indexed_s = timed(lambda q=query: q.run(db))
        scan_s = timed(lambda q=query: q.run_scan(db))
        speedup = scan_s / indexed_s
        plan = query.plan(db)
        rows.append(
            [name, plan.access_path, f"{scan_s * 1e3:.2f} ms",
             f"{indexed_s * 1e6:.1f} us", f"{speedup:.0f}x"]
        )
        payload[name] = {
            "access_path": plan.access_path,
            "scan_seconds": scan_s,
            "indexed_seconds": indexed_s,
            "speedup": speedup,
            "result_size": len(query.run(db)),
        }
        # The acceptance bar: >=10x on the selective and ordered shapes.
        assert speedup >= 10, (name, speedup)
    assert compiled["two_sided_residual"].plan(db).sarg.upper == ("<", 30300)

    benchmark.pedantic(
        lambda: compiled["where_order_limit"].run(db),
        rounds=30,
        iterations=1,
    )
    report(
        "query",
        f"{N} instances, {BUCKETS} buckets",
        ["query", "path", "scan", "indexed", "speedup"],
        rows,
    )
    payload["instances"] = N
    payload["metrics"] = metrics_snapshot(db)["index"]
    report_json("query", "indexed_vs_scan", payload)


def test_maintenance_overhead(benchmark):
    indexed = build_db(indexed=True)
    plain = build_db(indexed=False)
    iids = indexed.instances_of("item")[:2_000]

    def churn(db):
        with db.transaction("churn", batch=True):
            for k, iid in enumerate(iids):
                db.set_attr(iid, "score", k)
                db.set_attr(iid, "bucket", k % BUCKETS)

    indexed_s = timed(lambda: churn(indexed), repeats=5)
    plain_s = timed(lambda: churn(plain), repeats=5)
    overhead = indexed_s / plain_s
    benchmark.pedantic(lambda: churn(indexed), rounds=5, iterations=1)
    report(
        "query",
        "index maintenance overhead (4000 writes)",
        ["database", "seconds", "relative"],
        [
            ["no indexes", f"{plain_s:.4f}", "1.00x"],
            ["two indexes", f"{indexed_s:.4f}", f"{overhead:.2f}x"],
        ],
    )
    report_json(
        "query",
        "maintenance_overhead",
        {
            "writes": 2 * len(iids),
            "plain_seconds": plain_s,
            "indexed_seconds": indexed_s,
            "overhead_factor": overhead,
        },
    )
    # Maintenance must not dominate the write path.
    assert overhead < 2.0, overhead
