"""Property: indexed query results equal the naive scan, always (hypothesis).

Random scripts of creates, updates, deletes, delete-plus-undo, and codec
snapshot/restore round trips churn attribute values, derived slots, and
predicate-subtype membership; after every script a battery of queries
must answer identically through :meth:`Query.run` (planner, indexes,
extents, one- and two-sided range probes) and :meth:`Query.run_scan`
(the naive reference) -- under both the compiled engine and
``REPRO_NO_COMPILE=1``.  After every op, the
engine's per-name stale sets must equal the matching subsets of its
out-of-date set.

A bound test pins the refresh cost: refreshing an index or an extent
reads only its own name's stale set, never the whole mark set.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compile import COMPILE_DISABLED_ENV
from repro.core.database import Database
from repro.dsl import compile_schema
from repro.dsl.query import compile_query
from repro.storage.codec import dump_database, restore_database

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=25,
)

SOURCE = """
object class item is
  attributes
    bucket : integer;
    score  : integer;
    twice  : integer;
    spare  : integer;
  rules
    twice = bucket * 2;
    spare = score + 1;
end object;

object class heavy_item subtype of item where score > 50 is
  attributes
    heavy : boolean;
  rules
    heavy = true;
end object;
"""

QUERIES = [
    "select item",
    "select item where bucket == 2",
    "select item where bucket == 2 and score > 30",
    "select item where score >= 40",
    "select item where score < 25 order by bucket",
    "select item order by score desc limit 3",
    "select item order by twice limit 4",
    "select item where twice == 4",
    "select heavy_item",
    "select heavy_item where bucket <= 2 order by score desc",
    # Two-sided windows: open, closed, flipped literal, equal bounds,
    # inverted, plus a residual, a looser third bound, a derived attribute
    # and a predicate subtype.
    "select item where score > 30 and score < 45",
    "select item where score >= 30 and score <= 45",
    "select item where 30 < score and score <= 45",
    "select item where score >= 30 and score <= 30",
    "select item where score > 45 and score < 30",
    "select item where score > 20 and score < 60 and bucket == 2",
    "select item where score > 10 and score < 70 and score >= 25 order by bucket",
    "select item where twice > 2 and twice <= 6",
    "select heavy_item where 55 <= score and score < 80",
]


def make_db():
    schema = compile_schema(SOURCE, freeze=False)
    for attr in ("bucket", "score", "twice"):
        schema.add_index("item", attr)
    schema.freeze()
    return Database(schema, pool_capacity=256), schema


def round_trip(db, schema):
    """Snapshot ``db`` through the codec and restore it, same engine mode."""
    image = dump_database(db)
    if db.slot_plans is not None:
        return restore_database(image, schema, pool_capacity=256)
    os.environ[COMPILE_DISABLED_ENV] = "1"
    try:
        return restore_database(image, schema, pool_capacity=256)
    finally:
        os.environ.pop(COMPILE_DISABLED_ENV, None)


def assert_stale_sets_exact(db):
    """Each watched name's stale set is exactly its slice of the mark set."""
    engine = db.engine
    watched = db.indexes.hot_names
    assert watched and set(engine.stale_by_name) == watched
    for name in watched:
        expected = {iid for (iid, n) in engine.out_of_date if n == name}
        assert engine.stale_by_name[name] == expected, name


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "create",
                "set_bucket",
                "set_score",
                "delete",
                "delete_undo",
                "round_trip",
                "query",
            ]
        ),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=1,
    max_size=40,
)


def run_script(db, schema, ops):
    """Apply the script, A/B-checking a query at every 'query' op.

    Undo and the codec round trip need a committed history, so inside an
    open transaction ``delete_undo`` is a plain delete and ``round_trip``
    is skipped.
    """
    live = []
    top_level = not db.txn.in_transaction
    for op, a, b in ops:
        if op == "delete_undo" and not top_level:
            op = "delete"
        if op == "create":
            live.append(db.create("item", bucket=a % 5, score=b))
        elif op == "set_bucket" and live:
            db.set_attr(live[a % len(live)], "bucket", b % 5)
        elif op == "set_score" and live:
            # Crossing 50 flips heavy_item membership.
            db.set_attr(live[a % len(live)], "score", b)
        elif op == "delete" and live:
            db.delete(live.pop(a % len(live)))
        elif op == "delete_undo" and live:
            db.delete(live[a % len(live)])
            assert_stale_sets_exact(db)
            db.undo()
        elif op == "round_trip" and top_level:
            db = round_trip(db, schema)
        elif op == "query":
            text = QUERIES[a % len(QUERIES)]
            query = compile_query(schema, text)
            assert query.run(db) == query.run_scan(db), text
        assert_stale_sets_exact(db)
    # Final sweep: every query in the battery agrees.
    for text in QUERIES:
        query = compile_query(schema, text)
        assert query.run(db) == query.run_scan(db), text


@given(ops=ops_strategy)
@settings(**COMMON)
def test_indexed_equals_scan_compiled_engine(ops):
    db, schema = make_db()
    run_script(db, schema, ops)


@given(ops=ops_strategy)
@settings(**COMMON)
def test_indexed_equals_scan_interpreted_engine(ops):
    os.environ[COMPILE_DISABLED_ENV] = "1"
    try:
        db, schema = make_db()
    finally:
        os.environ.pop(COMPILE_DISABLED_ENV, None)
    run_script(db, schema, ops)


@given(ops=ops_strategy)
@settings(**COMMON)
def test_transaction_rollback_keeps_indexes_consistent(ops):
    db, schema = make_db()
    seed = [db.create("item", bucket=i % 5, score=i * 13 % 100) for i in range(6)]
    try:
        with db.transaction("doomed"):
            run_script(db, schema, ops)
            raise RuntimeError("abandon")
    except RuntimeError:
        pass
    assert sorted(db.instances_of("item")) == sorted(seed)
    assert_stale_sets_exact(db)
    for text in QUERIES:
        query = compile_query(schema, text)
        assert query.run(db) == query.run_scan(db), text


class _UnscannableMarks(set):
    """A mark set that fails any walk over its members."""

    def __iter__(self):
        raise AssertionError("walked the whole out-of-date set")


BOUND_SOURCE = """
object class task is
  attributes
    work   : integer;
    due    : integer;
    finish : integer;
    late   : boolean;
  rules
    finish = work + 1;
    late = finish > due;
end object;

object class big_task subtype of task where work > 50 is
  attributes
    big : boolean;
  rules
    big = true;
end object;
"""

UNRELATED_MARKS = 10_000


def test_refresh_reads_only_its_own_stale_set():
    schema = compile_schema(BOUND_SOURCE, freeze=False)
    schema.add_index("task", "finish")
    schema.freeze()
    db = Database(schema, pool_capacity=4096)
    with db.batch():
        tasks = [
            db.create("task", work=i % 100, due=50) for i in range(UNRELATED_MARKS)
        ]
    index = db.indexes.attr_indexes[("task", "finish")]
    extent = db.indexes.extents["big_task"]
    db.indexes.refresh_attr_index(index)
    db.indexes.refresh_extent(extent)
    for iid in tasks:
        db.get_attr(iid, "late")
    # Every ``late`` slot goes stale (unwatched); three ``finish`` slots too.
    with db.batch():
        for iid in tasks:
            db.set_attr(iid, "due", 40)
        for iid in tasks[:3]:
            db.set_attr(iid, "work", 1000)
    engine = db.engine
    assert sum(1 for __, name in engine.out_of_date if name == "late") == (
        UNRELATED_MARKS
    )
    swept = db.indexes.stats.swept_slots
    engine.out_of_date = _UnscannableMarks(engine.out_of_date)
    db.indexes.refresh_attr_index(index)
    db.indexes.refresh_extent(extent)
    assert db.indexes.stats.swept_slots - swept == 3
    assert db.indexes.metrics()["stale"] == 0
    assert index.equal(1001) == sorted(tasks[:3])
    engine.out_of_date = set(engine.out_of_date)
    for text in ("select task where finish == 1001", "select big_task"):
        query = compile_query(schema, text)
        assert query.run(db) == query.run_scan(db), text
