"""The index-backed query planner.

Every test asserts two things: the planner picked the expected access
path, and the result is identical to :meth:`Query.run_scan` -- the naive
reference the indexed paths must reproduce byte for byte.
"""

import pytest

from repro.core.database import Database
from repro.core.predicates import Predicate
from repro.dsl import compile_schema
from repro.dsl.query import compile_query, run_query
from repro.errors import QueryError
from repro.index import INDEX_DISABLED_ENV
from repro.obs.events import IndexSweep, QueryPlanned

SOURCE = """
object class item is
  attributes
    bucket : integer;
    score  : integer;
    tag    : string;
    twice  : integer;
    oddly  : any;
  rules
    twice = bucket * 2;
    oddly = mixup(score);
end object;

object class heavy_item subtype of item where score > 50 is
  attributes
    heavy : boolean;
  rules
    heavy = true;
end object;
"""


def mixup(score):
    # Values of three incomparable kinds, keyed off the score.
    if score % 7 == 0:
        return None
    if score % 3 == 0:
        return f"s{score}"
    return score


@pytest.fixture
def db():
    schema = compile_schema(SOURCE, functions={"mixup": mixup}, freeze=False)
    for attr in ("bucket", "score", "twice", "oddly"):
        schema.add_index("item", attr)
    schema.freeze()
    db = Database(schema, pool_capacity=256)
    for i in range(120):
        db.create("item", bucket=i % 10, score=(i * 37) % 97, tag=f"t{i % 4}")
    return db


def check(db, text, path, **kwargs):
    """Plan, assert the access path, and A/B run() against run_scan()."""
    query = compile_query(db.schema, text, **kwargs)
    plan = query.plan(db)
    assert plan.access_path == path, (text, plan.access_path)
    assert query.run(db) == query.run_scan(db)
    return plan


class TestAccessPaths:
    def test_equality_uses_index(self, db):
        plan = check(db, "select item where bucket == 3", "index_eq")
        assert plan.cost < plan.scan_cost

    def test_range_uses_index(self, db):
        check(db, "select item where score >= 90", "index_range")
        check(db, "select item where score < 4", "index_range")
        check(db, "select item where 90 <= score", "index_range")

    def test_order_by_walks_index(self, db):
        plan = check(db, "select item order by score desc limit 5", "index_order")
        assert db.indexes.stats.short_circuits >= 1
        check(db, "select item order by score", "index_order")

    def test_unindexed_attribute_scans(self, db):
        check(db, "select item where tag == \"t1\"", "scan")

    def test_select_all_scans(self, db):
        check(db, "select item", "scan")

    def test_residual_conjuncts_filter_index_hits(self, db):
        check(
            db,
            "select item where bucket == 3 and score > 40 and tag <> \"t0\"",
            "index_eq",
        )

    def test_planner_prefers_cheaper_sarg(self, db):
        # score == 0 hits ~1 instance, bucket == 0 hits 12: the planner
        # must probe the more selective index.
        plan = check(db, "select item where bucket == 0 and score == 0", "index_eq")
        assert plan.sarg.attr == "score"

    def test_derived_attribute_index(self, db):
        plan = check(db, "select item where twice == 6", "index_eq")
        assert plan.index.derived

    def test_extent_answers_predicate_class(self, db):
        check(db, "select heavy_item", "extent")

    def test_supertype_index_serves_predicate_subtype(self, db):
        run_query(db, "select heavy_item")  # resolve the extent first
        plan = check(db, "select heavy_item where bucket == 4", "index_eq")
        assert plan.index.class_name == "item"


def spy_on_views(monkeypatch):
    """Record ``(predicate, iid)`` for every ``Predicate.on_view`` call."""
    seen = []
    original = Predicate.on_view

    def on_view(self, view):
        seen.append((self, view.iid))
        return original(self, view)

    monkeypatch.setattr(Predicate, "on_view", on_view)
    return seen


class TestTwoSidedRanges:
    def test_window_examines_only_in_window_candidates(self, db, monkeypatch):
        text = 'select item where score > 40 and score < 60 and tag <> "t0"'
        plan = check(db, text, "index_range")
        assert (plan.sarg.op, plan.sarg.value, plan.sarg.upper) == (">", 40, ("<", 60))
        in_window = sorted(
            i for i in db.instances_of("item") if 40 < db.get_attr(i, "score") < 60
        )
        seen = spy_on_views(monkeypatch)
        plan = compile_query(db.schema, text).plan(db)
        result = plan.execute()
        assert [iid for __, iid in seen] == in_window
        assert {predicate for predicate, __ in seen} == {plan.sarg.residual}
        assert plan.examined == plan.estimated == len(in_window)
        assert result == compile_query(db.schema, text).run_scan(db)

    def test_flipped_literal_and_tightest_bounds_pair(self, db):
        plan = check(db, "select item where 40 < score and score <= 60", "index_range")
        assert (plan.sarg.op, plan.sarg.value, plan.sarg.upper) == (">", 40, ("<=", 60))
        assert plan.sarg.residual is None
        plan = check(
            db,
            "select item where score > 10 and score >= 40 and score < 90 "
            "and score < 60 and score <= 60",
            "index_range",
        )
        assert (plan.sarg.op, plan.sarg.value, plan.sarg.upper) == (">=", 40, ("<", 60))

    def test_inverted_window_examines_no_one(self, db, monkeypatch):
        text = 'select item where score > 60 and score < 40 and tag <> "t0"'
        check(db, text, "index_range")
        seen = spy_on_views(monkeypatch)
        plan = compile_query(db.schema, text).plan(db)
        assert plan.execute() == []
        assert seen == [] and plan.examined == 0

    def test_mixed_type_keys_degrade_two_sided_to_scan(self, db):
        run_query(db, "select item where oddly == 37")  # resolve the index
        query = compile_query(db.schema, "select item where oddly > 10 and oddly < 50")
        assert any(sarg.upper is not None for sarg in query.sargs)
        assert query.plan(db).access_path == "scan"
        with pytest.raises(TypeError):
            query.run_scan(db)
        with pytest.raises(TypeError):
            query.run(db)

    def test_mixed_literal_groups_get_no_two_sided_sarg(self, db):
        query = compile_query(
            db.schema, 'select item where score > 10 and score < 50 and score < "z"'
        )
        assert all(sarg.upper is None for sarg in query.sargs)


class _CountingBuckets(dict):
    """A bucket mapping that counts every lookup."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


DISTINCT_KEYS = 10_000


def test_range_pricing_reads_only_the_shorter_side():
    schema = compile_schema(
        "object class row is attributes score : integer; end object;", freeze=False
    )
    schema.add_index("row", "score")
    schema.freeze()
    db = Database(schema, pool_capacity=1024)
    with db.batch():
        for i in range(DISTINCT_KEYS):
            db.create("row", score=i)
    index = db.indexes.attr_indexes[("row", "score")]
    index.buckets = _CountingBuckets(index.buckets)
    plan = compile_query(schema, "select row where score > 5").plan(db)
    # Keys 0..5 are the shorter side of the cut.
    assert index.buckets.reads <= 6
    assert plan.estimated == DISTINCT_KEYS - 6
    index.buckets.reads = 0
    plan = compile_query(schema, "select row where score > 5 and score < 9990").plan(db)
    # Each sarg reads at most its shorter side: 6, 10 and 6 + 10 buckets.
    assert index.buckets.reads <= 2 * (6 + 10)
    assert plan.sarg.upper == ("<", 9990)
    assert plan.estimated == 9990 - 6


class TestSoundnessFallbacks:
    def test_mixed_type_keys_degrade_range_to_scan(self, db):
        # oddly holds ints, strings, and Nones: no ordered probe is sound.
        query = compile_query(db.schema, "select item where oddly > 10")
        run_query(db, "select item where oddly == 37")  # resolve the index
        plan = query.plan(db)
        assert plan.access_path == "scan"
        with pytest.raises(TypeError):
            query.run_scan(db)
        with pytest.raises(TypeError):
            query.run(db)

    def test_mixed_type_equality_still_indexed(self, db):
        # Equality never compares across keys, so it stays sound.
        check(db, "select item where oddly == 37", "index_eq")

    def test_order_by_mixed_attribute_raises_query_error_both_paths(self, db):
        query = compile_query(db.schema, "select item order by oddly")
        with pytest.raises(QueryError) as scan_err:
            query.run_scan(db)
        with pytest.raises(QueryError) as run_err:
            query.run(db)
        assert str(scan_err.value) == str(run_err.value)

    def test_disabled_indexes_fall_back_to_scan(self, db, monkeypatch):
        monkeypatch.setenv(INDEX_DISABLED_ENV, "1")
        schema = compile_schema(SOURCE, functions={"mixup": mixup}, freeze=False)
        schema.add_index("item", "bucket")
        schema.freeze()
        plain = Database(schema)
        for i in range(20):
            plain.create("item", bucket=i % 3, score=i)
        query = compile_query(schema, "select item where bucket == 1")
        assert query.plan(plain).access_path == "scan"
        assert query.run(plain) == query.run_scan(plain)


class TestFreshness:
    def test_index_sees_updates_between_runs(self, db):
        query = compile_query(db.schema, "select item where bucket == 3")
        before = query.run(db)
        moved = before[0]
        db.set_attr(moved, "bucket", 4)
        after = query.run(db)
        assert moved not in after
        assert after == query.run_scan(db)

    def test_derived_index_swept_lazily(self, db):
        query = compile_query(db.schema, "select item where twice == 8")
        baseline = query.run(db)
        target = db.instances_of("item")[0]
        db.set_attr(target, "bucket", 4)  # twice -> 8, lazily
        result = query.run(db)
        assert target in result
        assert result == query.run_scan(db)
        assert baseline != result

    def test_extent_tracks_flips_between_runs(self, db):
        query = compile_query(db.schema, "select heavy_item")
        before = set(query.run(db))
        light = next(
            i for i in db.instances_of("item") if db.get_attr(i, "score") <= 50
        )
        db.set_attr(light, "score", 99)
        after = set(query.run(db))
        assert light not in before and light in after
        assert sorted(after) == query.run_scan(db)


class TestObservability:
    def test_query_planned_and_sweep_events(self, db):
        events = []
        db.obs.hub.subscribe(events.append)
        run_query(db, "select item where twice == 6")
        planned = [e for e in events if isinstance(e, QueryPlanned)]
        assert planned and planned[0].access_path == "index_eq"
        assert planned[0].index_attr == "twice"
        assert planned[0].cost <= planned[0].scan_cost
        # Every ``twice`` slot was still pending, so the estimate counted
        # all 120 as possible hits; once swept it is exact.
        assert (planned[0].estimated, planned[0].examined) == (120, 12)
        run_query(db, "select item where twice == 6")
        planned = [e for e in events if isinstance(e, QueryPlanned)]
        assert planned[1].estimated == planned[1].examined == 12

    def test_misestimates_counted_past_twice(self, db):
        stats = db.indexes.stats
        base = stats.plan_misestimates
        run_query(db, "select item where score > 40 and score < 60")
        assert stats.plan_misestimates == base
        # An ordered walk priced at every instance stops after a few.
        plan = compile_query(
            db.schema, 'select item where tag <> "t0" order by score desc limit 3'
        ).plan(db)
        assert plan.access_path == "index_order"
        plan.execute()
        assert plan.examined < plan.estimated // 2
        assert stats.plan_misestimates == base + 1

    def test_stats_count_paths(self, db):
        stats = db.indexes.stats
        base = stats.queries
        run_query(db, "select item where bucket == 1")
        run_query(db, "select heavy_item")
        run_query(db, "select item where tag == \"t0\"")
        assert stats.queries == base + 3
        assert stats.indexed_queries >= 1
        assert stats.extent_queries >= 1
        assert stats.scan_queries >= 1


class TestNoCompileEngine:
    def test_planner_consistent_without_compiled_rules(self, monkeypatch):
        from repro.compile import COMPILE_DISABLED_ENV

        monkeypatch.setenv(COMPILE_DISABLED_ENV, "1")
        schema = compile_schema(SOURCE, functions={"mixup": mixup}, freeze=False)
        schema.add_index("item", "twice")
        schema.freeze()
        db = Database(schema)
        for i in range(30):
            db.create("item", bucket=i % 5, score=i)
        query = compile_query(schema, "select item where twice == 4")
        assert query.plan(db).access_path == "index_eq"
        assert query.run(db) == query.run_scan(db)
