"""Catalog & Dataset: versioning, copy-on-write, exact cache invalidation."""

import pytest

import repro
from repro.api import Catalog, Engine, QuerySpec
from repro.errors import CatalogError, SchemaError
from repro.relational import Dataset, Relation, RelationSchema

from ..helpers import make_random_pair


def tiny_schema():
    return RelationSchema.build(join=["g"], skyline=["x1", "x2"])


def tiny_relation(rows, name="T"):
    """Rows are (g, x1, x2) triples."""
    return Relation.from_records(
        tiny_schema(),
        [{"g": g, "x1": float(x1), "x2": float(x2)} for g, x1, x2 in rows],
        name=name,
    )


@pytest.fixture
def pair():
    return make_random_pair(seed=11, n=12, d=4, g=3)


# ----------------------------------------------------------------------
# Dataset: copy-on-write versioning
# ----------------------------------------------------------------------
class TestDataset:
    def test_insert_bumps_version_and_preserves_old_snapshot(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5)]))
        old = ds.relation
        assert ds.version == 1
        new = ds.insert_rows([{"g": 1, "x1": 2.0, "x2": 2.0}])
        assert ds.version == 2
        assert len(old) == 1  # old snapshot untouched (copy-on-write)
        assert len(new) == 2 and ds.relation is new

    def test_delete_rows(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5), (1, 6, 6), (2, 7, 7)]))
        new = ds.delete_rows([1])
        assert ds.version == 2
        assert [rec["x1"] for rec in new.records()] == [5.0, 7.0]

    def test_delete_out_of_range_raises_without_bump(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5)]))
        with pytest.raises(SchemaError, match="out of range"):
            ds.delete_rows([3])
        assert ds.version == 1

    def test_replace_swaps_relation(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5)]))
        ds.replace(tiny_relation([(2, 1, 1), (2, 2, 2)]))
        assert ds.version == 2 and len(ds) == 2

    def test_insert_validates_schema(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5)]))
        with pytest.raises(SchemaError):
            ds.insert_rows([{"g": 1, "x1": 2.0}])  # missing x2
        assert ds.version == 1

    def test_listeners_notified_per_mutation(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5)]))
        seen = []
        ds.subscribe(lambda d, delta: seen.append((delta.kind, delta.version)))
        ds.insert_rows([{"g": 1, "x1": 2.0, "x2": 2.0}])
        ds.delete_rows([0])
        assert seen == [("insert", 2), ("delete", 3)]

    def test_snapshot_is_consistent_pair(self):
        ds = Dataset("t", tiny_relation([(1, 5, 5)]))
        relation, version = ds.snapshot()
        assert relation is ds.relation and version == ds.version


# ----------------------------------------------------------------------
# Catalog: registration semantics
# ----------------------------------------------------------------------
class TestCatalog:
    def test_register_and_lookup(self, pair):
        cat = Catalog()
        ds = cat.register("left", pair[0])
        assert cat.get("left") is ds and cat["left"] is ds
        assert "left" in cat and "missing" not in cat
        assert cat.names() == ["left"] and cat.versions() == {"left": 1}

    def test_unknown_name_raises_with_known_names(self, pair):
        cat = Catalog()
        cat.register("left", pair[0])
        with pytest.raises(CatalogError, match="'left'"):
            cat.get("rigth")

    def test_reregister_identical_content_keeps_version(self, pair):
        cat = Catalog()
        ds = cat.register("left", pair[0])
        clone = make_random_pair(seed=11, n=12, d=4, g=3)[0]
        assert cat.register("left", clone) is ds
        assert ds.version == 1  # content-identical: caches stay warm

    def test_reregister_new_content_bumps_version(self, pair):
        cat = Catalog()
        ds = cat.register("left", pair[0])
        cat.register("left", pair[1])
        assert ds.version == 2 and ds.relation is pair[1]

    def test_register_dataset_name_mismatch(self, pair):
        cat = Catalog()
        with pytest.raises(CatalogError, match="must match"):
            cat.register("other", Dataset("left", pair[0]))

    def test_drop(self, pair):
        cat = Catalog()
        cat.register("left", pair[0])
        cat.drop("left")
        assert "left" not in cat
        with pytest.raises(CatalogError):
            cat.drop("left")

    def test_dropped_handle_no_longer_reaches_the_catalog(self, pair):
        """Mutating a dropped dataset through a handle the caller kept
        reaches neither the catalog's subscribers nor its engines."""
        eng = Engine()
        left = eng.register("L", pair[0])
        eng.register("R", pair[1])
        eng.query("L", "R").k(5).run()
        seen = []
        eng.catalog.subscribe(lambda ds, delta: seen.append((ds.name, delta.kind)))
        eng.catalog.drop("L")
        left.insert_rows([pair[0].record(0)])
        assert seen == []
        assert eng.cache_info()["invalidations"] == 0
        eng.catalog.get("R").insert_rows([pair[1].record(0)])
        assert seen == [("R", "insert")]  # the live dataset still fans out

    def test_drop_then_reregister_never_serves_stale_plans(self, pair):
        """Same name, new Dataset, both at version 1: the uid in the
        cache token keeps the old entries from colliding."""
        small = make_random_pair(seed=41, n=8, d=4, g=2)
        eng = Engine()
        eng.register("L", small[0])
        eng.register("R", small[1])
        stale = eng.plan("L", "R")
        eng.catalog.drop("L")
        eng.register("L", pair[0])  # fresh Dataset, also version 1
        fresh = eng.plan("L", "R")
        assert fresh is not stale
        assert len(fresh.left) == len(pair[0])

    def test_subscribers_are_weak(self, pair):
        """A shared catalog must not keep dead engines (and their
        caches) alive, and mutations must survive their collection."""
        import gc
        import weakref

        cat = Catalog()
        ds = cat.register("L", pair[0])
        cat.register("R", pair[1])
        eng = Engine(catalog=cat)
        eng.query("L", "R").k(5).run()
        ref = weakref.ref(eng)
        del eng
        gc.collect()
        assert ref() is None
        ds.insert_rows([pair[0].record(0)])  # fan-out past the dead engine


# ----------------------------------------------------------------------
# Engine x catalog: query by name, exact invalidation
# ----------------------------------------------------------------------
class TestEngineCatalog:
    def test_query_by_name_matches_query_by_relation(self, pair):
        eng = Engine()
        eng.register("L", pair[0])
        eng.register("R", pair[1])
        by_name = eng.query("L", "R").k(5).run()
        by_rel = Engine().query(*pair).k(5).run()
        assert by_name.pair_set() == by_rel.pair_set()

    def test_unregistered_name_fails_fast(self):
        with pytest.raises(CatalogError, match="register"):
            Engine().query("nope", "nada").k(5).run()

    def test_named_plans_hit_cache_without_fingerprinting(self, pair):
        eng = Engine()
        eng.register("L", pair[0])
        eng.register("R", pair[1])
        eng.query("L", "R").k(5).run()
        eng.query("L", "R").k(6).run()
        info = eng.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_mutation_invalidates_exactly_affected_entries(self, pair):
        other = make_random_pair(seed=12, n=10, d=4, g=2)
        eng = Engine()
        ds = eng.register("L", pair[0])
        eng.register("R", pair[1])
        eng.register("L2", other[0])
        eng.register("R2", other[1])
        eng.query("L", "R").k(5).run()
        eng.query("L2", "R2").k(5).run()
        assert eng.cache_info()["size"] == 2
        ds.insert_rows([pair[0].record(0)])
        info = eng.cache_info()
        # only the ("L", "R") plan is gone; ("L2", "R2") survives
        assert info["invalidations"] == 1 and info["size"] == 1
        eng.query("L2", "R2").k(6).run()
        assert eng.cache_info()["hits"] == 1  # survivor still serves

    def test_acceptance_mutation_cycle(self):
        """Register -> execute (miss) -> re-execute (hit) -> insert_rows
        changing the KSJQ answer -> re-execute returns the new answer
        with a recorded invalidation."""
        left = tiny_relation([(1, 5, 5), (1, 6, 6)], name="L")
        right = tiny_relation([(1, 5, 5)], name="R")
        eng = Engine(max_results=8)
        ds = eng.register("L", left)
        eng.register("R", right)
        spec = QuerySpec.for_ksjq(k=3)

        first = eng.execute("L", "R", spec)
        info = eng.cache_info()
        assert info["misses"] == 1 and info["results"]["misses"] == 1
        assert first.pair_set() == {(0, 0)}  # (5,5) 3-dominates (6,6)

        again = eng.execute("L", "R", spec)
        info = eng.cache_info()
        assert again is first  # result-cache hit: no algorithm ran
        assert info["results"]["hits"] == 1 and info["misses"] == 1

        # A strictly better tuple changes the 3-dominant skyline join.
        ds.insert_rows([{"g": 1, "x1": 1.0, "x2": 1.0}])
        info = eng.cache_info()
        assert info["invalidations"] == 1
        assert info["results"]["invalidations"] == 1

        fresh = eng.execute("L", "R", spec)
        assert fresh.pair_set() == {(2, 0)}  # the new row took over
        assert fresh.pair_set() != first.pair_set()
        info = eng.cache_info()
        assert info["misses"] == 2  # plan was rebuilt for v2

    def test_result_cache_bounded_lru(self, pair):
        eng = Engine(max_results=2)
        eng.register("L", pair[0])
        eng.register("R", pair[1])
        for k in (5, 6, 7):
            eng.execute("L", "R", QuerySpec.for_ksjq(k=k))
        info = eng.cache_info()["results"]
        assert info["size"] == 2 and info["evictions"] == 1
        # k=5 (least recently used) was evicted: re-running it misses.
        eng.execute("L", "R", QuerySpec.for_ksjq(k=5))
        assert eng.cache_info()["results"]["misses"] == 4

    def test_result_cache_keys_anonymous_relations_by_content(self, pair):
        eng = Engine(max_results=4)
        first = eng.execute(*pair, QuerySpec.for_ksjq(k=5))
        clone = make_random_pair(seed=11, n=12, d=4, g=3)
        assert eng.execute(*clone, QuerySpec.for_ksjq(k=5)) is first

    def test_counters_under_register_mutate_cycles(self, pair):
        """Repeated register/mutate cycles: every version change costs
        exactly one invalidation + one rebuild, and size stays at 1."""
        eng = Engine()
        ds = eng.register("L", pair[0])
        eng.register("R", pair[1])
        for cycle in range(1, 4):
            eng.query("L", "R").k(5).run()
            eng.query("L", "R").k(6).run()
            info = eng.cache_info()
            assert info["misses"] == cycle
            assert info["hits"] == cycle
            assert info["size"] == 1
            assert info["invalidations"] == cycle - 1
            ds.insert_rows([pair[0].record(0)])
        assert eng.cache_info()["invalidations"] == 3

    def test_shared_catalog_invalidates_every_engine(self, pair):
        cat = Catalog()
        eng_a = Engine(catalog=cat)
        eng_b = Engine(catalog=cat)
        ds = cat.register("L", pair[0])
        cat.register("R", pair[1])
        eng_a.query("L", "R").k(5).run()
        eng_b.query("L", "R").k(5).run()
        ds.insert_rows([pair[0].record(0)])
        assert eng_a.cache_info()["invalidations"] == 1
        assert eng_b.cache_info()["invalidations"] == 1


# ----------------------------------------------------------------------
# QueryHandle: prepared queries over live datasets
# ----------------------------------------------------------------------
class TestQueryHandle:
    def test_handle_tracks_freshness_across_mutations(self, pair):
        eng = Engine()
        ds = eng.register("L", pair[0])
        eng.register("R", pair[1])
        handle = eng.prepare("L", "R", QuerySpec.for_ksjq(k=5))
        assert not handle.is_fresh() and handle.last_result is None

        first = handle.execute()
        assert handle.is_fresh()
        cached = handle.refresh()
        assert cached is first  # fresh: no re-execution

        ds.insert_rows([pair[0].record(0)])
        assert not handle.is_fresh()
        renewed = handle.refresh()
        assert handle.is_fresh() and renewed is not first
        assert renewed.source.left is ds.relation  # latest snapshot

    def test_builder_prepare_terminal(self, pair):
        eng = Engine()
        eng.register("L", pair[0])
        eng.register("R", pair[1])
        handle = eng.query("L", "R").k(5).prepare()
        assert handle.spec.k == 5
        assert handle.execute().pair_set() == eng.query("L", "R").k(5).run().pair_set()

    def test_anonymous_relations_are_always_fresh_after_execute(self, pair):
        handle = Engine().prepare(*pair, spec=QuerySpec.for_ksjq(k=5))
        handle.execute()
        assert handle.is_fresh()  # immutable inputs cannot go stale

    def test_repr_states_lifecycle(self, pair):
        eng = Engine()
        eng.register("L", pair[0])
        eng.register("R", pair[1])
        handle = eng.prepare("L", "R", QuerySpec.for_ksjq(k=5))
        assert "unexecuted" in repr(handle)
        handle.execute()
        assert "fresh" in repr(handle)


# ----------------------------------------------------------------------
# Facade interop
# ----------------------------------------------------------------------
class TestFacadeInterop:
    def test_ksjq_facade_accepts_names_via_engine(self, pair):
        eng = Engine()
        eng.register("L", pair[0])
        eng.register("R", pair[1])
        res = repro.ksjq("L", "R", k=5, engine=eng)
        assert res.pair_set() == eng.query(*pair).k(5).run().pair_set()

    def test_dataset_handle_usable_as_input(self, pair):
        eng = Engine()
        ds_l = eng.register("L", pair[0])
        ds_r = eng.register("R", pair[1])
        res = eng.query(ds_l, ds_r).k(5).run()
        assert res.pair_set() == Engine().query(*pair).k(5).run().pair_set()
        assert eng.cache_info()["misses"] == 1
        # handles key like their names: a name query hits the same plan
        eng.query("L", "R").k(6).run()
        assert eng.cache_info()["hits"] == 1
