"""Unit tests for repro.core.cascade (m-way KSJQ, paper Sec. 2.3)."""

import numpy as np
import pytest

from repro.core import Hop, JoinPlan, cascade_ksjq
from repro.core.cascade import cascade_chains, cascade_oriented
from repro.core.plan import CascadePlan
from repro.errors import JoinError, ParameterError
from repro.relational import Relation, RelationSchema, ThetaCondition, ThetaOp
from repro.skyline import k_dominant_skyline_naive

from ..helpers import make_random_pair


def _leg(n, seed, name, a=0, cities_in=None, cities_out=None):
    """A flight-leg relation with distinct incoming/outgoing cities."""
    rng = np.random.default_rng(seed)
    d = 3
    names = [f"s{i}" for i in range(d)]
    schema = RelationSchema.build(
        skyline=names,
        aggregate=names[:a],
        payload=["src", "dst"],
    )
    cities_in = cities_in or ["A"]
    cities_out = cities_out or ["B", "C"]
    columns = {
        name: np.floor(rng.uniform(0, 4, n)) for name in names
    }
    columns["src"] = [cities_in[i % len(cities_in)] for i in range(n)]
    columns["dst"] = [cities_out[i % len(cities_out)] for i in range(n)]
    return Relation(schema, columns, name=name)


def brute_force_cascade(relations, hops, k, aggregate=None):
    chains = cascade_chains(relations, hops)
    from repro.relational.aggregates import get_aggregate
    from repro.skyline import k_dominant_skyline_naive

    agg = get_aggregate(aggregate) if aggregate else None
    matrix = cascade_oriented(relations, chains, agg)
    idx = k_dominant_skyline_naive(matrix, k)
    return frozenset(tuple(int(x) for x in chains[i]) for i in idx)


HOPS = [Hop("dst", "src"), Hop("dst", "src")]


class TestChainEnumeration:
    def test_hops_respected(self):
        r1 = _leg(6, 1, "L1", cities_out=["X", "Y"])
        r2 = _leg(6, 2, "L2", cities_in=["X", "Y"], cities_out=["Z"])
        r3 = _leg(4, 3, "L3", cities_in=["Z"], cities_out=["B"])
        chains = cascade_chains([r1, r2, r3], HOPS)
        dst1 = list(r1.column("dst"))
        src2 = list(r2.column("src"))
        dst2 = list(r2.column("dst"))
        src3 = list(r3.column("src"))
        assert chains.shape[1] == 3
        for c1, c2, c3 in chains.tolist():
            assert dst1[c1] == src2[c2]
            assert dst2[c2] == src3[c3]

    def test_two_way_default_hop_matches_joinplan(self):
        import repro

        left, right = make_random_pair(seed=70, n=10, d=3, g=3)
        chains = cascade_chains([left, right])
        plan = repro.make_plan(left, right)
        assert set(map(tuple, chains.tolist())) == set(
            map(tuple, plan.view().pairs.tolist())
        )

    @pytest.mark.parametrize("kind", ["equality", "cartesian", "theta", "conjunction"])
    def test_two_way_view_is_the_one_hop_cascade(self, kind):
        left, right = make_random_pair(seed=75, n=12, d=3, g=3)
        theta = {
            "theta": ThetaCondition("s0", ThetaOp.LT, "s1"),
            "conjunction": [
                ThetaCondition("s0", ThetaOp.LE, "s1"),
                ThetaCondition("s2", ThetaOp.GT, "s0"),
            ],
        }.get(kind)
        plan = JoinPlan(left, right, kind="theta" if theta else kind, theta=theta)
        chains = cascade_chains([left, right], [plan.hop])
        assert chains.shape[0] > 0
        np.testing.assert_array_equal(plan.view().pairs, chains)
        assert chains.tolist() == sorted(chains.tolist())  # lexicographic

    def test_keep_restriction(self):
        r1 = _leg(6, 1, "L1", cities_out=["X"])
        r2 = _leg(6, 2, "L2", cities_in=["X"], cities_out=["Z"])
        chains = cascade_chains([r1, r2], [Hop("dst", "src")], keep=[[0, 1], [2]])
        assert all(c1 in (0, 1) and c2 == 2 for c1, c2 in chains.tolist())

    def test_empty_join(self):
        r1 = _leg(4, 1, "L1", cities_out=["X"])
        r2 = _leg(4, 2, "L2", cities_in=["Q"], cities_out=["Z"])
        chains = cascade_chains([r1, r2], [Hop("dst", "src")])
        assert chains.shape == (0, 2)

    def test_hop_count_validation(self):
        r1, r2 = make_random_pair(seed=71, n=6, d=3, g=2)
        with pytest.raises(JoinError, match="hops"):
            cascade_chains([r1, r2], [Hop(), Hop()])


def _agg_leg(name, skyline, seed, n=8):
    """A leg whose skyline lists ``cost`` and ``dur`` (both aggregated)
    in the given order; costs are hundreds, durations units."""
    rng = np.random.default_rng(seed)
    scale = {"cost": 100.0, "dur": 1.0}
    schema = RelationSchema.build(
        join=["g"], skyline=skyline, aggregate=["cost", "dur"]
    )
    columns = {
        attr: np.floor(rng.uniform(1, 6, n)) * scale.get(attr, 1.0) for attr in skyline
    }
    columns["g"] = [i % 2 for i in range(n)]
    return Relation(schema, columns, name=name)


class TestAggregatePairing:
    """Cascades pair aggregate inputs by name, as the two-way join and
    ``validate_compatible_aggregates`` do, whatever each schema's order."""

    def test_two_leg_cascade_vectors_equal_the_two_way_view(self):
        schema_l = RelationSchema.build(
            join=["g"], skyline=["cost", "dur", "x"], aggregate=["cost", "dur"]
        )
        schema_r = RelationSchema.build(
            join=["g"], skyline=["dur", "cost", "y"], aggregate=["dur", "cost"]
        )
        l = Relation(schema_l, {"g": [0], "cost": [100.0], "dur": [1.0], "x": [5.0]})
        r = Relation(schema_r, {"g": [0], "dur": [3.0], "cost": [300.0], "y": [7.0]})
        vectors = CascadePlan([l, r], aggregate="sum").oriented()
        assert vectors.tolist() == [[5.0, 7.0, 400.0, 4.0]]

        l = _agg_leg("L", ["cost", "dur", "x"], seed=1)
        r = _agg_leg("R", ["dur", "cost", "y"], seed=2)
        np.testing.assert_array_equal(
            CascadePlan([l, r], aggregate="sum").oriented(),
            JoinPlan(l, r, aggregate="sum").view().oriented(),
        )

    def test_three_leg_naive_answer_matches_hand_summed_bruteforce(self):
        legs = [
            _agg_leg("A", ["cost", "dur", "x"], seed=10),
            _agg_leg("B", ["dur", "cost", "y"], seed=11),
            _agg_leg("C", ["z", "dur", "cost"], seed=12),
        ]
        a, b, c = legs
        chains, vectors = [], []
        for i in range(len(a)):
            for j in range(len(b)):
                for t in range(len(c)):
                    if not a.join_key(i) == b.join_key(j) == c.join_key(t):
                        continue
                    recs = [a.record(i), b.record(j), c.record(t)]
                    chains.append((i, j, t))
                    vectors.append(
                        [recs[0]["x"], recs[1]["y"], recs[2]["z"]]
                        + [sum(rec[attr] for rec in recs) for attr in ("cost", "dur")]
                    )
        k = 5  # the joined width: 3 locals + 2 aggregates
        expected = {chains[i] for i in k_dominant_skyline_naive(np.asarray(vectors), k)}
        result = cascade_ksjq(legs, k, aggregate="sum", algorithm="naive")
        assert expected and result.chain_set() == expected


class TestCascadeKsjq:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("a", [0, 1])
    def test_pruned_matches_naive_three_way(self, seed, a):
        r1 = _leg(8, seed, "L1", a=a, cities_out=["X", "Y"])
        r2 = _leg(8, seed + 100, "L2", a=a, cities_in=["X", "Y"], cities_out=["Z", "W"])
        r3 = _leg(8, seed + 200, "L3", a=a, cities_in=["Z", "W"], cities_out=["B"])
        agg = "sum" if a else None
        # joined d = 3 locals x3 relations - adjustments for aggregates
        joined_d = sum(r.schema.l for r in (r1, r2, r3)) + a
        k = joined_d - 1
        expected = brute_force_cascade([r1, r2, r3], HOPS, k, agg)
        naive = cascade_ksjq([r1, r2, r3], k, hops=HOPS, aggregate=agg,
                             algorithm="naive")
        pruned = cascade_ksjq([r1, r2, r3], k, hops=HOPS, aggregate=agg,
                              algorithm="pruned")
        assert naive.chain_set() == expected
        assert pruned.chain_set() == expected

    def test_theta_hops_prune_by_the_superset_rule(self):
        """A theta-hop row is pruned when a row joining at least its
        partners on both hops dominates it (paper Sec. 6.6), even though
        their hop values differ, so grouping rows by equal hop values
        would keep it."""
        schema = RelationSchema.build(skyline=["x", "y"], payload=["arr", "dep"])

        def leg(xs, ys, arr, dep):
            return Relation(schema, {"x": xs, "y": ys, "arr": arr, "dep": dep})

        legs = [
            leg([0.0, 2.0], [0.0, 2.0], [5.0, 7.0], [0.0, 0.0]),
            # Row 0 departs later and arrives earlier than rows 1 and 2.
            leg([0.0, 1.0, 3.0], [0.0, 1.0, 0.0], [12.0, 14.0, 13.0], [10.0, 8.0, 9.0]),
            leg([0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [20.0, 30.0]),
        ]
        hops = [ThetaCondition("arr", ThetaOp.LT, "dep")] * 2
        plan = CascadePlan(legs, hops)
        keep, pruned = plan.pruned_keep(5)
        assert [rows.tolist() for rows in keep] == [[0], [0], [0, 1]]
        assert pruned == 3
        result = cascade_ksjq(legs, 5, hops=hops, algorithm="pruned")
        assert result.pruned_rows == 3
        assert result.chain_set() == brute_force_cascade(legs, hops, 5)
        assert result.chain_set() == cascade_ksjq(legs, 5, hops=hops, algorithm="naive").chain_set()

    def test_two_way_cascade_matches_ksjq(self):
        import repro

        left, right = make_random_pair(seed=72, n=12, d=4, g=3)
        result = cascade_ksjq([left, right], k=6, algorithm="pruned")
        base = repro.ksjq(left, right, k=6, algorithm="naive")
        assert result.chain_set() == {
            (int(u), int(v)) for u, v in base.pairs
        }

    def test_pruning_reported(self):
        r1 = _leg(12, 9, "L1", cities_out=["X"])
        r2 = _leg(12, 10, "L2", cities_in=["X"], cities_out=["B"])
        result = cascade_ksjq([r1, r2], k=5, hops=[Hop("dst", "src")])
        assert result.pruned_rows >= 0
        assert result.total_chains == 144

    def test_k_validation(self):
        r1, r2 = make_random_pair(seed=73, n=6, d=3, g=2)
        with pytest.raises(ParameterError, match="cascade range"):
            cascade_ksjq([r1, r2], k=3)
        with pytest.raises(ParameterError, match="cascade range"):
            cascade_ksjq([r1, r2], k=7)

    def test_needs_two_relations(self):
        r1, _ = make_random_pair(seed=74, n=6, d=3, g=2)
        with pytest.raises(JoinError, match="at least two"):
            cascade_ksjq([r1], k=4)

    def test_aggregate_function_required(self):
        r1 = _leg(4, 11, "L1", a=1, cities_out=["X"])
        r2 = _leg(4, 12, "L2", a=1, cities_in=["X"], cities_out=["B"])
        with pytest.raises(JoinError, match="aggregate"):
            cascade_ksjq([r1, r2], k=4, hops=[Hop("dst", "src")])

    def test_weak_aggregate_requires_naive(self):
        r1 = _leg(4, 13, "L1", a=1, cities_out=["X"])
        r2 = _leg(4, 14, "L2", a=1, cities_in=["X"], cities_out=["B"])
        with pytest.raises(ParameterError, match="strictly monotone"):
            cascade_ksjq([r1, r2], k=4, hops=[Hop("dst", "src")], aggregate="max",
                         algorithm="pruned")
        result = cascade_ksjq([r1, r2], k=4, hops=[Hop("dst", "src")],
                              aggregate="max", algorithm="naive")
        assert result.count >= 0

    def test_unknown_algorithm(self):
        r1, r2 = make_random_pair(seed=75, n=6, d=3, g=2)
        with pytest.raises(ParameterError, match="unknown cascade algorithm"):
            cascade_ksjq([r1, r2], k=4, algorithm="magic")
