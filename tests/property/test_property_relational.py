"""Property-based tests for the relational substrate (hypothesis)."""

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    HopJoin,
    HopSpec,
    Relation,
    RelationSchema,
    ThetaCondition,
    ThetaOp,
    read_csv,
    write_csv,
)


@st.composite
def relations(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=15))
    higher = draw(st.booleans())
    names = [f"s{i}" for i in range(d)]
    schema = RelationSchema.build(
        join=["g"],
        skyline=names,
        higher_is_better=names[:1] if higher else [],
        payload=["tag"],
    )
    columns = {
        name: [
            float(draw(st.integers(min_value=-50, max_value=50))) for _ in range(n)
        ]
        for name in names
    }
    columns["g"] = [draw(st.sampled_from(["a", "b", "c"])) for _ in range(n)]
    columns["tag"] = [f"t{i}" for i in range(n)]
    return Relation(schema, columns)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_csv_roundtrip(tmp_path_factory, rel):
    path = tmp_path_factory.mktemp("csv") / "rel.csv"
    write_csv(rel, path)
    back = read_csv(rel.schema, path)
    assert back.records() == rel.records()


@given(relations())
@settings(max_examples=50, deadline=None)
def test_oriented_orientation_contract(rel):
    """Oriented values equal raw values times the preference sign."""
    oriented = rel.oriented()
    signs = rel.schema.preference_signs()
    for j, sign in enumerate(signs):
        np.testing.assert_allclose(oriented[:, j], rel.matrix[:, j] * sign)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_take_preserves_records(rel):
    if len(rel) == 0:
        return
    rows = list(range(len(rel) - 1, -1, -2))  # reversed stride-2 subset
    sub = rel.take(rows)
    assert len(sub) == len(rows)
    for pos, row in enumerate(rows):
        assert sub.record(pos) == rel.record(row)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_sort_by_is_stable_permutation(rel):
    if rel.schema.d == 0 or len(rel) == 0:
        return
    key = rel.schema.skyline_names[0]
    out = rel.sort_by(key)
    assert sorted(map(tuple, out.matrix.tolist())) == sorted(
        map(tuple, rel.matrix.tolist())
    )
    values = [rec[key] for rec in out.records()]
    assert values == sorted(values)


@given(relations())
@settings(max_examples=50, deadline=None)
def test_group_index_partitions(rel):
    # Join groups are the classes of equal equality keys: two rows share
    # a class exactly when their composite join keys are equal, and each
    # row's stand-ins are its class.
    key = HopJoin(HopSpec(), rel, rel).substitution_keys()[0]
    keys = rel.join_keys()
    for row in range(len(rel)):
        stand_ins = np.flatnonzero((key <= key[row]).all(axis=1)).tolist()
        assert row in stand_ins
        assert stand_ins == [r for r in range(len(rel)) if keys[r] == keys[row]]
        assert stand_ins == np.flatnonzero((key == key[row]).all(axis=1)).tolist()


_HOP_SCHEMA = RelationSchema.build(join=["g"], skyline=["s0", "s1"], payload=["t"])
_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@st.composite
def hop_cases(draw):
    """A hop of every kind over two small relations with tied values,
    plus random row subsets (repeats, empty sides, or every row)."""

    def side(n):
        columns = {"g": [draw(st.sampled_from([0, 1, 1.0, 2])) for _ in range(n)]}
        for name in ("s0", "s1", "t"):
            columns[name] = [float(draw(st.integers(0, 3))) for _ in range(n)]
        return Relation(_HOP_SCHEMA, columns)

    def condition():
        attrs = st.sampled_from(["s0", "s1", "t"])
        return ThetaCondition(draw(attrs), draw(st.sampled_from(list(ThetaOp))), draw(attrs))

    def rows(n):
        if draw(st.booleans()):
            return None
        return draw(st.lists(st.integers(0, n - 1), max_size=10)) if n else []

    left = side(draw(st.integers(0, 7)))
    right = side(draw(st.integers(0, 7)))
    kind = draw(st.sampled_from(["key", "columns", "theta", "conjunction", "cartesian"]))
    if kind == "key":
        hop = HopSpec()
    elif kind == "columns":
        hop = HopSpec.on_columns(*draw(st.sampled_from([("s0", "s1"), ("g", "s0"), ("t", "t")])))
    elif kind == "theta":
        hop = HopSpec.on_theta(condition())
    elif kind == "conjunction":
        hop = HopSpec.on_theta([condition(), condition()])
    else:
        hop = HopSpec.cross()
    return hop, left, right, rows(len(left)), rows(len(right))


def _joins(hop, left, right, l, r):
    """Nested-loop join predicate, straight from the hop's definition."""
    if hop.kind == "cartesian":
        return True
    if hop.kind == "equality":
        lv = left.join_key(l) if hop.left_column is None else left.column(hop.left_column)[l]
        rv = right.join_key(r) if hop.right_column is None else right.column(hop.right_column)[r]
        return lv == rv
    return all(
        _OPS[c.op.value](left.column(c.left_attr)[l], right.column(c.right_attr)[r])
        for c in hop.theta
    )


@given(hop_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_hop_kernel_matches_nested_loops(case, data):
    """Same pairs in the same order, counts equal to the pairs, and the
    same partner-weight sums as a nested-loop join over the subsets."""
    hop, left, right, left_rows, right_rows = case
    lrows = list(range(len(left))) if left_rows is None else left_rows
    rrows = list(range(len(right))) if right_rows is None else right_rows
    weights = [float(data.draw(st.integers(0, 5))) for _ in rrows]
    expected = [
        [pos, r] for pos, l in enumerate(lrows) for r in rrows if _joins(hop, left, right, l, r)
    ]
    expected_sums = [
        sum(w for r, w in zip(rrows, weights) if _joins(hop, left, right, l, r)) for l in lrows
    ]

    join = HopJoin(hop, left, right)
    pairs = join.pairs(left_rows, right_rows)
    assert pairs.dtype == np.intp and pairs.shape == (len(expected), 2)
    assert pairs.tolist() == expected
    counts = join.weight_sums(left_rows, right_rows)
    assert counts.tolist() == [sum(1 for p in expected if p[0] == i) for i in range(len(lrows))]
    assert int(counts.sum()) == len(pairs)
    sums = join.weight_sums(left_rows, right_rows, np.asarray(weights, dtype=np.float64))
    assert sums.tolist() == expected_sums
