"""Separable sets, maximal partitions, and closure."""

import functools
import itertools
import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsets import (
    CapExceededError,
    DegenerateInputError,
    MobiusTable,
    NotSeparableError,
    Partition,
    PartitionError,
    ScoreMethod,
    SeparabilityReport,
    TableError,
    Tolerance,
    ValueTable,
    enumerate_separable_sets,
    grouped_score_vector,
    indices_of,
    induced_meta_table,
    is_separable,
    maximal_partition,
    maximal_partition_oracle,
    mobius_transform,
    new_dataset,
    partition_from_dict,
    partition_to_dict,
    r2_value_table,
    score_vector,
    space_from_dict,
    table_from_dict,
    validate_partition,
    zeta_transform,
)
from sepsets.separability import maximal_partition_oracle_sets

from exact import separable_exact

from conftest import (
    block_additive_table,
    closure_holds,
    random_blocks,
    random_table,
    seeded_table,
    sparse_mobius_table,
)

TOL = Tolerance(1e-9)


def separable_by_definition(table, subset):
    """Straight quantifier sweep over every context."""
    comp = table.full_mask ^ subset
    worst = 0.0
    for t in range(1 << table.n):
        lhs = float(table.values[t])
        rhs = float(table.values[t & subset] + table.values[t & comp])
        worst = max(worst, abs(lhs - rhs))
    return worst <= TOL.absolute


def test_is_separable_matches_definition(rng):
    for _ in range(20):
        table = sparse_mobius_table(rng, 5, 0.3)
        for subset in range(1 << 5):
            report = is_separable(table, subset, TOL)
            assert report.separable == separable_by_definition(table, subset)


def test_toy_separability(toy_table):
    assert is_separable(toy_table, 0b011, TOL).separable
    assert is_separable(toy_table, 0b100, TOL).separable
    report = is_separable(toy_table, 0b001, TOL)
    assert not report.separable
    # Worst context must replay: value differs from the split by the residual.
    t = report.worst_T
    split = toy_table.values[t & 0b001] + toy_table.values[t & 0b110]
    assert abs(toy_table.values[t] - split) == pytest.approx(report.worst_residual)
    assert report.worst_residual == pytest.approx(0.5)


def test_trivial_masks_are_separable_iff_empty_value_is_zero(rng):
    table = random_table(rng, 4, zero_empty=True)
    assert is_separable(table, 0, TOL).separable
    assert is_separable(table, table.full_mask, TOL).separable
    shifted = ValueTable(4, table.values + 0.25)
    assert not is_separable(shifted, 0, TOL).separable
    assert not is_separable(shifted, shifted.full_mask, TOL).separable


def test_maximal_partition_recovers_designed_blocks(rng):
    for _ in range(40):
        n = int(rng.integers(2, 11))
        blocks = random_blocks(rng, n)
        table = block_additive_table(rng, n, blocks)
        partition = maximal_partition(table, TOL)
        assert partition.blocks == tuple(sorted(blocks, key=lambda b: b & -b))


def test_maximal_partition_matches_oracle_on_sparse_tables(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        table = sparse_mobius_table(rng, n, float(rng.uniform(0.05, 0.5)))
        fast = maximal_partition(table, TOL)
        slow = maximal_partition_oracle(table, TOL)
        assert fast.blocks == slow.blocks


def test_partition_blocks_validate_as_separable(rng):
    table = block_additive_table(rng, 6, random_blocks(rng, 6))
    partition = maximal_partition(table, TOL)
    for report in validate_partition(table, partition, TOL):
        assert report.separable


def test_single_feature_table_partition():
    table = ValueTable(1, [0.0, 0.7])
    assert maximal_partition(table, TOL).block_indices() == ((0,),)


def test_fully_interacting_table_is_one_block(rng):
    table = random_table(rng, 5)
    assert maximal_partition(table, TOL).block_indices() == ((0, 1, 2, 3, 4),)


def test_additive_table_partitions_into_singletons(rng):
    values = np.zeros(16)
    singles = rng.uniform(1.0, 2.0, 4)
    for s in range(16):
        values[s] = sum(singles[f] for f in range(4) if (s >> f) & 1)
    partition = maximal_partition(ValueTable(4, values), TOL)
    assert partition.blocks == (1, 2, 4, 8)


def test_unions_of_blocks_are_separable(rng):
    # Any union of maximal-partition blocks must itself be separable.
    for _ in range(10):
        n = int(rng.integers(3, 9))
        table = sparse_mobius_table(rng, n, 0.15)
        partition = maximal_partition(table, TOL)
        k = len(partition.blocks)
        for pick in range(1 << k):
            union = 0
            for j in range(k):
                if (pick >> j) & 1:
                    union |= partition.blocks[j]
            assert is_separable(table, union, TOL).separable


def test_every_separable_set_is_a_block_union(rng):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        table = sparse_mobius_table(rng, n, 0.2)
        partition = maximal_partition(table, TOL)
        for subset in enumerate_separable_sets(table, TOL):
            for block in partition.blocks:
                overlap = subset & block
                assert overlap == 0 or overlap == block


def test_oracle_sets_are_minimal_covers(rng):
    table = sparse_mobius_table(rng, 5, 0.25)
    sets = maximal_partition_oracle_sets(table, TOL)
    separable = set(enumerate_separable_sets(table, TOL))
    for f, s in sets.items():
        assert (s >> f) & 1
        assert s in separable
        for other in separable:
            if (other >> f) & 1:
                assert s & other == s  # nothing separable is strictly smaller


def test_oracle_requires_separable_full_mask(rng):
    table = random_table(rng, 3, zero_empty=False)
    shifted = ValueTable(3, table.values - table.values[0] + 1.0)
    with pytest.raises(DegenerateInputError):
        maximal_partition_oracle(shifted, TOL)


def test_meta_table_on_toy(toy_table):
    partition = Partition.from_indices(3, [[0, 1], [2]])
    meta = induced_meta_table(toy_table, partition, TOL)
    assert meta.n == 2
    assert np.allclose(meta.values, [0.0, 0.5, 1 / 3, 5 / 6], atol=1e-12)


def test_meta_table_rejects_nonseparable_blocks(toy_table):
    with pytest.raises(NotSeparableError) as exc:
        induced_meta_table(toy_table, Partition.singletons(3), TOL)
    assert "block" in str(exc.value)


def test_meta_table_matches_block_sums(rng):
    n = 8
    blocks = random_blocks(rng, n)
    table = block_additive_table(rng, n, blocks)
    partition = maximal_partition(table, TOL)
    meta = induced_meta_table(table, partition, TOL)
    k = len(partition.blocks)
    for h in range(1 << k):
        union = 0
        for j in range(k):
            if (h >> j) & 1:
                union |= partition.blocks[j]
        assert meta.values[h] == pytest.approx(float(table.values[union]), abs=1e-9)


@pytest.mark.parametrize("subset", [-1, 0b1000])
def test_is_separable_rejects_an_out_of_range_subset(toy_table, subset):
    with pytest.raises(TableError, match=rf"^subset mask {subset} out of range for n=3$"):
        is_separable(toy_table, subset, TOL)


def test_closure_on_toy(toy_table):
    assert closure_holds(toy_table, 0b011, 0b100)


def test_closure_over_block_unions(rng):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        blocks = random_blocks(rng, n)
        table = block_additive_table(rng, n, blocks)
        k = len(blocks)
        picks = rng.integers(0, 1 << k, size=2)
        unions = []
        for pick in picks:
            u = 0
            for j in range(k):
                if (int(pick) >> j) & 1:
                    u |= blocks[j]
            unions.append(u)
        assert closure_holds(table, unions[0], unions[1])


def test_partition_construction_contract():
    p = Partition.from_indices(4, [[2, 0], [1], [3]])
    assert p.block_indices() == ((0, 2), (1,), (3,))
    assert Partition.singletons(3).blocks == (1, 2, 4)
    with pytest.raises(PartitionError):
        Partition(3, (0b011, 0b110))  # overlap
    with pytest.raises(PartitionError):
        Partition(3, (0b001, 0b010))  # misses feature 2
    with pytest.raises(PartitionError):
        Partition(3, (0b111, 0))  # empty block


def test_partition_dict_roundtrip():
    p = Partition.from_indices(5, [[0, 3], [1, 2], [4]])
    payload = partition_to_dict(p)
    assert partition_from_dict(json.loads(json.dumps(payload))).blocks == p.blocks


@pytest.mark.parametrize("index", ["a", 0.5, 1.0, True, None], ids=repr)
def test_partition_dict_rejects_non_integer_indices(index):
    # A bool would otherwise pass as feature 1, and a string or float
    # would reach the range comparison and raise a TypeError.
    with pytest.raises(PartitionError, match="block 1: feature index"):
        partition_from_dict({"n": 2, "blocks": [[0], [index]]})


@pytest.mark.parametrize(
    "n, blocks, message",
    [
        (2, [[0, 0], [1]], "block 0: feature index 0 appears more than once"),
        (3, [[0], [2, 1, 2]], "block 1: feature index 2 appears more than once"),
    ],
)
def test_partition_dict_rejects_a_block_naming_a_feature_twice(n, blocks, message):
    # The block's bitmask would drop the repeat and read [[0], [1]] or [[0], [1, 2]].
    with pytest.raises(PartitionError, match=f"^{message}$"):
        partition_from_dict({"n": n, "blocks": blocks})


_LOADERS = {
    "table": (table_from_dict, lambda n: {"n": n, "values": [0.0] * 4}),
    "space": (
        space_from_dict,
        lambda n: {"n": n, "instances": [{"weight": 1, "values": [0.0] * 4}]},
    ),
    "partition": (partition_from_dict, lambda n: {"n": n, "blocks": [list(range(n))]}),
    "value-table": (lambda args: ValueTable(*args), lambda n: (n, [0.0] * 4)),
    "dataset": (r2_value_table, lambda n: new_dataset(np.eye(2, n), [1.0, 2.0])),
}


@pytest.mark.parametrize("kind", _LOADERS)
def test_every_loader_enforces_the_same_feature_cap(kind, monkeypatch):
    # The cap is checked before the body is read, so a table or space
    # payload may carry 4 values whatever its n, and before the 2^n
    # entries of a dataset's table are built, so no factor is taken.
    load, payload = _LOADERS[kind]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "qr", None)
        for n in (21, 25):
            with pytest.raises(CapExceededError, match=f"^n={n} exceeds the cap of 20 features$"):
                load(payload(n))
    assert load(payload(2)).n == 2


def test_enumerate_separable_sets_toy(toy_table):
    got = sorted(enumerate_separable_sets(toy_table, TOL))
    assert got == [0b000, 0b011, 0b100, 0b111]


def test_partition_guard_scales_with_offset(rng):
    # A nonzero empty-set value leaves nothing separable, but the
    # interaction structure is still reported.
    table = random_table(rng, 4, zero_empty=True)
    shifted = ValueTable(4, table.values + 3.0)
    partition = maximal_partition(shifted, TOL)
    assert partition.blocks == maximal_partition(ValueTable(4, table.values), TOL).blocks


def test_tolerance_separates_weak_interactions():
    # Interaction of magnitude 1e-6 is a link at tight tolerance and
    # noise at loose tolerance.
    values = np.zeros(4)
    values[3] = 1e-6
    tight = maximal_partition(ValueTable(2, values), Tolerance(1e-9))
    loose = maximal_partition(ValueTable(2, values), Tolerance(1e-3))
    assert tight.block_indices() == ((0, 1),)
    assert loose.block_indices() == ((0,), (1,))


def _brute_pairs(table, tol):
    dividends = np.zeros(1 << table.n)
    for s in range(1 << table.n):
        t = s
        while True:
            dividends[s] += (-1) ** bin(s ^ t).count("1") * table.values[t]
            if t == 0:
                break
            t = (t - 1) & s
    linked = set()
    for s in range(1 << table.n):
        if abs(dividends[s]) > tol.absolute:
            members = indices_of(s)
            for a, b in itertools.combinations(members, 2):
                linked.add((a, b))
    return linked


def union_find_blocks(n, links):
    """Connected components of the features under pairwise links, as bitmasks."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for f in range(n):
        groups[find(f)] = groups.get(find(f), 0) | (1 << f)
    return tuple(groups.values())


def test_partition_components_match_dividend_links(rng):
    # Two features share a block exactly when a chain of straddling
    # dividends connects them.
    for _ in range(10):
        table = sparse_mobius_table(rng, 6, 0.12)
        partition = maximal_partition(table, TOL)
        expected = Partition(6, union_find_blocks(6, _brute_pairs(table, TOL)))
        assert expected.blocks == partition.blocks


# ------------------------------------------------ reference routes, kept for tests


def is_separable_by_gather(table, subset, tol):
    """The mask-gather residual sweep is_separable replaced, kept as its reference."""
    masks = np.arange(1 << table.n, dtype=np.int64)
    comp = table.full_mask ^ subset
    v = table.values
    residuals = np.abs(v - v[masks & subset] - v[masks & comp])
    worst = int(np.argmax(residuals))
    worst_residual = float(residuals[worst])
    return SeparabilityReport(subset, tol.within(worst_residual), worst, worst_residual)


def partition_by_union_find(table, tol):
    """The per-hit union-find maximal_partition replaced, kept as its reference:
    every interacting dividend above tol links its lowest feature to the others."""
    dividends = mobius_transform(table).dividends
    links = []
    for m in np.flatnonzero(np.abs(dividends) > tol.absolute):
        bits = indices_of(int(m))
        links += [(bits[0], b) for b in bits[1:]]
    return Partition(table.n, union_find_blocks(table.n, links))


def meta_by_masks(table, partition):
    """Block sums and block unions by per-block mask filters, as the meta
    table and grouped scores built them before sharing block_unions."""
    k = len(partition.blocks)
    meta_masks = np.arange(1 << k, dtype=np.int64)
    meta = np.zeros(1 << k, dtype=np.float64)
    unions = np.zeros(1 << k, dtype=np.int64)
    for j, block in enumerate(partition.blocks):
        chosen = (meta_masks >> j) & 1 == 1
        meta[chosen] += table.values[block]
        unions[chosen] |= block
    return meta, unions


@st.composite
def oracle_tables(draw, max_n=10):
    """Sparse, dense, small-integer, additive and block tables, with v({}) zero or not."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    kind = draw(st.sampled_from(["sparse", "dense", "integers", "singletons", "blocks"]))
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        table = sparse_mobius_table(rng, n, float(rng.uniform(0.02, 0.4)))
    elif kind == "dense":
        table = random_table(rng, n)
    elif kind == "integers":
        table = seeded_table(n, seed, integers=True)
    elif kind == "singletons":
        table = block_additive_table(rng, n, tuple(1 << f for f in range(n)))
    else:
        table = block_additive_table(rng, n, random_blocks(rng, n))
    empty_value = draw(st.sampled_from([0.0, 0.75, -2.0]))
    return ValueTable(n, table.values + empty_value)


@settings(max_examples=80, deadline=None)
@given(oracle_tables(), st.integers(min_value=0, max_value=2**32 - 1))
def test_is_separable_matches_gather_oracle_bit_for_bit(table, seed):
    full = table.full_mask
    if table.n <= 6:
        subsets = range(1 << table.n)
    else:
        picks = np.random.default_rng(seed).integers(0, full + 1, 40)
        subsets = [0, full, *map(int, picks)]
    for subset in subsets:
        report = is_separable(table, subset, TOL)
        assert repr(report) == repr(is_separable_by_gather(table, subset, TOL))


@settings(max_examples=80, deadline=None)
@given(oracle_tables(), st.sampled_from([1e-9, 0.6, 1.0]))
def test_partition_matches_union_find_oracle(table, tol):
    tol = Tolerance(tol)
    assert maximal_partition(table, tol).blocks == partition_by_union_find(table, tol).blocks


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_meta_table_and_grouped_scores_match_mask_filters_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    table = block_additive_table(rng, n, random_blocks(rng, n))
    partition = maximal_partition(table, TOL)
    meta, unions = meta_by_masks(table, partition)
    assert induced_meta_table(table, partition, TOL).values.tobytes() == meta.tobytes()
    union_table = ValueTable(len(partition.blocks), table.values[unions])
    for method in ScoreMethod:
        grouped = grouped_score_vector(method, table, partition)
        assert grouped.tobytes() == score_vector(method, union_table).scores.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.02, max_value=0.4),
)
def test_separability_and_partition_match_the_exact_dividends(n, seed, density):
    # Integer dividends in [-3, 3] on a random share of the masks, none on
    # the empty set, give integer values far below 2^53: every residual is
    # exact, and any nonzero one is at least 1. So at tol 1e-9 a set is
    # separable exactly when no nonzero exact dividend straddles it, and
    # the maximal partition sends each feature to the intersection of the
    # exactly separable sets that contain it.
    rng = np.random.default_rng(seed)
    dividends = rng.integers(-3, 4, 1 << n) * (rng.random(1 << n) < density)
    dividends[0] = 0
    table = zeta_transform(MobiusTable(n, dividends.astype(np.float64)))
    exact = [s for s in range(1 << n) if separable_exact(table.values, s)]
    for subset in range(1 << n):
        assert is_separable(table, subset, TOL).separable == (subset in exact), subset
    blocks = set()
    for f in range(n):
        blocks.add(functools.reduce(int.__and__, (s for s in exact if s >> f & 1)))
    assert maximal_partition(table, TOL).blocks == Partition(n, tuple(blocks)).blocks


def test_partition_recovers_planted_blocks_past_65536_dividends():
    # One 17-feature block carries every one of its 131054 interacting
    # dividends; feature 7 stays alone. The old union step switched to a
    # pairwise sweep past 65536 of them, which only the benchmark reached.
    n, alone = 18, 7
    rng = np.random.default_rng(18)
    big = ((1 << n) - 1) ^ (1 << alone)
    masks = np.arange(1 << n, dtype=np.int64)
    dividends = np.zeros(1 << n)
    inside = (masks & ~big == 0) & (masks != 0)
    # |d(W)| in [0.5, 1] / (C(17, |W|) * 17): all far above tol, values of order one.
    scale = np.array([comb(17, k) * 17.0 for k in range(18)])[np.bitwise_count(masks[inside])]
    signs = rng.choice((-1.0, 1.0), size=scale.size)
    dividends[inside] = signs * rng.uniform(0.5, 1.0, scale.size) / scale
    dividends[1 << alone] = 0.8
    table = zeta_transform(MobiusTable(n, dividends))
    interacting = (np.abs(mobius_transform(table).dividends) > TOL.absolute) & (
        np.bitwise_count(masks) >= 2
    )
    assert int(interacting.sum()) > 65536
    partition = maximal_partition(table, TOL)
    assert partition.blocks == (big, 1 << alone)
    assert partition.blocks == partition_by_union_find(table, TOL).blocks
