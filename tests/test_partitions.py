"""Partitions, the exact rho evaluator, the brute-force oracle, hats."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genrank.errors import (
    InternalInvariantError,
    InvalidPartition,
    MismatchedGroundSet,
    MixedAmbient,
    TooLarge,
    ZeroSubspace,
)
from genrank.fields import FieldSpec
from genrank.linalg import subspace_from_rows
from genrank.partitions import (
    BRUTEFORCE_LIMIT,
    Partition,
    SpanRankCache,
    SubspaceFamily,
    _set_partitions,
    hat_family,
    is_refinement,
    restrict_partition,
    rho_bruteforce,
    rho_of_partition,
)
from genrank.verify import (
    check_span_cache,
    check_unique_minimizer,
    random_family,
    random_partition,
)

Q = FieldSpec.rationals()
FP = FieldSpec.prime(10007)


def line(field, ambient, coords):
    return subspace_from_rows(field, ambient, [[field.from_int(a) for a in coords]])


def plane(field, ambient, r1, r2):
    return subspace_from_rows(
        field, ambient,
        [[field.from_int(a) for a in r1], [field.from_int(a) for a in r2]])


def test_partition_canonical_form():
    pi = Partition.from_blocks([[2, 0], [1]])
    assert pi.blocks == ((0, 2), (1,))
    assert pi.n_blocks == 2
    assert pi.ground == frozenset({0, 1, 2})
    assert pi.to_lists() == [[0, 2], [1]]
    assert Partition.singletons(3).blocks == ((0,), (1,), (2,))
    assert Partition.single_block(3).blocks == ((0, 1, 2),)
    assert Partition.single_block(0).blocks == ()
    with pytest.raises(InvalidPartition):
        Partition.from_blocks([[0, 1], [1, 2]])
    with pytest.raises(InvalidPartition):
        Partition.from_blocks([[0], []])
    with pytest.raises(InvalidPartition):
        Partition(((1, 0),))
    with pytest.raises(InvalidPartition):
        Partition.from_blocks([[-1]])


def test_partition_relabel():
    pi = Partition.from_blocks([[0, 1], [2]])
    assert pi.relabel({0: 5, 1: 3, 2: 0}).blocks == ((0,), (3, 5))


def test_family_validation():
    a = line(Q, 3, [1, 0, 0])
    b = line(Q, 4, [1, 0, 0, 0])
    with pytest.raises(MixedAmbient):
        SubspaceFamily(Q, 3, (a, b))
    with pytest.raises(MixedAmbient):
        SubspaceFamily(FP, 3, (a,))
    from genrank.linalg import zero_subspace
    with pytest.raises(ZeroSubspace):
        SubspaceFamily(Q, 3, (zero_subspace(Q, 3),))
    family = SubspaceFamily(Q, 3, (a, a))
    assert len(family) == 2 and family[0] == family[1]


def test_rho_of_partition_known():
    # three lines inside one plane of K^3
    family = SubspaceFamily(Q, 3, tuple(
        line(Q, 3, c) for c in ([1, 0, 0], [0, 1, 0], [1, 1, 0])))
    assert rho_of_partition(family, Partition.singletons(3), 1) == 0
    assert rho_of_partition(family, Partition.single_block(3), 1) == 1
    assert rho_of_partition(family, Partition.from_blocks([[0, 1], [2]]), 1) == 1
    assert rho_of_partition(family, Partition.singletons(3), Fraction(1, 2)) == Fraction(3, 2)
    with pytest.raises(InvalidPartition):
        rho_of_partition(family, Partition.from_blocks([[0, 1]]), 1)


def test_span_rank_cache_matches_direct():
    rng = random.Random(17)
    for field in (Q, FP):
        for _ in range(10):
            family = random_family(field, rng.randint(3, 6), rng.randint(1, 6), rng)
            assert check_span_cache(list(family.members)) == []
            assert check_span_cache(list(family.members[1:]), family[0]) == []


def test_span_rank_cache_seed_rows():
    family = [line(Q, 3, [1, 0, 0]), line(Q, 3, [0, 1, 0])]
    g = line(Q, 3, [1, 1, 0])
    cache = SpanRankCache(family, seed_rows=g.basis.rows)
    assert cache.rank(0) == 1
    assert cache.rank(0b01) == 2
    assert cache.rank(0b11) == 2


def test_set_partitions_bell_numbers():
    bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
    for n, count in bell.items():
        assert sum(1 for _ in _set_partitions(n)) == count


def test_bruteforce_duplicate_planes():
    p = plane(Q, 3, [1, 0, 0], [0, 1, 0])
    family = SubspaceFamily(Q, 3, (p, p))
    result = rho_bruteforce(family, 1)
    assert result.value == 1
    assert result.partition.blocks == ((0, 1),)


def test_bruteforce_three_lines_in_plane():
    family = SubspaceFamily(Q, 3, tuple(
        line(Q, 3, c) for c in ([1, 0, 0], [0, 1, 0], [1, 1, 0])))
    result = rho_bruteforce(family, 1)
    assert result.value == 0
    assert result.partition == Partition.singletons(3)
    # c = 0 always favors the single block
    result0 = rho_bruteforce(family, 0)
    assert result0.value == 2
    assert result0.partition == Partition.single_block(3)


def test_bruteforce_k3_edge_family():
    # edge subspaces of the triangle in K^6 (2 coordinate blocks of 3)
    def edge(u, v):
        r1 = [0] * 6
        r1[u] = 1
        r1[v] = -1
        r2 = [0] * 6
        r2[3 + u] = 1
        r2[3 + v] = -1
        return plane(Q, 6, r1, r2)

    family = SubspaceFamily(Q, 6, (edge(0, 1), edge(0, 2), edge(1, 2)))
    result = rho_bruteforce(family, 1)
    assert result.value == 3
    assert result.partition == Partition.single_block(3)


def test_bruteforce_too_large():
    member = line(Q, 3, [1, 0, 0])
    family = SubspaceFamily(Q, 3, (member,) * (BRUTEFORCE_LIMIT + 1))
    with pytest.raises(TooLarge):
        rho_bruteforce(family, 1)


def test_bruteforce_unique_fewest_blocks_minimizer():
    rng = random.Random(31)
    for field in (Q, FP):
        for _ in range(15):
            family = random_family(field, rng.randint(3, 6), rng.randint(1, 5), rng)
            for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
                assert check_unique_minimizer(family, c) == []


def test_restrict_partition():
    pi = Partition.from_blocks([[0, 2, 4], [1, 3]])
    assert restrict_partition(pi, {0, 1, 2}).blocks == ((0, 2), (1,))
    assert restrict_partition(pi, {3}).blocks == ((3,),)
    with pytest.raises(MismatchedGroundSet):
        restrict_partition(pi, {9})


def test_is_refinement():
    fine = Partition.from_blocks([[0], [1], [2, 3]])
    coarse = Partition.from_blocks([[0, 1], [2, 3]])
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)
    assert is_refinement(coarse, coarse)
    with pytest.raises(MismatchedGroundSet):
        is_refinement(fine, Partition.from_blocks([[0, 1]]))


def test_random_partition_generator():
    rng = random.Random(2)
    for n in range(1, 8):
        for _ in range(10):
            pi = random_partition(n, rng)
            assert pi.ground == frozenset(range(n))


def test_hat_family_blockwise_spans():
    family = SubspaceFamily(Q, 3, tuple(
        line(Q, 3, c) for c in ([1, 0, 0], [0, 1, 0], [1, 1, 0])))
    pi = Partition.from_blocks([[0, 1], [2]])
    hat = hat_family(family, pi, 1)
    assert hat[0].dim == 2 and hat[1].dim == 1
    with pytest.raises(InvalidPartition):
        hat_family(family, Partition.from_blocks([[0, 1]]), 1)


def test_hat_family_duplicate_scope():
    # equal spans of dimension >= c are an invariant violation ...
    p = plane(Q, 3, [1, 0, 0], [0, 1, 0])
    family = SubspaceFamily(Q, 3, (p, p))
    with pytest.raises(InternalInvariantError):
        hat_family(family, Partition.singletons(2), 1)
    # ... but below c duplicate blocks are legitimate
    l = line(Q, 3, [1, 0, 0])
    low = SubspaceFamily(Q, 3, (l, l, l))
    result = rho_bruteforce(low, 2)
    assert result.value == -3
    assert result.partition == Partition.singletons(3)
    hat = hat_family(low, result.partition, 2)
    assert len(hat) == 3


def test_span_rank_cache_saturated_masks():
    """Once a mask spans the ambient space, every superset has rank ncols."""
    rng = random.Random(6)
    for field in (Q, FP):
        family = random_family(field, 3, 7, rng)
        cache = SpanRankCache(list(family.members))
        full = [mask for mask in range(1 << 7) if cache.rank(mask) == 3]
        assert full
        for mask in full:
            for extra in range(1 << 7):
                assert cache.rank(mask | extra) == 3


def test_span_rank_cache_many_members_no_recursion():
    """1100 coordinate lines: building the full mask must not recurse per member."""
    n = 1100
    lines = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        lines.append(subspace_from_rows(FP, n, [row]))
    cache = SpanRankCache(lines)
    assert cache.rank((1 << n) - 1) == n
    assert cache.rank((1 << n) - 2) == n - 1
