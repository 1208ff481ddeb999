"""Symbolic matrix ranks, intersection bases, randomized comparison."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genrank.errors import (
    BadOrder,
    BadScalar,
    BadTrials,
    CharTooSmall,
    DimensionMismatch,
    DimTooSmall,
    InternalInvariantError,
)
from genrank.fields import FieldSpec
from genrank.jsonio import load_rk
from genrank.linalg import Matrix, sample_vector, subspace_from_rows
from genrank.partitions import SubspaceFamily
from genrank.symbolic import (
    RkInstance,
    evaluate_rk_matrix,
    intersect_with_codim_k,
    intersect_with_hyperplane,
    randomized_rank,
    rk_evaluation,
    rk_family,
    rk_rank,
    rk_to_prime,
    split_to_planes,
)
from genrank.verify import (
    check_randomized_bound,
    check_split_to_planes,
    check_symbolic_rank,
    intersection_dim,
    permutation_contraction,
    random_family,
    random_rk_instance,
)

Q = FieldSpec.rationals()


def fr(*values):
    return tuple(Fraction(v) for v in values)


def test_instance_validation():
    with pytest.raises(DimensionMismatch):
        RkInstance(Q, 3, 2, ((fr(1, 0), fr(0, 1)),))
    with pytest.raises(BadOrder):
        RkInstance(Q, 3, 1, ())
    with pytest.raises(BadOrder):
        load_rk({"field": "q", "ambient_dim": 3, "k": 3, "tensors": []})
    with pytest.raises(DimensionMismatch):
        RkInstance(Q, 4, 3, ((fr(1, 0, 0, 0), fr(0, 1, 0, 0)),))
    with pytest.raises(DimensionMismatch):
        RkInstance(Q, 4, 2, ((fr(1, 0, 0, 0), fr(0, 1, 0)),))


def test_evaluate_r2_frozen():
    inst = RkInstance(Q, 2, 2, ((fr(1, 0), fr(0, 1)),))
    m = evaluate_rk_matrix(inst, [fr(5, 7)])
    assert m.rows == ((Fraction(-7), Fraction(5)),)
    # x in the span of {u, v} along u kills the u component only
    m = evaluate_rk_matrix(inst, [fr(1, 0)])
    assert m.rows == ((Fraction(0), Fraction(1)),)


def test_evaluate_r2_row_is_skew_pencil_action():
    # (u x^T - x u^T) ... the row equals x applied to the skew matrix u v^T - v u^T
    rng = random.Random(3)
    for _ in range(10):
        u = sample_vector(Q, 4, rng)
        v = sample_vector(Q, 4, rng)
        x = sample_vector(Q, 4, rng)
        inst = RkInstance(Q, 4, 2, ((u, v),))
        row = evaluate_rk_matrix(inst, [x]).rows[0]
        skew = [[u[a] * v[b] - v[a] * u[b] for b in range(4)] for a in range(4)]
        direct = tuple(sum(x[a] * skew[a][b] for a in range(4)) for b in range(4))
        assert row == direct


def test_r2_family_drops_dependent_pairs():
    inst = RkInstance(Q, 3, 2, (
        (fr(1, 0, 0), fr(0, 1, 0)),
        (fr(2, 0, 0), fr(4, 0, 0)),
        (fr(0, 0, 1), fr(0, 0, 3)),
        (fr(1, 1, 0), fr(0, 1, 1)),
    ))
    family, dropped = rk_family(inst)
    assert dropped == [1, 2]
    assert len(family) == 2
    assert all(f.dim == 2 for f in family)


def test_r2_rank_single_and_zero():
    assert rk_rank(RkInstance(Q, 3, 2, ())) == 0
    assert rk_rank(RkInstance(Q, 3, 2, ((fr(1, 0, 0), fr(2, 0, 0)),))) == 0
    assert rk_rank(RkInstance(Q, 3, 2, ((fr(1, 0, 0), fr(0, 1, 0)),))) == 1


def test_r2_rank_shared_plane_collapses():
    # rows from one shared plane P all land in the line P meet x-perp: rank 1
    inst = RkInstance(Q, 4, 2, (
        (fr(1, 0, 0, 0), fr(0, 1, 0, 0)),
        (fr(1, 1, 0, 0), fr(1, -1, 0, 0)),
        (fr(2, 1, 0, 0), fr(0, 3, 0, 0)),
    ))
    assert rk_rank(inst) == 1
    # two transversal planes stay independent: one symbolic row each
    inst = RkInstance(Q, 4, 2, (
        (fr(1, 0, 0, 0), fr(0, 1, 0, 0)),
        (fr(0, 0, 1, 0), fr(0, 0, 0, 1)),
    ))
    assert rk_rank(inst) == 2


def test_r2_rank_matches_randomized():
    rng = random.Random(29)
    for _ in range(15):
        ambient = rng.randint(3, 6)
        inst = random_rk_instance(Q, ambient, 2, rng.randint(0, 6), rng)
        assert check_symbolic_rank(inst, 3, rng) == []


def test_rk_family_drops_dependent_tensors():
    inst = RkInstance(Q, 4, 3, (
        (fr(1, 0, 0, 0), fr(0, 1, 0, 0), fr(0, 0, 1, 0)),
        (fr(1, 0, 0, 0), fr(0, 1, 0, 0), fr(1, 1, 0, 0)),
    ))
    family, dropped = rk_family(inst)
    assert dropped == [1]
    assert len(family) == 1 and family[0].dim == 3


def test_evaluate_rk_matches_permutation_contraction():
    rng = random.Random(59)
    for field in (Q, FieldSpec.prime(10007)):
        for _ in range(8):
            n = rng.randint(4, 5)
            inst = random_rk_instance(field, n, 3, rng.randint(1, 3), rng, bound=3)
            points = [sample_vector(field, n, rng, 3) for _ in range(2)]
            assert evaluate_rk_matrix(inst, points) == \
                permutation_contraction(inst, points)


def test_rk_rank_matches_randomized():
    rng = random.Random(61)
    for _ in range(8):
        n = rng.randint(4, 6)
        inst = random_rk_instance(Q, n, 3, rng.randint(0, 4), rng)
        assert check_symbolic_rank(inst, 3, rng) == []
    # k = d: every member is all of K^d, so the rank is at most 1; k > d: all dropped
    for n in range(1, 5):
        for k in (n, n + 1):
            if k >= 2:
                inst = random_rk_instance(Q, n, k, rng.randint(0, 4), rng)
                assert check_symbolic_rank(inst, 3, rng) == []
                assert rk_rank(inst) <= (1 if k == n else 0)


def test_evaluate_rk_point_count():
    inst = RkInstance(Q, 4, 3, ((fr(1, 0, 0, 0), fr(0, 1, 0, 0), fr(0, 0, 1, 0)),))
    with pytest.raises(DimensionMismatch):
        evaluate_rk_matrix(inst, [fr(1, 0, 0, 0)])


def test_intersect_with_hyperplane_frozen():
    f = subspace_from_rows(Q, 3, [fr(1, 0, 0), fr(0, 1, 0), fr(0, 0, 1)])
    basis = intersect_with_hyperplane(f, fr(1, 1, 1))
    assert basis.vectors == (fr(1, -1, 0), fr(1, 0, -1))
    assert basis.as_subspace().dim == 2
    assert not basis.used_fallback


def test_intersect_with_hyperplane_contained():
    f = subspace_from_rows(Q, 3, [fr(1, 0, 0), fr(0, 1, 0)])
    basis = intersect_with_hyperplane(f, fr(0, 0, 1))
    assert basis.as_subspace() == f
    with pytest.raises(DimensionMismatch):
        intersect_with_hyperplane(f, fr(1, 0))


def test_intersect_with_codim_k_frozen():
    f = subspace_from_rows(Q, 3, [fr(1, 0, 0), fr(0, 1, 0), fr(0, 0, 1)])
    constraints = Matrix.from_rows(Q, [fr(1, 0, 0), fr(0, 1, 0)], 3)
    basis = intersect_with_codim_k(f, constraints)
    assert basis.vectors == (fr(0, 0, -1),)
    assert not basis.used_fallback


def test_intersect_with_codim_k_edge_cases():
    f = subspace_from_rows(Q, 4, [fr(1, 0, 0, 0), fr(0, 1, 0, 0), fr(0, 0, 1, 0)])
    none = Matrix.from_rows(Q, [], 4)
    assert intersect_with_codim_k(f, none).vectors == f.basis.rows
    too_many = Matrix.from_rows(Q, [fr(1, 0, 0, 0), fr(0, 1, 0, 0), fr(0, 0, 1, 0)], 4)
    with pytest.raises(DimTooSmall):
        intersect_with_codim_k(f, too_many)
    # constraints that miss f entirely: degenerate, exact kernel fallback
    fallback = intersect_with_codim_k(
        f, Matrix.from_rows(Q, [fr(0, 0, 0, 1), fr(0, 0, 0, 2)], 4))
    assert fallback.used_fallback
    assert fallback.as_subspace() == f


def test_intersection_identity_small():
    # three lines inside a plane: rho_1 = 0 and a generic hyperplane sees dim 0
    lines = tuple(subspace_from_rows(Q, 3, [fr(*c)])
                  for c in ([1, 0, 0], [0, 1, 0], [1, 1, 0]))
    family = SubspaceFamily(Q, 3, lines)
    assert intersection_dim(family, Matrix.from_rows(Q, [fr(1, 2, 3)], 3)) == 0


def test_randomized_rank_needs_big_prime():
    with pytest.raises(CharTooSmall):
        randomized_rank(lambda r: Matrix.from_rows(Q, [fr(1)], 1), Q)
    tiny = FieldSpec.prime(2)
    evaluate = lambda r: Matrix.from_rows(tiny, [(1,), (1,), (1,)], 1)
    with pytest.raises(CharTooSmall):
        randomized_rank(evaluate, tiny)


def test_randomized_rank_needs_a_trial():
    fp = FieldSpec.prime(10007)
    for trials in (0, -2):
        with pytest.raises(BadTrials):
            randomized_rank(lambda r: Matrix.from_rows(fp, [(1,)], 1), fp, trials=trials)


def test_randomized_rank_deterministic_for_seed():
    fp = FieldSpec.prime(10007)
    evaluate = lambda r: Matrix.from_rows(
        fp, [sample_vector(fp, 3, r) for _ in range(2)], 3)
    a = randomized_rank(evaluate, fp, trials=4, rng=random.Random(6))
    b = randomized_rank(evaluate, fp, trials=4, rng=random.Random(6))
    assert a == b == 2


def _draws_after(seed, trials):
    """The rng state after every trial's seed is drawn, early stop or not."""
    rng = random.Random(seed)
    for _ in range(trials):
        rng.getrandbits(64)
    return rng.getstate()


def test_randomized_rank_stops_at_bound():
    fp = FieldSpec.prime(10007)
    calls = []
    evaluate = lambda r: calls.append(r) or Matrix.from_rows(
        fp, [sample_vector(fp, 3, r) for _ in range(2)], 3)
    rng = random.Random(6)
    assert randomized_rank(evaluate, fp, trials=4, rng=rng, bound=2) == 2
    assert len(calls) == 1
    assert rng.getstate() == _draws_after(6, 4)
    # a bound no trial reaches: every trial runs, the rng ends in the same state
    calls.clear()
    rng = random.Random(6)
    assert randomized_rank(evaluate, fp, trials=4, rng=rng, bound=3) == 2
    assert len(calls) == 4
    assert rng.getstate() == _draws_after(6, 4)


def test_randomized_rank_above_bound_is_an_invariant_failure():
    fp = FieldSpec.prime(10007)
    evaluate = lambda r: Matrix.from_rows(fp, [(1, 0), (0, 1)], 2)
    with pytest.raises(InternalInvariantError, match="trial 1 has rank 2, above .* bound 1"):
        randomized_rank(evaluate, fp, trials=3, bound=1)


def test_rk_randomized_rank_stops_at_bound(monkeypatch):
    import genrank.symbolic as symbolic_module

    calls = []
    monkeypatch.setattr(symbolic_module, "rank",
                        lambda m, rank=symbolic_module.rank: calls.append(m) or rank(m))
    # three generic pairs in K^3: rank min(3, 3 - 2 + 1) = 2 on the first trial
    inst = random_rk_instance(Q, 3, 2, 3, random.Random(5))
    rng = random.Random(9)
    assert symbolic_module.rk_randomized_rank(inst, trials=5, rng=rng) == rk_rank(inst) == 2
    assert len(calls) == 1
    assert rng.getstate() == _draws_after(9, 5)


def test_rk_early_stop_matches_every_trial():
    rng = random.Random(67)
    for k in (2, 3, 4):
        for n in range(max(2, k - 1), 7):
            inst = random_rk_instance(Q, n, k, rng.randint(0, 5), rng, bound=3)
            evaluate, field, bound = rk_evaluation(inst)
            assert bound == min(len(inst.tensors), max(0, n - k + 1))
            assert check_randomized_bound(evaluate, field, bound, 4, rng) == []


def test_split_to_planes():
    f3 = subspace_from_rows(Q, 4, [fr(1, 0, 0, 0), fr(0, 1, 0, 0), fr(0, 0, 1, 0)])
    family = SubspaceFamily(Q, 4, (f3,))
    planes = split_to_planes(family)
    assert len(planes) == 3
    assert all(p.dim == 2 for p in planes)
    f2 = subspace_from_rows(Q, 4, [fr(1, 0, 0, 0), fr(0, 1, 0, 0)])
    assert split_to_planes(SubspaceFamily(Q, 4, (f2,))).members == (f2,)
    thin = SubspaceFamily(Q, 4, (subspace_from_rows(Q, 4, [fr(1, 0, 0, 0)]),))
    with pytest.raises(DimTooSmall):
        split_to_planes(thin)


def test_split_to_planes_preserves_rho1():
    rng = random.Random(71)
    for _ in range(10):
        family = random_family(Q, rng.randint(4, 6), rng.randint(1, 4), rng, min_dim=2)
        assert check_split_to_planes(family) == []


def test_field_transport():
    inst = RkInstance(Q, 2, 2, ((fr(1, 0), (Fraction(1, 2), Fraction(0))),))
    moved = rk_to_prime(inst, 10007)
    assert moved.field.p == 10007
    assert moved.tensors[0][1][0] == pow(2, -1, 10007)
    bad = RkInstance(Q, 2, 2, (((Fraction(1, 10007), Fraction(0)), fr(0, 1)),))
    with pytest.raises(BadScalar):
        rk_to_prime(bad, 10007)
    tensor = RkInstance(Q, 3, 2, ((fr(1, 0, 0), fr(0, 1, 0)),))
    assert rk_to_prime(tensor, 7).field.p == 7
