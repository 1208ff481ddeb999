"""Submodular minimization: exhaustive scan and exact min-norm point."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genrank.errors import TooLarge
from genrank.fields import FieldSpec
from genrank.engine import empty_state, insert_subspace, insertion_oracle
from genrank.rigidity import rigidity_family
from genrank.sfm import (
    EXHAUSTIVE_LIMIT,
    SubmodularOracle,
    _affine_minimizer,
    maximality_closure,
    minimize_exhaustive,
    verify_submodular,
)
from genrank.verify import (
    check_minimizer_lattice,
    check_mnp_matches_exhaustive,
    coverage_oracle,
    random_family,
    random_graph,
)


def modular_oracle(weights):
    return SubmodularOracle(
        len(weights),
        lambda s: sum((Fraction(weights[i]) for i in s), Fraction(0)))


def test_oracle_eval_and_memoization():
    calls = []

    def fn(s):
        calls.append(s)
        return Fraction(len(s))

    oracle = SubmodularOracle(3, fn)
    assert oracle.eval({0, 2}) == 2
    assert oracle.eval({0, 2}) == 2
    assert len(calls) == 1
    with pytest.raises(ValueError):
        oracle.eval({5})


def test_modular_minimizer_is_negative_support():
    # minimizers of a modular function form the interval between the strictly
    # negative elements and those plus the zeros; the maximal one takes zeros too
    oracle = modular_oracle([3, -2, 0, -1, 5])
    result = minimize_exhaustive(oracle)
    assert result.value == -3
    assert result.minimizer == frozenset({1, 2, 3})
    assert result.is_maximal
    assert check_mnp_matches_exhaustive(oracle) == []


def test_exhaustive_empty_ground():
    oracle = modular_oracle([])
    result = minimize_exhaustive(oracle)
    assert result.value == 0 and result.minimizer == frozenset()
    assert check_mnp_matches_exhaustive(oracle) == []


def test_exhaustive_limit():
    oracle = modular_oracle([1] * (EXHAUSTIVE_LIMIT + 1))
    with pytest.raises(TooLarge):
        minimize_exhaustive(oracle)


def test_maximality_closure():
    oracle = modular_oracle([3, -2, 0, -1, 5])
    assert maximality_closure(oracle, frozenset({1, 3})) == frozenset({1, 2, 3})
    assert maximality_closure(oracle, frozenset({1, 2, 3})) == frozenset({1, 2, 3})
    rng = random.Random(8)
    for _ in range(20):
        order = list(range(5))
        rng.shuffle(order)
        assert maximality_closure(oracle, frozenset({1, 3}), order) == frozenset({1, 2, 3})


def plateau_coverage_oracle():
    """Coverage minus weights whose minimizers include a jointly-flat pair.

    Sets 0 and 3 are each strictly uphill from {1,2,4,5} but flat as a pair,
    so a one-element closure walk started at {2} cannot reach the maximal
    minimizer {0,1,2,3,4,5}.
    """
    sets = [{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}, {6}, {7}]
    weights = [Fraction(3, 2), Fraction(1), Fraction(7, 2), Fraction(1, 2),
               Fraction(1), Fraction(1)]

    def f(subset):
        covered = set()
        for i in subset:
            covered |= sets[i]
        return Fraction(len(covered)) - sum((weights[i] for i in subset), Fraction(0))

    return SubmodularOracle(len(sets), f)


def test_closure_can_stall_below_maximal_minimizer():
    oracle = plateau_coverage_oracle()
    assert verify_submodular(oracle)
    exact = minimize_exhaustive(oracle)
    assert exact.value == Fraction(-1, 2)
    assert exact.minimizer == frozenset(range(6))
    stalled = maximality_closure(oracle, frozenset({2}))
    assert stalled == frozenset({1, 2, 4, 5})
    # the min-norm point still reports the true maximal minimizer exactly
    assert check_mnp_matches_exhaustive(oracle) == []


def test_verify_submodular():
    rng = random.Random(13)
    for _ in range(10):
        assert verify_submodular(coverage_oracle(rng.randint(2, 6), rng), rng=rng)
    cubed = SubmodularOracle(4, lambda s: Fraction(len(s) ** 2))
    assert not verify_submodular(cubed)


def test_wolfe_matches_exhaustive_on_coverage():
    rng = random.Random(101)
    for _ in range(40):
        assert check_mnp_matches_exhaustive(coverage_oracle(rng.randint(1, 9), rng)) == []


def test_wolfe_matches_exhaustive_on_insertion_oracles():
    rng = random.Random(55)
    for field in (FieldSpec.rationals(), FieldSpec.prime(10007)):
        for _ in range(10):
            ambient = rng.randint(3, 6)
            family = random_family(field, ambient, rng.randint(1, 6), rng)
            g = random_family(field, ambient, 1, rng)[0]
            for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
                assert check_mnp_matches_exhaustive(insertion_oracle(family, g, c)) == []
    # 2-D rigidity families folded edge by edge reach hats of 11 members
    for graph in (random_graph(10, random.Random(5), .4), random_graph(11, random.Random(7), .35)):
        family = rigidity_family(graph, 2)
        state = empty_state(family.field, family.ambient_dim, 1)
        for i, g in enumerate(family):
            if len(state.hat) >= 8:
                oracle = insertion_oracle(state.hat_family(), g, 1)
                assert check_mnp_matches_exhaustive(oracle) == []
            state = insert_subspace(state, g, i)


def test_affine_minimizer():
    def points(*rows):
        return [tuple(Fraction(x) for x in row) for row in rows]

    assert _affine_minimizer(points((3, -1))) == [1]
    assert _affine_minimizer(points((1, 2), (0, 1), (1, 2))) is None
    assert _affine_minimizer(points((0, 0, 1), (1, 1, 0), (2, 2, -1))) is None
    rng = random.Random(3)
    corrals = [points((1, 0), (0, 1)), points((2, 1, 0), (1, 1, 1), (0, 3, -1))]
    for _ in range(20):
        dim = rng.randint(1, 5)
        corrals.append([tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
                        for _ in range(rng.randint(1, dim + 1))])
    independent = 0
    for corral in corrals:
        mu = _affine_minimizer(corral)
        if mu is None:
            continue
        independent += 1
        assert sum(mu) == 1
        y = [sum((m * p[k] for m, p in zip(mu, corral)), Fraction(0))
             for k in range(len(corral[0]))]
        p0 = corral[0]
        for p in corral:
            assert sum((a * (b - c) for a, b, c in zip(y, p, p0)), Fraction(0)) == 0
    assert independent >= 15


def test_minimizers_form_a_lattice():
    rng = random.Random(77)
    for _ in range(25):
        assert check_minimizer_lattice(coverage_oracle(rng.randint(2, 6), rng)) == []
