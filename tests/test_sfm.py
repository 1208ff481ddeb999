"""Submodular minimization: exhaustive scan and exact min-norm point."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genrank.errors import TooLarge
from genrank.fields import FieldSpec
from genrank.engine import insertion_oracle
from genrank.sfm import (
    EXHAUSTIVE_LIMIT,
    SubmodularOracle,
    maximality_closure,
    minimize_exhaustive,
    verify_submodular,
)
from genrank.verify import (
    check_minimizer_lattice,
    check_mnp_matches_exhaustive,
    coverage_oracle,
    random_family,
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


def test_minimizers_form_a_lattice():
    rng = random.Random(77)
    for _ in range(25):
        assert check_minimizer_lattice(coverage_oracle(rng.randint(2, 6), rng)) == []
