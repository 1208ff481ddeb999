"""Submodular minimization: exhaustive scan and exact min-norm point."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from genrank import sfm
from genrank.errors import InternalInvariantError, NotConverged, TooLarge
from genrank.fields import FieldSpec
from genrank.engine import empty_state, insert_subspace, insertion_oracle
from genrank.rigidity import rigidity_family
from genrank.sfm import (
    EXHAUSTIVE_LIMIT,
    SubmodularOracle,
    _affine_minimizer,
    maximality_closure,
    minimize_exhaustive,
    minimize_polynomial,
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
            # bases are integer vectors plus c, so den(c) sets the min-norm-point scale
            for c in (Fraction(1, 2), Fraction(1), Fraction(2),
                      Fraction(1, 3), Fraction(2, 5), Fraction(7, 4)):
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


def staggered_oracle(rng, n):
    """Coverage minus weights, plus terms a*(min(|S & T|, 1) - [min T in S]).

    Each term is submodular, and integral along every chain that takes min T
    first among T, so the greedy base in index order (the first min-norm-point
    base) is integral when the weights are; other orders pay a or -a.  The
    amounts a mix the denominators 2, 3, 5 and 7.
    """
    sets = [frozenset(j for j in range(8) if rng.random() < 0.4) for _ in range(n)]
    weights = [Fraction(rng.randint(0, 6), rng.choice((1, 1, 2, 3))) for _ in range(n)]
    terms = [(frozenset(rng.sample(range(n), rng.randint(2, n))),
              Fraction(rng.randint(1, 6), rng.choice((2, 3, 5, 7)))) for _ in range(4)]

    def f(subset):
        covered = set()
        for i in subset:
            covered |= sets[i]
        value = Fraction(len(covered)) - sum((weights[i] for i in subset), Fraction(0))
        for group, a in terms:
            value += a * (min(len(subset & group), 1) - (min(group) in subset))
        return value

    return SubmodularOracle(n, f)


def test_wolfe_rescales_on_new_denominators(monkeypatch):
    bases = []
    greedy_base = sfm._greedy_base

    def recording_greedy_base(oracle, weights, f0):
        bases.append(greedy_base(oracle, weights, f0))
        return bases[-1]

    monkeypatch.setattr(sfm, "_greedy_base", recording_greedy_base)
    rng = random.Random(235)
    integral_then_not = raised_late = 0
    for _ in range(120):
        oracle = staggered_oracle(rng, rng.randint(2, 9))
        assert verify_submodular(oracle)
        bases.clear()
        assert check_mnp_matches_exhaustive(oracle) == []
        dens = [lcm(*(b.denominator for b in base)) for base in bases]
        integral_then_not += dens[0] == 1 and any(d > 1 for d in dens[1:])
        # the scale is raised after the corral has been bordered at least once
        raised_late += any(lcm(*dens[:i]) % d for i, d in enumerate(dens) if i >= 2)
    assert integral_then_not >= 10
    assert raised_late >= 3
    # Wolfe reaches x* = (1, 1, -1), the greedy base of order (2, 1, 0), as a
    # one-point corral; the terminating base, of order (2, 0, 1), is (3/2, 1/2, -1)
    table = {(): 0, (0,): 2, (1,): 2, (2,): -1, (0, 1): 3, (0, 2): Fraction(1, 2),
             (1, 2): 0, (0, 1, 2): 1}
    oracle = SubmodularOracle(3, lambda s: table[tuple(sorted(s))])
    assert verify_submodular(oracle)
    bases.clear()
    assert check_mnp_matches_exhaustive(oracle) == []
    assert [lcm(*(b.denominator for b in base)) for base in bases] == [1, 1, 2]


def test_wolfe_failures_name_their_state(monkeypatch):
    values = [0, 1, -2, 1, -2, -1, -2, 3]  # by mask; not submodular
    oracle = SubmodularOracle(3, lambda s: values[sum(1 << i for i in s)])
    with pytest.raises(InternalInvariantError, match=r"\(ground set 3, corral 1, step 1\)"):
        minimize_polynomial(oracle)
    monkeypatch.setattr(sfm, "_WOLFE_MAX_STEPS", 2)
    with pytest.raises(NotConverged, match=r"\(ground set 6, corral \d+, step 3\)"):
        minimize_polynomial(coverage_oracle(6, random.Random(1)))


def test_affine_minimizer():
    def points(*rows):
        return [tuple(Fraction(x) for x in row) for row in rows]

    def gram(corral):
        return [[sum((a * b for a, b in zip(p, r)), Fraction(0)) for r in corral] for p in corral]

    assert _affine_minimizer(gram(points((3, -1)))) == [1]
    assert _affine_minimizer(gram(points((1, 2), (0, 1), (1, 2)))) is None
    assert _affine_minimizer(gram(points((0, 0, 1), (1, 1, 0), (2, 2, -1)))) is None
    rng = random.Random(3)
    corrals = [points((1, 0), (0, 1)), points((2, 1, 0), (1, 1, 1), (0, 3, -1))]
    for _ in range(20):
        dim = rng.randint(1, 5)
        corrals.append([tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
                        for _ in range(rng.randint(1, dim + 1))])
    independent = 0
    for corral in corrals:
        mu = _affine_minimizer(gram(corral))
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
