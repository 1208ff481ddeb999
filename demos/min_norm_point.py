"""Exact submodular minimization by the min-norm-point method.

Two backends minimize the same oracle: an exhaustive subset scan and a
min-norm-point computation run in exact arithmetic, so there is no
convergence tolerance to tune.  Its extreme bases are scaled to integer
vectors, their Gram is exact integers, and rationals appear only in the
convex coefficients.  Both report the maximal minimizer, the union of
every minimizing subset, which is itself a minimizer because the minimizers
of a submodular function form a lattice.

Run:  python3 demos/min_norm_point.py
"""

from __future__ import annotations

from fractions import Fraction

from genrank import (
    SubmodularOracle,
    maximality_closure,
    minimize_exhaustive,
    minimize_polynomial,
    verify_submodular,
)


def coverage_oracle():
    """Weighted coverage: f(S) = |union of A_i| - sum of weights, submodular."""
    sets = [
        {0, 1, 2},
        {2, 3},
        {3, 4, 5},
        {0, 5},
        {6},
        {7},
    ]
    # Sets 4 and 5 cost exactly what they cover, so adding either never
    # changes the value; together with the {0,3} plateau this makes the
    # minimizer lattice large enough to be interesting.
    weights = [Fraction(3, 2), Fraction(1), Fraction(7, 2), Fraction(1, 2),
               Fraction(1), Fraction(1)]

    def f(subset):
        covered = set()
        total = Fraction(0)
        for i in subset:
            covered |= sets[i]
            total += weights[i]
        return Fraction(len(covered)) - total

    return SubmodularOracle(len(sets), f)


def main():
    oracle = coverage_oracle()
    assert verify_submodular(oracle)
    print(f"coverage oracle on {oracle.n} sets: submodularity verified exhaustively")

    exhaustive = minimize_exhaustive(oracle)
    polynomial = minimize_polynomial(oracle)
    print(f"exhaustive scan:  value {exhaustive.value}, "
          f"maximal minimizer {sorted(exhaustive.minimizer)}")
    print(f"min-norm point:   value {polynomial.value}, "
          f"maximal minimizer {sorted(polynomial.minimizer)}")
    assert (exhaustive.value, exhaustive.minimizer) == (polynomial.value, polynomial.minimizer)

    # Every minimizing subset, to show the lattice structure directly.
    minimizing = [frozenset(j for j in range(oracle.n) if mask >> j & 1)
                  for mask in range(1 << oracle.n)
                  if oracle.eval_mask(mask) == exhaustive.value]
    print(f"\nall {len(minimizing)} minimizers:")
    for s in sorted(minimizing, key=lambda s: (len(s), sorted(s))):
        print(f"  {sorted(s) or '{}'}")
    for a in minimizing:
        assert a | exhaustive.minimizer in minimizing
        assert a & exhaustive.minimizer in minimizing
    print("closed under union and intersection; the union of all is the reported one")

    # A one-element-at-a-time closure walk is weaker than it looks: from the
    # smallest minimizer it stalls at {1,2,4,5}, because sets 0 and 3 are
    # only flat when added together.  This is why the min-norm-point backend
    # reads the maximal minimizer off the sign pattern of the optimum instead
    # of hill-walking to it; the walk is only used to re-check maximality.
    smallest = min(minimizing, key=len)
    closed = maximality_closure(oracle, smallest)
    print(f"\nclosure from the smallest minimizer {sorted(smallest) or '{}'} "
          f"stalls at {sorted(closed)}")
    assert closed < exhaustive.minimizer
    assert maximality_closure(oracle, exhaustive.minimizer) == exhaustive.minimizer


if __name__ == "__main__":
    main()
