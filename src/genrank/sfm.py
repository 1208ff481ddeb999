"""Exact submodular function minimization over small ground sets.

Two backends share one contract: return the minimum value together with the
unique maximal minimizer (the union of all minimizing subsets, which is
itself a minimizer when the function is submodular).

* minimize_exhaustive scans every subset; guard at 20 elements.
* minimize_polynomial runs the min-norm-point (Fujishige-Wolfe) method on the
  base polytope in exact rational arithmetic, reads the maximal minimizer off
  the signs of the optimal point, then applies a maximality closure.  Each
  minor cycle's KKT system is solved by linalg's fraction-free Q kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .errors import InternalInvariantError, NotConverged, TooLarge
from .linalg import _rref_q

EXHAUSTIVE_LIMIT = 20

# Generous safety bound: exact Wolfe terminates on its own because no corral
# repeats; the cap only turns an algorithmic bug into a clean failure.
_WOLFE_MAX_STEPS = 10**6


class SubmodularOracle:
    """A set function on subsets of {0..n-1} with exact rational values.

    Subclasses may override eval_mask for a faster bitmask path; values are
    memoized so repeated queries are cheap.
    """

    def __init__(self, n: int, fn: Callable[[frozenset[int]], Fraction] | None = None):
        self.n = n
        self._fn = fn
        self._memo: dict[int, Fraction] = {}

    def eval_mask(self, mask: int) -> Fraction:
        value = self._memo.get(mask)
        if value is None:
            if self._fn is None:
                raise NotImplementedError("override eval_mask or supply fn")
            value = Fraction(self._fn(_mask_to_set(mask)))
            self._memo[mask] = value
        return value

    def eval(self, subset: Iterable[int]) -> Fraction:
        return self.eval_mask(_set_to_mask(subset, self.n))


@dataclass(frozen=True)
class MinimizerResult:
    value: Fraction
    minimizer: frozenset[int]
    is_maximal: bool


def _set_to_mask(subset: Iterable[int], n: int) -> int:
    mask = 0
    for i in subset:
        if not 0 <= i < n:
            raise ValueError(f"index {i} outside ground set of size {n}")
        mask |= 1 << i
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def minimize_exhaustive(oracle: SubmodularOracle) -> MinimizerResult:
    """Scan all subsets; the reported minimizer is the union of all minimizers."""
    n = oracle.n
    if n > EXHAUSTIVE_LIMIT:
        raise TooLarge(f"exhaustive scan limited to {EXHAUSTIVE_LIMIT} elements, got {n}")
    best = oracle.eval_mask(0)
    union = 0
    for mask in range(1, 1 << n):
        v = oracle.eval_mask(mask)
        if v < best:
            best = v
            union = mask
        elif v == best:
            union |= mask
    if oracle.eval_mask(union) != best:
        raise InternalInvariantError(
            "union of minimizers does not minimize; the oracle is not submodular")
    return MinimizerResult(best, _mask_to_set(union), True)


def maximality_closure(oracle: SubmodularOracle, start: frozenset[int],
                       order: list[int] | None = None) -> frozenset[int]:
    """Grow a set by any element that does not increase the value, to a fixpoint.

    Started from a minimizer of a submodular function the fixpoint is
    independent of the scan order (flat additions commute), but it can stall
    strictly below the maximal minimizer when only a group of elements is
    jointly flat.  Started from the maximal minimizer itself the walk adds
    nothing, which is the maximality re-check minimize_polynomial relies on.
    """
    scan = list(range(oracle.n)) if order is None else list(order)
    mask = _set_to_mask(start, oracle.n)
    value = oracle.eval_mask(mask)
    changed = True
    while changed:
        changed = False
        for i in scan:
            bit = 1 << i
            if mask & bit:
                continue
            if oracle.eval_mask(mask | bit) <= value:
                mask |= bit
                value = oracle.eval_mask(mask)
                changed = True
    return _mask_to_set(mask)


def _greedy_base(oracle: SubmodularOracle, weights: list[Fraction], f0: Fraction) -> tuple:
    """Edmonds' greedy extreme base minimizing <weights, b> over the base polytope.

    Ties in the weights break lexicographically by index, so the whole method
    is deterministic.  The function is implicitly normalized by f0 = f(empty).
    """
    n = oracle.n
    order = sorted(range(n), key=lambda i: (weights[i], i))
    base = [Fraction(0)] * n
    mask = 0
    prev = f0
    for i in order:
        mask |= 1 << i
        cur = oracle.eval_mask(mask)
        base[i] = cur - prev
        prev = cur
    return tuple(base)


def _affine_minimizer(points: list[tuple]) -> list[Fraction] | None:
    """Coefficients of the min-norm point of the affine hull of the points.

    Solves the KKT system [[0, 1^T], [1, Gram]] (lam, mu) = (1, 0) exactly with
    linalg's fraction-free Q kernel; returns None if the points are affinely
    dependent (singular system).
    """
    m = len(points)
    rows = [[0] + [1] * m + [1]] + [[1] + [0] * (m + 1) for _ in points]
    for i, pi in enumerate(points):
        for j in range(i, m):
            rows[i + 1][j + 1] = rows[j + 1][i + 1] = _dot(pi, points[j])
    reduced = _rref_q(rows)
    # Nonsingular exactly when columns 0..m all hold pivots, the last in row m.
    if len(reduced) <= m or not reduced[m][m]:
        return None
    return [row[m + 1] for row in reduced[1:]]


def _dot(u: tuple, v: tuple) -> Fraction:
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def minimize_polynomial(oracle: SubmodularOracle) -> MinimizerResult:
    """Min-norm-point minimization with exact rationals.

    Wolfe's algorithm keeps a corral S of affinely independent extreme bases
    and the min-norm point x of their convex hull.  With exact arithmetic the
    optimality test <x, greedy(x)> >= <x, x> is an equality test, so the
    optimum is exact.  The affine minimizer of each corral comes from its KKT
    system, solved by linalg's fraction-free Q kernel.  The maximal minimizer
    is {i : x*_i <= 0}; a closure pass afterwards re-checks maximality
    element by element.
    """
    n = oracle.n
    f0 = oracle.eval_mask(0)
    if n == 0:
        return MinimizerResult(f0, frozenset(), True)

    x = _greedy_base(oracle, [Fraction(0)] * n, f0)
    corral: list[tuple] = [x]
    lam: list[Fraction] = [Fraction(1)]

    steps = 0
    while True:
        steps += 1
        if steps > _WOLFE_MAX_STEPS:
            raise NotConverged("min-norm point iteration exceeded its safety bound")
        q = _greedy_base(oracle, list(x), f0)
        if _dot(x, q) >= _dot(x, x):
            break
        corral.append(q)
        lam.append(Fraction(0))
        while True:
            steps += 1
            if steps > _WOLFE_MAX_STEPS:
                raise NotConverged("min-norm point iteration exceeded its safety bound")
            mu = _affine_minimizer(corral)
            if mu is None:
                raise InternalInvariantError("corral became affinely dependent")
            if all(m > 0 for m in mu):
                lam = mu
                break
            # Step back to the boundary of the simplex and drop dead points.
            theta = None
            for l, m in zip(lam, mu):
                if m <= 0:
                    t = l / (l - m)
                    if theta is None or t < theta:
                        theta = t
            lam = [theta * m + (1 - theta) * l for l, m in zip(lam, mu)]
            keep = [i for i, l in enumerate(lam) if l > 0]
            corral = [corral[i] for i in keep]
            lam = [lam[i] for i in keep]
        x = tuple(
            sum((l * p[i] for l, p in zip(lam, corral)), Fraction(0)) for i in range(n)
        )

    # Fujishige: min f - f0 equals the sum of the negative coordinates of x*,
    # attained maximally by the nonpositive coordinates.
    expected = f0 + sum((v for v in x if v < 0), Fraction(0))
    mask = 0
    for i, v in enumerate(x):
        if v <= 0:
            mask |= 1 << i
    value = oracle.eval_mask(mask)
    if value != expected:
        raise InternalInvariantError(
            f"min-norm point inconsistent: f(S0) = {value}, predicted {expected}")
    closed = maximality_closure(oracle, _mask_to_set(mask))
    closed_value = oracle.eval(closed)
    if closed_value != value:
        raise InternalInvariantError("maximality closure changed the minimum value")
    return MinimizerResult(value, closed, True)


def verify_submodular(oracle: SubmodularOracle, trials: int = 200,
                      rng: random.Random | None = None) -> bool:
    """Check f(X) + f(Y) >= f(X | Y) + f(X & Y); exhaustive for n <= 6."""
    n = oracle.n
    if n <= 6:
        values = [oracle.eval_mask(m) for m in range(1 << n)]
        for a in range(1 << n):
            for b in range(a + 1, 1 << n):
                if values[a] + values[b] < values[a | b] + values[a & b]:
                    return False
        return True
    rng = rng or random.Random(0)
    full = (1 << n) - 1
    for _ in range(trials):
        a = rng.randrange(full + 1)
        b = rng.randrange(full + 1)
        if oracle.eval_mask(a) + oracle.eval_mask(b) < \
                oracle.eval_mask(a | b) + oracle.eval_mask(a & b):
            return False
    return True
