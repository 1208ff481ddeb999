"""Exact submodular function minimization over small ground sets.

Two backends share one contract: return the minimum value together with the
unique maximal minimizer (the union of all minimizing subsets, which is
itself a minimizer when the function is submodular).

* minimize_exhaustive scans every subset; guard at 20 elements.
* minimize_polynomial runs the min-norm-point (Fujishige-Wolfe) method on the
  base polytope exactly: extreme bases are stored scaled to integer vectors,
  the corral's Gram is exact integers, and rationals appear only in the
  convex coefficients lam.  It reads the maximal minimizer off the signs of
  the optimal point, then applies a maximality closure.  Each minor cycle's
  KKT system is solved by linalg's fraction-free Q kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterable, Sequence

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

    def eval_prefixes(self, order: Sequence[int]) -> list[Fraction]:
        """Values on the growing prefixes {order[0]}, {order[0], order[1]}, ... of an order.

        This default evaluates each prefix mask on its own; an oracle that can
        extend one prefix's work to the next overrides it.
        """
        values = []
        mask = 0
        for i in order:
            mask |= 1 << i
            values.append(self.eval_mask(mask))
        return values


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


def _greedy_base(oracle: SubmodularOracle, weights: list, f0: Fraction) -> tuple:
    """Edmonds' greedy extreme base minimizing <weights, b> over the base polytope.

    Ties in the weights break lexicographically by index, so the whole method
    is deterministic.  The function is implicitly normalized by f0 = f(empty).
    The greedy order's prefixes form one chain, which the oracle evaluates in
    a single eval_prefixes call.
    """
    n = oracle.n
    # sorted is stable, so equal weights keep index order
    order = sorted(range(n), key=weights.__getitem__)
    base = [Fraction(0)] * n
    prev = f0
    for i, cur in zip(order, oracle.eval_prefixes(order)):
        base[i] = cur - prev
        prev = cur
    return tuple(base)


def _affine_minimizer(gram: list[list]) -> list[Fraction] | None:
    """Coefficients of the min-norm point of the affine hull of a corral, from its Gram.

    Solves the KKT system [[0, 1^T], [1, Gram]] (lam, mu) = (1, 0) exactly with
    linalg's fraction-free Q kernel; returns None if the points are affinely
    dependent (singular system).  The coefficients do not change when every
    point is multiplied by a common positive scale.
    """
    m = len(gram)
    rows = [[0] + [1] * m + [1]] + [[1, *row, 0] for row in gram]
    reduced = _rref_q(rows)
    # Nonsingular exactly when columns 0..m all hold pivots, the last in row m.
    if len(reduced) <= m or not reduced[m][m]:
        return None
    return [row[m + 1] for row in reduced[1:]]


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


def _scaled_base(base: tuple, scale: int) -> tuple[list[int], int]:
    """(scale * base as integers, scale), scale first raised to an lcm with base's denominators."""
    scale = lcm(scale, *(b.denominator for b in base))
    return [b.numerator * (scale // b.denominator) for b in base], scale


def minimize_polynomial(oracle: SubmodularOracle) -> MinimizerResult:
    """Min-norm-point minimization, exact, with the corral kept in integers.

    Wolfe's algorithm keeps a corral S of affinely independent extreme bases
    and the min-norm point x of their convex hull.  Each greedy base costs one
    oracle.eval_prefixes call along its order, which an oracle may evaluate
    as a single chain (InsertionOracle extends one span state per prefix).
    Each greedy base is stored as scale * base, an integer vector, with one
    integer scale per call that only grows (to an lcm) when a base brings a
    new denominator.  The corral's Gram is exact integers, kept across minor
    cycles by bordering and deleting one row and column at a time.  Rationals
    appear only in the convex coefficients lam_i = a_i / D, which come from
    each corral's KKT system, solved by linalg's fraction-free Q kernel; x
    itself is held as the integer vector x_int = sum a_i p_i = D * scale * x.
    With exact arithmetic the optimality test <x, greedy(x)> >= <x, x> is an
    equality test, so the optimum is exact.  The maximal minimizer is
    {i : x*_i <= 0}; a closure pass afterwards re-checks maximality element
    by element.
    """
    n = oracle.n
    f0 = oracle.eval_mask(0)
    if n == 0:
        return MinimizerResult(f0, frozenset(), True)

    point, scale = _scaled_base(_greedy_base(oracle, [0] * n, f0), 1)
    corral: list[list[int]] = [point]
    gram: list[list[int]] = [[_idot(point, point)]]
    coeffs, denom = [1], 1
    x_int = point

    steps = 0

    def where() -> str:
        return f"(ground set {n}, corral {len(corral)}, step {steps})"

    while True:
        steps += 1
        if steps > _WOLFE_MAX_STEPS:
            raise NotConverged(f"min-norm point iteration exceeded its safety bound {where()}")
        # D * scale > 0, so x_int sorts exactly as x does.
        q, new_scale = _scaled_base(_greedy_base(oracle, x_int, f0), scale)
        if new_scale != scale:
            ratio = new_scale // scale
            corral = [[ratio * v for v in p] for p in corral]
            gram = [[ratio * ratio * v for v in row] for row in gram]
            x_int = [ratio * v for v in x_int]
            scale = new_scale
        border = [_idot(p, q) for p in corral]
        # <x, q> >= <x, x>, multiplied through by D^2 * scale^2.
        if denom * _idot(coeffs, border) >= _idot(coeffs, [_idot(row, coeffs) for row in gram]):
            break
        for row, v in zip(gram, border):
            row.append(v)
        border.append(_idot(q, q))
        gram.append(border)
        corral.append(q)
        lam = [Fraction(a, denom) for a in coeffs] + [Fraction(0)]
        while True:
            steps += 1
            if steps > _WOLFE_MAX_STEPS:
                raise NotConverged(f"min-norm point iteration exceeded its safety bound {where()}")
            mu = _affine_minimizer(gram)
            if mu is None:
                raise InternalInvariantError(f"corral became affinely dependent {where()}")
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
            gram = [[gram[i][j] for j in keep] for i in keep]
            lam = [lam[i] for i in keep]
        denom = lcm(*(l.denominator for l in lam))
        coeffs = [l.numerator * (denom // l.denominator) for l in lam]
        x_int = [_idot(coeffs, column) for column in zip(*corral)]

    # Fujishige: min f - f0 equals the sum of the negative coordinates of x*,
    # attained maximally by the nonpositive coordinates; x* = x_int / (D * scale).
    expected = f0 + Fraction(sum(v for v in x_int if v < 0), denom * scale)
    mask = 0
    for i, v in enumerate(x_int):
        if v <= 0:
            mask |= 1 << i
    value = oracle.eval_mask(mask)
    if value != expected:
        raise InternalInvariantError(
            f"min-norm point inconsistent: f(S0) = {value}, predicted {expected} {where()}")
    closed = maximality_closure(oracle, _mask_to_set(mask))
    closed_value = oracle.eval(closed)
    if closed_value != value:
        raise InternalInvariantError(f"maximality closure changed the minimum value {where()}")
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
