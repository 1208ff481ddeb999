"""Deterministic computation of the partition rank by single insertions.

The engine maintains a compressed family (the "hat"): one subspace per block
of the minimal partition found so far, plus the original indices each block
absorbed.  Inserting a new subspace g reduces to minimizing one submodular
set function on the current hat: the minimizer X* tells which hat members
merge with g, every other member stays a singleton block.  For c <= 0 no
search is needed: one big block is always optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedAmbient
from .fields import FieldSpec, as_fraction
from .linalg import Subspace, span_dim, subspace_from_rows
from .partitions import Partition, RhoResult, SpanRankCache, SubspaceFamily
from .partitions import _check_hat_distinct as _check_hat
from .sfm import (
    EXHAUSTIVE_LIMIT,
    MinimizerResult,
    SubmodularOracle,
    minimize_exhaustive,
    minimize_polynomial,
)

# Ground sets up to this size default to the exhaustive backend.
AUTO_EXHAUSTIVE_LIMIT = 16


class InsertionOracle(SubmodularOracle):
    """The submodular function driving one insertion.

    For X a subset of the base family, the value is
        dim sp(X + {g}) - c + sum over f outside X of (dim f - c).
    Its maximal minimizer X* is exactly the set of base members that join g's
    block in the minimal partition of base + {g}.
    """

    def __init__(self, base_members: list[Subspace], g: Subspace, c: Fraction):
        super().__init__(len(base_members))
        self.c = c
        self.g = g
        self._cache = SpanRankCache(base_members, seed_rows=g.basis.rows,
                                    field=g.field, ncols=g.ambient_dim)
        self._dims = [m.dim for m in base_members]
        self._dim_total = sum(self._dims)
        # With k members inside X the value is an integer plus -c*(1 + n - k).
        n = self.n
        self._offsets = [-c * (1 + n - k) for k in range(n + 1)]

    def eval_mask(self, mask: int) -> Fraction:
        value = self._memo.get(mask)
        if value is not None:
            return value
        outside = self._dim_total
        dims = self._dims
        m = mask
        while m:
            low = m & -m
            outside -= dims[low.bit_length() - 1]
            m ^= low
        value = self._offsets[mask.bit_count()] + (self._cache.rank(mask) + outside)
        self._memo[mask] = value
        return value


def insertion_oracle(base: SubspaceFamily, g: Subspace, c) -> InsertionOracle:
    """Build the insertion function for a hat family and a new subspace."""
    if g.ambient_dim != base.ambient_dim or g.field != base.field:
        raise MixedAmbient("new subspace lives in a different ambient space")
    return InsertionOracle(list(base.members), g, as_fraction(c))


@dataclass(frozen=True)
class EngineState:
    """Hat members plus the original indices absorbed into each one."""

    c: Fraction
    ambient_dim: int
    field: FieldSpec
    hat: tuple[Subspace, ...]
    blocks: tuple[frozenset[int], ...]

    def hat_family(self) -> SubspaceFamily:
        return SubspaceFamily(self.field, self.ambient_dim, self.hat)

    def value(self) -> Fraction:
        return sum((Fraction(h.dim) - self.c for h in self.hat), Fraction(0))

    def partition(self) -> Partition:
        return Partition.from_blocks([sorted(b) for b in self.blocks])


def empty_state(field, ambient_dim: int, c) -> EngineState:
    return EngineState(as_fraction(c), ambient_dim, field, (), ())


def _minimize(oracle: SubmodularOracle, backend: str | None) -> MinimizerResult:
    if backend is None:
        backend = "exhaustive" if oracle.n <= AUTO_EXHAUSTIVE_LIMIT else "mnp"
    if backend == "exhaustive":
        return minimize_exhaustive(oracle)
    if backend == "mnp":
        return minimize_polynomial(oracle)
    raise ValueError(f"unknown SFM backend {backend!r}")


def insert_subspace(state: EngineState, g: Subspace, original_index: int,
                    backend: str | None = None) -> EngineState:
    """Fold one more subspace into the state.

    The hat members outside the minimizer X* survive unchanged; the members
    inside X* merge with g into a single new span appended at the end.
    """
    if g.ambient_dim != state.ambient_dim or g.field != state.field:
        raise MixedAmbient("inserted subspace lives in a different ambient space")
    if not state.hat:
        return EngineState(state.c, state.ambient_dim, state.field,
                           (g,), (frozenset([original_index]),))
    oracle = InsertionOracle(list(state.hat), g, state.c)
    result = _minimize(oracle, backend)
    merged_rows = list(g.basis.rows)
    merged_indices = {original_index}
    hat = []
    blocks = []
    for i, member in enumerate(state.hat):
        if i in result.minimizer:
            merged_rows.extend(member.basis.rows)
            merged_indices |= state.blocks[i]
        else:
            hat.append(member)
            blocks.append(state.blocks[i])
    hat.append(subspace_from_rows(state.field, state.ambient_dim, merged_rows))
    blocks.append(frozenset(merged_indices))
    _check_hat(hat, state.c)
    return EngineState(state.c, state.ambient_dim, state.field, tuple(hat), tuple(blocks))


def rho(family: SubspaceFamily, c, backend: str | None = None) -> RhoResult:
    """Partition rank and minimal partition of a family.

    For c <= 0 the single-block partition is always optimal, so the value is
    dim sp(F) - c directly; the empty family has value 0 under the empty
    partition.  For c > 0 the members are folded in one at a time.
    """
    c = as_fraction(c)
    n = len(family)
    if n == 0:
        return RhoResult(Fraction(0), Partition.from_blocks([]))
    if c <= 0:
        return RhoResult(Fraction(span_dim(family.members)) - c, Partition.single_block(n))
    state = empty_state(family.field, family.ambient_dim, c)
    for i, member in enumerate(family):
        state = insert_subspace(state, member, i, backend=backend)
    return RhoResult(state.value(), state.partition())
