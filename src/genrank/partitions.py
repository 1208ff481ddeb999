"""Subspace families, partitions of their index sets, and the partition rank.

The central quantity is, for a family F of nonzero subspaces and a rational
parameter c, the minimum over all partitions of the index set of the sum of
(dim span(block) - c) over blocks.  For c > 0 the value-minimizing partition
with the fewest blocks is unique; rho_bruteforce checks that uniqueness
explicitly on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    InternalInvariantError,
    InvalidPartition,
    MismatchedGroundSet,
    MixedAmbient,
    TooLarge,
    ZeroSubspace,
)
from .fields import FieldSpec, as_fraction
from .linalg import Subspace, _extend_basis, _primitive, subspace_from_rows

BRUTEFORCE_LIMIT = 12


@dataclass(frozen=True)
class SubspaceFamily:
    """A finite multiset of nonzero subspaces of one ambient space.

    Members are indexed 0..len-1 and duplicates are allowed; partitions and
    ranks are always phrased in terms of indices.
    """

    field: FieldSpec
    ambient_dim: int
    members: tuple[Subspace, ...]

    def __post_init__(self):
        for i, s in enumerate(self.members):
            if s.ambient_dim != self.ambient_dim or s.field != self.field:
                raise MixedAmbient(f"member {i} lives in a different ambient space")
            if s.is_zero:
                raise ZeroSubspace(f"member {i} is the zero subspace")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Subspace]:
        return iter(self.members)

    def __getitem__(self, i: int) -> Subspace:
        return self.members[i]


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of integer indices, canonically ordered.

    Canonical form: each block sorted ascending, blocks sorted by their
    smallest element.  The ground set is the union of the blocks; it need not
    be a full range, so restrictions to subsets are first-class partitions.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise InvalidPartition("empty block")
            for i in block:
                if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                    raise InvalidPartition(f"bad index {i!r}")
                if i in seen:
                    raise InvalidPartition(f"index {i} appears in two blocks")
                seen.add(i)
            if tuple(sorted(block)) != block:
                raise InvalidPartition("block not sorted ascending")
        order = tuple(b[0] for b in self.blocks)
        if order != tuple(sorted(order)):
            raise InvalidPartition("blocks not sorted by smallest element")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1))
        return cls(canon)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((i,) for i in range(n)))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),) if n else ())

    @property
    def ground(self) -> frozenset[int]:
        return frozenset(i for b in self.blocks for i in b)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def relabel(self, mapping: dict[int, int]) -> "Partition":
        """Apply an injective index relabeling (used to compare restrictions)."""
        return Partition.from_blocks([[mapping[i] for i in b] for b in self.blocks])

    def to_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


@dataclass(frozen=True)
class RhoResult:
    value: Fraction
    partition: Partition


def _require_full_partition(pi: Partition, n: int):
    if pi.ground != frozenset(range(n)):
        raise InvalidPartition(f"partition does not cover exactly 0..{n - 1}")


class SpanRankCache:
    """Rank of sp(seed rows + members selected by bitmask), memoized.

    A state is an echelon basis from linalg's integer kernels: primitive
    integer rows eliminated fraction-free over Q, residue rows with one
    reduction mod p per entry over F_p.  Member and seed rows are made
    primitive once, here, over Q.

    The state of a mask extends the state of the mask with its lowest set bit
    removed by that member's rows, so evaluating all subsets costs one row
    insertion per subset instead of a fresh elimination.  A state with ncols
    pivots already spans everything: every superset mask shares it as is.
    """

    def __init__(self, members: Sequence[Subspace], seed_rows: Sequence[Sequence] = (),
                 field: FieldSpec | None = None, ncols: int | None = None):
        if members:
            field = members[0].field
            ncols = members[0].ambient_dim
        if field is None or ncols is None:
            raise MixedAmbient("empty cache needs an explicit field and width")
        self.field = field
        self.ncols = ncols
        convert = _primitive if field.p is None else tuple
        self.member_rows = [[convert(r) for r in m.basis.rows] for m in members]
        self._states: dict[int, list] = {
            0: _extend_basis([], map(convert, seed_rows), field.p, ncols)}

    def _state(self, mask: int) -> list:
        states = self._states
        state = states.get(mask)
        if state is not None:
            return state
        # Strip low bits down to the nearest cached ancestor, then build back up.
        chain = []
        while state is None:
            chain.append(mask)
            mask &= mask - 1
            state = states.get(mask)
        # A state that gains no row is shared with its parent rather than copied.
        for mask in reversed(chain):
            if len(state) < self.ncols:
                rows = self.member_rows[(mask & -mask).bit_length() - 1]
                grown = _extend_basis(list(state), rows, self.field.p, self.ncols)
                if len(grown) > len(state):
                    state = grown
            states[mask] = state
        return state

    def rank(self, mask: int) -> int:
        return len(self._state(mask))


def rho_of_partition(family: SubspaceFamily, pi: Partition, c) -> Fraction:
    """Sum of (dim span(block) - c) over the blocks of pi."""
    c = as_fraction(c)
    _require_full_partition(pi, len(family))
    if not len(family):
        return Fraction(0)
    cache = SpanRankCache(family.members)
    total = Fraction(0)
    for block in pi.blocks:
        mask = 0
        for i in block:
            mask |= 1 << i
        total += cache.rank(mask) - c
    return total


def _set_partitions(n: int) -> Iterator[list[list[int]]]:
    """All set partitions of range(n), generated by element assignment."""
    if n == 0:
        yield []
        return
    blocks: list[list[int]] = []

    def place(i: int):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from place(i + 1)
            b.pop()
        blocks.append([i])
        yield from place(i + 1)
        blocks.pop()

    yield from place(0)


def rho_bruteforce(family: SubspaceFamily, c) -> RhoResult:
    """Exhaustive minimum over all partitions, with a uniqueness check.

    Only intended as a ground-truth oracle: the guard rejects families with
    more than BRUTEFORCE_LIMIT members.  Among the value minimizers exactly
    one partition must have the fewest blocks; anything else is a bug in the
    theory this package rests on, so it raises InternalInvariantError.
    """
    c = as_fraction(c)
    n = len(family)
    if n > BRUTEFORCE_LIMIT:
        raise TooLarge(f"brute force limited to {BRUTEFORCE_LIMIT} members, got {n}")
    if n == 0:
        return RhoResult(Fraction(0), Partition.from_blocks([]))
    cache = SpanRankCache(family.members)
    best_value: Fraction | None = None
    best_blocks = n + 1
    best_partition: list[list[int]] | None = None
    ties = 0
    for blocks in _set_partitions(n):
        total = Fraction(0)
        for block in blocks:
            mask = 0
            for i in block:
                mask |= 1 << i
            total += cache.rank(mask) - c
        if best_value is None or total < best_value:
            best_value = total
            best_blocks = len(blocks)
            best_partition = blocks
            ties = 1
        elif total == best_value:
            if len(blocks) < best_blocks:
                best_blocks = len(blocks)
                best_partition = blocks
                ties = 1
            elif len(blocks) == best_blocks:
                ties += 1
    if ties != 1:
        raise InternalInvariantError(
            f"{ties} minimizing partitions with {best_blocks} blocks; expected exactly one")
    return RhoResult(best_value, Partition.from_blocks(best_partition))


def restrict_partition(pi: Partition, subset: Iterable[int]) -> Partition:
    """Intersect every block with the subset and drop the empties."""
    s = set(subset)
    if not s <= pi.ground:
        raise MismatchedGroundSet("subset is not contained in the partition's ground set")
    blocks = []
    for b in pi.blocks:
        kept = [i for i in b if i in s]
        if kept:
            blocks.append(kept)
    return Partition.from_blocks(blocks)


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of `fine` sits inside one block of `coarse`."""
    if fine.ground != coarse.ground:
        raise MismatchedGroundSet("partitions cover different index sets")
    owner: dict[int, int] = {}
    for bi, b in enumerate(coarse.blocks):
        for i in b:
            owner[i] = bi
    for b in fine.blocks:
        if len({owner[i] for i in b}) > 1:
            return False
    return True


def hat_family(family: SubspaceFamily, pi_star: Partition, c) -> SubspaceFamily:
    """Replace each block of the minimal partition by the span of its members.

    Distinct blocks of a minimal partition have distinct spans whenever the
    span dimension is at least c (merging equal spans would keep the value
    and lose a block).  Below c equal spans can legitimately coexist, so the
    duplicate check is scoped to dimensions >= c.
    """
    c = as_fraction(c)
    _require_full_partition(pi_star, len(family))
    members = []
    for block in pi_star.blocks:
        rows = []
        for i in block:
            rows.extend(family[i].basis.rows)
        members.append(subspace_from_rows(family.field, family.ambient_dim, rows))
    _check_hat_distinct(members, c)
    return SubspaceFamily(family.field, family.ambient_dim, tuple(members))


def _check_hat_distinct(members: Sequence[Subspace], c: Fraction):
    """Duplicate hat members are only legitimate below dimension c.

    Only members of dimension >= c can raise, and only members of equal
    dimension can coincide, so just those are hashed.
    """
    by_dim: dict[int, list[int]] = {}
    for i, m in enumerate(members):
        if m.dim >= c:
            by_dim.setdefault(m.dim, []).append(i)
    for indices in by_dim.values():
        if len(indices) < 2:
            continue
        seen: dict[Subspace, int] = {}
        for i in indices:
            j = seen.setdefault(members[i], i)
            if j != i:
                raise InternalInvariantError(
                    f"hat members {j} and {i} coincide with dimension {members[i].dim} >= c = {c}")
