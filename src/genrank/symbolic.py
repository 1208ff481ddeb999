"""Deterministic rank of two families of symbolic matrices.

An order-2 instance has rows (u.x)v - (v.x)u built from vector pairs; an
order-k instance antisymmetrizes rank-one k-tensors and contracts them with
k-1 vectors of variables.  In both cases the generic rank equals a partition
rank of the spanned subspaces: parameter 1 for pairs, k-1 for k-tensors.

The module also builds explicit bases of subspace-hyperplane intersections
without solving linear systems (cross-product style combinations with signed
minors) and provides the standard randomized evaluation rank to compare
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .engine import rho
from .errors import (
    BadOrder,
    CharTooSmall,
    DimensionMismatch,
    DimTooSmall,
    InternalInvariantError,
    MixedAmbient,
)
from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    _extend_basis,
    _primitive,
    determinant,
    dot,
    kernel_in_subspace,
    rank,
    rref,
    subspace_from_rows,
    zero_subspace,
)
from .partitions import SubspaceFamily


@dataclass(frozen=True)
class R2Instance:
    """Rows indexed by vector pairs (u, v) in one ambient space."""

    field: FieldSpec
    ambient_dim: int
    rows: tuple[tuple[tuple, tuple], ...]

    def __post_init__(self):
        for i, (u, v) in enumerate(self.rows):
            if len(u) != self.ambient_dim or len(v) != self.ambient_dim:
                raise DimensionMismatch(f"row {i} has vectors of the wrong length")


@dataclass(frozen=True)
class RkInstance:
    """Rank-one k-tensors given by their k factor vectors."""

    field: FieldSpec
    ambient_dim: int
    order: int
    tensors: tuple[tuple[tuple, ...], ...]

    def __post_init__(self):
        if not 2 <= self.order < self.ambient_dim:
            raise BadOrder(
                f"order {self.order} outside 2 <= k < ambient {self.ambient_dim}")
        for i, factors in enumerate(self.tensors):
            if len(factors) != self.order:
                raise DimensionMismatch(f"tensor {i} has {len(factors)} factors")
            for a in factors:
                if len(a) != self.ambient_dim:
                    raise DimensionMismatch(f"tensor {i} has a factor of the wrong length")


@dataclass(frozen=True)
class IntersectionBasis:
    """Explicit vectors spanning subspace ∩ kernel(constraints)."""

    subspace: Subspace
    constraints: Matrix
    vectors: tuple[tuple, ...]
    used_fallback: bool = False

    def as_subspace(self) -> Subspace:
        if not self.vectors:
            return zero_subspace(self.subspace.field, self.subspace.ambient_dim)
        return subspace_from_rows(self.subspace.field, self.subspace.ambient_dim, self.vectors)


def _pair_span(field: FieldSpec, ambient_dim: int, u: Sequence, v: Sequence) -> Subspace | None:
    """Span of {u, v} if 2-dimensional, else None (degenerate row)."""
    stacked = Matrix.from_rows(field, [tuple(u), tuple(v)], ambient_dim)
    reduced, rk = rref(stacked)
    if rk < 2:
        return None
    return Subspace(ambient_dim, reduced)


def r2_family(inst: R2Instance) -> tuple[SubspaceFamily, list[int]]:
    """Spans of the row pairs; rows with dependent (u, v) are dropped and listed.

    A dependent pair makes the symbolic row identically zero, so dropping it
    never changes the rank.
    """
    members = []
    dropped = []
    for i, (u, v) in enumerate(inst.rows):
        span = _pair_span(inst.field, inst.ambient_dim, u, v)
        if span is None:
            dropped.append(i)
        else:
            members.append(span)
    return SubspaceFamily(inst.field, inst.ambient_dim, tuple(members)), dropped


def r2_rank_and_dropped(inst: R2Instance, backend: str | None = None) -> tuple[int, list[int]]:
    """r2_rank together with r2_family's dropped rows, from one family build."""
    family, dropped = r2_family(inst)
    return int(rho(family, 1, backend=backend).value), dropped


def r2_rank(inst: R2Instance, backend: str | None = None) -> int:
    """Generic rank of the order-2 symbolic matrix: the partition rank at c=1."""
    return r2_rank_and_dropped(inst, backend)[0]


def rk_family(inst: RkInstance) -> tuple[SubspaceFamily, list[int]]:
    """Spans of the factor sets; tensors with dependent factors vanish and are dropped."""
    members = []
    dropped = []
    for i, factors in enumerate(inst.tensors):
        stacked = Matrix.from_rows(inst.field, [tuple(a) for a in factors], inst.ambient_dim)
        reduced, rk = rref(stacked)
        if rk < inst.order:
            dropped.append(i)
        else:
            members.append(Subspace(inst.ambient_dim, reduced))
    return SubspaceFamily(inst.field, inst.ambient_dim, tuple(members)), dropped


def rk_rank_and_dropped(inst: RkInstance, backend: str | None = None) -> tuple[int, list[int]]:
    """rk_rank together with rk_family's dropped tensors, from one family build."""
    family, dropped = rk_family(inst)
    return int(rho(family, inst.order - 1, backend=backend).value), dropped


def rk_rank(inst: RkInstance, backend: str | None = None) -> int:
    """Generic rank of the antisymmetrized order-k matrix: partition rank at c=k-1."""
    return rk_rank_and_dropped(inst, backend)[0]


def intersect_with_hyperplane(f: Subspace, x: Sequence) -> IntersectionBasis:
    """Basis of f ∩ {v : v.x = 0} from pairwise combinations of f's basis.

    With basis rows v_1..v_m and the first i0 with v_i0.x != 0, the vectors
    (v_j.x) v_i0 - (v_i0.x) v_j for j != i0 span the intersection; if every
    dot vanishes, f lies inside the hyperplane.  No linear solving happens;
    the result provably equals kernel_in_subspace(f, [x]).
    """
    if len(x) != f.ambient_dim:
        raise DimensionMismatch("hyperplane normal has the wrong length")
    fld = f.field
    dots = [dot(fld, row, x) for row in f.basis.rows]
    constraints = Matrix.from_rows(fld, [tuple(x)], f.ambient_dim)
    pivot = next((i for i, d in enumerate(dots) if d != 0), None)
    if pivot is None:
        return IntersectionBasis(f, constraints, f.basis.rows)
    vp = f.basis.rows[pivot]
    dp = dots[pivot]
    vectors = []
    for j, (vj, dj) in enumerate(zip(f.basis.rows, dots)):
        if j == pivot:
            continue
        vectors.append(tuple(
            fld.sub(fld.mul(dj, a), fld.mul(dp, b)) for a, b in zip(vp, vj)))
    return IntersectionBasis(f, constraints, tuple(vectors))


def _lex_first_independent_columns(field: FieldSpec, m_rows: Sequence[Sequence], k: int) -> list[int] | None:
    """Greedy lexicographically-first set of k independent columns, or None."""
    ncols = len(m_rows[0]) if m_rows else 0
    p = field.p
    chosen: list[int] = []
    basis: list = []
    for j in range(ncols):
        col = [row[j] for row in m_rows]
        rank_before = len(basis)
        _extend_basis(basis, [_primitive(col) if p is None else col], p, len(col))
        if len(basis) > rank_before:
            chosen.append(j)
            if len(chosen) == k:
                return chosen
    return None


def intersect_with_codim_k(f: Subspace, constraints: Matrix) -> IntersectionBasis:
    """Basis of f ∩ kernel(constraints) via signed-minor combinations.

    Let M be the k x m matrix of dots between constraint rows and basis rows.
    In the generic case (intersection has dimension m-k) pick the first
    independent k columns J; for each other column i the vector
        w_S = sum over j of (-1)^pos det(M with column s_j removed) v_{s_j},
    S = sorted(J + [i]), lies in the intersection, and the m-k of them form a
    basis (checked exactly).  Degenerate instances fall back to the kernel
    solver and say so.
    """
    if constraints.ncols != f.ambient_dim:
        raise DimensionMismatch("constraint width differs from ambient dimension")
    if constraints.field != f.field:
        raise MixedAmbient("constraints and subspace use different fields")
    fld = f.field
    k = constraints.nrows
    m = f.dim
    if k == 0:
        return IntersectionBasis(f, constraints, f.basis.rows)
    if k >= m:
        raise DimTooSmall(f"need strictly more basis vectors ({m}) than constraints ({k})")
    exact = kernel_in_subspace(f, constraints)
    mdots = [
        [dot(fld, crow, brow) for brow in f.basis.rows]
        for crow in constraints.rows
    ]
    chosen = None
    if exact.dim == m - k:
        chosen = _lex_first_independent_columns(fld, mdots, k)
    if chosen is None:
        return IntersectionBasis(f, constraints, exact.basis.rows, used_fallback=True)
    vectors = []
    others = [i for i in range(m) if i not in chosen]
    for i in others:
        s = sorted(chosen + [i])
        w = [fld.zero()] * f.ambient_dim
        for pos, sj in enumerate(s, start=1):
            minor = [[row[t] for t in s if t != sj] for row in mdots]
            coeff = determinant(fld, minor)
            if pos % 2 == 1:
                coeff = fld.neg(coeff)
            if coeff != 0:
                basis_row = f.basis.rows[sj]
                for t in range(f.ambient_dim):
                    if basis_row[t] != 0:
                        w[t] = fld.add(w[t], fld.mul(coeff, basis_row[t]))
        vectors.append(tuple(w))
    result = IntersectionBasis(f, constraints, tuple(vectors))
    _verify_intersection(result, exact)
    return result


def _verify_intersection(result: IntersectionBasis, exact: Subspace):
    fld = result.subspace.field
    for w in result.vectors:
        for crow in result.constraints.rows:
            if dot(fld, crow, w) != 0:
                raise InternalInvariantError("intersection vector fails a constraint")
    if result.as_subspace() != exact:
        raise InternalInvariantError("signed-minor basis does not span the exact intersection")


def evaluate_r2_matrix(inst: R2Instance, x: Sequence) -> Matrix:
    """Evaluate the symbolic rows at the point x: row_i = (u_i.x) v_i - (v_i.x) u_i."""
    if len(x) != inst.ambient_dim:
        raise DimensionMismatch("evaluation point has the wrong length")
    fld = inst.field
    rows = []
    for u, v in inst.rows:
        ux = dot(fld, u, x)
        vx = dot(fld, v, x)
        rows.append(tuple(
            fld.sub(fld.mul(ux, b), fld.mul(vx, a)) for a, b in zip(u, v)))
    return Matrix(fld, tuple(rows), inst.ambient_dim)


def evaluate_rk_matrix(inst: RkInstance, points: Sequence[Sequence]) -> Matrix:
    """Contract each antisymmetrized tensor with k-1 points.

    Expansion along the symbolic last row of the k x k matrix whose first
    k-1 rows are the dots (x^r . a^j): the row is
        sum_j (-1)^(k+j) det(B with column j removed) a^j
    with B the (k-1) x k dot matrix.  This equals the permutation-sum
    contraction exactly (the tests compare row by row).
    """
    k = inst.order
    if len(points) != k - 1:
        raise DimensionMismatch(f"need {k - 1} evaluation points, got {len(points)}")
    for p in points:
        if len(p) != inst.ambient_dim:
            raise DimensionMismatch("evaluation point has the wrong length")
    fld = inst.field
    rows = []
    for factors in inst.tensors:
        b = [[dot(fld, p, a) for a in factors] for p in points]
        row = [fld.zero()] * inst.ambient_dim
        for j in range(k):
            minor = [[brow[t] for t in range(k) if t != j] for brow in b]
            coeff = determinant(fld, minor)
            if (k + j + 1) % 2 == 1:
                coeff = fld.neg(coeff)
            if coeff != 0:
                a = factors[j]
                for t in range(inst.ambient_dim):
                    if a[t] != 0:
                        row[t] = fld.add(row[t], fld.mul(coeff, a[t]))
        rows.append(tuple(row))
    return Matrix(fld, tuple(rows), inst.ambient_dim)


def randomized_rank(evaluate: Callable[[random.Random], Matrix], field: FieldSpec,
                    trials: int = 5, rng: random.Random | None = None) -> int:
    """Maximum exact rank over seeded random evaluations in a prime field.

    The field characteristic must exceed the number of matrix rows for the
    standard union-bound guarantee; each trial draws its randomness from an
    independent seed-derived stream.
    """
    if field.p is None:
        raise CharTooSmall("randomized rank needs a prime field")
    rng = rng or random.Random(0)
    best = 0
    for _ in range(trials):
        child = random.Random(rng.getrandbits(64))
        matrix = evaluate(child)
        if field.p <= matrix.nrows:
            raise CharTooSmall(
                f"characteristic {field.p} is not above the row count {matrix.nrows}")
        best = max(best, rank(matrix))
    return best


def split_to_planes(family: SubspaceFamily) -> SubspaceFamily:
    """Replace each member by the planes of all its basis-vector pairs.

    Every member must have dimension at least 2; a 2-dimensional member maps
    to itself.
    """
    members = []
    for i, f in enumerate(family):
        if f.dim < 2:
            raise DimTooSmall(f"member {i} has dimension {f.dim} < 2")
        rows = f.basis.rows
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                members.append(subspace_from_rows(family.field, family.ambient_dim,
                                                  [rows[a], rows[b]]))
    return SubspaceFamily(family.field, family.ambient_dim, tuple(members))


# -- field transport ---------------------------------------------------------

def r2_to_prime(inst: R2Instance, p: int) -> R2Instance:
    """Reinterpret a rational instance over F_p (exact where denominators allow)."""
    target = FieldSpec.prime(p)
    rows = tuple(
        (tuple(target.convert_from_rational(a) for a in u),
         tuple(target.convert_from_rational(a) for a in v))
        for u, v in inst.rows
    )
    return R2Instance(target, inst.ambient_dim, rows)


def rk_to_prime(inst: RkInstance, p: int) -> RkInstance:
    target = FieldSpec.prime(p)
    tensors = tuple(
        tuple(tuple(target.convert_from_rational(a) for a in factor) for factor in factors)
        for factors in inst.tensors
    )
    return RkInstance(target, inst.ambient_dim, inst.order, tensors)
