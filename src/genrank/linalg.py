"""Exact matrices and canonical subspaces.

Everything here is exact: no floats, no tolerances.  A subspace is stored as
the reduced row echelon form of its generators with zero rows dropped, which
makes subspace equality a syntactic comparison.

Elimination has one integer kernel per field rather than one loop over
FieldSpec operations: over F_p it works on canonical residues; over Q it
scales every row to a primitive integer vector, eliminates fraction-free and
divides each pivot row by its pivot once at the end.  The reduced row echelon
form is unique, so both give exactly the Fractions a field-generic loop would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import AllRowsZero, DimensionMismatch, MixedAmbient
from .fields import FieldSpec

Vector = tuple


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix over a single field."""

    field: FieldSpec
    rows: tuple[tuple, ...]
    ncols: int

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch(
                    f"row of length {len(r)} in a {self.ncols}-column matrix")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Sequence], ncols: int | None = None) -> "Matrix":
        tup = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not tup:
                raise DimensionMismatch("cannot infer width of an empty matrix")
            ncols = len(tup[0])
        return cls(field, tup, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Matrix":
        cols = tuple(tuple(r[j] for r in self.rows) for j in range(self.ncols))
        return Matrix(self.field, cols, self.nrows)


def _primitive(row) -> list[int]:
    """The primitive integer vector on the same line as a rational row.

    Denominators are cleared by their lcm and the content (gcd of the
    entries) is divided out; a zero row comes back as all zeros.
    """
    den = lcm(*(x.denominator for x in row))
    if den == 1:
        vec = [x.numerator for x in row]
    else:
        vec = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*vec)
    if g > 1:
        vec = [x // g for x in vec]
    return vec


def _lead(vec) -> int | None:
    return next((j for j, x in enumerate(vec) if x), None)


# Echelon bases.  A basis is a list of (pivot column, row) in insertion order;
# each row is zero before its pivot column and at the pivot columns of the
# rows before it, so one pass in insertion order reduces a vector against all
# of them.  Over Q a row is a full-width primitive integer vector; over F_p it
# is the tail from the pivot column on, scaled so the pivot is 1.

def _eliminate_q(vec: list[int], col: int, piv: list[int]) -> list[int]:
    """Fraction-free step: clear vec[col] with a*vec - x*piv, then divide out the content."""
    a = piv[col]
    x = vec[col]
    g = gcd(a, x)
    if g > 1:
        a //= g
        x //= g
    vec = [a * v - x * w for v, w in zip(vec, piv)]
    g = gcd(*vec)
    if g > 1:
        vec = [v // g for v in vec]
    return vec


def _add_row_q(basis: list, vec: list[int]) -> None:
    """Reduce a primitive integer row against the basis and append what is left, if anything."""
    for col, piv in basis:
        if vec[col]:
            vec = _eliminate_q(vec, col, piv)
    lead = _lead(vec)
    if lead is not None:
        basis.append((lead, vec))


def _add_row_fp(basis: list, row, p: int) -> None:
    """Reduce a row of residues against the basis and append what is left, if anything."""
    vec = list(row)
    for col, tail in basis:
        x = vec[col]
        if x:
            vec[col:] = [(v - x * w) % p for v, w in zip(vec[col:], tail)]
    lead = _lead(vec)
    if lead is not None:
        x = vec[lead]
        if x == 1:
            basis.append((lead, vec[lead:]))
        else:
            inv = pow(x, -1, p)
            basis.append((lead, [v * inv % p for v in vec[lead:]]))


def _extend_basis(basis: list, rows: Iterable[Sequence], p: int | None, ncols: int) -> list:
    """Add each row's part outside the span to the basis, in place, until it spans K^ncols.

    Over Q (p is None) the rows must already be primitive integer vectors.
    """
    for row in rows:
        if len(basis) == ncols:
            break
        if p is None:
            _add_row_q(basis, row)
        else:
            _add_row_fp(basis, row, p)
    return basis


def _echelon(p: int | None, rows: Sequence[Sequence]) -> list:
    """An echelon basis of the span of the rows, over Q when p is None, else over F_p."""
    if not rows:
        return []
    return _extend_basis([], map(_primitive, rows) if p is None else rows, p, len(rows[0]))


def _rref_q(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Reduced row echelon form over Q, nonzero rows only.

    Fraction-free throughout: rows become primitive integer vectors, the echelon
    basis is back-substituted with the same integer step, and each row is
    divided by its pivot once at the end.
    """
    basis = sorted(_echelon(None, rows))
    for i in range(len(basis) - 1, 0, -1):
        col, piv = basis[i]
        for r in range(i):
            above = basis[r][1]
            if above[col]:
                basis[r] = (basis[r][0], _eliminate_q(above, col, piv))
    zero = Fraction(0)
    return [[Fraction(x, row[col]) if x else zero for x in row] for col, row in basis]


def _rref_fp(p: int, rows: Sequence[Sequence]) -> list[list[int]]:
    """Reduced row echelon form over F_p on canonical residues, nonzero rows only."""
    basis = sorted(_echelon(p, rows))
    for i in range(len(basis) - 1, 0, -1):
        col, tail = basis[i]
        for r in range(i):
            start, above = basis[r]
            k = col - start
            x = above[k]
            if x:
                above[k:] = [(v - x * w) % p for v, w in zip(above[k:], tail)]
    return [[0] * col + tail for col, tail in basis]


def _rref_rows(field: FieldSpec, rows: Sequence[Sequence]) -> list[list]:
    """Reduced row echelon form with the zero rows dropped, by the field's own kernel."""
    return _rref_q(rows) if field.p is None else _rref_fp(field.p, rows)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form with zero rows dropped, plus the rank."""
    reduced = _rref_rows(m.field, m.rows)
    return Matrix(m.field, tuple(tuple(r) for r in reduced), m.ncols), len(reduced)


def rank(m: Matrix) -> int:
    return len(_echelon(m.field.p, m.rows))


def determinant(field: FieldSpec, rows: Sequence[Sequence]):
    """Exact determinant of a square matrix given as nested sequences."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    if n == 0:
        return field.one()
    work = [list(r) for r in rows]
    det = field.one()
    for col in range(n):
        sel = None
        for r in range(col, n):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            return field.zero()
        if sel != col:
            work[col], work[sel] = work[sel], work[col]
            det = field.neg(det)
        pivot = work[col][col]
        det = field.mul(det, pivot)
        inv = field.inv(pivot)
        for r in range(col + 1, n):
            if work[r][col] != 0:
                factor = field.mul(work[r][col], inv)
                for j in range(col, n):
                    work[r][j] = field.sub(work[r][j], field.mul(factor, work[col][j]))
    return det


def dot(field: FieldSpec, u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of lengths {len(u)} and {len(v)}")
    acc = field.zero()
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def nullspace(m: Matrix) -> list[tuple]:
    """A basis of the right kernel {y : m y = 0}, one vector per free column."""
    field = m.field
    reduced = _rref_rows(field, m.rows)
    pivots = []
    for row in reduced:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    pivot_set = set(pivots)
    basis = []
    for j in range(m.ncols):
        if j in pivot_set:
            continue
        vec = [field.zero()] * m.ncols
        vec[j] = field.one()
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[r][j])
        basis.append(tuple(vec))
    return basis


def _is_canonical(m: Matrix) -> bool:
    """True iff m is in reduced row echelon form with no zero rows."""
    prev = -1
    pivots = []
    for row in m.rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None or lead <= prev or row[lead] != 1:
            return False
        pivots.append(lead)
        prev = lead
    for r, row in enumerate(m.rows):
        for other, pc in enumerate(pivots):
            if other != r and row[pc] != 0:
                return False
    return True


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^ambient_dim in canonical form.

    The basis matrix is in reduced row echelon form with no zero rows, so two
    equal subspaces are syntactically equal.  A zero-row basis denotes the
    zero subspace; families reject it, intersections may produce it.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.ncols != self.ambient_dim:
            raise DimensionMismatch(
                f"basis width {self.basis.ncols} != ambient {self.ambient_dim}")
        if not _is_canonical(self.basis):
            raise DimensionMismatch("subspace basis is not in reduced row echelon form")

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def is_zero(self) -> bool:
        return self.basis.nrows == 0

    def contains(self, vector: Sequence) -> bool:
        """Exact membership test."""
        if len(vector) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        stacked = Matrix(self.field, self.basis.rows + (tuple(vector),), self.ambient_dim)
        return rank(stacked) == self.dim


def zero_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, Matrix(field, (), ambient_dim))


def subspace_from_rows(field: FieldSpec, ambient_dim: int, rows: Iterable[Sequence]) -> Subspace:
    """Canonicalize spanning rows into a Subspace; rejects the zero span."""
    mat = Matrix.from_rows(field, rows, ambient_dim)
    reduced, rk = rref(mat)
    if rk == 0:
        raise AllRowsZero("the given rows span only the zero subspace")
    return Subspace(ambient_dim, reduced)


def _check_same_space(subspaces: Sequence[Subspace]):
    first = subspaces[0]
    for s in subspaces[1:]:
        if s.ambient_dim != first.ambient_dim or s.field != first.field:
            raise MixedAmbient("subspaces live in different ambient spaces")


def span_dim(subspaces: Sequence[Subspace]) -> int:
    """Dimension of the span of the union; 0 for an empty collection."""
    subspaces = list(subspaces)
    if not subspaces:
        return 0
    _check_same_space(subspaces)
    rows = []
    for s in subspaces:
        rows.extend(s.basis.rows)
    if not rows:
        return 0
    return rank(Matrix(subspaces[0].field, tuple(rows), subspaces[0].ambient_dim))


def kernel_in_subspace(f: Subspace, constraints: Matrix) -> Subspace:
    """The subspace {v in f : constraints @ v = 0}, possibly zero.

    Solved in the coordinates of f: with B the basis of f, the condition
    C (y B) = 0 becomes (C B^T) y = 0, so the kernel of C B^T pulled back
    through B is the answer.
    """
    if constraints.ncols != f.ambient_dim:
        raise DimensionMismatch(
            f"constraint width {constraints.ncols} != ambient {f.ambient_dim}")
    if constraints.field != f.field:
        raise MixedAmbient("constraints and subspace use different fields")
    field = f.field
    if f.is_zero:
        return f
    m = f.dim
    cbt = tuple(
        tuple(dot(field, crow, brow) for brow in f.basis.rows)
        for crow in constraints.rows
    )
    ys = nullspace(Matrix(field, cbt, m))
    if not ys:
        return zero_subspace(field, f.ambient_dim)
    rows = []
    for y in ys:
        vec = [field.zero()] * f.ambient_dim
        for coef, brow in zip(y, f.basis.rows):
            if coef != 0:
                for j, x in enumerate(brow):
                    if x != 0:
                        vec[j] = field.add(vec[j], field.mul(coef, x))
        rows.append(tuple(vec))
    return subspace_from_rows(field, f.ambient_dim, rows)


def sample_vector(field: FieldSpec, dim: int, rng: random.Random, bound: int = 10) -> tuple:
    """A random vector: uniform residues over F_p, uniform ints in [-bound, bound] over Q."""
    if field.p is None:
        return tuple(field.from_int(rng.randint(-bound, bound)) for _ in range(dim))
    return tuple(rng.randrange(field.p) for _ in range(dim))
