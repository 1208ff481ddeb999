"""Exact matrices, canonical subspaces, kernels."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from genrank.errors import AllRowsZero, DimensionMismatch, MixedAmbient
from genrank.fields import FieldSpec
from genrank.linalg import (
    Matrix,
    Subspace,
    _rref_q,
    determinant,
    kernel_in_subspace,
    rank,
    rref,
    sample_vector,
    span_dim,
    subspace_from_rows,
    zero_subspace,
)
from genrank.partitions import SpanRankCache
from genrank.verify import check_kernel_in_subspace, check_rref, sample_orders

Q = FieldSpec.rationals()
FP = FieldSpec.prime(10007)


def frac_rows(rows):
    return [tuple(Fraction(a) for a in row) for row in rows]


def test_matrix_construction_and_transpose():
    m = Matrix.from_rows(Q, frac_rows([[1, 2, 3], [4, 5, 6]]), 3)
    assert m.nrows == 2 and m.ncols == 3
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert t.rows[0] == (Fraction(1), Fraction(4))
    with pytest.raises(DimensionMismatch):
        Matrix.from_rows(Q, frac_rows([[1, 2], [1]]), 2)


def test_rref_known():
    m = Matrix.from_rows(Q, frac_rows([[2, 4], [1, 2]]), 2)
    reduced, rk = rref(m)
    assert rk == 1
    assert reduced.rows == ((Fraction(1), Fraction(2)),)
    m = Matrix.from_rows(Q, frac_rows([[0, 0], [0, 0]]), 2)
    reduced, rk = rref(m)
    assert rk == 0 and reduced.rows == ()


def test_rref_idempotent_and_rank_transpose():
    rng = random.Random(5)
    for field in (Q, FP):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            m = Matrix.from_rows(
                field, [sample_vector(field, ncols, rng) for _ in range(nrows)], ncols)
            assert check_rref(m) == []


def test_determinant():
    assert determinant(Q, frac_rows([[1, 2], [3, 4]])) == Fraction(-2)
    assert determinant(Q, frac_rows([[1, 2], [2, 4]])) == 0
    assert determinant(Q, []) == 1
    assert determinant(FP, [[1, 2], [3, 4]]) == (-2) % 10007
    upper = frac_rows([[2, 5, 1], [0, 3, 7], [0, 0, 4]])
    assert determinant(Q, upper) == Fraction(24)
    with pytest.raises(DimensionMismatch):
        determinant(Q, frac_rows([[1, 2]]))


def test_nullspace_rank_nullity():
    rng = random.Random(9)
    for field in (Q, FP):
        for _ in range(30):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
            m = Matrix.from_rows(
                field, [sample_vector(field, ncols, rng) for _ in range(nrows)], ncols)
            assert check_rref(m) == []


def test_subspace_canonical_and_equality():
    a = subspace_from_rows(Q, 3, frac_rows([[1, 1, 0], [0, 1, 1]]))
    b = subspace_from_rows(Q, 3, frac_rows([[2, 2, 0], [1, 2, 1]]))
    assert a == b and hash(a) == hash(b)
    assert a.dim == 2 and a.ambient_dim == 3 and not a.is_zero
    with pytest.raises(AllRowsZero):
        subspace_from_rows(Q, 3, frac_rows([[0, 0, 0]]))
    # direct construction must present the canonical rows
    with pytest.raises(DimensionMismatch):
        Subspace(3, Q, ((2, 0, 0),))


F7 = FieldSpec.prime(7)


@pytest.mark.parametrize("field, rows", [
    (Q, ((1, 0.5, 0),)),                  # a float entry
    (Q, ((Fraction(1), 0, 0),)),          # a Fraction entry
    (Q, ((True, 0, 0),)),                 # a bool entry
    (Q, ((2, 0, 0),)),                    # content 2
    (Q, ((1, 0, 0), (0, 2, 4))),          # content 2 in a later row
    (Q, ((-1, 0, 1),)),                   # negative pivot
    (F7, ((1, 9, 0),)),                   # residue above p
    (F7, ((1, -1, 0),)),                  # negative residue
    (F7, ((3, 0, 0),)),                   # pivot other than 1
    (Q, ((0, 0, 0),)),                    # zero row
    (F7, ((1, 0, 0), (0, 0, 0))),         # zero row after a nonzero one
    (Q, ((0, 1, 0), (1, 0, 0))),          # leads decrease
    (F7, ((1, 0, 0), (1, 0, 1))),         # leads repeat
    (Q, ((1, 1, 0), (0, 1, 0))),          # nonzero in another row's pivot column
    (F7, ((1, 0, 2), (0, 1, 0), (0, 0, 1))),  # the same, at the last row's pivot
    (Q, ((1, 0),)),                       # too narrow
    (F7, ((1, 0, 0, 0),)),                # too wide
    (Q, ((1, 0, 0), (0, 1))),             # ragged
    (Q, [(1, 0, 0)]),                     # not a tuple of rows
    (F7, ([1, 0, 0],)),                   # a row that is not a tuple
])
def test_subspace_rejects_non_canonical_rows(field, rows):
    with pytest.raises(DimensionMismatch):
        Subspace(3, field, rows)


def test_subspace_stores_integer_rows_and_derives_the_rref():
    s = Subspace(3, Q, ((1, 0, -2), (0, 3, 1)))
    assert s == subspace_from_rows(Q, 3, frac_rows([[2, 0, -4], [0, 6, 2]]))
    assert "basis" not in vars(s)
    assert s.basis.rows == ((1, 0, -2), (0, 1, Fraction(1, 3)))
    assert all(isinstance(x, Fraction) for row in s.basis.rows for x in row)
    assert Subspace(3, F7, ((1, 6, 0), (0, 0, 1))).basis.rows == ((1, 6, 0), (0, 0, 1))


@pytest.mark.parametrize("field, alphabet", [
    (Q, (0, 0, 0, 1, 1, -1, 2, 3)),
    (F7, (0, 0, 0, 1, 1, 2, 6)),
    (FP, (0, 0, 0, 1, 1, 2, 10006)),
])
def test_subspace_accepts_exactly_the_canonical_rows(field, alphabet):
    """Random small row sets: accepted iff they are subspace_from_rows' own rows."""
    rng = random.Random(17)
    accepted = 0
    for _ in range(2000):
        d = rng.randint(1, 4)
        rows = tuple(tuple(rng.choice(alphabet) for _ in range(d))
                     for _ in range(rng.randint(1, 3)))
        reduced = rref(Matrix(field, rows, d))[0]
        try:
            canonical = subspace_from_rows(field, d, rows)
        except AllRowsZero:
            canonical = None
            assert reduced.nrows == 0
        else:
            assert canonical.basis == reduced
        try:
            s = Subspace(d, field, rows)
        except DimensionMismatch:
            s = None
        assert (s is not None) == (canonical is not None and rows == canonical.rows), rows
        if s is not None:
            accepted += 1
            assert s == canonical and hash(s) == hash(canonical) and s.basis == reduced
    assert accepted >= 200


def test_subspace_contains():
    f = subspace_from_rows(Q, 3, frac_rows([[1, 0, 1], [0, 1, 1]]))
    assert f.contains((Fraction(1), Fraction(1), Fraction(2)))
    assert f.contains((Fraction(0), Fraction(0), Fraction(0)))
    assert not f.contains((Fraction(0), Fraction(0), Fraction(1)))


def test_zero_subspace():
    z = zero_subspace(Q, 4)
    assert z.dim == 0 and z.is_zero and z.ambient_dim == 4
    assert z.contains((Fraction(0),) * 4)
    assert not z.contains((Fraction(1), Fraction(0), Fraction(0), Fraction(0)))


def test_span_dim():
    lines = [subspace_from_rows(Q, 3, frac_rows([r]))
             for r in ([1, 0, 0], [0, 1, 0], [1, 1, 0])]
    assert span_dim(lines) == 2
    assert span_dim([]) == 0
    other = subspace_from_rows(Q, 4, frac_rows([[1, 0, 0, 0]]))
    with pytest.raises(MixedAmbient):
        span_dim([lines[0], other])
    fp_line = subspace_from_rows(FP, 3, [[1, 0, 0]])
    with pytest.raises(MixedAmbient):
        span_dim([lines[0], fp_line])


def test_kernel_in_subspace_known():
    # plane x+y+z = 0 intersected with {z = 0} is the line through (1, -1, 0)
    f = subspace_from_rows(Q, 3, frac_rows([[1, 0, -1], [0, 1, -1]]))
    constraints = Matrix.from_rows(Q, frac_rows([[0, 0, 1]]), 3)
    inter = kernel_in_subspace(f, constraints)
    assert inter.dim == 1
    assert inter.contains((Fraction(1), Fraction(-1), Fraction(0)))


def test_kernel_in_subspace_random():
    rng = random.Random(21)
    for field in (Q, FP):
        for _ in range(25):
            ambient = rng.randint(3, 6)
            target = rng.randint(1, 3)
            f = subspace_from_rows(
                field, ambient,
                [sample_vector(field, ambient, rng) for _ in range(target)])
            k = rng.randint(1, 2)
            constraints = Matrix.from_rows(
                field, [sample_vector(field, ambient, rng) for _ in range(k)], ambient)
            assert check_kernel_in_subspace(f, constraints) == []


def test_kernel_in_subspace_can_be_zero():
    f = subspace_from_rows(Q, 2, frac_rows([[1, 0]]))
    constraints = Matrix.from_rows(Q, frac_rows([[1, 0]]), 2)
    assert kernel_in_subspace(f, constraints).is_zero


def test_sample_vector_deterministic():
    assert sample_vector(Q, 5, random.Random(4)) == sample_vector(Q, 5, random.Random(4))
    v = sample_vector(FP, 8, random.Random(4))
    assert all(0 <= a < 10007 for a in v)


# -- differential check of the integer kernels against minors ----------------

def is_rref(rows):
    """Reduced row echelon form with no zero rows: each lead is 1, right of the
    lead above, and the only nonzero entry of its column."""
    leads = []
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None or (leads and lead <= leads[-1]) or row[lead] != 1:
            return False
        leads.append(lead)
    return all(row[col] == (r == i) for r, row in enumerate(rows) for i, col in enumerate(leads))


def minor_rank(field, rows):
    """Largest k with a nonzero k x k minor, by the field-generic determinant."""
    if not rows:
        return 0
    ncols = len(rows[0])
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if determinant(field, [[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


def wild_rational(rng):
    """Denominators other than 1, both signs, magnitudes up to 10^6."""
    num = rng.choice([rng.randint(-10**6, 10**6), rng.randint(-3, 3)])
    return Fraction(num, rng.choice([1, 2, 3, 7, 999983]))


def random_rows(field, nrows, ncols, target_rank, rng):
    """nrows x ncols rows of rank at most target_rank (combinations of a few generators)."""
    if field.p is None:
        draw = lambda: wild_rational(rng)  # noqa: E731
    else:
        draw = lambda: rng.randrange(field.p)  # noqa: E731
    gens = [[draw() for _ in range(ncols)] for _ in range(target_rank)]
    rows = []
    for _ in range(nrows):
        coefs = [draw() for _ in gens]
        row = [field.zero()] * ncols
        for a, g in zip(coefs, gens):
            row = [field.add(x, field.mul(a, y)) for x, y in zip(row, g)]
        rows.append(tuple(row))
    return rows


@pytest.mark.parametrize("field", [Q, FieldSpec.prime(10007), FieldSpec.prime(7)])
def test_rank_kernels_match_minor_rank(field):
    rng = random.Random(31)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_rows(field, nrows, ncols, rng.randint(0, min(nrows, ncols)), rng)
        expected = minor_rank(field, rows)
        m = Matrix.from_rows(field, rows, ncols)
        reduced, rk = rref(m)
        assert rank(m) == rk == expected
        assert is_rref(reduced.rows)
        # the reduced rows span exactly the input rows
        assert rank(Matrix(field, reduced.rows + m.rows, ncols)) == expected
        members = [subspace_from_rows(field, ncols, [r]) for r in rows if any(r)]
        assert span_dim(members) == expected


def test_rref_q_canonical_and_spanning():
    rng = random.Random(8)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = random_rows(Q, nrows, ncols, rng.randint(1, min(nrows, ncols)), rng)
        reduced = _rref_q(rows)
        assert is_rref(reduced)
        assert all(isinstance(x, Fraction) for row in reduced for x in row)
        assert len(reduced) == minor_rank(Q, rows)
        if reduced:
            space = subspace_from_rows(Q, ncols, reduced)
            assert space.basis.rows == tuple(map(tuple, reduced))
            assert all(space.contains(r) for r in rows)


@pytest.mark.parametrize("field", [Q, FP])
def test_span_rank_cache_matches_minor_rank(field):
    """Every mask, with and without seed rows, against minors of the raw generators.

    Half of the families live in a proper subspace, so ranks stall below the
    ambient dimension.
    """
    rng = random.Random(41)
    for trial in range(6):
        ambient = rng.randint(2, 4)
        span = ambient if trial % 2 else ambient - 1
        raw = [random_rows(field, rng.randint(1, 2), ambient, span, rng) for _ in range(4)]
        raw = [rows for rows in raw if minor_rank(field, rows)]
        members = [subspace_from_rows(field, ambient, rows) for rows in raw]
        seed_raw = random_rows(field, 1, ambient, span, rng)
        plain = SpanRankCache(members, field=field, ncols=ambient)
        seeded = SpanRankCache(members, seed_rows=seed_raw, field=field, ncols=ambient)
        for mask in range(1 << len(members)):
            rows = [r for i, rs in enumerate(raw) if mask >> i & 1 for r in rs]
            assert plain.rank(mask) == minor_rank(field, rows)
            assert seeded.rank(mask) == minor_rank(field, seed_raw + rows)
        # greedy-style chains on fresh caches, seeded and not
        for order in sample_orders(len(members)):
            prefixes = [[r for i in order[:k] for r in raw[i]] for k in range(1, len(order) + 1)]
            assert SpanRankCache(members, field=field, ncols=ambient).prefix_ranks(order) == [
                minor_rank(field, rows) for rows in prefixes]
            assert SpanRankCache(members, seed_rows=seed_raw, field=field,
                                 ncols=ambient).prefix_ranks(order) == [
                minor_rank(field, seed_raw + rows) for rows in prefixes]
