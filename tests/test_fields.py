"""Scalar arithmetic, primality, and text forms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from genrank.errors import BadPrime, BadScalar
from genrank.fields import DEFAULT_PRIME, FieldSpec, as_fraction, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 10007}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(10007)
    assert is_prime(DEFAULT_PRIME)
    assert not is_prime(DEFAULT_PRIME - 2)


def test_is_prime_carmichael_and_squares():
    for n in (561, 1105, 1729, 25326001, 10007 * 10007):
        assert not is_prime(n)


def test_fieldspec_construction():
    q = FieldSpec.rationals()
    assert q.p is None
    fp = FieldSpec.prime(10007)
    assert fp.p == 10007
    assert FieldSpec.rationals() == FieldSpec.rationals()
    assert FieldSpec.prime(7) == FieldSpec.prime(7)
    assert FieldSpec.prime(7) != FieldSpec.prime(11)
    assert hash(FieldSpec.prime(7)) == hash(FieldSpec.prime(7))
    with pytest.raises(BadPrime):
        FieldSpec.prime(10)
    with pytest.raises(BadPrime):
        FieldSpec.prime((1 << 64) + 13)  # prime, but over the word-size cap
    with pytest.raises(AttributeError):
        FieldSpec.rationals().p = 5


@pytest.mark.parametrize("field", [FieldSpec.rationals(), FieldSpec.prime(10007)])
def test_arithmetic_axioms(field):
    rng = random.Random(3)
    for _ in range(50):
        a = field.from_int(rng.randint(-40, 40))
        b = field.from_int(rng.randint(-40, 40))
        c = field.from_int(rng.randint(-40, 40))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero()
        assert field.sub(a, b) == field.add(a, field.neg(b))
        if b != field.zero():
            assert field.mul(field.mul(a, field.inv(b)), b) == a
            assert field.mul(b, field.inv(b)) == field.one()
    with pytest.raises(ZeroDivisionError):
        field.inv(field.zero())


def test_prime_field_canonical_residues():
    fp = FieldSpec.prime(7)
    assert fp.from_int(-1) == 6
    assert fp.neg(3) == 4
    assert fp.sub(2, 5) == 4
    assert all(0 <= fp.mul(a, b) < 7 for a in range(7) for b in range(7))


def test_parse_and_format():
    q = FieldSpec.rationals()
    assert q.parse("3") == Fraction(3)
    assert q.parse(-4) == Fraction(-4)
    assert q.parse("-3/2") == Fraction(-3, 2)
    assert q.parse(" 7/4 ") == Fraction(7, 4)
    assert q.format(Fraction(-3, 2)) == "-3/2"
    assert q.format(Fraction(5)) == "5"
    fp = FieldSpec.prime(10007)
    assert fp.parse("10008") == 1
    assert fp.parse(-1) == 10006
    assert fp.format(10007 + 3) == "3"
    for bad in ("3/2",):
        with pytest.raises(BadScalar):
            fp.parse(bad)
    for bad in ("1/0", "3/-2", "x", "", "1/2/3", True, None, 1.5):
        with pytest.raises(BadScalar):
            q.parse(bad)


def test_parse_format_round_trip():
    rng = random.Random(11)
    q = FieldSpec.rationals()
    for _ in range(60):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        assert q.parse(q.format(a)) == a
    fp = FieldSpec.prime(101)
    for a in range(101):
        assert fp.parse(fp.format(a)) == a


def test_convert_from_rational():
    fp = FieldSpec.prime(7)
    assert fp.convert_from_rational(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    assert fp.convert_from_rational(3) == 3
    assert fp.convert_from_rational(Fraction(-1, 3)) == fp.mul(fp.from_int(-1), fp.inv(3))
    with pytest.raises(BadScalar):
        fp.convert_from_rational(Fraction(1, 7))
    q = FieldSpec.rationals()
    assert q.convert_from_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_as_fraction():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction("3/2") == Fraction(3, 2)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(BadScalar):
        as_fraction(1.5)
