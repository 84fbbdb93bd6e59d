import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genosc.exact import ComplexRational, I, ZERO

ONE = ComplexRational(1)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
crats = st.builds(ComplexRational, rationals, rationals)


def test_basic_arithmetic():
    a = ComplexRational(Fraction(1, 2), 1)
    b = ComplexRational(2, Fraction(-1, 3))
    assert a + b == ComplexRational(Fraction(5, 2), Fraction(2, 3))
    assert a * ONE == a
    assert I * I == ComplexRational(-1)
    assert complex(a) == 0.5 + 1j


def test_conjugate_and_zero():
    a = ComplexRational(1, -2)
    assert a.conjugate() == ComplexRational(1, 2)
    assert not ZERO
    assert a


def test_rejects_floats():
    with pytest.raises(TypeError):
        ComplexRational(0.5)


@given(crats, crats, crats)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(crats)
def test_complex_embedding(a):
    assert complex(a) == complex(a.re) + 1j * complex(a.im)


# Property tests against Fraction pairs (re, im) as the oracle.

fractions = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**6))
pairs = st.tuples(fractions, fractions)


def canonical(z):
    a, b, d = z.as_gaussian_ratio()
    return d > 0 and math.gcd(a, b, d) == 1


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(p, q):
    (a, b), (c, d) = p, q
    x, y = ComplexRational(a, b), ComplexRational(c, d)
    for got, want in [
        (x + y, (a + c, b + d)),
        (x - y, (a - c, b - d)),
        (x * y, (a * c - b * d, a * d + b * c)),
        (-x, (-a, -b)),
        (x.conjugate(), (a, -b)),
    ]:
        assert (got.re, got.im) == want
        assert canonical(got)
    assert complex(x) == complex(float(a), float(b))
    assert bool(x) == bool(a or b)


@given(pairs, st.integers(1, 10**6))
def test_equal_values_have_equal_ints_and_hashes(p, k):
    x = ComplexRational(*p)
    a, b, d = x.as_gaussian_ratio()
    assert Fraction(a, d) == p[0] and Fraction(b, d) == p[1]
    unreduced = ComplexRational.from_gaussian_ratio(k * a, k * b, k * d)
    assert unreduced.as_gaussian_ratio() == (a, b, d)
    for same in (unreduced, (x + ONE) - ONE, x * ONE, ComplexRational(*p)):
        assert same == x and hash(same) == hash(x)
    assert (x - x).as_gaussian_ratio() == (0, 0, 1)


@given(pairs, pairs)
def test_instances_are_immutable(p, q):
    x, y = ComplexRational(*p), ComplexRational(*q)
    before = x.as_gaussian_ratio(), y.as_gaussian_ratio()
    x + y, x - y, x * y, -x, x.conjugate(), 2 * x, x - 1
    assert (x.as_gaussian_ratio(), y.as_gaussian_ratio()) == before
    for name in ("re", "im", "numerator"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)


@given(pairs, st.integers(-(10**30), 10**30))
def test_ints_and_bools_coerce(p, n):
    x = ComplexRational(*p)
    exact_n = ComplexRational(n)
    assert exact_n.as_gaussian_ratio() == (n, 0, 1)
    assert x + n == n + x == x + exact_n
    assert x - n == x - exact_n and n - x == exact_n - x
    assert x * n == n * x == x * exact_n
    assert x + True == x + ONE and x * False == ZERO
    assert ComplexRational(True, False) == ONE


@given(pairs, st.floats(allow_nan=False))
def test_floats_raise_type_error(p, f):
    x = ComplexRational(*p)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, f)
        with pytest.raises(TypeError):
            op(f, x)
    for args in [(f,), (0, f)]:
        with pytest.raises(TypeError):
            ComplexRational(*args)


def test_gaussian_ratio_needs_ints_and_a_positive_denominator():
    assert ComplexRational.from_gaussian_ratio(2, -4, 6) == ComplexRational(
        Fraction(1, 3), Fraction(-2, 3)
    )
    for d in (0, -1):
        with pytest.raises(ValueError):
            ComplexRational.from_gaussian_ratio(1, 0, d)
    with pytest.raises(TypeError):
        ComplexRational.from_gaussian_ratio(0.5, 0, 1)


def test_numpy_ints_become_python_ints():
    big = ComplexRational(np.int64(2) ** 62)
    assert all(type(v) is int for v in big.as_gaussian_ratio())
    assert (big * big).re == 2**124
