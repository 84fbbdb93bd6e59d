"""Exact complex-rational arithmetic.

The structure constants of the observable algebra and the quantization
operators must distinguish an exact zero from roundoff, so everything
downstream of them is exact.  A complex rational is held as a Gaussian-integer
numerator over one denominator, (a + b i) / d, in three Python ints kept in
lowest terms: d > 0 and gcd(a, b, d) == 1.  Equal values therefore have equal
ints, so equality and hashing compare them directly, and + - x cost a few
integer products and one gcd; no Fraction is built until `re` or `im` is read.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from operator import index


def _frac(x) -> Fraction:
    """x as a Fraction of Python ints, which cannot wrap as numpy ints can."""
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    Immutable in the way Fraction is: the three ints live in private slots,
    and the public attributes `re` and `im` are read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        # re and im are in lowest terms, so (a, b, d) already is.
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def from_gaussian_ratio(cls, a: int, b: int, d: int) -> "ComplexRational":
        """(a + b i) / d for ints a, b and d > 0, brought to lowest terms."""
        a, b, d = index(a), index(b), index(d)
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        return _reduced(a, b, d)

    def as_gaussian_ratio(self) -> tuple[int, int, int]:
        """The ints (a, b, d) in lowest terms with self == (a + b i) / d."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other) -> "ComplexRational":
        return _coerce(other) - self

    def __mul__(self, other) -> "ComplexRational":
        if type(other) is not ComplexRational:
            try:
                other = _coerce(other)
            except TypeError:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self) -> "ComplexRational":
        return _make(-self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not ComplexRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def conjugate(self) -> "ComplexRational":
        return _make(self._a, -self._b, self._d)

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is.
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        return f"({re}{'+' if im >= 0 else ''}{im}j)"


_new = object.__new__


def _make(a: int, b: int, d: int) -> ComplexRational:
    """(a + b i) / d from ints already in lowest terms, without checks."""
    z = _new(ComplexRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> ComplexRational:
    """(a + b i) / d from ints with d > 0, divided by their common factor."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _coerce(x) -> ComplexRational:
    if type(x) is ComplexRational:
        return x
    if type(x) is int:
        return _make(x, 0, 1)
    q = _frac(x)
    return _make(q.numerator, 0, q.denominator)


ZERO = ComplexRational()
ONE = ComplexRational(1)
I = ComplexRational(0, 1)
