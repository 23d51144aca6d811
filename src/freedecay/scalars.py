"""Exact rational-complex scalars and coercion helpers.

States and inner products stay exact whenever every input was built from
rational data; operator norms always go through floating point.  The two
scalar worlds are :class:`QC` (an exact complex rational) and the builtin
``complex``.  Mixing them silently degrades to ``complex``.

Layout.  A ``QC`` is three ints (a, b, d) for (a + b·i)/d, a Gaussian-integer
numerator over one denominator, kept canonical: d > 0 and gcd(a, b, d) = 1,
so zero is (0, 0, 1) and equal values have equal fields.  Only this module
reads the fields (a lint test keeps it so); others read the ``Fraction``
properties ``re`` and ``im``.  Sums of equal denominators add numerators,
and every operation ends in at most one ``gcd(d, a, b)`` (Knuth, TAOCP
vol. 2, §4.5.1).  ``complex(q)`` is ``complex(a / d, b / d)``: int/int
division rounds correctly, so the bits are those of ``float(q.re)`` and
``float(q.im)``.  ``==`` against float or complex is exact, as for
``Fraction``, and ``hash`` is CPython's numeric hash, so equal numbers hash
equal across ``QC``, int, ``Fraction``, float and complex.

Tolerances.  Exact values (``QC``, int, ``Fraction``) are compared
exactly; anything else is compared as a float.  Term dicts drop a
coefficient only when ``not c``, a structural zero and never a tolerance:
dropping a small float term would change the sums it enters.
:func:`negligible` decides that a data value counts as zero (a float when
|v| <= ``FLOAT_ZERO``); :func:`agree` decides that two routes to one
quantity match (floats when |a - b| <= ``FLOAT_RTOL`` * scale, the scale
named at each call site), and a <= b between computed quantities holds
when ``a <= b or agree(a, b, scale)``.  Stopping rules of iterations and
guards against division by zero are no decisions on data; they stay with
their algorithms.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd
from numbers import Integral

FLOAT_ZERO = 1e-12
FLOAT_RTOL = 1e-9

_MODULUS, _IMAG = sys.hash_info.modulus, sys.hash_info.imag
_HALF = 1 << (sys.hash_info.width - 1)


class QC:
    """Complex number (a + b·i)/d with exact rational parts ``re``, ``im``."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            p, q = re.denominator, im.denominator
            d = math.lcm(p, q)
            a, b = re.numerator * (d // p), im.numerator * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    re = property(lambda self: Fraction(self._a, self._d))
    im = property(lambda self: Fraction(self._b, self._d))

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        q = other if type(other) is QC else _lift(other)
        if q is not None:
            return _sum(self._a, self._b, self._d, q._a, q._b, q._d)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        q = other if type(other) is QC else _lift(other)
        if q is not None:
            return _sum(self._a, self._b, self._d, -q._a, -q._b, q._d)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        q = other if type(other) is QC else _lift(other)
        if q is not None:
            a, b, c, e = self._a, self._b, q._a, q._b
            return _reduced(a * c - b * e, a * e + b * c, self._d * q._d)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = other if type(other) is QC else _lift(other)
        if q is not None:
            a, b, c, e, f = self._a, self._b, q._a, q._b, q._d
            if not (c or e):
                raise ZeroDivisionError("division by zero QC")
            # (a + bi)/d · f/(c + ei) = f(a + bi)(c - ei) / (d(c² + e²))
            return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * (c * c + e * e))
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        q = _lift(other)
        if q is not None:
            return q.__truediv__(self)
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, n):
        """Exact for an integer n (n < 0 is the reciprocal's power and raises
        ZeroDivisionError on 0); any other exponent goes through complex."""
        if not isinstance(n, Integral):
            return complex(self) ** n
        base, n = (self, int(n)) if n >= 0 else (QC_ONE / self, -int(n))
        a, b, ra, rb, k = base._a, base._b, 1, 0, n
        while k:
            if k & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            a, b, k = a * a - b * b, 2 * a * b, k >> 1
        return _reduced(ra, rb, base._d ** n)

    # -- structure ----------------------------------------------------
    def conjugate(self):
        return _make(self._a, -self._b, self._d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __float__(self) -> float:
        if self._b:
            raise ValueError("QC with nonzero imaginary part has no float value")
        return self._a / self._d

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other):
        q = other if type(other) is QC else _lift(other)
        if q is not None:
            return self._a == q._a and self._b == q._b and self._d == q._d
        if isinstance(other, (float, complex)):  # exact, as Fraction compares
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # Fraction's hash of each part, combined as complex combines them
        h = _hash_part(self._a, self._d) + _IMAG * _hash_part(self._b, self._d)
        h = (h + _HALF) % (2 * _HALF) - _HALF  # wrap to a signed machine word
        return -2 if h == -1 else h

    def __repr__(self):
        return f"QC({self.re}, {self.im})" if self._b else f"QC({self.re})"


_new_object = object.__new__
_set_a, _set_b, _set_d = QC._a.__set__, QC._b.__set__, QC._d.__set__


def _make(a: int, b: int, d: int) -> QC:
    """QC from fields already in canonical form."""
    z = _new_object(QC)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> QC:
    """QC of (a + bi)/d for d > 0, made canonical by one gcd."""
    g = gcd(d, a, b)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> QC:
    """(a + bi)/d + (c + ei)/f for canonical operands."""
    if d == f:
        return _reduced(a + c, b + e, d)
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _hash_part(n: int, d: int) -> int:
    """hash(Fraction(n, d)) without building the Fraction."""
    if d == 1 or not n:
        return hash(n)
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _MODULUS))
    except ValueError:  # d is a multiple of the modulus
        return hash(Fraction(n, d))
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _lift(value):
    """Lift exact numbers into QC; None signals an inexact or foreign type."""
    if isinstance(value, QC):
        return value
    if isinstance(value, Integral):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


QC_ZERO = QC(0)
QC_ONE = QC(1)


def as_scalar(value):
    """Normalize a user-supplied number to QC (exact) or complex (float)."""
    if isinstance(value, QC):
        return value
    if isinstance(value, (Integral, Fraction)):
        return QC(value)
    if isinstance(value, (float, complex)):
        return complex(value)
    raise TypeError(f"not a scalar: {value!r}")


def is_exact(value) -> bool:
    return isinstance(value, QC)


def conj(value):
    if isinstance(value, QC):
        return value.conjugate()
    return complex(value).conjugate()


def to_complex(value) -> complex:
    return complex(value)


_EXACT = (QC, Integral, Fraction)


def negligible(value) -> bool:
    """Whether a data value counts as zero (see the module docstring)."""
    if isinstance(value, _EXACT):
        return not value
    return abs(complex(value)) <= FLOAT_ZERO


def agree(a, b, scale) -> bool:
    """Whether two routes to one quantity match: exactly when both are
    exact, else to ``FLOAT_RTOL * scale`` (see the module docstring)."""
    if isinstance(a, _EXACT) and isinstance(b, _EXACT):
        return a == b
    return abs(complex(a) - complex(b)) <= FLOAT_RTOL * scale


def exact_sqrt(fr: Fraction):
    """Square root of a nonnegative Fraction if it is again rational, else None."""
    if fr < 0:
        raise ValueError("negative radicand")
    num, den = fr.numerator, fr.denominator
    rn = _isqrt_exact(num)
    rd = _isqrt_exact(den)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None
