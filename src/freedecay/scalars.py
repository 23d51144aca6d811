"""Exact rational-complex scalars and coercion helpers.

States and inner products stay exact whenever every input was built from
rational data; operator norms always go through floating point.  The two
scalar worlds are :class:`QC` (a complex number with `Fraction` parts) and
the builtin ``complex``.  Mixing them silently degrades to ``complex``.

``QC(re, im)`` accepts any rational input and wraps each part in a
``Fraction``.  The arithmetic itself builds its results with the private
``_qc``, which takes parts that are already Fractions (sums, products,
negations) and stores them as they are, so no part is wrapped twice.
Addition and multiplication skip the Fraction operations that an exact zero
part makes trivial (x + 0, and the products of a real factor's zero
imaginary part); the values are the same.

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
from fractions import Fraction
from numbers import Integral

FLOAT_ZERO = 1e-12
FLOAT_RTOL = 1e-9


class QC:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        q = _lift(other)
        if q is not None:
            a, b, c, d = self.re, self.im, q.re, q.im
            # a zero part is the sum: x + 0 needs no addition
            return _qc(a + c if a and c else a or c, b + d if b and d else b or d)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self.re, -self.im)

    def __sub__(self, other):
        q = _lift(other)
        if q is not None:
            return _qc(self.re - q.re, self.im - q.im)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        q = _lift(other)
        if q is not None:
            a, b, c, d = self.re, self.im, q.re, q.im
            # a real factor (b or d zero) needs two products, or one
            if not b:
                return _qc(a * c, a * d if d else b)
            if not d:
                return _qc(a * c, b * c)
            return _qc(a * c - b * d, a * d + b * c)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _lift(other)
        if q is not None:
            d = q.re * q.re + q.im * q.im
            if d == 0:
                raise ZeroDivisionError("division by zero QC")
            return _qc(
                (self.re * q.re + self.im * q.im) / d,
                (self.im * q.re - self.re * q.im) / d,
            )
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
        if not isinstance(n, Integral) or n < 0:
            return complex(self) ** n
        out = QC(1)
        base = self
        n = int(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------
    def conjugate(self):
        return _qc(self.re, -self.im)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError("QC with nonzero imaginary part has no float value")
        return float(self.re)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        q = _lift(other)
        if q is not None:
            return self.re == q.re and self.im == q.im
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


_new_object = object.__new__
_set_re = QC.re.__set__
_set_im = QC.im.__set__


def _qc(re: Fraction, im: Fraction) -> QC:
    """QC from two parts that are already Fractions, stored without a re-wrap."""
    z = _new_object(QC)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _lift(value):
    """Lift exact numbers into QC; None signals an inexact or foreign type."""
    if isinstance(value, QC):
        return value
    if isinstance(value, (Integral, Fraction)):
        return QC(value)
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
