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
``float(q.im)``; a part beyond the float range raises ``ValueError``, and
so does a NaN or infinite float given to :func:`as_scalar`.  ``==``
against float or complex is exact, as for ``Fraction``, and ``hash`` is
CPython's numeric hash, so equal numbers hash equal across ``QC``, int,
``Fraction``, float and complex.  The exact kernel :class:`QCMatrix` lays
out a square block the same way, over one denominator, so its arithmetic
ends in at most one gcd per block; the float kernel is the per-entry code
of ``algebra``, which reads an exact block as rows of ``QC`` where it meets
a float one.

Tolerances.  Exact values (``QC``, int, ``Fraction``) are compared
exactly; anything else is compared as a float.  Term dicts drop a
coefficient only when ``not c``, a structural zero and never a tolerance:
dropping a small float term would change the sums it enters.
:func:`accumulate` is the one implementation of that rule; callers that
may produce a zero coefficient skip it before adding, since adding an
exact zero to a float term can turn a -0.0 part into +0.0.
:func:`negligible` decides that a data value counts as zero (a float when
|v| <= ``FLOAT_ZERO``); :func:`agree` decides that two routes to one
quantity match (floats when |a - b| <= ``FLOAT_RTOL`` * scale, the scale
named at each call site), and a <= b between computed quantities holds
when ``a <= b or agree(a, b, scale)``.  Stopping rules of iterations and
guards against division by zero are no decisions on data; they stay with
their algorithms.
"""

from __future__ import annotations

import cmath
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

    def __reduce__(self):
        return _make, (self._a, self._b, self._d)

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
        q = _lift(other)
        if q is not None:
            return q.__sub__(self)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

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
        try:
            return complex(self._a / self._d, self._b / self._d)
        except OverflowError:
            raise ValueError("exact value too large for a float") from None

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


class QCMatrix:
    """n x n Gaussian integers over one d, canonical, as (re, im, d, n) flat by rows; it
    reads as rows of ``QC`` made on first read, and ``==`` and ``hash`` as those rows."""

    __slots__ = ("_v", "_rows")

    def __setattr__(self, name, value):
        raise AttributeError("QCMatrix is immutable")

    def __reduce__(self):
        return _matrix, self._v

    @property
    def rows(self):
        try:
            return self._rows
        except AttributeError:
            re, im, d, n = self._v
            _set_rows(self, tuple(zip(*[iter([_reduced(a, b, d) for a, b in zip(re, im)])] * n)))
            return self._rows

    def __len__(self):
        return self._v[3]

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if type(other) is QCMatrix:
            return self._v == other._v
        return self.rows == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"QCMatrix({self.rows!r})"

    def complex_rows(self):
        """Rows of ``complex(a / d, b / d)``, the bits of ``complex`` of each entry."""
        re, im, d, n = self._v
        return tuple(zip(*[iter([complex(a / d, b / d) for a, b in zip(re, im)])] * n))

    def is_zero(self) -> bool:
        return not (any(self._v[0]) or any(self._v[1]))

    def __add__(self, other):
        (re, im, d, n), (ore, oim, f, _) = self._v, other._v
        return _matrix(tuple([x * f + y * d for x, y in zip(re, ore)]),
                       tuple([x * f + y * d for x, y in zip(im, oim)]), d * f, n)

    def scale(self, q: QC) -> "QCMatrix":
        re, im, d, n = self._v
        return _matrix(tuple([x * q._a - y * q._b for x, y in zip(re, im)]),
                       tuple([x * q._b + y * q._a for x, y in zip(re, im)]), d * q._d, n)

    def __matmul__(self, other):
        (ar, ai, d, n), (br, bi, f, _) = self._v, other._v
        re, im = [], []
        for i in range(0, n * n, n):
            for j in range(n):
                r = s = 0
                for k in range(n):
                    x, y, u, v = ar[i + k], ai[i + k], br[k * n + j], bi[k * n + j]
                    r += x * u - y * v
                    s += x * v + y * u
                re.append(r)
                im.append(s)
        return _matrix(tuple(re), tuple(im), d * f, n)

    def adjoint(self) -> "QCMatrix":
        re, im, d, n = self._v
        order = [p for i in range(n) for p in range(i, n * n, n)]  # the transpose
        return _matrix(tuple([re[p] for p in order]), tuple([-im[p] for p in order]), d, n)

    def shift(self, s: QC) -> "QCMatrix":
        """The matrix minus s times the identity."""
        re, im, d, n = self._v
        c, e, f = s._a * d, s._b * d, s._d
        re, im = [x * f for x in re], [x * f for x in im]  # over d f
        for p in range(0, n * n, n + 1):
            re[p] -= c
            im[p] -= e
        return _matrix(tuple(re), tuple(im), d * f, n)


def trace_product(density: QCMatrix, block: QCMatrix) -> QC:
    """trace(density @ block) with one gcd, over the density's nonzero entries
    alone: a diagonal density costs n products, not n * n."""
    (dr, di, dd, n), (br, bi, bd, _) = density._v, block._v
    r = s = 0
    for p in range(n * n):
        x, y = dr[p], di[p]
        if x or y:
            q = p % n * n + p // n  # density_ik meets block_ki
            u, v = br[q], bi[q]
            r += x * u - y * v
            s += x * v + y * u
    return _reduced(r, s, dd * bd)


def common_scalar(blocks):
    """c when every exact block is c times the identity, else None."""
    c = None
    for b in blocks:
        re, im, d, n = b._v
        a, e, step = re[0], im[0], n + 1
        # c·1 has c all along the diagonal and n * n - n zeros, or n * n when c is 0
        if c not in (None, (a, e, d)) or n > 1 and (
                re[::step] != (a,) * n or re.count(0) != n * n - (n if a else 0)
                or im[::step] != (e,) * n or im.count(0) != n * n - (n if e else 0)):
            return None
        c = (a, e, d)  # gcd(a, e, d) = 1: the block is canonical
    return _make(*c)


_set_v, _set_rows = QCMatrix._v.__set__, QCMatrix._rows.__set__


def _matrix(re: tuple, im: tuple, d: int, n: int) -> QCMatrix:
    """QCMatrix of numerators over d > 0, made canonical by one gcd."""
    g = gcd(d, *re, *im)
    if g != 1:
        re, im, d = tuple([x // g for x in re]), tuple([x // g for x in im]), d // g
    m = _new_object(QCMatrix)
    _set_v(m, (re, im, d, n))
    return m


def exact_block(rows):
    """QCMatrix of n rows of n exact numbers (QC, int, Fraction), else None."""
    qs = [_lift(v) for row in rows for v in row]
    if all([q is not None for q in qs]):
        d = math.lcm(*[q._d for q in qs])
        return _matrix(tuple([q._a * (d // q._d) for q in qs]), tuple([q._b * (d // q._d) for q in qs]),
                       d, len(rows))


def as_scalar(value):
    """Normalize a user-supplied number to QC (exact) or complex (float);
    a NaN or infinite float or complex raises ValueError."""
    if isinstance(value, QC):
        return value
    if isinstance(value, (Integral, Fraction)):
        return QC(value)
    if isinstance(value, (float, complex)):
        value = complex(value)
        if not cmath.isfinite(value):
            raise ValueError(f"non-finite scalar {value!r}")
        return value
    raise TypeError(f"not a scalar: {value!r}")


def conj(value):
    if isinstance(value, QC):
        return value.conjugate()
    return complex(value).conjugate()


_EXACT = (QC, Integral, Fraction)


def negligible(value) -> bool:
    """Whether a data value counts as zero (see the module docstring)."""
    if isinstance(value, _EXACT):
        return not value
    return abs(complex(value)) <= FLOAT_ZERO


def accumulate(terms: dict, pairs) -> dict:
    """Add each (key, c) of ``pairs`` into the term dict ``terms`` and return
    it: c for a new key, else the old value + c.  A falsy sum (a structural
    zero, see the module docstring) pops its key, so a key added again goes
    to the end.  Values without ``__bool__``, such as algebra elements,
    never drop."""
    get, pop = terms.get, terms.pop
    for key, c in pairs:
        acc = get(key)
        acc = c if acc is None else acc + c
        if acc:
            terms[key] = acc
        else:
            pop(key, None)
    return terms


def agree(a, b, scale) -> bool:
    """Whether two routes to one quantity match: exactly when both are
    exact, else to ``FLOAT_RTOL * scale`` (see the module docstring)."""
    if isinstance(a, _EXACT) and isinstance(b, _EXACT):
        return a == b
    return abs(complex(a) - complex(b)) <= FLOAT_RTOL * scale


def root_down(value, k: int) -> float:
    """Largest float t with t**k <= value in exact arithmetic, for an exact
    real value >= 0 (a real ``QC``, int or ``Fraction``): a k-th root that is
    never above the true one, decided with no float step.  A root whose
    guess passes the float range raises ValueError."""
    q = value.re if isinstance(value, QC) else Fraction(value)
    if q <= 0:
        return 0.0
    # the guess, within a few units in the last place, from q scaled by an
    # exact power of two, so that no q under- or overflows the conversion
    shift = (q.numerator.bit_length() - q.denominator.bit_length()) // k
    try:
        t = math.ldexp(float(q / Fraction(2) ** (shift * k)) ** (1.0 / k), shift)
    except OverflowError:
        raise ValueError("exact root too large for a float") from None
    while Fraction(t) ** k > q:
        t = math.nextafter(t, 0.0)
    while t < sys.float_info.max and Fraction(math.nextafter(t, math.inf)) ** k <= q:
        t = math.nextafter(t, math.inf)
    return t


def unit_scale(n2):
    """1 / sqrt(n2) for a squared norm n2 > 0: a Fraction when n2 is a
    rational square, else the float 1.0 / math.sqrt(float(n2))."""
    if isinstance(n2, Fraction):
        rn, rd = math.isqrt(n2.numerator), math.isqrt(n2.denominator)
        if rn * rn == n2.numerator and rd * rd == n2.denominator:
            return Fraction(rd, rn)
    return 1.0 / math.sqrt(float(n2))
