"""Compactly supported probability measures on an interval.

A :class:`CompactMeasure` is presented by its moment sequence (exact
Fractions whenever possible).  Orthonormal polynomials come out of the
Stieltjes / Chebyshev moment algorithm, and sup norm estimates out of the
maximum over a Chebyshev-Lobatto grid.

The four builtins are Jacobi measures and record their parameters: (1/2, 1/2)
for the semicircle, (0, 0) for Lebesgue, (-1/2, -1/2) for the cosine law.
They take closed-form recurrence coefficients and end-point Christoffel
values (``christoffel_ends``) in place of the moments and the grid, which
custom-moment and atom measures keep; no JSON field sets the parameters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

import numpy as np

from .algebra import atom_weights, json_form, json_number, json_shape
from .scalars import agree, negligible, unit_scale

__all__ = [
    "MeasureError",
    "AtomicMeasureError",
    "CompactMeasure",
    "OrthoPolySequence",
    "sup_norm",
]

class MeasureError(Exception):
    pass


class AtomicMeasureError(MeasureError):
    """Raised when the recurrence cannot be extended past the atom count."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__(
            f"moment matrix is singular at degree {degree}: "
            f"the measure has at most {degree} atoms"
        )


def _catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


class CompactMeasure:
    """Probability measure on [a, b] given by moments.

    ``moment_fn(k)`` must return the k-th raw moment, exact (int/Fraction)
    when available.  ``jacobi`` = (alpha, beta), Fractions with alpha,
    beta > -1 and max(alpha, beta) >= -1/2, says that the measure is the
    normalized (b - t)^alpha (t - a)^beta dt on [a, b]; the builtins set it.
    """

    def __init__(self, support, moment_fn, name="custom", jacobi=None):
        a, b = support
        if not float(a) < float(b):
            raise MeasureError("support must be an interval [a, b] with a < b")
        if jacobi is not None and not (min(jacobi) > -1 and max(jacobi) >= Fraction(-1, 2)):
            raise MeasureError(f"Jacobi parameters {jacobi} need alpha, beta > -1 and max >= -1/2")
        self.support = (a, b)
        self._moment_fn = moment_fn
        self.name = name
        self.jacobi = jacobi
        self._moment_cache: dict[int, object] = {}
        m0 = self.moment(0)
        if not negligible(m0 - 1):
            raise MeasureError(f"m_0 = {m0}, expected a probability measure")

    def moment(self, k: int):
        if k < 0:
            raise MeasureError("moment index must be nonnegative")
        if k not in self._moment_cache:
            self._moment_cache[k] = self._moment_fn(k)
        return self._moment_cache[k]

    # -- builtins ---------------------------------------------------------
    @classmethod
    def semicircle(cls) -> "CompactMeasure":
        """Semicircular distribution on [-2, 2]; even moments are Catalan."""

        def m(k):
            return Fraction(_catalan(k // 2)) if k % 2 == 0 else Fraction(0)

        return cls((-2, 2), m, name="semicircle", jacobi=(Fraction(1, 2), Fraction(1, 2)))

    @classmethod
    def lebesgue(cls, a=-1, b=1) -> "CompactMeasure":
        """Normalized Lebesgue measure on [a, b]."""
        a, b = Fraction(a), Fraction(b)

        def m(k):
            # (b^{k+1} - a^{k+1}) / ((k+1)(b-a))
            return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))

        return cls((a, b), m, name=f"lebesgue[{a},{b}]", jacobi=(Fraction(0), Fraction(0)))

    @classmethod
    def cosine(cls) -> "CompactMeasure":
        """Pushforward of the flat measure on [0, pi] under cos: the arcsine
        law on [-1, 1].  Even moments are central binomials over 4^k."""

        def m(k):
            return Fraction(comb(k, k // 2), 2 ** k) if k % 2 == 0 else Fraction(0)

        return cls((-1, 1), m, name="cosine", jacobi=(Fraction(-1, 2), Fraction(-1, 2)))

    @classmethod
    def uniform_atoms(cls, points, weights=None) -> "CompactMeasure":
        """Finitely supported measure; weights default to uniform, and given
        weights take the algebra's rule (``algebra.atom_weights``)."""
        pts = [Fraction(p) if not isinstance(p, float) else p for p in points]
        n = len(pts)
        if n == 0:
            raise MeasureError("need at least one atom")
        if weights is not None and len(weights) != n:
            raise MeasureError(f"{n} atoms but {len(weights)} weights")
        ws = [Fraction(1, n)] * n if weights is None else atom_weights(weights, "atom weights", MeasureError)
        lo, hi = min(pts, key=float), max(pts, key=float)
        if float(lo) == float(hi):
            lo, hi = lo - 1, hi + 1

        def m(k):
            return sum(w * p ** k for w, p in zip(ws, pts))

        return cls((lo, hi), m, name=f"atoms[{n}]")

    @classmethod
    def builtin(cls, name: str) -> "CompactMeasure":
        table = {
            "semicircle": cls.semicircle,
            "lebesgue": cls.lebesgue,
            "lebesgue01": lambda: cls.lebesgue(0, 1),
            "cosine": cls.cosine,
        }
        if name not in table:
            raise MeasureError(
                f"unknown builtin measure {name!r}; choose from {sorted(table)}"
            )
        return table[name]()

    # -- JSON ---------------------------------------------------------------
    @classmethod
    def from_json(cls, data) -> "CompactMeasure":
        json_form(data, "measure JSON",
                  ((("builtin",), ()), (("atoms",), ("weights",)), (("support", "moments"), ())), MeasureError)
        if "builtin" in data:
            return cls.builtin(str(data["builtin"]))
        if "atoms" in data:
            pts = [_number_from_json(p) for p in json_shape(data["atoms"], list, "'atoms'", error=MeasureError)]
            ws = data.get("weights")
            if ws is not None:
                ws = [_number_from_json(w) for w in json_shape(ws, list, "'weights'", error=MeasureError)]
            return cls.uniform_atoms(pts, ws)
        moments = [_number_from_json(v) for v in json_shape(data["moments"], list, "'moments'", error=MeasureError)]
        support = json_shape(data["support"], list, "'support'", error=MeasureError)
        if len(support) != 2:
            raise MeasureError(f"'support' must be a pair [a, b], got {support!r}")
        a, b = (_number_from_json(v) for v in support)

        def m(k):
            if k >= len(moments):
                raise MeasureError(
                    f"moment m_{k} requested but only {len(moments)} provided"
                )
            return moments[k]

        return cls((a, b), m, name="custom")

    def __repr__(self):
        return f"CompactMeasure({self.name}, support={self.support})"


def _number_from_json(v):
    """A float stays a float; an int or a string such as "1/3" is exact."""
    return v if isinstance(v, float) else json_number(v, Fraction, MeasureError)


# ---------------------------------------------------------------------------
# orthonormal polynomials via the Chebyshev moment algorithm
# ---------------------------------------------------------------------------


class OrthoPolySequence:
    """The table of p_0..p_n for a measure: the n + 1 pairs (alpha_k, beta_k)
    of its monic recurrence pi_{k+1} = (t - alpha_k) pi_k - beta_k pi_{k-1},
    computed once, with their floats, and not changed after.

    ``beta[0]`` holds m_0 = 1 so that the orthonormal normalizers are
    ||pi_k||_2^2 = beta_0 ... beta_k.  Coefficients are exact Fractions when
    the moments are, or closed forms for a Jacobi measure.  Every reader
    refuses a degree above ``degree`` = n with a ValueError that names it.
    """

    def __init__(self, measure: CompactMeasure, n: int):
        self.measure = measure
        self.degree = n
        recurrence = _chebyshev_algorithm if measure.jacobi is None else _jacobi_recurrence
        self._alpha, self._beta = recurrence(measure, n + 1)
        self._floats = [(float(a), math.sqrt(float(b))) for a, b in zip(self._alpha, self._beta)]

    @property
    def exact(self) -> bool:
        return all(isinstance(a, Fraction) for a in self._alpha) and all(
            isinstance(b, Fraction) for b in self._beta
        )

    def _within(self, n: int):
        if n > self.degree:
            raise ValueError(f"degree {n} is past the degree {self.degree} this table was built to")

    # -- coefficient access ------------------------------------------------
    def monic_coefficients(self, n: int):
        """Coefficient list (ascending powers) of the monic pi_n; exact."""
        self._within(n)
        prev = [Fraction(1)]
        if n == 0:
            return prev
        cur = [-self._alpha[0], Fraction(1)]
        for k in range(1, n):
            a, b = self._alpha[k], self._beta[k]
            nxt = [Fraction(0)] * (k + 2)
            for i, c in enumerate(cur):
                nxt[i + 1] += c
                nxt[i] -= a * c
            for i, c in enumerate(prev):
                nxt[i] -= b * c
            prev, cur = cur, nxt
        return cur

    def orthonormal_coefficients(self, n: int):
        """Coefficients of p_n = pi_n / ||pi_n||_2; exact if the norm is a
        rational square, floats otherwise (``scalars.unit_scale``)."""
        scale = unit_scale(self.norm_squared(n))
        return [c * scale for c in self.monic_coefficients(n)]

    def norm_squared(self, n: int):
        """||pi_n||_2^2 = beta_0 beta_1 ... beta_n."""
        self._within(n)
        acc = self._beta[0]
        for k in range(1, n + 1):
            acc = acc * self._beta[k]
        return acc

    def orthonormal_values(self, n: int, ts):
        """Values [p_0(t), ..., p_n(t)] at the float points ``ts``, by the
        orthonormal three-term recurrence, as an array of shape
        (n + 1,) + ts.shape.  Every point runs the same float64 operations,
        so a point's column does not depend on the other points."""
        ts = np.asarray(ts, dtype=float)
        return np.array(list(self._orthonormal_rows(n, ts))).reshape((n + 1,) + ts.shape)

    def _orthonormal_rows(self, n: int, ts):
        """Yield p_0(ts), ..., p_n(ts) for a float array ``ts``."""
        self._within(n)
        p_prev, p_cur = None, np.ones_like(ts)  # p_0 = 1 (beta_0 = 1)
        yield p_cur
        for k in range(n):
            a, sb = self._floats[k]
            p_next = ((ts - a) * p_cur - (sb * p_prev if k > 0 else 0.0)) / self._floats[k + 1][1]
            p_prev, p_cur = p_cur, p_next
            yield p_cur


def _chebyshev_algorithm(measure: CompactMeasure, n: int):
    """Moments -> recurrence coefficients (alpha_0..alpha_{n-1}, beta_0..beta_{n-1}).

    Exact when the moments are Fractions; then a Hankel form that turns
    singular at degree k proves at most k atoms (AtomicMeasureError), and
    one that turns negative proves that no positive measure has the moments.
    Float moments lose about a digit per degree, so a degenerate weight
    there proves nothing about atoms and raises a plain MeasureError.
    Moments whose Gauss nodes leave the support [a, b] raise MeasureError
    too: exactly for Fractions, beyond FLOAT_RTOL * (b - a) for floats.
    """
    m = [measure.moment(k) for k in range(2 * n)]
    exact = all(isinstance(x, (int, Fraction)) for x in m)
    if exact:
        m = [Fraction(x) for x in m]
    else:
        m = [float(x) for x in m]
    alpha = [m[1] / m[0]]
    beta = [m[0]]
    sigma_prev = [None] * (2 * n)
    sigma_cur = list(m)
    for k in range(1, n):
        sigma_next = [None] * (2 * n)
        a, b = alpha[k - 1], beta[k - 1] if k >= 2 else 0
        # exact zero products are skipped (a symmetric measure has every alpha
        # and every other sigma 0); float ones may carry a -0.0 or a NaN
        for l in range(k, 2 * n - k):
            s = sigma_cur[l + 1]
            if not exact or (a and sigma_cur[l]):
                s -= a * sigma_cur[l]
            if b and (not exact or sigma_prev[l]):
                s -= b * sigma_prev[l]
            sigma_next[l] = s
        denom = sigma_next[k]
        prev_denom = sigma_cur[k - 1]
        if exact and denom < 0:
            raise MeasureError(f"the Hankel form turns negative at degree {k}: no positive measure has these moments")
        if exact and denom == 0:
            raise AtomicMeasureError(k)
        b_k = denom / prev_denom
        if not exact and (b_k <= 0 or negligible(b_k)):
            raise MeasureError(f"float moments lost precision at degree {k} (beta_{k} = {b_k!r}); "
                               "give the moments exactly, as ints or strings such as \"1/3\"")
        a_k = sigma_next[k + 1] / denom - sigma_cur[k] / prev_denom
        alpha.append(a_k)
        beta.append(b_k)
        sigma_prev, sigma_cur = sigma_cur, sigma_next
    # LDL pivots of J_n - a and b - J_n: a positive measure on [a, b] has its
    # orthogonal polynomials' zeros there, so both are positive semidefinite
    # and, irreducible, 0 only last (an end-point atom); conversely J_n's
    # Gauss rule then puts the moments' mass in [a, b]
    lo, hi = measure.support
    for sign, end in ((1, lo), (-1, hi)):
        for k in range(n):
            pivot = sign * (alpha[k] - end) - (beta[k] / pivot if k else 0)
            zero = agree(pivot, 0, hi - lo)
            if pivot < 0 and not zero or zero and k < n - 1:
                raise MeasureError(f"the moments put mass outside the support [{lo}, {hi}] (degree {k + 1})")
    return alpha, beta


def _jacobi_recurrence(measure: CompactMeasure, n: int):
    """The monic recurrence coefficients (alpha_0..alpha_{n-1},
    beta_0..beta_{n-1}) of a measure with Jacobi parameters (p, q) on its
    support [a, b], as Fractions.

    On [-1, 1], with weight (1 - x)^p (1 + x)^q and s = p + q, the classical
    monic Jacobi recurrence (as tabulated in Gautschi, *Orthogonal
    Polynomials: Computation and Approximation*, 2004) reads
    a_0 = (q - p)/(s + 2), a_k = (q^2 - p^2)/((2k + s)(2k + s + 2)),
    b_1 = 4(1 + p)(1 + q)/((s + 2)^2 (s + 3)) and, for k >= 2,
    b_k = 4k(k + p)(k + q)(k + s)/((2k + s)^2 (2k + s + 1)(2k + s - 1)).
    t = c + h x with c = (a + b)/2 and h = (b - a)/2 moves them to
    alpha_k = c + h a_k and beta_k = h^2 b_k; beta_0 is m_0 = 1."""
    p, q = (Fraction(e) for e in measure.jacobi)
    a, b = (Fraction(e) for e in measure.support)
    c, h, s = (a + b) / 2, (b - a) / 2, p + q
    alpha = [c + h * (q - p) / (s + 2)]
    beta = [Fraction(1)]
    for k in range(1, n):
        alpha.append(c + h * (q * q - p * p) / ((2 * k + s) * (2 * k + s + 2)))
        if k == 1:
            b_k = 4 * (1 + p) * (1 + q) / ((s + 2) ** 2 * (s + 3))
        else:
            b_k = 4 * k * (k + p) * (k + q) * (k + s) / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
        beta.append(h * h * b_k)
    return alpha, beta


# ---------------------------------------------------------------------------
# sup-norm estimation
# ---------------------------------------------------------------------------


def _on_interval(interval, x):
    """The float points (a + b)/2 + (b - a)/2 x of [a, b] for x in [-1, 1]."""
    a, b = float(interval[0]), float(interval[1])
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def _lobatto_grid(interval, degree: int):
    # 64*(degree+1) Chebyshev extrema on [a, b] (at least 8), end points included
    n_points = max(64 * (degree + 1), 8)
    k = np.arange(n_points)
    x = np.cos(np.pi * k / (n_points - 1))
    return _on_interval(interval, x[::-1])


def sup_norm(fn, interval, degree: int) -> float:
    """Maximum of |fn| over a Chebyshev-Lobatto grid of 64*(degree+1)
    points on [a, b], end points included: a lower estimate of max |fn|,
    up to rounding in fn.
    """
    return float(np.max(np.abs(np.asarray(fn(_lobatto_grid(interval, degree)), dtype=complex))))


def sup_norm_poly(seq: OrthoPolySequence, n: int) -> float:
    """Sup norm of the n-th orthonormal polynomial over the support."""
    return sup_norm(lambda ts: seq.orthonormal_values(n, ts)[n], seq.measure.support, n)


def _christoffel_sums(seq: OrthoPolySequence, n: int, ts):
    """Yield K_0(ts), ..., K_n(ts), K_k = K_{k-1} + p_k^2 summed from int 0
    in degree order: the one running sum that both Christoffel reads take."""
    sums = 0
    for p in seq._orthonormal_rows(n, ts):
        sums = sums + p * p
        yield sums


def christoffel_sup(seq: OrthoPolySequence, n: int) -> float:
    """The degree-n filtration constant C_n = sup_t K_n(t)^(1/2) of the
    measure, K_n = sum_{k<=n} p_k^2, estimated from below by the maximum over
    the Chebyshev-Lobatto grid of ``sup_norm``: its float, as sqrt is
    monotone and the squares are summed in degree order.  Measures with
    Jacobi parameters peak at an end instead (``christoffel_ends``)."""
    for squares in _christoffel_sums(seq, n, _lobatto_grid(seq.measure.support, n)):
        pass
    return math.sqrt(float(np.max(squares)))


def christoffel_ends(seq: OrthoPolySequence, n: int) -> list:
    """[C_0, ..., C_n] for a measure with Jacobi parameters: sqrt of the
    larger of K_k(a) and K_k(b), every level from one pass of the running
    sum of ``christoffel_sup`` at the two end points of the grid.

    Szegő, *Orthogonal Polynomials*, Thm 7.32.1: for alpha, beta > -1 and
    q = max(alpha, beta) >= -1/2, max over [-1, 1] of |P_k^(alpha, beta)|
    is binom(k + q, k), the value at x = 1 if q = alpha and at x = -1 if
    q = beta.  So every |p_k| peaks at the same end, where K_n then peaks
    too: sup K_n = K_n(end).  The value is the float K_n(end), square-rooted
    to nearest and not rounded either way; it has the bits of
    ``christoffel_sup`` wherever the grid maximum sits at an end point, as
    the grid holds both end points and every point runs the same float64
    operations."""
    ends = _on_interval(seq.measure.support, np.array([-1.0, 1.0]))
    return [math.sqrt(float(np.max(sums))) for sums in _christoffel_sums(seq, n, ends)]
