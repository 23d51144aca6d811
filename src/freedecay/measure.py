"""Compactly supported probability measures on an interval.

A :class:`CompactMeasure` is presented by its moment sequence (exact
Fractions whenever possible) plus an optional density sampler used only for
oracle cross-checks.  Orthonormal polynomials come out of the Stieltjes /
Chebyshev moment algorithm, Gauss rules out of Golub-Welsch, and sup norms
out of a Chebyshev-Lobatto grid with golden-section refinement.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb

import numpy as np

from .algebra import MatrixBlockAlgebra
from .scalars import exact_sqrt

__all__ = [
    "MeasureError",
    "AtomicMeasureError",
    "CompactMeasure",
    "OrthoPolySequence",
    "ortho_polys",
    "sup_norm",
    "SupNormEstimate",
    "gauss_discretize",
    "degree_filtration",
]

# A three-term recurrence weight at or below this threshold means the moment
# matrix is numerically singular, i.e. the measure has too few atoms.
_BETA_FLOOR = 1e-13


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
    when available.  ``density`` is an optional callable used by tests as an
    independent quadrature oracle.
    """

    def __init__(self, support, moment_fn, density=None, atomless=True, name="custom"):
        a, b = support
        if not float(a) < float(b):
            raise MeasureError("support must be an interval [a, b] with a < b")
        self.support = (a, b)
        self._moment_fn = moment_fn
        self.density = density
        self.atomless = bool(atomless)
        self.name = name
        self._moment_cache: dict[int, object] = {}
        m0 = self.moment(0)
        if not (m0 == 1 or abs(float(m0) - 1.0) < 1e-12):
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

        def dens(t):
            return np.sqrt(np.maximum(4.0 - t * t, 0.0)) / (2.0 * np.pi)

        return cls((-2, 2), m, density=dens, atomless=True, name="semicircle")

    @classmethod
    def lebesgue(cls, a=-1, b=1) -> "CompactMeasure":
        """Normalized Lebesgue measure on [a, b]."""
        a, b = Fraction(a), Fraction(b)

        def m(k):
            # (b^{k+1} - a^{k+1}) / ((k+1)(b-a))
            return (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))

        fa, fb = float(a), float(b)

        def dens(t):
            return np.full_like(np.asarray(t, dtype=float), 1.0 / (fb - fa))

        return cls((a, b), m, density=dens, atomless=True, name=f"lebesgue[{a},{b}]")

    @classmethod
    def cosine(cls) -> "CompactMeasure":
        """Pushforward of the flat measure on [0, pi] under cos: the arcsine
        law on [-1, 1].  Even moments are central binomials over 4^k."""

        def m(k):
            return Fraction(comb(k, k // 2), 2 ** k) if k % 2 == 0 else Fraction(0)

        def dens(t):
            t = np.asarray(t, dtype=float)
            return 1.0 / (np.pi * np.sqrt(np.maximum(1.0 - t * t, 1e-300)))

        return cls((-1, 1), m, density=dens, atomless=True, name="cosine")

    @classmethod
    def uniform_atoms(cls, points, weights=None) -> "CompactMeasure":
        """Finitely supported measure; weights default to uniform."""
        pts = [Fraction(p) if not isinstance(p, float) else p for p in points]
        n = len(pts)
        if n == 0:
            raise MeasureError("need at least one atom")
        if weights is None:
            ws = [Fraction(1, n)] * n
        else:
            ws = [Fraction(w) if not isinstance(w, float) else w for w in weights]
        total = sum(ws)
        if not (total == 1 or abs(float(total) - 1.0) < 1e-12):
            raise MeasureError("atom weights must sum to 1")
        lo, hi = min(pts, key=float), max(pts, key=float)
        if float(lo) == float(hi):
            lo, hi = lo - 1, hi + 1

        def m(k):
            return sum(w * p ** k for w, p in zip(ws, pts))

        mu = cls((lo, hi), m, atomless=False, name=f"atoms[{n}]")
        mu.atoms = (tuple(pts), tuple(ws))
        return mu

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
    def to_json(self) -> dict:
        builtin_names = {
            "semicircle": "semicircle",
            "cosine": "cosine",
            "lebesgue[-1,1]": "lebesgue",
            "lebesgue[0,1]": "lebesgue01",
        }
        if self.name in builtin_names:
            return {"builtin": builtin_names[self.name]}
        raise MeasureError("only builtin or moment-list measures serialize")

    @classmethod
    def from_json(cls, data) -> "CompactMeasure":
        if isinstance(data, str):
            data = json.loads(data)
        if "builtin" in data:
            return cls.builtin(data["builtin"])
        if "atoms" in data:
            pts = [Fraction(p) if isinstance(p, (int, str)) else float(p) for p in data["atoms"]]
            ws = data.get("weights")
            if ws is not None:
                ws = [Fraction(w) if isinstance(w, (int, str)) else float(w) for w in ws]
            return cls.uniform_atoms(pts, ws)
        if "moments" not in data or "support" not in data:
            raise MeasureError("measure JSON needs 'builtin' or 'support'+'moments'")
        moments = [
            Fraction(v) if isinstance(v, (int, str)) else float(v) for v in data["moments"]
        ]
        a, b = data["support"]
        a = Fraction(a) if isinstance(a, (int, str)) else float(a)
        b = Fraction(b) if isinstance(b, (int, str)) else float(b)

        def m(k):
            if k >= len(moments):
                raise MeasureError(
                    f"moment m_{k} requested but only {len(moments)} provided"
                )
            return moments[k]

        return cls((a, b), m, atomless=bool(data.get("atomless", True)), name="custom")

    def __repr__(self):
        return f"CompactMeasure({self.name}, support={self.support})"


# ---------------------------------------------------------------------------
# orthonormal polynomials via the Chebyshev moment algorithm
# ---------------------------------------------------------------------------


class OrthoPolySequence:
    """Monic three-term recurrence pi_{k+1} = (t - alpha_k) pi_k - beta_k pi_{k-1}.

    ``beta[0]`` holds m_0 = 1 so that the orthonormal normalizers are
    ||pi_k||_2^2 = beta_0 ... beta_k.  Coefficients are exact Fractions when
    the moments are; extension is lazy.
    """

    def __init__(self, measure: CompactMeasure):
        self.measure = measure
        self._alpha: list = []
        self._beta: list = []

    @property
    def degree(self) -> int:
        """Highest polynomial degree currently supported (len(alpha))."""
        return len(self._alpha)

    @property
    def exact(self) -> bool:
        return all(isinstance(a, Fraction) for a in self._alpha) and all(
            isinstance(b, Fraction) for b in self._beta
        )

    def extend(self, n: int) -> None:
        """Ensure recurrence coefficients alpha_0..alpha_{n-1} exist."""
        if len(self._alpha) >= n:
            return
        self._alpha, self._beta = _chebyshev_algorithm(self.measure, n)

    def alpha(self, k: int):
        self.extend(k + 1)
        return self._alpha[k]

    def beta(self, k: int):
        self.extend(max(k + 1, 1))
        return self._beta[k]

    # -- coefficient access ------------------------------------------------
    def monic_coefficients(self, n: int):
        """Coefficient list (ascending powers) of the monic pi_n; exact."""
        self.extend(max(n, 1))
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
        rational square, floats otherwise."""
        mono = self.monic_coefficients(n)
        n2 = self.norm_squared(n)
        if isinstance(n2, Fraction):
            root = exact_sqrt(n2)
            if root is not None:
                return [c / root for c in mono]
        scale = 1.0 / math.sqrt(float(n2))
        return [float(c) * scale for c in mono]

    def norm_squared(self, n: int):
        """||pi_n||_2^2 = beta_0 beta_1 ... beta_n."""
        self.extend(n + 1)
        acc = self._beta[0]
        for k in range(1, n + 1):
            acc = acc * self._beta[k]
        return acc

    def orthonormal_values(self, n: int, ts):
        """Values [p_0(t), ..., p_n(t)] on a float grid, stable recurrence."""
        self.extend(n + 1)
        ts = np.asarray(ts, dtype=float)
        vals = np.empty((n + 1, ts.shape[0]) if ts.ndim else (n + 1,), dtype=float)
        sb = [math.sqrt(float(self._beta[k])) for k in range(n + 1)]
        p_prev = np.zeros_like(ts)
        p_cur = np.ones_like(ts)  # p_0 = 1 (beta_0 = 1)
        vals[0] = p_cur
        for k in range(n):
            a = float(self._alpha[k])
            p_next = ((ts - a) * p_cur - (sb[k] * p_prev if k > 0 else 0.0)) / sb[k + 1]
            p_prev, p_cur = p_cur, p_next
            vals[k + 1] = p_cur
        return vals

    def jacobi_matrix(self, n: int):
        """Symmetric Jacobi matrix of order n (float)."""
        self.extend(n)
        diag = np.array([float(a) for a in self._alpha[:n]])
        off = np.array([math.sqrt(float(b)) for b in self._beta[1:n]])
        return diag, off


def _chebyshev_algorithm(measure: CompactMeasure, n: int):
    """Moments -> recurrence coefficients (alpha_0..alpha_{n-1}, beta_0..beta_{n-1}).

    Exact when the moments are Fractions.  Raises AtomicMeasureError at the
    first degree where the Hankel form degenerates.
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
        hi = 2 * n - k
        for l in range(k, hi):
            s = sigma_cur[l + 1] - alpha[k - 1] * sigma_cur[l]
            if k >= 2:
                s -= beta[k - 1] * sigma_prev[l]
            sigma_next[l] = s
        denom = sigma_next[k]
        prev_denom = sigma_cur[k - 1]
        if exact:
            if denom <= 0:
                raise AtomicMeasureError(k)
        else:
            if denom <= _BETA_FLOOR * abs(prev_denom):
                raise AtomicMeasureError(k)
        b_k = denom / prev_denom
        if float(b_k) <= _BETA_FLOOR:
            raise AtomicMeasureError(k)
        a_k = sigma_next[k + 1] / denom - sigma_cur[k] / prev_denom
        alpha.append(a_k)
        beta.append(b_k)
        sigma_prev, sigma_cur = sigma_cur, sigma_next
    return alpha, beta


def ortho_polys(measure: CompactMeasure, n: int) -> OrthoPolySequence:
    """Orthonormal polynomial sequence of mu, extended through degree n."""
    seq = OrthoPolySequence(measure)
    seq.extend(max(n, 1))
    return seq


# ---------------------------------------------------------------------------
# sup-norm estimation
# ---------------------------------------------------------------------------


class SupNormEstimate(float):
    """A float (the lower estimate) carrying grid metadata."""

    def __new__(cls, value, argmax, grid_points, refined):
        obj = super().__new__(cls, value)
        obj.argmax = argmax
        obj.grid_points = grid_points
        obj.refined = refined
        return obj


def _lobatto_grid(a: float, b: float, n_points: int):
    # Chebyshev extrema including both endpoints.
    k = np.arange(n_points)
    x = np.cos(np.pi * k / (n_points - 1))
    return 0.5 * (a + b) + 0.5 * (b - a) * x[::-1]


def sup_norm(fn, interval, degree: int = 8) -> SupNormEstimate:
    """Estimate max |fn| on [a, b].

    Chebyshev-Lobatto grid of 64*(degree+1) points (endpoints included) with
    one golden-section refinement pass around the grid maximum.  The result
    is a certified lower estimate of the true maximum.
    """
    a, b = float(interval[0]), float(interval[1])
    n_points = max(64 * (degree + 1), 8)
    ts = _lobatto_grid(a, b, n_points)
    vals = np.abs(np.asarray(fn(ts), dtype=complex))
    i = int(np.argmax(vals))
    best_t, best_v = float(ts[i]), float(vals[i])
    lo = float(ts[max(i - 1, 0)])
    hi = float(ts[min(i + 1, n_points - 1)])

    def scalar_abs(s):
        return float(np.max(np.abs(np.asarray(fn(np.array([s]))))))

    t, v = _golden_section_max(scalar_abs, lo, hi)
    if v > best_v:
        best_t, best_v = t, v
    return SupNormEstimate(best_v, best_t, n_points, (lo, hi))


def _golden_section_max(f, lo, hi, iters: int = 80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = f(d)
        if hi - lo < 1e-14 * max(abs(lo), abs(hi), 1.0):
            break
    return (c, fc) if fc >= fd else (d, fd)


def sup_norm_poly(seq: OrthoPolySequence, n: int, interval=None) -> SupNormEstimate:
    """Sup norm of the n-th orthonormal polynomial over the support."""
    interval = interval or seq.measure.support
    return sup_norm(lambda ts: seq.orthonormal_values(n, np.atleast_1d(ts))[n], interval, degree=n)


def christoffel_sup(seq: OrthoPolySequence, n: int, interval=None) -> SupNormEstimate:
    """Sup over t of (sum_{k<=n} p_k(t)^2)^(1/2): the degree-n filtration
    constant of the measure."""
    interval = interval or seq.measure.support

    def f(ts):
        vals = seq.orthonormal_values(n, np.atleast_1d(ts))
        return np.sqrt(np.sum(vals * vals, axis=0))

    return sup_norm(f, interval, degree=n)


# ---------------------------------------------------------------------------
# Gauss discretization (Golub-Welsch)
# ---------------------------------------------------------------------------


def gauss_discretize(measure: CompactMeasure, n_nodes: int):
    """N-point Gauss rule as an abelian C*-probability space.

    Returns ``(algebra, nodes)``: the algebra is C^N with the Gauss weights
    as atoms; a polynomial p corresponds to the element (p(node_i))_i and the
    induced state integrates polynomials of degree <= 2N-1 exactly.
    """
    if n_nodes < 1:
        raise MeasureError("need at least one node")
    seq = ortho_polys(measure, n_nodes)
    if n_nodes == 1:
        nodes = np.array([float(seq.alpha(0))])
        weights = np.array([1.0])
    else:
        from scipy.linalg import eigh_tridiagonal

        diag, off = seq.jacobi_matrix(n_nodes)
        evals, evecs = eigh_tridiagonal(diag, off)
        nodes = evals
        weights = evecs[0, :] ** 2
        weights = weights / weights.sum()
    a, b = (float(measure.support[0]), float(measure.support[1]))
    pad = 1e-9 * max(1.0, abs(a), abs(b))
    if nodes.min() < a - pad or nodes.max() > b + pad:
        raise MeasureError("Gauss nodes escaped the declared support")
    algebra = MatrixBlockAlgebra.from_weights([float(w) for w in weights])
    return algebra, nodes


def polynomial_element(algebra: MatrixBlockAlgebra, nodes, coeffs):
    """Element of the discretized algebra representing the polynomial."""
    vals = np.polyval(list(map(float, coeffs))[::-1], np.asarray(nodes, dtype=float))
    return algebra.element([[[complex(v)]] for v in vals])


def degree_filtration(measure: CompactMeasure, n: int):
    """Filtration by polynomial degree; see freedecay.rdcert."""
    from .rdcert import MeasureDegreeFiltration

    return MeasureDegreeFiltration(measure, n)
