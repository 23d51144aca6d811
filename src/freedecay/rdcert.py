"""Filtrations as first-class objects and rapid-decay certificates.

A filtration assigns to every level n an orthonormal basis of the subspace
V_n (V_0 = C1, nested, *-stable, submultiplicative degrees).  The
certificate constant C_n = ||(sum x_i x_i*)^(1/2)|| over a level basis
bounds sup{||a|| : a in V_n, ||a||_2 = 1}, exactly so on abelian and
commutative ambients (``dn_norm`` rounds it to nearest); other levels get
brackets instead of single numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraError,
    MatrixBlockAlgebra,
    _mat_to_numpy,
    dn_norm,
    gram_schmidt,
    l2_inner,
    l2_norm,
    negligible_element,
    onb_complement,
    op_norm,
    state,
)
from . import compressed, fock
from .freeword import (
    AvitzourConditionError,
    FreeElement,
    FreeProductAmbient,
    Letter,
    avitzour_residuals,
    check_avitzour_conditions,
    residual_size,
)
from .measure import christoffel_sup, ortho_polys
from .scalars import QC, agree, negligible, to_complex

# _newton_phases: stop when every |constraint| < _NEWTON_STOP, or after _NEWTON_STEPS
_NEWTON_STOP = 1e-14
_NEWTON_STEPS = 250

__all__ = [
    "Filtration",
    "ConstantFiltration",
    "FiniteDimFiltration",
    "MeasureDegreeFiltration",
    "FreeProductFiltration",
    "RdConstant",
    "RDReport",
    "rd_report",
    "fit_exponent",
    "find_avitzour_triple",
    "verify_avitzour_triple",
    "AvitzourTriple",
    "orthogonality_hypotheses",
    "OrthogonalityReport",
    "classify_abelian",
    "Classification",
]


# ---------------------------------------------------------------------------
# filtration types
# ---------------------------------------------------------------------------


@dataclass
class RdConstant:
    lower: float
    upper: float
    method: str


class Filtration:
    """Base class; subclasses provide level bases and a recipe tag."""

    recipe: str = "abstract"

    def level_onb(self, n: int):
        raise NotImplementedError

    def level_dim(self, n: int) -> int:
        return len(self.level_onb(n))

    def rd_constant(self, n: int) -> RdConstant:
        raise NotImplementedError

    def rd_constants(self, levels) -> list:
        """[rd_constant(n) for n in levels]; overridden where levels share work."""
        return [self.rd_constant(n) for n in levels]


class FiniteDimFiltration(Filtration):
    """Finite-dimensional filtration given by one orthonormal basis per level.

    ``levels[n]`` is an orthonormal basis of V_n with the identity first, so
    the rest of it spans the centred part of V_n.  Levels continue constantly
    beyond the last one given.
    """

    recipe = "finite-dim"

    def __init__(self, algebra: MatrixBlockAlgebra, levels):
        self.algebra = algebra
        self.levels = [list(level) for level in levels]

    @classmethod
    def from_spans(cls, algebra: MatrixBlockAlgebra, spans) -> "FiniteDimFiltration":
        """``spans[n]`` lists elements generating V_n together with all lower
        levels and the identity.  Nesting is by construction; *-stability is
        checked on the resulting bases."""
        seed = [algebra.identity()]
        levels = []
        for n, span in enumerate(spans):
            seed = seed + list(span)
            basis = gram_schmidt(seed)
            _check_star_stable(basis, n)
            levels.append(basis)
        return cls(algebra, levels)

    def level_onb(self, n: int):
        return list(self.levels[min(n, len(self.levels) - 1)])

    def complement_onb(self, n: int):
        return self.level_onb(n)[1:]

    def rd_constant(self, n: int) -> RdConstant:
        """C_upper is ``dn_norm`` of the level basis, exact on abelian
        algebras.  Elsewhere it is only an upper bound, and C_lower is the
        largest operator norm of a basis vector, each of L2 norm 1."""
        if n == 0:
            return RdConstant(1.0, 1.0, "exact")
        basis = self.level_onb(n)
        c = dn_norm(basis)
        if self.algebra.is_abelian():
            return RdConstant(c, c, "dn-certificate")
        return RdConstant(max(op_norm(b) for b in basis), c, "bracket")


def _outside(x: AlgebraElement, basis) -> bool:
    """Whether x differs from its projection onto the span of the
    orthonormal ``basis``, relative to ||x||_2."""
    residual = x
    for b in basis:
        residual = residual - b * l2_inner(x, b)
    return not agree(l2_norm(residual), 0.0, l2_norm(x))


def _check_star_stable(basis, n: int):
    for x in basis:
        if _outside(x.adjoint(), basis):
            raise AlgebraError(f"level {n} is not stable under adjoints")


class ConstantFiltration(FiniteDimFiltration):
    """V_0 = C1 and V_n = A for n >= 1: every finite-dimensional faithful
    C*-probability space has rapid decay along it."""

    recipe = "constant"

    def __init__(self, algebra: MatrixBlockAlgebra):
        one = algebra.identity()
        super().__init__(algebra, [[one], [one] + onb_complement(algebra)])


class MeasureDegreeFiltration(Filtration):
    """Polynomials of degree <= n inside (C[a,b], integral against mu)."""

    recipe = "degree"

    def __init__(self, measure, max_n: int):
        self.measure = measure
        self.max_n = max_n
        self.seq = ortho_polys(measure, max_n + 1)

    def level_dim(self, n: int) -> int:
        return n + 1

    def level_onb(self, n: int):
        return [self.seq.orthonormal_coefficients(k) for k in range(n + 1)]

    def rd_constant(self, n: int) -> RdConstant:
        if n == 0:
            return RdConstant(1.0, 1.0, "exact")
        c = christoffel_sup(self.seq, n)
        return RdConstant(c, c, "christoffel-grid")


class FreeProductFiltration(Filtration):
    """Alternating centered words of length <= n with letters from the
    level-n factor complements."""

    recipe = "free-product"

    def __init__(self, factor_filtrations, probe_seed: int = 0):
        self.factors = []
        for f in factor_filtrations:
            if not isinstance(f, FiniteDimFiltration):
                raise AlgebraError(
                    "free-product levels need finite-dimensional factor filtrations"
                )
            self.factors.append(f)
        self.ambient = FreeProductAmbient([f.algebra for f in self.factors])
        self.probe_seed = probe_seed
        self._letters: dict = {}

    def level_onb(self, n: int):
        out = [FreeElement.one(self.ambient)]
        # one Letter per complement vector for the filtration's lifetime, so
        # equal words and suffixes of every level are tuples of the same objects
        letters = [[self._letters.setdefault((j, xi), Letter(j, xi)) for xi in f.complement_onb(n)]
                   for j, f in enumerate(self.factors)]
        frontier = [((), None)]
        for _ in range(n):
            new = []
            for word, last in frontier:
                for j in range(len(self.factors)):
                    if j == last:
                        continue
                    for letter in letters[j]:
                        new.append((word + (letter,), j))
            for word, _ in new:
                out.append(FreeElement.word(self.ambient, word))
            frontier = new
        return out

    def level_dim(self, n: int) -> int:
        return fock.alternating_dimension([len(f.complement_onb(n)) for f in self.factors], n)

    def rd_constant(self, n: int) -> RdConstant:
        """The one-level case of :meth:`rd_constants`."""
        return self.rd_constants([n])[0]

    def rd_constants(self, levels) -> list:
        """A bracket [lower, upper] for each level n of ``levels``; level 0 is 1.

        upper: the layer estimate 2 sqrt(m) (l+1) max(1, max_j dn_norm_j)
        summed in quadrature over layers l <= n, rounded to nearest, with no
        derivation cited yet (ROADMAP items 7 and 9).  lower: the largest
        norm of the level's probes (``_probe_lower``), not rounded down.
        """
        levels = list(levels)
        lower = iter(self._probe_lower([n for n in levels if n > 0]))
        out = []
        for n in levels:
            if n == 0:
                out.append(RdConstant(1.0, 1.0, "exact"))
                continue
            cmax = max([dn_norm(f.complement_onb(n)) for f in self.factors] + [1.0])
            quad = math.sqrt(sum((ell + 1) ** 2 for ell in range(n + 1)))
            upper = 2 * math.sqrt(len(self.factors)) * cmax * quad
            out.append(RdConstant(next(lower), upper, "bracket"))
        return out

    def _probes(self, n: int):
        """The flat combination of the level basis and two seeded random
        unit combinations."""
        basis = self.level_onb(n)
        rng = np.random.default_rng(self.probe_seed + n)
        flat = 1.0 / math.sqrt(len(basis))
        probes = [FreeElement.combination(self.ambient, ((b, flat) for b in basis))]
        for _ in range(2):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            coeffs /= np.linalg.norm(coeffs)
            probes.append(
                FreeElement.combination(
                    self.ambient, ((b, complex(c)) for b, c in zip(basis, coeffs))
                )
            )
        return probes

    def _probe_lower(self, levels) -> list:
        """The largest probe norm of each level n, on the space of depth
        max(4, n + 1) or the deepest below the dimension cap: one
        ``_represent_sparse`` call at the top depth, each level cut to its own."""
        if not levels:
            return []
        factors = self.ambient.factors
        top = max(4, max(levels) + 1)
        while top > 1 and fock.fock_dimension(factors, top) > compressed._DIMENSION_CAP:
            top -= 1
        probes = [self._probes(n) for n in levels]
        dims = [fock.fock_dimension(factors, min(max(4, n + 1), top))
                for n, ps in zip(levels, probes) for _ in ps]
        space = compressed.shared_fock(factors, top)
        matrices = compressed._represent_sparse(space, [x for ps in probes for x in ps], dims)
        norms = map(compressed._spectral_norm, matrices)
        return [max(itertools.islice(norms, len(ps))) for ps in probes]


# ---------------------------------------------------------------------------
# reports and exponent fits
# ---------------------------------------------------------------------------


@dataclass
class RDReport:
    rows: list  # (n, lower, upper, dim)
    alpha_hat: float
    intercept: float
    recipe: str

    def to_json(self):
        return {
            "recipe": self.recipe,
            "alpha_hat": self.alpha_hat,
            "intercept": self.intercept,
            "rows": [
                {"n": n, "C_lower": lo, "C_upper": up, "dim": d}
                for (n, lo, up, d) in self.rows
            ],
        }


def fit_exponent(rows):
    """Least-squares slope of log C_n against log(n+1), rows with n >= 1.

    Monotone clamping (C_n := max(C_n, C_{n-1})) removes numerical dips
    before fitting.  Needs at least 3 usable rows.
    """
    pts = [(n, float(c)) for (n, c, *_rest) in rows if n >= 1]
    if len(pts) < 3:
        raise ValueError("need at least 3 rows with n >= 1 to fit an exponent")
    clamped = []
    prev = 0.0
    for n, c in pts:
        prev = max(prev, c)
        clamped.append((n, prev))
    xs = np.log([n + 1.0 for n, _ in clamped])
    ys = np.log([c for _, c in clamped])
    design = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(slope), float(intercept)


def rd_report(filtration: Filtration, max_n: int) -> RDReport:
    levels = range(max_n + 1)
    constants = filtration.rd_constants(levels)
    rows = [
        (n, c.lower, c.upper, filtration.level_dim(n)) for n, c in zip(levels, constants)
    ]
    # clamp the certificate column monotone, then fit
    alpha, intercept = fit_exponent([(n, up) for (n, _lo, up, _d) in rows])
    return RDReport(rows=rows, alpha_hat=alpha, intercept=intercept, recipe=filtration.recipe)


# ---------------------------------------------------------------------------
# unitaries with prescribed vanishing moments
# ---------------------------------------------------------------------------


@dataclass
class AvitzourTriple:
    u: AlgebraElement
    v: AlgebraElement
    w: AlgebraElement

    def to_json(self):
        return {"u": self.u.to_json(), "v": self.v.to_json(), "w": self.w.to_json()}


def verify_avitzour_triple(u, v, w) -> dict:
    """The largest residual size of each condition of
    :func:`avitzour_residuals`, keyed by its name."""
    out = {}
    for condition, residual in avitzour_residuals(u, v, w):
        size = residual_size(residual)
        out[condition] = max(out.get(condition, size), size)
    return out


def _spectral_frame(algebra: MatrixBlockAlgebra):
    """The eigenvalues of the density blocks as one flat list, and the map
    from block matrices written in that eigenbasis to elements.

    Diagonal densities (off-diagonal entries negligible) are their own
    eigenbasis: the weights are their diagonals and the map is
    ``algebra.element``, so exact data stay exact.  Otherwise each block is
    diagonalized once, D = U diag(w) U*, and the map is m -> U m U*."""
    dens = algebra.densities
    if all(negligible(d[i][j]) for d in dens for i in range(len(d)) for j in range(len(d)) if i != j):
        return [d[i][i] for d in dens for i in range(len(d))], algebra.element
    weights, bases = [], []
    for d in dens:
        evals, evecs = np.linalg.eigh(_mat_to_numpy(d))
        weights.extend(evals.tolist())
        bases.append(evecs)
    return weights, lambda mats: algebra.element(
        [b @ _mat_to_numpy(m) @ b.conj().T for b, m in zip(bases, mats)]
    )


def _diagonal_blocks(dims, phases):
    zero = QC(0) if isinstance(phases[0], QC) else 0j
    blocks, at = [], 0
    for n in dims:
        blocks.append([[phases[at + i] if i == j else zero for j in range(n)] for i in range(n)])
        at += n
    return blocks


def _shift_blocks(dims):
    """A cyclic shift in every block: zero on the diagonal, so its state
    vanishes against a diagonal density (all blocks of size >= 2)."""
    return [[[QC(1) if i == (j + 1) % n else QC(0) for j in range(n)] for i in range(n)] for n in dims]


def _zero_mean_phases(weights):
    """Unit phases z_k with sum w_k z_k = 0, or None iff max w > 1/2.

    The weights are read as real numbers.  Exact weights first try an
    exact +-1 split: alternating signs for an even number of equal weights,
    else a subset with half the total (m <= 16).  Otherwise the weights are
    cut at the first prefix sum above half the total.  Each of the three
    pieces then weighs at most half, so their sums a, b, c close a triangle,
    and the law of cosines gives one phase per piece."""
    real = [to_complex(w).real for w in weights]
    exact = all(isinstance(w, QC) and not w.im for w in weights)
    fr = [w.re for w in weights] if exact else real
    heavy = max(fr) - sum(fr) / 2
    if heavy > 0 and not negligible(heavy):
        return None
    m = len(weights)
    if exact:
        if len(set(fr)) == 1 and m % 2 == 0:
            return [QC(1) if k % 2 == 0 else QC(-1) for k in range(m)]
        if m <= 16:
            found = _subset_with_sum(fr, sum(fr) / 2)
            if found is not None:
                return [QC(-1) if k in found else QC(1) for k in range(m)]
    total = sum(real)
    k = next(i for i, s in enumerate(itertools.accumulate(real)) if s > total / 2)
    a, b, c = sum(real[:k]), real[k], sum(real[k + 1:])
    # z_a = 1, and z_b makes |a + b z_b| = c
    cos = min(1.0, max(-1.0, (c * c - a * a - b * b) / (2 * a * b))) if a * b > 0 else -1.0
    zb = complex(cos, math.sqrt(1.0 - cos * cos))
    rest = -(a + b * zb)
    zc = rest / abs(rest) if rest else 1 + 0j
    return [1 + 0j] * k + [zb] + [zc] * (m - k - 1)


def _subset_with_sum(fractions_list, target):
    reachable = {Fraction(0): frozenset()}
    for k, w in enumerate(fractions_list):
        new = dict(reachable)
        for s, idx in reachable.items():
            t = s + w
            if t not in new and t <= target:
                new[t] = idx | {k}
        reachable = new
        if target in reachable:
            return reachable[target]
    return reachable.get(target)


def _centralizer_pair(algebra: MatrixBlockAlgebra, rng):
    """(v, w) with tau(v) = tau(w) = tau(v*w) = 0 and v in the centralizer."""
    dims = algebra.block_dims
    weights, frame = _spectral_frame(algebra)

    def diag(phases):
        return frame(_diagonal_blocks(dims, phases))

    if min(dims) >= 2:
        # v is diagonal in the eigenbasis, so it commutes with the density;
        # w and v* w are zero on the diagonal there
        phases = _zero_mean_phases(weights)
        return (diag(phases), frame(_shift_blocks(dims))) if phases else None
    real = [to_complex(w).real for w in weights]
    m = len(real)
    if len(set(real)) == 1 and m >= 3:
        if m % 4 == 0:
            # exact rational-complex characters of orders 2 and 4
            sign = [QC(1) if k % 2 == 0 else QC(-1) for k in range(m)]
            quarter = [QC(0, 1) ** (k % 4) for k in range(m)]
            return diag(sign), diag(quarter)
        # two distinct nontrivial characters of the cyclic group
        v = diag([complex(np.exp(2j * np.pi * k / m)) for k in range(m)])
        w = diag([complex(np.exp(4j * np.pi * k / m)) for k in range(m)])
        return v, w
    return _abelian_pair_search(diag, real, rng)


def _abelian_pair_search(diag, weights, rng):
    m = len(weights)
    fw = np.array(weights)
    # for diagonal v and w the rows (1, v, w) scaled by sqrt(weights) form a
    # row-orthonormal 3 x m matrix, so 3 w_k <= 1 for every eigenvalue: a
    # proven obstruction to diagonal pairs, which are all an abelian A2 has
    if max(fw) > 1.0 / 3.0 and not negligible(max(fw) - 1.0 / 3.0):
        return None
    # strategy 1: phases with sum(w z) = sum(w z^2) = 0, then w = v^2
    z = _newton_phases(
        rng,
        restarts=60,
        constraints=lambda z: (np.dot(fw, z), np.dot(fw, z * z)),
        jacobian=lambda z: np.vstack([1j * fw * z, 2j * fw * z * z]),
        unknowns=m,
    )
    if z is not None:
        v = diag([complex(x) for x in z])
        return v, v * v
    # strategy 2: joint Newton over both phase vectors
    def joint_constraints(zz):
        v, w = zz[:m], zz[m:]
        return (np.dot(fw, v), np.dot(fw, w), np.dot(fw, v.conj() * w))

    def joint_jacobian(zz):
        v, w = zz[:m], zz[m:]
        zero = np.zeros(m)
        return np.vstack(
            [
                np.hstack([1j * fw * v, zero]),
                np.hstack([zero, 1j * fw * w]),
                np.hstack([-1j * fw * v.conj() * w, 1j * fw * v.conj() * w]),
            ]
        )

    zz = _newton_phases(
        rng,
        restarts=200,
        constraints=joint_constraints,
        jacobian=joint_jacobian,
        unknowns=2 * m,
    )
    if zz is not None:
        v = diag([complex(x) for x in zz[:m]])
        w = diag([complex(x) for x in zz[m:]])
        return v, w
    return None


def _newton_phases(rng, restarts, constraints, jacobian, unknowns):
    for _ in range(restarts):
        ang = rng.uniform(0, 2 * np.pi, size=unknowns)
        for _ in range(_NEWTON_STEPS):
            z = np.exp(1j * ang)
            f = np.array(constraints(z))
            if np.all(np.abs(f) < _NEWTON_STOP):
                return z
            jac = jacobian(z)
            real_jac = np.vstack([jac.real, jac.imag])
            rhs = np.concatenate([(-f).real, (-f).imag])
            step, *_ = np.linalg.lstsq(real_jac, rhs, rcond=None)
            norm = np.linalg.norm(step)
            if norm > np.pi:
                step *= np.pi / norm
            ang = ang + step
        z = np.exp(1j * ang)
        if all(negligible(f) for f in constraints(z)):
            return z
    return None


def find_avitzour_triple(a1: MatrixBlockAlgebra, a2: MatrixBlockAlgebra, seed: int = 0):
    """(u, v, w): u in A1, v and w in A2, unitaries with rho(u) = tau(v) =
    tau(w) = tau(v*w) = 0 and u, v in the centralizers of the states,
    exactly the conditions of :func:`check_avitzour_conditions`; None when
    none is found.

    u and v commute with the densities, so in their eigenbasis they are
    diagonal phases z_k with sum w_k z_k = 0 over the eigenvalues w_k.  Such
    phases exist iff max w <= 1/2, so a None for max w > 1/2 in A1, or in
    an A2 whose blocks are all at least 2 x 2, is a proof.  An A2 with a
    1 x 1 block gets v and w diagonal in the eigenbasis too.  For an abelian
    A2 that is every candidate, so a None for 3 max w > 1 is a proof; for a
    non-abelian A2 a None from this diagonal search proves nothing, and
    neither does a miss of the Newton search."""
    rng = np.random.default_rng(seed)
    dims = a1.block_dims
    weights, frame = _spectral_frame(a1)
    # a shift commutes only with a scalar density; a diagonal in the
    # eigenbasis commutes with any
    if a1.is_tracial() and min(dims) >= 2:
        u = frame(_shift_blocks(dims))
    else:
        phases = _zero_mean_phases(weights)
        if phases is None:
            return None
        u = frame(_diagonal_blocks(dims, phases))
    pair = _centralizer_pair(a2, rng)
    if pair is None:
        return None
    v, w = pair
    try:
        check_avitzour_conditions(u, v, w)
    except AvitzourConditionError:
        return None
    return AvitzourTriple(u, v, w)


# ---------------------------------------------------------------------------
# almost-orthogonality / containment hypothesis report
# ---------------------------------------------------------------------------


@dataclass
class OrthogonalityReport:
    sup_conjugated: float
    sup_mixed: float
    inflated_constant: float
    containment_l2: float
    containment_op: float
    level_dim: int
    fhat_dim: int


def orthogonality_hypotheses(v_span, u: AlgebraElement, fhat_span) -> OrthogonalityReport:
    """Finite-level hypothesis numbers for a candidate conjugating unitary.

    Computes, for V = span(v_span) and Fhat = span(fhat_span) inside one
    finite-dimensional C*-probability space:
    * sup over unit l2 balls of |tau(a u b u)|, a, b in V;
    * sup over unit l2 balls of |tau(a u c)|, a in V, c in Fhat;
    * the certificate constant of Fhat (norm-vs-l2 inflation);
    * l2 and operator-norm distances of y and u* y u to Fhat, maximized over
      an orthonormal basis y of V with the scalars removed.
    Only the numbers for this (V, u, Fhat) are reported; no limit statement.
    """
    algebra = u.owner
    if not negligible_element(u.adjoint() * u - algebra.identity()):
        raise AlgebraError("u must be unitary")
    v_onb = gram_schmidt([algebra.identity()] + list(v_span))
    f_onb = gram_schmidt([algebra.identity()] + list(fhat_span))
    m1 = np.array(
        [[to_complex(state(a * u * b * u)) for b in v_onb] for a in v_onb]
    )
    m2 = np.array([[to_complex(state(a * u * c)) for c in f_onb] for a in v_onb])
    sup1 = float(np.linalg.norm(m1, 2)) if m1.size else 0.0
    sup2 = float(np.linalg.norm(m2, 2)) if m2.size else 0.0
    inflated = dn_norm(f_onb)
    d2_max, dop_max = 0.0, 0.0
    u_adj = u.adjoint()
    for y in v_onb[1:]:
        for target in (y, u_adj * y * u):
            residual = target
            for c in f_onb:
                residual = residual - c * l2_inner(target, c)
            d2_max = max(d2_max, l2_norm(residual))
            dop_max = max(dop_max, op_norm(residual))
    return OrthogonalityReport(
        sup_conjugated=sup1,
        sup_mixed=sup2,
        inflated_constant=inflated,
        containment_l2=d2_max,
        containment_op=dop_max,
        level_dim=len(v_onb),
        fhat_dim=len(f_onb),
    )


# ---------------------------------------------------------------------------
# abelian classification
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    selfless: bool
    reasons: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "selfless" if self.selfless else "not_selfless"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "reasons": self.reasons,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
        }


def classify_abelian(weights_a, weights_b) -> Classification:
    """Verdict for the free product of two finite abelian probability spaces.

    Selfless exactly when dim(A) + dim(B) >= 5 and the two heaviest atoms
    together weigh strictly less than 1; otherwise the failing clauses are
    reported with witnesses.
    """
    wa = _validated_weights(weights_a, "A")
    wb = _validated_weights(weights_b, "B")
    m, n = len(wa), len(wb)
    max_a, max_b = max(wa), max(wb)
    reasons = []
    witnesses = {}
    if m + n < 5:
        reasons.append(f"dim(A)+dim(B) = {m + n} < 5")
        witnesses["dims"] = (m, n)
    heavy = max_a + max_b
    if heavy >= 1 or negligible(heavy - 1):
        reasons.append(
            f"max atom weights {max_a} + {max_b} = {heavy} >= 1"
        )
        witnesses["atoms"] = (wa.index(max_a), wb.index(max_b))
        witnesses["heavy_sum"] = heavy
    return Classification(selfless=not reasons, reasons=reasons, witnesses=witnesses)


def _validated_weights(weights, side):
    out = []
    for w in weights:
        if isinstance(w, (int, Fraction)):
            w = Fraction(w)
        elif isinstance(w, QC):
            if w.im != 0:
                raise AlgebraError(f"weights of {side} must be real")
            w = w.re
        else:
            w = float(w)
        if w <= 0:
            raise AlgebraError(f"weights of {side} must be positive")
        out.append(w)
    if not out:
        raise AlgebraError(f"{side} needs at least one atom")
    total = sum(out)
    if not negligible(total - 1):
        raise AlgebraError(f"weights of {side} sum to {total}, expected 1")
    return out
