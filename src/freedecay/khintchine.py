"""Khintchine-type norm brackets for homogeneous word elements.

A length-l element of a free product decomposes over alternating words in
orthonormal complement letters; its coefficient tensor can be unfolded at a
cut position r either as a prefix-by-suffix matrix (s_r, with exact spectral
norm) or with a distinguished middle letter (t_r, whose ambient norm is
bracketed).  The functional kh(x) = max_r max(||s_r||, ||t_r||) controls the
reduced norm from above: ||x|| <= 2 (l+1) kh(x), the checkable direction of
the Ricard-Xu inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .algebra import AlgebraError, onb_complement
from .fock import (
    TruncatedFock,
    _spectral_norm,
    default_depth,
    moment_norm_estimate,
    norm_lower_bound,
    shared_fock,
)
from .freeword import FreeElement, FreeProductAmbient, Letter
from .scalars import agree

__all__ = [
    "HomogeneousWordElement",
    "sr_norm",
    "sr_hs_norm",
    "tr_bracket",
    "TrBounds",
    "kh_bracket",
    "rx_check",
    "RxReport",
    "assemble_rank_one_blocks",
    "weak_cs_bound",
]


def _alternating_patterns(m: int, length: int):
    if length == 0:
        yield ()
        return
    stack = [(j,) for j in range(m)]
    while stack:
        pat = stack.pop()
        if len(pat) == length:
            yield pat
            continue
        for j in range(m):
            if j != pat[-1]:
                stack.append(pat + (j,))


class HomogeneousWordElement:
    """Coefficient tensor over alternating words of one fixed length.

    Keys are (pattern, indices): the factor pattern and the per-slot
    orthonormal-complement indices.  The words indexed this way form an
    orthonormal family, so the l2 norm of the element is the l2 norm of the
    tensor.
    """

    def __init__(self, ambient: FreeProductAmbient, length: int, coeffs: dict):
        if length < 1:
            raise ValueError("homogeneous elements need length >= 1")
        self.ambient = ambient
        self.length = length
        self.onb = [onb_complement(f) for f in ambient.factors]
        clean = {}
        for (pattern, idx), c in coeffs.items():
            pattern, idx = tuple(pattern), tuple(idx)
            if len(pattern) != length or len(idx) != length:
                raise ValueError("key does not match the declared length")
            if any(a == b for a, b in zip(pattern, pattern[1:])):
                raise ValueError(f"pattern {pattern} is not alternating")
            for j, i in zip(pattern, idx):
                if not 0 <= i < len(self.onb[j]):
                    raise IndexError("letter index out of range")
            c = complex(c)
            if c != 0:
                clean[(pattern, idx)] = c
        self.coeffs = clean

    @classmethod
    def random(cls, ambient, length, rng, scale=1.0) -> "HomogeneousWordElement":
        onb = [onb_complement(f) for f in ambient.factors]
        coeffs = {}
        for pattern in _alternating_patterns(len(ambient.factors), length):
            dims = [len(onb[j]) for j in pattern]
            for idx in np.ndindex(*dims):
                coeffs[(pattern, tuple(int(i) for i in idx))] = scale * complex(
                    rng.standard_normal(), rng.standard_normal()
                )
        return cls(ambient, length, coeffs)

    def to_free_element(self) -> FreeElement:
        terms = {}
        for (pattern, idx), c in self.coeffs.items():
            word = tuple(Letter(j, self.onb[j][i]) for j, i in zip(pattern, idx))
            terms[word] = c
        return FreeElement(self.ambient, terms, _validated=True)

    def l2_norm(self) -> float:
        return math.sqrt(math.fsum(abs(c) ** 2 for c in self.coeffs.values()))

    def scaled(self, s) -> "HomogeneousWordElement":
        return HomogeneousWordElement(
            self.ambient,
            self.length,
            {k: s * c for k, c in self.coeffs.items()},
        )

    def __repr__(self):
        return f"HomogeneousWordElement(length={self.length}, support={len(self.coeffs)})"


# ---------------------------------------------------------------------------
# s_r: prefix x suffix unfolding
# ---------------------------------------------------------------------------


def _sr_matrix(x: HomogeneousWordElement, r: int):
    if not 0 <= r <= x.length:
        raise IndexError(f"cut position r={r} outside 0..{x.length}")
    rows: dict = {}
    cols: dict = {}
    entries = []
    for (pattern, idx), c in x.coeffs.items():
        pre = (pattern[:r], idx[:r])
        suf = (pattern[r:], idx[r:])
        ri = rows.setdefault(pre, len(rows))
        ci = cols.setdefault(suf, len(cols))
        entries.append((ri, ci, c))
    mat = np.zeros((max(len(rows), 1), max(len(cols), 1)), dtype=complex)
    for ri, ci, c in entries:
        mat[ri, ci] += c
    return mat


def sr_norm(x: HomogeneousWordElement, r: int) -> float:
    """Exact spectral norm of the prefix-by-suffix unfolding at cut r."""
    return float(np.linalg.norm(_sr_matrix(x, r), 2))


def sr_hs_norm(x: HomogeneousWordElement, r: int) -> float:
    """Hilbert-Schmidt norm of the unfolding; equals the l2 norm of x."""
    mat = _sr_matrix(x, r)
    return math.sqrt(math.fsum(abs(c) ** 2 for c in mat.ravel() if c != 0))


# ---------------------------------------------------------------------------
# t_r: middle-letter unfolding
# ---------------------------------------------------------------------------


@dataclass
class TrBounds:
    lower: float
    upper: float
    weak_cs: float
    single_factor: bool


def _tr_blocks(x: HomogeneousWordElement, r: int):
    """Group the tensor at middle position r: ({(I, J): {j: AlgebraElement}},
    {(I, J): [(j, i, c)]}), each cell's middle letter per factor and its
    terms c xi_{j,i}."""
    if not 1 <= r <= x.length:
        raise IndexError(f"middle position r={r} outside 1..{x.length}")
    blocks: dict = {}
    terms: dict = {}
    for (pattern, idx), c in x.coeffs.items():
        pre = (pattern[: r - 1], idx[: r - 1])
        suf = (pattern[r:], idx[r:])
        j, i = pattern[r - 1], idx[r - 1]
        cell = blocks.setdefault((pre, suf), {})
        letter = x.onb[j][i] * c
        cell[j] = letter if j not in cell else cell[j] + letter
        terms.setdefault((pre, suf), []).append((j, i, c))
    return blocks, terms


def tr_bracket(x: HomogeneousWordElement, r: int, fock: TruncatedFock | None = None) -> TrBounds:
    """Bracket for the middle-letter block operator at position r.

    upper: sum over factors of the exact block-matrix norm of the factor
    part (exact when all middle letters come from one factor);
    lower: the same block operator realized through the compressed left
    representation, each cell sum c L_{j,i} over the cached basis-vector
    operators L_{j,i} = P_L lambda(xi_i) P_L of ``fock``, the compressions
    ``_represent_sparse`` uses; weak_cs: the sqrt(m) * Hilbert-Schmidt
    style bound that the upper must respect.
    """
    if fock is None:
        fock = shared_fock(x.ambient.factors, 4)
    elif fock.ambient() != x.ambient:
        raise AlgebraError("element ambient does not match the Fock factors")
    blocks, terms = _tr_blocks(x, r)
    m = len(x.ambient.factors)
    rows: dict = {}
    cols: dict = {}
    for (pre, suf) in blocks:
        rows.setdefault(pre, len(rows))
        cols.setdefault(suf, len(cols))

    factors_used = sorted({j for cell in blocks.values() for j in cell})
    upper = 0.0
    for j in factors_used:
        algebra = x.ambient.factors[j]
        best = 0.0
        for b, nb in enumerate(algebra.block_dims):
            big = np.zeros((len(rows) * nb, len(cols) * nb), dtype=complex)
            for (pre, suf), cell in blocks.items():
                if j not in cell:
                    continue
                ri, ci = rows[pre], cols[suf]
                blk = cell[j].to_numpy()[b]
                big[ri * nb : (ri + 1) * nb, ci * nb : (ci + 1) * nb] = blk
            if big.size:
                best = max(best, float(np.linalg.norm(big, 2)))
        upper += best

    # weak Cauchy-Schwarz style bound on the assembled operator; the norm of
    # a cell entry over the direct sum is the max across matrix blocks
    per_entry_sq = []
    for cell in blocks.values():
        entry = math.fsum(
            max(float(np.linalg.norm(blk, 2)) for blk in el.to_numpy())
            for el in cell.values()
        )
        per_entry_sq.append(entry * entry)
    weak_cs = math.sqrt(m) * math.sqrt(math.fsum(per_entry_sq))

    grid = [[None] * len(cols) for _ in range(len(rows))]
    for (pre, suf), cell_terms in terms.items():
        grid[rows[pre]][cols[suf]] = sum(c * fock.onb_operators(j)[i] for j, i, c in cell_terms)
    lower = _spectral_norm(sp.bmat(grid, format="csr"))

    single = len(factors_used) <= 1
    return TrBounds(lower=lower, upper=upper, weak_cs=weak_cs, single_factor=single)


# ---------------------------------------------------------------------------
# the functional and the norm check
# ---------------------------------------------------------------------------


def _unfoldings(x: HomogeneousWordElement, fock: TruncatedFock | None):
    """(s_values, t_bounds): sr_norm at every cut 0..l and tr_bracket at
    every middle position 1..l."""
    s_values = [sr_norm(x, r) for r in range(0, x.length + 1)]
    t_bounds = [tr_bracket(x, r, fock=fock) for r in range(1, x.length + 1)]
    return s_values, t_bounds


def _kh_range(s_values, t_bounds):
    lower = max(s_values + [t.lower for t in t_bounds])
    upper = max(s_values + [t.upper for t in t_bounds])
    return lower, upper


def kh_bracket(x: HomogeneousWordElement, fock: TruncatedFock | None = None):
    """(lower, upper) for kh(x) = max over cuts of the unfolding norms."""
    return _kh_range(*_unfoldings(x, fock))


@dataclass
class RxReport:
    length: int
    l2: float
    kh_lower: float
    kh_upper: float
    norm_lb: float
    bound: float
    margin: float
    sr_ok: bool
    hs_identity_ok: bool
    weak_cs_ok: bool

    @property
    def ok(self) -> bool:
        holds = self.norm_lb <= self.bound or agree(self.norm_lb, self.bound, self.bound)
        return holds and self.sr_ok and self.hs_identity_ok and self.weak_cs_ok


def rx_check(x: HomogeneousWordElement, moment_rmax: int = 2) -> RxReport:
    """Check the upper Khintchine inequality on a homogeneous element.

    Asserts max(norm lower bounds) <= 2 (l+1) kh_upper, that every prefix
    unfolding norm stays below the l2 norm, and that the Hilbert-Schmidt
    norm of each unfolding reproduces the l2 norm on the nose.
    """
    ell = x.length
    elem = x.to_free_element()
    fock = shared_fock(x.ambient.factors, default_depth(elem))
    tr_fock = shared_fock(x.ambient.factors, 4)
    lb_fock = norm_lower_bound(fock, elem)
    lb_moment = moment_norm_estimate(elem, moment_rmax).max
    norm_lb = max(lb_fock, lb_moment)
    s_values, t_bounds = _unfoldings(x, tr_fock)
    kh_lo, kh_up = _kh_range(s_values, t_bounds)
    bound = 2 * (ell + 1) * kh_up
    l2 = x.l2_norm()
    sr_ok = all(s <= l2 or agree(s, l2, l2) for s in s_values)
    hs_ok = all(sr_hs_norm(x, r) == l2 for r in range(ell + 1))
    weak_ok = all(t.upper <= t.weak_cs or agree(t.upper, t.weak_cs, t.weak_cs) for t in t_bounds)
    return RxReport(
        length=ell,
        l2=l2,
        kh_lower=kh_lo,
        kh_upper=kh_up,
        norm_lb=norm_lb,
        bound=bound,
        margin=bound - norm_lb,
        sr_ok=sr_ok,
        hs_identity_ok=hs_ok,
        weak_cs_ok=weak_ok,
    )


# ---------------------------------------------------------------------------
# the rank-one-times-block inequality
# ---------------------------------------------------------------------------


def assemble_rank_one_blocks(n_rows: int, n_cols: int, blocks: dict) -> np.ndarray:
    """sum_{(i,j)} omega_{xi_i, eta_j} (x) T_ij as a dense matrix.

    ``blocks`` maps (i, j) with 0 <= i < n_rows, 0 <= j < n_cols to complex
    matrices of one shared shape; the xi and eta systems are standard basis
    vectors, so the result is the block matrix with T_ij in cell (i, j).
    """
    if not blocks:
        return np.zeros((0, 0), dtype=complex)
    shapes = {np.asarray(t).shape for t in blocks.values()}
    if len(shapes) != 1:
        raise AlgebraError("all blocks must share one shape")
    (p, q) = shapes.pop()
    out = np.zeros((n_rows * p, n_cols * q), dtype=complex)
    for (i, j), t in blocks.items():
        out[i * p : (i + 1) * p, j * q : (j + 1) * q] = np.asarray(t, dtype=complex)
    return out


def weak_cs_bound(blocks: dict) -> float:
    """(sum ||T_ij||^2)^(1/2): dominates the assembled operator norm."""
    return math.sqrt(
        math.fsum(float(np.linalg.norm(np.asarray(t), 2)) ** 2 for t in blocks.values())
    )
