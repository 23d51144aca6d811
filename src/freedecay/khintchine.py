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

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError, onb_complement
from .compressed import (
    CooMatrix,
    _combinations,
    _word_blocks,
    default_depth,
    moment_norm_estimate,
    norm_lower_bound,
    shared_fock,
    spectral_norm,
)
from .freeword import FreeElement, FreeProductAmbient, Letter, factor_index
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


class HomogeneousWordElement:
    """Coefficient tensor over alternating words of one fixed length.

    Keys are (pattern, indices): the factor pattern and the per-slot
    orthonormal-complement indices.  The words indexed this way form an
    orthonormal family, so the l2 norm of the element is the l2 norm of the
    tensor.  The support must not be empty: ``ValueError`` names the length.
    """

    def __init__(self, ambient: FreeProductAmbient, length: int, coeffs: dict):
        if length < 1:
            raise ValueError("homogeneous elements need length >= 1")
        self.ambient = ambient
        self.length = length
        self.onb = [onb_complement(f) for f in ambient.factors]
        clean = {}
        for (pattern, idx), c in coeffs.items():
            # Python ints, so the letters of to_free_element() serialise to JSON
            pattern, idx = tuple(map(operator.index, pattern)), tuple(map(operator.index, idx))
            if len(pattern) != length or len(idx) != length:
                raise ValueError("key does not match the declared length")
            if any(a == b for a, b in zip(pattern, pattern[1:])):
                raise ValueError(f"pattern {pattern} is not alternating")
            for j, i in zip(pattern, idx):
                if not 0 <= i < len(self.onb[factor_index(ambient.factors, j)]):
                    raise IndexError("letter index out of range")
            c = complex(c)
            if c != 0:
                clean[(pattern, idx)] = c
        if not clean:
            raise ValueError(f"homogeneous element of length {length} has empty support: no nonzero word")
        self.coeffs = clean

    @classmethod
    def random(cls, ambient, length, rng) -> "HomogeneousWordElement":
        onb = [onb_complement(f) for f in ambient.factors]
        coeffs = {}
        # alternating patterns in reverse lexicographic order, the draw order kh-norm CSVs pin
        for pattern in itertools.product(reversed(range(len(onb))), repeat=length):
            if any(a == b for a, b in zip(pattern, pattern[1:])):
                continue
            for idx in itertools.product(*(range(len(onb[j])) for j in pattern)):
                coeffs[(pattern, idx)] = complex(
                    rng.standard_normal(), rng.standard_normal()
                )
        return cls(ambient, length, coeffs)

    def to_free_element(self) -> FreeElement:
        return FreeElement._of(self.ambient, {
            tuple(Letter(j, self.onb[j][i]) for j, i in zip(pattern, idx)): c
            for (pattern, idx), c in self.coeffs.items()
        })

    def l2_norm(self) -> float:
        return math.sqrt(math.fsum(abs(c) ** 2 for c in self.coeffs.values()))

    def __repr__(self):
        return f"HomogeneousWordElement(length={self.length}, support={len(self.coeffs)})"


# ---------------------------------------------------------------------------
# s_r: prefix x suffix unfolding
# ---------------------------------------------------------------------------


def _cut(x: HomogeneousWordElement, lo: int, hi: int):
    """The coefficient tensor cut at the slots lo:hi, as (cells, n_rows,
    n_cols): prefixes (slots :lo) number the rows and suffixes (slots hi:)
    the columns, each in first-seen order, and cells[(row, col)] lists the
    cell's terms (pattern[lo:hi], idx[lo:hi], c) in the tensor's order."""
    rows, cols, cells = {}, {}, {}
    for (pattern, idx), c in x.coeffs.items():
        cell = (rows.setdefault((pattern[:lo], idx[:lo]), len(rows)),
                cols.setdefault((pattern[hi:], idx[hi:]), len(cols)))
        cells.setdefault(cell, []).append((pattern[lo:hi], idx[lo:hi], c))
    return cells, len(rows), len(cols)


def _sr_matrix(x: HomogeneousWordElement, r: int):
    if not 0 <= r <= x.length:
        raise IndexError(f"cut position r={r} outside 0..{x.length}")
    cells, n_rows, n_cols = _cut(x, r, r)
    mat = np.zeros((max(n_rows, 1), max(n_cols, 1)), dtype=complex)
    for cell, ((_, _, c),) in cells.items():  # an empty middle: one term per cell
        mat[cell] += c
    return mat


def _hs_norm(mat) -> float:
    return math.sqrt(math.fsum(abs(c) ** 2 for c in mat.ravel() if c != 0))


def sr_norm(x: HomogeneousWordElement, r: int) -> float:
    """Exact spectral norm of the prefix-by-suffix unfolding at cut r."""
    return float(np.linalg.norm(_sr_matrix(x, r), 2))


def sr_hs_norm(x: HomogeneousWordElement, r: int) -> float:
    """Hilbert-Schmidt norm of the unfolding; equals the l2 norm of x."""
    return _hs_norm(_sr_matrix(x, r))


# ---------------------------------------------------------------------------
# t_r: middle-letter unfolding
# ---------------------------------------------------------------------------


@dataclass
class TrBounds:
    lower: float
    upper: float
    weak_cs: float
    single_factor: bool


def tr_bracket(x: HomogeneousWordElement, r: int) -> TrBounds:
    """Bracket for the middle-letter block operator at position r.

    upper: sum over factors of the exact block-matrix norm of the factor
    part (exact when all middle letters come from one factor);
    lower: the same block operator realized through the compressed left
    representation, each cell sum c L_{j,i} over the kept slot-letter
    operators L_{j,i} = P_L lambda(xi_i) P_L of the shared space of depth
    ``default_depth(1)``, the compressions ``norm_lower_bound`` uses;
    weak_cs: the sqrt(m) * Hilbert-Schmidt style bound that the upper must respect.
    """
    if not 1 <= r <= x.length:
        raise IndexError(f"middle position r={r} outside 1..{x.length}")
    fock = shared_fock(x.ambient.factors, default_depth(1))
    # the tensor cut at middle position r: each cell's terms are its middle letters c xi_{j,i}
    cells, n_rows, n_cols = _cut(x, r - 1, r)

    # by_factor[j][cell]: the factor-j part of the cell per matrix block,
    # the sum in term order of c xi_{j,i}, as the float kernel of ``algebra`` sums
    by_factor: dict = {}
    for cell, terms in cells.items():
        for (j,), (i,), c in terms:
            part = by_factor.setdefault(j, {})
            blocks = [c * blk for blk in x.onb[j][i].to_numpy()]
            part[cell] = [a + b for a, b in zip(part[cell], blocks)] if cell in part else blocks

    upper = 0.0
    for j in sorted(by_factor):
        best = 0.0
        for b in range(len(x.ambient.factors[j].block_dims)):
            big = assemble_rank_one_blocks(n_rows, n_cols, {cell: blocks[b] for cell, blocks in by_factor[j].items()})
            best = max(best, float(np.linalg.norm(big, 2)))
        upper += best

    # weak Cauchy-Schwarz style bound on the assembled operator; a cell entry's
    # norm sums its factor parts' norms, each the max across matrix blocks
    entries: dict = {}
    for part in by_factor.values():
        for cell, blocks in part.items():
            entries.setdefault(cell, []).append(max(float(np.linalg.norm(blk, 2)) for blk in blocks))
    per_entry = [math.fsum(norms) for norms in entries.values()]
    weak_cs = math.sqrt(len(x.ambient.factors)) * math.sqrt(math.fsum(e * e for e in per_entry))

    n = fock.dimension  # each cell is the compression of its sum c xi_{j,i}, at its offsets
    letters = {(j, i): (Letter(j, x.onb[j][i]),) for terms in cells.values() for (j,), (i,), _ in terms}
    blocks = _word_blocks(fock, letters.values())
    parts = []
    for (row, col), terms in cells.items():
        (b,) = _combinations(blocks, [letters[j, i] for (j,), (i,), _ in terms], [[c for *_, c in terms]], n)
        parts.append((b.rows + row * n, b.cols + col * n, b.vals))
    lower = spectral_norm(CooMatrix(*map(np.concatenate, zip(*parts)), (n_rows * n, n_cols * n)))

    return TrBounds(lower=lower, upper=upper, weak_cs=weak_cs, single_factor=len(by_factor) <= 1)


# ---------------------------------------------------------------------------
# the functional and the norm check
# ---------------------------------------------------------------------------


def _unfoldings(x: HomogeneousWordElement):
    """(matrices, s_values, t_bounds): the prefix unfolding at every cut
    0..l, its sr_norm, and tr_bracket at every middle position 1..l."""
    matrices = [_sr_matrix(x, r) for r in range(0, x.length + 1)]
    s_values = [float(np.linalg.norm(mat, 2)) for mat in matrices]
    t_bounds = [tr_bracket(x, r) for r in range(1, x.length + 1)]
    return matrices, s_values, t_bounds


def _kh_range(s_values, t_bounds):
    lower = max(s_values + [t.lower for t in t_bounds])
    upper = max(s_values + [t.upper for t in t_bounds])
    return lower, upper


def kh_bracket(x: HomogeneousWordElement):
    """(lower, upper) for kh(x) = max over cuts of the unfolding norms."""
    _, s_values, t_bounds = _unfoldings(x)
    return _kh_range(s_values, t_bounds)


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
    matrices, s_values, t_bounds = _unfoldings(x)
    if ell == 1:
        # t_1's 1 x 1 grid holds sum c L_{j,i} on the space of depth
        # default_depth(1) that tr_bracket builds: its norm is the Fock-space lower bound
        lb_fock = t_bounds[0].lower
    else:
        lb_fock = norm_lower_bound(shared_fock(x.ambient.factors, default_depth(ell)), elem)
    lb_moment = moment_norm_estimate(elem, moment_rmax).max
    norm_lb = max(lb_fock, lb_moment)
    kh_lo, kh_up = _kh_range(s_values, t_bounds)
    bound = 2 * (ell + 1) * kh_up
    l2 = x.l2_norm()
    sr_ok = all(s <= l2 or agree(s, l2, l2) for s in s_values)
    hs_ok = all(_hs_norm(mat) == l2 for mat in matrices)
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
