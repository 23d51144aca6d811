"""Truncated free-product Hilbert space, compressed left representation,
the free-product filtration and moment-power norm estimates: the numeric
half of the Fock-space oracle, on numpy arrays alone.

The truncated space (:class:`TruncatedFock`) has an orthonormal tensor
basis, and the compressed left representation on it
(:func:`norm_lower_bound`) gives lower bounds for the reduced norm from its
spectral data.  It takes two steps: words act on the depth-L space itself,
and one store holds the block of each word and of each suffix
(:func:`_word_blocks`); a combination is then a coefficient vector over a
word list, summed from the stored blocks at a cut K (:func:`_combinations`),
and many combinations share one store.  ``norm_lower_bound`` is the one
door for a ``FreeElement``.  A letter operator is a gather table over its
factor's one layout (word blocks are :class:`CooMatrix` arrays), read by
:func:`_times` in ``_word_blocks`` alone; every other use of a letter reads
its one-letter block L @ I (:meth:`TruncatedFock.letter_block`).  A space
keeps both for each slot letter, a vector of a factor's complement basis,
built on first use; any other letter's is built when asked and not kept.
The complement bases are the algebras' own (:func:`onb_complement`), and
:func:`shared_fock`, the one door to a space, keeps the 16 most recently
used spaces per process.
:class:`FreeProductFiltration`, the one filtration that needs a Fock space,
brackets its RD constants with probe norms read from this representation:
its level n is the depth-n space, whose basis words (:meth:`TruncatedFock.words`)
prefix those of every deeper space; its probes (the flat one scaled by
``scalars.unit_scale``) are coefficient vectors over them, all levels
combined from one store, and no ``FreeElement`` is built.

Every such norm is one largest singular value (:func:`spectral_norm`), on
one of two paths chosen by the number of matrix entries: up to those of
the 128 x 128 square (``_DENSE_CROSSOVER``, where the two cost about the
same on Fock matrices) the dense values-only SVD, above it one Lanczos
kernel on the Gram of the smaller side, which returns ||B y||/||y|| for its
own top Ritz vector y: a Rayleigh witness, not rounded down.  The kernel
runs ``np.linalg.eigh`` on its tridiagonal only at steps where a lower
bound of the residual (:func:`_residual_floor`) does not rule the stop
out.  No norm is kept between calls.

Moment-power estimates sit on top: s_r = state((x*x)^r)^(1/2r) together
with the consecutive-moment ratio (state((x*x)^r)/state((x*x)^{r-1}))^(1/2);
both are lower bounds of the norm and nondecreasing in r.  The moments
q_r = state((x*x)^r) come from one of three methods, and a float q_r past
the float range raises OverflowError in :func:`moment_norm_estimate`:

* "free-cumulant": self-adjoint sums of single letters, by additivity of
  free cumulants (exact when the element is, in :mod:`freedecay.fock`);
* "fock-vector": every other float element, as q_r = ||v_r||^2 with
  v_r = x v_{r-1} (odd r) or x* v_{r-1} (even r) and v_0 = Omega, by
  scatter with the one-letter blocks (their adjoints for x*) on the space
  of depth r_max * l for words of length <= l.  v_r has length <= r l, so no letter
  ever meets the cut and the truncation costs nothing beyond rounding;
* "word-expansion": every other exact element, by multiplying words out
  and pairing them exactly (in :mod:`freedecay.fock`); it is also the
  oracle of the vector path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng

from .algebra import (
    AlgebraElement,
    AlgebraError,
    center,
    dn_norm,
    l2_inner,
    onb_complement,
    state,
)
from .fock import (
    FockError,
    ResourceCapError,
    _capped_product,
    _single_letter_moments,
    _word_moments,
    fock_dimension,
)
from .freeword import FreeElement, FreeProductAmbient, Letter, factor_index, is_normalized_word, normalize
from .rdcert import ConstantFiltration, Filtration, RdConstant
from .scalars import FLOAT_RTOL, accumulate, negligible, root_down, unit_scale

__all__ = [
    "TruncatedFock",
    "FreeProductFiltration",
    "norm_lower_bound",
    "moment_norm_estimate",
    "MomentEstimates",
    "default_depth",
]

_DIMENSION_CAP = 200_000
_PROBE_CAP = 15_000_000  # words of the top rd-certify level times the tensors they act on
_BLOCK_CAP = 10_000_000  # entries of the word and suffix blocks one _word_blocks store holds
_DENSE_CROSSOVER = 128  # spectral_norm takes the dense SVD up to 128 * 128 matrix entries
_KRYLOV_DIM = 64  # Lanczos basis vectors before a restart
_KRYLOV_RESTARTS = 50  # restarts before the kernel gives up


class TruncatedFock:
    """Length <= depth truncation of the free-product Hilbert space.

    Basis tensors are strings of slot vectors with alternating factors; the
    slot vectors of factor j run over an orthonormal basis of its complement
    of C1 and are numbered factor-major, vector i of factor j after those
    of factors 0..j-1.  Tensor p is the slot vector ``lead[p]`` followed by
    the tensor at position ``tail[p]``; the vacuum is position 0, with -1 in
    both arrays.  Tensors are ordered by length, then lexicographically by
    the (factor, index) of the first slot, then of the second, and so on, so
    a depth-L' basis is the first dim(L') tensors of any deeper one; this is
    the one enumeration of alternating words, read off by :meth:`words`.
    The space keeps one record per slot letter, dim(A_j) - 1 per factor
    (``_record``), one layout per factor that every table of the factor
    shares (``_layout``) and the identity block, and no others.  Words of
    any length act on this one space, of at most ``_DIMENSION_CAP`` tensors.
    """

    def __init__(self, factors, depth: int):
        if depth < 0:
            raise FockError("depth must be >= 0")
        self.factors = tuple(factors)
        self.depth = depth
        self.dimension = fock_dimension(self.factors, depth)
        if self.dimension > _DIMENSION_CAP:
            raise ResourceCapError(
                f"truncated Fock dimension {self.dimension} exceeds the cap {_DIMENSION_CAP}"
            )
        self.onb = [onb_complement(f) for f in self.factors]
        # slot letter -> [gather table, one-letter block], filled on first use
        self._slots: dict = {Letter(j, xi): None for j, basis in enumerate(self.onb) for xi in basis}
        self._layouts: dict = {}  # factor -> (rows, src), the tables' payload-independent part
        # each length from the one before: every slot vector, in order, leads
        # the shorter tensors not led by its factor, in their order
        offsets = np.cumsum([0] + [len(b) for b in self.onb])
        lead, tail = [np.array([-1])], [np.array([-1])]
        start = 0
        for _ in range(depth):
            shorter = np.arange(start, start + len(lead[-1]))
            start += len(shorter)
            rests = [(lo, hi, shorter[(lead[-1] < lo) | (lead[-1] >= hi)])
                     for lo, hi in zip(offsets[:-1], offsets[1:])]
            lead.append(np.concatenate([np.repeat(np.arange(lo, hi), len(r))
                                        for lo, hi, r in rests]))
            tail.append(np.concatenate([np.tile(r, hi - lo) for lo, hi, r in rests]))
        self.lead, self.tail = np.concatenate(lead), np.concatenate(tail)

    def ambient(self) -> FreeProductAmbient:
        return FreeProductAmbient(self.factors)

    def __repr__(self):
        return f"TruncatedFock(m={len(self.factors)}, depth={self.depth}, dim={self.dimension})"

    def words(self, k: int) -> list:
        """The first k basis tensors as tuples of :class:`Letter`, one Letter
        object per slot vector in every word: tensor p is the letter of
        ``lead[p]`` followed by the word of ``tail[p]``."""
        letters = list(self._slots)
        words = [()]
        for lead, tail in zip(self.lead[1:k].tolist(), self.tail[1:k].tolist()):
            words.append((letters[lead],) + words[tail])
        return words[:k]

    def letter_operator(self, factor: int, payload: AlgebraElement):
        """The gather table (rows, vals) of P lambda(iota_factor(payload)) P."""
        return self._record(factor, payload)[0]

    @functools.cached_property
    def identity(self) -> "CooMatrix":
        """The identity block I on this basis, built on first use."""
        n = self.dimension
        return CooMatrix(np.arange(n), np.arange(n), np.ones(n, dtype=complex), (n, n))

    def letter_block(self, factor: int, payload: AlgebraElement) -> "CooMatrix":
        """The one-letter block ``_times(L, I)`` of the letter operator L of
        P lambda(iota_factor(payload)) P: the block a word starts from."""
        record = self._record(factor, payload)
        if record[1] is None:
            record[1] = _times(*record[0], self.identity)
        return record[1]

    def _record(self, factor: int, payload: AlgebraElement) -> list:
        """[gather table, one-letter block or None] of the letter a =
        iota_factor(payload), the one door to a letter: a slot letter's is
        kept, filled on first use, any other letter's built and not kept.
        AlgebraError for a factor index out of range or a foreign payload."""
        letter = Letter(factor, payload)
        record = self._slots.get(letter)
        if record is None:
            factor_index(self.factors, factor)
            if payload.owner != self.factors[factor]:
                raise AlgebraError("payload does not belong to the requested factor")
            basis_j = self.onb[factor]
            # act[r, c]: component r (0: the scalar part, k + 1: xi_k) of a
            # times the vector c (0: the unit, k + 1: xi_k)
            act = np.zeros((len(basis_j) + 1, len(basis_j) + 1), dtype=complex)
            for c, vec in enumerate([self.factors[factor].identity()] + basis_j):
                prod = payload * vec
                s = state(prod)  # a centred payload (``normalize``) has no scalar part
                act[0, c] = 0 if c == 0 and negligible(s) else complex(s)
                prod_c = center(prod)
                for r, xi in enumerate(basis_j):
                    act[r + 1, c] = complex(l2_inner(prod_c, xi))
            if factor not in self._layouts:
                self._layouts[factor] = self._layout(factor)
            rows, src = self._layouts[factor]
            record = [(rows, np.where(rows >= 0, act[:, src], 0)), None]
            if letter in self._slots:
                self._slots[letter] = record
        return record

    def _layout(self, factor: int):
        """(rows, src) of every table of the factor, by array operations on all
        tensors: entry (rows[comp, col], col) of a table is act[comp, src[col]],
        with rows -1 (and the value 0) where a prepend passes the depth."""
        d = len(self.onb[factor])
        lo = sum(len(b) for b in self.onb[:factor])
        n = self.dimension
        positions = np.arange(n)
        led = (self.lead >= lo) & (self.lead < lo + d)
        # a tensor led by the factor: a multiplies into the leading slot and
        # the product splits into the tail and the prepends to the tail; any
        # other tensor: the scalar part keeps it and the centred part prepends
        kept = np.where(led, self.tail, positions)
        src = np.where(led, self.lead - lo + 1, 0)
        rows = np.empty((d + 1, n), dtype=np.intp)
        rows[0] = kept
        for k in range(d):
            prepend = np.full(n, -1)
            starts = self.lead == lo + k
            prepend[self.tail[starts]] = positions[starts]
            rows[k + 1] = prepend[kept]
        return rows, src


@functools.lru_cache(maxsize=16)
def shared_fock(factors, depth: int) -> TruncatedFock:
    """The one door to a truncated space: a process-wide cache of the 16
    most recently used spaces, so that repeated queries share the basis
    and the kept slot-letter records of one space.  ``factors`` must be a
    tuple."""
    return TruncatedFock(factors, depth)


def default_depth(length: int) -> int:
    """Depth of the space that represents words of length <= ``length``."""
    return max(4, 2 * length)


# ---------------------------------------------------------------------------
# compressed representation
# ---------------------------------------------------------------------------


class CooMatrix(NamedTuple):
    """A complex matrix: entry vals[i] at (rows[i], cols[i]), no pair twice."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    def adjoint(self) -> "CooMatrix":
        return CooMatrix(self.cols, self.rows, self.vals.conj(), self.shape[::-1])

    def toarray(self) -> np.ndarray:
        return _bincount(self.rows * self.shape[1] + self.cols, self.vals, np.prod(self.shape)).reshape(self.shape)

    def matvec(self):
        """v -> self @ v, the entries sorted stably by row: ``np.add.reduceat``
        when every row has one, else one ``np.bincount`` over interleaved parts."""
        order = np.argsort(self.rows, kind="stable")
        rows, cols, vals = self.rows[order], self.cols[order], self.vals[order]
        filled, starts = np.unique(rows, return_index=True)
        if len(filled) == self.shape[0]:
            return lambda v: np.add.reduceat(vals * v[cols], starts)
        index = (2 * rows[:, None] + np.arange(2)).ravel()
        return lambda v: np.bincount(index, (vals * v[cols]).view(float), 2 * self.shape[0]).view(complex)


def _bincount(index, vals, size):
    """Complex sums of vals by index, each in input order."""
    return np.bincount(index, vals.real, size) + 1j * np.bincount(index, vals.imag, size)


def _pattern(keys, shape):
    """(rows, cols, inverse) of the keys row * shape[1] + col: the distinct
    keys in increasing order, split, and the place of each key among them.
    A grid of at most len(keys) cells takes no sort: the hit cells of
    ``np.bincount(keys)`` are the distinct keys in order, and the running
    count of hits up to a key is its place, so the pattern is np.unique's,
    dtypes too, and the counter is no larger than the keys."""
    if shape[0] * shape[1] <= len(keys):
        hits = np.bincount(keys, minlength=shape[0] * shape[1]) > 0
        keys, inverse = np.flatnonzero(hits), (np.cumsum(hits) - 1)[keys]
    else:
        keys, inverse = np.unique(keys, return_inverse=True)
    return (*np.divmod(keys, shape[1]), inverse)


def _times(rows, vals, block: CooMatrix) -> CooMatrix:
    """L @ B for a letter table L = (rows, vals): B's (r, c, v) goes to (rows[comp, r], c, vals[comp, r] v)."""
    prod = np.take(vals, block.rows, axis=1) * block.vals
    keep = prod != 0
    keys = np.take(rows, block.rows, axis=1)[keep] * block.shape[1] + np.broadcast_to(block.cols, prod.shape)[keep]
    rows, cols, inverse = _pattern(keys, block.shape)
    return CooMatrix(rows, cols, _bincount(inverse, prod[keep], len(rows)), block.shape)


def _word_blocks(fock: TruncatedFock, words) -> dict:
    """The store of the blocks P_L lambda(w) P_L of ``words`` on the space
    of depth L: a dict from each word, and each suffix of one, to its
    :class:`CooMatrix`, with () mapped to I.  The words are merged
    alternating words of the space's factors with centred letters:
    :func:`norm_lower_bound` is the door for a ``FreeElement``, and the
    free-product filtration's words are the space's own tensors
    (:meth:`TruncatedFock.words`), whose slot vectors are centred.

    Each word acts on the depth-L space itself, as the product of its
    compressed letters P_L lambda(xi) P_L, right to left.  For centred
    letters this is exact.  A centred letter prepends to a tensor led by
    another factor; a tensor led by its own factor it splits into a part
    one shorter and a same-length part led by that factor.  So a component
    that grew or kept its length is led by the factor of the letter just
    applied, and the next letter of the alternating word must grow it: a
    component longer than L never comes back, and
    P_L lambda(w) P_L = prod_i P_L lambda(xi_i) P_L.

    Words that share a suffix share its product.  The block of a word is
    the right-nested product L(xi_1) @ (L(xi_2) @ (... @ (L(xi_k) @ I))),
    so the block of ``word[i:]`` is an intermediate of every word ending in
    it.  Each word starts from its longest stored suffix and multiplies on
    the left from there: the same products in the same association as
    rebuilding it letter by letter, so every block keeps its bits.  The
    block of a last letter, L(xi_k) @ I, is the space's
    (:meth:`TruncatedFock.letter_block`), which a slot letter keeps between
    calls; it counts towards the store's entries.  Once the
    blocks held pass ``_BLOCK_CAP`` entries the call raises
    ResourceCapError, before any combination is summed."""
    words = list(dict.fromkeys(words))
    n = fock.dimension
    blocks = {(): fock.identity}
    stored = n  # entries of the blocks held
    for word in words:
        start = next(i for i in range(len(word) + 1) if word[i:] in blocks)
        block = blocks[word[start:]]
        for i in range(start - 1, -1, -1):
            letter = word[i]
            if i == len(word) - 1:  # the last letter acts on I: its block is the space's
                block = fock.letter_block(letter.factor, letter.payload)
            else:
                block = _times(*fock.letter_operator(letter.factor, letter.payload), block)
            blocks[word[i:]] = block
            stored += len(block.vals)
            if stored > _BLOCK_CAP:
                raise ResourceCapError(f"the word blocks of {len(words)} words on {n} tensors "
                                       f"pass the cap of {_BLOCK_CAP} stored entries")
    return blocks


def _combinations(blocks: dict, words, coeffs, k: int) -> list:
    """[P_K (sum_i c_i A_i) P_K for c in coeffs] as :class:`CooMatrix`, with
    A_i the block of ``words[i]`` in the store ``blocks`` (:func:`_word_blocks`)
    and P_K onto the first K tensors.  ``words`` is not empty, and each row
    of ``coeffs`` holds one coefficient per word.

    For L' <= L the depth-L' basis is the first K = dim(L') tensors, and a
    centred letter's operator stores no scalar part, so a block cut to its
    first K rows and columns keeps the bits of its depth-L' block.  A block
    is row-major, so its rows below K are a prefix; one mask over the
    concatenated prefixes (none when K is the dimension) and one
    :func:`_pattern` of the kept keys serve every row.  A row sums its
    c_i * prefix values, concatenated in word order (the summation order of
    duplicate entries) and masked, through the pattern.  The keys are freed
    before any values are built, which lowers peak memory."""
    members = [(b, b.rows.searchsorted(k)) for b in (blocks[word] for word in words)]
    cut = slice(None) if k == blocks[()].shape[0] else np.concatenate([b.cols[:p] < k for b, p in members])
    rows, cols, inverse = _pattern(np.concatenate([b.rows[:p] * k + b.cols[:p] for b, p in members])[cut], (k, k))

    def summed(row):
        vals = np.concatenate([c * b.vals[:p] for (b, p), c in zip(members, row, strict=True)])[cut]
        return CooMatrix(rows, cols, _bincount(inverse, vals, len(rows)), (k, k))

    return [summed(row) for row in coeffs]


def norm_lower_bound(fock: TruncatedFock, x: FreeElement) -> float:
    """Largest singular value of the compressed action, a lower bound of the
    reduced free-product norm of x.  The float is the dense SVD value up to
    ``_DENSE_CROSSOVER`` squared matrix entries and the Lanczos witness
    ||B y||/||y|| above (:func:`spectral_norm`), not rounded down, so it may
    exceed the compressed norm by rounding.

    This is the one door of the Fock layer for a ``FreeElement``: it checks
    that x lives over the space's factors, builds the blocks of its words
    (:func:`_word_blocks`) and sums them with its complex coefficients
    (:func:`_combinations`); the zero element has norm 0.  A scalar part keeps
    a tensor and its leading factor, so uncentred letters can grow, keep and
    shrink a component back into the block (random uncentred length-3 words
    over (M2, tr) * (C3; 3/5, 1/5, 1/5) at depth 2 come out 2.9 to 4.5 off
    in some entry).  When a word of x has an uncentred letter, normalize(x)
    is represented instead: lambda is a homomorphism, and merged terms
    alternate.  Centred is the ``normalize`` rule: a negligible state
    (``scalars.negligible``); the letters' states are cached."""
    if x.ambient != fock.ambient():
        raise AlgebraError("element ambient does not match the Fock factors")
    if not all(is_normalized_word(word) for word in x.terms):
        x = normalize(x)
    if not x.terms:
        return 0.0
    words = list(x.terms)
    (matrix,) = _combinations(_word_blocks(fock, words), words, [[complex(c) for c in x.terms.values()]],
                              fock.dimension)
    return spectral_norm(matrix)


def spectral_norm(matrix: CooMatrix) -> float:
    """Largest singular value of a :class:`CooMatrix`, on two paths chosen
    by its number of entries: up to _DENSE_CROSSOVER squared the dense
    values-only SVD (``np.linalg.norm(., 2)``), above it the Lanczos witness
    ||B y||/||y|| of ``_lanczos_norm``, with B the matrix or its adjoint and
    y a Ritz vector.  The dense cost grows with both sides, so a wide grid
    such as 120 x 1440 takes the kernel although its smaller side is below
    128.  The witness is a Rayleigh quotient, so up to the rounding of its
    last product it is at most the true norm; it is not rounded down.  A
    kernel run that does not converge raises FockError.  Nothing is kept
    between calls."""
    if min(matrix.shape) == 0:
        return 0.0
    if matrix.shape[0] * matrix.shape[1] <= _DENSE_CROSSOVER**2:
        return float(np.linalg.norm(matrix.toarray(), 2))
    return _lanczos_norm(matrix)[0]


def _lanczos_norm(matrix: CooMatrix):
    """(||B y|| / ||y||, y) for the top Ritz vector y of the Gram B* B of
    the smaller side: B is the matrix when it has no more columns than rows,
    else its adjoint.

    Lanczos on B* B, applied as B* (B q) and never formed, from a fixed-seed
    complex start vector, with every new vector orthogonalised twice against
    the whole basis.  A basis of _KRYLOV_DIM vectors restarts from its top
    Ritz vector.  The Ritz pair (theta, s) is the top pair of
    ``np.linalg.eigh`` on a preallocated tridiagonal; the run stops when
    rho = |beta_k s_k| <= FLOAT_RTOL * theta or when the basis spans the
    space.  A step skips the eigh when the stop provably fails: the lower
    bound of rho from ``_residual_floor`` (the last step's rho, and the gap
    between the top two Ritz values when the last step ran eigh) exceeds
    FLOAT_RTOL * top, with top >= theta by Gershgorin.  Skipping changes no
    bit of the result.  A run that has not stopped after _KRYLOV_RESTARTS
    restarts raises FockError."""
    b = matrix if matrix.shape[0] >= matrix.shape[1] else matrix.adjoint()
    b_times, bh_times = b.matvec(), b.adjoint().matvec()
    n = b.shape[1]
    size = min(_KRYLOV_DIM, n)
    rng = default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # the conjugates of the basis vectors, one per row: c @ w holds their
    # inner products with w, and (h @ c).conj() is the combination with
    # coefficients conj(h)
    conj = np.empty((size, n), dtype=complex)
    tri = np.zeros((size + 1, size))  # alpha on the diagonal, beta below it
    for _ in range(_KRYLOV_RESTARTS + 1):
        q /= np.linalg.norm(q)
        top = rho = 0.0
        for k in range(size):
            conj[k] = q.conj()
            c = conj[: k + 1]
            w = bh_times(b_times(q))
            h = c @ w
            w -= (h.conj() @ c).conj()
            w -= ((c @ w).conj() @ c).conj()
            tri[k, k] = alpha = h[k].real
            tri[k + 1, k] = beta = np.linalg.norm(w)
            last_beta = tri[k, k - 1] if k else 0.0  # beta_{-1} = 0
            top = max(top, alpha + last_beta + beta)  # >= theta, by Gershgorin
            if rho and k + 1 < size:  # the gap of this step's Ritz values is not known yet
                rho, gap = _residual_floor(rho, gap, alpha, beta, last_beta, top), 0.0
            if rho <= FLOAT_RTOL * top or k + 1 == size:  # else the stop provably fails
                theta, s = np.linalg.eigh(tri[: k + 1, : k + 1])  # reads the lower triangle
                gap = theta[-1] - theta[-2] if k else math.inf
                theta, s = theta[-1], s[:, -1]
                rho = abs(beta * s[k])
                if rho <= FLOAT_RTOL * theta or k + 1 == n:
                    y = (s @ c).conj()
                    return float(np.linalg.norm(b_times(y)) / np.linalg.norm(y)), y
            q = w / beta
        q = (s @ conj).conj()
    raise FockError(
        f"Lanczos did not converge on a {matrix.shape[0]} x {matrix.shape[1]} matrix "
        f"after {_KRYLOV_RESTARTS} restarts of {size} vectors"
    )


def _residual_floor(rho, gap, alpha, beta, last_beta, top):
    """A lower bound of rho_k = |beta_k s_k| at Lanczos step k, from
    rho <= rho_{k-1}, alpha = alpha_k, beta = beta_k, last_beta = beta_{k-1},
    top >= theta (the top eigenvalue of T_k) and gap = theta_1 - theta_2,
    the spread of the top two eigenvalues of T_{k-1} (inf when T_{k-1} is
    1 x 1, 0 when unknown).

    T_k borders T_{k-1}, whose eigenpairs are (theta_i, v_i) with theta_1
    the top and z_i the last entry of v_i, so rho_{k-1} = beta_{k-1} |z_1|.
    The last entry sigma of T_k's top eigenvector has

        sigma^2 = 1 / (1 + beta_{k-1}^2 sum_i z_i^2 / (theta - theta_i)^2),

    with theta > theta_1 >= theta_i by Cauchy interlacing (rho_{k-1} > 0).
    Two facts bound the terms of the sum:

    * every term of the secular equation theta - alpha_k =
      beta_{k-1}^2 sum_i z_i^2 / (theta - theta_i) is positive, so
      theta - theta_1 >= rho_{k-1}^2 / (theta - alpha_k), and the i = 1
      term times beta_{k-1}^2 is at most ((theta - alpha_k) / rho_{k-1})^2
      <= ((top - alpha_k) / rho)^2;
    * interlacing gives theta - theta_i >= theta_1 - theta_i >= gap for
      i >= 2, and the z_i^2 sum to 1, so the other terms times
      beta_{k-1}^2 add up to at most (beta_{k-1} / gap)^2.

    Hence rho_k = beta_k |sigma| >= beta_k / sqrt(1 + ((top - alpha_k) / rho)^2
    + (beta_{k-1} / gap)^2).  Without a gap (gap <= 0: the last step skipped
    eigh, or its top two Ritz values tie) every theta - theta_i >=
    theta - theta_1 >= rise = rho^2 / (top - alpha_k), which gives
    rho_k >= beta_k rise / hypot(rise, beta_{k-1}), a bound that falls
    quadratically in rho from step to step (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998)."""
    if gap > 0:
        return beta / math.sqrt(1 + ((top - alpha) / rho) ** 2 + (last_beta / gap) ** 2)
    rise = rho * rho / (top - alpha)
    return beta * rise / math.hypot(rise, last_beta)


# ---------------------------------------------------------------------------
# the free-product filtration
# ---------------------------------------------------------------------------


class FreeProductFiltration(Filtration):
    """Level n is the depth-n space: the alternating centred words of length
    <= n over the complement bases, each level a prefix of the next
    (:meth:`TruncatedFock.words`).  Factors are :class:`ConstantFiltration`
    only, else AlgebraError: ones with levels of their own need the
    total-degree rule (ROADMAP item 4)."""

    recipe = "free-product"

    def __init__(self, factor_filtrations, probe_seed: int = 0):
        factors = list(factor_filtrations)
        if not all(isinstance(f, ConstantFiltration) for f in factors):
            raise AlgebraError("free-product levels need constant factor filtrations")
        self.ambient = FreeProductAmbient([f.algebra for f in factors])
        self.probe_seed = probe_seed

    def _level_words(self, n: int) -> list:
        """The basis words of level n: the depth-n space's, the empty word first."""
        fock = shared_fock(self.ambient.factors, n)
        return fock.words(fock.dimension)

    def level_onb(self, n: int):
        return [FreeElement.word(self.ambient, word) for word in self._level_words(n)]

    def level_dim(self, n: int) -> int:
        return fock_dimension(self.ambient.factors, n)

    def _level_constants(self, levels) -> list:
        """A bracket [lower, upper] for each level n >= 1 of ``levels``.

        upper: the layer estimate 2 sqrt(m) (l+1) max(1, max_j dn_norm_j)
        summed in quadrature over layers l <= n, rounded to nearest, with no
        derivation cited yet (ROADMAP items 10 and 12).  lower: the largest
        norm of the level's probes (``_probe_lower``), not rounded down.
        """
        factors = self.ambient.factors
        cmax = max([dn_norm(onb_complement(a)) for a in factors] + [1.0])
        out = []
        for n, lower in zip(levels, self._probe_lower(levels)):
            quad = math.sqrt(sum((ell + 1) ** 2 for ell in range(n + 1)))
            upper = 2 * math.sqrt(len(factors)) * cmax * quad
            out.append(RdConstant(lower, upper, "bracket"))
        return out

    def _probes(self, n: int) -> list:
        """Three probes of level n as coefficient vectors over
        ``_level_words(n)``: the flat unit combination and two seeded random
        unit combinations."""
        size = self.level_dim(n)
        rng = default_rng(self.probe_seed + n)
        probes = [np.full(size, unit_scale(size), dtype=complex)]
        for _ in range(2):
            coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            probes.append(coeffs / np.linalg.norm(coeffs))
        return probes

    def _probe_lower(self, levels) -> list:
        """The largest probe norm of each level n, on the space of depth
        max(4, n + 1) or the deepest below the dimension cap: one block store
        (``_word_blocks``) of the words of level N = max(levels), read off the
        top space, and level n combined from their first level_dim(n) at its
        own cut.  More than ``_PROBE_CAP`` = 200,000 * 75 words times tensors
        raises ResourceCapError before a word is built, so every word of
        level N is a top tensor: if top < N, the loop stepped below depth
        top + 1 <= N, so level_dim(N) >= fock_dimension(top + 1) > 200,000;
        and fock_dimension(top) >= 75, as below that each factor has at most
        73 slot vectors and depth top + 1 fewer than 1 + 73 * 75 tensors."""
        factors = self.ambient.factors
        top = max(4, max(levels) + 1)
        while top > 1 and fock_dimension(factors, top) > _DIMENSION_CAP:
            top -= 1
        size, tensors = self.level_dim(max(levels)), fock_dimension(factors, top)
        if size * tensors > _PROBE_CAP:
            raise ResourceCapError(f"level {max(levels)} would probe {size} words on {tensors} tensors, "
                                   f"above the cap of {_PROBE_CAP} words x tensors")
        probes = [self._probes(n) for n in levels]
        fock = shared_fock(factors, top)
        words = fock.words(size)
        blocks = _word_blocks(fock, words)
        out = []
        for n, ps in zip(levels, probes):
            k = fock_dimension(factors, min(max(4, n + 1), top))
            out.append(max(map(spectral_norm, _combinations(blocks, words[:self.level_dim(n)], ps, k))))
        return out


# ---------------------------------------------------------------------------
# moment-power norm estimates
# ---------------------------------------------------------------------------


@dataclass
class MomentEstimates:
    """Rows (r, state((x*x)^r), power-root bound, ratio bound, best)."""

    rows: list
    method: str

    @property
    def max(self) -> float:
        return self.rows[-1][4] if self.rows else 0.0

    def best_at(self, r: int) -> float:
        return self.rows[r - 1][4]


def moment_norm_estimate(x: FreeElement, r_max: int) -> MomentEstimates:
    """Lower bounds of ||x|| from moments of x*x.

    For each r <= r_max the report carries q_r = state((x*x)^r), the power
    root q_r^(1/2r) and the consecutive ratio (q_r/q_{r-1})^(1/2); both are
    lower bounds of the reduced norm and nondecreasing in r, and the best
    column is their max.  Exact q_r give each root rounded down
    (``scalars.root_down``), a certified bound; float q_r give the roots
    rounded to nearest, and the first float q_r that is not finite raises
    OverflowError, whatever the method: the one range check of the float
    moments.  The methods are routed by exactness: x is exact
    when every coefficient and the state of every letter is a QC
    (``FreeElement.is_exact``), so exact entries over a factor with a float
    state count as float.  ``method`` names how the moments were found:

    * "free-cumulant": self-adjoint sums of single letters (and exact x
      whose x*x is one), by free-cumulant arithmetic, exact when x is;
    * "fock-vector": other float elements, as squared norms of x and x*
      applied alternately to the vacuum in the truncated space of depth
      r_max * l (l the longest word); no intermediate tensor reaches the
      cut, so the values are the untruncated ones up to rounding.  A space
      above the dimension cap raises ResourceCapError;
    * "word-expansion": other exact elements, by multiplying words out
      (exact); x*x or a power of it that would take more than ``_TERM_CAP``
      word products (``fock._capped_product``), or a pairing of more than
      ``_PAIR_CAP`` term pairs, raises ResourceCapError.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    q, method = _even_moments(x, r_max)
    rows = []
    for r in range(1, r_max + 1):
        qr, prev = q[r], q[r - 1]
        if isinstance(qr, float):
            if not math.isfinite(qr):
                raise OverflowError(f"the float moment state((x*x)^{r}) is beyond the float range")
            root = qr ** (1.0 / (2 * r)) if qr > 0 else 0.0
            ratio = math.sqrt(qr / prev) if prev > 0 else 0.0
        else:
            root = root_down(qr, 2 * r)
            ratio = root_down(qr / prev, 2) if prev else 0.0
        rows.append((r, qr, root, ratio, max(root, ratio)))
    return MomentEstimates(rows, method)


def _even_moments(x: FreeElement, r_max: int):
    """([q_0..q_{r_max}], method) with q_r = free_state((x*x)^r)."""
    if x.max_word_length() <= 1 and _by_value(x) == _by_value(x.adjoint()):
        m = _single_letter_moments(x, 2 * r_max)
        return [m[2 * r] for r in range(r_max + 1)], "free-cumulant"
    if not x.is_exact():
        return _vector_moments(x, r_max), "fock-vector"
    h = _capped_product(x.adjoint(), x)
    if h.max_word_length() <= 1:
        return _single_letter_moments(h, r_max), "free-cumulant"
    return _word_moments(h, r_max), "word-expansion"


def _by_value(x: FreeElement) -> dict:
    """x's terms keyed on letter values, to decide x = x* by values: ``==`` also
    reads float bits, and conj turns a real float entry's +0j into -0j."""
    return accumulate({}, ((tuple((l.factor, l.payload.blocks) for l in w), c)
                           for w, c in x.terms.items()))


def _vector_moments(x: FreeElement, r_max: int):
    """[q_0..q_{r_max}] as floats with q_r = ||v_r||^2, where v_0 = Omega and
    v_r = x v_{r-1} for odd r, x* v_{r-1} for even r, in the truncated space
    of depth r_max * l: v_{r-1} has length <= (r-1) l and one more word adds
    at most l letters, so no letter ever meets the cut.  Past the float range
    q_r runs on to inf or nan, which :func:`moment_norm_estimate` refuses."""
    fock = shared_fock(x.ambient.factors, r_max * x.max_word_length())
    n, forward, backward = fock.dimension, {}, {}
    for l in {l for word in x.terms for l in word}:  # scatter with L's block, its adjoint for L*
        block = fock.letter_block(l.factor, l.payload)
        for ops, b in ((forward, block), (backward, block.adjoint())):
            ops[l] = lambda v, b=b: _bincount(b.rows, b.vals * v[b.cols], n)
    # words in the order their letters act: the last letter of x's words
    # acts first; x* acts with the adjoint letters, first letter first
    x_terms = [(word[::-1], complex(c)) for word, c in x.terms.items()]
    adj_terms = [(word, complex(c).conjugate()) for word, c in x.terms.items()]
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    q = [1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, r_max + 1):
            if r % 2:
                v = _apply_words(x_terms, forward, v)
            else:
                v = _apply_words(adj_terms, backward, v)
            q.append(float(np.vdot(v, v).real))
    return q


def _apply_words(terms, ops, v):
    """sum_w c_w M_w v for words w listed in acting order, ops[letter] acting
    on vectors; words sharing their first acting letters share products."""
    done = {(): v}
    out = np.zeros_like(v)
    for seq, c in terms:
        for k in range(1, len(seq) + 1):
            if seq[:k] not in done:
                done[seq[:k]] = ops[seq[k - 1]](done[seq[: k - 1]])
        out += c * done[seq]
    return out
