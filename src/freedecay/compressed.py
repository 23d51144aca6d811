"""Truncated free-product Hilbert space, compressed left representation and
moment-power norm estimates: the numeric half of the Fock-space oracle, and
the layer that loads scipy.

The truncated space (:class:`TruncatedFock`) has an orthonormal tensor
basis, and the compressed left representation on it
(:func:`norm_lower_bound`) gives lower bounds for the reduced norm from its
spectral data.  Words act on the depth-L space itself
(:func:`_represent_sparse`), and the elements of one call share each word's
block.  A space caches one sparse letter operator per vector of each
factor's complement basis (:meth:`TruncatedFock.onb_operators`); the
operator of any other letter is built when asked for and not kept.  The
complement bases are the algebras' own (:func:`onb_complement`), and
:func:`shared_fock` keeps the 16 most recently used spaces per process.

Moment-power estimates sit on top: s_r = state((x*x)^r)^(1/2r) together
with the consecutive-moment ratio (state((x*x)^r)/state((x*x)^{r-1}))^(1/2);
both are lower bounds of the norm and nondecreasing in r.  The moments
q_r = state((x*x)^r) come from one of three methods:

* "free-cumulant": self-adjoint sums of single letters, by additivity of
  free cumulants (exact when the element is, in :mod:`freedecay.fock`);
* "fock-vector": every other float element, as q_r = ||v_r||^2 with
  v_r = x v_{r-1} (odd r) or x* v_{r-1} (even r) and v_0 = Omega, by
  sparse letter operators on the truncated space of depth r_max * l for
  words of length <= l.  v_r has length <= r l, so no letter ever meets
  the cut and the truncation costs nothing beyond rounding;
* "word-expansion": every other exact element, by multiplying words out
  and pairing them exactly (in :mod:`freedecay.fock`); it is also the
  oracle of the vector path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .algebra import (
    AlgebraElement,
    AlgebraError,
    center,
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
from .freeword import FreeElement, FreeProductAmbient, is_normalized_word, normalize
from .scalars import accumulate, negligible, root_down, to_complex

__all__ = [
    "TruncatedFock",
    "norm_lower_bound",
    "moment_norm_estimate",
    "MomentEstimates",
    "default_depth",
]

_DIMENSION_CAP = 200_000
_DENSE_CAP = 4_000
_DENSE_MEMO = 1  # dense norms kept by _spectral_norm


class TruncatedFock:
    """Length <= depth truncation of the free-product Hilbert space.

    Basis tensors are strings of slot vectors with alternating factors; the
    slot vectors of factor j run over an orthonormal basis of its complement
    of C1 and are numbered factor-major, vector i of factor j after those
    of factors 0..j-1.  Tensor p is the slot vector ``lead[p]`` followed by
    the tensor at position ``tail[p]``; the vacuum is position 0, with -1 in
    both arrays.  Tensors are ordered by length, then lexicographically by
    the (factor, index) of the first slot, then of the second, and so on.
    The space caches the letter operators of the slot vectors, at most
    dim(A_j) - 1 per factor, and no others.  Words of any length act on this
    one space, of at most ``_DIMENSION_CAP`` tensors.
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
        self._onb_position = [{xi: i for i, xi in enumerate(b)} for b in self.onb]
        self._onb_ops: dict = {}
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

    def onb_operators(self, factor: int):
        """Sparse matrices L_i = P lambda(iota_factor(xi_i)) P on this basis,
        one per vector xi_i of the factor's complement basis.

        All operators of a factor are built together and cached on the
        space."""
        ops = self._onb_ops.get(factor)
        if ops is None:
            ops = self._onb_ops[factor] = self._build_letter_operators(factor, self.onb[factor])
        return ops

    def letter_operator(self, factor: int, payload: AlgebraElement):
        """Sparse matrix of P lambda(iota_factor(payload)) P on this basis.

        A vector xi_i of the factor's complement basis gets its cached
        operator L_i; any other payload gets a fresh operator by the same
        construction, which is not cached."""
        if payload.owner != self.factors[factor]:
            raise AlgebraError("payload does not belong to the requested factor")
        i = self._onb_position[factor].get(payload)
        if i is not None:
            return self.onb_operators(factor)[i]
        return self._build_letter_operators(factor, [payload])[0]

    def _build_letter_operators(self, factor: int, payloads):
        """The operators of the letters iota_factor(a), a in payloads, from
        array operations over all tensors at once."""
        basis_j = self.onb[factor]
        d = len(basis_j)
        # act[r, c]: component r (0: the scalar part, k + 1: xi_k) of a times
        # the vector c (0: the unit, k + 1: xi_k), one matrix per payload a
        inputs = [self.factors[factor].identity()] + basis_j
        acts = []
        for a in payloads:
            act = np.zeros((d + 1, d + 1), dtype=complex)
            for c, vec in enumerate(inputs):
                prod = a * vec
                s = state(prod)  # a centred payload (``normalize``) has no scalar part
                act[0, c] = 0 if c == 0 and negligible(s) else to_complex(s)
                prod_c = center(prod)
                for r, xi in enumerate(basis_j):
                    act[r + 1, c] = to_complex(l2_inner(prod_c, xi))
            acts.append(act)
        lo = sum(len(b) for b in self.onb[:factor])
        n = self.dimension
        positions = np.arange(n)
        led = (self.lead >= lo) & (self.lead < lo + d)
        # a tensor led by the factor: a multiplies into the leading slot and
        # the product splits into the tail and the prepends to the tail; any
        # other tensor: the scalar part keeps it and the centred part prepends
        kept = np.where(led, self.tail, positions)
        src = np.where(led, self.lead - lo + 1, 0)
        # rows[comp, col]: the tensor that component comp of column col lands
        # on, -1 where a prepend would pass the depth
        rows = np.empty((d + 1, n), dtype=np.intp)
        rows[0] = kept
        for k in range(d):
            prepend = np.full(n, -1)
            starts = self.lead == lo + k
            prepend[self.tail[starts]] = positions[starts]
            rows[k + 1] = prepend[kept]
        cols = np.broadcast_to(positions, rows.shape)
        ops = []
        for act in acts:
            # entry (rows[comp, col], col) of the operator of a is act[comp, src[col]]
            vals = act[:, src]
            keep = (rows >= 0) & (vals != 0)
            ops.append(sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)))
        return ops


@functools.lru_cache(maxsize=16)
def shared_fock(factors, depth: int) -> TruncatedFock:
    """Process-wide cache of the 16 most recently used truncated spaces, so
    that repeated norm queries share the basis and the cached basis-vector
    operators of one space.  ``factors`` must be a tuple."""
    return TruncatedFock(factors, depth)


def default_depth(length: int) -> int:
    """Depth of the space that represents words of length <= ``length``."""
    return max(4, 2 * length)


# ---------------------------------------------------------------------------
# compressed representation
# ---------------------------------------------------------------------------


def _represent_sparse(fock: TruncatedFock, xs, dims=None):
    """[P_K lambda(x) P_K for x in xs] as sparse matrices, exact compression,
    with P_K onto the first K tensors, K from ``dims`` (default: all).

    Each word acts on the depth-L space itself, as the product of its
    compressed letters P_L lambda(xi) P_L, right to left.  For centred
    letters this is exact.  A centred letter prepends to a tensor led by
    another factor; a tensor led by its own factor it splits into a part
    one shorter and a same-length part led by that factor.  So a component
    that grew or kept its length is led by the factor of the letter just
    applied, and the next letter of the alternating word must grow it: a
    component longer than L never comes back, and
    P_L lambda(w) P_L = prod_i P_L lambda(xi_i) P_L.

    A scalar part keeps a tensor and its leading factor, so uncentred
    letters can grow, keep and shrink a component back into the block
    (random uncentred length-3 words over (M2, tr) * (C3; 3/5, 1/5, 1/5) at
    depth 2 come out 2.9 to 4.5 off in some entry).  When a word of x has
    an uncentred letter, normalize(x) is represented instead: lambda is a
    homomorphism, and merged terms alternate.  Centred is the ``normalize``
    rule: a negligible state (``scalars.negligible``).  Level-basis probes,
    ``HomogeneousWordElement`` words and ``normalize`` output are centred,
    and their letters' states are cached.

    The elements of one call share their word blocks: each distinct word,
    in first-seen order, gets its block once.  Words that share a suffix
    share its product.  The block of a word is the right-nested product
    L(xi_1) @ (L(xi_2) @ (... @ (L(xi_k) @ I))), so the block of
    ``word[i:]`` is an intermediate of every word ending in it.  Each word
    starts from its longest suffix whose block is stored (the empty suffix
    stores I) and multiplies on the left from there: the same products in
    the same association as rebuilding it letter by letter, so every block
    keeps its bits.  A suffix block is stored only while a word still to
    come ends in it.  Each element's blocks are summed in its own
    ``x.terms`` order, which fixes the summation order of duplicate
    entries.  For L' <= L the depth-L' basis is the first K = dim(L')
    tensors, and a centred letter's operator stores no scalar part, so a
    word's block cut to its first K rows and columns keeps the bits of its
    depth-L' block.  ``rdcert`` reads every level of a run from one call at
    the top level's depth, so each word of its level bases costs one product.
    """
    ambient = fock.ambient()
    if any(x.ambient != ambient for x in xs):
        raise AlgebraError("element ambient does not match the Fock factors")
    xs = [x if all(is_normalized_word(word) for word in x.terms) else normalize(x) for x in xs]
    words = list(dict.fromkeys(word for x in xs for word in x.terms))
    n = fock.dimension
    # uses[s]: words still to come that end in the proper suffix s
    uses: dict = {}
    for word in words:
        for i in range(1, len(word)):
            uses[word[i:]] = uses.get(word[i:], 0) + 1
    products = {(): sp.identity(n, dtype=complex, format="csr")}
    blocks = {}
    for word in words:
        start = next(i for i in range(len(word) + 1) if word[i:] in products)
        block = products[word[start:]]
        for i in range(start - 1, -1, -1):
            letter = word[i]
            block = fock.letter_operator(letter.factor, letter.payload) @ block
            if uses.get(word[i:]):
                products[word[i:]] = block
        for i in range(1, len(word)):
            uses[word[i:]] -= 1
            if not uses[word[i:]]:
                products.pop(word[i:], None)
        block = block.tocoo()
        blocks[word] = (block.row, block.col, block.data)
    out = []
    for x, k in zip(xs, dims or [n] * len(xs)):
        if not x.terms:
            out.append(sp.csr_matrix((k, k), dtype=complex))
            continue
        terms = [(_leading(blocks[word], k), to_complex(coeff)) for word, coeff in x.terms.items()]
        # unnamed arrays: one element's copies are freed before the next
        # element's are built, which keeps the peak memory of a call down
        out.append(sp.csr_matrix(
            (np.concatenate([c * data for (_, _, data), c in terms]),
             (np.concatenate([row for (row, _, _), _ in terms]),
              np.concatenate([col for (_, col, _), _ in terms]))),
            shape=(k, k),
            dtype=complex,
        ))
    return out


def _leading(block, k):
    """A COO block (rows, cols, data) cut to its first k rows and columns."""
    row, col, data = block
    keep = (row < k) & (col < k)
    return block if keep.all() else (row[keep], col[keep], data[keep])


def norm_lower_bound(fock: TruncatedFock, x: FreeElement) -> float:
    """Largest singular value of the compressed action, a lower bound of the
    reduced free-product norm of x.  The float is the dense or ARPACK value,
    not rounded down, so it may exceed the compressed norm by rounding."""
    (matrix,) = _represent_sparse(fock, [x])
    return _spectral_norm(matrix)


def _spectral_norm(matrix) -> float:
    """Largest singular value of a CSR matrix: dense up to 400 rows or
    columns, ARPACK above.  When ARPACK does not converge the dense norm is
    taken up to dimension _DENSE_CAP; beyond it FockError is raised.

    The latest dense norm is kept, keyed by the full CSR bytes (not a
    digest), so a hit is the float recomputing gives: ``rx_check`` of a
    length-1 element, whose bracket cell is its Fock matrix, takes one SVD.
    More kept keys found no more hits and raised rd-certify's peak memory.
    The ARPACK path and its fallback (up to _DENSE_CAP rows) are not kept."""
    n = min(matrix.shape)
    if n == 0:
        return 0.0
    if n <= 2 or max(matrix.shape) <= 400:
        return _dense_norm(matrix.shape, matrix.data.dtype.str, matrix.indices.dtype.str,
                           matrix.data.tobytes(), matrix.indices.tobytes(), matrix.indptr.tobytes())
    v0 = np.ones(n, dtype=complex) / math.sqrt(n)
    try:
        vals = spla.svds(matrix, k=1, v0=v0, return_singular_vectors=False, maxiter=5000)
    except spla.ArpackNoConvergence as exc:
        if max(matrix.shape) > _DENSE_CAP:
            raise FockError(
                f"ARPACK did not converge on a {matrix.shape[0]} x {matrix.shape[1]} "
                f"matrix, too large for the dense fallback (cap {_DENSE_CAP})"
            ) from exc
        return float(np.linalg.norm(matrix.toarray(), 2))
    return float(vals[0])


@functools.lru_cache(maxsize=_DENSE_MEMO)
def _dense_norm(shape, data_dtype, index_dtype, data, indices, indptr) -> float:
    matrix = sp.csr_matrix((np.frombuffer(data, data_dtype), np.frombuffer(indices, index_dtype),
                            np.frombuffer(indptr, index_dtype)), shape=shape)
    return float(np.linalg.norm(matrix.toarray(), 2))


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
    rounded to nearest.  The methods are routed by exactness: x is exact
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
    at most l letters, so no letter ever meets the cut."""
    fock = shared_fock(x.ambient.factors, r_max * x.max_word_length())
    letters = {letter for word in x.terms for letter in word}
    forward = {l: fock.letter_operator(l.factor, l.payload) for l in letters}
    backward = {l: op.conj().T for l, op in forward.items()}
    # words in the order their letters act: the last letter of x's words
    # acts first; x* acts with the adjoint letters, first letter first
    x_terms = [(word[::-1], to_complex(c)) for word, c in x.terms.items()]
    adj_terms = [(word, to_complex(c).conjugate()) for word, c in x.terms.items()]
    v = np.zeros(fock.dimension, dtype=complex)
    v[0] = 1.0
    q = [1.0]
    for r in range(1, r_max + 1):
        if r % 2:
            v = _apply_words(x_terms, forward, v)
        else:
            v = _apply_words(adj_terms, backward, v)
        q.append(float(np.vdot(v, v).real))
    return q


def _apply_words(terms, ops, v):
    """sum_w c_w M_w v for words w listed in acting order; words sharing
    their first acting letters share those products."""
    done = {(): v}
    out = np.zeros_like(v)
    for seq, c in terms:
        for k in range(1, len(seq) + 1):
            if seq[:k] not in done:
                done[seq[:k]] = ops[seq[k - 1]] @ done[seq[: k - 1]]
        out += c * done[seq]
    return out
