"""The exact half of the Fock-space oracle: vacuum pairing, free cumulants
and exact moments.  It imports no scipy.

:func:`vacuum_expectation` applies the free-product left action to tensor
words symbolically and reads off the vacuum coefficient.  It is exact in
rational mode and independent of ``freeword.free_state``: it prepends and
splits on tensors where ``free_state`` merges and centres words.  A letter
shortens a tensor by at most one slot, so a tensor longer than the letters
still to act is dropped: it never returns to the vacuum, and the others
get the same terms in the same order.

The exact moments q_r = state((x*x)^r) behind
``compressed.moment_norm_estimate`` come from here.  Self-adjoint sums of
single letters go by additivity of free cumulants: one walk
(:func:`_moment_cumulant_walk`) runs the moment-cumulant relation
m_k = sum_{s<=k} kappa_s [z^{k-s}] M(z)^s for k = 1..n, and at each k the
given side, moments or cumulants, fixes the other
(:func:`moments_to_free_cumulants`, :func:`free_cumulants_to_moments`).
Every other exact element goes by multiplying words out and pairing them
exactly, up to ``_TERM_CAP`` word products per product
(:func:`_capped_product`) and ``_PAIR_CAP`` term pairs per pairing.
:func:`fock_dimension` counts the tensors of a truncated space, and the
errors of both halves are defined here.  The truncated space, its letter
operators and the norms are in :mod:`freedecay.compressed`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, center, state
from .freeword import FreeElement, Letter, _letter_keys, l2_inner_free, normalize
from .scalars import QC, QC_ONE, QC_ZERO, accumulate

__all__ = [
    "FockError",
    "ResourceCapError",
    "fock_dimension",
    "vacuum_expectation",
    "moments_to_free_cumulants",
    "free_cumulants_to_moments",
]

# word products per exact moment power: about 0.12-0.13 ms each over
# (M2, tr) * (M2, tr), so a run at the cap takes seconds
_TERM_CAP = 20_000
# term pairs per exact moment pairing; larger pairings take minutes
_PAIR_CAP = 250_000


class FockError(Exception):
    pass


class ResourceCapError(FockError):
    pass


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------


def fock_dimension(factors, depth: int) -> int:
    """Number of basis tensors of length <= depth over the factors."""
    return alternating_dimension([f.dim - 1 for f in factors], depth)


def alternating_dimension(dims, depth: int) -> int:
    """1 + sum over alternating patterns of length <= depth of products of
    the slot dimensions ``dims`` (one per factor)."""
    m = len(dims)
    total = 1
    level = {j: dims[j] for j in range(m)}
    for _ in range(depth):
        total += sum(level.values())
        level = {j: dims[j] * sum(v for k, v in level.items() if k != j) for j in range(m)}
    return total



# ---------------------------------------------------------------------------
# exact vacuum pairing
# ---------------------------------------------------------------------------


def vacuum_expectation(x: FreeElement):
    """<lambda(x) Omega, Omega> computed by the symbolic tensor action.

    Exact in rational mode; equals free_state(x) for every x (independent
    recursion: prepend/split on tensors instead of merge/center on words).
    Computed afresh on every call.  One dict serves every term of x: it
    holds the split of each (letter, first slot) product and of each letter
    standing alone, so each is made once per call; nothing is kept between
    calls.
    """
    splits: dict = {}
    key = _letter_keys(x)
    acc = QC_ZERO
    for word, coeff in x.terms.items():
        acc = acc + coeff * _vacuum_of_word(word, splits, key)
    return acc


def _vacuum_of_word(word, splits, key):
    # states: dict mapping tensor (tuple of Letters with centered payloads)
    # to coefficient; apply letters right to left.
    states = {(): QC_ONE}
    for room in range(len(word) - 1, -1, -1):
        states = accumulate({}, _letter_on_tensors(word[room], states, splits, key, room))
        if not states:
            return QC_ZERO
    return states.get((), QC_ZERO)


def _letter_on_tensors(letter, states, splits, key, room):
    """(tensor, coeff) terms of the letter applied to each tensor of ``states``.

    The letter multiplies the tensor's first slot when that slot is in its
    factor, else it stands before the tensor; the product splits into its
    state, which drops the slot, and its centred part, a new first slot.
    ``splits`` is the call's memo of these splits, under ``key`` of the
    (letter, first slot) pair or of the letter alone (``_letter_keys``), so
    an exact letter and its float twin never share an entry; a hit returns
    the pair that the same split made, with its bits.  Coefficients in
    ``states`` are never 0, so only a state term can be.  ``room`` letters
    act after this one: no tensor of ``states`` is longer than room + 1, and
    a term longer than room is dropped before it is made."""
    j = letter.factor
    alone = None
    for tensor, coeff in states.items():
        if tensor and tensor[0].factor == j:
            pair = key((letter, tensor[0]))
            split = splits.get(pair)
            if split is None:
                split = splits[pair] = _split(j, letter.payload * tensor[0].payload)
            (s, slot), rest = split, tensor[1:]
        elif len(tensor) > room:
            continue
        else:
            if alone is None:
                lone = key((letter,))
                alone = splits.get(lone)
                if alone is None:
                    alone = splits[lone] = _split(j, letter.payload)
            (s, slot), rest = alone, tensor
        c = coeff * s
        if c:
            yield rest, c
        if slot is not None and len(rest) < room:
            yield (slot,) + rest, coeff


def _split(j, prod):
    """(state, centred slot) of a factor-j product; the slot is None when the
    centred part is a structural zero, every entry exactly 0."""
    s, centered = state(prod), center(prod)
    zero = not any(v for b in centered.blocks for row in b for v in row)
    return s, None if zero else Letter(j, centered)


# ---------------------------------------------------------------------------
# free cumulants
# ---------------------------------------------------------------------------


def moments_to_free_cumulants(moments):
    """Free cumulants kappa_1..kappa_n from raw moments [m_0=1, m_1, ..., m_n].

    Fractions over ints and Fractions (an int moment is taken as a
    Fraction), floats over floats (:func:`_moment_cumulant_walk`)."""
    if moments[0] != 1:
        raise ValueError("m_0 must be 1")
    moments = [Fraction(m) if isinstance(m, int) else m for m in moments]
    return _moment_cumulant_walk(moments, [], len(moments) - 1)[1]


def free_cumulants_to_moments(kappa, n: int):
    """Raw moments m_0..m_n from free cumulants kappa_1..kappa_n: Fractions
    when kappa_1 is an int or a Fraction (or kappa is empty), else floats."""
    one = Fraction(1) if not kappa or isinstance(kappa[0], (int, Fraction)) else 1.0
    return _moment_cumulant_walk([one], kappa, n)[0]


def _moment_cumulant_walk(m, kappa, n: int):
    """([m_0..m_n], [kappa_1..kappa_n]) of one distribution from m_0 and
    either side: m given up to m_n with kappa = [], or kappa given up to
    kappa_n with m = [m_0].

    Walks k = 1..n through the moment-cumulant relation
    m_k = sum_{s<=k} kappa_s P_s[k-s], where P_s[j] = [z^j] M(z)^s and
    M(z) = sum_j m_j z^j (Speicher 1994; Nica-Speicher 2006).  At each k
    the given side fixes the other: kappa_k = m_k - sum_{s<k} kappa_s
    P_s[k-s], or m_k = sum_{s<=k} kappa_s P_s[k-s] with P_k[0] = 1.  Once
    m_k is known, column k of the table is added: P_1 = m and
    P_s[k] = sum_{b<=k} P_{s-1}[b] m_{k-b} for 2 <= s <= n - k, the last
    power a later step reads.  Every sum runs left to right from a zero of
    m_0's kind, an exact Fraction(0) for an int or Fraction m_0 and 0.0 for
    a float, so a float sum never ends at -0.0."""
    m, kappa = list(m), list(kappa)
    zero = Fraction(0) * m[0]
    powers = [None, m] + [[] for _ in range(n - 1)]  # powers[s][j] = P_s[j]
    for k in range(n + 1):
        if k == len(m):
            acc = zero
            for s in range(1, k + 1):
                acc = acc + kappa[s - 1] * powers[s][k - s]
            m.append(acc)
        elif k:
            acc = m[k]
            for s in range(1, k):
                acc = acc - kappa[s - 1] * powers[s][k - s]
            kappa.append(acc)
        for s in range(2, n - k + 1):
            acc = zero
            for b in range(k + 1):
                acc = acc + powers[s - 1][b] * m[k - b]
            powers[s].append(acc)
    return m, kappa


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------


def _capped_product(a: FreeElement, b: FreeElement) -> FreeElement:
    """normalize(a * b), refused above ``_TERM_CAP`` word products."""
    if len(a.terms) * len(b.terms) > _TERM_CAP:
        raise ResourceCapError(
            f"moment expansion would exceed {_TERM_CAP} word products "
            f"({len(a.terms)} x {len(b.terms)} terms)"
        )
    return normalize(a * b)


def _word_moments(h: FreeElement, r_max: int):
    """[q_0..q_{r_max}] from the normalized h = x*x by multiplying words out;
    exact in rational mode."""
    # q_{2s} = <h^s, h^s> and q_{2s+1} = <h^{s+1}, h^s> (h self-adjoint), so
    # only powers up to ceil(r_max/2) are ever multiplied out.
    powers = [FreeElement.one(h.ambient), h]
    q = [QC(1)]
    for r in range(1, r_max + 1):
        s, t = r // 2, (r + 1) // 2
        if t == len(powers):
            powers.append(_capped_product(powers[-1], h))
        a, b = powers[t], powers[s]
        if len(a.terms) * len(b.terms) > _PAIR_CAP:
            raise ResourceCapError(
                f"moment pairing would exceed {_PAIR_CAP} term pairs; lower r_max"
            )
        q.append(l2_inner_free(a, b))
    return q


def _single_letter_moments(x: FreeElement, n: int):
    """[m_0..m_n] of a self-adjoint x = c 1 + sum_j iota_j(y_j) by additivity
    of free cumulants: Fractions when ``x.is_exact()``, else floats."""
    real = (lambda v: v.re) if x.is_exact() else (lambda v: complex(v).real)
    # every word has at most one letter
    by_factor: dict[int, AlgebraElement] = accumulate({}, (
        (letter.factor, letter.payload * coeff) for word, coeff in x.terms.items() for letter in word
    ))
    # the scalar is kappa_1 of its own (free cumulants of a scalar vanish beyond 1)
    kappa = [real(x.terms.get((), QC_ZERO))] + [real(QC_ZERO)] * (n - 1)
    for y in by_factor.values():
        m, p = [real(QC_ONE)], y.owner.identity()
        for _ in range(n):
            p = p * y
            m.append(real(state(p)))
        kappa = [a + b for a, b in zip(kappa, moments_to_free_cumulants(m))]
    return free_cumulants_to_moments(kappa, n)
