"""The exact half of the Fock-space oracle: vacuum pairing, free cumulants
and exact moments.  It imports no scipy.

:func:`vacuum_expectation` applies the free-product left action to tensor
words symbolically and reads off the vacuum coefficient.  It is exact in
rational mode and independent of ``freeword.free_state``: it prepends and
splits on tensors where ``free_state`` merges and centres words.

The exact moments q_r = state((x*x)^r) behind
``compressed.moment_norm_estimate`` come from here: self-adjoint sums of
single letters by additivity of free cumulants
(:func:`moments_to_free_cumulants`, :func:`free_cumulants_to_moments`),
every other exact element by multiplying words out and pairing them
exactly, up to ``_TERM_CAP`` word products per power and ``_PAIR_CAP`` term
pairs per pairing.  :func:`fock_dimension` counts the tensors of a
truncated space, and the errors of both halves are defined here.  The
truncated space, its letter operators and the norms are in
:mod:`freedecay.compressed`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, center, state
from .freeword import FreeElement, Letter, _letter_keys, l2_inner_free, normalize
from .scalars import QC, QC_ONE, QC_ZERO, accumulate, is_exact

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
    for letter in reversed(word):
        states = accumulate({}, _letter_on_tensors(letter, states, splits, key))
        if not states:
            return QC_ZERO
    return states.get((), QC_ZERO)


def _letter_on_tensors(letter, states, splits, key):
    """(tensor, coeff) terms of the letter applied to each tensor of ``states``.

    The letter multiplies the tensor's first slot when that slot is in its
    factor, else it stands before the tensor; the product splits into its
    state, which drops the slot, and its centred part, a new first slot.
    ``splits`` is the call's memo of these splits, under ``key`` of the
    (letter, first slot) pair or of the letter alone (``_letter_keys``), so
    an exact letter and its float twin never share an entry; a hit returns
    the pair that the same split made, with its bits.  Coefficients in
    ``states`` are never 0, so only a state term can be."""
    j = letter.factor
    alone = None
    for tensor, coeff in states.items():
        if tensor and tensor[0].factor == j:
            pair = key((letter, tensor[0]))
            split = splits.get(pair)
            if split is None:
                split = splits[pair] = _split(j, letter.payload * tensor[0].payload)
            (s, slot), rest = split, tensor[1:]
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
        if slot is not None:
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

    Uses m_n = sum_{s=1}^{n} kappa_s [z^{n-s}] M(z)^s with M(z) = sum m_k z^k.
    Exact over Fractions.
    """
    n = len(moments) - 1
    m = list(moments)
    if m[0] != 1:
        raise ValueError("m_0 must be 1")
    powers = {1: m[:]}

    def mpow(s):
        if s not in powers:
            prev = mpow(s - 1)
            out = [_zero_like(m[0])] * (n + 1)
            for a in range(n + 1):
                acc = _zero_like(m[0])
                for b in range(a + 1):
                    acc = acc + prev[b] * m[a - b]
                out[a] = acc
            powers[s] = out
        return powers[s]

    kappa = [_zero_like(m[0])] * (n + 1)
    for nn in range(1, n + 1):
        acc = m[nn]
        for s in range(1, nn):
            acc = acc - kappa[s] * mpow(s)[nn - s]
        kappa[nn] = acc
    return kappa[1:]


def free_cumulants_to_moments(kappa, n: int):
    """Raw moments m_0..m_n from free cumulants kappa_1..kappa_n."""
    one = _one_like(kappa[0]) if kappa else Fraction(1)
    m = [one] + [_zero_like(one)] * n
    for nn in range(1, n + 1):
        acc = _zero_like(one)
        for s in range(1, nn + 1):
            # [z^{nn-s}] M(z)^s using the moments found so far
            coef = [one] + [_zero_like(one)] * (nn - s)
            for _ in range(s):
                nxt = [_zero_like(one)] * (nn - s + 1)
                for a in range(nn - s + 1):
                    t = _zero_like(one)
                    for b in range(a + 1):
                        t = t + coef[b] * m[a - b]
                    nxt[a] = t
                coef = nxt
            acc = acc + kappa[s - 1] * coef[nn - s]
        m[nn] = acc
    return m


def _zero_like(v):
    return Fraction(0) if isinstance(v, (int, Fraction)) else 0.0


def _one_like(v):
    return Fraction(1) if isinstance(v, (int, Fraction)) else 1.0


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------


def _word_moments(h: FreeElement, r_max: int):
    """[q_0..q_{r_max}] from the normalized h = x*x by multiplying words out;
    exact in rational mode."""
    # q_{2s} = <h^s, h^s> and q_{2s+1} = <h^{s+1}, h^s> (h self-adjoint), so
    # only powers up to ceil(r_max/2) are ever multiplied out.
    powers = {0: FreeElement.one(h.ambient), 1: h}

    def power(s):
        if s not in powers:
            prev = power(s - 1)
            if len(prev.terms) * len(h.terms) > _TERM_CAP:
                raise ResourceCapError(
                    f"moment expansion would exceed {_TERM_CAP} word products; "
                    "lower r_max"
                )
            powers[s] = normalize(prev * h)
        return powers[s]

    def pair(a, b):
        if len(a.terms) * len(b.terms) > _PAIR_CAP:
            raise ResourceCapError(
                f"moment pairing would exceed {_PAIR_CAP} term pairs; lower r_max"
            )
        return l2_inner_free(a, b)

    q = [QC(1)]
    for r in range(1, r_max + 1):
        s = r // 2
        if r % 2 == 0:
            q.append(pair(power(s), power(s)))
        else:
            q.append(pair(power(s + 1), power(s)))
    return q



def _single_letter_moments(x: FreeElement, n: int):
    """Moments of a self-adjoint x = c 1 + sum_j iota_j(y_j) via cumulant
    additivity of free summands."""
    c = x.terms.get((), QC(0))
    # every word has at most one letter
    by_factor: dict[int, AlgebraElement] = accumulate({}, (
        (letter.factor, letter.payload * coeff) for word, coeff in x.terms.items() for letter in word
    ))
    exact = is_exact(c) and all(y.is_exact() for y in by_factor.values())
    c_real = Fraction(c.re) if isinstance(c, QC) else complex(c).real
    if not exact:
        c_real = float(c_real)
    total_kappa = [c_real] + [_zero_like(c_real)] * (n - 1)
    for y in by_factor.values():
        m = _element_moments(y, n, exact)
        kap = moments_to_free_cumulants(m)
        total_kappa = [a + b for a, b in zip(total_kappa, kap)]
    # fold the scalar into kappa_1 (free cumulants of a scalar vanish beyond 1)
    m = free_cumulants_to_moments(total_kappa, n)
    return m


def _element_moments(y: AlgebraElement, n: int, exact: bool):
    """[rho(y^0), ..., rho(y^n)] with real outputs."""
    out = [Fraction(1) if exact else 1.0]
    p = y.owner.identity()
    for _ in range(n):
        p = p * y
        s = state(p)
        if exact:
            out.append(Fraction(s.re))
        else:
            out.append(complex(s).real)
    return out
