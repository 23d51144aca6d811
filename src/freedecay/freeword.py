"""Algebraic free products over finite-dimensional factors.

Elements are finite linear combinations of words whose letters carry a
factor index and a concrete matrix payload.  Words are kept *merged*
(no two adjacent letters from the same factor, no scalar letters).  One
centering recursion, ``_decompose_word``, writes a word as a scalar plus
alternating centered words: ``normalize`` collects every coefficient, and
``free_state`` keeps the empty word alone and cuts the words that provably
never reach it (the argument is in its docstring).  Its memos live for one
call: each word is decomposed, each letter centred and each adjacent pair
multiplied once per call.  Everything is exact whenever payloads and
coefficients are rational.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraElement, AlgebraError, MatrixBlockAlgebra, center, l2_inner, negligible_element, op_norm, state,
)
from .algebra import _scalar_from_json, json_shape
from .scalars import QC, QC_ONE, QC_ZERO, accumulate, as_scalar, conj, is_exact, negligible, to_complex

__all__ = [
    "FreeProductAmbient",
    "Letter",
    "FreeElement",
    "normalize",
    "free_state",
    "l2_inner_free",
    "phi_conjugation",
    "avitzour_phi",
    "avitzour_shape_check",
    "avitzour_residuals",
    "AvitzourConditionError",
    "ShapeReport",
    "random_rational_element",
    "random_centered_rational",
    "random_alternating_word",
]


class AvitzourConditionError(ValueError):
    """An Avitzour condition fails; names the condition and the size of its
    residual."""

    def __init__(self, condition: str, value):
        self.condition = condition
        self.value = value
        super().__init__(f"Avitzour condition '{condition}' fails: residual {value}")


class FreeProductAmbient:
    """Ordered tuple of factor algebras defining an algebraic free product."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))
        if not self.factors:
            raise AlgebraError("free product needs at least one factor")
        object.__setattr__(self, "_hash", hash(tuple(f._key() for f in self.factors)))

    def __setattr__(self, name, value):
        raise AttributeError("FreeProductAmbient is immutable")

    def __reduce__(self):
        return FreeProductAmbient, (self.factors,)

    def __eq__(self, other):
        return isinstance(other, FreeProductAmbient) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FreeProductAmbient({len(self.factors)} factors)"

    def to_json(self):
        return {"factors": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, data):
        factors = json_shape(json_shape(data, dict, "free product JSON", ("factors",))["factors"],
                             list, "'factors'")
        return cls([MatrixBlockAlgebra.from_json(f) for f in factors])


class Letter:
    """A factor-tagged algebra element."""

    __slots__ = ("factor", "payload", "_hash")

    def __init__(self, factor: int, payload: AlgebraElement):
        object.__setattr__(self, "factor", int(factor))
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_hash", hash((self.factor, payload)))

    def __setattr__(self, name, value):
        raise AttributeError("Letter is immutable")

    def __reduce__(self):
        return Letter, (self.factor, self.payload)

    def __eq__(self, other):
        return (
            isinstance(other, Letter)
            and self.factor == other.factor
            and self.payload == other.payload
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Letter({self.factor})"


def _scalar_part(x: AlgebraElement):
    """If x == c*1 return c, else None.

    Read off the blocks: every diagonal entry must equal c = x[0][0][0] and
    every off-diagonal entry must be zero; the first entry that is not
    decides.  No scalar element is built."""
    c = x.blocks[0][0][0]
    for b in x.blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                if v != c if i == j else v:
                    return None
    return c


def _merge_word(letters, memo=None):
    """Multiply out adjacent same-factor letters and absorb scalar letters.

    Returns (coefficient, merged word) where the word has no adjacent
    same-factor letters and no scalar-multiple-of-1 letters; coefficient 0
    means the whole word vanished.  With the centring recursion's per-call
    ``memo``, the product letter of each merged (prev, current) pair is
    made once; without it every product is made afresh.
    """
    coeff = QC_ONE
    stack: list[Letter] = []
    for letter in letters:
        current = letter
        while True:
            s = _scalar_part(current.payload)
            if s is not None:
                coeff = coeff * s
                if not coeff:
                    return QC_ZERO, ()
                current = None
                break
            if stack and stack[-1].factor == current.factor:
                prev = stack.pop()
                if memo is None:
                    current = Letter(current.factor, prev.payload * current.payload)
                else:
                    current = _memo_product(prev, current, memo)
                continue
            break
        if current is not None:
            stack.append(current)
    # a letter is pushed only onto a top of another factor, so the stack
    # alternates and one scan leaves no same-factor neighbours
    return coeff, tuple(stack)


def _memo_product(prev, current, memo):
    """The letter of prev.payload * current.payload, made once per call and
    returned as that same object on every later merge of the pair."""
    letter = memo.products.get((prev, current))
    if letter is None:
        letter = memo.products[prev, current] = Letter(current.factor, prev.payload * current.payload)
    return letter


def _merged_terms(pairs):
    """(merged word, c * merge coefficient) for each (letters, c), skipping
    a zero before it reaches a sum."""
    for letters, c in pairs:
        c2, word = _merge_word(letters)
        c = c * c2
        if c:
            yield word, c


class FreeElement:
    """Finite linear combination of merged words."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: FreeProductAmbient, terms=None):
        object.__setattr__(self, "ambient", ambient)
        owned = []
        for word, coeff in (terms or {}).items():
            coeff = as_scalar(coeff)
            if coeff:
                for letter in word:
                    if letter.payload.owner != ambient.factors[letter.factor]:
                        raise AlgebraError(f"letter in factor {letter.factor} has a foreign payload")
                owned.append((word, coeff))
        object.__setattr__(self, "terms", accumulate({}, _merged_terms(owned)))

    @classmethod
    def _of(cls, ambient: FreeProductAmbient, terms: dict) -> "FreeElement":
        """Element from a term dict that arithmetic built: merged words of
        ``ambient`` to nonzero QC/complex coefficients.  Stored as given,
        without the checks and merging of the public constructor."""
        x = object.__new__(cls)
        object.__setattr__(x, "ambient", ambient)
        object.__setattr__(x, "terms", terms)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("FreeElement is immutable")

    def __reduce__(self):
        return FreeElement._of, (self.ambient, self.terms)

    # -- constructors -----------------------------------------------------
    @classmethod
    def scalar(cls, ambient, value) -> "FreeElement":
        return cls._of(ambient, accumulate({}, [((), as_scalar(value))]))

    @classmethod
    def one(cls, ambient) -> "FreeElement":
        return cls.scalar(ambient, 1)

    @classmethod
    def letter(cls, ambient, factor: int, payload: AlgebraElement) -> "FreeElement":
        return cls(ambient, {(Letter(factor, payload),): QC_ONE})

    @classmethod
    def word(cls, ambient, letters) -> "FreeElement":
        return cls(ambient, {tuple(letters): QC_ONE})

    @classmethod
    def combination(cls, ambient, pairs) -> "FreeElement":
        """sum of e * c over (e, c) pairs in one term dict: the same
        coefficients, bit for bit, as the left-to-right sum of the products,
        without copying the dict at every addition."""
        out: dict = {}
        for e, c in pairs:
            s = as_scalar(c)
            accumulate(out, ((w, v * s) for w, v in e.terms.items()))
        return cls._of(ambient, out)

    # -- algebra ------------------------------------------------------------
    def _check(self, other):
        if self.ambient != other.ambient:
            raise AlgebraError("free elements live in different ambients")

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            other = FreeElement.scalar(self.ambient, other)
        self._check(other)
        return FreeElement._of(self.ambient, accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            other = FreeElement.scalar(self.ambient, other)
        return self + (-other)

    def __neg__(self):
        return FreeElement._of(self.ambient, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            s = as_scalar(other)
            return FreeElement._of(
                self.ambient, accumulate({}, ((w, c * s) for w, c in self.terms.items()))
            )
        self._check(other)
        products = (
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        )
        return FreeElement._of(self.ambient, accumulate({}, _merged_terms(products)))

    def __rmul__(self, other):
        s = as_scalar(other)
        return FreeElement._of(
            self.ambient, accumulate({}, ((w, s * c) for w, c in self.terms.items()))
        )

    def adjoint(self) -> "FreeElement":
        return FreeElement._of(self.ambient, {
            tuple(Letter(l.factor, l.payload.adjoint()) for l in reversed(w)): conj(c)
            for w, c in self.terms.items()
        })

    # -- inspection -----------------------------------------------------------
    def max_word_length(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_exact(self) -> bool:
        """Every coefficient and every letter's state (cached on the payload)
        is a QC: one float entry of a payload or density makes it complex."""
        return all(is_exact(c) for c in self.terms.values()) and all(
            type(state(l.payload)) is QC for word in self.terms for l in word
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def __repr__(self):
        return f"FreeElement({len(self.terms)} terms, max length {self.max_word_length()})"

    # -- JSON -------------------------------------------------------------------
    def to_json(self):
        items = []
        for w, c in sorted(self.terms.items(), key=_word_sort_key):
            items.append(
                {
                    "coeff": _coeff_to_json(c),
                    "word": [
                        {"factor": l.factor, "elem": l.payload.to_json()} for l in w
                    ],
                }
            )
        return {"terms": items}

    @classmethod
    def from_json(cls, ambient: FreeProductAmbient, data) -> "FreeElement":
        terms: dict = {}
        for item in json_shape(json_shape(data, dict, "element JSON", ("terms",))["terms"],
                               list, "'terms'"):
            json_shape(item, dict, "a term", ("coeff", "word"))
            word = tuple(_letter_from_json(ambient, l) for l in json_shape(item["word"], list, "'word'"))
            c = _coeff_from_json(item["coeff"])
            terms[word] = terms.get(word, QC_ZERO) + c
        return cls(ambient, terms)


def _letter_from_json(ambient: FreeProductAmbient, data) -> Letter:
    j = json_shape(data, dict, "a letter", ("factor", "elem"))["factor"]
    if type(j) is not int or not 0 <= j < len(ambient.factors):
        raise AlgebraError(f"factor index {reprlib.repr(j)} is not in 0..{len(ambient.factors) - 1}")
    return Letter(j, AlgebraElement.from_json(ambient.factors[j], data["elem"]))


def _coeff_to_json(c):
    if isinstance(c, QC):
        return [str(c.re), str(c.im)]
    c = complex(c)
    return [c.real, c.imag]


def _coeff_from_json(v):
    if not isinstance(v, list) or len(v) != 2:
        raise AlgebraError(f"a coefficient must be a pair [re, im], got {reprlib.repr(v)}")
    return _scalar_from_json(v)


def _word_sort_key(item):
    word, _ = item
    return (
        len(word),
        tuple(l.factor for l in word),
        tuple(
            (to_complex(v).real, to_complex(v).imag)
            for l in word
            for block in l.payload.blocks
            for row in block
            for v in row
        ),
    )


# ---------------------------------------------------------------------------
# centered alternating normal form
# ---------------------------------------------------------------------------


class _Memo:
    """What one call of the centring recursion has worked out: the
    decomposition of each word, the centred letter of each letter it splits
    (None when that centred part is a scalar) and the product letter of each
    merged pair, keyed by the words and letters themselves.  Equal letters
    have the same kind and float bits, so a hit returns the object that the
    same operation on the same operands made, with the bits of the recursion
    without memo.  Made per call and dropped with it."""

    __slots__ = ("words", "centred", "products", "state_only")

    def __init__(self, state_only=False):
        self.words, self.centred, self.products = {}, {}, {}
        self.state_only = state_only


def _decompose_word(word, memo: _Memo):
    """Decompose a merged word into alternating *centered* words.

    Returns dict {word: coeff}; the empty word carries the scalar part.  The
    word is split at its first letter of non-negligible state s into the
    word with that letter centred and s times the merged word without it.
    ``memo`` serves the words, centred letters and merged products that the
    branches meet again; under ``memo.state_only`` only the empty word is
    kept and a word with 2 i > len(word) gives {} (see ``free_state``).
    """
    result = memo.words.get(word)
    if result is not None:
        return result
    for i, letter in enumerate(word):
        s = state(letter.payload)
        if not negligible(s):
            break
    else:
        i = len(word)
    if i == len(word) or memo.state_only and 2 * i > len(word):
        result = memo.words[word] = {} if memo.state_only and word else {word: QC_ONE}
        return result
    if letter in memo.centred:
        centered_letter = memo.centred[letter]
    else:
        centered_letter = Letter(letter.factor, center(letter.payload))
        if _scalar_part(centered_letter.payload) is not None:
            centered_letter = None
        memo.centred[letter] = centered_letter
    result: dict = {}
    # branch 1: replace the letter by its centered part (may vanish)
    if centered_letter is not None:
        branch = word[:i] + (centered_letter,) + word[i + 1 :]
        accumulate(result, _decompose_word(branch, memo).items())
    # branch 2: scalar part times the word with the letter removed; it adds
    # each word once, so a word it cancels is never added again
    c2, reduced = _merge_word(word[:i] + word[i + 1 :], memo)
    factor = s * c2
    if factor:
        rest = _decompose_word(reduced, memo)
        accumulate(result, ((w, factor * c) for w, c in rest.items()))
    memo.words[word] = result
    return result


def normalize(x: FreeElement) -> FreeElement:
    """Equal element written as c*1 + sum of alternating centered words."""
    memo = _Memo()
    pairs = (
        (w, coeff * c)
        for word, coeff in x.terms.items()
        for w, c in _decompose_word(word, memo).items()
    )
    return FreeElement._of(x.ambient, accumulate({}, pairs))


def is_normalized_word(word) -> bool:
    """Alternating (guaranteed by merging) with every letter centered."""
    return all(negligible(state(letter.payload)) for letter in word)


def free_state(x: FreeElement):
    """The free-product state: the empty-word coefficient of the centered
    alternating normal form, so 1 on the empty word and 0 on every nonempty
    alternating centered word.

    Computed afresh on every call by the recursion of ``normalize``, with
    one state-only ``_Memo`` for every term of x: each result holds at most
    the empty word, and a word split at index i with 2 i > len(word) gives
    {}.  The cut is exact.  Let p count the leading letters of negligible
    state, r = len(word) - p and D = p - r.  D never decreases: branch 1
    keeps p >= i, and in branch 2 each prefix letter that a merge or a
    scalar absorption takes goes with at least one letter of the rest.  The
    empty word has D = 0, so a word with D > 0 never reaches it: the cut
    subtrees add no term to the empty word, whose coefficient gets the
    additions of the full recursion in the same order, bit for bit.
    """
    memo = _Memo(state_only=True)
    acc = QC_ZERO
    for word, coeff in x.terms.items():
        if word:
            coeff = coeff * _decompose_word(word, memo).get((), QC_ZERO)
        acc = acc + coeff
    return acc


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------


def _pair_normalized_words(w1, w2, pairs):
    """<w1, w2> for alternating centered words of one factor pattern: the
    product of the slotwise pairings, each taken from or added to ``pairs``
    under its pair of letters."""
    acc = QC(1)
    for l1, l2 in zip(w1, w2):
        p = pairs.get((l1, l2))
        if p is None:
            p = pairs[l1, l2] = l2_inner(l1.payload, l2.payload)
        acc = acc * p
        if not acc:
            break
    return acc


def l2_inner_free(x: FreeElement, y: FreeElement):
    """<x, y> = free_state(y* x), via normal forms and slotwise pairing.

    Centred alternating words of different factor patterns are orthogonal,
    so only the words of a shared pattern are paired, slot by slot.  One
    path for exact, float and mixed elements: exact inputs give a ``QC``,
    and when no pattern is shared the result is an exact 0.  Each slot pair
    is paired once per call, keyed by its two letters; x is y is normalized
    once.
    """
    if x.ambient != y.ambient:
        raise AlgebraError("free elements live in different ambients")
    bx = _bucket_by_pattern(normalize(x))
    by = bx if y is x else _bucket_by_pattern(normalize(y))
    pairs: dict = {}
    acc = QC(0)
    for key, terms_x in bx.items():
        terms_y = by.get(key, ())
        for w1, c1 in terms_x:
            for w2, c2 in terms_y:
                p = _pair_normalized_words(w1, w2, pairs)
                if p:
                    acc = acc + c1 * conj(c2) * p
    return acc


def _bucket_by_pattern(x: FreeElement):
    buckets: dict = {}
    for w, c in x.terms.items():
        buckets.setdefault(tuple(l.factor for l in w), []).append((w, c))
    return buckets


# ---------------------------------------------------------------------------
# conjugation homomorphisms
# ---------------------------------------------------------------------------


def _unitarity_residual(x: AlgebraElement) -> AlgebraElement:
    return x.adjoint() * x - x.owner.identity()


def avitzour_residuals(u: AlgebraElement, v: AlgebraElement, w: AlgebraElement):
    """(condition, residual) for each Avitzour condition on the triple, in
    check order; every residual is 0 on a triple that passes.

    x*x - 1 for x = u, v, w; rho(u), tau(v), tau(w) and tau(v*w); and
    rho(xy) - rho(yx) for x = u, v and every matrix unit y (x in the
    centralizer).  A residual is an element or a scalar."""
    for name, x in (("u", u), ("v", v), ("w", w)):
        yield f"{name} unitary", _unitarity_residual(x)
    yield "rho(u)", state(u)
    yield "tau(v)", state(v)
    yield "tau(w)", state(w)
    yield "tau(v*w)", state(v.adjoint() * w)
    for name, x in (("u", u), ("v", v)):
        for y in x.owner.basis():
            yield f"{name} centralizer", state(x * y) - state(y * x)


def residual_size(residual) -> float:
    """The operator norm of an element residual, the modulus of a scalar."""
    if isinstance(residual, AlgebraElement):
        return op_norm(residual)
    return abs(complex(residual))


def _require_zero(condition: str, residual):
    """Raise unless the residual counts as zero: exactly 0 on exact data,
    within ``FLOAT_ZERO`` on float data."""
    if isinstance(residual, AlgebraElement):
        zero = negligible_element(residual)
    else:
        zero = negligible(residual)
    if not zero:
        raise AvitzourConditionError(condition, residual_size(residual))


def three_factor_ambient(a1: MatrixBlockAlgebra, a2: MatrixBlockAlgebra) -> FreeProductAmbient:
    """Ambient for A1 * A2 * A1 with the parity convention (factors 0 and 2
    are the same algebra)."""
    return FreeProductAmbient((a1, a2, a1))


def _conjugate_third_factor(x: FreeElement, left, right) -> FreeElement:
    """The homomorphism A1*A2*A1 -> A1*A2 that fixes the first two factors
    and sends a third-factor letter c to L* c L, where ``left`` holds the
    letters of L* and ``right`` those of L.  Each image word is merged once.
    The callers check that x lives in A1*A2*A1 before their own checks."""
    factors = x.ambient.factors
    target = FreeProductAmbient((factors[0], factors[1]))

    def image(word):
        letters: list[Letter] = []
        for letter in word:
            if letter.factor == 2:
                letters.extend(left)
                letters.append(Letter(0, letter.payload))
                letters.extend(right)
            else:
                letters.append(letter)
        return letters

    pairs = ((image(word), coeff) for word, coeff in x.terms.items())
    return FreeElement._of(target, accumulate({}, _merged_terms(pairs)))


def phi_conjugation(v: AlgebraElement, x: FreeElement) -> FreeElement:
    """The homomorphism A1*A2*A1 -> A1*A2 fixing the first two factors and
    sending a third-factor letter c to v* c v (v a unitary of A2)."""
    ambient = x.ambient
    if len(ambient.factors) != 3 or ambient.factors[0] != ambient.factors[2]:
        raise AlgebraError("phi_conjugation expects an A1*A2*A1 ambient")
    if v.owner != ambient.factors[1]:
        raise AlgebraError("conjugating unitary must live in the middle factor")
    _require_zero("v unitary", _unitarity_residual(v))
    return _conjugate_third_factor(x, (Letter(1, v.adjoint()),), (Letter(1, v),))


def conjugation_word_shape(v: AlgebraElement, x: FreeElement):
    """Merged single-word image of a single alternating centered word under
    phi_conjugation; returns (word, length)."""
    if len(x.terms) != 1:
        raise AlgebraError("shape inspection expects a single word")
    img = phi_conjugation(v, x)
    if len(img.terms) != 1:
        raise AlgebraError("conjugation image did not stay a single word")
    (word,) = img.terms.keys()
    return word, len(word)


@functools.lru_cache(maxsize=32)
def check_avitzour_conditions(u: AlgebraElement, v: AlgebraElement, w: AlgebraElement):
    """Raise ``AvitzourConditionError`` on the first condition of
    :func:`avitzour_residuals` whose residual is not zero.

    A triple that passes is remembered, so the maps and shape checks of one
    trial verify it once; a triple that fails raises on every call.  An
    exact element differs from its float twin, so a float triple that passes
    within ``FLOAT_ZERO`` does not pass its exact twin, whose residuals must
    be 0."""
    for condition, residual in avitzour_residuals(u, v, w):
        _require_zero(condition, residual)


def _conjugator_letters(n: int, u, v, w) -> tuple:
    """The letters of x_n = (w u w)(u v)^n in A1*A2."""
    return (Letter(1, w), Letter(0, u), Letter(1, w)) + (Letter(0, u), Letter(1, v)) * n


def avitzour_phi(n: int, u: AlgebraElement, v: AlgebraElement, w: AlgebraElement,
                 x: FreeElement) -> FreeElement:
    """Conjugation map on A1*A2*A1 driven by x_n = (w u w)(u v)^n.

    Fixes the first two factors and sends a third-factor letter c to
    x_n* c x_n.  Requires the unitarity and moment conditions of
    :func:`check_avitzour_conditions`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ambient = x.ambient
    if len(ambient.factors) != 3 or ambient.factors[0] != ambient.factors[2]:
        raise AlgebraError("avitzour_phi expects an A1*A2*A1 ambient")
    if u.owner != ambient.factors[0]:
        raise AlgebraError("u must live in the first factor")
    if v.owner != ambient.factors[1] or w.owner != ambient.factors[1]:
        raise AlgebraError("v, w must live in the second factor")
    check_avitzour_conditions(u, v, w)
    right = _conjugator_letters(n, u, v, w)
    left = tuple(Letter(l.factor, l.payload.adjoint()) for l in reversed(right))
    return _conjugate_third_factor(x, left, right)


# ---------------------------------------------------------------------------
# shape checks for the conjugated words
# ---------------------------------------------------------------------------


@dataclass
class ShapeReport:
    mode: str
    n: int
    ell: int
    ok: bool
    words_checked: int
    offending_word: tuple | None
    reason: str | None


def avitzour_shape_check(n: int, u, v, w, a: FreeElement, mode: str) -> ShapeReport:
    """Expand the guarded products around an alternating centered word a and
    verify the surviving normal-form words.

    mode "i":   (w u w)(u v)^n a            -- words start at w
    mode "ii":  a (v* u*)^n (w* u* w*)      -- words end at w*
    mode "iii": two-sided product           -- both
    Requires n > ell/2 > 0.
    """
    if mode not in ("i", "ii", "iii"):
        raise ValueError(f"unknown mode {mode!r}")
    ambient = a.ambient
    if len(ambient.factors) != 2:
        raise AlgebraError("shape check expects an A1*A2 ambient")
    check_avitzour_conditions(u, v, w)
    ell = a.max_word_length()
    if not (n > ell / 2 and ell > 0):
        raise ValueError(f"need n > ell/2 > 0, got n={n}, ell={ell}")
    for word in a.terms:
        if not is_normalized_word(word):
            raise AlgebraError("input must combine alternating centered words")
    xn = FreeElement.word(ambient, _conjugator_letters(n, u, v, w))
    if mode == "i":
        prod = xn * a
    elif mode == "ii":
        prod = a * xn.adjoint()
    else:
        prod = xn * a * xn.adjoint()
    nf = normalize(prod)
    w_adj = w.adjoint()
    checked = 0
    for word, coeff in nf.terms.items():
        checked += 1
        if len(word) == 0:
            return ShapeReport(mode, n, ell, False, checked, word, "scalar part survived")
        if not is_normalized_word(word):
            return ShapeReport(mode, n, ell, False, checked, word, "word not centered")
        if mode in ("i", "iii"):
            first = word[0]
            if first.factor != 1:
                return ShapeReport(mode, n, ell, False, checked, word,
                                   "leading letter not in the second factor")
            overlap = l2_inner(first.payload, w)
            if negligible(overlap):
                return ShapeReport(mode, n, ell, False, checked, word,
                                   "leading letter orthogonal to w")
        if mode in ("ii", "iii"):
            last = word[-1]
            if last.factor != 1:
                return ShapeReport(mode, n, ell, False, checked, word,
                                   "trailing letter not in the second factor")
            overlap = l2_inner(last.payload, w_adj)
            if negligible(overlap):
                return ShapeReport(mode, n, ell, False, checked, word,
                                   "trailing letter orthogonal to w*")
    return ShapeReport(mode, n, ell, True, checked, None, None)


# ---------------------------------------------------------------------------
# random words
# ---------------------------------------------------------------------------


def random_rational_element(algebra: MatrixBlockAlgebra, rng) -> AlgebraElement:
    """Element with Gaussian-integer entries in [-3, 3] + [-3, 3] i, drawn
    entry by entry, real part first, from the numpy Generator ``rng``."""

    def entry():
        return QC(Fraction(int(rng.integers(-3, 4))), Fraction(int(rng.integers(-3, 4))))

    return AlgebraElement(
        algebra, [[[entry() for _ in range(n)] for _ in range(n)] for n in algebra.block_dims]
    )


def random_centered_rational(algebra: MatrixBlockAlgebra, rng) -> AlgebraElement:
    """The centered part of a random rational element, redrawn while it is 0."""
    for _ in range(100):
        x = center(random_rational_element(algebra, rng))
        if any(v != QC(0) for b in x.blocks for row in b for v in row):
            return x
    raise AlgebraError("could not draw a nonzero centered element")


def random_alternating_word(ambient: FreeProductAmbient, length: int, rng,
                            centered: bool = True) -> FreeElement:
    """Random word with alternating factor pattern and rational payloads:
    each letter draws its factor (uniform among those other than the previous
    letter's), then its payload."""
    draw = random_centered_rational if centered else random_rational_element
    letters = []
    for _ in range(length):
        prev = letters[-1].factor if letters else None
        choices = [j for j in range(len(ambient.factors)) if j != prev]
        j = int(choices[rng.integers(0, len(choices))])
        letters.append(Letter(j, draw(ambient.factors[j], rng)))
    return FreeElement.word(ambient, letters)
