"""The per-call memos of the two exact oracles against memo-less copies.

``free_state``/``normalize`` (``freeword._decompose_word``) and
``vacuum_expectation`` (``fock._vacuum_of_word``) each keep memos that live
for one call.  The reference recursions below keep none: every letter is
centred and every product is formed afresh wherever it is met, so their
values and bits are what the memos must reproduce.  Inputs mix exact
letters, their float twins (equal and hash-equal), signed-zero twins of
float letters, uncentred letters and unitaries whose products are scalars,
in multi-term elements whose terms share letters.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import m2_tr, random_alternating_word, random_rational_element, two_factor
from freedecay import algebra, fock, freeword
from freedecay.algebra import AlgebraElement, MatrixBlockAlgebra, center, state
from freedecay.fock import vacuum_expectation
from freedecay.freeword import FreeElement, Letter, _merge_word, _scalar_part, free_state, normalize
from freedecay.scalars import QC, QC_ONE, QC_ZERO, accumulate, negligible


# ---------------------------------------------------------------------------
# memo-less reference recursions
# ---------------------------------------------------------------------------


def _reference_decompose(word):
    """``freeword._decompose_word`` without memo."""
    for i, letter in enumerate(word):
        s = state(letter.payload)
        if not negligible(s):
            break
    else:
        return {word: QC_ONE}
    centred = Letter(letter.factor, center(letter.payload))
    result: dict = {}
    if _scalar_part(centred.payload) is None:
        accumulate(result, _reference_decompose(word[:i] + (centred,) + word[i + 1 :]).items())
    c2, reduced = _merge_word(word[:i] + word[i + 1 :])
    factor = s * c2
    if factor:
        accumulate(result, ((w, factor * c) for w, c in _reference_decompose(reduced).items()))
    return result


def _reference_free_state(x):
    acc = QC_ZERO
    for word, coeff in x.terms.items():
        if word:
            coeff = coeff * _reference_decompose(word).get((), QC_ZERO)
        acc = acc + coeff
    return acc


def _reference_normalize(x):
    pairs = ((w, coeff * c) for word, coeff in x.terms.items() for w, c in _reference_decompose(word).items())
    return FreeElement._of(x.ambient, accumulate({}, pairs))


def _reference_split(j, prod):
    s, centred = state(prod), center(prod)
    return s, None if not any(v for b in centred.blocks for row in b for v in row) else Letter(j, centred)


def _reference_vacuum(x):
    """``fock.vacuum_expectation`` with every split made afresh."""
    acc = QC_ZERO
    for word, coeff in x.terms.items():
        states = {(): QC_ONE}
        for letter in reversed(word):
            terms = []
            for tensor, c in states.items():
                if tensor and tensor[0].factor == letter.factor:
                    (s, slot), rest = _reference_split(letter.factor, letter.payload * tensor[0].payload), tensor[1:]
                else:
                    (s, slot), rest = _reference_split(letter.factor, letter.payload), tensor
                cs = c * s
                if cs:
                    terms.append((rest, cs))
                if slot is not None:
                    terms.append(((slot,) + rest, c))
            states = accumulate({}, terms)
        acc = acc + coeff * states.get((), QC_ZERO)
    return acc


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _c3():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])


def _twin(p, entry=complex):
    return AlgebraElement._of(p.owner, tuple(tuple(tuple(entry(v) for v in row) for row in b) for b in p.blocks))


def _flip_zero_signs(v):
    return complex(v.real, -v.imag) if v.imag == 0 else v


def _letter_pool(ambient, rng):
    """Per factor: exact uncentred letters and their float twins, real float
    letters and their signed-zero twins, complex float letters, and, in M2,
    a unitary flip (flip * flip = 1 merges to a scalar)."""
    pool = []
    for j, alg in enumerate(ambient.factors):
        exact = [random_rational_element(alg, rng) for _ in range(3)]
        real = [_twin(p, lambda v: complex(float(rng.integers(-3, 4)) / 2, 0.0)) for p in exact[:2]]
        letters = exact + [_twin(p) for p in exact] + real + [_twin(p, _flip_zero_signs) for p in real]
        letters.append(_twin(exact[0], lambda v: complex(*rng.standard_normal(2))))
        if alg.block_dims == (2,):
            letters.append(alg.element([[[0, 1], [1, 0]]]))
        pool.append([Letter(j, p) for p in letters])
    return pool


def _element(ambient, pool, rng, n_terms):
    """Sum of alternating words drawn from ``pool``, exact and float
    coefficients; terms share letters."""
    pairs = []
    for _ in range(n_terms):
        j = int(rng.integers(0, 2))
        letters = []
        for _ in range(int(rng.integers(1, 6))):
            choices = pool[j]
            letters.append(choices[int(rng.integers(0, len(choices)))])
            j = 1 - j
        coeff = QC(int(rng.integers(-3, 4)) or 1) if rng.integers(0, 2) else complex(rng.standard_normal())
        pairs.append((FreeElement.word(ambient, letters), coeff))
    return FreeElement.combination(ambient, pairs)


def _term_bits(x):
    return [
        (tuple((l.factor, repr(l.payload.blocks)) for l in w), repr(c))
        for w, c in x.terms.items()
    ]


AMBIENTS = {
    "exact densities": lambda: two_factor(m2_tr(), _c3()),
    "float density": lambda: two_factor(m2_tr(), MatrixBlockAlgebra.from_weights([0.25, 0.75])),
}


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_memos_keep_the_bits_of_the_memo_less_recursions(name):
    ambient = AMBIENTS[name]()
    rng = np.random.default_rng(7)
    pool = _letter_pool(ambient, rng)
    for _ in range(12):
        x = _element(ambient, pool, rng, int(rng.integers(2, 5)))
        assert repr(free_state(x)) == repr(_reference_free_state(x))
        assert _term_bits(normalize(x)) == _term_bits(_reference_normalize(x))
        assert repr(vacuum_expectation(x)) == repr(_reference_vacuum(x))


def test_exact_elements_keep_their_values_and_bits():
    ambient = two_factor(m2_tr(), _c3())
    rng = np.random.default_rng(8)
    for _ in range(6):
        x = FreeElement.combination(ambient, [
            (random_alternating_word(ambient, int(rng.integers(1, 6)), rng, centered=False), 1)
            for _ in range(3)
        ])
        value = free_state(x)
        assert type(value) is QC and value == vacuum_expectation(x)
        assert repr(value) == repr(_reference_free_state(x)) == repr(_reference_vacuum(x))
        assert _term_bits(normalize(x)) == _term_bits(_reference_normalize(x))


# ---------------------------------------------------------------------------
# an exact letter and its float twin never share an entry
# ---------------------------------------------------------------------------


def _twin_orders():
    m2, c2 = m2_tr(), MatrixBlockAlgebra.from_weights([Fraction(1, 3), Fraction(2, 3)])
    ambient = two_factor(m2, c2)
    a = m2.element([[[1, 2], [0, Fraction(1, 2)]]])
    a_float = m2.element([[[1.0, 2.0], [0.0, 0.5]]])
    b, c = c2.element([[[5]], [[-1]]]), c2.element([[[7]], [[1]]])
    assert a == a_float and hash(a) == hash(a_float)
    A, A_float, B, C = (FreeElement.letter(ambient, j, p) for j, p in ((0, a), (0, a_float), (1, b), (1, c)))
    return B * A + C * A_float, C * A_float + B * A


def test_an_exact_letter_and_its_float_twin_keep_their_kinds_in_either_term_order():
    for x in _twin_orders():
        assert repr(free_state(x)) == repr(vacuum_expectation(x)) == "(3+0j)"
        assert repr(free_state(x)) == repr(_reference_free_state(x))
        assert _term_bits(normalize(x)) == _term_bits(_reference_normalize(x))
        # the float letter's scalar part 3/4 enters in floats
        assert repr(normalize(x).terms[()]) == "(3+0j)"


# ---------------------------------------------------------------------------
# one centring per letter and one product per pair, per call
# ---------------------------------------------------------------------------


def _shared_letter_element():
    ambient = two_factor(m2_tr(), _c3())
    rng = np.random.default_rng(0)
    pool = [[Letter(j, random_rational_element(alg, rng)) for _ in range(3)] for j, alg in enumerate(ambient.factors)]
    pairs = []
    for k in range(8):
        letters = [pool[(k + i) % 2][int(rng.integers(0, 3))] for i in range(int(rng.integers(3, 7)))]
        pairs.append((FreeElement.word(ambient, letters), 1))
    return FreeElement.combination(ambient, pairs)


def test_free_state_centres_each_letter_and_multiplies_each_pair_once_per_call(monkeypatch):
    x = _shared_letter_element()
    want = _reference_free_state(x)
    centred, products = [], []
    mul = AlgebraElement.__mul__
    for module in (freeword, sys.modules[__name__]):
        monkeypatch.setattr(module, "center", lambda a: centred.append(a) or algebra.center(a))
    monkeypatch.setattr(AlgebraElement, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    got = free_state(x)
    assert (len(centred), len(products)) == (len(set(centred)), len(set(products))) == (24, 18)
    centred.clear(), products.clear()
    _reference_free_state(x)
    assert len(centred) > 24 and len(products) > 18
    monkeypatch.undo()
    assert repr(got) == repr(want)


def test_vacuum_oracle_splits_each_product_once_per_call(monkeypatch):
    x = _shared_letter_element()
    calls = []
    monkeypatch.setattr(fock, "center", lambda a: calls.append(a) or center(a))
    got = vacuum_expectation(x)
    assert len(calls) == len(set(calls))
    monkeypatch.undo()
    assert repr(got) == repr(_reference_vacuum(x)) == repr(_reference_free_state(x))
