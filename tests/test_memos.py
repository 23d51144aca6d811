"""The per-call memos of the two exact oracles against memo-less copies.

``free_state``/``normalize`` (``freeword._decompose_word``) and
``vacuum_expectation`` (``fock._vacuum_of_word``) each keep memos that live
for one call.  The reference recursions below keep none: every letter is
centred and every product is formed afresh wherever it is met, so their
values and bits are what the memos must reproduce.  Inputs mix exact
letters, their float twins (equal and hash-equal), signed-zero twins of
float letters, uncentred letters and unitaries whose products are scalars,
in multi-term elements whose terms share letters.

``l2_inner_free`` pairs each slot pair once per call; its memo-less
reference pairs every slot pair afresh.  The cuts of ``free_state`` (a word
whose centred prefix is longer than the rest never reaches the empty word)
and of ``vacuum_expectation`` (a tensor longer than the letters still to act
never returns to the vacuum) are run on inputs where they fire, and the work
they leave is counted.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    m2_tr, random_alternating_word, random_centered_rational, random_rational_element, two_factor,
)
from freedecay import algebra, fock, freeword
from freedecay.algebra import AlgebraElement, MatrixBlockAlgebra, center, l2_inner, state
from freedecay.fock import vacuum_expectation
from freedecay.freeword import (
    FreeElement, Letter, _letter_keys, _merge_word, _scalar_part, free_state, l2_inner_free, normalize,
)
from freedecay.scalars import QC, QC_ONE, QC_ZERO, accumulate, conj, negligible


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


def _reference_l2_inner_free(x, y):
    """``freeword.l2_inner_free`` with every slot pair paired afresh, in the
    same order: the words of x by pattern bucket, each against the words of
    y of its pattern."""
    buckets = [{}, {}]
    for bucket, z in zip(buckets, (x, y)):
        for w, c in _reference_normalize(z).terms.items():
            bucket.setdefault(tuple(l.factor for l in w), []).append((w, c))
    acc = QC(0)
    for key, terms_x in buckets[0].items():
        for w1, c1 in terms_x:
            for w2, c2 in buckets[1].get(key, ()):
                p = QC(1)
                for l1, l2 in zip(w1, w2):
                    p = p * l2_inner(l1.payload, l2.payload)
                    if not p:
                        break
                if p:
                    acc = acc + c1 * conj(c2) * p
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


# ---------------------------------------------------------------------------
# one pairing per slot pair, and the two cuts, with the same bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_l2_inner_free_keeps_the_bits_of_the_memo_less_pairing(name):
    ambient = AMBIENTS[name]()
    rng = np.random.default_rng(7)
    pool = _letter_pool(ambient, rng)
    for _ in range(12):
        x = _element(ambient, pool, rng, int(rng.integers(2, 5)))
        y = _element(ambient, pool, rng, int(rng.integers(2, 5)))
        for a, b in ((x, y), (y, x), (x, x)):
            assert repr(l2_inner_free(a, b)) == repr(_reference_l2_inner_free(a, b))


def test_l2_inner_free_keeps_the_bits_of_exact_letters_and_their_float_twins():
    for x in _twin_orders():
        y = FreeElement._of(x.ambient, dict(list(x.terms.items())[::-1]))
        for a, b in ((x, x), (x, y), (y, x)):
            assert repr(l2_inner_free(a, b)) == repr(_reference_l2_inner_free(a, b))
    # an exact element, whose keys are its letters, against its words with
    # every other word's letters made float twins, keyed with their kinds
    x = _shared_letter_element()
    y = FreeElement(x.ambient, {
        tuple(Letter(l.factor, _twin(l.payload)) for l in w) if k % 2 else w: c
        for k, (w, c) in enumerate(x.terms.items())
    })
    for a, b in ((x, y), (y, x)):
        assert repr(l2_inner_free(a, b)) == repr(_reference_l2_inner_free(a, b))


def _centred_prefix_word(ambient, pool, rng):
    """An alternating word whose first k letters are centred and whose other
    letters, fewer than k, are drawn from ``pool``."""
    k = int(rng.integers(1, 5))
    j, letters = int(rng.integers(0, 2)), []
    for i in range(k + int(rng.integers(0, k))):
        if i < k:
            centred = [l for l in pool[j] if negligible(state(l.payload))]
            letter = centred[int(rng.integers(0, len(centred)))]
        else:
            letter = pool[j][int(rng.integers(0, len(pool[j])))]
        letters.append(letter)
        j = 1 - j
    return FreeElement.word(ambient, letters)


def _with_centred_letters(pool):
    return [ls + [Letter(l.factor, center(l.payload)) for l in ls] for ls in pool]


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_the_cuts_keep_the_bits_where_they_fire(name, monkeypatch):
    ambient = AMBIENTS[name]()
    rng = np.random.default_rng(11)
    pool = _with_centred_letters(_letter_pool(ambient, rng))
    calls = []
    decompose = freeword._decompose_word
    monkeypatch.setattr(freeword, "_decompose_word", lambda w, memo: calls.append(w) or decompose(w, memo))
    for _ in range(12):
        # every term is cut at once: one decomposition per distinct word
        words = [_centred_prefix_word(ambient, pool, rng) for _ in range(3)]
        x = FreeElement.combination(ambient, [(w, 1 + k) for k, w in enumerate(words)])
        calls.clear()
        got = free_state(x)
        assert len(calls) == len(x.terms)
        assert repr(got) == repr(_reference_free_state(x))
        assert repr(vacuum_expectation(x)) == repr(_reference_vacuum(x))
        assert _term_bits(normalize(x)) == _term_bits(_reference_normalize(x))
        y = _element(ambient, pool, rng, 2) + x
        assert repr(l2_inner_free(x, y)) == repr(_reference_l2_inner_free(x, y))


def _tensor_visits(word, key, room):
    """(tensors handed to ``_letter_on_tensors``, vacuum coefficient) of one
    word, with ``room(i)`` as the room of letter i."""
    states, visits = {(): QC_ONE}, 0
    for i in range(len(word) - 1, -1, -1):
        visits += len(states)
        states = accumulate({}, fock._letter_on_tensors(word[i], states, {}, key, room(i)))
    return visits, states.get((), QC_ZERO)


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_vacuum_cut_drops_tensors_and_keeps_the_bits(name):
    ambient = AMBIENTS[name]()
    rng = np.random.default_rng(12)
    pool = _letter_pool(ambient, rng)
    dropped = 0
    for _ in range(24):
        x = _element(ambient, pool, rng, 1)
        (word,) = x.terms
        if len(word) < 4:
            continue
        key = _letter_keys(x)
        cut, value = _tensor_visits(word, key, lambda i: i)
        whole, whole_value = _tensor_visits(word, key, lambda i: len(word))
        assert repr(value) == repr(whole_value) == repr(_reference_vacuum(FreeElement.word(ambient, word)))
        assert cut <= whole
        dropped += whole - cut
    assert dropped > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_a_centred_prefix_longer_than_the_rest_has_state_zero(seed, length):
    ambient = two_factor(m2_tr(), _c3())
    rng = np.random.default_rng(seed)
    k = length // 2 + 1
    j, letters = int(rng.integers(0, 2)), []
    for i in range(length):
        draw = random_centered_rational if i < k else random_rational_element
        letters.append(Letter(j, draw(ambient.factors[j], rng)))
        j = 1 - j
    x = FreeElement.word(ambient, letters)
    assert free_state(x) == vacuum_expectation(x) == QC(0)


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------


def test_free_state_of_a_fixed_word_makes_a_fixed_number_of_decompositions(monkeypatch):
    ambient = two_factor(m2_tr(), _c3())
    x = random_alternating_word(ambient, 6, np.random.default_rng(5), centered=False)
    calls = []
    decompose = freeword._decompose_word
    monkeypatch.setattr(freeword, "_decompose_word", lambda w, memo: calls.append(w) or decompose(w, memo))
    free_state(x)
    assert len(calls) == 75
    # the whole normal form, which free_state built before it kept () alone
    calls.clear()
    normalize(x)
    assert len(calls) == 101


def test_l2_inner_free_pairs_each_slot_pair_once(monkeypatch):
    x = _shared_letter_element()
    met, reference = [], []
    for module, calls in ((freeword, met), (sys.modules[__name__], reference)):
        monkeypatch.setattr(module, "l2_inner",
                            lambda a, b, calls=calls: calls.append((a, b)) or algebra.l2_inner(a, b))
    got = l2_inner_free(x, x)
    want = _reference_l2_inner_free(x, x)
    assert len(met) == len(set(met)) and set(met) == set(reference)
    assert len(reference) > len(met)
    assert repr(got) == repr(want)


def test_no_tensor_is_longer_than_the_letters_left_to_act(monkeypatch):
    ambient = two_factor(m2_tr(), _c3())
    rng = np.random.default_rng(13)
    pool = _letter_pool(ambient, rng)
    lengths = []
    act = fock._letter_on_tensors

    def checked(letter, states, splits, key, room):
        lengths.append((max(map(len, states)), room + 1))
        return act(letter, states, splits, key, room)

    monkeypatch.setattr(fock, "_letter_on_tensors", checked)
    for _ in range(12):
        vacuum_expectation(_element(ambient, pool, rng, 3))
    vacuum_expectation(_shared_letter_element())
    assert all(n <= left for n, left in lengths)
    assert any(n == left for n, left in lengths if left > 1)
