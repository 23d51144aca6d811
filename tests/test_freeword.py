"""Tests for the symbolic free-product engine."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    c3_weighted,
    m2_tr,
    m3_non_diagonal,
    pauli_unitaries,
    random_alternating_word,
    random_centered_rational,
    random_rational_element,
    random_word_element,
    two_factor,
)
from freedecay import freeword
from freedecay.algebra import AlgebraElement, AlgebraError, MatrixBlockAlgebra, center, state
from freedecay.freeword import (
    AvitzourConditionError,
    FreeElement,
    FreeProductAmbient,
    Letter,
    avitzour_phi,
    avitzour_shape_check,
    check_avitzour_conditions,
    _scalar_part,
    conjugation_word_shape,
    free_state,
    l2_inner_free,
    normalize,
    phi_conjugation,
    three_factor_ambient,
)
from freedecay.rdcert import find_avitzour_triple
from freedecay.scalars import QC, agree


def _ambient_m2_c3():
    return two_factor(m2_tr(), c3_weighted())


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def test_same_factor_letters_merge_and_center():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(0)
    a = random_rational_element(amb.factors[0], rng)
    b = random_rational_element(amb.factors[0], rng)
    u = AlgebraElement(amb.factors[1], [[[QC(1)]], [[QC(0, 1)]], [[QC(-1)]]])
    ab = a * b
    want = FreeElement.scalar(amb, state(ab)) + FreeElement.letter(amb, 0, center(ab))
    # a b, and the cascade a u u* b: u u* = 1 drops, then a and b meet
    for middle in ((), (Letter(1, u), Letter(1, u.adjoint()))):
        x = FreeElement.word(amb, (Letter(0, a),) + middle + (Letter(0, b),))
        assert x.terms == {(Letter(0, ab),): QC(1)}
        assert normalize(x) == normalize(want)


def test_alternating_centered_word_is_fixed_by_normalize():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(1)
    x = random_alternating_word(amb, 3, rng, centered=True)
    assert normalize(x) == x


def test_multilinear_centering_expansion_by_hand():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(2)
    a = random_rational_element(amb.factors[0], rng)
    b = random_rational_element(amb.factors[1], rng)
    x = FreeElement.letter(amb, 0, a) * FreeElement.letter(amb, 1, b)
    ra, tb = state(a), state(b)
    ca, cb = center(a), center(b)
    want = (
        FreeElement.scalar(amb, ra * tb)
        + FreeElement.letter(amb, 0, ca) * tb
        + FreeElement.letter(amb, 1, cb) * ra
        + FreeElement.word(amb, (Letter(0, ca), Letter(1, cb)))
    )
    assert normalize(x) == normalize(want)


def test_normalize_is_idempotent_and_linear():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(3)
    x = random_word_element(amb, 4, rng, n_terms=3)
    y = random_word_element(amb, 3, rng, n_terms=2)
    assert normalize(normalize(x)) == normalize(x)
    assert normalize(x + y) == normalize(x) + normalize(y)


def test_normalize_preserves_free_state_and_l2_norm():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = random_word_element(amb, 4, rng, n_terms=2)
        assert free_state(x) == free_state(normalize(x))
        assert l2_inner_free(x, x) == l2_inner_free(normalize(x), normalize(x))


# ---------------------------------------------------------------------------
# free state
# ---------------------------------------------------------------------------


def test_free_state_singleton_factorization():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(5)
    a = random_rational_element(amb.factors[0], rng)
    b = random_rational_element(amb.factors[1], rng)
    x = FreeElement.letter(amb, 0, a) * FreeElement.letter(amb, 1, b)
    assert free_state(x) == state(a) * state(b)


def test_free_state_vanishes_on_alternating_centered_words():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(6)
    for length in (1, 2, 3, 4, 5):
        x = random_alternating_word(amb, length, rng, centered=True)
        assert free_state(x) == QC(0)


def test_free_state_length_four_closed_form():
    # state(a1 b1 a2 b2) = rho(a1 a2) tau(b1) tau(b2) + rho(a1) rho(a2) tau(b1 b2)
    #                      - rho(a1) rho(a2) tau(b1) tau(b2)
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(7)
    for _ in range(10):
        a1, a2 = (random_rational_element(amb.factors[0], rng) for _ in range(2))
        b1, b2 = (random_rational_element(amb.factors[1], rng) for _ in range(2))
        x = (
            FreeElement.letter(amb, 0, a1)
            * FreeElement.letter(amb, 1, b1)
            * FreeElement.letter(amb, 0, a2)
            * FreeElement.letter(amb, 1, b2)
        )
        want = (
            state(a1 * a2) * state(b1) * state(b2)
            + state(a1) * state(a2) * state(b1 * b2)
            - state(a1) * state(a2) * state(b1) * state(b2)
        )
        assert free_state(x) == want


def test_free_state_is_a_state():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(8)
    assert free_state(FreeElement.one(amb)) == QC(1)
    for _ in range(10):
        x = random_word_element(amb, 3, rng, n_terms=2)
        v = free_state(x.adjoint() * x)
        assert v.im == 0 and v.re >= 0


def test_free_state_restricted_to_factors():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(9)
    for j in (0, 1):
        a = random_rational_element(amb.factors[j], rng)
        assert free_state(FreeElement.letter(amb, j, a)) == state(a)


def test_traciality_transfer():
    # both factor states tracial => free state tracial
    amb = two_factor(m2_tr(), MatrixBlockAlgebra_from_uniform(3))
    rng = np.random.default_rng(10)
    for _ in range(8):
        x = random_word_element(amb, 3, rng)
        y = random_word_element(amb, 3, rng)
        assert free_state(x * y) == free_state(y * x)


def MatrixBlockAlgebra_from_uniform(n):
    from freedecay.algebra import MatrixBlockAlgebra

    return MatrixBlockAlgebra.from_weights([Fraction(1, n)] * n)


def _as_float(x):
    """The same element with complex payload entries and coefficients."""
    terms = {}
    for word, c in x.terms.items():
        letters = tuple(
            Letter(l.factor, l.payload.owner.element(
                [[[complex(v) for v in row] for row in b] for b in l.payload.blocks]))
            for l in word
        )
        terms[letters] = complex(c)
    return FreeElement(x.ambient, terms)


def test_l2_inner_free_pairs_only_the_words_of_a_shared_pattern(monkeypatch):
    amb = _ambient_m2_c3()

    def letters(j, payloads):
        return FreeElement(amb, {(Letter(j, amb.factors[j].element(b)),): QC(1) for b in payloads})

    # 501 * 500 term pairs; only the 501 pairs of the factor-0 bucket are formed
    x = letters(0, [[[[0, k], [0, 0]]] for k in range(1, 502)])
    y0 = letters(0, [[[[0, 1], [0, 0]]]])
    y = y0 + letters(1, [[[[k]], [[-3 * k]], [[0]]] for k in range(1, 500)])
    pairs = []
    pair = freeword._pair_normalized_words
    monkeypatch.setattr(freeword, "_pair_normalized_words", lambda w1, w2, *memo: pairs.append(w1) or pair(w1, w2, *memo))
    inner = l2_inner_free(x, y)
    assert len(pairs) == 501
    assert isinstance(inner, QC) and inner == l2_inner_free(x, y0)
    assert l2_inner_free(x, letters(1, [[[[1]], [[-3]], [[0]]]])) == QC(0)


@pytest.mark.parametrize("second", [c3_weighted, m3_non_diagonal], ids=["diagonal", "non-diagonal-m3"])
def test_float_twins_pair_like_their_exact_elements(second):
    # one slotwise pairing for every input: float and mixed pairs agree with
    # the exact value within the Cauchy-Schwarz scale ||x||_2 ||y||_2
    amb = two_factor(m2_tr(), second())
    rng = np.random.default_rng(31)
    for _ in range(6):
        x = random_word_element(amb, 3, rng, n_terms=3)
        y = random_word_element(amb, 3, rng, n_terms=3)
        exact = l2_inner_free(x, y)
        assert isinstance(exact, QC)
        scale = math.sqrt(float(l2_inner_free(x, x).re * l2_inner_free(y, y).re))
        for a, b in ((_as_float(x), _as_float(y)), (_as_float(x), y), (x, _as_float(y))):
            assert agree(l2_inner_free(a, b), exact, scale)


# ---------------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------------


def test_adjoint_reverses_and_stars():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(11)
    x = random_word_element(amb, 3, rng, n_terms=2)
    y = random_word_element(amb, 3, rng, n_terms=2)
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert x.adjoint().adjoint() == x


def test_l2_inner_free_unit():
    amb = _ambient_m2_c3()
    one = FreeElement.one(amb)
    assert l2_inner_free(one, one) == QC(1)


def test_l2_inner_free_matches_free_state_definition():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(12)
    for _ in range(8):
        x = random_word_element(amb, 3, rng, n_terms=2)
        y = random_word_element(amb, 3, rng, n_terms=2)
        assert l2_inner_free(x, y) == free_state(y.adjoint() * x)


def test_onb_letter_words_are_orthonormal():
    from freedecay.algebra import onb_complement

    amb = _ambient_m2_c3()
    onb0 = onb_complement(amb.factors[0])
    onb1 = onb_complement(amb.factors[1])
    words = []
    for a in onb0[:2]:
        for b in onb1[:2]:
            words.append(FreeElement.word(amb, (Letter(0, a), Letter(1, b))))
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            want = 1.0 if i == j else 0.0
            assert abs(complex(l2_inner_free(x, y)) - want) < 1e-10


def test_ambient_mismatch_rejected():
    amb1 = _ambient_m2_c3()
    amb2 = two_factor(m2_tr(), m2_tr())
    with pytest.raises(AlgebraError):
        FreeElement.one(amb1) * FreeElement.one(amb2)


def test_json_round_trip():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(13)
    x = random_word_element(amb, 3, rng, n_terms=3)
    again = FreeElement.from_json(amb, x.to_json())
    assert again == x
    amb2 = FreeProductAmbient.from_json(amb.to_json())
    assert amb2 == amb


# ---------------------------------------------------------------------------
# conjugation map combinatorics
# ---------------------------------------------------------------------------


def test_phi_identity_on_first_two_factors():
    alg1, alg2 = m2_tr(), c3_weighted()
    amb3 = three_factor_ambient(alg1, alg2)
    rng = np.random.default_rng(14)
    v = alg2.element([[[1]], [[-1]], [[1]]])  # unitary diag, rational
    # a word using only factors 0 and 1
    x = FreeElement.word(
        amb3,
        (
            Letter(0, random_centered_rational(alg1, rng)),
            Letter(1, random_centered_rational(alg2, rng)),
        ),
    )
    img = phi_conjugation(v, x)
    assert img == FreeElement.from_json(img.ambient, x.to_json())


def test_phi_single_third_factor_letter_is_three_letter_word():
    alg1, alg2 = m2_tr(), c3_weighted()
    amb3 = three_factor_ambient(alg1, alg2)
    rng = np.random.default_rng(15)
    c = random_centered_rational(alg1, rng)
    v = alg2.element([[[1]], [[-1]], [[1]]])
    x = FreeElement.letter(amb3, 2, c)
    word, p = conjugation_word_shape(v, x)
    assert p == 3
    assert [l.factor for l in word] == [1, 0, 1]
    assert word[0].payload == v.adjoint()
    assert word[1].payload == c
    assert word[2].payload == v


def test_phi_multiplicative():
    alg1, alg2 = m2_tr(), c3_weighted()
    amb3 = three_factor_ambient(alg1, alg2)
    rng = np.random.default_rng(16)
    v = alg2.element([[[-1]], [[1]], [[-1]]])
    for _ in range(5):
        x = random_word_element(amb3, 3, rng)
        y = random_word_element(amb3, 3, rng)
        assert normalize(phi_conjugation(v, x * y)) == normalize(
            phi_conjugation(v, x) * phi_conjugation(v, y)
        )


def test_phi_length_bound_and_v_independence():
    alg1, alg2 = m2_tr(), c3_weighted()
    amb3 = three_factor_ambient(alg1, alg2)
    rng = np.random.default_rng(17)
    unitaries = [
        alg2.element([[[1]], [[-1]], [[1]]]),
        alg2.element([[[-1]], [[1]], [[1]]]),
        alg2.element([[[1]], [[1]], [[-1]]]),
    ]
    for _ in range(200):
        ell = int(rng.integers(1, 6))
        x = random_alternating_word(amb3, ell, rng, centered=True)
        lengths = set()
        for v in unitaries:
            _, p = conjugation_word_shape(v, x)
            assert p <= 3 * ell + 2
            lengths.add(p)
        assert len(lengths) == 1


def test_phi_letters_live_in_expected_sets():
    alg1, alg2 = m2_tr(), c3_weighted()
    amb3 = three_factor_ambient(alg1, alg2)
    rng = np.random.default_rng(18)
    v = alg2.element([[[1]], [[-1]], [[-1]]])
    v_adj = v.adjoint()
    for _ in range(40):
        ell = int(rng.integers(1, 5))
        x = random_alternating_word(amb3, ell, rng, centered=True)
        (in_word,) = x.terms.keys()
        upsilon1 = {l.payload for l in in_word if l.factor in (0, 2)}
        upsilon2 = {l.payload for l in in_word if l.factor == 1}
        u2_or_1 = upsilon2 | {alg2.identity()}
        tilde2 = (
            {y * v for y in u2_or_1}
            | {v_adj * y for y in u2_or_1}
            | {v_adj * y * v for y in upsilon2}
            | upsilon2
        )
        word, p = conjugation_word_shape(v, x)
        factors = [l.factor for l in word]
        assert all(f1 != f2 for f1, f2 in zip(factors, factors[1:]))
        for l in word:
            if l.factor == 0:
                assert l.payload in upsilon1
            else:
                assert l.payload in tilde2


# ---------------------------------------------------------------------------
# conjugation by x_n = (w u w)(u v)^n
# ---------------------------------------------------------------------------


def _m2_pair_setup():
    alg = m2_tr()
    u, v, w = pauli_unitaries(alg)
    amb3 = three_factor_ambient(alg, alg)
    return alg, u, v, w, amb3


def test_avitzour_conditions_pass_for_pauli_unitaries():
    alg, u, v, w, _ = _m2_pair_setup()
    check_avitzour_conditions(u, v, w)


def test_avitzour_condition_error_names_failing_moment():
    alg = m2_tr()
    u, v, _ = pauli_unitaries(alg)
    with pytest.raises(AvitzourConditionError) as exc:
        check_avitzour_conditions(u, v, alg.identity())
    assert "tau(w)" in str(exc.value)


def test_failing_avitzour_triple_raises_on_every_call():
    alg, u, _, w, _ = _m2_pair_setup()
    v = alg.element([[[0, 2], [2, 0]]])  # tau(v) = 0, but v*v = 4
    for _ in range(2):
        with pytest.raises(AvitzourConditionError) as exc:
            check_avitzour_conditions(u, v, w)
        assert "v unitary" in str(exc.value)


def test_exact_triple_is_not_passed_by_its_float_twin():
    # an exact triple hashes like the float triple with the same values but
    # differs from it; the float one passes within tolerance, the exact one
    # must still fail
    alg, u, _, w, _ = _m2_pair_setup()
    eps = 2.0 ** -45
    v_float = alg.element([[[complex(1 + eps), 0], [0, complex(-1)]]])
    v_exact = alg.element([[[Fraction(1 + eps), 0], [0, -1]]])
    assert v_float != v_exact and hash(v_float) == hash(v_exact)
    check_avitzour_conditions(u, v_float, w)
    with pytest.raises(AvitzourConditionError):
        check_avitzour_conditions(u, v_exact, w)


def test_avitzour_phi_is_unital():
    alg, u, v, w, amb3 = _m2_pair_setup()
    assert avitzour_phi(2, u, v, w, FreeElement.one(amb3)) == FreeElement.one(
        FreeProductAmbient((alg, alg))
    )


def test_avitzour_trace_identity_single_letter():
    alg, u, v, w, amb3 = _m2_pair_setup()
    rng = np.random.default_rng(19)
    c = random_centered_rational(alg, rng)
    x = FreeElement.letter(amb3, 2, c)
    img = avitzour_phi(1, u, v, w, x)
    assert free_state(img) == QC(0)
    assert free_state(x) == QC(0)


def test_avitzour_trace_identity_random_words():
    alg, u, v, w, amb3 = _m2_pair_setup()
    rng = np.random.default_rng(20)
    for _ in range(25):
        ell = int(rng.integers(1, 5))
        x = random_alternating_word(amb3, ell, rng, centered=True)
        n = ell // 2 + 1  # the smallest n with n > ell/2
        img = avitzour_phi(n, u, v, w, x)
        assert free_state(img) == free_state(x) == QC(0)


def test_avitzour_l2_isometry_exact():
    alg, u, v, w, amb3 = _m2_pair_setup()
    rng = np.random.default_rng(21)
    for _ in range(15):
        ell = int(rng.integers(1, 3))
        x = random_word_element(amb3, ell, rng, n_terms=2, centered=True)
        n = x.max_word_length() + 1
        img = avitzour_phi(n, u, v, w, x)
        assert l2_inner_free(img, img) == l2_inner_free(x, x)


def _letterwise_image(x, target, third):
    """The defining formula of a map that fixes the first two factors:
    sum of c * (product of the letter images), multiplied out letter by
    letter as free elements; ``third`` sends the letter c of the first
    factor to the image of the third-factor letter c."""
    out = FreeElement(target)
    for word, coeff in x.terms.items():
        piece = FreeElement.scalar(target, coeff)
        for letter in word:
            if letter.factor == 2:
                piece = piece * third(FreeElement.letter(target, 0, letter.payload))
            else:
                piece = piece * FreeElement.letter(target, letter.factor, letter.payload)
        out = out + piece
    return out


def _conjugation_triples():
    alg = m2_tr()
    c3 = MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)
    c5 = MatrixBlockAlgebra.from_weights([Fraction(1, 5)] * 5)
    found = find_avitzour_triple(c3, c5, seed=0)
    assert not found.v.is_exact()
    return [(alg, alg, *pauli_unitaries(alg)), (c3, c5, found.u, found.v, found.w)]


def test_conjugation_maps_match_their_letterwise_definition():
    # each image word is merged once; the terms keep the bits of v* c v and
    # x_n* c x_n multiplied out letter by letter
    rng = np.random.default_rng(26)
    for a1, a2, u, v, w in _conjugation_triples():
        amb3 = three_factor_ambient(a1, a2)
        target = FreeProductAmbient((a1, a2))
        lv = FreeElement.letter(target, 1, v)
        for _ in range(4):
            x = random_word_element(amb3, 4, rng, n_terms=3) + QC(2, -1)
            want = _letterwise_image(x, target, lambda c: lv.adjoint() * c * lv)
            assert phi_conjugation(v, x).terms == want.terms
            for n in (1, 2, 3):
                xn = FreeElement.word(target, [Letter(1, w), Letter(0, u), Letter(1, w)]
                                      + [Letter(0, u), Letter(1, v)] * n)
                want = _letterwise_image(x, target, lambda c: xn.adjoint() * c * xn)
                assert avitzour_phi(n, u, v, w, x).terms == want.terms


# ---------------------------------------------------------------------------
# shape checks (guarded products)
# ---------------------------------------------------------------------------


def test_shape_check_mode_i_single_letter():
    alg, u, v, w, _ = _m2_pair_setup()
    amb2 = FreeProductAmbient((alg, alg))
    rng = np.random.default_rng(22)
    c = random_centered_rational(alg, rng)
    a = FreeElement.letter(amb2, 1, c)
    report = avitzour_shape_check(1, u, v, w, a, "i")
    assert report.ok, report.reason


def test_shape_check_mode_iii_two_sided():
    alg, u, v, w, _ = _m2_pair_setup()
    amb2 = FreeProductAmbient((alg, alg))
    rng = np.random.default_rng(23)
    a = random_alternating_word(amb2, 2, rng, centered=True)
    report = avitzour_shape_check(2, u, v, w, a, "iii")
    assert report.ok, report.reason


def test_shape_check_guard():
    alg, u, v, w, _ = _m2_pair_setup()
    amb2 = FreeProductAmbient((alg, alg))
    rng = np.random.default_rng(24)
    a = random_alternating_word(amb2, 3, rng, centered=True)
    with pytest.raises(ValueError):
        avitzour_shape_check(1, u, v, w, a, "i")


def test_shape_check_all_modes_random():
    alg, u, v, w, _ = _m2_pair_setup()
    amb2 = FreeProductAmbient((alg, alg))
    rng = np.random.default_rng(25)
    for _ in range(10):
        ell = int(rng.integers(1, 4))
        a = random_alternating_word(amb2, ell, rng, centered=True)
        n = ell // 2 + 1
        for mode in ("i", "ii", "iii"):
            report = avitzour_shape_check(n, u, v, w, a, mode)
            assert report.ok, (mode, report.reason)


# ---------------------------------------------------------------------------
# _scalar_part against comparing with the scalar element
# ---------------------------------------------------------------------------


def _reference_scalar_part(x):
    c = x.blocks[0][0][0]
    return c if x.blocks == x.owner.scalar(c).blocks else None


_SCALAR_ALGEBRAS = [
    m2_tr,
    c3_weighted,
    lambda: MatrixBlockAlgebra.matrix_with_state([0.75, 0.25]),
    lambda: MatrixBlockAlgebra([[[Fraction(1, 3), 0], [0, Fraction(1, 3)]], [[Fraction(1, 3)]]]),
]
_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_entries = st.one_of(
    st.builds(QC, _small, _small),
    st.builds(complex, st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324]),
              st.sampled_from([0.0, -0.0, 0.5, 1e-300])),
)


@st.composite
def _near_scalar_elements(draw):
    """c*1 (zeros off the diagonal possibly float, possibly signed), then at
    most two entries replaced by a random or a tiny value."""
    algebra = draw(st.sampled_from(_SCALAR_ALGEBRAS))()
    c = draw(_entries)
    zero = draw(st.sampled_from([QC(0), 0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))
    blocks = [[[c if i == j else zero for j in range(n)] for i in range(n)]
              for n in algebra.block_dims]
    for _ in range(draw(st.integers(0, 2))):
        b = draw(st.integers(0, len(blocks) - 1))
        n = len(blocks[b])
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        blocks[b][i][j] = draw(_entries)
    return AlgebraElement(algebra, blocks)


@settings(max_examples=200, deadline=None)
@given(_near_scalar_elements())
def test_scalar_part_matches_comparing_with_the_scalar_element(x):
    got, want = _scalar_part(x), _reference_scalar_part(x)
    assert (type(got), repr(got)) == (type(want), repr(want))


def test_scalar_part_rejects_a_tiny_off_diagonal_float():
    alg = m2_tr()
    for tiny in (1e-300, 5e-324, complex(0.0, -1e-300)):
        x = AlgebraElement(alg, [[[1.5, tiny], [0.0, 1.5]]])
        assert _scalar_part(x) is None
        assert _reference_scalar_part(x) is None
    x = AlgebraElement(alg, [[[1.5, -0.0], [complex(0.0, -0.0), 1.5]]])
    assert _scalar_part(x) == _reference_scalar_part(x) == 1.5


def _exact_word():
    amb = _ambient_m2_c3()
    return random_word_element(amb, 3, np.random.default_rng(7), n_terms=3, centered=True)


@pytest.mark.parametrize("make", [
    lambda: QC(Fraction(-2, 3), Fraction(5, 7)),
    lambda: m2_tr().element([[[QC(1, 2), 1], [0, Fraction(1, 3)]]]),
    lambda: m2_tr().element([[[0.5j, 1], [0, 2.0]]]),
    lambda: _ambient_m2_c3(),
    lambda: Letter(1, c3_weighted().element([[[1]], [[QC(0, 1)]], [[-1]]])),
    _exact_word,
    lambda: _exact_word() * 0.25j,
], ids=["QC", "AlgebraElement", "float-AlgebraElement", "FreeProductAmbient", "Letter",
        "FreeElement", "float-FreeElement"])
def test_exact_values_survive_pickle_and_deepcopy(make):
    x = make()
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)


# ---------------------------------------------------------------------------
# term dicts: structural zeros and the two constructors
# ---------------------------------------------------------------------------


def test_zero_results_have_no_terms():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(11)
    x = random_word_element(amb, 3, rng, n_terms=3)
    y = x * 1.5
    assert x.terms and y.terms
    for zero in (x * 0, 0.0 * x, x - x, y - y, y * 0.0, FreeElement.scalar(amb, 0),
                 FreeElement.scalar(amb, 0.0)):
        assert zero.terms == {}
        assert zero == FreeElement(amb)


def test_public_constructor_rejects_a_foreign_payload():
    amb = _ambient_m2_c3()
    c3_letter = Letter(0, AlgebraElement(amb.factors[1], [[[QC(1)]], [[QC(0)]], [[QC(0)]]]))
    with pytest.raises(AlgebraError, match="foreign payload"):
        FreeElement(amb, {(c3_letter,): QC(1)})
    # a zero coefficient is dropped before its word is read
    assert FreeElement(amb, {(c3_letter,): 0}).terms == {}


def test_public_constructor_rejects_a_payload_of_the_float_twin_factor():
    # the float twin of an exact factor has equal densities but another
    # kind, so it is another algebra, and its elements' states are floats
    amb = _ambient_m2_c3()
    twin = MatrixBlockAlgebra([[[0.5, 0.0], [0.0, 0.5]]])
    assert twin != amb.factors[0] and hash(twin) == hash(amb.factors[0])
    p = twin.element([[[1, 2], [0, 3]]])
    for make in (lambda: FreeElement(amb, {(Letter(0, p),): QC(1)}),
                 lambda: FreeElement.letter(amb, 0, p)):
        with pytest.raises(AlgebraError, match="foreign payload"):
            make()


def test_public_constructor_merges_and_sums_its_words():
    amb = _ambient_m2_c3()
    rng = np.random.default_rng(12)
    a = random_centered_rational(amb.factors[0], rng)
    b = random_centered_rational(amb.factors[0], rng)
    merged = (Letter(0, a * b),)
    x = FreeElement(amb, {(Letter(0, a), Letter(0, b)): QC(2), merged: QC(-1)})
    assert x.terms == {merged: QC(1)}
    assert FreeElement(amb, {(Letter(0, a), Letter(0, b)): 1, merged: -1}).terms == {}
