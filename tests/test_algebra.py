"""Tests for finite-dimensional C*-probability spaces."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedecay import algebra as _algebra_module
from freedecay.algebra import (
    AlgebraElement,
    AlgebraError,
    MatrixBlockAlgebra,
    center,
    dn_norm,
    gram_schmidt,
    l2_inner,
    l2_norm,
    onb_complement,
    op_norm,
    state,
)
from freedecay.scalars import QC


def m2_tr():
    return MatrixBlockAlgebra.matrix_with_trace(2)


def c2_half():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 2)])


def c3_weighted():
    return MatrixBlockAlgebra.from_weights([Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)])


def abelian_element(algebra, values):
    return AlgebraElement(algebra, [[[v]] for v in values])


rational = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def random_rational_element(algebra, rng):
    blocks = []
    for n in algebra.block_dims:
        blocks.append(
            [
                [QC(Fraction(rng.integers(-4, 5)), Fraction(rng.integers(-4, 5))) for _ in range(n)]
                for _ in range(n)
            ]
        )
    return AlgebraElement(algebra, blocks)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(AlgebraError):
        MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 3)])


def test_state_must_be_faithful():
    with pytest.raises(AlgebraError):
        MatrixBlockAlgebra.from_weights([1, 0])
    with pytest.raises(AlgebraError):
        MatrixBlockAlgebra([[[QC(1), QC(1)], [QC(1), QC(0)]]])


def test_density_must_be_hermitian():
    with pytest.raises(AlgebraError):
        MatrixBlockAlgebra([[[QC(Fraction(1, 2)), QC(1)], [QC(0), QC(Fraction(1, 2))]]])


def test_block_shape_mismatch():
    alg = m2_tr()
    with pytest.raises(AlgebraError):
        AlgebraElement(alg, [[[QC(1)]]])


def test_owner_mismatch_rejected():
    x = c2_half().identity()
    y = c3_weighted().identity()
    with pytest.raises(AlgebraError):
        l2_inner(x, y)


def test_json_round_trip():
    for alg in (m2_tr(), c3_weighted()):
        again = MatrixBlockAlgebra.from_json(alg.to_json())
        assert again == alg
    x = random_rational_element(m2_tr(), np.random.default_rng(0))
    y = AlgebraElement.from_json(m2_tr(), x.to_json())
    assert y == x


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


def test_state_of_identity_is_one():
    for alg in (m2_tr(), c2_half(), c3_weighted()):
        assert state(alg.identity()) == QC(1)


def test_state_of_offdiagonal_permutation_is_zero():
    alg = m2_tr()
    x = AlgebraElement(alg, [[[0, 1], [1, 0]]])
    assert state(x) == QC(0)


def test_state_weighted_atom():
    alg = c3_weighted()
    x = abelian_element(alg, [1, 0, 0])
    assert state(x) == QC(Fraction(3, 5))


def test_state_is_linear_and_positive():
    rng = np.random.default_rng(1)
    alg = m2_tr()
    for _ in range(25):
        x = random_rational_element(alg, rng)
        y = random_rational_element(alg, rng)
        assert state(x + y) == state(x) + state(y)
        v = state(x.adjoint() * x)
        assert v.im == 0 and v.re >= 0


# ---------------------------------------------------------------------------
# l2 inner product
# ---------------------------------------------------------------------------


def test_l2_inner_of_identity():
    assert l2_inner(c2_half().identity(), c2_half().identity()) == QC(1)


def test_l2_inner_plus_minus_vector():
    alg = c2_half()
    v = abelian_element(alg, [1, -1])
    assert l2_inner(v, v) == QC(1)


def test_l2_inner_conjugate_symmetry():
    rng = np.random.default_rng(2)
    alg = c3_weighted()
    for _ in range(25):
        x = random_rational_element(alg, rng)
        y = random_rational_element(alg, rng)
        assert l2_inner(x, y) == l2_inner(y, x).conjugate()


@settings(max_examples=40, deadline=None)
@given(st.lists(rational, min_size=2, max_size=2), st.lists(rational, min_size=2, max_size=2))
def test_cauchy_schwarz(xs, ys):
    alg = c2_half()
    x = abelian_element(alg, xs)
    y = abelian_element(alg, ys)
    lhs = abs(complex(l2_inner(x, y)))
    assert lhs <= l2_norm(x) * l2_norm(y) + 1e-9


# ---------------------------------------------------------------------------
# operator norm
# ---------------------------------------------------------------------------


def test_op_norm_identity_and_sign_vector():
    assert op_norm(m2_tr().identity()) == pytest.approx(1.0)
    assert op_norm(abelian_element(c2_half(), [1, -1])) == pytest.approx(1.0)


def test_op_norm_nilpotent():
    alg = m2_tr()
    x = AlgebraElement(alg, [[[0, 2], [0, 0]]])
    assert op_norm(x) == pytest.approx(2.0)


def test_c_star_identity_and_norm_comparison():
    rng = np.random.default_rng(3)
    for alg in (m2_tr(), c3_weighted()):
        for _ in range(20):
            x = random_rational_element(alg, rng)
            assert op_norm(x.adjoint() * x) == pytest.approx(op_norm(x) ** 2, abs=1e-9)
            assert l2_norm(x) <= op_norm(x) + 1e-12


# ---------------------------------------------------------------------------
# centering and the complement basis
# ---------------------------------------------------------------------------


def test_center_of_identity_is_zero():
    alg = c3_weighted()
    z = center(alg.identity())
    assert z == alg.zero()


def test_center_has_state_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = random_rational_element(m2_tr(), rng)
        assert state(center(x)) == QC(0)


def test_onb_complement_dimension_and_orthonormality():
    alg = m2_tr()
    basis = onb_complement(alg)
    assert len(basis) == 3
    for i, x in enumerate(basis):
        assert abs(complex(state(x))) < 1e-12
        for j, y in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(complex(l2_inner(x, y)) - want) < 1e-10


def test_onb_complement_of_c2_is_sign_vector():
    alg = c2_half()
    basis = onb_complement(alg)
    assert len(basis) == 1
    assert basis[0] == abelian_element(alg, [1, -1])


def test_gram_schmidt_drops_dependent_vectors():
    alg = c3_weighted()
    e = alg.identity()
    basis = gram_schmidt([e, e * QC(2), abelian_element(alg, [1, 0, 0])])
    assert len(basis) == 2


# ---------------------------------------------------------------------------
# dn_norm
# ---------------------------------------------------------------------------


def test_dn_norm_identity_only():
    for alg in (m2_tr(), c3_weighted()):
        assert dn_norm([alg.identity()]) == pytest.approx(1.0)


def test_dn_norm_c2():
    alg = c2_half()
    vecs = [alg.identity(), abelian_element(alg, [1, -1])]
    assert dn_norm(vecs) == pytest.approx(math.sqrt(2.0))


def test_dn_norm_c3_full_onb():
    alg = c3_weighted()
    vecs = [alg.identity()] + onb_complement(alg)
    assert dn_norm(vecs) == pytest.approx(math.sqrt(5.0), abs=1e-10)


def test_dn_norm_empty():
    assert dn_norm([]) == 0.0


def _sampled_sup_ratio(vectors, n_samples=600, seed=0, n_restarts=4):
    """Brute-force sup of op_norm/l2_norm over the span: dense sphere samples
    plus local maximization from the best starting points."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    k = len(vectors)
    owner = vectors[0].owner

    def ratio(c):
        c = np.asarray(c[:k]) + 1j * np.asarray(c[k:])
        nc = np.linalg.norm(c)
        if nc < 1e-12:
            return 0.0
        x = owner.zero()
        for ci, v in zip(c / nc, vectors):
            x = x + v * complex(ci)
        n2 = l2_norm(x)
        return op_norm(x) / n2 if n2 > 1e-9 else 0.0

    starts = []
    for _ in range(n_samples):
        c = rng.standard_normal(2 * k)
        starts.append((ratio(c), c))
    starts.sort(key=lambda t: -t[0])
    best = starts[0][0]
    for val, c in starts[:n_restarts]:
        res = minimize(lambda c: -ratio(c), c, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = max(best, -res.fun)
    return best


def test_dn_norm_equals_brute_force_sup_abelian():
    # On abelian algebras of dimension <= 6 the certificate constant is the
    # exact sup of op_norm/l2_norm over the subspace.
    for weights in ([Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)],
                    [Fraction(1, 6)] * 6):
        alg = MatrixBlockAlgebra.from_weights(weights)
        vecs = [alg.identity()] + onb_complement(alg)
        sampled = _sampled_sup_ratio(vecs, n_samples=600, seed=1)
        assert dn_norm(vecs) == pytest.approx(sampled, abs=1e-3)


def test_dn_norm_dominates_sampled_sup_matrix_block():
    # For noncommutative blocks the constant is still a certified upper bound.
    alg = m2_tr()
    vecs = [alg.identity()] + onb_complement(alg)
    sampled = _sampled_sup_ratio(vecs, n_samples=400, seed=2)
    assert dn_norm(vecs) >= sampled - 1e-9
    # the 3-dim complement of (M2, tr) alone
    assert dn_norm(onb_complement(alg)) == pytest.approx(math.sqrt(3.0), abs=1e-9)


# ---------------------------------------------------------------------------
# fast paths against the reference formulas, bit for bit
# ---------------------------------------------------------------------------


def _m2_with_state():
    return MatrixBlockAlgebra.matrix_with_state([Fraction(2, 3), Fraction(1, 3)])


def _m3_with_state():
    return MatrixBlockAlgebra.matrix_with_state([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])


def _m2_float_state():
    return MatrixBlockAlgebra.matrix_with_state([0.75, 0.25])


def _m2_plus_c():
    third = Fraction(1, 3)
    return MatrixBlockAlgebra([[[third, 0], [0, third]], [[third]]])


def _m2_plus_non_diagonal_m2():
    q, e = Fraction(1, 4), Fraction(1, 8)
    return MatrixBlockAlgebra([[[q, 0], [0, q]], [[q, e], [e, q]]])


def _m3_non_diagonal():
    a, b = Fraction(1, 3), Fraction(1, 6)
    return MatrixBlockAlgebra([[[a, b, 0], [b, a, 0], [0, 0, a]]])


_ALGEBRAS = [m2_tr, c3_weighted, _m2_with_state, _m3_with_state, _m2_float_state,
             _m2_plus_c, _m2_plus_non_diagonal_m2, _m3_non_diagonal]

_exact_entry = st.builds(QC, rational, rational)
_float_entry = st.builds(
    complex,
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
    st.floats(-4, 4, allow_nan=False, allow_infinity=False),
)


@st.composite
def _elements(draw, algebra):
    """Elements whose entries are all exact, all float, mixed entry by entry,
    or mixed column by column (each column all exact or all float)."""
    kind = draw(st.sampled_from(["exact", "float", "mixed", "columns"]))
    kinds = {"exact": [_exact_entry], "float": [_float_entry],
             "mixed": [st.one_of(_exact_entry, _float_entry)]}.get(kind)
    blocks = []
    for n in algebra.block_dims:
        cols = kinds * n if kinds else [draw(st.sampled_from([_exact_entry, _float_entry]))
                                       for _ in range(n)]
        blocks.append([[draw(cols[j]) for j in range(n)] for _ in range(n)])
    return AlgebraElement(algebra, blocks)


def _bits(v):
    """Type and repr: equal bits, signed zeros included."""
    return type(v), repr(v)


def _reference_state(x):
    acc = QC(0)
    for d, b in zip(x.owner.densities, x.blocks):
        acc = acc + _algebra_module._mat_trace_product(d, b)
    return acc


def _element_bits(x):
    return [[[_bits(v) for v in row] for row in b] for b in x.blocks]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ALGEBRAS).flatmap(lambda make: _elements(make())))
def test_state_matches_the_full_trace_product(x):
    assert _bits(state(x)) == _bits(_reference_state(x))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ALGEBRAS).flatmap(lambda make: _elements(make())))
def test_center_matches_subtracting_the_scalar_element(x):
    want = x - x.owner.scalar(_reference_state(x))
    assert _element_bits(center(x)) == _element_bits(want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ALGEBRAS).flatmap(
    lambda make: st.tuples(_elements(make()), _elements(make()))
))
def test_l2_inner_matches_the_state_of_the_product(pair):
    x, y = pair
    assert _bits(l2_inner(x, y)) == _bits(_reference_state(y.adjoint() * x))


def test_l2_inner_on_blocks_mixed_by_columns():
    # y* x has exact entries in rows and columns 0, 1 and float ones in row
    # and column 2: the full trace turns float at term (0, 2), before the
    # exact diagonal term (1, 1) is added
    alg = _m3_with_state()
    x = AlgebraElement(alg, [[[QC(Fraction(1, 7)), QC(2), QC(0)],
                              [QC(1), QC(Fraction(3, 5)), QC(1)],
                              [QC(0), QC(1), QC(1)]]])
    y = AlgebraElement(alg, [[[QC(1), QC(0), 0.1 + 0j], [QC(Fraction(1, 3)), QC(1), 0.2 + 0j],
                              [QC(0), QC(1), 0.3 + 0j]]])
    assert _bits(l2_inner(x, y)) == _bits(_reference_state(y.adjoint() * x))


def test_center_keeps_the_signed_zeros_off_the_diagonal():
    # a float state s subtracts -1 * (s * 0) = (-0+0j) off the diagonal
    alg = m2_tr()
    for first in (QC(1), 1 + 0j):
        x = AlgebraElement(alg, [[[first, complex(-0.0, -0.0)], [complex(0.0, -0.0), 3 + 0j]]])
        want = x - alg.scalar(_reference_state(x))
        got = center(x)
        assert _element_bits(got) == _element_bits(want)
        assert [repr(got.blocks[0][0][1]), repr(got.blocks[0][1][0])] == ["(-0+0j)", "0j"]


def test_diagonal_densities_are_recorded_per_block():
    assert m2_tr()._diagonals == ((QC(Fraction(1, 2)), QC(Fraction(1, 2))),)
    assert len(c3_weighted()._diagonals) == 3
    assert all(d is not None for d in c3_weighted()._diagonals)
    assert _m2_float_state()._diagonals == ((0.75 + 0j, 0.25 + 0j),)
    first, second = _m2_plus_non_diagonal_m2()._diagonals
    assert first is not None and second is None
    assert _m3_non_diagonal()._diagonals == (None,)


def test_non_diagonal_density_takes_the_full_trace_product(monkeypatch):
    alg = _m3_non_diagonal()
    x = AlgebraElement(alg, [[[1, 2, 0], [3, 4, 0], [0, 0, 5]]])
    calls = []
    full = _algebra_module._mat_trace_product

    def counting(a, b):
        calls.append(a)
        return full(a, b)

    monkeypatch.setattr(_algebra_module, "_mat_trace_product", counting)
    # sum_ik D_ik x_ki = 1/3 + 3/6 + 2/6 + 4/3 + 5/3
    assert state(x) == QC(Fraction(25, 6))
    assert calls == [alg.densities[0]]
    y = AlgebraElement(alg, [[[0, 1, 0], [0, 0, 0], [2, 0, 1]]])
    assert l2_inner(x, y) == _reference_state(y.adjoint() * x)
    assert len(calls) == 3
    assert state(center(x)) == QC(0)


def test_state_is_cached_on_the_element():
    rng = np.random.default_rng(5)
    for make in _ALGEBRAS:
        alg = make()
        x = random_rational_element(alg, rng) * (0.5 + 0.25j)
        s = state(x)
        assert x._state is s
        assert state(x) is s
        fresh = AlgebraElement(alg, x.blocks)
        assert fresh._state is None
        assert _bits(state(fresh)) == _bits(s) == _bits(_reference_state(x))


# parts whose numerator and denominator both exceed 2**1100
_huge = st.builds(lambda n, d, neg: Fraction(-n if neg else n, d),
                  st.integers(2**1100, 2**1200), st.integers(2**1100, 2**1200), st.booleans())
_parts = st.one_of(st.just(Fraction(0)), rational, _huge)


def _pair_power(a, b, n):
    """(a + bi) ** n on Fraction pairs by repeated products; None for 0 ** -n."""
    re, im = Fraction(1), Fraction(0)
    for _ in range(abs(n)):
        re, im = re * a - im * b, re * b + im * a
    if n >= 0:
        return re, im
    norm = re * re + im * im
    return (re / norm, -im / norm) if norm else None


@settings(max_examples=200, deadline=None)
@given(_parts, _parts, _parts, _parts, st.integers(-4, 4))
def test_qc_sum_and_product_match_the_textbook_formulas(a, b, c, d, n):
    x, y = QC(a, b), QC(c, d)
    norm = c * c + d * d
    cases = [(x + y, a + c, b + d), (x - y, a - c, b - d), (-x, -a, -b),
             (x * y, a * c - b * d, a * d + b * c), (x.conjugate(), a, -b)]
    if norm:
        cases.append((x / y, (a * c + b * d) / norm, (b * c - a * d) / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    power = _pair_power(a, b, n)
    if power is None:
        with pytest.raises(ZeroDivisionError):
            x ** n
    else:
        cases.append((x ** n, *power))
    for got, re, im in cases:
        assert (got.re, got.im) == (re, im)
        assert type(got.re) is Fraction and type(got.im) is Fraction
        # canonical form: (a + bi)/d with d > 0, gcd(a, b, d) = 1, zero (0, 0, 1)
        fields = (got._a, got._b, got._d)
        assert fields[2] > 0 and math.gcd(*fields) == 1
        assert (re or im) or fields == (0, 0, 1)
        assert got == QC(re, im) and (got == x) == ((re, im) == (a, b))
        assert bool(got) == bool(re or im)
        assert _bits(complex(got)) == _bits(complex(float(re), float(im)))
