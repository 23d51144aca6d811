"""Tests for finite-dimensional C*-probability spaces."""

import copy
import math
import pickle
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
    _scalar_part,
    center,
    dn_norm,
    gram_schmidt,
    l2_inner,
    l2_norm,
    onb_complement,
    op_norm,
    state,
)
from freedecay.compressed import _by_value
from freedecay.freeword import FreeElement, FreeProductAmbient
from freedecay.scalars import QC, QCMatrix, negligible


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


def test_singular_exact_densities_are_rejected_exactly():
    # a float Cholesky accepts 48 of the rank-one densities: its last pivot
    # rounds to a tiny positive number instead of 0
    rank_one = [[[Fraction(p * p, p * p + q * q), Fraction(p * q, p * p + q * q)],
                 [Fraction(p * q, p * p + q * q), Fraction(q * q, p * p + q * q)]]
                for p in range(1, 12) for q in range(1, 12)]
    half, i_half = QC(Fraction(1, 2)), QC(0, Fraction(1, 2))
    complex_rank_one = [[half, i_half], [i_half.conjugate(), half]]
    kernel_at_the_last_pivot = [[Fraction(k, 6) for k in row] for row in ([2, 1, -1], [1, 2, 1], [-1, 1, 2])]
    for density in rank_one + [complex_rank_one, kernel_at_the_last_pivot]:
        with pytest.raises(AlgebraError, match="not positive definite"):
            MatrixBlockAlgebra([density])


def test_exact_complex_positive_definite_density_is_accepted():
    half, i_eighth = QC(Fraction(1, 2)), QC(0, Fraction(1, 8))
    alg = MatrixBlockAlgebra([[[half, i_eighth], [i_eighth.conjugate(), half]]])
    assert state(alg.identity()) == 1


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


@pytest.mark.parametrize("pair, want", [
    ([0.1, "0"], complex(0.1, 0)),
    (["0", 0.1], complex(0, 0.1)),
    (["1/3", 0.5], complex(1 / 3, 0.5)),
    ([0.1, 0], complex(0.1, 0)),
])
def test_a_json_pair_with_a_float_entry_is_a_float(pair, want):
    # exact only when both entries are strings or ints
    got = _algebra_module._scalar_from_json(pair)
    assert type(got) is complex and got == want
    assert type(_algebra_module._scalar_from_json(["1/3", 0])) is QC


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
    assert z == alg.scalar(0)


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
        x = owner.scalar(0)
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


def _reference_gram_schmidt(vectors):
    """Gram-Schmidt with its own rational square root test and 1 / root as a
    QC, as it was before ``scalars.unit_scale`` gave the scale."""
    basis = []
    for v in vectors:
        w = v
        for b in basis:
            w = w - b * l2_inner(w, b)
        nn = l2_inner(w, w)
        if isinstance(nn, QC):
            n2 = max(nn.re, Fraction(0))
            if negligible(n2):
                continue
            rn, rd = math.isqrt(n2.numerator), math.isqrt(n2.denominator)
            if rn * rn == n2.numerator and rd * rd == n2.denominator:
                basis.append(w * QC(Fraction(1) / Fraction(rn, rd)))
            else:
                basis.append(w * (1.0 / math.sqrt(float(n2))))
        else:
            norm = math.sqrt(max(nn.real, 0.0))
            if negligible(norm):
                continue
            basis.append(w * (1.0 / norm))
    return basis


@pytest.mark.parametrize("make", [
    m2_tr, lambda: MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3),
    lambda: MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
    lambda: MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4), _m3_non_diagonal, c3_weighted, _m2_float_state,
], ids=["m2-tr", "c3-uniform", "c3-weighted", "c4-uniform", "m3-rotated", "c3-3/5", "m2-float"])
def test_onb_complement_keeps_the_bits_of_its_own_square_root_test(make):
    algebra = make()
    want = _reference_gram_schmidt([algebra.identity()] + algebra.basis())[1:]
    assert [_element_bits(x) for x in onb_complement(algebra)] == [_element_bits(x) for x in want]


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


def test_diagonal_and_rotated_densities_take_one_trace_product(monkeypatch):
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
    # a diagonal and a rotated block: one call each, on the same path
    mixed = _m2_plus_non_diagonal_m2()
    calls.clear()
    # (1/4 + 4/4) + (5/4 + 2/8 + 3/8 + 6/4)
    assert state(AlgebraElement(mixed, [[[1, 2], [3, 4]], [[5, 2], [3, 6]]])) == QC(Fraction(37, 8))
    assert calls == list(mixed.densities)


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


def _kept(x):
    return x._scalar, x._centred, x._adjoint


def test_centred_part_and_adjoint_are_kept_on_the_element():
    rng = np.random.default_rng(6)
    for make in _ALGEBRAS:
        for x in (random_rational_element(make(), rng), random_rational_element(make(), rng) * 0.5):
            assert _kept(x) == (None, None, None)
            c, y = center(x), x.adjoint()
            assert center(x) is c and x.adjoint() is y and y.adjoint() is x
            assert _element_bits(y.adjoint()) == _element_bits(x)
            fresh = AlgebraElement._of(x.owner, x.blocks)
            assert _element_bits(center(fresh)) == _element_bits(c)
            assert _element_bits(fresh.adjoint()) == _element_bits(y)


def test_the_scalar_part_is_worked_out_once(monkeypatch):
    calls = []
    common = _algebra_module.common_scalar
    monkeypatch.setattr(_algebra_module, "common_scalar", lambda blocks: calls.append(blocks) or common(blocks))
    alg = _m2_plus_c()
    scalar, other = alg.scalar(QC(2, -1)), random_rational_element(alg, np.random.default_rng(2))
    for x, want in ((scalar, QC(2, -1)), (other, None)):
        calls.clear()
        assert [_scalar_part(x) for _ in range(3)] == [want] * 3
        assert calls == [x.blocks]
    float_scalar = alg.scalar(0.5 + 0j)
    assert [_scalar_part(float_scalar) for _ in range(2)] == [0.5 + 0j] * 2 and float_scalar._scalar == (0.5 + 0j,)


def test_an_exact_element_and_its_float_twin_never_share_what_they_keep():
    x, _ = _boundary_cases()
    x = x * QC(3)  # dyadic entries, so a float twin of equal values exists
    for first in ("exact", "float"):
        exact = AlgebraElement._of(x.owner, x.blocks)
        twin = AlgebraElement(x.owner, [[[complex(v) for v in row] for row in b] for b in x.blocks])
        pair = [exact, twin] if first == "exact" else [twin, exact]
        got = {id(z): (_entry_reprs(center(z)), _entry_reprs(z.adjoint()), repr(_scalar_part(z))) for z in pair}
        assert center(exact) is not center(twin) and exact.adjoint() is not twin.adjoint()
        assert got[id(exact)][:2] == (_entry_reprs(center(x)), _entry_reprs(x.adjoint()))
        assert got[id(exact)] != got[id(twin)]
        assert all(type(b) is QCMatrix for z in (center(exact), exact.adjoint()) for b in z.blocks)
        assert not any(type(b) is QCMatrix for z in (center(twin), twin.adjoint()) for b in z.blocks)
    one, one_float = x.owner.identity(), x.owner.scalar(1.0 + 0j)
    assert one != one_float and hash(one) == hash(one_float)
    assert (repr(_scalar_part(one)), repr(_scalar_part(one_float))) == ("QC(1)", "(1+0j)")


def test_the_kept_slots_stay_immutable():
    x = random_rational_element(m2_tr(), np.random.default_rng(3))
    center(x), x.adjoint(), _scalar_part(x)
    for name in ("_scalar", "_centred", "_adjoint"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
    assert center(x) is x._centred


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copy_drops_what_the_element_keeps(clone):
    x = random_rational_element(_m2_plus_c(), np.random.default_rng(4)) * (0.5 + 0.25j)
    state(x), center(x), x.adjoint(), _scalar_part(x)
    again = clone(x)
    assert again == x and hash(again) == hash(x) and again is not x
    assert _kept(again) == (None, None, None) and again._state is None
    assert _element_bits(center(again)) == _element_bits(center(x))
    assert _element_bits(again.adjoint()) == _element_bits(x.adjoint()) and again.adjoint().adjoint() is again


def _reference_op_norm(x):
    """The per-block loop: the largest of the per-block roots."""
    best = 0.0
    for b in x.blocks:
        a = _algebra_module._mat_to_numpy(b)
        h = a.conj().T @ a
        h = 0.5 * (h + h.conj().T)
        lam = max(float(np.linalg.eigvalsh(h)[-1]), 0.0)
        best = max(best, math.sqrt(lam))
    return best


def _reference_dn_norm(vectors):
    """The Gram sums, then one root of the largest clamped top eigenvalue."""
    acc = [np.zeros((n, n), dtype=complex) for n in vectors[0].owner.block_dims]
    for v in vectors:
        for i, b in enumerate(v.to_numpy()):
            acc[i] += b @ b.conj().T
    best = 0.0
    for h in acc:
        h = 0.5 * (h + h.conj().T)
        best = max(best, max(float(np.linalg.eigvalsh(h)[-1]), 0.0))
    return math.sqrt(best)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ALGEBRAS).flatmap(lambda make: st.lists(_elements(make()), min_size=1, max_size=4)))
def test_op_norm_and_dn_norm_keep_the_bits_of_their_own_loops(vectors):
    # exact, float and mixed elements; two of the algebras have a non-diagonal density
    assert [_bits(op_norm(v)) for v in vectors] == [_bits(_reference_op_norm(v)) for v in vectors]
    assert _bits(dn_norm(vectors)) == _bits(_reference_dn_norm(vectors))


def test_op_norm_and_dn_norm_of_zero_are_zero():
    for make in _ALGEBRAS:
        zero = make().scalar(0) * 0.0
        assert _bits(op_norm(zero)) == _bits(_reference_op_norm(zero)) == (float, "0.0")
        assert _bits(dn_norm([zero])) == _bits(_reference_dn_norm([zero])) == (float, "0.0")


def test_scalar_products_of_an_element_agree_on_both_sides():
    rng = np.random.default_rng(7)
    for make in _ALGEBRAS:
        for x in (random_rational_element(make(), rng), random_rational_element(make(), rng) * 0.3):
            for s in (2, Fraction(1, 3), QC(1, -2), 0.5 - 0.25j):
                assert _element_bits(s * x) == _element_bits(x * s)


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


# ---------------------------------------------------------------------------
# where the exact kernel meets floats: the tuple code, with the same bits
# ---------------------------------------------------------------------------


def _boundary_cases():
    third = Fraction(1, 3)
    alg = MatrixBlockAlgebra([[[third, 0], [0, third]], [[third]]])
    x = AlgebraElement(alg, [[[QC(1, 2), QC(Fraction(-1, 2))], [QC(0), QC(3, Fraction(-1, 3))]],
                             [[QC(0, 1)]]])
    y = AlgebraElement(alg, [[[0.5 - 0.0j, -0.0 + 0.0j], [1e-300 + 0j, -2.0 + 0.25j]],
                             [[complex(-0.0, 1.0)]]])
    return x, {"one exact and one float block": AlgebraElement(alg, [x.blocks[0], y.blocks[1]]),
               "exact times a float scalar": x * (-1.5 + 0.0j),
               "exact times a float element": x * y}


def _entry_reprs(z):
    return [[[repr(v) for v in row] for row in b] for b in z.blocks]


# the reprs of entries, state, centred entries, <z, x> and <x, z> that the
# per-entry code gave before exact blocks had a kernel
_BOUNDARY_REPRS = {
    "one exact and one float block": (
        [[['QC(1, 2)', 'QC(-1/2)'], ['QC(0)', 'QC(3, -1/3)']], [['(-0+1j)']]],
        '(1.3333333333333333+0.8888888888888888j)',
        [[['(-0.33333333333333326+1.1111111111111112j)', '(-0.5+0j)'],
          ['0j', '(1.6666666666666667-1.222222222222222j)']],
         [['(-1.3333333333333333+0.11111111111111116j)']]],
        '(5.12037037037037+0j)', '(5.12037037037037+0j)'),
    "exact times a float scalar": (
        [[['(-1.5-3j)', '(0.75-0j)'], ['(-0+0j)', '(-4.5+0.5j)']], [['(-0-1.5j)']]],
        '(-2-1.3333333333333335j)',
        [[['(0.5-1.6666666666666665j)', '(0.75+0j)'], ['0j', '(-2.5+1.8333333333333335j)']],
         [['(2-0.16666666666666652j)']]],
        '(-7.680555555555555+0j)', '(-7.680555555555555+0j)'),
    "exact times a float element": (
        [[['(0.5+1j)', '(1-0.125j)'], ['(3e-300-3.3333333333333334e-301j)',
                                        '(-5.916666666666667+1.4166666666666665j)']],
         [['(-1+0j)']]],
        '(-2.138888888888889+0.8055555555555555j)',
        [[['(2.638888888888889+0.19444444444444453j)', '(1-0.125j)'],
          ['(3e-300-3.3333333333333334e-301j)', '(-3.777777777777778+0.611111111111111j)']],
         [['(1.1388888888888888-0.8055555555555555j)']]],
        '(-5.407407407407407+1.1134259259259258j)', '(-5.407407407407407-1.1134259259259258j)'),
}


@pytest.mark.parametrize("name", sorted(_BOUNDARY_REPRS))
def test_exact_blocks_meet_floats_with_the_bits_of_the_entry_code(name):
    x, cases = _boundary_cases()
    z = cases[name]
    got = (_entry_reprs(z), repr(state(z)), _entry_reprs(center(z)),
           repr(l2_inner(z, x)), repr(l2_inner(x, z)))
    assert got == _BOUNDARY_REPRS[name]
    assert [type(b) is QCMatrix for b in z.blocks] == [name.startswith("one exact"), False]


def test_an_exact_element_is_not_its_float_twin_and_pickles():
    x, _ = _boundary_cases()
    x = x * QC(3)  # dyadic entries, so a float twin of equal values exists
    twin = AlgebraElement(x.owner, [[[complex(v) for v in row] for row in b] for b in x.blocks])
    assert x != twin and x.blocks == twin.blocks and hash(x) == hash(twin)
    again = pickle.loads(pickle.dumps(x))
    assert again == x and hash(again) == hash(x)
    assert all(type(b) is QCMatrix for b in again.blocks)
    assert _entry_reprs(again) == _entry_reprs(x) and repr(state(again)) == repr(state(x))


def test_an_exact_block_equals_a_mixed_block_of_its_values_and_hashes_alike():
    # 1/3 beside a float 0.5: a mixed block with the values of an exact one.
    # Blocks compare values, so the two are equal and hash alike, and x = x*
    # decided on values takes the exact letter and the mixed one as one key;
    # the elements differ in kind, and the exact one hashes as its float twin
    alg = m2_tr()
    third, half = Fraction(1, 3), Fraction(1, 2)
    exact = alg.element([[[third, half], [half, 1]]])
    mixed = alg.element([[[third, 0.5], [0.5, 1]]])
    a, b = exact.blocks[0], mixed.blocks[0]
    assert type(a) is QCMatrix and type(b) is tuple
    assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1
    assert exact != mixed and len({exact, mixed}) == 2
    twin = alg.element([[[1 / 3, 0.5], [0.5, 1.0]]])
    assert exact != twin and hash(exact) == hash(twin)
    amb = FreeProductAmbient((alg, MatrixBlockAlgebra.from_weights([half, half])))
    x = FreeElement.letter(amb, 0, exact) + FreeElement.letter(amb, 0, mixed)
    assert len(x.terms) == 2 and list(_by_value(x).values()) == [QC(2)]
    assert _by_value(x) == _by_value(x.adjoint())
