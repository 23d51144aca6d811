"""Tests for the truncated Fock oracle and moment estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (
    c3_weighted,
    m2_tr,
    random_alternating_word,
    random_rational_element,
    random_word_element,
    two_factor,
)
from freedecay import fock
from freedecay.algebra import MatrixBlockAlgebra
from freedecay.fock import (
    FockError,
    ResourceCapError,
    _basis_order_is_prefix,
    _spectral_norm,
    _vector_moments,
    _word_moments,
    build_fock,
    default_depth,
    fock_dimension,
    free_cumulants_to_moments,
    moment_norm_estimate,
    moments_to_free_cumulants,
    norm_lower_bound,
    represent,
    vacuum_expectation,
)
from freedecay.freeword import FreeElement, Letter, free_state, normalize
from freedecay.khintchine import HomogeneousWordElement
from freedecay.scalars import QC


def c2_half():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 2)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_single_factor_depth_one_dimension():
    f = build_fock([c2_half()], 1)
    assert f.dimension == 2
    assert fock_dimension([c2_half()], 1) == 2


def test_two_m2_factors_depth_two_dimension():
    f = build_fock([m2_tr(), m2_tr()], 2)
    assert f.dimension == 1 + 3 + 3 + 9 + 9
    assert fock_dimension([m2_tr(), m2_tr()], 2) == 25


def test_depth_zero():
    assert build_fock([m2_tr()], 0).dimension == 1


def test_dimension_cap():
    with pytest.raises(ResourceCapError):
        build_fock([MatrixBlockAlgebra.from_weights([Fraction(1, 24)] * 24)] * 2, 5)


def test_extended_basis_is_prefix_ordered():
    small = build_fock([m2_tr(), m2_tr()], 2)
    big = build_fock([m2_tr(), m2_tr()], 4)
    assert _basis_order_is_prefix(small, big)


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


def test_represent_identity():
    f = build_fock([m2_tr(), m2_tr()], 2)
    amb = f.ambient()
    mat = represent(f, FreeElement.one(amb))
    assert np.allclose(mat, np.eye(f.dimension))


def test_letter_on_vacuum_definition():
    # lambda(a) Omega = centered part (+) state(a) Omega
    f = build_fock([m2_tr(), m2_tr()], 2)
    amb = f.ambient()
    rng = np.random.default_rng(0)
    from freedecay.algebra import center, l2_inner, state

    a = random_rational_element(amb.factors[0], rng)
    mat = represent(f, FreeElement.letter(amb, 0, a))
    col = mat[:, 0]
    assert col[0] == pytest.approx(complex(state(a)))
    c = center(a)
    for k, xi in enumerate(f.onb[0]):
        idx = f.index[((0, k),)]
        assert col[idx] == pytest.approx(complex(l2_inner(c, xi)))


def _tensor_word(f, tensor):
    """The word of a basis tensor: it maps the vacuum to that tensor."""
    return FreeElement.word(f.ambient(), [Letter(j, f.onb[j][i]) for j, i in tensor])


def _oracle_matrix(f, x):
    """Entry (s, t) = free_state(W_s* x W_t) = <lambda(x) e_t, e_s>."""
    words = [_tensor_word(f, t) for t in f.basis]
    return np.array(
        [[complex(free_state(ws.adjoint() * x * wt)) for wt in words] for ws in words]
    )


def test_letter_operators_match_the_free_state_oracle():
    f = build_fock([m2_tr(), c3_weighted()], 2)
    amb = f.ambient()
    rng = np.random.default_rng(20)
    exact = random_rational_element(amb.factors[0], rng)
    flt = amb.factors[1].element(
        [[[complex(rng.standard_normal(), rng.standard_normal())]] for _ in range(3)]
    )
    letters = [(j, xi) for j in (0, 1) for xi in f.onb[j]] + [(0, exact), (1, flt)]
    for j, a in letters:
        got = f.letter_operator(j, a).toarray()
        want = _oracle_matrix(f, FreeElement.letter(amb, j, a))
        assert np.abs(got - want).max() < 1e-12, (j, a)


@pytest.mark.parametrize("length", [2, 3])
def test_represent_words_match_the_free_state_oracle(length):
    # words act on the space of depth L + length - 1; without that extension
    # the length-3 word loses what its last letter pushes past L and its
    # first letter brings back
    f = build_fock([m2_tr(), c3_weighted()], 2)
    x = random_alternating_word(f.ambient(), length, np.random.default_rng(21), centered=False)
    assert x.max_word_length() == length
    assert np.abs(represent(f, x) - _oracle_matrix(f, x)).max() < 1e-12


def test_only_basis_vector_operators_are_cached():
    f = build_fock([m2_tr(), c3_weighted()], 2)
    amb = f.ambient()
    a = random_rational_element(amb.factors[0], np.random.default_rng(22))
    f.letter_operator(0, a)
    assert f._onb_ops == {}
    xi = f.onb[1][1]
    assert f.letter_operator(1, xi) is f.onb_operators(1)[1]
    assert list(f._onb_ops) == [1] and len(f._onb_ops[1]) == 2


def test_vacuum_pairing_matches_free_state_exactly():
    amb = two_factor(m2_tr(), c3_weighted())
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = random_word_element(amb, 5, rng, n_terms=2)
        assert vacuum_expectation(x) == free_state(x)


def test_represent_vacuum_pairing_matches_free_state_numerically():
    f = build_fock([m2_tr(), c3_weighted()], 4)
    amb = f.ambient()
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = random_word_element(amb, 4, rng, n_terms=2)
        mat = represent(f, x)
        got = mat[0, 0]
        assert got == pytest.approx(complex(free_state(x)), abs=1e-10)


def test_adjoint_compatibility_all_depths():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(3)
    x = random_word_element(amb, 3, rng, n_terms=2)
    for depth in (1, 2, 3):
        f = build_fock(amb.factors, depth)
        assert np.allclose(
            represent(f, x.adjoint()), represent(f, x).conj().T, atol=1e-10
        )


def test_represent_hermitian_for_self_adjoint():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(4)
    y = random_word_element(amb, 2, rng, n_terms=2)
    x = y + y.adjoint()
    f = build_fock(amb.factors, 3)
    mat = represent(f, x)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)


def test_represented_onb_words_have_orthogonal_vacuum_images():
    f = build_fock([m2_tr(), m2_tr()], 3)
    amb = f.ambient()
    onb0, onb1 = f.onb
    words = [
        FreeElement.word(amb, (Letter(0, onb0[0]),)),
        FreeElement.word(amb, (Letter(0, onb0[0]), Letter(1, onb1[1]))),
        FreeElement.word(amb, (Letter(1, onb1[2]), Letter(0, onb0[1]), Letter(1, onb1[0]))),
    ]
    images = [represent(f, w)[:, 0] for w in words]
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            if i != j:
                assert abs(np.vdot(b, a)) < 1e-10


def test_norm_lower_bound_monotone_in_depth():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(5)
    x = random_word_element(amb, 2, rng, n_terms=3)
    vals = [norm_lower_bound(build_fock(amb.factors, L), x) for L in (1, 2, 3, 4)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-9


def test_spectral_norm_falls_back_to_dense_without_arpack_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise sp.linalg.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(fock.spla, "svds", no_convergence)
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((500, 500)) + 1j * rng.standard_normal((500, 500))
    assert _spectral_norm(sp.csr_matrix(dense)) == pytest.approx(np.linalg.norm(dense, 2))
    with pytest.raises(FockError):
        _spectral_norm(sp.identity(fock._DENSE_CAP + 1, dtype=complex, format="csr"))


# ---------------------------------------------------------------------------
# free cumulants
# ---------------------------------------------------------------------------


def test_cumulant_round_trip():
    m = [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(5)]
    kap = moments_to_free_cumulants(m)
    # standard semicircle: kappa_2 = 1, all others vanish
    assert kap == [0, 1, 0, 0, 0, 0]
    back = free_cumulants_to_moments(kap, 6)
    assert back == m


def test_cumulants_additive_free_convolution():
    # moments of the sum of two free Bernoulli(+-1) variables = arcsine walk counts
    m_bern = [Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1), Fraction(0), Fraction(1)]
    kap = moments_to_free_cumulants(m_bern)
    total = [2 * k for k in kap]
    m_sum = free_cumulants_to_moments(total, 6)
    # closed walks of length 2n on the 2-regular tree (i.e. on Z): C(2n, n)
    assert [m_sum[2 * k] for k in range(4)] == [1, 2, 6, 20]


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------


def test_moment_estimate_of_identity():
    amb = two_factor(m2_tr(), m2_tr())
    est = moment_norm_estimate(FreeElement.one(amb), 3)
    assert est.max == pytest.approx(1.0)
    f = build_fock(amb.factors, 2)
    assert norm_lower_bound(f, FreeElement.one(amb)) == pytest.approx(1.0)


def test_moment_estimate_of_state_zero_unitary():
    amb = two_factor(m2_tr(), m2_tr())
    u = amb.factors[0].element([[[0, 1], [1, 0]]])
    x = FreeElement.letter(amb, 0, u)
    est = moment_norm_estimate(x, 4)
    for r, q, root, ratio, best in est.rows:
        assert q == QC(1)
        assert best == pytest.approx(1.0)


def test_moment_estimates_nondecreasing_and_bounded():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(6)
    x = random_word_element(amb, 2, rng, n_terms=2)
    est = moment_norm_estimate(x, 3)
    bests = [row[4] for row in est.rows]
    for a, b in zip(bests, bests[1:]):
        assert b >= a - 1e-12
    f = build_fock(amb.factors, default_depth(x))
    lb = norm_lower_bound(f, x)
    # both are lower bounds of the same norm; the Fock bound at depth >= 2*len
    # dominates the moment bound at small r only up to truncation, so just
    # check they are consistent as lower bounds of an upper estimate
    from freedecay.freeword import l2_norm_free

    assert est.max >= l2_norm_free(x) - 1e-9


@pytest.mark.parametrize("length, r_max", [(1, 3), (2, 2)])
def test_vector_moments_match_word_expansion(length, r_max):
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(10 + length)
    for _ in range(3):
        x = HomogeneousWordElement.random(amb, length, rng).to_free_element()
        got = _vector_moments(x, r_max)
        want = _word_moments(normalize(x.adjoint() * x), r_max, fock._TERM_CAP)
        for a, b in zip(got, want):
            assert a == pytest.approx(complex(b).real, rel=1e-12, abs=0)
        assert moment_norm_estimate(x, r_max).method == "fock-vector"


def test_exact_moments_stay_word_expansion():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(12)
    x = random_word_element(amb, 2, rng, n_terms=2)
    est = moment_norm_estimate(x, 2)
    assert est.method == "word-expansion"
    assert all(isinstance(row[1], QC) for row in est.rows)


def test_vector_moments_depth_above_cap_raises():
    amb = two_factor(m2_tr(), m2_tr())
    x = HomogeneousWordElement.random(amb, 1, np.random.default_rng(13)).to_free_element()
    # depth 11 over (M2, tr) * (M2, tr) has 1 + 6 (3^11 - 1) / 2 > 200 000 tensors
    with pytest.raises(ResourceCapError):
        moment_norm_estimate(x, 11)


def test_kesten_sum_of_haar_type_unitaries():
    n_atoms = 24
    weights = [Fraction(1, n_atoms)] * n_atoms
    alg = MatrixBlockAlgebra.from_weights(weights)
    omega = [complex(np.exp(2j * np.pi * k / n_atoms)) for k in range(n_atoms)]
    u = alg.element([[[w]] for w in omega])
    amb = two_factor(alg, alg)
    x = (
        FreeElement.letter(amb, 0, u)
        + FreeElement.letter(amb, 0, u.adjoint())
        + FreeElement.letter(amb, 1, u)
        + FreeElement.letter(amb, 1, u.adjoint())
    )
    est = moment_norm_estimate(x, 12)
    assert est.method == "free-cumulant"
    # oracle: closed-walk counts on the 4-regular tree, plus the 4 straight
    # wraparound walks of length 24 in Z/24 * Z/24
    walks = _tree_walk_counts(12, degree=4)
    for r, q, root, ratio, best in est.rows:
        want = walks[2 * r] + (4 if 2 * r == 24 else 0)
        assert complex(q).real == pytest.approx(want, rel=1e-9)
    bests = [row[4] for row in est.rows]
    assert all(b >= a - 1e-12 for a, b in zip(bests, bests[1:]))
    assert 3.2 <= est.best_at(12) <= 4.0
    assert est.best_at(12) <= 2 * math.sqrt(3.0)


def _tree_walk_counts(n, degree):
    counts = {0: 1}
    walks = {}
    f = {0: 1}
    for step in range(1, 2 * n + 1):
        g = {}
        for h, c in f.items():
            up = degree if h == 0 else degree - 1
            g[h + 1] = g.get(h + 1, 0) + c * up
            if h > 0:
                g[h - 1] = g.get(h - 1, 0) + c
        f = g
        if step % 2 == 0:
            walks[step] = f.get(0, 0)
    return walks
