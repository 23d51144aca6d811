"""Tests for measures, orthonormal polynomials, Gauss rules, sup norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from freedecay.measure import (
    AtomicMeasureError,
    CompactMeasure,
    MeasureError,
    OrthoPolySequence,
    christoffel_sup,
    gauss_discretize,
    ortho_polys,
    polynomial_element,
    sup_norm,
    sup_norm_poly,
)
from freedecay.algebra import state


# ---------------------------------------------------------------------------
# moments and construction
# ---------------------------------------------------------------------------


def test_semicircle_moments_are_catalan():
    mu = CompactMeasure.semicircle()
    assert [mu.moment(k) for k in range(6)] == [1, 0, 1, 0, 2, 0]


def test_lebesgue_moments():
    mu = CompactMeasure.lebesgue()
    assert mu.moment(1) == 0
    assert mu.moment(2) == Fraction(1, 3)
    mu01 = CompactMeasure.lebesgue(0, 1)
    assert mu01.moment(3) == Fraction(1, 4)


def test_bad_support_rejected():
    with pytest.raises(MeasureError):
        CompactMeasure((1, 1), lambda k: Fraction(1))


def test_from_json_builtin_and_moments():
    mu = CompactMeasure.from_json({"builtin": "semicircle"})
    assert mu.moment(4) == 2
    mu2 = CompactMeasure.from_json(
        {"support": [-1, 1], "moments": ["1", "0", "1/3", "0", "1/5"]}
    )
    assert mu2.moment(2) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# orthonormal polynomials
# ---------------------------------------------------------------------------


def test_semicircle_p1_is_t():
    seq = ortho_polys(CompactMeasure.semicircle(), 4)
    assert seq.orthonormal_coefficients(1) == [0, 1]


def test_semicircle_p2_by_hand_gram_schmidt():
    # Gram-Schmidt on {1, t, t^2} with moments 1,0,1,0,2 gives t^2 - 1.
    seq = ortho_polys(CompactMeasure.semicircle(), 4)
    assert seq.orthonormal_coefficients(2) == [-1, 0, 1]


def test_lebesgue_p1_is_sqrt3_t():
    seq = ortho_polys(CompactMeasure.lebesgue(), 4)
    coeffs = seq.orthonormal_coefficients(1)
    assert coeffs[0] == 0
    assert float(coeffs[1]) == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_semicircle_recurrence_is_exact_chebyshev_u():
    # alpha_k = 0 and beta_k = 1 exactly: G_{n+1} = t G_n - G_{n-1}.
    seq = ortho_polys(CompactMeasure.semicircle(), 50)
    assert seq.exact
    for k in range(50):
        assert seq.alpha(k) == 0
    for k in range(1, 50):
        assert seq.beta(k) == 1


def test_semicircle_recurrence_residual_exact_zero():
    seq = ortho_polys(CompactMeasure.semicircle(), 12)
    for n in range(1, 11):
        p_prev = seq.monic_coefficients(n - 1)
        p_cur = seq.monic_coefficients(n)
        p_next = seq.monic_coefficients(n + 1)
        # residual of pi_{n+1} - (t pi_n - pi_{n-1}) must vanish exactly
        shifted = [Fraction(0)] + list(p_cur)
        residual = [Fraction(c) for c in p_next]
        for i, c in enumerate(shifted):
            residual[i] -= c
        for i, c in enumerate(p_prev):
            residual[i] += c
        assert all(c == 0 for c in residual)


def test_lebesgue_recurrence_matches_legendre():
    seq = ortho_polys(CompactMeasure.lebesgue(), 20)
    assert seq.exact
    for k in range(1, 20):
        assert seq.beta(k) == Fraction(k * k, 4 * k * k - 1)


def test_orthonormality_via_moment_functional():
    for mu in (CompactMeasure.semicircle(), CompactMeasure.lebesgue(), CompactMeasure.cosine()):
        seq = ortho_polys(mu, 6)
        coeffs = [seq.orthonormal_coefficients(k) for k in range(7)]
        for i in range(7):
            for j in range(7):
                acc = 0.0
                for a, ca in enumerate(coeffs[i]):
                    for b, cb in enumerate(coeffs[j]):
                        acc += float(ca) * float(cb) * float(mu.moment(a + b))
                assert acc == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def test_cosine_measure_gives_scaled_chebyshev_t():
    # The generic Stieltjes procedure recovers sqrt(2) T_n for the pushforward
    # measure; sup norm sqrt(2) for every n >= 1.
    seq = ortho_polys(CompactMeasure.cosine(), 8)
    for n in range(1, 8):
        est = sup_norm_poly(seq, n)
        assert float(est) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_atom_measure_recurrence_stops_with_typed_error():
    mu = CompactMeasure.uniform_atoms([Fraction(-1), Fraction(0), Fraction(1)])
    seq = ortho_polys(mu, 3)  # degree 3 needs alpha_0..2: fine for 3 atoms
    with pytest.raises(AtomicMeasureError) as exc:
        ortho_polys(mu, 4)
    assert exc.value.degree == 3


# ---------------------------------------------------------------------------
# sup norm
# ---------------------------------------------------------------------------


def test_sup_norm_constant():
    est = sup_norm(lambda ts: np.full_like(ts, -2.5), (0, 1), degree=0)
    assert float(est) == pytest.approx(2.5)


def test_sup_norm_semicircle_g4_is_5():
    seq = ortho_polys(CompactMeasure.semicircle(), 6)
    est = sup_norm_poly(seq, 4)
    assert float(est) == pytest.approx(5.0, abs=1e-9)
    assert abs(abs(est.argmax) - 2.0) < 1e-9


def test_sup_norm_legendre_q3_is_sqrt7():
    seq = ortho_polys(CompactMeasure.lebesgue(), 6)
    est = sup_norm_poly(seq, 3)
    assert float(est) == pytest.approx(math.sqrt(7.0), abs=1e-9)


def test_chebyshev_bound_for_semicircle():
    seq = ortho_polys(CompactMeasure.semicircle(), 50)
    for n in (1, 7, 25, 50):
        est = sup_norm_poly(seq, n)
        assert n + 1 - 1e-6 <= float(est) <= n + 1


def test_legendre_bound():
    seq = ortho_polys(CompactMeasure.lebesgue(), 50)
    for n in (1, 10, 50):
        est = sup_norm_poly(seq, n)
        assert float(est) == pytest.approx(math.sqrt(2 * n + 1), abs=1e-6)


# ---------------------------------------------------------------------------
# Gauss discretization
# ---------------------------------------------------------------------------


def test_gauss_one_point_rule():
    mu = CompactMeasure.lebesgue(0, 1)
    alg, nodes = gauss_discretize(mu, 1)
    assert nodes[0] == pytest.approx(0.5)
    assert alg.block_dims == (1,)


def test_gauss_legendre_two_points():
    alg, nodes = gauss_discretize(CompactMeasure.lebesgue(), 2)
    assert sorted(nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    ws = [complex(w).real for w in alg.weights()]
    assert ws == pytest.approx([0.5, 0.5])


def test_gauss_semicircle_t4_against_density_quadrature():
    mu = CompactMeasure.semicircle()
    alg, nodes = gauss_discretize(mu, 8)
    x = polynomial_element(alg, nodes, [0, 0, 0, 0, 1])  # t^4
    got = complex(state(x)).real
    oracle, _ = quad(lambda t: t ** 4 * mu.density(t), -2, 2)
    assert got == pytest.approx(2.0, abs=1e-10)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_quadrature_exact_for_low_degree_random_polys():
    rng = np.random.default_rng(7)
    mu = CompactMeasure.semicircle()
    n = 5
    alg, nodes = gauss_discretize(mu, n)
    for _ in range(20):
        deg = int(rng.integers(0, 2 * n - 1))
        coeffs = rng.standard_normal(deg + 1)
        x = polynomial_element(alg, nodes, coeffs)
        want = sum(c * float(mu.moment(k)) for k, c in enumerate(coeffs))
        assert complex(state(x)).real == pytest.approx(want, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9))
def test_quadrature_exactness_property(coeff_ints):
    # any polynomial of degree <= 2N-1 integrates exactly under the N-point rule
    mu = CompactMeasure.lebesgue()
    n = 5
    alg, nodes = gauss_discretize(mu, n)
    coeffs = [float(c) for c in coeff_ints[: 2 * n]]
    x = polynomial_element(alg, nodes, coeffs)
    want = sum(c * float(mu.moment(k)) for k, c in enumerate(coeffs))
    assert complex(state(x)).real == pytest.approx(want, abs=1e-10)


def test_cdf_strictly_increasing_at_gauss_nodes():
    # atomless reparametrization sanity for the builtin semicircle
    mu = CompactMeasure.semicircle()
    _, nodes = gauss_discretize(mu, 12)
    cdf_vals = [quad(mu.density, -2.0, t)[0] for t in sorted(nodes)]
    assert all(b - a > 1e-12 for a, b in zip(cdf_vals, cdf_vals[1:]))


# ---------------------------------------------------------------------------
# filtration constants
# ---------------------------------------------------------------------------


def test_christoffel_semicircle_sum_of_squares():
    seq = ortho_polys(CompactMeasure.semicircle(), 12)
    for n in (0, 3, 10):
        want = math.sqrt(sum((k + 1) ** 2 for k in range(n + 1)))
        assert float(christoffel_sup(seq, n)) == pytest.approx(want, abs=1e-9)


def test_christoffel_lebesgue_is_nplus1():
    seq = ortho_polys(CompactMeasure.lebesgue(), 12)
    for n in (0, 4, 9):
        assert float(christoffel_sup(seq, n)) == pytest.approx(n + 1, abs=1e-9)


# ---------------------------------------------------------------------------
# single-point recurrence
# ---------------------------------------------------------------------------


def _float_semicircle():
    """Semicircle moments as floats: a custom measure without exact
    coefficients, whose float recurrence holds through degree 30."""
    return CompactMeasure(
        (-2, 2), lambda k: 0.0 if k % 2 else float(math.comb(k, k // 2) // (k // 2 + 1))
    )


@pytest.mark.parametrize(
    "measure, degrees",
    [
        (CompactMeasure.semicircle(), (1, 5, 17, 39)),
        (CompactMeasure.lebesgue(), (1, 5, 17, 39)),
        (CompactMeasure.cosine(), (1, 5, 17, 39)),
        (_float_semicircle(), (1, 5, 17, 29)),
    ],
    ids=["semicircle", "lebesgue", "cosine", "float-moments"],
)
def test_single_point_values_match_the_grid_column(measure, degrees):
    a, b = (float(e) for e in measure.support)
    rng = np.random.default_rng(7)
    ts = np.concatenate([np.linspace(a, b, 41), rng.uniform(a, b, 10)])
    seq = OrthoPolySequence(measure)
    for n in degrees:
        grid = seq.orthonormal_values(n, ts)
        for i, t in enumerate(ts):
            assert np.array_equal(seq.orthonormal_values(n, [t])[:, 0], grid[:, i]), (n, t)
    assert seq.exact == (measure.name != "custom")


def test_extend_refreshes_the_float_coefficients():
    seq = OrthoPolySequence(CompactMeasure.semicircle())
    seq.extend(4)
    low = seq.orthonormal_values(3, [0.5])
    high = seq.orthonormal_values(20, [0.5])
    assert seq.degree == 21
    assert seq._floats == [
        (float(seq.alpha(k)), math.sqrt(float(seq.beta(k)))) for k in range(seq.degree)
    ]
    assert np.array_equal(high[:4], low)
    assert np.array_equal(high[:, 0], seq.orthonormal_values(20, np.array([0.5, 1.0]))[:, 0])
