"""Tests for measures, orthonormal polynomials, sup norms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from freedecay.measure import (
    AtomicMeasureError,
    CompactMeasure,
    MeasureError,
    OrthoPolySequence,
    _chebyshev_algorithm,
    _jacobi_recurrence,
    christoffel_ends,
    christoffel_sup,
    sup_norm,
    sup_norm_poly,
)


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
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 4)
    assert seq.orthonormal_coefficients(1) == [0, 1]


def test_semicircle_p2_by_hand_gram_schmidt():
    # Gram-Schmidt on {1, t, t^2} with moments 1,0,1,0,2 gives t^2 - 1.
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 4)
    assert seq.orthonormal_coefficients(2) == [-1, 0, 1]


def test_lebesgue_p1_is_sqrt3_t():
    seq = OrthoPolySequence(CompactMeasure.lebesgue(), 4)
    coeffs = seq.orthonormal_coefficients(1)
    assert coeffs[0] == 0
    assert float(coeffs[1]) == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_semicircle_recurrence_is_exact_chebyshev_u():
    # alpha_k = 0 and beta_k = 1 exactly: G_{n+1} = t G_n - G_{n-1}.
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 50)
    assert seq.exact
    alpha, beta = _chebyshev_algorithm(CompactMeasure.semicircle(), 50)
    for k in range(50):
        assert alpha[k] == 0
    for k in range(1, 50):
        assert beta[k] == 1


def test_semicircle_recurrence_residual_exact_zero():
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 12)
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
    seq = OrthoPolySequence(CompactMeasure.lebesgue(), 20)
    assert seq.exact
    _, beta = _chebyshev_algorithm(CompactMeasure.lebesgue(), 20)
    for k in range(1, 20):
        assert beta[k] == Fraction(k * k, 4 * k * k - 1)


def test_orthonormality_via_moment_functional():
    for mu in (CompactMeasure.semicircle(), CompactMeasure.lebesgue(), CompactMeasure.cosine()):
        seq = OrthoPolySequence(mu, 6)
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
    seq = OrthoPolySequence(CompactMeasure.cosine(), 8)
    for n in range(1, 8):
        est = sup_norm_poly(seq, n)
        assert float(est) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_atom_measure_recurrence_stops_with_typed_error():
    mu = CompactMeasure.uniform_atoms([Fraction(-1), Fraction(0), Fraction(1)])
    seq = OrthoPolySequence(mu, 2)  # degree 2 needs beta_0..2: fine for 3 atoms
    assert seq.orthonormal_coefficients(2)[2] > 0
    with pytest.raises(AtomicMeasureError) as exc:
        OrthoPolySequence(mu, 3)
    assert exc.value.degree == 3


def test_a_table_refuses_every_read_past_its_degree():
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 3)
    assert seq.degree == 3
    reads = [lambda n: seq.monic_coefficients(n), lambda n: seq.orthonormal_coefficients(n),
             lambda n: seq.norm_squared(n), lambda n: seq.orthonormal_values(n, [0.5]),
             lambda n: christoffel_sup(seq, n)]
    for read in reads:
        read(3)
        with pytest.raises(ValueError, match="degree 4 is past the degree 3 this table was built to"):
            read(4)


# ---------------------------------------------------------------------------
# sup norm
# ---------------------------------------------------------------------------


def test_sup_norm_constant():
    est = sup_norm(lambda ts: np.full_like(ts, -2.5), (0, 1), degree=0)
    assert float(est) == pytest.approx(2.5)


def test_sup_norm_semicircle_g4_is_5():
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 6)
    est = sup_norm_poly(seq, 4)
    assert float(est) == pytest.approx(5.0, abs=1e-9)


def test_sup_norm_legendre_q3_is_sqrt7():
    seq = OrthoPolySequence(CompactMeasure.lebesgue(), 6)
    est = sup_norm_poly(seq, 3)
    assert float(est) == pytest.approx(math.sqrt(7.0), abs=1e-9)


def test_chebyshev_bound_for_semicircle():
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 50)
    for n in (1, 7, 25, 50):
        est = sup_norm_poly(seq, n)
        assert n + 1 - 1e-6 <= float(est) <= n + 1


def test_legendre_bound():
    seq = OrthoPolySequence(CompactMeasure.lebesgue(), 50)
    for n in (1, 10, 50):
        est = sup_norm_poly(seq, n)
        assert float(est) == pytest.approx(math.sqrt(2 * n + 1), abs=1e-6)


# ---------------------------------------------------------------------------
# filtration constants
# ---------------------------------------------------------------------------


def test_christoffel_semicircle_sum_of_squares():
    seq = OrthoPolySequence(CompactMeasure.semicircle(), 12)
    for n in (0, 3, 10):
        want = math.sqrt(sum((k + 1) ** 2 for k in range(n + 1)))
        assert float(christoffel_sup(seq, n)) == pytest.approx(want, abs=1e-9)


def test_christoffel_lebesgue_is_nplus1():
    seq = OrthoPolySequence(CompactMeasure.lebesgue(), 12)
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
    seq = OrthoPolySequence(measure, max(degrees))
    for n in degrees:
        grid = seq.orthonormal_values(n, ts)
        for i, t in enumerate(ts):
            assert np.array_equal(seq.orthonormal_values(n, [t])[:, 0], grid[:, i]), (n, t)
    assert seq.exact == (measure.name != "custom")


def test_tables_of_two_degrees_agree_on_their_shared_rows():
    measure = CompactMeasure.semicircle()
    low_seq, high_seq = OrthoPolySequence(measure, 3), OrthoPolySequence(measure, 20)
    floats = [(seq, seq._floats) for seq in (low_seq, high_seq)]
    low = low_seq.orthonormal_values(3, [0.5])
    high = high_seq.orthonormal_values(20, [0.5])
    assert np.array_equal(high[:4], low)
    assert np.array_equal(high[:, 0], high_seq.orthonormal_values(20, np.array([0.5, 1.0]))[:, 0])
    # each table converts its float pairs once, in its constructor
    for seq, before in floats:
        alpha, beta = _chebyshev_algorithm(measure, len(before))
        assert seq._floats is before
        assert before == [(float(a), math.sqrt(float(b))) for a, b in zip(alpha, beta)]
    assert high_seq._floats[:4] == low_seq._floats


@pytest.mark.parametrize("measure, n", [
    (CompactMeasure.semicircle(), 0), (CompactMeasure.semicircle(), 40), (CompactMeasure.lebesgue(), 40),
    (CompactMeasure.builtin("lebesgue01"), 40), (CompactMeasure.cosine(), 40),
    (CompactMeasure((-1, 1), CompactMeasure.lebesgue().moment), 20),
    (_float_semicircle(), 29),
    (CompactMeasure.uniform_atoms([-1, Fraction(1, 3), 2], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]), 2),
], ids=["semicircle-0", "semicircle", "lebesgue", "lebesgue01", "cosine", "exact-moments", "float-moments",
        "atoms"])
def test_a_table_of_degree_n_holds_the_n_plus_1_pairs_of_its_recurrence(measure, n):
    # repr tells 0.0 from -0.0 and shows the Fraction type of every coefficient
    recurrence = _chebyshev_algorithm if measure.jacobi is None else _jacobi_recurrence
    seq = OrthoPolySequence(measure, n)
    assert len(seq._alpha) == len(seq._beta) == len(seq._floats) == n + 1
    assert repr((seq._alpha, seq._beta)) == repr(recurrence(measure, n + 1))
    assert seq.exact == all(isinstance(measure.moment(k), (int, Fraction)) for k in range(2 * n + 2))


# ---------------------------------------------------------------------------
# kernels that skip work keep their bits
# ---------------------------------------------------------------------------


def _chebyshev_forming_every_product(measure, n):
    """The Chebyshev moment algorithm with no product skipped, for
    measures whose recurrence holds through degree n."""
    m = [measure.moment(k) for k in range(2 * n)]
    exact = all(isinstance(x, (int, Fraction)) for x in m)
    m = [Fraction(x) if exact else float(x) for x in m]
    alpha, beta = [m[1] / m[0]], [m[0]]
    sigma_prev, sigma_cur = [None] * (2 * n), list(m)
    for k in range(1, n):
        sigma_next = [None] * (2 * n)
        for l in range(k, 2 * n - k):
            s = sigma_cur[l + 1] - alpha[k - 1] * sigma_cur[l]
            if k >= 2:
                s -= beta[k - 1] * sigma_prev[l]
            sigma_next[l] = s
        alpha.append(sigma_next[k + 1] / sigma_next[k] - sigma_cur[k] / sigma_cur[k - 1])
        beta.append(sigma_next[k] / sigma_cur[k - 1])
        sigma_prev, sigma_cur = sigma_cur, sigma_next
    return alpha, beta


BUILTINS = ("semicircle", "lebesgue", "lebesgue01", "cosine")


@pytest.mark.parametrize(
    "measure, n",
    [(CompactMeasure.builtin(name), 61) for name in BUILTINS]
    + [
        (CompactMeasure.uniform_atoms([-1, Fraction(1, 3), 2],
                                      [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]), 3),
        (_float_semicircle(), 30),
        (CompactMeasure((0, 1), lambda k: 1.0 / (k + 1)), 6),
    ],
    ids=list(BUILTINS) + ["atoms", "float-semicircle", "float-lebesgue01"],
)
def test_chebyshev_algorithm_keeps_the_bits_of_every_product_formed(measure, n):
    # repr tells 0.0 from -0.0 and shows Fractions in lowest terms
    got = _chebyshev_algorithm(measure, n)
    assert repr(got) == repr(_chebyshev_forming_every_product(measure, n))


def test_closed_form_recurrences_at_degree_61():
    alpha, beta = _chebyshev_algorithm(CompactMeasure.cosine(), 61)
    assert alpha == [0] * 61
    assert beta == [1, Fraction(1, 2)] + [Fraction(1, 4)] * 59
    alpha, beta = _chebyshev_algorithm(CompactMeasure.builtin("lebesgue01"), 61)
    assert alpha == [Fraction(1, 2)] * 61
    assert beta == [1] + [Fraction(k * k, 4 * (4 * k * k - 1)) for k in range(1, 61)]


@pytest.mark.parametrize("name", BUILTINS)
def test_christoffel_sup_equals_the_stacked_formula(name):
    seq = OrthoPolySequence(CompactMeasure.builtin(name), 61)
    for n in range(1, 61):

        def stacked(ts):
            vals = seq.orthonormal_values(n, ts)
            return np.sqrt(np.sum(vals * vals, axis=0))

        assert christoffel_sup(seq, n) == sup_norm(stacked, seq.measure.support, n), n


# ---------------------------------------------------------------------------
# Jacobi measures: closed-form recurrences and end-point constants
# ---------------------------------------------------------------------------


def _jacobi_moments(support, p, q):
    """Moments of the normalized (b - t)^p (t - a)^q dt on [a, b], apart
    from the program: (t - a)/(b - a) is Beta(q + 1, p + 1) distributed."""
    a, b = (Fraction(e) for e in support)
    beta_moments = [Fraction(1)]
    for i in range(80):
        beta_moments.append(beta_moments[-1] * (q + 1 + i) / (p + q + 2 + i))
    return lambda k: sum(math.comb(k, j) * a ** (k - j) * (b - a) ** j * beta_moments[j]
                         for j in range(k + 1))


JACOBI_BUILTINS = [CompactMeasure.builtin(name) for name in BUILTINS] + [
    CompactMeasure.lebesgue(Fraction(1, 10), Fraction(7, 10)),
    CompactMeasure.lebesgue(-3, Fraction(5, 7)),
    CompactMeasure.lebesgue(0, 3),
]
JACOBI_IDS = list(BUILTINS) + ["lebesgue[1/10,7/10]", "lebesgue[-3,5/7]", "lebesgue[0,3]"]


def test_builtins_record_their_jacobi_parameters():
    half = Fraction(1, 2)
    assert [CompactMeasure.builtin(name).jacobi for name in BUILTINS] == [
        (half, half), (0, 0), (0, 0), (-half, -half)]
    for data in ({"support": [-2, 2], "moments": [1, 0, 1, 0, 2]}, {"atoms": [-1, 0, 2]}):
        assert CompactMeasure.from_json(data).jacobi is None
    # outside Szegő's hypotheses the end points prove nothing
    for jacobi in ((Fraction(-3, 4), Fraction(-3, 4)), (Fraction(1, 2), Fraction(-1))):
        with pytest.raises(MeasureError):
            CompactMeasure((-1, 1), lambda k: Fraction(k == 0), jacobi=jacobi)


@pytest.mark.parametrize("measure", JACOBI_BUILTINS[:5], ids=JACOBI_IDS[:5])
def test_closed_form_recurrence_equals_the_moment_algorithm(measure):
    # repr shows the Fraction type of every coefficient
    want = _chebyshev_algorithm(measure, 100)
    assert repr(_jacobi_recurrence(measure, 100)) == repr(want)
    seq = OrthoPolySequence(measure, 99)
    assert repr((seq._alpha, seq._beta)) == repr(want) and seq.exact


@pytest.mark.parametrize("support, p, q", [
    ((-1, 1), Fraction(1, 2), Fraction(-1, 2)),
    ((0, 3), Fraction(2), Fraction(0)),
    ((-2, Fraction(1, 3)), Fraction(-1, 2), Fraction(3, 4)),
    ((-1, 1), Fraction(-1, 3), Fraction(-2, 3)),
], ids=["chebyshev-3rd-kind", "p=2", "q=3/4", "s=-1"])
def test_closed_form_recurrence_of_unequal_parameters(support, p, q):
    # the formulas cover p != q, checked against the moment algorithm
    measure = CompactMeasure(support, _jacobi_moments(support, p, q), jacobi=(p, q))
    assert _jacobi_recurrence(measure, 40) == _chebyshev_algorithm(measure, 40)


@pytest.mark.parametrize("measure", JACOBI_BUILTINS, ids=JACOBI_IDS)
def test_end_point_constants_equal_the_grid_bit_for_bit(measure):
    seq = OrthoPolySequence(measure, 121)
    ends = christoffel_ends(seq, 120)
    assert ends[0] == 1.0
    assert [christoffel_sup(seq, n) for n in range(1, 121)] == ends[1:]


def test_end_point_constants_are_the_closed_forms():
    # sqrt of sum (k + 1)^2, of sum (2k + 1) = (n + 1)^2 and of 1 + 2n
    for name, closed in (("semicircle", lambda n: (n + 1) * (n + 2) * (2 * n + 3) / 6),
                         ("lebesgue", lambda n: (n + 1) ** 2), ("cosine", lambda n: 2 * n + 1)):
        ends = christoffel_ends(OrthoPolySequence(CompactMeasure.builtin(name), 61), 60)
        assert ends == pytest.approx([math.sqrt(closed(n)) for n in range(61)], rel=1e-13)
