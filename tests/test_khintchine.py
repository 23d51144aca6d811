"""Tests for unfolding norms, the kh bracket, and the norm inequality."""

import math

import numpy as np
import pytest

from conftest import m2_tr, two_factor
from freedecay.fock import shared_fock
from freedecay.khintchine import (
    HomogeneousWordElement,
    assemble_rank_one_blocks,
    kh_bracket,
    rx_check,
    sr_hs_norm,
    sr_norm,
    tr_bracket,
    weak_cs_bound,
)


def _ambient():
    return two_factor(m2_tr(), m2_tr())


def _single_word(ambient, pattern, idx, coeff=1.0):
    return HomogeneousWordElement(ambient, len(pattern), {(pattern, idx): coeff})


# ---------------------------------------------------------------------------
# s_r
# ---------------------------------------------------------------------------


def test_sr_norm_single_word_is_coeff_modulus():
    amb = _ambient()
    x = _single_word(amb, (0, 1, 0), (1, 2, 0), coeff=-2.5 + 1j)
    for r in range(4):
        assert sr_norm(x, r) == pytest.approx(abs(-2.5 + 1j))


def test_sr_norm_identity_matricization():
    # coefficients forming a 2x2 identity across the cut r=1:
    # spectral norm 1 but l2 norm sqrt(2)
    amb = _ambient()
    coeffs = {
        ((0, 1), (0, 0)): 1.0,
        ((0, 1), (1, 1)): 1.0,
    }
    x = HomogeneousWordElement(amb, 2, coeffs)
    assert sr_norm(x, 1) == pytest.approx(1.0)
    assert x.l2_norm() == pytest.approx(math.sqrt(2.0))


def test_sr_transpose_symmetry():
    rng = np.random.default_rng(0)
    amb = _ambient()
    x = HomogeneousWordElement.random(amb, 3, rng)
    # reversing all words transposes the unfolding: norm at r equals norm of
    # the reversed element at length - r
    reversed_coeffs = {
        (tuple(reversed(p)), tuple(reversed(i))): c for (p, i), c in x.coeffs.items()
    }
    y = HomogeneousWordElement(amb, 3, reversed_coeffs)
    for r in range(4):
        assert sr_norm(x, r) == pytest.approx(sr_norm(y, 3 - r), abs=1e-10)


def test_sr_hs_identity_is_exact():
    rng = np.random.default_rng(1)
    amb = _ambient()
    for ell in (1, 2, 3):
        x = HomogeneousWordElement.random(amb, ell, rng)
        l2 = x.l2_norm()
        for r in range(ell + 1):
            assert sr_hs_norm(x, r) == l2


def test_sr_norm_below_l2():
    rng = np.random.default_rng(2)
    amb = _ambient()
    for ell in (1, 2, 3):
        x = HomogeneousWordElement.random(amb, ell, rng)
        for r in range(ell + 1):
            assert sr_norm(x, r) <= x.l2_norm() + 1e-10


def test_scaling_homogeneity():
    rng = np.random.default_rng(3)
    amb = _ambient()
    x = HomogeneousWordElement.random(amb, 2, rng)
    y = x.scaled(-3.5j)
    for r in range(3):
        assert sr_norm(y, r) == pytest.approx(3.5 * sr_norm(x, r))
    lo1, up1 = kh_bracket(x)
    lo2, up2 = kh_bracket(y)
    assert lo2 == pytest.approx(3.5 * lo1, rel=1e-6)
    assert up2 == pytest.approx(3.5 * up1, rel=1e-6)


# ---------------------------------------------------------------------------
# t_r
# ---------------------------------------------------------------------------


def test_tr_single_letter_both_bounds_are_letter_norm():
    amb = _ambient()
    x = _single_word(amb, (0,), (1,), coeff=2.0)
    from freedecay.algebra import op_norm

    letter_norm = 2.0 * op_norm(x.onb[0][1])
    b = tr_bracket(x, 1)
    assert b.single_factor
    assert b.upper == pytest.approx(letter_norm, abs=1e-9)
    assert b.lower == pytest.approx(letter_norm, abs=1e-9)


def test_tr_lower_below_upper_random():
    rng = np.random.default_rng(4)
    amb = _ambient()
    fock = shared_fock(amb.factors, 4)
    for ell in (1, 2, 3):
        x = HomogeneousWordElement.random(amb, ell, rng)
        for r in range(1, ell + 1):
            b = tr_bracket(x, r, fock=fock)
            assert b.lower <= b.upper + 1e-8
            assert b.upper <= b.weak_cs + 1e-9


def test_tr_single_middle_factor_exact():
    # all middle letters from one factor: lower == upper
    rng = np.random.default_rng(5)
    amb = _ambient()
    fock = shared_fock(amb.factors, 4)
    for _ in range(5):
        coeffs = {}
        for i0 in range(3):
            for i1 in range(3):
                for i2 in range(3):
                    coeffs[((0, 1, 0), (i0, i1, i2))] = complex(
                        rng.standard_normal(), rng.standard_normal()
                    )
        x = HomogeneousWordElement(amb, 3, coeffs)
        b = tr_bracket(x, 2, fock=fock)  # middle letter always factor 1
        assert b.single_factor
        assert b.lower == pytest.approx(b.upper, rel=1e-7)


# ---------------------------------------------------------------------------
# kh bracket and the norm inequality
# ---------------------------------------------------------------------------


def test_kh_bracket_orders():
    rng = np.random.default_rng(6)
    amb = _ambient()
    fock = shared_fock(amb.factors, 4)
    for ell in (1, 2):
        x = HomogeneousWordElement.random(amb, ell, rng)
        lo, up = kh_bracket(x, fock=fock)
        assert lo <= up + 1e-9
        assert lo >= x.l2_norm() - 1e-9  # s_0 already equals the l2 norm


def test_rx_check_single_unitary_like_letter():
    amb = _ambient()
    x = _single_word(amb, (0,), (0,), coeff=1.0)
    report = rx_check(x)
    assert report.ok
    assert report.kh_upper >= x.l2_norm() - 1e-12
    assert report.bound == pytest.approx(4 * report.kh_upper)


def test_rx_check_builds_each_bracket_once(monkeypatch):
    import freedecay.khintchine as kh

    calls = []

    def counted(x, r, fock=None):
        calls.append(r)
        return tr_bracket(x, r, fock=fock)

    monkeypatch.setattr(kh, "tr_bracket", counted)
    x = HomogeneousWordElement.random(_ambient(), 2, np.random.default_rng(14))
    assert rx_check(x).ok
    assert calls == [1, 2]


@pytest.fixture
def built_spaces(monkeypatch):
    """The spaces that shared_fock builds during a test, from an empty cache."""
    import freedecay.fock as fk

    built = []

    class Recording(fk.TruncatedFock):
        def __init__(self, factors, depth):
            super().__init__(factors, depth)
            built.append(self)

    monkeypatch.setattr(fk, "TruncatedFock", Recording)
    shared_fock.cache_clear()
    yield built
    shared_fock.cache_clear()


def test_rx_check_caches_only_basis_vector_operators(built_spaces):
    amb = _ambient()
    rng = np.random.default_rng(15)
    for ell in (1, 2):
        assert rx_check(HomogeneousWordElement.random(amb, ell, rng)).ok
    spaces = {f.depth: f for f in built_spaces}
    # depth 4 serves both norm bounds and the brackets; depth 2 holds the
    # moment vectors of the length-1 sample (r_max * l = 2)
    assert sorted(spaces) == [2, 4]
    assert len(spaces[4]._onb_ops) == 2
    for f in spaces.values():
        for j, ops in f._onb_ops.items():
            assert len(ops) == f.factors[j].dim - 1


def test_rx_check_builds_no_space_beyond_its_depth(built_spaces):
    rng = np.random.default_rng(16)
    for ell in (1, 2):
        assert rx_check(HomogeneousWordElement.random(_ambient(), ell, rng)).ok
    assert [f.depth for f in built_spaces] == [4, 2]


def test_tr_bracket_rejects_a_fock_of_other_factors():
    from freedecay.algebra import AlgebraError, MatrixBlockAlgebra
    from freedecay.fock import build_fock

    x = _single_word(_ambient(), (0, 1), (0, 2))
    other = build_fock((m2_tr(), MatrixBlockAlgebra.matrix_with_trace(3)), 2)
    with pytest.raises(AlgebraError):
        tr_bracket(x, 1, fock=other)


def test_rx_check_random_sweep():
    rng = np.random.default_rng(7)
    amb = _ambient()
    for ell in (1, 2, 3):
        for _ in (0, 1):
            x = HomogeneousWordElement.random(amb, ell, rng)
            report = rx_check(x)
            assert report.margin >= -1e-9, (ell, report)
            assert report.sr_ok and report.hs_identity_ok and report.weak_cs_ok


# ---------------------------------------------------------------------------
# rank-one block inequality
# ---------------------------------------------------------------------------


def test_weak_cs_inequality_random_blocks():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n_rows = int(rng.integers(1, 4))
        n_cols = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        blocks = {}
        for i in range(n_rows):
            for j in range(n_cols):
                if rng.random() < 0.7:
                    blocks[(i, j)] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if not blocks:
            continue
        assembled = assemble_rank_one_blocks(n_rows, n_cols, blocks)
        lhs = float(np.linalg.norm(assembled, 2))
        assert lhs <= weak_cs_bound(blocks) + 1e-9
