"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned here and nowhere else.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    m2_tr,
    pauli_unitaries,
    random_alternating_word,
    two_factor,
)
from freedecay.algebra import MatrixBlockAlgebra, dn_norm, onb_complement
from freedecay.cli import run
from freedecay.fock import moment_norm_estimate, vacuum_expectation
from freedecay.freeword import (
    FreeElement,
    FreeProductAmbient,
    avitzour_phi,
    avitzour_shape_check,
    conjugation_word_shape,
    free_state,
    l2_inner_free,
    three_factor_ambient,
)
from freedecay.khintchine import (
    HomogeneousWordElement,
    assemble_rank_one_blocks,
    rx_check,
    sr_hs_norm,
    weak_cs_bound,
)
from freedecay.measure import CompactMeasure, ortho_polys, sup_norm_poly
from freedecay.rdcert import classify_abelian, degree_filtration, rd_report


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Chebyshev bound for the semicircle polynomials
# ---------------------------------------------------------------------------


def test_criterion_01_chebyshev_bound():
    seq = ortho_polys(CompactMeasure.semicircle(), 51)
    worst_low, worst_high = 0.0, 0.0
    for n in range(1, 51):
        est = float(sup_norm_poly(seq, n))
        worst_low = max(worst_low, (n + 1) - est)
        worst_high = max(worst_high, est - (n + 1))
        if not (n + 1 - 1e-6 <= est <= n + 1):
            _report("1 (Chebyshev bound)", False, f"n={n}: estimate {est}")
    residual_ok = True
    for n in range(1, 50):
        p_prev = seq.monic_coefficients(n - 1)
        p_cur = [Fraction(0)] + list(seq.monic_coefficients(n))
        p_next = seq.monic_coefficients(n + 1)
        residual = list(p_next)
        for i, c in enumerate(p_cur):
            residual[i] -= c
        for i, c in enumerate(seq.monic_coefficients(n - 1)):
            residual[i] += c
        if any(c != 0 for c in residual):
            residual_ok = False
            break
    _report(
        "1 (Chebyshev bound)",
        residual_ok,
        f"n<=50 sup norms inside [n+1-1e-6, n+1] (max defect {worst_low:.2e}); "
        f"recurrence residuals exactly 0: {residual_ok}",
    )


# ---------------------------------------------------------------------------
# 2. Legendre bound
# ---------------------------------------------------------------------------


def test_criterion_02_legendre_bound():
    seq = ortho_polys(CompactMeasure.lebesgue(), 51)
    worst_q = 0.0
    worst_p = 0.0
    for n in range(1, 51):
        est = float(sup_norm_poly(seq, n))
        target = math.sqrt(2 * n + 1)
        worst_q = max(worst_q, abs(est - target))
        worst_p = max(worst_p, est / target)
        if abs(est - target) > 1e-6:
            _report("2 (Legendre bound)", False, f"n={n}: |Q_n| estimate {est} vs {target}")
        if est / target > 1 + 1e-9:
            _report("2 (Legendre bound)", False, f"n={n}: |P_n| estimate above 1+1e-9")
    _report(
        "2 (Legendre bound)",
        True,
        f"n<=50: ||Q_n|| = sqrt(2n+1) within {worst_q:.2e}; ||P_n|| <= 1+1e-9",
    )


# ---------------------------------------------------------------------------
# 3. fitted RD exponents
# ---------------------------------------------------------------------------


def test_criterion_03_rd_exponents():
    semi = rd_report(degree_filtration(CompactMeasure.semicircle(), 40), 40)
    leb = rd_report(degree_filtration(CompactMeasure.lebesgue(), 40), 40)
    ok_semi = 1.4 <= semi.alpha_hat <= 1.6
    ok_leb = 0.95 <= leb.alpha_hat <= 1.05
    dims_ok = all(d == n + 1 for (n, _lo, _up, d) in semi.rows) and all(
        d == n + 1 for (n, _lo, _up, d) in leb.rows
    )
    constants_ok = all(up > 0 and np.isfinite(up) for (_n, _lo, up, _d) in semi.rows + leb.rows)
    ok = ok_semi and ok_leb and dims_ok and constants_ok
    _report(
        "3 (RD exponents)",
        ok,
        f"semicircle alpha={semi.alpha_hat:.4f} in [1.4,1.6]; "
        f"lebesgue alpha={leb.alpha_hat:.4f} in [0.95,1.05]; dims linear, constants finite",
    )


# ---------------------------------------------------------------------------
# 4. freeness oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_04_freeness_oracle():
    amb = two_factor(
        m2_tr(), MatrixBlockAlgebra.from_weights([Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)])
    )
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(500):
        length = int(rng.integers(1, 7))
        x = random_alternating_word(amb, length, rng, centered=False)
        if free_state(x) != vacuum_expectation(x):
            mismatches += 1
    _report(
        "4 (freeness oracle)",
        mismatches == 0,
        f"500 rational words length<=6: symbolic state == vacuum pairing exactly "
        f"({mismatches} mismatches)",
    )


# ---------------------------------------------------------------------------
# 5. conjugation identities
# ---------------------------------------------------------------------------


def test_criterion_05_avitzour_identities():
    alg = m2_tr()
    u, v, w = pauli_unitaries(alg)
    amb3 = three_factor_ambient(alg, alg)
    amb2 = FreeProductAmbient((alg, alg))
    rng = np.random.default_rng(52)
    bad_trace = bad_iso = bad_shape = bad_length = 0
    unitaries = [v, alg.element([[[-1, 0], [0, 1]]])]
    for trial in range(200):
        ell = int(rng.integers(1, 5))
        x3 = random_alternating_word(amb3, ell, rng, centered=True)
        n_tr = ell // 2 + 1
        img = avitzour_phi(n_tr, u, v, w, x3)
        if free_state(img) != free_state(x3):
            bad_trace += 1
        n_iso = ell + 1
        img = avitzour_phi(n_iso, u, v, w, x3)
        if l2_inner_free(img, img) != l2_inner_free(x3, x3):
            bad_iso += 1
        x2 = random_alternating_word(amb2, ell, rng, centered=True)
        for mode in ("i", "ii", "iii"):
            if not avitzour_shape_check(n_tr, u, v, w, x2, mode).ok:
                bad_shape += 1
        lengths = set()
        for conj_u in unitaries:
            _, p = conjugation_word_shape(conj_u, x3)
            if p > 3 * ell + 2:
                bad_length += 1
            lengths.add(p)
        if len(lengths) != 1:
            bad_length += 1
    ok = bad_trace == bad_iso == bad_shape == bad_length == 0
    _report(
        "5 (conjugation identities)",
        ok,
        "200 words length<=4: trace identity exact (n>l/2), l2 isometry exact (n>l), "
        f"guarded shapes pass, conjugated length <= 3l+2 "
        f"[violations: trace={bad_trace} iso={bad_iso} shape={bad_shape} length={bad_length}]",
    )


# ---------------------------------------------------------------------------
# 6. Khintchine-type upper bound
# ---------------------------------------------------------------------------


def _rx_samples():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(66)
    samples = []
    for ell, count in ((1, 17), (2, 17), (3, 16)):
        for _ in range(count):
            samples.append(HomogeneousWordElement.random(amb, ell, rng))
    return samples


@pytest.fixture(scope="module")
def rx_reports():
    return [(x, rx_check(x, moment_rmax=2)) for x in _rx_samples()]


def test_criterion_06_rx_upper_bound(rx_reports):
    worst_margin = min(r.margin for _x, r in rx_reports)
    hs_exact = all(
        sr_hs_norm(x, r) == x.l2_norm() for x, _rep in rx_reports for r in range(x.length + 1)
    )
    sr_ok = all(rep.sr_ok for _x, rep in rx_reports)
    rng = np.random.default_rng(166)
    cs_bad = 0
    for _ in range(100):
        n_rows, n_cols, d = (int(rng.integers(1, 4)) for _ in range(3))
        blocks = {
            (i, j): rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for i in range(n_rows)
            for j in range(n_cols)
            if rng.random() < 0.8
        }
        if not blocks:
            continue
        assembled = assemble_rank_one_blocks(n_rows, n_cols, blocks)
        if float(np.linalg.norm(assembled, 2)) > weak_cs_bound(blocks) + 1e-9:
            cs_bad += 1
    ok = worst_margin >= 0 and hs_exact and sr_ok and cs_bad == 0
    _report(
        "6 (norm upper bound)",
        ok,
        f"50 samples l in {{1,2,3}}: min margin {worst_margin:.4f} >= 0; "
        f"HS identity exact: {hs_exact}; block inequality violations: {cs_bad}/100",
    )


# ---------------------------------------------------------------------------
# 7. layer estimate
# ---------------------------------------------------------------------------


def test_criterion_07_layer_estimate(rx_reports):
    amb = two_factor(m2_tr(), m2_tr())
    constants = [dn_norm(onb_complement(f)) for f in amb.factors]
    cmax = max(constants)
    m = len(amb.factors)
    worst = math.inf
    for x, rep in rx_reports:
        bound = 2 * math.sqrt(m) * (x.length + 1) * cmax * x.l2_norm()
        worst = min(worst, bound - rep.norm_lb)
    _report(
        "7 (layer estimate)",
        worst >= 0,
        f"same 50 samples: min margin {worst:.4f} >= 0 with factor constants "
        f"{[round(c, 6) for c in constants]}",
    )


# ---------------------------------------------------------------------------
# 8. Kesten-type convergence
# ---------------------------------------------------------------------------


def test_criterion_08_kesten_convergence():
    n_atoms = 24
    alg = MatrixBlockAlgebra.from_weights([Fraction(1, n_atoms)] * n_atoms)
    omega = [complex(np.exp(2j * np.pi * k / n_atoms)) for k in range(n_atoms)]
    u = alg.element([[[z]] for z in omega])
    amb = two_factor(alg, alg)
    x = (
        FreeElement.letter(amb, 0, u)
        + FreeElement.letter(amb, 0, u.adjoint())
        + FreeElement.letter(amb, 1, u)
        + FreeElement.letter(amb, 1, u.adjoint())
    )
    est = moment_norm_estimate(x, 12)
    bests = [row[4] for row in est.rows]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(bests, bests[1:]))
    s12 = est.best_at(12)
    # oracle: closed walks on the 4-regular tree + 4 straight wraps at 24
    f = {0: 1}
    walks = {}
    for step in range(1, 25):
        g = {}
        for h, c in f.items():
            g[h + 1] = g.get(h + 1, 0) + c * (4 if h == 0 else 3)
            if h > 0:
                g[h - 1] = g.get(h - 1, 0) + c
        f = g
        if step % 2 == 0:
            walks[step] = f.get(0, 0)
    oracle_ok = all(
        abs(complex(q).real - (walks[2 * r] + (4 if 2 * r == 24 else 0)))
        <= 1e-9 * walks[2 * r]
        for (r, q, *_rest) in est.rows
    )
    ok = 3.2 <= s12 <= 4.0 and nondecreasing and oracle_ok
    _report(
        "8 (Kesten convergence)",
        ok,
        f"s_12 = {s12:.4f} in [3.2, 4.0] (target 2*sqrt(3) = {2 * math.sqrt(3):.4f}); "
        f"nondecreasing: {nondecreasing}; tree-walk oracle match: {oracle_ok}",
    )


# ---------------------------------------------------------------------------
# 9. classification truth table
# ---------------------------------------------------------------------------


def _weight_tuples(max_dim, max_den):
    values = sorted(
        {Fraction(p, q) for q in range(1, max_den + 1) for p in range(1, q + 1)},
        reverse=True,
    )

    def rec(remaining, max_allowed, parts):
        if remaining == 0:
            yield tuple(parts)
            return
        if len(parts) == max_dim:
            return
        for v in values:
            if v > max_allowed or v > remaining:
                continue
            parts.append(v)
            yield from rec(remaining - v, v, parts)
            parts.pop()

    yield from rec(Fraction(1), Fraction(1), [])


def test_criterion_09_classification_truth_table():
    examples = [
        (([Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2), False),
        (([Fraction(1, 3)] * 3, [Fraction(1, 2)] * 2), True),
        (
            (
                [Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)],
                [Fraction(1, 2), Fraction(1, 2)],
            ),
            False,
        ),
    ]
    for (wa, wb), want in examples:
        got = classify_abelian(wa, wb).selfless
        if got != want:
            _report("9 (classification)", False, f"example {wa} * {wb}: got {got}")
    tuples = list(_weight_tuples(4, 6))
    discrepancies = 0
    checked = 0
    for wa, wb in itertools.product(tuples, repeat=2):
        verdict = classify_abelian(wa, wb).selfless
        predicate = (len(wa) + len(wb) >= 5) and (max(wa) + max(wb) < 1)
        checked += 1
        if verdict != predicate:
            discrepancies += 1
    _report(
        "9 (classification)",
        discrepancies == 0,
        f"3 named examples plus exhaustive sweep over {len(tuples)} weight tuples "
        f"({checked} pairs, denominators<=6, dims<=4): {discrepancies} discrepancies",
    )


# ---------------------------------------------------------------------------
# 10. determinism of seeded runs
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    pairs = []
    for name, argv in (
        ("rd-certify", ["rd-certify", "--builtin", "semicircle", "--max-n", "12", "--seed", "9"]),
        ("kh-norm", ["kh-norm", "--length", "1", "--trials", "3", "--seed", "9"]),
        ("avitzour-check", ["avitzour-check", "--trials", "3", "--lmax", "2", "--seed", "9"]),
    ):
        out1 = tmp_path / f"{name}-1.csv"
        out2 = tmp_path / f"{name}-2.csv"
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        pairs.append((name, out1.read_bytes() == out2.read_bytes()))
    ok = all(same for _n, same in pairs)
    _report(
        "10 (determinism)",
        ok,
        "bit-identical reruns: " + ", ".join(f"{n}={s}" for n, s in pairs),
    )
