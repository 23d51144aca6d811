"""Tests for filtrations, RD certificates, triples, and the classifier."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import c3_weighted, m2_tr, m3_non_diagonal
from freedecay.algebra import (
    AlgebraError,
    MatrixBlockAlgebra,
    onb_complement,
    op_norm,
    state,
)
from freedecay import rdcert
from freedecay.compressed import FreeProductFiltration, TruncatedFock
from freedecay.freeword import (
    AvitzourConditionError,
    FreeProductAmbient,
    Letter,
    avitzour_phi,
    avitzour_shape_check,
    check_avitzour_conditions,
    free_state,
    l2_inner_free,
    random_alternating_word,
    three_factor_ambient,
)
from freedecay import measure
from freedecay.measure import CompactMeasure
from freedecay.rdcert import (
    ConstantFiltration,
    FiniteDimFiltration,
    MeasureDegreeFiltration,
    classify_abelian,
    find_avitzour_triple,
    fit_exponent,
    orthogonality_hypotheses,
    rd_report,
    _zero_mean_phases,
    verify_avitzour_triple,
)
from freedecay.scalars import FLOAT_RTOL, FLOAT_ZERO, QC, agree, negligible


# ---------------------------------------------------------------------------
# constants and exponents
# ---------------------------------------------------------------------------


def test_constant_filtration_rd_constant():
    filt = ConstantFiltration(c3_weighted())
    assert filt.rd_constants([3])[0].upper == pytest.approx(math.sqrt(5.0), abs=1e-10)
    assert filt.rd_constants([0])[0].upper == 1.0


def _brackets(c, truth):
    # C_lower <= truth <= C_upper, each up to a relative FLOAT_RTOL
    return c.lower <= truth * (1 + FLOAT_RTOL) and truth <= c.upper * (1 + FLOAT_RTOL)


@pytest.mark.parametrize("algebra, truth", [
    (m2_tr(), math.sqrt(2)),
    (MatrixBlockAlgebra.matrix_with_state([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]), math.sqrt(6)),
], ids=["m2-tr", "m3-weighted"])
def test_non_abelian_constant_levels_bracket_the_truth(algebra, truth):
    # sup ||a|| / ||a||_2 over all of A is 1 / sqrt(lambda_min), attained at a
    # matrix unit; dn_norm reads 2 and sqrt(11) here, so it is no lower bound
    for n in (1, 2, 5):
        (c,) = ConstantFiltration(algebra).rd_constants([n])
        assert c.method == "bracket" and c.lower < c.upper
        assert _brackets(c, truth)
        assert c.lower == pytest.approx(truth, rel=FLOAT_RTOL)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=3), min_size=1, max_size=3))
def test_exact_diagonal_densities_bracket_one_over_sqrt_lambda_min(blocks):
    total = sum(sum(b) for b in blocks)
    diagonals = [[Fraction(w, total) for w in b] for b in blocks]
    algebra = MatrixBlockAlgebra([[[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
                                  for d in diagonals])
    truth = math.sqrt(1 / min(min(d) for d in diagonals))
    (c,) = ConstantFiltration(algebra).rd_constants([1])
    assert _brackets(c, truth)
    if algebra.dim == 1:  # V_1 = C1
        assert c.method == "exact" and c.lower == c.upper == 1.0
    elif algebra.is_abelian():
        assert c.method == "dn-certificate" and c.lower == c.upper
    else:
        assert c.method == "bracket"


def test_measure_filtration_semicircle_constant():
    filt = MeasureDegreeFiltration(CompactMeasure.semicircle())
    assert filt.rd_constants([10])[0].upper == pytest.approx(math.sqrt(506.0), abs=1e-8)


def _moment_gram(measure, basis):
    """[integral p q dmu] over coefficient lists, from the measure's moments."""
    return [[sum(a * b * measure.moment(i + j) for i, a in enumerate(p) for j, b in enumerate(q))
             for q in basis] for p in basis]


def test_degree_level_bases_are_orthonormal_under_the_moments():
    semicircle = CompactMeasure.semicircle()
    onb = MeasureDegreeFiltration(semicircle).level_onb(6)
    assert len(onb) == 7 and all(isinstance(c, Fraction) for p in onb for c in p)
    assert _moment_gram(semicircle, onb) == [[int(i == j) for j in range(7)] for i in range(7)]
    # ||pi_k||^2 is mostly no rational square for Lebesgue: a mixed, mostly float basis
    lebesgue = CompactMeasure.lebesgue()
    gram = _moment_gram(lebesgue, MeasureDegreeFiltration(lebesgue).level_onb(6))
    assert all(abs(g - (i == j)) <= FLOAT_RTOL for i, row in enumerate(gram) for j, g in enumerate(row))


def test_fit_exponent_flat_is_zero():
    rows = [(n, 1.0) for n in range(0, 8)]
    slope, _ = fit_exponent(rows)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_exponent_requires_three_rows():
    with pytest.raises(ValueError):
        fit_exponent([(1, 1.0), (2, 2.0)])


def test_semicircle_exponent_three_halves():
    report = rd_report(MeasureDegreeFiltration(CompactMeasure.semicircle()), 40)
    assert 1.40 <= report.alpha_hat <= 1.60


def test_lebesgue_exponent_one():
    report = rd_report(MeasureDegreeFiltration(CompactMeasure.lebesgue()), 40)
    assert 0.95 <= report.alpha_hat <= 1.05


def _spy(monkeypatch, module, name):
    """Count the calls of ``module.name`` and pass them on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_custom_measures_keep_the_moment_algorithm_and_the_grid(monkeypatch):
    # the semicircle's own moments given as a custom measure get the grid,
    # here with the bits of the builtin's end-point path
    moments = [0 if k % 2 else math.comb(k, k // 2) // (k // 2 + 1) for k in range(30)]
    custom = CompactMeasure.from_json({"support": [-2, 2], "moments": moments})
    atoms = CompactMeasure.from_json({"atoms": [-1, "1/3", 2, 3], "weights": ["1/2", "1/4", "1/8", "1/8"]})
    builtin = MeasureDegreeFiltration(CompactMeasure.semicircle()).rd_constants(range(13))
    chebyshev = _spy(monkeypatch, measure, "_chebyshev_algorithm")
    grid = _spy(monkeypatch, measure, "_lobatto_grid")
    got = MeasureDegreeFiltration(custom).rd_constants(range(13))
    assert [c.method for c in got] == ["exact"] + ["christoffel-grid"] * 12
    assert [c.method for c in builtin] == ["exact"] + ["jacobi-endpoint"] * 12
    assert [(c.lower, c.upper) for c in got] == [(c.lower, c.upper) for c in builtin]
    assert [c.method for c in MeasureDegreeFiltration(atoms).rd_constants(range(4))] == [
        "exact"] + ["christoffel-grid"] * 3
    assert chebyshev and len(grid) == 12 + 3


@pytest.mark.parametrize("name", ["semicircle", "lebesgue", "lebesgue01", "cosine"])
def test_builtin_degree_filtrations_need_neither_moments_nor_grid(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("called on a builtin")

    monkeypatch.setattr(measure, "_chebyshev_algorithm", refuse)
    monkeypatch.setattr(measure, "_lobatto_grid", refuse)
    filt = MeasureDegreeFiltration(CompactMeasure.builtin(name))
    report = rd_report(filt, 60)
    assert filt.rd_constants([60])[0] == filt.rd_constants(range(61))[60]
    assert filt.rd_constants([60])[0].upper == report.rows[60][2]


@pytest.mark.parametrize("space, recurrence", [
    ({"builtin": "semicircle"}, "_jacobi_recurrence"),
    ({"support": [-2, 2], "moments": [0 if k % 2 else math.comb(k, k // 2) // (k // 2 + 1) for k in range(30)]},
     "_chebyshev_algorithm"),
    ({"atoms": list(range(12))}, "_chebyshev_algorithm"),
], ids=["builtin", "custom-moments", "atoms"])
def test_degree_filtrations_build_one_table_through_the_top_degree(monkeypatch, space, recurrence):
    # level_onb(n) reads p_0..p_n and rd_constants reads through max(levels):
    # one recurrence call each, for n + 1 and max(levels) + 1 pairs
    calls = {name: _spy(monkeypatch, measure, name) for name in ("_chebyshev_algorithm", "_jacobi_recurrence")}
    filt = MeasureDegreeFiltration(CompactMeasure.from_json(space))
    filt.level_onb(7)
    assert [n for _, n in calls[recurrence]] == [8]
    filt.rd_constants([0, 2, 9, 5])
    assert [n for _, n in calls[recurrence]] == [8, 10]
    assert sum(map(len, calls.values())) == 2


def test_rd_constant_monotone():
    report = rd_report(MeasureDegreeFiltration(CompactMeasure.semicircle()), 12)
    uppers = [row[2] for row in report.rows]
    assert all(b >= a - 1e-12 for a, b in zip(uppers, uppers[1:]))


# ---------------------------------------------------------------------------
# one door for RD constants: Filtration.rd_constants
# ---------------------------------------------------------------------------


def _semicircle_moments(count):
    return [0 if k % 2 else math.comb(k, k // 2) // (k // 2 + 1) for k in range(count)]


def _spans_filtration():
    alg = m2_tr()
    return FiniteDimFiltration.from_spans(alg, [[], [alg.element([[[1, 0], [0, -1]]])], alg.basis()])


_ONE_DOOR = {
    "constant": (lambda: ConstantFiltration(c3_weighted()), 5),
    "from_spans": (_spans_filtration, 5),
    "builtin": (lambda: MeasureDegreeFiltration(CompactMeasure.semicircle()), 13),
    "custom-moments": (lambda: MeasureDegreeFiltration(CompactMeasure.from_json(
        {"support": [-2, 2], "moments": _semicircle_moments(30)})), 13),
    "atoms": (lambda: MeasureDegreeFiltration(CompactMeasure.from_json(
        {"atoms": [-1, "1/3", 2, 3], "weights": ["1/2", "1/4", "1/8", "1/8"]})), 4),
    "free-product": (lambda: FreeProductFiltration([ConstantFiltration(_c2()), ConstantFiltration(c3_weighted())],
                                                   probe_seed=7), 5),
}


@pytest.mark.parametrize("kind", list(_ONE_DOOR))
def test_level_zero_is_exact_and_levels_keep_their_bits_alone(kind):
    make, k = _ONE_DOOR[kind]
    assert make().rd_constants([0]) == [rdcert.RdConstant(1.0, 1.0, "exact")]
    together = make().rd_constants(range(k))
    alone = [make().rd_constants([n])[0] for n in range(k)]
    assert repr(together) == repr(alone)
    assert make().rd_constants([]) == []


@pytest.mark.parametrize("make", [
    CompactMeasure.semicircle,
    lambda: CompactMeasure.from_json({"support": [-2, 2], "moments": _semicircle_moments(122)}),
], ids=["builtin", "custom-moments"])
def test_degree_filtration_takes_its_levels_from_each_call(make):
    filt = MeasureDegreeFiltration(make())
    filt.rd_constants([3])
    assert repr(filt.rd_constants([60])) == repr(MeasureDegreeFiltration(make()).rd_constants([60]))


# ---------------------------------------------------------------------------
# generic finite-dimensional filtrations
# ---------------------------------------------------------------------------


def test_finite_dim_filtration_star_stability_enforced():
    alg = m2_tr()
    e12 = alg.element([[[0, 1], [0, 0]]])
    with pytest.raises(AlgebraError):
        FiniteDimFiltration.from_spans(alg, [[], [e12]])


def test_constant_filtration_is_the_finite_dim_filtration_of_all_of_a():
    for alg in (m2_tr(), c3_weighted()):
        const = ConstantFiltration(alg)
        spans = FiniteDimFiltration.from_spans(alg, [[], alg.basis()])
        for n in range(4):
            assert const.rd_constants([n])[0].upper == spans.rd_constants([n])[0].upper
            # the identity first, so level_onb(n)[1:] spans the centred part
            for filt in (const, spans):
                assert op_norm(filt.level_onb(n)[0] - alg.identity()) <= 1e-12
        assert const.recipe == "constant" and spans.recipe == "finite-dim"


# ---------------------------------------------------------------------------
# free-product filtration
# ---------------------------------------------------------------------------


def _c2():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 2)])


def test_free_filtration_level_dims():
    filt = FreeProductFiltration([ConstantFiltration(_c2()), ConstantFiltration(_c2())])
    assert filt.level_dim(0) == 1
    assert filt.level_dim(2) == 5
    assert len(filt.level_onb(2)) == 5


def test_free_filtration_levels_orthonormal():
    filt = FreeProductFiltration([ConstantFiltration(_c2()), ConstantFiltration(m2_tr())])
    basis = filt.level_onb(2)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(complex(l2_inner_free(x, y)) - want) < 1e-10


def test_free_filtration_bracket_orders():
    filt = FreeProductFiltration(
        [ConstantFiltration(_c2()), ConstantFiltration(_c2())], probe_seed=1
    )
    for n in (1, 2, 3):
        (c,) = filt.rd_constants([n])
        assert 0 < c.lower <= c.upper + 1e-9
        assert c.method == "bracket"


def test_free_filtration_probes_match_summed_probes():
    c3 = MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)
    filt = FreeProductFiltration(
        [ConstantFiltration(_c2()), ConstantFiltration(c3)], probe_seed=4
    )
    n = 3
    basis = filt.level_onb(n)
    rng = np.random.default_rng(filt.probe_seed + n)
    flat = 1.0 / math.sqrt(len(basis))
    want = [sum((b * flat for b in basis[1:]), basis[0] * flat)]
    for _ in range(2):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        want.append(sum((b * complex(c) for b, c in zip(basis[1:], coeffs[1:])),
                        basis[0] * complex(coeffs[0])))
    words = filt._level_words(n)
    got = [[(word, complex(c)) for word, c in zip(words, p)] for p in filt._probes(n)]
    want = [list(p.terms.items()) for p in want]
    assert got == want
    assert [[repr(c) for _, c in p] for p in got] == [[repr(c) for _, c in p] for p in want]


def test_free_filtration_refuses_non_constant_factors():
    # levels are read off the truncated space, whose letters are the factors'
    # own centred complement bases: an uncentred level and a centred
    # from_spans factor are both refused when the filtration is built
    alg = _c2()
    one, x = alg.identity(), alg.element([[[1]], [[0]]])
    assert not negligible(state(x))
    c3 = MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)
    spans = _spans_filtration()
    assert all(negligible(state(b)) for n in range(3) for b in spans.level_onb(n)[1:])
    for factor in (FiniteDimFiltration(alg, [[one], [one, x]]), spans):
        with pytest.raises(AlgebraError, match="constant factor filtrations"):
            FreeProductFiltration([factor, ConstantFiltration(c3)])
    for algebras in ((_c2(), c3), (m2_tr(), c3_weighted()),
                     (m2_tr(), MatrixBlockAlgebra.from_weights([0.25, 0.75]))):
        filt = FreeProductFiltration([ConstantFiltration(a) for a in algebras])
        for n in range(4):
            assert len(filt._level_words(n)) == filt.level_dim(n)


def _bfs_level_words(algebras, n):
    """Every alternating word of length <= n over the complement bases, by
    length, then factor and basis order slot by slot: the enumeration the
    truncated space's tensors must reproduce."""
    letters = [[Letter(j, xi) for xi in onb_complement(a)] for j, a in enumerate(algebras)]
    out = [()]
    frontier = [((), None)]
    for _ in range(n):
        frontier = [(word + (letter,), j) for word, last in frontier
                    for j in range(len(algebras)) if j != last for letter in letters[j]]
        out += [word for word, _ in frontier]
    return out


@pytest.mark.parametrize("algebras, counts", [
    (lambda: (_c2(), _c2(), MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)), [1, 5, 15, 41, 107]),
    (lambda: (m2_tr(), m3_non_diagonal()), [1, 12, 60, 324, 1476]),
    (lambda: (MatrixBlockAlgebra.from_weights([0.25, 0.75]), m2_tr()), [1, 5, 11, 23, 41]),
], ids=["C2*C2*C3", "M2*M3", "float C2*M2"])
def test_free_filtration_levels_are_prefixes_of_the_fock_enumeration(algebras, counts):
    algebras = algebras()
    filt = FreeProductFiltration([ConstantFiltration(a) for a in algebras])
    onbs = [onb_complement(a) for a in algebras]
    for n, count in enumerate(counts):
        words = filt._level_words(n)
        want = _bfs_level_words(algebras, n)
        assert len(words) == len(want) == filt.level_dim(n) == count
        for word, ref in zip(words, want):
            assert len(word) == len(ref)
            for letter, other in zip(word, ref):
                assert letter.factor == other.factor and letter.payload is other.payload
                assert any(letter.payload is xi for xi in onbs[letter.factor])
        if n < len(counts) - 1:
            assert filt._level_words(n + 1)[:filt.level_dim(n)] == words
    # one words(k) call: a single Letter object per slot vector in every word
    fock = TruncatedFock(filt.ambient.factors, len(counts) - 1)
    seen = {}
    for word in fock.words(fock.dimension):
        for letter in word:
            assert seen.setdefault((letter.factor, id(letter.payload)), letter) is letter
    assert len(seen) == sum(map(len, onbs))


def test_free_filtration_lower_endpoint_keeps_its_depth():
    # level 5 of (M2, tr) * (M2, tr) must probe on the depth-6 space (dim
    # 2,185): on the depth-5 space its lower endpoint falls below level 4's
    filt = FreeProductFiltration([ConstantFiltration(m2_tr()), ConstantFiltration(m2_tr())])
    assert filt.rd_constants([5])[0].lower >= filt.rd_constants([4])[0].lower


def test_free_filtration_exponent_finite():
    filt = FreeProductFiltration(
        [ConstantFiltration(_c2()), ConstantFiltration(_c2())], probe_seed=2
    )
    report = rd_report(filt, 4)
    assert np.isfinite(report.alpha_hat)


# ---------------------------------------------------------------------------
# triples of unitaries with vanishing moments
# ---------------------------------------------------------------------------


def test_triple_for_m2_pair_is_exact_and_structured():
    f1 = m2_tr()
    f2 = m2_tr()
    triple = find_avitzour_triple(f1, f2, seed=0)
    assert triple is not None
    res = verify_avitzour_triple(triple.u, triple.v, triple.w)
    assert max(res.values()) == 0.0  # rational structured construction
    flip = [[0, 1], [1, 0]]
    assert triple.u == f1.element([flip])
    assert triple.w == f2.element([flip])
    assert triple.v == f2.element([[[1, 0], [0, -1]]])
    # the flip has state 0 for (2/3, 1/3) too, but it does not commute with
    # that density, and a u in its centralizer is diagonal: 2/3 > 1/2 rules
    # it out
    skew = MatrixBlockAlgebra.matrix_with_state([Fraction(2, 3), Fraction(1, 3)])
    assert find_avitzour_triple(skew, f2, seed=0) is None
    with pytest.raises(AvitzourConditionError) as exc:
        check_avitzour_conditions(skew.element([flip]), triple.v, triple.w)
    assert "u centralizer" in str(exc.value)


def test_triple_for_trivial_second_factor_is_none():
    f1 = m2_tr()
    f2 = MatrixBlockAlgebra.from_weights([1])
    assert find_avitzour_triple(f1, f2, seed=0) is None


def test_triple_for_m3_trace_uses_cube_roots():
    f = MatrixBlockAlgebra.matrix_with_trace(3)
    triple = find_avitzour_triple(f, f, seed=0)
    assert triple is not None
    res = verify_avitzour_triple(triple.u, triple.v, triple.w)
    assert max(res.values()) < 1e-12
    # v is the diagonal of cube roots of unity
    v_np = triple.v.to_numpy()[0]
    diag = np.diag(v_np)
    assert np.allclose(sorted(np.angle(diag)), sorted(np.angle(np.exp(2j * np.pi * np.arange(3) / 3))))


def test_triple_for_uniform_abelian_four_atoms_exact():
    f1 = MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4)
    triple = find_avitzour_triple(f1, f1, seed=0)
    assert triple is not None
    res = verify_avitzour_triple(triple.u, triple.v, triple.w)
    assert max(res.values()) == 0.0
    assert triple.v.is_exact() and triple.w.is_exact()


def test_triple_none_when_heavy_atom_blocks_unitaries():
    # max weight > 1/2: no state-zero unitary exists in the abelian algebra
    f1 = MatrixBlockAlgebra.from_weights([Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)])
    f2 = m2_tr()
    assert find_avitzour_triple(f2, f1, seed=0) is None  # v needs state zero in A2
    assert find_avitzour_triple(f1, f2, seed=0) is None  # u needs state zero in A1


def test_triple_general_weights_five_atoms():
    weights = [Fraction(6, 20), Fraction(5, 20), Fraction(4, 20), Fraction(3, 20), Fraction(2, 20)]
    f = MatrixBlockAlgebra.from_weights(weights)
    triple = find_avitzour_triple(f, f, seed=1)
    assert triple is not None
    res = verify_avitzour_triple(triple.u, triple.v, triple.w)
    assert max(res.values()) < 1e-9


def test_triple_three_nonuniform_atoms_is_none():
    # for three atoms the pair (v, w) forces uniform weights: the phase
    # matrix scaled by sqrt(weights) would have to be unitary
    weights = [Fraction(5, 12), Fraction(4, 12), Fraction(3, 12)]
    f = MatrixBlockAlgebra.from_weights(weights)
    assert find_avitzour_triple(f, f, seed=1) is None


def test_triple_heavy_atom_above_third_is_none():
    # a single atom above 1/3 contradicts the rank-3 projection diagonal
    weights = [Fraction(2, 5), Fraction(3, 10), Fraction(3, 20), Fraction(3, 20)]
    f = MatrixBlockAlgebra.from_weights(weights)
    assert find_avitzour_triple(f, f, seed=1) is None


def test_a_third_atom_whose_rest_does_not_split_is_decided_without_newton(monkeypatch):
    # max w = 1/3 exactly: a pair (v, w) exists iff the other atoms split
    # into two sets of weight 1/3, and 1/9, 8/27, 13/54, 1/54 do not
    def no_search(*args, **kwargs):
        raise AssertionError("the Newton search ran")

    monkeypatch.setattr(rdcert, "_newton_phases", no_search)
    weights = [Fraction(1, 3), Fraction(1, 9), Fraction(8, 27), Fraction(13, 54), Fraction(1, 54)]
    c2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2)] * 2)
    assert find_avitzour_triple(c2, MatrixBlockAlgebra.from_weights(weights), seed=0) is None


def test_a_third_atom_whose_rest_splits_has_a_triple():
    # 1/9 + 2/9 = 1/6 + 1/6 = 1/3
    weights = [Fraction(1, 3), Fraction(1, 9), Fraction(2, 9), Fraction(1, 6), Fraction(1, 6)]
    c2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2)] * 2)
    triple = find_avitzour_triple(c2, MatrixBlockAlgebra.from_weights(weights), seed=0)
    assert triple is not None
    assert max(verify_avitzour_triple(triple.u, triple.v, triple.w).values()) < 1e-9


def _entry_moves(x, moves):
    """x with one entry e replaced by move(e), for every entry and move."""
    for b, n in enumerate(x.owner.block_dims):
        for i, j, move in itertools.product(range(n), range(n), moves):
            blocks = [[list(row) for row in block] for block in x.blocks]
            blocks[b][i][j] = move(blocks[b][i][j])
            yield x.owner.element(blocks)


def test_check_and_verify_read_one_condition_list():
    # move one entry of u, v or w, or put another unitary in its place: the
    # check raises exactly when the verifier reports a residual above the
    # threshold of the data (0 exact, FLOAT_ZERO float), and the error names
    # the first such condition
    m2 = m2_tr()
    c4 = MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4)
    m3_weighted = MatrixBlockAlgebra.matrix_with_state([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    exact_moves = (lambda e: e + Fraction(1, 3), lambda e: e + Fraction(1, 10 ** 20), lambda e: e * QC(0, 1))
    float_moves = tuple(lambda e, d=d: complex(e) + d for d in (1e-3, 1e-11, 1e-20)) + tuple(
        lambda e, t=t: complex(e) * complex(math.cos(t), math.sin(t)) for t in (1e-3, 1e-14))
    cases = []
    for a1, a2 in ((m2, m2), (c4, c4), (m2, c4), (m3_weighted, m3_weighted)):
        triple = find_avitzour_triple(a1, a2, seed=0)
        assert all(x.is_exact() for x in (triple.u, triple.v, triple.w))
        cases.append((triple, exact_moves, 0.0))
    c5 = MatrixBlockAlgebra.from_weights([Fraction(k, 20) for k in (6, 5, 4, 3, 2)])
    f5 = MatrixBlockAlgebra.from_weights([0.2] * 5)
    for a1, a2 in ((f5, f5), (MatrixBlockAlgebra.matrix_with_trace(3),) * 2, (c5, c5), (m3_non_diagonal(), m2)):
        cases.append((find_avitzour_triple(a1, a2, seed=1), float_moves, FLOAT_ZERO))
    failed = set()
    for triple, moves, threshold in cases:
        elements = {"u": triple.u, "v": triple.v, "w": triple.w}
        # v in place of w gives tau(v*w) = 1; on a non-tracial state the
        # shift w in place of u misses the centralizer, as does w * w for v
        swaps = [{"w": triple.v}]
        if triple.u.owner == triple.w.owner:
            swaps += [{"u": triple.w}, {"v": triple.w * triple.w}]
        swaps += [{name: y} for name, x in elements.items() for y in _entry_moves(x, moves)]
        for swap in swaps:
            moved = dict(elements, **swap)
            res = verify_avitzour_triple(**moved)
            failing = [k for k, size in res.items() if size > threshold]
            try:
                check_avitzour_conditions(**moved)
            except AvitzourConditionError as exc:
                assert failing and exc.condition == failing[0], (swap, res)
                failed.add(exc.condition)
            else:
                assert not failing, (swap, res)
    assert failed == set(res)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=10))
def test_zero_mean_phases_exist_iff_no_atom_above_half(counts):
    # exact weights, and their float twins as float atoms store them
    exact = [QC(Fraction(c, sum(counts))) for c in counts]
    for weights in (exact, [complex(w) for w in exact]):
        phases = _zero_mean_phases(weights)
        assert (phases is None) == (2 * max(counts) > sum(counts))
        if phases is not None:
            assert all(abs(abs(complex(z)) - 1) < 1e-15 for z in phases)
            assert negligible(sum((w * z for w, z in zip(weights, phases)), QC(0)))


def _rotated_twin():
    # the density [[1/2, 1/6], [1/6, 1/2]] has eigenvalues 2/3 and 1/3
    sixth = Fraction(1, 6)
    return (MatrixBlockAlgebra([[[Fraction(1, 2), sixth], [sixth, Fraction(1, 2)]]]),
            MatrixBlockAlgebra.matrix_with_state([Fraction(2, 3), Fraction(1, 3)]))


def test_rotated_density_and_its_diagonal_twin_get_one_verdict():
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    rotated_m3 = MatrixBlockAlgebra([[[third, sixth, 0], [sixth, third, 0], [0, 0, third]]])
    diagonal_m3 = MatrixBlockAlgebra.matrix_with_state([Fraction(1, 2), sixth, third])
    # an eigenvalue 2/3 > 1/2 rules out u and v; (1/2, 1/6, 1/3) admits both
    for rotated, twin, found in (_rotated_twin() + (False,), (rotated_m3, diagonal_m3, True)):
        for other in (m2_tr(), MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4)):
            for pair, twin_pair in (((rotated, other), (twin, other)),
                                    ((other, rotated), (other, twin))):
                verdict = find_avitzour_triple(*pair, seed=0) is not None
                twin_verdict = find_avitzour_triple(*twin_pair, seed=0) is not None
                assert verdict == twin_verdict == found, pair


def _small_abelian_vectors():
    """Every abelian weight vector of at most 4 atoms with denominators <= 4."""
    return sorted({
        tuple(sorted(Fraction(c, d) for c in counts))
        for atoms in range(1, 5)
        for d in range(1, 5)
        for counts in itertools.combinations_with_replacement(range(1, d + 1), atoms)
        if sum(Fraction(c, d) for c in counts) == 1
    })


def test_float_atoms_get_the_verdicts_of_their_fraction_twins():
    tally = {}
    for wa, wb in itertools.product(_small_abelian_vectors(), repeat=2):
        exact = find_avitzour_triple(MatrixBlockAlgebra.from_weights(list(wa)),
                                     MatrixBlockAlgebra.from_weights(list(wb)), seed=0)
        floats = find_avitzour_triple(MatrixBlockAlgebra.from_weights([float(x) for x in wa]),
                                      MatrixBlockAlgebra.from_weights([float(x) for x in wb]),
                                      seed=0)
        assert (exact is None) == (floats is None), (wa, wb)
        selfless = classify_abelian(list(wa), list(wb)).selfless
        tally[floats is not None, selfless] = tally.get((floats is not None, selfless), 0) + 1
    assert tally == {(True, True): 8, (False, True): 6, (False, False): 35}


def test_every_found_triple_passes_the_conjugation_identities():
    # the identities on seeded words are an oracle independent of the
    # finder's own condition check; agree() is exact on exact triples
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    algebras = [
        m2_tr(),
        MatrixBlockAlgebra.matrix_with_state([Fraction(1, 2), third, sixth]),
        MatrixBlockAlgebra.matrix_with_state([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        MatrixBlockAlgebra([[[third, sixth, 0], [sixth, third, 0], [0, 0, third]]]),
        MatrixBlockAlgebra([[[third, 0], [0, sixth]], [[Fraction(1, 4), 0], [0, Fraction(1, 4)]]]),
        MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4),
        *_rotated_twin(),
    ]
    rng = np.random.default_rng(16)
    found = {"exact": 0, "float": 0, "non-tracial u": 0}
    for a1, a2 in itertools.product(algebras, repeat=2):
        triple = find_avitzour_triple(a1, a2, seed=0)
        if triple is None:
            continue
        u, v, w = triple.u, triple.v, triple.w
        exact = u.is_exact() and v.is_exact() and w.is_exact()
        found["exact" if exact else "float"] += 1
        found["non-tracial u"] += not a1.is_tracial()
        amb3, amb2 = three_factor_ambient(a1, a2), FreeProductAmbient((a1, a2))
        for _ in range(2):
            ell = int(rng.integers(1, 4))
            x3 = random_alternating_word(amb3, ell, rng)
            scale = abs(complex(l2_inner_free(x3, x3)))
            img = avitzour_phi(ell // 2 + 1, u, v, w, x3)
            assert agree(free_state(img), free_state(x3), math.sqrt(scale)), (a1, a2)
            img = avitzour_phi(ell + 1, u, v, w, x3)
            assert agree(l2_inner_free(img, img), l2_inner_free(x3, x3), scale), (a1, a2)
            x2 = random_alternating_word(amb2, ell, rng)
            for mode in ("i", "ii", "iii"):
                assert avitzour_shape_check(ell // 2 + 1, u, v, w, x2, mode).ok, (a1, a2, mode)
    assert all(found.values()), found


# ---------------------------------------------------------------------------
# almost-orthogonality hypothesis report
# ---------------------------------------------------------------------------


def test_hypotheses_commuting_unitary_containment_zero():
    alg = MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4)
    from freedecay.algebra import onb_complement

    comp = onb_complement(alg)
    u = alg.element([[[1]], [[-1]], [[1]], [[-1]]])
    report = orthogonality_hypotheses(comp, u, comp)
    assert report.containment_l2 < 1e-10
    assert report.containment_op < 1e-10


def test_hypotheses_suprema_bounded_by_one():
    rng = np.random.default_rng(4)
    alg = MatrixBlockAlgebra.matrix_with_trace(3)
    from freedecay.algebra import onb_complement

    comp = onb_complement(alg)
    # random unitary: exponential of a random Hermitian
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = 0.5 * (h + h.conj().T)
    import scipy.linalg

    u_np = scipy.linalg.expm(1j * h)
    u = alg.element([[[complex(v) for v in row] for row in u_np]])
    report = orthogonality_hypotheses(comp[:3], u, comp[:4])
    assert report.sup_conjugated <= 1 + 1e-9
    assert report.sup_mixed <= 1 + 1e-9


def test_hypotheses_shift_decay_on_circle_discretization():
    # discretized Haar circle: almost-orthogonality decays as the character
    # order k grows away from the span of low frequencies
    n_atoms = 48
    alg = MatrixBlockAlgebra.from_weights([Fraction(1, n_atoms)] * n_atoms)

    def character(k):
        return alg.element(
            [[[complex(np.exp(2j * np.pi * k * t / n_atoms))]] for t in range(n_atoms)]
        )

    v_span = [character(k) for k in (-2, -1, 1, 2)]
    sups = []
    for k in (3, 6, 12):
        u = character(k)
        report = orthogonality_hypotheses(v_span, u, v_span)
        sups.append(report.sup_conjugated)
    # oracle: tau(a u b u) on characters is delta(p + q + 2k = 0 mod N);
    # once 2k clears the low band the supremum drops to zero
    assert sups[1] < 1e-10 and sups[2] < 1e-10


def test_hypotheses_scale_invariance():
    alg = MatrixBlockAlgebra.matrix_with_trace(2)
    from freedecay.algebra import onb_complement

    comp = onb_complement(alg)
    u = alg.element([[[0, 1], [1, 0]]])
    r1 = orthogonality_hypotheses(comp, u, comp)
    r2 = orthogonality_hypotheses([c * 7.5 for c in comp], u, [c * 0.2 for c in comp])
    assert r1.sup_conjugated == pytest.approx(r2.sup_conjugated, abs=1e-10)
    assert r1.sup_mixed == pytest.approx(r2.sup_mixed, abs=1e-10)


# ---------------------------------------------------------------------------
# abelian classification
# ---------------------------------------------------------------------------


def test_classify_two_by_two_not_selfless():
    c = classify_abelian([Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)])
    assert not c.selfless
    assert any("< 5" in r for r in c.reasons)
    assert any(">= 1" in r for r in c.reasons)


def test_classify_three_by_two_selfless():
    c = classify_abelian([Fraction(1, 3)] * 3, [Fraction(1, 2)] * 2)
    assert c.selfless
    assert c.reasons == []


def test_classify_heavy_atoms_not_selfless():
    c = classify_abelian(
        [Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert not c.selfless
    assert any(">= 1" in r for r in c.reasons)


def test_classify_symmetric():
    weight_sets = [
        [Fraction(1, 2), Fraction(1, 2)],
        [Fraction(2, 3), Fraction(1, 3)],
        [Fraction(1, 3)] * 3,
        [Fraction(1, 4)] * 4,
    ]
    for wa, wb in itertools.product(weight_sets, repeat=2):
        assert classify_abelian(wa, wb).selfless == classify_abelian(wb, wa).selfless


def test_a_found_triple_means_the_classifier_says_selfless():
    # every abelian weight vector of at most 4 atoms with denominators <= 4
    vectors = sorted({
        tuple(sorted(Fraction(c, d) for c in counts))
        for atoms in range(1, 5)
        for d in range(1, 5)
        for counts in itertools.combinations_with_replacement(range(1, d + 1), atoms)
        if sum(Fraction(c, d) for c in counts) == 1
    })
    assert len(vectors) == 7
    tally = {}
    for wa, wb in itertools.product(vectors, repeat=2):
        a, b = MatrixBlockAlgebra.from_weights(list(wa)), MatrixBlockAlgebra.from_weights(list(wb))
        found = find_avitzour_triple(a, b, seed=0) is not None
        selfless = classify_abelian(list(wa), list(wb)).selfless
        assert selfless or not found, (wa, wb)
        tally[found, selfless] = tally.get((found, selfless), 0) + 1
    # both routes decide something: the implication is not vacuous
    assert tally == {(True, True): 8, (False, True): 6, (False, False): 35}


def test_classify_rejects_bad_weights():
    with pytest.raises(AlgebraError):
        classify_abelian([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(AlgebraError):
        classify_abelian([Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 2), Fraction(-1, 2)])
