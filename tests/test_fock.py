"""Tests for the truncated Fock oracle and moment estimators."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    c3_weighted,
    linear_sum,
    m2_tr,
    random_alternating_word,
    random_rational_element,
    random_word_element,
    two_factor,
)
from freedecay import compressed, fock, khintchine
from freedecay.algebra import MatrixBlockAlgebra, center, l2_inner, state
from freedecay.cli import run
from freedecay.compressed import (
    FreeProductFiltration,
    TruncatedFock,
    _vector_moments,
    default_depth,
    moment_norm_estimate,
    norm_lower_bound,
    shared_fock,
    spectral_norm,
)
from freedecay.fock import (
    FockError,
    ResourceCapError,
    _word_moments,
    fock_dimension,
    free_cumulants_to_moments,
    moments_to_free_cumulants,
    vacuum_expectation,
)
from freedecay.freeword import (
    FreeElement,
    Letter,
    free_state,
    is_normalized_word,
    l2_inner_free,
    normalize,
)
from freedecay.khintchine import HomogeneousWordElement, rx_check, tr_bracket
from freedecay.rdcert import ConstantFiltration
from freedecay.scalars import FLOAT_RTOL, QC, negligible


def c2_half():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 2)])


def _pairs(x):
    """The (word, complex) pairs of x, or of normalize(x) when a word of x
    has an uncentred letter, as ``norm_lower_bound`` represents them."""
    if not all(is_normalized_word(word) for word in x.terms):
        x = normalize(x)
    return [(word, complex(c)) for word, c in x.terms.items()]


def _represent(f, pairs):
    """The compressed matrix of (word, complex) pairs on f, from their own block store."""
    words = [word for word, _ in pairs]
    (matrix,) = compressed._combinations(compressed._word_blocks(f, words), words, [[c for _, c in pairs]], f.dimension)
    return matrix


def _represent_dense(f, x):
    """Dense matrix of the compressed left action of x on f."""
    return _represent(f, _pairs(x)).toarray()


def _letter_csr(op):
    """A letter table (rows, vals) as a scipy CSR matrix: entry
    (rows[comp, col], col) is vals[comp, col], and rows -1 holds vals 0."""
    rows, vals = op
    assert not vals[rows < 0].any()
    cols = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(rows.shape[1],) * 2)


def _coo(matrix):
    """A scipy sparse matrix as the CooMatrix the kernels take."""
    coo = matrix.tocoo()
    return compressed.CooMatrix(coo.row.astype(np.intp), coo.col.astype(np.intp),
                                coo.data.astype(complex), coo.shape)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_single_factor_depth_one_dimension():
    f = TruncatedFock([c2_half()], 1)
    assert f.dimension == 2
    assert fock_dimension([c2_half()], 1) == 2


def test_two_m2_factors_depth_two_dimension():
    f = TruncatedFock([m2_tr(), m2_tr()], 2)
    assert f.dimension == 1 + 3 + 3 + 9 + 9
    assert fock_dimension([m2_tr(), m2_tr()], 2) == 25


def test_depth_zero():
    assert TruncatedFock([m2_tr()], 0).dimension == 1


def test_dimension_cap():
    with pytest.raises(ResourceCapError):
        TruncatedFock([MatrixBlockAlgebra.from_weights([Fraction(1, 24)] * 24)] * 2, 5)


def test_dimension_counts_are_exact_past_int64(tmp_path):
    # (M2, tr) * (M2, tr) has 2 * 3^k tensors of each length k >= 1; from
    # depth 39 on the count no longer fits in an int64
    counts = [1 + sum(2 * 3**k for k in range(1, depth + 1)) for depth in range(46)]
    out = tmp_path / "dims.csv"
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    (tmp_path / "factors.json").write_text(json.dumps({"factors": [m2, m2]}))
    assert run(["fock-dim", "--factors", str(tmp_path / "factors.json"), "--depth", "45",
                "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:] if not line.startswith("#")]
    assert rows == [[str(d), str(c)] for d, c in enumerate(counts)]
    assert counts[45] == 8862938119652501095927
    assert [fock_dimension([m2_tr(), m2_tr()], d) for d in range(46)] == counts
    with pytest.raises(ResourceCapError):
        TruncatedFock([m2_tr(), m2_tr()], 45)


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------


def test_represent_identity():
    f = TruncatedFock([m2_tr(), m2_tr()], 2)
    amb = f.ambient()
    mat = _represent_dense(f, FreeElement.one(amb))
    assert np.allclose(mat, np.eye(f.dimension))


def test_letter_on_vacuum_definition():
    # lambda(a) Omega = centered part (+) state(a) Omega
    f = TruncatedFock([m2_tr(), m2_tr()], 2)
    amb = f.ambient()
    rng = np.random.default_rng(0)
    from freedecay.algebra import center, l2_inner, state

    a = random_rational_element(amb.factors[0], rng)
    mat = _represent_dense(f, FreeElement.letter(amb, 0, a))
    col = mat[:, 0]
    assert col[0] == pytest.approx(complex(state(a)))
    c = center(a)
    for k, xi in enumerate(f.onb[0]):
        idx = _tuple_basis(f).index(((0, k),))
        assert col[idx] == pytest.approx(complex(l2_inner(c, xi)))


def _tuple_basis(f):
    """The basis tensors of f as tuples of (factor, index) slots, in sorted
    order within each length: the tuple enumeration kept as the oracle of
    the space's lead/tail code."""
    basis, level = [()], [()]
    for _ in range(f.depth):
        level = sorted(((j, i),) + t for t in level for j, onb in enumerate(f.onb)
                       if not t or t[0][0] != j for i in range(len(onb)))
        basis += level
    return basis


def _tensor_word(f, tensor):
    """The word of a basis tensor: it maps the vacuum to that tensor."""
    return FreeElement.word(f.ambient(), [Letter(j, f.onb[j][i]) for j, i in tensor])


def _oracle_matrix(f, x):
    """Entry (s, t) = free_state(W_s* x W_t) = <lambda(x) e_t, e_s>."""
    words = [_tensor_word(f, t) for t in _tuple_basis(f)]
    return np.array(
        [[complex(free_state(ws.adjoint() * x * wt)) for wt in words] for ws in words]
    )


def test_letter_operators_match_the_free_state_oracle():
    f = TruncatedFock([m2_tr(), c3_weighted()], 2)
    amb = f.ambient()
    rng = np.random.default_rng(20)
    exact = random_rational_element(amb.factors[0], rng)
    flt = amb.factors[1].element(
        [[[complex(rng.standard_normal(), rng.standard_normal())]] for _ in range(3)]
    )
    letters = [(j, xi) for j in (0, 1) for xi in f.onb[j]] + [(0, exact), (1, flt)]
    for j, a in letters:
        got = _letter_csr(f.letter_operator(j, a)).toarray()
        want = _oracle_matrix(f, FreeElement.letter(amb, j, a))
        assert np.abs(got - want).max() < 1e-12, (j, a)


@pytest.mark.parametrize("length", [2, 3, 4])
def test_represent_words_match_the_free_state_oracle(length):
    # every word acts on the depth-L space itself: centred words as they are,
    # uncentred ones after normalize (unnormalized, the uncentred length-3
    # word is off by more than 1)
    f = TruncatedFock([m2_tr(), c3_weighted()], 2)
    rng = np.random.default_rng(21)
    for centered in (True, False):
        x = random_alternating_word(f.ambient(), length, rng, centered=centered)
        assert x.max_word_length() == length
        assert np.abs(_represent_dense(f, x) - _oracle_matrix(f, x)).max() < 1e-12, centered


def test_centred_words_are_represented_without_normalize(monkeypatch):
    def refuse(x):
        raise AssertionError("normalize called on a centred element")

    monkeypatch.setattr(compressed, "normalize", refuse)
    f = TruncatedFock([m2_tr(), c3_weighted()], 2)
    amb = f.ambient()
    rng = np.random.default_rng(23)
    probes = [
        random_alternating_word(amb, 3, rng, centered=True),
        HomogeneousWordElement.random(amb, 2, rng).to_free_element(),
        FreeElement.word(amb, [Letter(1, f.onb[1][1]), Letter(0, f.onb[0][2])]),
    ]
    for x in probes:
        norm_lower_bound(f, x)
        assert np.abs(_represent_dense(f, x) - _oracle_matrix(f, x)).max() < 1e-12


def _per_tensor_letter_operators(f, factor):
    """The cached operators of a factor, built by a loop over the tuple
    basis: a tensor led by the factor splits into its rest and the prepends
    to the rest, any other tensor keeps itself and gains its prepends."""
    basis = _tuple_basis(f)
    index = {t: p for p, t in enumerate(basis)}
    onb = f.onb[factor]
    d = len(onb)
    entries = []
    for col, tensor in enumerate(basis):
        if tensor and tensor[0][0] == factor:
            src, rest = tensor[0][1] + 1, tensor[1:]
            targets = [index[rest]] + [index[((factor, k),) + rest] for k in range(d)]
        else:
            src, targets = 0, [col]
            if len(tensor) < f.depth:
                targets += [index[((factor, k),) + tensor] for k in range(d)]
        entries += [(row, col, comp, src) for comp, row in enumerate(targets)]
    rows, cols, comps, srcs = np.array(entries).T
    ops = []
    for a in onb:
        act = np.zeros((d + 1, d + 1), dtype=complex)
        for c, vec in enumerate([f.factors[factor].identity()] + onb):
            prod = a * vec
            act[0, c] = complex(state(prod))
            for r, xi in enumerate(onb):
                act[r + 1, c] = complex(l2_inner(center(prod), xi))
        if negligible(state(a)):  # a centred letter has no scalar part
            act[0, 0] = 0
        vals = act[comps, srcs]
        keep = vals != 0
        ops.append(sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                                 shape=(f.dimension, f.dimension)))
    return ops


def c3_uniform():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)


def m3_tr():
    return MatrixBlockAlgebra.matrix_with_trace(3)


@pytest.mark.parametrize("factors, depth", [
    ((c2_half,), 3),  # one factor: lengths 2 and 3 are empty
    ((m2_tr, m2_tr), 0),
    ((m2_tr, m2_tr), 1),
    ((c2_half, m2_tr, c3_uniform), 2),  # slot dimensions 1, 3 and 2
    ((c2_half, m2_tr, c3_uniform), 3),
    ((m2_tr, c3_weighted), 2),
    ((m2_tr, c3_weighted), 3),
    ((m2_tr, m3_tr), 2),
])
def test_letter_operators_keep_the_bits_of_the_per_tensor_construction(factors, depth):
    f = TruncatedFock([make() for make in factors], depth)
    slots = [(j, i) for j, onb in enumerate(f.onb) for i in range(len(onb))]
    decoded = [()]
    for p in range(1, f.dimension):
        decoded.append((slots[f.lead[p]],) + decoded[f.tail[p]])
    assert decoded == _tuple_basis(f)
    assert f.lead[0] == f.tail[0] == -1 and len(f.lead) == len(f.tail) == f.dimension
    for j in range(len(f.factors)):
        want = _per_tensor_letter_operators(f, j)
        ops = [f.letter_operator(j, xi) for xi in f.onb[j]]
        assert len(ops) == len(want)
        for got, ref in zip(map(_letter_csr, ops), want):
            for attr in ("data", "indices", "indptr"):
                a, b = getattr(got, attr), getattr(ref, attr)
                assert a.dtype == b.dtype and np.array_equal(a, b), (j, attr)


def _not_led_by(f, factor):
    lo = sum(len(b) for b in f.onb[:factor])
    return (f.lead < lo) | (f.lead >= lo + len(f.onb[factor]))


def test_a_centred_float_letter_has_no_scalar_part():
    # C3 uniform's float complement basis has a vector whose state is not
    # 0.0 but negligible: centred by the normalize rule, so its operator
    # keeps no tensor of another factor's lead in place
    f = TruncatedFock([c2_half(), c3_uniform()], 4)
    assert any(state(xi) != 0 and negligible(state(xi)) for xi in f.onb[1])
    not_led = _not_led_by(f, 1)
    for xi in f.onb[1]:
        assert not _letter_csr(f.letter_operator(1, xi)).diagonal()[not_led].any()


def test_an_uncentred_letter_keeps_its_scalar_part():
    f = TruncatedFock([c2_half(), c3_uniform()], 3)
    for xi in f.onb[1]:
        a = xi + f.factors[1].identity() * Fraction(1, 4)
        assert not negligible(state(a))
        diagonal = _letter_csr(f.letter_operator(1, a)).diagonal()[_not_led_by(f, 1)]
        assert np.array_equal(diagonal, np.full(diagonal.shape, complex(state(a))))


def _alternating_onb_words(f, length):
    """Every alternating word of complement basis letters of length <= length,
    as one element per word."""
    letters = [[Letter(j, xi) for xi in onb] for j, onb in enumerate(f.onb)]
    words, frontier = [()], [((), None)]
    for _ in range(length):
        frontier = [(word + (letter,), j) for word, last in frontier
                    for j in range(len(letters)) if j != last for letter in letters[j]]
        words += [word for word, _ in frontier]
    return [FreeElement(f.ambient(), {word: 1.0}) for word in words]


@pytest.mark.parametrize("factors, depth, top", [
    ((c2_half, c3_uniform), 4, 8),
    ((c2_half, c3_uniform), 6, 8),
    ((c2_half, c3_uniform), 8, 10),
    ((m2_tr, m2_tr), 3, 5),
    ((m2_tr, c3_weighted), 4, 5),
    ((c2_half, m2_tr, c3_uniform), 3, 4),
])
def test_a_deeper_block_cut_to_a_depth_keeps_the_bits_of_that_depth(factors, depth, top):
    algebras = [make() for make in factors]
    deep, shallow = TruncatedFock(algebras, top), TruncatedFock(algebras, depth)
    words = _alternating_onb_words(shallow, depth - 1)
    terms = [list(x.terms.items()) for x in words]
    blocks = compressed._word_blocks(deep, [word for x in terms for word, _ in x])
    cut = [compressed._combinations(blocks, [word], [[c]], shallow.dimension)[0] for ((word, c),) in terms]
    own = [_represent(shallow, x) for x in terms]
    for x, got, want in zip(words, cut, own):
        assert got.shape == want.shape == (shallow.dimension,) * 2
        for attr in ("rows", "cols", "vals"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (list(x.terms), attr)


def _represent_word_by_word(f, pairs):
    """Reference compression of (word, complex) pairs: every word rebuilt
    letter by letter from a fresh identity, with no shared suffix products
    and no shared merge pattern."""
    n = f.dimension
    keys, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    for word, coeff in pairs:
        block = compressed.CooMatrix(np.arange(n), np.arange(n), np.ones(n, dtype=complex), (n, n))
        for letter in reversed(word):
            block = compressed._times(*f.letter_operator(letter.factor, letter.payload), block)
        keys.append(block.rows * n + block.cols)
        vals.append(coeff * block.vals)
    rows, cols, inverse = compressed._pattern(np.concatenate(keys), (n, n))
    return compressed.CooMatrix(rows, cols, compressed._bincount(inverse, np.concatenate(vals), len(rows)), (n, n))


def _float_centred(algebra, rng):
    a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return algebra.element([[[a, b], [c, -a]]])


def _assert_same_bits(f, pairs):
    got = _represent(f, pairs)
    want = _represent_word_by_word(f, pairs)
    assert got.shape == want.shape
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_shared_suffix_compression_keeps_the_bits_of_level_probes(n):
    c3 = MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)
    filt = FreeProductFiltration([ConstantFiltration(c2_half()), ConstantFiltration(c3)], probe_seed=5)
    f = TruncatedFock(filt.ambient.factors, max(4, n + 1))
    for probe in filt._probes(n):
        _assert_same_bits(f, list(zip(filt._level_words(n), probe)))


def _shuffled_float_element(amb, rng):
    """Every alternating word of length <= 3 over two float letters per
    factor, in shuffled order: long words come before their suffixes too."""
    pool = [[Letter(j, _float_centred(amb.factors[j], rng)) for _ in range(2)] for j in (0, 1)]
    words = [()]
    for length in (1, 2, 3):
        for start in (0, 1):
            pattern = [(start + i) % 2 for i in range(length)]
            words += itertools.product(*(pool[j] for j in pattern))
    order = rng.permutation(len(words))
    coeffs = rng.standard_normal(len(words)) + 1j * rng.standard_normal(len(words))
    return FreeElement(amb, {tuple(words[i]): complex(c) for i, c in zip(order, coeffs)})


def test_shared_suffix_compression_keeps_the_bits_of_float_and_uncentred_elements():
    rng = np.random.default_rng(31)
    amb = two_factor(m2_tr(), m2_tr())
    f = TruncatedFock(amb.factors, 3)
    x = _shuffled_float_element(amb, rng)
    assert len(x.terms) == 29
    _assert_same_bits(f, _pairs(x))
    uncentred = random_alternating_word(amb, 3, rng, centered=False)
    uncentred = uncentred + random_alternating_word(amb, 2, rng, centered=False)
    assert not all(is_normalized_word(word) for word in uncentred.terms)
    _assert_same_bits(f, _pairs(uncentred))
    # norm_lower_bound represents the normalized terms of an uncentred element
    assert norm_lower_bound(f, uncentred) == spectral_norm(_represent_word_by_word(f, _pairs(uncentred)))


def _c2c3_filtration():
    return FreeProductFiltration([ConstantFiltration(c2_half()), ConstantFiltration(c3_uniform())],
                                 probe_seed=5)


def _c2c3_levels():
    filt = _c2c3_filtration()
    return TruncatedFock(filt.ambient.factors, 7), [word for n in range(1, 7) for word in filt._level_words(n)]


def _float_element():
    amb = two_factor(m2_tr(), m2_tr())
    x = _shuffled_float_element(amb, np.random.default_rng(31))
    return TruncatedFock(amb.factors, 3), [word for word, _ in _pairs(x)]


def _m2m2_length_2():
    amb = two_factor(m2_tr(), m2_tr())
    x = HomogeneousWordElement.random(amb, 2, np.random.default_rng(3)).to_free_element()
    return TruncatedFock(amb.factors, 4), [word for word, _ in _pairs(x)]


@pytest.mark.parametrize("make, words, products", [
    (_c2c3_levels, 49, 49),  # the probes of levels 1-6: suffix-closed
    (_float_element, 28, 28),  # and the empty word
    (_m2m2_length_2, 18, 24),  # and 6 one-letter suffixes
], ids=["C2*C3 levels 1-6", "float element", "(M2, tr)*(M2, tr) length 2"])
def test_represent_sparse_multiplies_once_per_word_or_suffix(monkeypatch, make, words, products):
    f, ws = make()
    assert len(set(ws) - {()}) == words
    suffixes = {word[i:] for word in ws for i in range(len(word))}
    assert len(suffixes) == products
    times, calls = compressed._times, []
    monkeypatch.setattr(compressed, "_times", lambda *a: calls.append(a) or times(*a))
    blocks = compressed._word_blocks(f, ws)
    assert len(calls) == products
    # the store holds I and the block of every word and suffix, and no other
    assert set(blocks) == suffixes | {()}


@pytest.mark.parametrize("cap, refused", [(10**9, False), (5_000, True), (0, True)])
def test_represent_sparse_refuses_blocks_above_the_entry_cap_before_any_sum(monkeypatch, cap, refused):
    # the probes of levels 1-6, from one store on the depth-7 space
    filt, levels = _c2c3_filtration(), range(1, 7)
    combinations, summed = compressed._combinations, []
    monkeypatch.setattr(compressed, "_combinations", lambda *a: summed.append(a) or combinations(*a))
    monkeypatch.setattr(compressed, "_BLOCK_CAP", cap)
    if not refused:
        assert len(filt._probe_lower(levels)) == len(levels) == len(summed)
        assert sum(len(coeffs) for *_, coeffs, _ in summed) == 3 * len(levels)
        return
    with pytest.raises(ResourceCapError, match=f"cap of {cap} stored entries"):
        filt._probe_lower(levels)
    assert not summed


def _sorted_merge(keys, vals, k):
    """The sorting route of ``_pattern``, spelled out and summed: np.unique's keys and inverse."""
    keys, inverse = np.unique(keys, return_inverse=True)
    return compressed.CooMatrix(*np.divmod(keys, k), compressed._bincount(inverse, vals, len(keys)), (k, k)), inverse


@pytest.mark.parametrize("k, keys", [
    (5, "random 25"),  # k * k == len(keys): counts
    (5, "random 24"),  # one key short: sorts
    (5, "random 200"),
    (12, "random 60"),
    (3, []),
    (0, []),  # an empty grid and no keys: counts
    (1, [0]),
    (4, [0]),
    (4, [15]),  # the largest key alone
    (4, [7] * 16),  # all keys equal
    (4, [7] * 9),
    (3, [8, 0, 8, 4, 8, 0, 8, 8, 8]),  # the largest key k * k - 1, repeated
], ids=["k5-random25", "k5-random24", "k5-random200", "k12-random60", "k3-empty", "k0-empty", "k1-one",
        "k4-one", "k4-largest", "k4-equal16", "k4-equal9", "k3-largest-repeated"])
def test_merged_counting_and_sorting_routes_agree_bit_for_bit(monkeypatch, k, keys):
    rng = np.random.default_rng(40 + k)
    if isinstance(keys, str):
        size = int(keys.split()[1])
        keys = np.append(rng.integers(0, k * k - 1, size - 1), k * k - 1)
    keys = np.asarray(keys, dtype=np.intp)
    vals = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    want, inverse = _sorted_merge(keys, vals, k)
    unique, sorts = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *a, **kw: sorts.append(a) or unique(*a, **kw))
    rows, cols, got_inverse = compressed._pattern(keys, (k, k))
    got = compressed.CooMatrix(rows, cols, compressed._bincount(got_inverse, vals, len(rows)), (k, k))
    assert len(sorts) == (k * k > len(keys))
    assert got.shape == want.shape == (k, k)
    for a, b in [*zip(got[:3], want[:3]), (rows, want.rows), (cols, want.cols), (got_inverse, inverse)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the pattern sums other values of the same keys as a fresh merge does
    again = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    summed = compressed._bincount(got_inverse, again, len(rows))
    fresh = _sorted_merge(keys, again, k)[0].vals
    assert summed.dtype == fresh.dtype and np.array_equal(summed, fresh)


def test_represent_sparse_groups_keep_the_bits_of_each_element():
    c3 = MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3)
    filt = FreeProductFiltration([ConstantFiltration(c2_half()), ConstantFiltration(c3)])
    factors, rng = filt.ambient.factors, np.random.default_rng(43)
    f = TruncatedFock(factors, 4)
    spaces = {TruncatedFock(factors, depth).dimension: TruncatedFock(factors, depth) for depth in (1, 2, 4)}
    d1, d2, d4 = spaces
    assert d4 == f.dimension
    words = filt._level_words(3)
    first, second, long = words[:9], words[3:], words[8]
    assert [len(word) for word in first] == [0, 1, 1, 1, 2, 2, 2, 2, 3] and len(second) == 11
    blocks = compressed._word_blocks(f, words)

    def rows(ws, count):
        coeffs = rng.standard_normal((count, len(ws))) + 1j * rng.standard_normal((count, len(ws)))
        return [*coeffs, np.zeros(len(ws), dtype=complex)]  # and the zero combination

    calls = [
        (first, rows(first, 2), d4),  # the whole space: no cut
        (first, rows(first, 3), d2),  # the same word list, another K
        (second, rows(second, 2), d2),  # the same K, another word list
        (twice := second[:4] + second[1:2] + second[4:], rows(twice, 2), d2),  # a word twice
        ([long], rows([long], 2), d1),  # cut to nothing
    ]
    for ws, coeffs, k in calls:
        got = compressed._combinations(blocks, ws, coeffs, k)
        assert len(got) == len(coeffs)
        for row, matrix in zip(coeffs, got):
            # each row word by word on the space of its own K
            want = _represent_word_by_word(spaces[k], list(zip(ws, row)))
            assert matrix.shape == want.shape == (k, k)
            for a, b in zip(matrix[:3], want[:3]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        if k == d1:
            assert all(len(matrix.vals) == 0 for matrix in got)
    full, cut = (compressed._combinations(blocks, first, rows(first, 1)[:1], k)[0] for k in (d4, d2))
    assert len(full.vals) > len(cut.vals) > 0


def test_shared_blocks_keep_the_bits_of_several_elements():
    rng = np.random.default_rng(41)
    amb = two_factor(m2_tr(), m2_tr())
    f = TruncatedFock(amb.factors, 3)
    pool = [[Letter(j, _float_centred(amb.factors[j], rng)) for _ in range(2)] for j in (0, 1)]
    words = [()]
    for length in (1, 2, 3):
        for start in (0, 1):
            pattern = [(start + i) % 2 for i in range(length)]
            words += itertools.product(*(pool[j] for j in pattern))

    def element(picks):
        coeffs = rng.standard_normal(len(picks)) + 1j * rng.standard_normal(len(picks))
        return FreeElement(amb, {tuple(words[i]): complex(c) for i, c in zip(picks, coeffs)})

    # term sets that overlap in part, listed in different orders, and an
    # uncentred element (represented through normalize), from one store
    first = element(rng.permutation(20))
    second = element(rng.permutation(np.arange(10, 29)))
    third = element(list(range(28, 4, -3)))
    uncentred = random_alternating_word(amb, 3, rng, centered=False)
    uncentred = uncentred + random_alternating_word(amb, 2, rng, centered=False)
    assert not all(is_normalized_word(word) for word in uncentred.terms)
    xs = [first, second, uncentred, third]
    assert set(first.terms) & set(second.terms) and set(second.terms) - set(first.terms)
    assert list(third.terms)[:2] == [tuple(words[28]), tuple(words[25])]
    blocks = compressed._word_blocks(f, [word for x in xs for word, _ in _pairs(x)])
    for x in xs:
        pairs = _pairs(x)
        (matrix,) = compressed._combinations(blocks, [w for w, _ in pairs], [[c for _, c in pairs]], f.dimension)
        want = _represent_word_by_word(f, pairs)
        assert all(np.array_equal(a, b) for a, b in zip(matrix[:3], want[:3]))
    # the zero element has no words; its norm is 0
    assert norm_lower_bound(f, FreeElement(amb)) == 0.0


def _c3_halves():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])


def _m3_diagonal():
    return MatrixBlockAlgebra([[[Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 6)]]])


def _c4_uniform():
    return MatrixBlockAlgebra.from_weights([Fraction(1, 4)] * 4)


class _Probed(Exception):
    pass


@pytest.mark.parametrize("factors, n, refused", [
    ((c2_half, c3_uniform), 9, False),  # 154 words x 218 tensors
    ((m2_tr, _c3_halves), 6, False),  # 732 words x 1,812 tensors
    ((_m3_diagonal, _c4_uniform), 4, False),  # 1,476 words x 7,812 tensors: 1.2e7
    ((m2_tr, m2_tr), 6, False),  # 2,185 words x 6,559 tensors: 1.4e7
    ((m2_tr, m2_tr), 7, True),  # 6,559 words x 19,681 tensors: 1.3e8
    ((m2_tr, m2_tr), 8, True),
    ((m2_tr, m2_tr), 20, True),
    ((c2_half, c3_uniform), 18, True),  # 3,578 words x 5,114 tensors: 1.8e7
    ((c2_half, c3_uniform), 20, True),
])
def test_free_product_probes_are_capped_before_a_word_is_built(monkeypatch, factors, n, refused):
    filt = FreeProductFiltration([ConstantFiltration(make()) for make in factors])

    def probes(level):
        raise _Probed(level)

    monkeypatch.setattr(filt, "_probes", probes)
    with pytest.raises(ResourceCapError if refused else _Probed):
        filt.rd_constants([n])


@pytest.mark.parametrize("factors", [(c2_half, c3_uniform), (m2_tr, c3_weighted)], ids=["C2*C3", "M2*C3"])
def test_word_blocks_and_probe_sums_match_scipy_products(factors):
    # scipy as an independent oracle: the letter operators of the per-tensor
    # construction, multiplied and summed as CSR matrices
    filt = FreeProductFiltration([ConstantFiltration(make()) for make in factors], probe_seed=3)
    f = TruncatedFock(filt.ambient.factors, 5)
    csr = [_per_tensor_letter_operators(f, j) for j in range(2)]
    identity = sp.identity(f.dimension, dtype=complex, format="csr")
    words = filt._level_words(4)
    want = {}
    for word in words:
        block = identity
        for letter in reversed(word):
            block = csr[letter.factor][f.onb[letter.factor].index(letter.payload)] @ block
        want[word] = block.toarray()
    probes = filt._probes(4)
    blocks = compressed._word_blocks(f, words)
    got = [blocks[word] for word in words] + compressed._combinations(blocks, words, probes, f.dimension)
    wants = [want[word] for word in words] + [sum(c * want[word] for word, c in zip(words, p)) for p in probes]
    assert len(words) == filt.level_dim(4) and max(len(word) for word in words) == 4
    for matrix, ref in zip(got, wants):
        assert np.abs(matrix.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


def _rd_certify(tmp_path, name, factors, max_n):
    space = tmp_path / f"{name}.json"
    space.write_text(json.dumps({"free_product": [{"atoms": atoms} for atoms in factors]}))
    out = tmp_path / f"{name}-{max_n}.csv"
    argv = ["rd-certify", "--space", str(space), "--max-n", str(max_n), "--seed", "1"]
    assert run(argv + ["--out", str(out)]) == 0
    return out.read_text()


def test_shared_suffix_compression_keeps_the_certify_csv(tmp_path, monkeypatch):
    c2c3 = [["1/2", "1/2"], ["1/3", "1/3", "1/3"]]
    word_blocks, calls = compressed._word_blocks, []

    def counted(f, words):
        calls.append(f.depth)
        return word_blocks(f, words)

    monkeypatch.setattr(compressed, "_word_blocks", counted)
    one_pass = {max_n: _rd_certify(tmp_path, "c2c3", c2c3, max_n) for max_n in (6, 9)}
    assert calls == [7, 10]

    def per_level(self, levels):
        # every level on its own depth-max(4, n + 1) space, word by word
        spaces = [TruncatedFock(self.ambient.factors, max(4, n + 1)) for n in levels]
        return [max(spectral_norm(_represent_word_by_word(f, list(zip(self._level_words(n), p))))
                    for p in self._probes(n))
                for f, n in zip(spaces, levels)]

    monkeypatch.setattr(FreeProductFiltration, "_probe_lower", per_level)
    assert _rd_certify(tmp_path, "c2c3", c2c3, 9) == one_pass[9]
    # the header and levels 0-6
    assert one_pass[6].splitlines()[:8] == one_pass[9].splitlines()[:8]


def test_certify_builds_no_free_element(tmp_path, monkeypatch):
    # the probes are coefficient vectors over the level words
    built = []
    init, of = FreeElement.__init__, FreeElement.__dict__["_of"].__func__
    monkeypatch.setattr(FreeElement, "__init__", lambda self, *a: built.append("init") or init(self, *a))
    monkeypatch.setattr(FreeElement, "_of", classmethod(lambda cls, *a: built.append("_of") or of(cls, *a)))
    _rd_certify(tmp_path, "c2c3", [["1/2", "1/2"], ["1/3", "1/3", "1/3"]], 9)
    assert built == []
    # the counters do see a construction
    FreeElement.one(two_factor(c2_half(), c3_uniform()))
    assert built == ["_of"]


def test_empty_complements_keep_their_certify_rows(tmp_path):
    # C * C and C * C2: every level is spanned by the unit, or by C2's letter;
    # a level spanned by the unit alone is C1, with C_n = 1 exactly
    got = _rd_certify(tmp_path, "cc", [[1], [1]], 3).splitlines()
    assert got[:5] == ["n,C_lower,C_upper,dim"] + [f"{n},1.0,1.0,1" for n in range(4)]
    assert "# alpha_hat=0.0" in got
    got = _rd_certify(tmp_path, "cc2", [[1], ["1/2", "1/2"]], 3).splitlines()
    assert got[:5] == ["n,C_lower,C_upper,dim", "0,1.0,1.0,1",
                       "1,1.414213562373095,6.324555320336759,2",
                       "2,1.414213562373095,10.583005244258363,2",
                       "3,1.414213562373095,15.491933384829668,2"]


def _kept(f):
    """The slot-letter records a space has filled: letter -> [table, block]."""
    return {letter: record for letter, record in f._slots.items() if record is not None}


def test_only_basis_vector_operators_are_cached():
    f = TruncatedFock([m2_tr(), c3_weighted()], 2)
    amb = f.ambient()
    a = random_rational_element(amb.factors[0], np.random.default_rng(22))
    f.letter_operator(0, a)
    assert _kept(f) == {}
    xi = f.onb[1][1]
    assert f.letter_operator(1, xi) is f._slots[Letter(1, xi)][0] is f.letter_operator(1, xi)
    assert list(_kept(f)) == [Letter(1, xi)]


def test_every_table_of_a_factor_shares_its_one_layout():
    f = TruncatedFock([m2_tr(), c3_weighted()], 3)
    rng = np.random.default_rng(23)
    for j, factor in enumerate(f.factors):
        tables = [f.letter_operator(j, xi) for xi in f.onb[j]]
        slots = dict(f._slots)
        a = random_rational_element(factor, rng)
        tables.append(f.letter_operator(j, a))
        tables.append(f.letter_operator(j, a + factor.identity()))  # uncentred
        f.letter_block(j, a)
        # a letter outside the complement basis leaves the kept records as they were
        assert f._slots == slots and all(f._slots[l] is r for l, r in slots.items())
        rows = f._layouts[j][0]
        assert rows.shape == (len(f.onb[j]) + 1, f.dimension)
        assert all(table[0] is rows for table in tables)
    assert list(f._layouts) == [0, 1]


def test_complement_basis_is_built_once_per_algebra():
    from freedecay.algebra import onb_complement
    from freedecay.rdcert import ConstantFiltration

    a = m2_tr()
    onb = onb_complement(a)
    again = onb_complement(a)
    assert again is not onb and len(onb) == a.dim - 1
    assert all(u is v for u, v in zip(again, onb))
    space = TruncatedFock([a, c3_weighted()], 2)
    x = HomogeneousWordElement.random(space.ambient(), 2, np.random.default_rng(3))
    filt = ConstantFiltration(a)
    for held in (space.onb[0], x.onb[0], filt.level_onb(1)[1:]):
        assert len(held) == len(onb) and all(u is v for u, v in zip(held, onb))


def test_shared_fock_keeps_at_most_16_spaces():
    c2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2)] * 2)
    factors = (c2, c2)  # dimension 2 * depth + 1
    shared_fock.cache_clear()
    try:
        spaces = [shared_fock(factors, depth) for depth in range(17)]
        info = shared_fock.cache_info()
        assert info.maxsize == 16 and info.misses == 17 and info.currsize == 16
        assert shared_fock(factors, 16) is spaces[16]
        assert shared_fock.cache_info().hits == 1
    finally:
        shared_fock.cache_clear()


def test_vacuum_pairing_matches_free_state_exactly():
    amb = two_factor(m2_tr(), c3_weighted())
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = random_word_element(amb, 5, rng, n_terms=2)
        assert vacuum_expectation(x) == free_state(x)


def test_vacuum_oracle_centres_each_letter_alone_once(monkeypatch):
    # 20 uncentred length-6 words: each call splits every distinct product,
    # and every letter standing alone, once (993 calls when each tensor split
    # its own letter, 453 when each letter was split once per word position)
    amb = two_factor(m2_tr(), MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]))
    rng = np.random.default_rng(0)
    words = [random_alternating_word(amb, 6, rng, centered=False) for _ in range(20)]
    calls = []
    monkeypatch.setattr(fock, "center", lambda a: calls.append(a) or center(a))
    values, distinct = [], 0
    for w in words:
        start = len(calls)
        values.append(vacuum_expectation(w))
        distinct += len(set(calls[start:]))
    assert len(calls) == distinct == 278
    monkeypatch.undo()
    assert values == [free_state(w) for w in words]
    assert vacuum_expectation(linear_sum([(w, 1) for w in words])) == sum(values)


def test_represent_vacuum_pairing_matches_free_state_numerically():
    f = TruncatedFock([m2_tr(), c3_weighted()], 4)
    amb = f.ambient()
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = random_word_element(amb, 4, rng, n_terms=2)
        mat = _represent_dense(f, x)
        got = mat[0, 0]
        assert got == pytest.approx(complex(free_state(x)), abs=1e-10)


def test_adjoint_compatibility_all_depths():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(3)
    x = random_word_element(amb, 3, rng, n_terms=2)
    for depth in (1, 2, 3):
        f = TruncatedFock(amb.factors, depth)
        assert np.allclose(
            _represent_dense(f, x.adjoint()), _represent_dense(f, x).conj().T, atol=1e-10
        )


def test_represent_hermitian_for_self_adjoint():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(4)
    y = random_word_element(amb, 2, rng, n_terms=2)
    x = y + y.adjoint()
    f = TruncatedFock(amb.factors, 3)
    mat = _represent_dense(f, x)
    assert np.allclose(mat, mat.conj().T, atol=1e-12)


def test_represented_onb_words_have_orthogonal_vacuum_images():
    f = TruncatedFock([m2_tr(), m2_tr()], 3)
    amb = f.ambient()
    onb0, onb1 = f.onb
    words = [
        FreeElement.word(amb, (Letter(0, onb0[0]),)),
        FreeElement.word(amb, (Letter(0, onb0[0]), Letter(1, onb1[1]))),
        FreeElement.word(amb, (Letter(1, onb1[2]), Letter(0, onb0[1]), Letter(1, onb1[0]))),
    ]
    images = [_represent_dense(f, w)[:, 0] for w in words]
    for i, a in enumerate(images):
        for j, b in enumerate(images):
            if i != j:
                assert abs(np.vdot(b, a)) < 1e-10


def test_norm_lower_bound_monotone_in_depth():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(5)
    x = random_word_element(amb, 2, rng, n_terms=3)
    vals = [norm_lower_bound(TruncatedFock(amb.factors, L), x) for L in (1, 2, 3, 4)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-9


def _random_sparse(rows, cols, seed):
    rng = np.random.default_rng(seed)
    real, imag = (sp.random(rows, cols, density=0.02, random_state=rng, format="csr")
                  for _ in range(2))
    return (real + 1j * imag).tocsr()


def _block_diagonal_tie():
    # a block and its transpose: two blocks with equal top singular values
    block = _random_sparse(150, 150, 3).toarray()
    return sp.csr_matrix(np.block([[block, np.zeros((150, 150))],
                                   [np.zeros((150, 150)), block.T]]))


def _t1_grid():
    """The 241 x 1446 t_1 grid of a seeded length-2 element over
    (M2, tr) * (M2, tr), as ``tr_bracket`` hands it to ``spectral_norm``:
    one row of six depth-4 Fock cells."""
    x = HomogeneousWordElement.random(two_factor(m2_tr(), m2_tr()), 2, np.random.default_rng(0))
    grids = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(khintchine, "spectral_norm", lambda matrix: grids.append(matrix) or 0.0)
        tr_bracket(x, 1)
    (grid,) = grids
    assert grid.shape == (241, 1446)
    return grid


_CROSSOVER = compressed._DENSE_CROSSOVER
_KERNEL_MATRICES = {
    "zero": sp.csr_matrix((200, 300), dtype=complex),
    "identity": sp.identity(200, dtype=complex, format="csr"),
    "rank-one": sp.csr_matrix(np.outer(np.arange(1, 251), np.arange(200) - 99.5j)),
    "block-diagonal-tie": _block_diagonal_tie(),
    "t1-grid": sp.csr_matrix(_t1_grid().toarray()),
    **{"random-%dx%d" % shape: _random_sparse(*shape, sum(shape))
       for shape in [(_CROSSOVER + 72, _CROSSOVER + 72), (_CROSSOVER + 300, _CROSSOVER + 72),
                     (_CROSSOVER + 72, _CROSSOVER + 300)]},
}


@pytest.mark.parametrize("rows, cols", [
    (_CROSSOVER - 28, _CROSSOVER - 28), (_CROSSOVER + 200, _CROSSOVER - 28),
    (_CROSSOVER - 28, _CROSSOVER + 200), (_CROSSOVER, _CROSSOVER + 1),
    (_CROSSOVER + 1, _CROSSOVER + 1), (_CROSSOVER + 200, _CROSSOVER + 72),
    (_CROSSOVER + 72, _CROSSOVER + 200), (120, 1440), (1440, 120), (1, 20_000), (20_000, 2),
])
def test_spectral_norm_matches_the_dense_norm(rows, cols):
    matrix = _random_sparse(rows, cols, rows * cols)
    want = np.linalg.norm(matrix.toarray(), 2)
    assert abs(spectral_norm(_coo(matrix)) - want) <= FLOAT_RTOL * want


@pytest.mark.parametrize("rows, cols, kernel_runs", [
    (_CROSSOVER, _CROSSOVER, 0), (_CROSSOVER + 1, _CROSSOVER + 1, 1), (61, 244, 0), (244, 61, 0),
    # a bracket grid of (M2, tr) * C3 at length 3: a smaller side below the
    # crossover, but more entries than the crossover square
    (120, 1440, 1), (1440, 120, 1), (2, _CROSSOVER**2 // 2, 0), (2, _CROSSOVER**2 // 2 + 1, 1),
])
def test_spectral_norm_takes_the_kernel_above_the_crossover_entries(rows, cols, kernel_runs,
                                                                    monkeypatch):
    runs = []
    kernel = compressed._lanczos_norm

    def counting_kernel(matrix):
        runs.append(matrix.shape)
        return kernel(matrix)

    monkeypatch.setattr(compressed, "_lanczos_norm", counting_kernel)
    spectral_norm(_coo(_random_sparse(rows, cols, rows + cols)))
    assert len(runs) == kernel_runs


@pytest.mark.parametrize("name", sorted(_KERNEL_MATRICES))
def test_the_kernel_returns_the_witness_of_its_ritz_vector(name):
    matrix = _coo(_KERNEL_MATRICES[name])
    assert min(matrix.shape) > _CROSSOVER
    value, y = compressed._lanczos_norm(matrix)
    # y lives on the smaller side, where the kernel runs on the Gram; the
    # witness is read with the kernel's own product
    side = matrix if matrix.shape[0] >= matrix.shape[1] else matrix.adjoint()
    assert value == np.linalg.norm(side.matvec()(y)) / np.linalg.norm(y)
    want = np.linalg.norm(_KERNEL_MATRICES[name].toarray(), 2)
    assert abs(value - want) <= FLOAT_RTOL * want
    assert spectral_norm(matrix) == value


def test_an_empty_matrix_has_norm_0():
    empty = np.array([], dtype=np.intp)
    assert spectral_norm(compressed.CooMatrix(empty, empty, np.array([], dtype=complex), (0, 3))) == 0.0


@pytest.mark.parametrize("name", sorted(_KERNEL_MATRICES))
def test_the_kernel_skips_eigh_only_where_the_stop_fails(name, monkeypatch):
    # with the lower bound of |beta_k s_k| switched off (a floor of 0), every
    # step runs eigh; the skipping run stops at the same step with the same bits
    matrix, calls, eigh = _coo(_KERNEL_MATRICES[name]), [], np.linalg.eigh
    monkeypatch.setattr(compressed.np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    value, y = compressed._lanczos_norm(matrix)
    skipping = list(calls)
    monkeypatch.setattr(compressed, "_residual_floor", lambda *bounds: 0.0)
    calls.clear()
    every_step = compressed._lanczos_norm(matrix)
    assert value == every_step[0] and np.array_equal(y, every_step[1])
    assert calls == list(range(1, len(calls) + 1)) and set(skipping) <= set(calls)
    assert skipping[-1] == calls[-1] and (len(skipping) < len(calls) or len(calls) <= 3)


def test_the_gap_bound_skips_more_eigh_calls_on_a_t1_grid(monkeypatch):
    # on the t_1 grid as tr_bracket builds it: 48 eigh calls at every step,
    # 22 with the residual bound alone (no gap: the kernel before the gap
    # bound), 16 with the gap bound; every run keeps the same bits
    grid, calls, eigh = _t1_grid(), [], np.linalg.eigh
    monkeypatch.setattr(compressed.np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    floor, counts, runs = compressed._residual_floor, [], []
    for bound in [lambda *bounds: 0.0, lambda rho, gap, *rest: floor(rho, 0.0, *rest), floor]:
        monkeypatch.setattr(compressed, "_residual_floor", bound)
        calls.clear()
        runs.append(compressed._lanczos_norm(grid))
        counts.append(len(calls))
    assert counts == [48, 22, 16]
    assert all(value == runs[0][0] and np.array_equal(y, runs[0][1]) for value, y in runs)


def test_forced_eigh_and_a_cold_block_cache_keep_the_csv_bytes(tmp_path, monkeypatch):
    # eigh at every step and every one-letter block built afresh, then as
    # shipped (twice, the second run on the blocks the first one kept)
    c2c3 = [["1/2", "1/2"], ["1/3", "1/3", "1/3"]]

    def outputs():
        kh = tmp_path / "kh.csv"
        assert run(["kh-norm", "--length", "2", "--trials", "3", "--seed", "9", "--out", str(kh)]) == 0
        return kh.read_bytes(), _rd_certify(tmp_path, "c2c3", c2c3, 9)

    shared_fock.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(compressed, "_residual_floor", lambda *bounds: 0.0)
        patch.setattr(TruncatedFock, "letter_block",
                      lambda f, j, a: compressed._times(*f.letter_operator(j, a), f.identity))
        forced = outputs()
    shared_fock.cache_clear()
    assert outputs() == forced and outputs() == forced


def test_a_space_keeps_the_one_letter_blocks_of_its_basis_letters():
    f = TruncatedFock([m2_tr(), c3_weighted()], 3)
    letters = [Letter(j, xi) for j in range(2) for xi in f.onb[j]]
    words = [(letter,) for letter in letters] + [(letters[0], letters[-1]), (letters[-1], letters[1])]
    blocks = compressed._word_blocks(f, words)
    for j in range(2):
        for xi in f.onb[j]:
            got, want = blocks[(Letter(j, xi),)], compressed._times(*f.letter_operator(j, xi), f.identity)
            assert np.array_equal(got.rows, want.rows) and np.array_equal(got.cols, want.cols)
            assert got.vals.dtype == want.vals.dtype and got.vals.tobytes() == want.vals.tobytes()
            assert f.letter_block(j, xi) is got
    again = compressed._word_blocks(f, words)
    assert all(again[word] is blocks[word] for word in words if len(word) == 1)
    assert again[()] is blocks[()] is f.identity
    assert sum(record[1] is not None for record in _kept(f).values()) == len(letters)
    # a payload outside the basis: built and dropped
    a = random_rational_element(f.factors[0], np.random.default_rng(22))
    outside = f.letter_block(0, a)
    assert f.letter_block(0, a) is not outside
    assert sum(record[1] is not None for record in _kept(f).values()) == len(letters)
    want = compressed._times(*f.letter_operator(0, a), f.identity)
    assert outside.vals.tobytes() == want.vals.tobytes() and np.array_equal(outside.rows, want.rows)


def test_the_kernel_restarts_from_its_top_ritz_vector(monkeypatch):
    monkeypatch.setattr(compressed, "_KRYLOV_DIM", 8)
    matrix = _KERNEL_MATRICES["random-%dx%d" % (_CROSSOVER + 300, _CROSSOVER + 72)]
    want = np.linalg.norm(matrix.toarray(), 2)
    assert abs(compressed._lanczos_norm(_coo(matrix))[0] - want) <= FLOAT_RTOL * want


def test_the_kernel_raises_when_its_restart_budget_runs_out(monkeypatch):
    monkeypatch.setattr(compressed, "_KRYLOV_DIM", 2)
    monkeypatch.setattr(compressed, "_KRYLOV_RESTARTS", 1)
    with pytest.raises(FockError, match="did not converge"):
        spectral_norm(_coo(_random_sparse(_CROSSOVER + 72, _CROSSOVER + 72, 5)))


def test_length_one_rx_check_runs_the_kernel_once(monkeypatch):
    # the 1 x 1 t_1 cell of x is its 241 x 241 depth-4 Fock matrix, so
    # rx_check takes the Fock lower bound from the cell's one norm
    runs = []
    kernel = compressed._lanczos_norm

    def counting_kernel(matrix):
        runs.append(matrix.shape)
        return kernel(matrix)

    amb = two_factor(m2_tr(), m2_tr())
    x = HomogeneousWordElement.random(amb, 1, np.random.default_rng(3))
    monkeypatch.setattr(compressed, "_lanczos_norm", counting_kernel)
    rx_check(x, moment_rmax=2)
    assert runs == [(241, 241)]


@pytest.mark.parametrize("factors", [
    (m2_tr(), m2_tr()), (m2_tr(), c3_uniform()), (c2_half(), c3_uniform()),
], ids=["M2*M2", "M2*C3", "C2*C3"])
def test_a_length_one_fock_norm_is_its_t1_cell_norm(factors):
    # rx_check takes a length-1 element's Fock lower bound from its t_1
    # cell: the cell is the element's matrix on the depth-4 space
    assert default_depth(1) == 4
    for seed in range(10):
        x = HomogeneousWordElement.random(two_factor(*factors), 1, np.random.default_rng(seed))
        fock_norm = norm_lower_bound(shared_fock(factors, 4), x.to_free_element())
        assert fock_norm == tr_bracket(x, 1).lower, seed


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


def _moments_to_free_cumulants_by_powers(moments):
    """Reference m -> kappa: each power M(z)^s built whole, once, by
    convolution from M(z)^{s-1}."""
    n = len(moments) - 1
    m = list(moments)
    zero = Fraction(0) if isinstance(m[0], (int, Fraction)) else 0.0
    powers = {1: m[:]}

    def mpow(s):
        if s not in powers:
            prev = mpow(s - 1)
            out = [zero] * (n + 1)
            for a in range(n + 1):
                acc = zero
                for b in range(a + 1):
                    acc = acc + prev[b] * m[a - b]
                out[a] = acc
            powers[s] = out
        return powers[s]

    kappa = [zero] * (n + 1)
    for nn in range(1, n + 1):
        acc = m[nn]
        for s in range(1, nn):
            acc = acc - kappa[s] * mpow(s)[nn - s]
        kappa[nn] = acc
    return kappa[1:]


def _free_cumulants_to_moments_by_rebuild(kappa, n):
    """Reference kappa -> m: [z^{nn-s}] M(z)^s rebuilt from [1, 0, ...] by s
    convolutions for every (nn, s)."""
    exact = not kappa or isinstance(kappa[0], (int, Fraction))
    one, zero = (Fraction(1), Fraction(0)) if exact else (1.0, 0.0)
    m = [one] + [zero] * n
    for nn in range(1, n + 1):
        acc = zero
        for s in range(1, nn + 1):
            coef = [one] + [zero] * (nn - s)
            for _ in range(s):
                nxt = [zero] * (nn - s + 1)
                for a in range(nn - s + 1):
                    t = zero
                    for b in range(a + 1):
                        t = t + coef[b] * m[a - b]
                    nxt[a] = t
                coef = nxt
            acc = acc + kappa[s - 1] * coef[nn - s]
        m[nn] = acc
    return m


def _word_moments_by_closures(h, r_max):
    """Reference word expansion: powers of h made on demand by a memoized
    closure, each pairing checked by another."""
    powers = {0: FreeElement.one(h.ambient), 1: h}

    def power(s):
        if s not in powers:
            prev = power(s - 1)
            if len(prev.terms) * len(h.terms) > fock._TERM_CAP:
                raise ResourceCapError("term cap")
            powers[s] = normalize(prev * h)
        return powers[s]

    def pair(a, b):
        if len(a.terms) * len(b.terms) > fock._PAIR_CAP:
            raise ResourceCapError("pair cap")
        return l2_inner_free(a, b)

    q = [QC(1)]
    for r in range(1, r_max + 1):
        s = r // 2
        q.append(pair(power(s), power(s)) if r % 2 == 0 else pair(power(s + 1), power(s)))
    return q


def _random_sequences(rng):
    """Moment or cumulant lists of every kind the transforms take: Fractions,
    ints, floats with signed zeros, and floats after an int 1."""
    for trial in range(60):
        n = int(rng.integers(0, 10))
        kind = trial % 4
        if kind == 0:
            tail = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(n)]
        elif kind == 1:
            tail = [int(rng.integers(-5, 6)) for _ in range(n)]
        else:
            tail = [[0.0, -0.0, float(rng.uniform(-3, 3))][int(rng.integers(3))] for _ in range(n)]
        yield [1.0 if kind == 2 else 1] + tail


def test_cumulant_walk_keeps_the_reference_bits():
    # both directions, by repr: the same values, types and float bits
    for m in _random_sequences(np.random.default_rng(31)):
        kappa = moments_to_free_cumulants(m)
        # the wrapper takes int moments as Fractions (see the test below)
        exact = [Fraction(v) if isinstance(v, int) else v for v in m]
        assert repr(kappa) == repr(_moments_to_free_cumulants_by_powers(exact))
        n = len(m) - 1
        for k in (kappa, m[1:]):
            got = free_cumulants_to_moments(k, n)
            assert repr(got) == repr(_free_cumulants_to_moments_by_rebuild(k, n))
    assert free_cumulants_to_moments([], 0) == [Fraction(1)]


def test_int_moments_give_fraction_cumulants_throughout():
    assert repr(moments_to_free_cumulants([1, 0, 1, 0, 2])) == repr([Fraction(0), Fraction(1), Fraction(0), Fraction(0)])
    for m in _random_sequences(np.random.default_rng(31)):
        kinds = {type(v) for v in moments_to_free_cumulants(m)}
        assert kinds <= ({float} if isinstance(m[-1], float) else {Fraction})


def _single_letter_sums(rng):
    """The Kesten element and 24 self-adjoint sums of single letters over
    (M2, tr) * (C3; 3/5, 1/5, 1/5), half of them float."""
    n_atoms = 24
    alg = MatrixBlockAlgebra.from_weights([Fraction(1, n_atoms)] * n_atoms)
    u = alg.element([[[complex(np.exp(2j * np.pi * k / n_atoms))]] for k in range(n_atoms)])
    kesten = two_factor(alg, alg)
    yield 12, sum((FreeElement.letter(kesten, j, v) for j in (0, 1) for v in (u, u.adjoint())),
                  FreeElement(kesten))
    amb = two_factor(m2_tr(), c3_weighted())
    for trial in range(24):
        y = random_word_element(amb, 1, rng, n_terms=3, centered=bool(trial % 2))
        y = y + QC(Fraction(int(rng.integers(-2, 3)), 3))
        if trial >= 12:
            y = y * complex(1.0 + 1e-3 * trial, 0.0)
        yield 4, y + y.adjoint()


def test_free_cumulant_moments_keep_the_reference_bits(monkeypatch):
    cases = list(_single_letter_sums(np.random.default_rng(5)))
    got = [moment_norm_estimate(x, r_max) for r_max, x in cases]
    monkeypatch.setattr(fock, "moments_to_free_cumulants", _moments_to_free_cumulants_by_powers)
    monkeypatch.setattr(fock, "free_cumulants_to_moments", _free_cumulants_to_moments_by_rebuild)
    want = [moment_norm_estimate(x, r_max) for r_max, x in cases]
    assert {est.method for est in got} == {"free-cumulant"}
    assert {type(est.rows[0][1]) for est in got} == {Fraction, float}
    for a, b in zip(got, want):
        assert repr(a.rows) == repr(b.rows)


def test_float_self_adjoint_letters_take_the_free_cumulant_path():
    # conj turns the +0j of a real float entry into -0j, so x* is not == x
    # here; self-adjointness is still read from the values
    amb = two_factor(m2_tr(), c3_weighted())
    for one in (1, 1.0):
        a = FreeElement.letter(amb, 0, m2_tr().element([[[one, 0], [0, -one]]]))
        half = one * Fraction(1, 2)
        b = FreeElement.letter(amb, 1, c3_weighted().element([[[2 * one]], [[-one]], [[half]]]))
        for x in (a, a + b):
            est = moment_norm_estimate(x, 4)
            assert est.method == "free-cumulant"
            m = fock._single_letter_moments(x, 8)
            assert repr([row[1] for row in est.rows]) == repr(m[2:9:2])
    assert x != x.adjoint()
    assert [row[1] for row in est.rows[:2]] == [3.6499999999999995, 23.83249999999999]


def test_word_moments_keep_the_reference_bits():
    amb = two_factor(m2_tr(), c3_weighted())
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = random_word_element(amb, 2, rng, n_terms=2)
        h = normalize(x.adjoint() * x)
        assert repr(_word_moments(h, 3)) == repr(_word_moments_by_closures(h, 3))


# ---------------------------------------------------------------------------
# moment estimates
# ---------------------------------------------------------------------------


def test_moment_estimate_of_identity():
    amb = two_factor(m2_tr(), m2_tr())
    est = moment_norm_estimate(FreeElement.one(amb), 3)
    assert est.max == pytest.approx(1.0)
    f = TruncatedFock(amb.factors, 2)
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
    f = TruncatedFock(amb.factors, default_depth(x.max_word_length()))
    lb = norm_lower_bound(f, x)
    # both are lower bounds of the same norm; the Fock bound at depth >= 2*len
    # dominates the moment bound at small r only up to truncation, so just
    # check they are consistent as lower bounds of an upper estimate
    assert est.max >= math.sqrt(max(complex(l2_inner_free(x, x)).real, 0.0)) - 1e-9


@pytest.mark.parametrize("length, r_max", [(1, 3), (2, 2)])
def test_vector_moments_match_word_expansion(length, r_max):
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(10 + length)
    for _ in range(3):
        x = HomogeneousWordElement.random(amb, length, rng).to_free_element()
        got = _vector_moments(x, r_max)
        want = _word_moments(normalize(x.adjoint() * x), r_max)
        for a, b in zip(got, want):
            assert a == pytest.approx(complex(b).real, rel=1e-12, abs=0)
        assert moment_norm_estimate(x, r_max).method == "fock-vector"


def test_vector_moments_of_complex_letters_match_word_expansion():
    # complex, non-self-adjoint letters: x* acts with the conjugate tables
    rng = np.random.default_rng(12)
    amb = two_factor(m2_tr(), m2_tr())
    pool = [[Letter(j, _float_centred(amb.factors[j], rng)) for _ in range(2)] for j in (0, 1)]
    x = FreeElement(amb, {(pool[0][0], pool[1][1]): 0.5 - 1j,
                          (pool[1][0], pool[0][1], pool[1][1]): 1.5 + 0.25j})
    got = _vector_moments(x, 3)
    want = _word_moments(normalize(x.adjoint() * x), 3)
    for a, b in zip(got, want):
        assert a == pytest.approx(complex(b).real, rel=1e-12, abs=0)


def test_exact_entries_over_a_float_state_take_the_vector_path():
    # x*x normalizes to single letters, but the float state makes x float:
    # the moments are those of the float twin of x, by the same method
    c3 = MatrixBlockAlgebra.from_weights([0.25, 0.25, 0.5])
    amb = two_factor(c3, c3)
    entries = [QC(1, 1), QC(0, 2), QC(-1)]
    x = FreeElement.letter(amb, 0, c3.element([[[v]] for v in entries]))
    twin = FreeElement.letter(amb, 0, c3.element([[[complex(v)]] for v in entries]))
    assert not x.is_exact() and normalize(x.adjoint() * x).max_word_length() == 1
    est = moment_norm_estimate(x, 3)
    assert est.method == "fock-vector"
    assert est.rows == moment_norm_estimate(twin, 3).rows


def test_exact_moments_stay_word_expansion():
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(12)
    x = random_word_element(amb, 2, rng, n_terms=2)
    est = moment_norm_estimate(x, 2)
    assert est.method == "word-expansion"
    assert all(isinstance(row[1], QC) for row in est.rows)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["words", "letters"]))
def test_exact_moment_roots_are_the_largest_floats_not_above(seed, shape):
    # word expansion, or free cumulants of a self-adjoint sum of letters
    amb = two_factor(m2_tr(), c3_weighted())
    rng = np.random.default_rng(seed)
    if shape == "words":
        x = random_word_element(amb, 2, rng, n_terms=2)
    else:
        y = random_word_element(amb, 1, rng, n_terms=3)
        x = y + y.adjoint()
    est = moment_norm_estimate(x, 3)
    assert est.method in ("word-expansion", "free-cumulant")
    q = [Fraction(1)] + [row[1].re if isinstance(row[1], QC) else row[1] for row in est.rows]
    for r, _, root, ratio, best in est.rows:
        assert Fraction(root) ** (2 * r) <= q[r] < Fraction(math.nextafter(root, math.inf)) ** (2 * r)
        if q[r - 1]:
            next_ratio = Fraction(math.nextafter(ratio, math.inf))
            assert Fraction(ratio) ** 2 * q[r - 1] <= q[r] < next_ratio ** 2 * q[r - 1]
        else:
            assert ratio == 0.0
        assert best == max(root, ratio)


def test_exact_x_star_x_above_the_term_cap_is_not_formed(tmp_path, monkeypatch, capsys):
    def refuse(x):
        raise AssertionError("normalize called: x*x was formed")

    # 150 uncentred exact length-3 words over (M2, tr) * (M2, tr)
    amb = two_factor(m2_tr(), m2_tr())
    rng = np.random.default_rng(43)
    x = FreeElement(amb)
    for _ in range(150):
        x = x + random_alternating_word(amb, 3, rng, centered=False)
    assert len(x.terms) == 150 and len(x.terms) ** 2 > fock._TERM_CAP
    monkeypatch.setattr(compressed, "normalize", refuse)
    message = f"exceed {fock._TERM_CAP} word products"
    with pytest.raises(ResourceCapError, match=message):
        moment_norm_estimate(x, 2)
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    factors, element = tmp_path / "factors.json", tmp_path / "elem.json"
    factors.write_text(json.dumps({"factors": [m2, m2]}))
    element.write_text(json.dumps(x.to_json()))
    argv = ["free-moments", "--factors", str(factors), "--element", str(element),
            "--rmax", "2", "--out", str(tmp_path / "m.csv")]
    assert run(argv) == 2
    assert message in capsys.readouterr().err


def test_vector_moments_depth_above_cap_raises():
    amb = two_factor(m2_tr(), m2_tr())
    x = HomogeneousWordElement.random(amb, 1, np.random.default_rng(13)).to_free_element()
    # depth 11 over (M2, tr) * (M2, tr) has 1 + 6 (3^11 - 1) / 2 > 200 000 tensors
    with pytest.raises(ResourceCapError):
        moment_norm_estimate(x, 11)


@pytest.mark.parametrize("coeff, method", [(1e200, "free-cumulant"), (1e200j, "fock-vector")])
def test_float_moments_beyond_the_float_range_raise_overflow_error(coeff, method):
    # 1e200 times the C2 sign: self-adjoint, so free-cumulant; times 1j it is not
    c2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2)] * 2)
    amb = two_factor(c2, MatrixBlockAlgebra.from_weights([Fraction(1, 3)] * 3))
    x = FreeElement.letter(amb, 0, c2.element([[[1]], [[-1]]])) * coeff
    q, used = compressed._even_moments(x, 2)
    assert used == method and not math.isfinite(q[1])
    with pytest.raises(OverflowError, match=r"^the float moment state\(\(x\*x\)\^1\) is beyond the float range$"):
        moment_norm_estimate(x, 2)


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
