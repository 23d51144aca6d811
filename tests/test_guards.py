"""The input guards of the library's public doors: each bad input raises its
own exception type with a message that names what is wrong."""

import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import m2_tr, pauli_unitaries
from freedecay import freeword
from freedecay.algebra import AlgebraElement, AlgebraError, MatrixBlockAlgebra, dn_norm
from freedecay.compressed import TruncatedFock, moment_norm_estimate, norm_lower_bound
from freedecay.fock import FockError, moments_to_free_cumulants
from freedecay.freeword import (
    FreeElement, FreeProductAmbient, Letter, avitzour_phi, avitzour_shape_check, conjugation_word_shape,
    l2_inner_free, phi_conjugation, random_centered_rational,
)
from freedecay.khintchine import HomogeneousWordElement, sr_norm, tr_bracket
from freedecay.measure import CompactMeasure, MeasureError
from freedecay.rdcert import orthogonality_hypotheses
from freedecay.scalars import QC, as_scalar

C2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2)] * 2)
M2 = m2_tr()
FLIP, SIGN, _ = pauli_unitaries(M2)  # u = w = FLIP, v = SIGN: an Avitzour triple
C2_SIGN = AlgebraElement(C2, [[[1]], [[-1]]])
AMB2 = FreeProductAmbient([M2, M2])
AMB3 = FreeProductAmbient([M2, M2, M2])
LETTER = FreeElement.word(AMB2, [Letter(1, FLIP)])
THIRD = FreeElement.word(AMB3, [Letter(2, FLIP)])
UNCENTRED = FreeElement.word(AMB2, [Letter(1, FLIP + M2.identity())])
WORD1 = HomogeneousWordElement(AMB2, 1, {((0,), (0,)): 1.0})


def _two_word_image(monkeypatch):
    two = FreeElement.word(AMB2, [Letter(0, FLIP)]) + LETTER
    monkeypatch.setattr(freeword, "phi_conjugation", lambda v, x: two)
    return conjugation_word_shape(SIGN, THIRD)


GUARDS = [
    # compressed
    ("fock-depth", lambda mp: TruncatedFock([C2], -1), FockError, "depth must be >= 0"),
    ("fock-foreign-payload", lambda mp: TruncatedFock([M2, C2], 1).letter_block(1, FLIP),
     AlgebraError, "payload does not belong to the requested factor"),
    ("norm-foreign-ambient", lambda mp: norm_lower_bound(TruncatedFock([C2, C2], 1), LETTER),
     AlgebraError, "element ambient does not match the Fock factors"),
    ("fock-factor-index", lambda mp: TruncatedFock([M2, C2], 1).letter_block(-1, C2_SIGN),
     AlgebraError, "factor index -1 is not in 0..1"),
    ("moment-r-max", lambda mp: moment_norm_estimate(LETTER, 0), ValueError, "r_max must be >= 1"),
    # fock
    ("cumulants-m0", lambda mp: moments_to_free_cumulants([2, 1]), ValueError, "m_0 must be 1"),
    # khintchine
    ("homogeneous-length", lambda mp: HomogeneousWordElement(AMB2, 0, {}),
     ValueError, "homogeneous elements need length >= 1"),
    ("homogeneous-key", lambda mp: HomogeneousWordElement(AMB2, 2, {((0,), (0,)): 1.0}),
     ValueError, "key does not match the declared length"),
    ("homogeneous-pattern", lambda mp: HomogeneousWordElement(AMB2, 2, {((0, 0), (0, 0)): 1.0}),
     ValueError, "pattern (0, 0) is not alternating"),
    ("homogeneous-index", lambda mp: HomogeneousWordElement(AMB2, 1, {((0,), (3,)): 1.0}),
     IndexError, "letter index out of range"),
    ("homogeneous-negative-factor", lambda mp: HomogeneousWordElement(AMB2, 2, {((1, -1), (0, 1)): 1.0}),
     AlgebraError, "factor index -1 is not in 0..1"),
    ("homogeneous-factor", lambda mp: HomogeneousWordElement(AMB2, 1, {((5,), (0,)): 1.0}),
     AlgebraError, "factor index 5 is not in 0..1"),
    ("sr-cut", lambda mp: sr_norm(WORD1, 2), IndexError, "cut position r=2 outside 0..1"),
    ("tr-middle", lambda mp: tr_bracket(WORD1, 0), IndexError, "middle position r=0 outside 1..1"),
    # measure
    ("measure-mass", lambda mp: CompactMeasure((0, 1), lambda k: Fraction(2)),
     MeasureError, "m_0 = 2, expected a probability measure"),
    ("measure-moment-index", lambda mp: CompactMeasure.semicircle().moment(-1),
     MeasureError, "moment index must be nonnegative"),
    ("measure-builtin", lambda mp: CompactMeasure.builtin("arcsine"),
     MeasureError, "unknown builtin measure 'arcsine'; choose from ['cosine', 'lebesgue', 'lebesgue01', 'semicircle']"),
    ("measure-support-pair", lambda mp: CompactMeasure.from_json({"support": [0], "moments": [1]}),
     MeasureError, "'support' must be a pair [a, b], got [0]"),
    ("measure-moments-short", lambda mp: CompactMeasure.from_json({"support": [0, 1], "moments": [1, 0]}).moment(2),
     MeasureError, "moment m_2 requested but only 2 provided"),
    # freeword
    ("ambient-empty", lambda mp: FreeProductAmbient([]), AlgebraError, "free product needs at least one factor"),
    ("word-negative-factor", lambda mp: FreeElement.word(AMB2, [Letter(1, FLIP), Letter(-1, FLIP)]),
     AlgebraError, "factor index -1 is not in 0..1"),
    ("letter-factor", lambda mp: FreeElement.letter(AMB2, 2, FLIP), AlgebraError, "factor index 2 is not in 0..1"),
    ("l2-ambients", lambda mp: l2_inner_free(LETTER, THIRD), AlgebraError, "free elements live in different ambients"),
    ("phi-ambient", lambda mp: phi_conjugation(SIGN, LETTER), AlgebraError, "phi_conjugation expects an A1*A2*A1 ambient"),
    ("phi-unitary-factor", lambda mp: phi_conjugation(C2_SIGN, THIRD),
     AlgebraError, "conjugating unitary must live in the middle factor"),
    ("shape-single-word", lambda mp: conjugation_word_shape(SIGN, THIRD + QC(1)),
     AlgebraError, "shape inspection expects a single word"),
    ("shape-image-single-word", _two_word_image, AlgebraError, "conjugation image did not stay a single word"),
    ("phi-n", lambda mp: avitzour_phi(0, FLIP, SIGN, FLIP, THIRD), ValueError, "n must be positive"),
    ("phi-n-ambient", lambda mp: avitzour_phi(1, FLIP, SIGN, FLIP, LETTER),
     AlgebraError, "avitzour_phi expects an A1*A2*A1 ambient"),
    ("phi-n-u", lambda mp: avitzour_phi(1, C2_SIGN, SIGN, FLIP, THIRD), AlgebraError, "u must live in the first factor"),
    ("phi-n-vw", lambda mp: avitzour_phi(1, FLIP, C2_SIGN, FLIP, THIRD),
     AlgebraError, "v, w must live in the second factor"),
    ("shape-mode", lambda mp: avitzour_shape_check(1, FLIP, SIGN, FLIP, LETTER, "iv"),
     ValueError, "unknown mode 'iv'"),
    ("shape-ambient", lambda mp: avitzour_shape_check(1, FLIP, SIGN, FLIP, THIRD, "i"),
     AlgebraError, "shape check expects an A1*A2 ambient"),
    ("shape-centred", lambda mp: avitzour_shape_check(1, FLIP, SIGN, FLIP, UNCENTRED, "i"),
     AlgebraError, "input must combine alternating centered words"),
    ("random-centred", lambda mp: random_centered_rational(MatrixBlockAlgebra.from_weights([1]),
                                                           np.random.default_rng(0)),
     AlgebraError, "could not draw a nonzero centered element"),
    # algebra
    ("json-scalar", lambda mp: AlgebraElement.from_json(C2, [[[None]], [[1]]]), AlgebraError, "bad scalar in JSON: None"),
    ("element-blocks", lambda mp: AlgebraElement(C2, [[[1]]]), AlgebraError, "element has 1 blocks, algebra has 2"),
    ("element-owners", lambda mp: C2_SIGN + FLIP, AlgebraError, "elements belong to different algebras"),
    ("dn-norm-owners", lambda mp: dn_norm([C2_SIGN, FLIP]), AlgebraError, "dn_norm vectors must share one algebra"),
    # rdcert
    ("hypotheses-unitary", lambda mp: orthogonality_hypotheses([], SIGN + SIGN, []), AlgebraError, "u must be unitary"),
    # scalars
    ("scalar-type", lambda mp: as_scalar("1"), TypeError, "not a scalar: '1'"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_each_public_door_refuses_its_bad_input(call, error, message, monkeypatch):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(monkeypatch)


def test_one_atom_widens_its_support_around_the_atom():
    mu = CompactMeasure.uniform_atoms([3])
    assert mu.support == (2, 4) and mu.moment(2) == 9


def test_an_exact_entry_beyond_the_float_range_still_hashes():
    huge = AlgebraElement(C2, [[[QC(10 ** 400)]], [[1]]])
    with pytest.raises(OverflowError):
        huge.blocks[0].complex_rows()
    assert hash(huge) == hash(AlgebraElement(C2, [[[QC(10 ** 400)]], [[1]]]))
    assert len({huge, huge + C2_SIGN, C2_SIGN}) == 3
