"""Shared generators for the free-product test modules."""

from fractions import Fraction

from hypothesis import settings

from freedecay.algebra import AlgebraElement, MatrixBlockAlgebra
from freedecay.freeword import (  # noqa: F401  (re-exported to the test modules)
    FreeElement,
    FreeProductAmbient,
    random_alternating_word,
    random_centered_rational,
    random_rational_element,
)
from freedecay.scalars import QC

# one fixed sequence of examples per test, so two runs on one tree test the
# same inputs; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def m2_tr():
    return MatrixBlockAlgebra.matrix_with_trace(2)


def c3_weighted():
    return MatrixBlockAlgebra.from_weights(
        [Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)]
    )


def m3_non_diagonal():
    a, b = Fraction(1, 3), Fraction(1, 6)
    return MatrixBlockAlgebra([[[a, b, 0], [b, a, 0], [0, 0, a]]])


def random_word_element(ambient, max_length, rng, n_terms=1, centered=False):
    out = FreeElement(ambient)
    for _ in range(n_terms):
        length = int(rng.integers(1, max_length + 1))
        coeff = QC(Fraction(int(rng.integers(-3, 4))), Fraction(int(rng.integers(-3, 4))))
        if not coeff:
            coeff = QC(1)
        out = out + random_alternating_word(ambient, length, rng, centered=centered) * coeff
    return out


def linear_sum(pairs):
    """e_1 c_1 + e_2 c_2 + ... over the (e, c) pairs, added left to right."""
    (e, c), *rest = pairs
    out = e * c
    for e, c in rest:
        out = out + e * c
    return out


def pauli_unitaries(algebra):
    """u = w = offdiagonal flip, v = diag(1, -1): rational unitaries in M2."""
    flip = AlgebraElement(algebra, [[[0, 1], [1, 0]]])
    sign = AlgebraElement(algebra, [[[1, 0], [0, -1]]])
    return flip, sign, flip


def two_factor(a1, a2):
    return FreeProductAmbient((a1, a2))
