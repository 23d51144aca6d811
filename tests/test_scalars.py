"""The tolerance policy of ``freedecay.scalars``: negligible, agree, and the
rule that tolerance literals live only there; plus the rule that modules
import only at their top."""

import ast
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedecay.algebra import AlgebraError, MatrixBlockAlgebra
from freedecay.measure import CompactMeasure, MeasureError
from freedecay.rdcert import classify_abelian
from freedecay.scalars import FLOAT_RTOL, FLOAT_ZERO, QC, agree, negligible

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "freedecay"

rationals = st.fractions(max_denominator=10**12).filter(lambda f: abs(f) < 10**6)
exact_values = st.one_of(
    st.integers(-10**6, 10**6),
    rationals,
    st.builds(QC, rationals, rationals),
)


@settings(max_examples=200, deadline=None)
@given(exact_values, st.integers(1, 60), st.floats(1e-3, 1e3))
def test_exact_values_compare_exactly(x, k, scale):
    tiny = QC(Fraction(1, 10**k))
    assert agree(x, x, scale)
    assert not agree(x, x + tiny, scale)
    assert not negligible(tiny)
    assert negligible(x - x)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1, 1), st.floats(1e-6, 1e6), st.floats(0, 0.5), st.floats(2, 10))
def test_floats_agree_within_the_relative_tolerance(fraction, scale, near, far):
    a = fraction * scale  # the scale bounds the quantity
    assert agree(a, a + near * FLOAT_RTOL * scale, scale)
    assert agree(complex(a, near * FLOAT_RTOL * scale), a, scale)
    assert not agree(a, a + far * FLOAT_RTOL * scale, scale)
    assert negligible(near * FLOAT_ZERO) and negligible(-near * FLOAT_ZERO * 1j)
    assert not negligible(far * FLOAT_ZERO)


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_exact_against_float_compares_as_floats(r):
    # the float of a third is not a third, yet the two agree as floats
    scale = 1 + abs(float(r))
    assert agree(QC(r), float(r), scale)
    assert agree(r, complex(float(r)), scale)
    assert agree(Fraction(1, 3), 1 / 3, scale) and Fraction(1, 3) != 1 / 3
    assert not agree(QC(r), float(r) + 10 * FLOAT_RTOL * scale, scale)


def test_identity_check_is_exact_on_exact_sides():
    exact = QC(Fraction(4352, 5))
    assert agree(exact, QC(Fraction(4352, 5)), 870.4)
    assert not agree(exact, exact + QC(Fraction(1, 10**30)), 870.4)
    assert agree(870.4000000000017 + 0j, exact, 870.4)
    assert not agree(870.4 * (1 + 10 * FLOAT_RTOL) + 0j, exact, 870.4)


def _loaders_accept(weights):
    """Whether each loader of float atom weights accepts the list."""
    out = []
    for load, error in (
        (lambda w: classify_abelian(w, [0.5, 0.5]), AlgebraError),
        (MatrixBlockAlgebra.from_weights, AlgebraError),
        (lambda w: CompactMeasure.uniform_atoms(list(range(len(w))), w), MeasureError),
    ):
        try:
            load(weights)
            out.append(True)
        except error:
            out.append(False)
    return out


@pytest.mark.parametrize("offset, accepted", [(5e-13, True), (-5e-13, True),
                                              (5e-10, False), (-5e-10, False)])
def test_weight_loaders_share_the_sum_to_one_rule(offset, accepted):
    assert _loaders_accept([0.25, 0.75 + offset]) == [accepted] * 3
    assert _loaders_accept([0.2, 0.3, 0.5 + offset]) == [accepted] * 3


# Literals that are not decisions on data: stopping rules of iterations and
# guards against division by zero, each with its reason.
ALLOWED_LITERALS = {
    ("scalars.py", "FLOAT_ZERO = 1e-12"): "the policy: a float data value counts as zero",
    ("scalars.py", "FLOAT_RTOL = 1e-9"): "the policy: relative agreement of two float routes",
    ("algebra.py", "_POWER_STOP = 1e-12"): "power iteration stopping rule",
    ("measure.py", "np.maximum(1.0 - t * t, 1e-300)"): "cosine density: division guard at t = +-1",
    ("rdcert.py", "_NEWTON_STOP = 1e-14"): "Newton phase search stopping rule",
}


def test_tolerance_literals_live_only_in_the_policy():
    pattern = re.compile(r"\d+(\.\d*)?e-\d+")
    found, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if not pattern.search(line):
                continue
            keys = [k for k in ALLOWED_LITERALS if k[0] == path.name and k[1] in line]
            if keys:
                found.update(keys)
            else:
                stray.append(f"{path.name}:{number}: {line.strip()}")
    assert not stray, "tolerance literals outside the policy:\n" + "\n".join(stray)
    assert found == set(ALLOWED_LITERALS)


def test_no_imports_inside_functions():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stray += [
                    f"{path.name}:{inner.lineno}: {ast.unparse(inner)}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert not stray, "imports inside function bodies:\n" + "\n".join(stray)
