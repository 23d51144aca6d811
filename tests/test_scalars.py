"""The tolerance policy of ``freedecay.scalars``: negligible, agree, and the
rule that tolerance literals live only there; the equality, hashing and
powers of ``QC`` and the rule that its layout stays in ``scalars``; plus the
rules that modules import only at their top and that every ``__all__``
entry exists."""

import ast
import importlib
import pathlib
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedecay.algebra import AlgebraError, AlgebraElement, MatrixBlockAlgebra
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


def _complex_hash(re, im):
    """CPython's hash of a complex number with parts of these values."""
    width = sys.hash_info.width
    h = (hash(re) + sys.hash_info.imag * hash(im)) & ((1 << width) - 1)
    h -= (1 << width) if h >> (width - 1) else 0
    return -2 if h == -1 else h


_M = sys.hash_info.modulus
# denominators that are multiples of the hash modulus have no inverse mod it
hashed_parts = st.one_of(rationals, st.builds(lambda n, k: Fraction(n, k * _M),
                                              st.integers(-10**6, 10**6), st.integers(1, 9)))


@settings(max_examples=200, deadline=None)
@given(hashed_parts, hashed_parts)
def test_qc_hashes_like_fraction_and_complex(re, im):
    q = QC(re, im)
    assert hash(q) == _complex_hash(re, im)
    if not im:
        assert hash(q) == hash(re)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**53, 2**53), st.integers(-2**53, 2**53), st.integers(0, 80))
def test_dyadic_exact_and_float_twins_are_one_number(m, k, e):
    # a dyadic rational is a float exactly: both compare and hash equal
    re, im = Fraction(m, 2**e), Fraction(k, 2**e)
    q, z = QC(re, im), complex(float(re), float(im))
    assert q == z and z == q and hash(q) == hash(z)
    assert (q == float(re)) == (not im)
    if not im:
        assert hash(q) == hash(float(re)) == hash(re) == hash(z)


def test_exact_against_float_equality_is_exact():
    third = QC(Fraction(1, 3))
    assert third != 1 / 3 and Fraction(1, 3) != 1 / 3
    assert QC(Fraction(1, 3), 1) != complex(1 / 3, 1)
    assert QC(1) != float("nan") and QC(1) != float("inf")
    alg = MatrixBlockAlgebra.matrix_with_trace(2)
    exact = AlgebraElement(alg, [[[QC(Fraction(1, 2), Fraction(1, 4)), QC(0)],
                                  [QC(0), QC(-1)]]])
    floats = AlgebraElement(alg, [[[0.5 + 0.25j, 0j], [0j, -1 + 0j]]])
    assert exact == floats and len({exact, floats}) == 1


def test_integer_powers_stay_exact():
    assert QC(2) ** -1 == QC(Fraction(1, 2)) and type(QC(2) ** -1) is QC
    assert QC(1, 1) ** -2 == QC(0, Fraction(-1, 2))  # (1 + i)^2 = 2i
    assert QC(0) ** 0 == QC(1)
    with pytest.raises(ZeroDivisionError):
        QC(0) ** -1
    # other exponents go through complex
    root = QC(4) ** 0.5
    assert type(root) is complex and root == 2


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


def test_every_all_entry_exists():
    # a deletion that leaves a stale __all__ entry fails here at once
    modules = [importlib.import_module("freedecay" if p.stem == "__init__" else f"freedecay.{p.stem}")
               for p in sorted(SRC.glob("*.py"))]
    stray = [f"{m.__name__}: {entry}" for m in modules for entry in getattr(m, "__all__", ())
             if not hasattr(m, entry)]
    assert not stray, "__all__ entries that do not exist:\n" + "\n".join(stray)
    for m in modules:
        exec(f"from {m.__name__} import *", {})


QC_FIELDS = {"_a", "_b", "_d"}


def test_qc_layout_lives_only_in_scalars():
    # no other module reads QC's fields, imports a private name of scalars,
    # or builds a QC past its constructor
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            bad = False
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalars"):
                bad = any(alias.name.startswith("_") for alias in node.names)
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                bad = (node.attr in QC_FIELDS
                       or owner in ("QC", "scalars") and node.attr.startswith("_"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                bad = node.func.attr == "__new__" and any(
                    isinstance(arg, ast.Name) and arg.id == "QC" for arg in node.args)
            if bad:
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not stray, "QC layout read outside scalars:\n" + "\n".join(stray)
