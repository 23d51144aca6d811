"""The tolerance policy of ``freedecay.scalars``: negligible, agree, and the
rule that tolerance literals live only there; the equality, hashing,
powers and float operators of ``QC`` and the rule that its layout stays in ``scalars``; the
rule that only ``algebra`` spells a payload's float bits; plus the
rules that modules import only at their top and never a thread or process
pool, that the package imports no layer and no layer scipy, that files
are opened only in the two file doors of ``cli``, that spaces are built
only in ``compressed.shared_fock``, that every cache is bounded, that every ``__all__`` entry exists, that no
module-level def only forwards its parameters to another call, that every
public def has a src reference or a stated reason, and that the Python
examples of README.md run.  Each source lint reads the files through
``_sources``, which fails unless it finds every module of the package."""

import ast
import importlib
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedecay.algebra import AlgebraError, AlgebraElement, MatrixBlockAlgebra, center, l2_inner, state
from freedecay.freeword import FreeElement, FreeProductAmbient
from freedecay.measure import CompactMeasure, MeasureError
from freedecay.rdcert import classify_abelian
from freedecay.scalars import (
    FLOAT_RTOL, FLOAT_ZERO, QC, QCMatrix, accumulate, agree, as_scalar, common_scalar, exact_block, negligible,
    root_down, trace_product, unit_scale,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "freedecay"
MODULES = {"__init__.py", "scalars.py", "algebra.py", "measure.py", "freeword.py", "fock.py",
           "compressed.py", "khintchine.py", "rdcert.py", "cli.py"}


def _sources(src=SRC):
    """The package's module files in name order, for the source lints; fails
    unless every module is there, so a lint run where it finds no source
    cannot pass."""
    paths = sorted(src.glob("*.py"))
    missing = MODULES - {path.name for path in paths}
    assert not missing, f"source lints found no {', '.join(sorted(missing))} in {src}"
    return paths

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
@given(st.fractions(min_value=0), st.integers(-400, 300), st.integers(1, 24))
def test_root_down_is_the_largest_float_not_above_the_root(fraction, exponent, k):
    q = fraction * Fraction(10) ** exponent
    t = root_down(q, k)
    assert Fraction(t) ** k <= q < Fraction(math.nextafter(t, math.inf)) ** k
    assert root_down(QC(q), k) == t


def test_root_down_steps_up_from_a_guess_below_the_root():
    s = 1.997834823809371
    q = Fraction(s) ** 3  # q < 2**3, so the guess is float(q) ** (1/3), unscaled
    assert float(q) ** (1 / 3) < s
    assert root_down(q, 3) == s


def test_exact_operands_on_the_left_of_a_qc_stay_exact():
    for got, want in [(1 - QC(1, 2), QC(0, -2)), (Fraction(1, 2) / QC(0, 1), QC(0, Fraction(-1, 2)))]:
        assert type(got) is QC and got == want
        assert type(got.re) is Fraction and type(got.im) is Fraction


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


_parts_with_zeros = st.one_of(st.just(Fraction(0)), rationals)
_floats = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False))
_mixed_operators = {
    "q + f": lambda q, f: q + f, "f + q": lambda q, f: f + q,
    "q - f": lambda q, f: q - f, "f - q": lambda q, f: f - q,
    "q * f": lambda q, f: q * f, "f * q": lambda q, f: f * q,
    "q / f": lambda q, f: q / f, "f / q": lambda q, f: f / q,
}


def _outcome(op, q, f):
    try:
        return repr(op(q, f))
    except ZeroDivisionError:
        return "ZeroDivisionError"


@settings(max_examples=300, deadline=None)
@given(_parts_with_zeros, _parts_with_zeros,
       st.one_of(_floats, st.builds(complex, _floats, _floats)))
def test_qc_meets_floats_as_its_complex_does(re, im, f):
    # a float operand sends QC through complex(q): every mixed operator must
    # give the bits, signed zeros included, that complex(q) gives
    q = QC(re, im)
    z = complex(q)
    for name, op in _mixed_operators.items():
        assert _outcome(op, q, f) == _outcome(op, z, f), (name, q, f)
    assert repr(abs(q)) == repr(abs(z))
    if im:
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            float(q)
    else:
        assert repr(float(q)) == repr(z.real)


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
    # elements compare kind and float bits; hashes compare values
    assert exact != floats and hash(exact) == hash(floats) and len({exact, floats}) == 2
    signed = AlgebraElement(alg, [[[0.5 + 0.25j, complex(-0.0, 0.0)], [0j, -1 + 0j]]])
    assert signed != floats and hash(signed) == hash(floats) and len({signed, floats}) == 2


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
    """Whether each of the three loaders of atom weights accepts the list."""
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
    # weights that sum to 1 are still refused with an atom of weight <= 0
    assert _loaders_accept([0.5, 0.5, 0.0]) == [False] * 3
    assert _loaders_accept([0.75, 0.5, -0.25]) == [False] * 3
    assert _loaders_accept([]) == [False] * 3
    # no loader takes a complex weight
    assert _loaders_accept([QC(Fraction(1, 2), 1), QC(Fraction(1, 2), -1)]) == [False] * 3


@pytest.mark.parametrize("weights", [
    [Fraction(1, 2), Fraction(1, 2)], [0.25, 0.75], [QC(Fraction(1, 3)), Fraction(2, 3)], [1],
    [], [Fraction(1, 2)], [Fraction(3, 2), Fraction(-1, 2)], [QC(Fraction(1, 2), 1), QC(Fraction(1, 2), -1)],
    [0.5 + 0.5j, 0.5 - 0.5j], [0.5, 0.5, 0.0], [math.nan, 1.0], [0.7, 0.6],
], ids=repr)
def test_classify_abelian_refuses_what_the_algebra_refuses_and_names_the_side(weights):
    def raised(load):
        try:
            load()
        except (AlgebraError, ValueError) as exc:
            return type(exc), str(exc)
        return None

    want = raised(lambda: MatrixBlockAlgebra.from_weights(weights))
    half = [Fraction(1, 2), Fraction(1, 2)]
    got = raised(lambda: classify_abelian(weights, half)), raised(lambda: classify_abelian(half, weights))
    if want is None or want[0] is ValueError:  # accepted, or a non-finite scalar before any rule
        assert got == (want, want)
    else:
        assert got == ((AlgebraError, f"weights of A: {want[1]}"), (AlgebraError, f"weights of B: {want[1]}"))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1, math.nan),
                                   complex(math.inf, 0)])
def test_non_finite_floats_are_refused_as_scalars(value):
    c2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 2)])
    for make in (as_scalar,
                 lambda v: AlgebraElement(c2, [[[v]], [[-1]]]),
                 lambda v: MatrixBlockAlgebra.from_weights([v, 0.5]),
                 lambda v: FreeElement.scalar(FreeProductAmbient((c2, c2)), v)):
        with pytest.raises(ValueError, match="non-finite scalar"):
            make(value)


def test_exact_values_beyond_the_float_range_raise_value_error():
    with pytest.raises(ValueError, match="too large for a float"):
        complex(QC(10**400))
    with pytest.raises(ValueError, match="too large for a float"):
        root_down(QC(10**800), 2)
    # the largest float is the root of its square, though its successor is no float
    top = Fraction(sys.float_info.max)
    assert root_down(top ** 2, 2) == sys.float_info.max
    assert root_down(top ** 2 - 1, 2) == math.nextafter(sys.float_info.max, 0.0)


@pytest.mark.parametrize("n2, scale", [(Fraction(1, 4), Fraction(2)), (Fraction(9, 49), Fraction(7, 3)),
                                       (Fraction(1), Fraction(1)), (Fraction(4), Fraction(1, 2))])
def test_unit_scale_is_exact_on_rational_squares(n2, scale):
    got = unit_scale(n2)
    assert type(got) is Fraction and got == scale and got * got * n2 == 1


@pytest.mark.parametrize("n2", [Fraction(2, 9), Fraction(1, 3), Fraction(10**40 + 1, 7), 0.25, 2.0, 1e-300])
def test_unit_scale_is_the_float_reciprocal_root_elsewhere(n2):
    got = unit_scale(n2)
    assert type(got) is float and got == 1.0 / math.sqrt(float(n2))


# Literals that are not decisions on data: stopping rules of iterations and
# guards against division by zero, each with its reason.
ALLOWED_LITERALS = {
    ("scalars.py", "FLOAT_ZERO = 1e-12"): "the policy: a float data value counts as zero",
    ("scalars.py", "FLOAT_RTOL = 1e-9"): "the policy: relative agreement of two float routes",
    ("rdcert.py", "_NEWTON_STOP = 1e-14"): "Newton phase search stopping rule",
}


def test_source_lints_fail_where_they_find_no_module(tmp_path):
    with pytest.raises(AssertionError, match="found no"):
        _sources(tmp_path)
    (tmp_path / "scalars.py").write_text("")
    with pytest.raises(AssertionError, match="found no __init__.py, algebra.py"):
        _sources(tmp_path)
    assert {path.name for path in _sources()} >= MODULES


def test_tolerance_literals_live_only_in_the_policy():
    pattern = re.compile(r"\d+(\.\d*)?e-\d+")
    found, stray = set(), []
    for path in _sources():
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
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stray += [
                    f"{path.name}:{inner.lineno}: {ast.unparse(inner)}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert not stray, "imports inside function bodies:\n" + "\n".join(stray)


def test_every_import_is_read_or_exported():
    # an import that nothing in its module reads, nor its __all__ lists, is
    # left over from a deletion
    stray = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                stray += [f"{path.name}:{node.lineno}: {name}"
                          for name in ((a.asname or a.name.split(".")[0]) for a in node.names)
                          if name not in read | exported]
    assert not stray, "imports that nothing reads:\n" + "\n".join(stray)


def _modules_after(statement):
    # sys.modules of a fresh interpreter after one import statement
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.split()


def test_the_package_loads_no_layer_and_no_layer_loads_scipy(tmp_path):
    bare = _modules_after("import freedecay")
    assert "freedecay" in bare
    assert not [m for m in bare if m.startswith("freedecay.") or m.split(".")[0] == "numpy"]
    exact = _modules_after("import freedecay.scalars, freedecay.algebra, freedecay.freeword, freedecay.fock")
    assert "freedecay.freeword" in exact and "freedecay.fock" in exact
    assert not [m for m in exact if m.split(".")[0] == "scipy"]
    # nor numpy.random: loading it costs about 13 ms and 5.4 MB RSS in a fresh
    # process, while the exact-words benchmark, whose set-up imports only
    # these modules, peaks near 30 MB run alone, under a 10 % peak_rss_mb bound; so
    # compressed, which imports default_rng at its top, stays out of fock
    assert "numpy.random" not in exact
    # the vacuum oracle on an exact length-3 word runs without scipy
    vacuum = _modules_after(
        "import numpy as np; from freedecay.algebra import MatrixBlockAlgebra; "
        "from freedecay.fock import vacuum_expectation; "
        "from freedecay.freeword import FreeProductAmbient, free_state, random_alternating_word; "
        "m2 = MatrixBlockAlgebra.matrix_with_trace(2); "
        "x = random_alternating_word(FreeProductAmbient((m2, m2)), 3, np.random.default_rng(0), centered=False); "
        "assert x.is_exact() and x.max_word_length() == 3 and vacuum_expectation(x) == free_state(x)"
    )
    assert "freedecay.fock" in vacuum and "freedecay.compressed" not in vacuum
    assert not [m for m in vacuum if m.split(".")[0] == "scipy"]
    # filtrations that need no Fock space load no scipy, nor do their reports
    numeric = _modules_after("import freedecay.rdcert, freedecay.measure")
    assert "freedecay.rdcert" in numeric and "freedecay.measure" in numeric
    assert not [m for m in numeric if m.split(".")[0] == "scipy"]
    reports = _modules_after(
        "from freedecay.algebra import MatrixBlockAlgebra; "
        "from freedecay.measure import CompactMeasure; "
        "from freedecay.rdcert import ConstantFiltration, MeasureDegreeFiltration, rd_report; "
        "rd_report(MeasureDegreeFiltration(CompactMeasure.semicircle()), 20); "
        "rd_report(ConstantFiltration(MatrixBlockAlgebra.matrix_with_trace(2)), 3)"
    )
    assert "freedecay.rdcert" in reports and "freedecay.compressed" not in reports
    assert not [m for m in reports if m.split(".")[0] == "scipy"]
    # nor does the command line, or a Fock-space run through it: a C2 * C3
    # free-product certificate and a length-1 Khintchine sweep, both on the
    # Lanczos path
    space = tmp_path / "c2c3.json"
    space.write_text('{"free_product": [{"atoms": ["1/2", "1/2"]}, {"atoms": ["1/3", "1/3", "1/3"]}]}')
    runs = [
        ("import freedecay.cli", "freedecay.cli"),
        ("from freedecay.cli import run; assert run(['rd-certify', '--space', %r, '--max-n', '9', "
         "'--seed', '1', '--out', %r]) == 0" % (str(space), str(tmp_path / "c2c3.csv")), "freedecay.compressed"),
        ("from freedecay.cli import run; assert run(['kh-norm', '--length', '1', '--trials', '2', "
         "'--out', %r]) == 0" % str(tmp_path / "kh.csv"), "freedecay.khintchine"),
    ]
    for statement, layer in runs:
        loaded = _modules_after(statement)
        assert layer in loaded and not [m for m in loaded if m.split(".")[0] == "scipy"], statement


def _only_raises_not_implemented(node):
    body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return len(body) == 1 and isinstance(body[0], ast.Raise) and "NotImplementedError" in ast.unparse(body[0])


def test_every_parameter_is_read():
    # exempt: a method's receiver, dunder methods and abstract bodies (their
    # signatures are fixed by the protocol), and names marked unused with "_"
    stray = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Lambda):
                name, body = "<lambda>", [node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = node.name, node.body
                if name.startswith("__") and name.endswith("__") or _only_raises_not_implemented(node):
                    continue
            else:
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            stray += [f"{path.name}:{node.lineno}: {name}({p})" for p in params
                      if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    assert not stray, "parameters no body reads:\n" + "\n".join(stray)


CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}


def test_no_module_imports_concurrency():
    # the library runs serially: the largest cost of kh-norm, dense SVDs,
    # is left to BLAS to thread
    stray = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            stray += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                      for name in names if name.split(".")[0] in CONCURRENCY_MODULES]
    assert not stray, "concurrency imports:\n" + "\n".join(stray)


def test_no_module_imports_scipy():
    # the Fock-space layers run on numpy arrays alone; scipy is a test oracle
    stray = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            stray += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                      for name in names if name.split(".")[0] == "scipy"]
    assert not stray, "scipy imports in src:\n" + "\n".join(stray)


FILE_DOORS = {("cli.py", "_load_json_file"), ("cli.py", "_atomic_write")}


def _file_openers(tree):
    """(line, code) of each call in tree that opens a file: ``open``, any
    ``.open`` or ``.fdopen`` method, anything in ``tempfile``; and of each
    import that would rename one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, root = node.func, node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute) and func.attr in ("open", "fdopen")
                    or isinstance(root, ast.Name) and root.id == "tempfile"):
                yield node.lineno, ast.unparse(func)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) == "tempfile"
                or any(alias.name in ("open", "fdopen") or alias.name == "tempfile" and alias.asname
                       for alias in node.names)):
            yield node.lineno, ast.unparse(node)


def test_files_are_opened_only_in_the_cli_doors():
    # cli._load_json_file and cli._atomic_write turn every OS error into one
    # error line and exit 2, and leave no temp file; a command that opened a
    # file elsewhere would end in a traceback instead
    stray = []
    for path in _sources():
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) not in FILE_DOORS:
                stray += [f"{path.name}:{line}: {code}" for line, code in _file_openers(top)]
    assert not stray, "files opened outside the cli doors:\n" + "\n".join(stray)


def test_spaces_are_built_only_in_shared_fock():
    # compressed.shared_fock is the one space door: a space built beside it
    # keeps its own slot-letter records and is built again on the next call
    stray = []
    for path in _sources():
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) != ("compressed.py", "shared_fock"):
                stray += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(top)
                          if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "TruncatedFock"]
    assert not stray, "spaces built outside compressed.shared_fock:\n" + "\n".join(stray)


def test_only_word_blocks_reads_a_letter_table():
    # a letter's gather table is read by compressed._times alone, through
    # compressed._word_blocks; every other use of a letter goes through its
    # one-letter block, TruncatedFock.letter_block
    stray = []
    for path in _sources():
        for top in ast.parse(path.read_text()).body:
            if (path.name, getattr(top, "name", None)) != ("compressed.py", "_word_blocks"):
                stray += [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(top)
                          if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "letter_operator"]
    assert not stray, "letter tables read outside compressed._word_blocks:\n" + "\n".join(stray)


def test_every_cache_is_bounded():
    # peak_rss_mb is a gated benchmark metric: a memo keeps a fixed number of
    # entries however many distinct arguments a run brings.  Memos are
    # spelled functools.lru_cache(maxsize=...) with an integer maxsize.
    stray, memos = [], []
    for path in _sources():
        module = importlib.import_module("freedecay" if path.stem == "__init__" else f"freedecay.{path.stem}")
        tree = ast.parse(path.read_text())
        sized = {id(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and [k.arg for k in node.keywords] == ["maxsize"]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad = any(alias.name in ("cache", "lru_cache") for alias in node.names)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "functools":
                bad = node.attr == "cache" or node.attr == "lru_cache" and id(node) not in sized
            else:
                continue
            if bad:
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        memos += [f for f in vars(module).values() if hasattr(f, "cache_info")]
    stray += [f"{f.__module__}.{f.__name__}: maxsize {f.cache_info().maxsize!r}" for f in memos
              if type(f.cache_info().maxsize) is not int]
    assert not stray, "unbounded or unsized caches:\n" + "\n".join(stray)
    assert len(memos) >= 2


def _only_forwards(node):
    """Whether an undecorated def's whole body, after its docstring, is
    ``return g(<its own parameters, in order>)``; a decorator such as a
    cache adds behaviour."""
    if node.decorator_list:
        return False
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    a, call = node.args, body[0].value
    params = [p.arg for p in a.posonlyargs + a.args]
    return (not (a.vararg or a.kwarg or a.kwonlyargs or call.keywords)
            and [arg.id if isinstance(arg, ast.Name) else None for arg in call.args] == params)


def test_no_module_function_only_forwards_its_parameters():
    # a def whose body is return g(x, y) adds a name and no behaviour: call g
    stray = [f"{path.name}:{node.lineno}: {node.name}"
             for path in _sources()
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _only_forwards(node)]
    assert not stray, "module-level defs that only forward their parameters:\n" + "\n".join(stray)


def test_every_all_entry_exists():
    # a deletion that leaves a stale __all__ entry fails here at once
    modules = [importlib.import_module("freedecay" if p.stem == "__init__" else f"freedecay.{p.stem}")
               for p in _sources()]
    stray = [f"{m.__name__}: {entry}" for m in modules for entry in getattr(m, "__all__", ())
             if not hasattr(m, entry)]
    assert not stray, "__all__ entries that do not exist:\n" + "\n".join(stray)
    for m in modules:
        exec(f"from {m.__name__} import *", {})


# public defs that no src code references, each kept for a stated reason
UNREFERENCED_IN_SRC = {
    "compressed.MomentEstimates.best_at": "reads the moment lower bound at one r",
    "freeword.FreeElement.letter": "builds a one-letter element, the public way to write sums of letters",
    "khintchine.kh_bracket": "the public kh(x) bracket shown in the README",
    "khintchine.sr_norm": "s_r at one cut; rx_check and kh_bracket read every cut from one unfolding each",
    "khintchine.sr_hs_norm": "the Hilbert-Schmidt norm at one cut, the oracle of rx_check's hs_identity_ok",
    "khintchine.weak_cs_bound": "the Cauchy-Schwarz oracle that dominates an assembled block norm",
    "measure.sup_norm_poly": "grid sup norm of one orthonormal polynomial, the oracle for closed forms",
    "measure.OrthoPolySequence.exact": "whether the recurrence stayed in Fractions",
    "rdcert.FiniteDimFiltration.from_spans": "the public way to build a filtration from spans",
}


def test_every_public_def_is_referenced_in_src():
    # a module-level def counts as referenced when it is read as a name or an
    # attribute anywhere in src, a class member only when it is read as an
    # attribute (a local variable of the same name is no use of it); imports
    # and __all__ strings do not count
    trees = {p.stem: ast.parse(p.read_text()) for p in _sources()}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    unused = set()
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in names | attributes:
                unused.add(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused |= {f"{stem}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, (ast.FunctionDef, ast.ClassDef))
                           and not sub.name.startswith("_") and sub.name not in attributes}
    allowed = UNREFERENCED_IN_SRC.keys()
    assert not unused - allowed, "public defs with no src reference:\n" + "\n".join(sorted(unused - allowed))
    assert not allowed - unused, "allowlisted but referenced or gone:\n" + "\n".join(sorted(allowed - unused))


def test_readme_python_blocks_run(capsys):
    readme = SRC.parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


# ---------------------------------------------------------------------------
# the exact block kernel against Fraction arithmetic
# ---------------------------------------------------------------------------

_THIRD, _SIXTH = Fraction(1, 3), Fraction(1, 6)
# densities as rows of Fractions: 1x1 to 3x3, a two-block algebra, and the
# rotated M3 density of the avitzour-find tests (not diagonal)
_KERNEL_DENSITIES = [
    [[[1]]],
    [[[Fraction(1, 4), 0], [0, Fraction(3, 4)]]],
    [[[_THIRD, 0, 0], [0, _SIXTH, 0], [0, 0, Fraction(1, 2)]]],
    [[[_THIRD, 0], [0, _THIRD]], [[_THIRD]]],
    [[[_THIRD, _SIXTH, 0], [_SIXTH, _THIRD, 0], [0, 0, _THIRD]]],
    [[[Fraction(1, 2), QC(0, Fraction(1, 4))], [QC(0, Fraction(-1, 4)), Fraction(1, 2)]]],
]
_kernel_parts = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def _ref(block):
    """A block as rows of (re, im) Fraction pairs."""
    return [[(v.re, v.im) for v in row] for row in block]


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_mul(a, b):
    n = len(a)
    return [[_sum_pairs(_cmul(a[i][k], b[k][j]) for k in range(n)) for j in range(n)] for i in range(n)]


def _sum_pairs(pairs):
    acc = (Fraction(0), Fraction(0))
    for p in pairs:
        acc = _cadd(acc, p)
    return acc


def _ref_adjoint(a):
    return [[(a[j][i][0], -a[j][i][1]) for j in range(len(a))] for i in range(len(a))]


def _ref_trace(d, b):
    return _sum_pairs(_cmul(d[i][k], b[k][i]) for i in range(len(d)) for k in range(len(d)))


def _canonical_block(m):
    re, im, d, n = m._v
    assert d > 0 and math.gcd(d, *re, *im) == 1 and len(re) == len(im) == n * n
    assert m == exact_block(m.rows) == m.rows and hash(m) == hash(exact_block(m.rows)) == hash(m.rows)
    assert m.complex_rows() == tuple(tuple(complex(v) for v in row) for row in m)
    assert [[repr(v) for v in row] for row in m.complex_rows()] == [[repr(complex(v)) for v in row] for row in m]
    return _ref(m)


def _canonical_scalar(q):
    assert type(q) is QC and q._d > 0 and math.gcd(q._a, q._b, q._d) == 1
    return (q.re, q.im)


@st.composite
def _kernel_case(draw):
    """An algebra, two exact elements of it, an exact scalar."""
    algebra = MatrixBlockAlgebra(draw(st.sampled_from(_KERNEL_DENSITIES)))

    def element():
        return AlgebraElement(algebra, [[[QC(draw(_kernel_parts), draw(_kernel_parts)) for _ in range(n)]
                                         for _ in range(n)] for n in algebra.block_dims])

    return algebra, element(), element(), QC(draw(_kernel_parts), draw(_kernel_parts))


@settings(max_examples=150, deadline=None)
@given(_kernel_case())
def test_the_exact_kernel_matches_fraction_arithmetic(case):
    algebra, x, y, s = case
    dens = [_ref(d) for d in algebra.densities]
    xs, ys = [_ref(b) for b in x.blocks], [_ref(b) for b in y.blocks]
    sr = (s.re, s.im)
    assert all(type(b) is QCMatrix for b in x.blocks + y.blocks + algebra.densities)
    for block, array in zip(x.blocks, x.to_numpy()):
        assert [[repr(complex(v)) for v in row] for row in array] == \
            [[repr(complex(q)) for q in row] for row in block]
    for bx, by, rx, ry in zip(x.blocks, y.blocks, xs, ys):
        n = len(rx)
        assert _canonical_block(bx + by) == [[_cadd(p, q) for p, q in zip(r, t)] for r, t in zip(rx, ry)]
        assert _canonical_block(bx.scale(s)) == [[_cmul(sr, p) for p in r] for r in rx]
        assert _canonical_block(bx @ by) == _ref_mul(rx, ry)
        assert _canonical_block(bx.adjoint()) == _ref_adjoint(rx)
        assert _canonical_block(bx.shift(s)) == [[(p[0] - sr[0], p[1] - sr[1]) if i == j else p
                                                  for j, p in enumerate(r)] for i, r in enumerate(rx)]
        assert bx @ by == exact_block([[QC(*p) for p in r] for r in _ref_mul(rx, ry)])
        assert (bx + bx.scale(QC(-1))).is_zero() and bx.is_zero() == all(p == (0, 0) for r in rx for p in r)
        scalar = common_scalar((bx.shift(bx[0][0]) + exact_block([[s if i == j else 0 for j in range(n)]
                                                                   for i in range(n)]),))
        is_scalar = all(p == (0, 0) for i, r in enumerate(rx) for j, p in enumerate(r) if i != j) and \
            len({r[i] for i, r in enumerate(rx)}) == 1
        assert (scalar is not None) == is_scalar
        if is_scalar:
            assert _canonical_scalar(scalar) == sr
        for d, rd in zip(algebra.densities, dens):
            if len(rd) == n:
                assert _canonical_scalar(trace_product(d, bx)) == _ref_trace(rd, rx)
    # the algebra functions built on the kernel
    want_state = _sum_pairs(_ref_trace(d, b) for d, b in zip(dens, xs))
    want_inner = _sum_pairs(_ref_trace(d, _ref_mul(_ref_adjoint(b), a)) for d, a, b in zip(dens, xs, ys))
    assert _canonical_scalar(state(x)) == want_state
    assert _canonical_scalar(l2_inner(x, y)) == want_inner
    centred = center(x)
    assert state(centred) == 0
    assert [_canonical_block(b) for b in centred.blocks] == [
        [[_cadd(p, (-want_state[0], -want_state[1])) if i == j else p for j, p in enumerate(r)]
         for i, r in enumerate(b)] for b in xs]
    c = QC(*want_state)
    assert common_scalar(algebra.scalar(c).blocks) == c and common_scalar(x.blocks) in (None, x.blocks[0][0][0])
    # equal values, equal == and hash, whichever way they were made
    assert x * y + x == x * (y + algebra.identity()) and hash(x * y + x) == hash(x * (y + algebra.identity()))


@pytest.mark.parametrize("density, products", list(zip(_KERNEL_DENSITIES, [1, 2, 3, 2, 5, 4])),
                         ids=["c", "c2", "c3", "m2+c", "m3-rotated", "m2-complex"])
def test_the_trace_kernel_reads_only_the_nonzero_entries_of_the_density(density, products):
    # a block entry that meets a zero of the density is never read: None in
    # its place would raise at its product
    d = MatrixBlockAlgebra(density).densities[0]
    re, im, _, n = d._v
    block = exact_block([[QC(i + 2, j - 1) for j in range(n)] for i in range(n)])
    met = {p % n * n + p // n for p in range(n * n) if re[p] or im[p]}  # block_ki meets density_ik
    br, bi, bd, _ = block._v
    poisoned = exact_block([[0] * n] * n)
    QCMatrix._v.__set__(poisoned, (tuple([v if q in met else None for q, v in enumerate(br)]),
                                   tuple([v if q in met else None for q, v in enumerate(bi)]), bd, n))
    assert len(met) == products
    assert trace_product(d, poisoned) == trace_product(d, block)


QC_FIELDS = {"_a", "_b", "_d"}
QCMATRIX_FIELDS = {"_v", "_rows"}


def test_qc_layout_lives_only_in_scalars():
    # no other module reads the fields of QC or of the exact block kernel
    # QCMatrix, imports a private name of scalars, or builds either past its
    # constructor
    stray = []
    for path in _sources():
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            bad = False
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalars"):
                bad = any(alias.name.startswith("_") for alias in node.names)
            elif isinstance(node, ast.Attribute):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                bad = (node.attr in QC_FIELDS | QCMATRIX_FIELDS
                       or owner in ("QC", "QCMatrix", "scalars") and node.attr.startswith("_"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                bad = node.func.attr == "__new__" and any(
                    isinstance(arg, ast.Name) and arg.id in ("QC", "QCMatrix") for arg in node.args)
            if bad:
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not stray, "QC layout read outside scalars:\n" + "\n".join(stray)


def test_float_bits_of_payloads_are_spelled_only_in_algebra():
    # letter identity (kind and float bits) is decided in one module: no
    # other module keys anything on the repr of blocks or densities
    stray = []
    for path in _sources():
        if path.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "repr"
                    and any(isinstance(n, ast.Attribute) and n.attr in ("blocks", "densities")
                            for arg in node.args for n in ast.walk(arg))):
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not stray, "float bits spelled outside algebra:\n" + "\n".join(stray)


# ---------------------------------------------------------------------------
# term dicts: one accumulator
# ---------------------------------------------------------------------------


def test_accumulate_drops_exact_and_float_zero_sums():
    terms = accumulate({"a": QC(1, 2), "b": 0.5 + 0j}, [("a", QC(-1, -2)), ("b", -0.5 + 0j)])
    assert terms == {}
    assert accumulate({}, [("c", QC(0)), ("d", 0.0)]) == {}


def test_accumulate_keeps_a_tiny_float_sum():
    terms = accumulate({"a": 1.0 + 0j}, [("a", -(1.0 - 2.0 ** -52) + 0j)])
    assert terms == {"a": 2.0 ** -52 + 0j}
    assert 0 < abs(terms["a"]) < FLOAT_ZERO


def test_accumulate_sends_a_key_re_added_after_a_drop_to_the_end():
    terms = {"a": QC(1), "b": QC(2)}
    accumulate(terms, [("a", QC(-1)), ("c", QC(3)), ("a", QC(4))])
    assert list(terms.items()) == [("b", QC(2)), ("c", QC(3)), ("a", QC(4))]


def test_accumulate_keeps_algebra_elements():
    c2 = MatrixBlockAlgebra.from_weights([Fraction(1, 2), Fraction(1, 2)])
    x = c2.element([[[1]], [[-1]]])
    terms = accumulate({}, [(0, x), (0, -x), (1, x)])
    assert list(terms) == [0, 1]
    assert terms[0] == x - x and terms[1] == x


def test_accumulation_idiom_lives_only_in_scalars():
    # the structural-zero rule of term dicts is written once, in accumulate
    pattern = re.compile(r"is None else\b.*\+")
    stray = [f"{path.name}:{number}: {line.strip()}"
             for path in _sources() if path.name != "scalars.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not stray, "hand-written term-dict accumulation:\n" + "\n".join(stray)
