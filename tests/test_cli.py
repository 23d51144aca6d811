"""CLI behavior: grammar, outputs, determinism, exit codes."""

import copy
import json
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedecay.cli import run


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _m2_factors(tmp_path):
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    return _write(tmp_path, "factors.json", {"factors": [m2, m2]})


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_classify_abelian_prints_reasons(tmp_path, capsys):
    code = run(["classify-abelian", "--a", "0.5,0.5", "--b", "0.5,0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "not_selfless" in out
    assert "< 5" in out


def test_classify_abelian_json(tmp_path):
    out = tmp_path / "verdict.json"
    code = run(
        ["classify-abelian", "--a", "1/3,1/3,1/3", "--b", "1/2,1/2", "--json",
         "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "selfless"


def test_classify_abelian_bad_weights_exit_2():
    assert run(["classify-abelian", "--a", "0.7,0.6", "--b", "0.5,0.5"]) == 2


def test_classify_abelian_weight_with_a_zero_denominator_exits_2(capsys):
    assert run(["classify-abelian", "--a", "1/0", "--b", "1/2,1/2"]) == 2
    assert capsys.readouterr().err == "error: bad weight '1/0'\n"


@pytest.mark.parametrize("weight", ["inf", "nan"])
def test_classify_abelian_non_finite_weight_exits_2(capsys, weight):
    assert run(["classify-abelian", "--a", f"{weight},0.5", "--b", "1/2,1/2"]) == 2
    assert capsys.readouterr().err == f"error: bad weight {weight!r}\n"


def test_rd_certify_semicircle_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = run(
        ["rd-certify", "--builtin", "semicircle", "--max-n", "8", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,C_lower,C_upper,dim"
    data_lines = [l for l in lines if not l.startswith("#") and "," in l][1:]
    assert len(data_lines) == 9
    meta = [l for l in lines if l.startswith("#")]
    assert any("seed=" in l for l in meta)
    assert any("version=" in l for l in meta)
    assert any("alpha_hat=" in l for l in meta)


def test_rd_certify_requires_space():
    assert run(["rd-certify", "--max-n", "5"]) == 2


def test_rd_certify_with_two_spaces_is_a_usage_error_naming_both(tmp_path, capsys):
    algebra = _write(tmp_path, "algebra.json", {"algebra": _M2})
    both = _write(tmp_path, "both.json", {"algebra": _M2, "free_product": [_M2, _M2]})
    for argv, names in ((["--builtin", "semicircle", "--space", algebra], ("--builtin", "--space")),
                        (["--space", both], ("algebra", "free_product"))):
        assert run(["rd-certify", *argv, "--max-n", "3", "--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in names)


def test_removed_options_are_unrecognized_arguments(tmp_path, capsys):
    # every subcommand runs serially and takes no thread count; rd-certify
    # infers its recipe from the space, classify-abelian echoes no seed, and
    # --json lives only where it is read
    factors = _m2_factors(tmp_path)
    for argv, extra in ((["rd-certify", "--builtin", "semicircle", "--max-n", "4"], "--threads 3"),
                        (["fock-dim", "--factors", factors], "--threads 4"),
                        (["fock-dim", "--factors", factors], "--json"),
                        (["kh-norm", "--length", "1", "--trials", "1"], "--threads 2"),
                        (["rd-certify", "--builtin", "semicircle", "--max-n", "4"],
                         "--filtration degree"),
                        (["classify-abelian", "--a", "1/2,1/2", "--b", "1/2,1/2"], "--seed 1")):
        assert run(argv) == 0
        capsys.readouterr()
        assert run(argv + extra.split()) == 2
        assert f"unrecognized arguments: {extra}" in capsys.readouterr().err


def test_rd_certify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"measure": \n !!}')
    code = run(["rd-certify", "--space", str(bad), "--max-n", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_rd_certify_refuses_a_singular_exact_density(tmp_path, capsys):
    space = _write(tmp_path, "space.json",
                   {"algebra": {"blocks": [{"density": [["1/2", "1/2"], ["1/2", "1/2"]]}]}})
    assert run(["rd-certify", "--space", space]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not positive definite" in err[0], err


_M2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
_FLIP = [[["0", "1"], ["1", "0"]]]

# (subcommand, file option, malformed document): each exits 2 with one error
# line, never with a traceback
_MALFORMED = [
    pytest.param("fock-dim", "--factors",
                 {"factors": [{"atoms": ["1/2", "1/2"]}, {"blocks": [{"dim": 2}]}]},
                 id="block-without-density"),
    pytest.param("fock-dim", "--factors", {"factors": [{"atoms": ["1/0"]}]}, id="atom-1/0"),
    pytest.param("free-moments", "--element",
                 {"terms": [{"coeff": ["1", "0"], "word": [{"factor": 5, "elem": _FLIP}]}]},
                 id="factor-out-of-range"),
    pytest.param("free-moments", "--element",
                 {"terms": [{"coeff": ["1", "0"], "word": [{"elem": _FLIP}]}]},
                 id="letter-without-factor"),
    pytest.param("free-moments", "--element",
                 {"terms": [{"word": [{"factor": 0, "elem": _FLIP}]}]}, id="term-without-coeff"),
    pytest.param("free-moments", "--element", {"terms": 3}, id="terms-not-a-list"),
    pytest.param("free-moments", "--element",
                 {"terms": [{"coeff": ["1", "0"], "word": [{"factor": 0, "elem": 7}]}]},
                 id="elem-not-a-list"),
    pytest.param("rd-certify", "--space", {"measure": 5}, id="measure-not-an-object"),
    pytest.param("rd-certify", "--space", {"algebra": {"blocks": 3}}, id="blocks-not-a-list"),
    pytest.param("orthogonality-check", "--config",
                 {"algebra": {"atoms": ["1/2", "1/2"]}, "u": [[["1"]], [["-1"]]]},
                 id="config-without-v_span"),
]


@pytest.mark.parametrize("command, option, document", _MALFORMED)
def test_malformed_json_structure_is_usage_error(tmp_path, capsys, command, option, document):
    path = _write(tmp_path, "bad.json", document)
    argv = [command, option, path]
    if command == "free-moments":
        argv += ["--factors", _m2_factors(tmp_path)]
    if command == "rd-certify":
        argv += ["--max-n", "3"]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


# valid inputs whose mutations the fuzz test below feeds to the CLI
_FUZZ_DOCUMENTS = {
    "factors": {"factors": [{"atoms": ["1/2", "1/2"]}, _M2]},
    "element": {"terms": [
        {"coeff": ["1", "0"], "word": [{"factor": 1, "elem": _FLIP},
                                       {"factor": 0, "elem": [[["1"]], [["-1"]]]}]},
        {"coeff": [0.5, 0.25], "word": []},
    ]},
    "space": {"measure": {"atoms": ["-1", 0, "1"], "weights": ["1/4", "1/2", 0.25]}},
}


def _json_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _mutated(document, path, replacement):
    """A copy of ``document`` with the value at ``path`` dropped (replacement
    "drop") or replaced."""
    if not path:
        return {} if replacement == "drop" else replacement
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if replacement == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return out


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_DOCUMENTS)))
    document = _FUZZ_DOCUMENTS[name]
    path = draw(st.sampled_from(list(_json_paths(document))))
    # 5 is an out-of-range factor index, -1 a negative one
    replacement = draw(st.sampled_from(["drop", None, 7, 5, -1, [], [1, 2], "1/0", {}]))
    return name, _mutated(document, path, replacement)


@settings(max_examples=80, deadline=None)
@given(_mutations())
def test_mutated_json_exits_0_or_2(mutation):
    name, document = mutation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, valid in _FUZZ_DOCUMENTS.items():
            paths[key] = os.path.join(tmp, f"{key}.json")
            with open(paths[key], "w") as fh:
                json.dump(document if key == name else valid, fh)
        out = os.path.join(tmp, "out.csv")
        if name == "space":
            argv = ["rd-certify", "--space", paths["space"], "--max-n", "3"]
        else:
            argv = ["free-moments", "--factors", paths["factors"],
                    "--element", paths["element"], "--rmax", "2"]
        assert run(argv + ["--out", out]) in (0, 2)


def test_rd_certify_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["rd-certify", "--builtin", "lebesgue", "--max-n", "10", "--seed", "7"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_fock_dim(tmp_path):
    out = tmp_path / "dims.csv"
    code = run(
        ["fock-dim", "--factors", _m2_factors(tmp_path), "--depth", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "0,1"
    assert lines[3] == "2,25"


def test_free_moments_and_norm_estimate(tmp_path):
    factors = _m2_factors(tmp_path)
    flip = [[["0", "1"], ["1", "0"]]]  # one block: [[0,1],[1,0]]
    elem = {
        "terms": [
            {"coeff": ["1", "0"], "word": [{"factor": 0, "elem": flip}]}
        ]
    }
    epath = _write(tmp_path, "elem.json", elem)
    out = tmp_path / "moments.csv"
    code = run(
        ["free-moments", "--factors", factors, "--element", epath, "--rmax", "3",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,moment_2r,power_root,ratio,best"
    # the flip unitary has x*x = 1: all moments 1
    assert lines[1].startswith("1,1.0,1.0")

    out2 = tmp_path / "norm.csv"
    code = run(
        ["norm-estimate", "--factors", factors, "--element", epath, "--depth", "3",
         "--moment-rmax", "2", "--out", str(out2)]
    )
    assert code == 0
    text = out2.read_text()
    assert "fock_lower_bound=" in text
    assert "best_lower_bound=" in text


def test_exact_free_moments_drift_is_compared_exactly(tmp_path, monkeypatch):
    import freedecay.cli as cli
    from freedecay.scalars import QC

    factors = _m2_factors(tmp_path)
    flip = [[["0", "1"], ["1", "0"]]]
    epath = _write(tmp_path, "elem.json",
                   {"terms": [{"coeff": ["1", "0"], "word": [{"factor": 0, "elem": flip}]}]})
    argv = ["free-moments", "--factors", factors, "--element", epath, "--rmax", "2",
            "--out", str(tmp_path / "m.csv")]
    assert run(argv) == 0
    # an exact vacuum side off by 10^-30 is a failed check, not rounding
    off = lambda x: cli.free_state(x) + QC(Fraction(1, 10**30))  # noqa: E731
    monkeypatch.setattr(cli, "vacuum_expectation", off)
    assert run(argv) == 1


def _random_uncentred_sum(seed):
    """Four uncentred random words of lengths 1-3 over (M2, tr) * (M2, tr)."""
    from freedecay.algebra import MatrixBlockAlgebra
    from freedecay.freeword import FreeElement, FreeProductAmbient, random_alternating_word

    m2 = MatrixBlockAlgebra.matrix_with_trace(2)
    amb = FreeProductAmbient((m2, m2))
    rng = np.random.default_rng(seed)
    x = FreeElement(amb)
    for _ in range(4):
        x = x + random_alternating_word(amb, int(rng.integers(1, 4)), rng, centered=False)
    return x


@pytest.mark.parametrize("seed, code", [(3, 2), (1, 0)])
def test_exact_free_moments_stop_at_the_term_cap(tmp_path, monkeypatch, capsys, seed, code):
    import freedecay.compressed as compressed
    import freedecay.fock as fock

    calls = []

    def counting(x):
        calls.append(len(x.terms))
        return normalize(x)

    normalize = fock.normalize
    for module in (compressed, fock):
        monkeypatch.setattr(module, "normalize", counting)
    epath = _write(tmp_path, "elem.json", _random_uncentred_sum(seed).to_json())
    argv = ["free-moments", "--factors", _m2_factors(tmp_path), "--element", epath,
            "--rmax", "3", "--out", str(tmp_path / "m.csv")]
    assert run(argv) == code
    if code:
        # h = normalize(x* x) is formed, h * h is not
        assert len(calls) == 1
        assert f"exceed {fock._TERM_CAP} word products" in capsys.readouterr().err


def test_exact_free_moments_stop_at_the_pair_cap(tmp_path, capsys):
    import freedecay.fock as fock
    from freedecay.algebra import MatrixBlockAlgebra
    from freedecay.freeword import FreeElement, FreeProductAmbient, random_alternating_word

    # five uncentred length-3 words: h = x* x has 595 terms, so <h, h> at
    # r = 2 would take 595^2 = 354,025 term pairs
    m2 = MatrixBlockAlgebra.matrix_with_trace(2)
    amb = FreeProductAmbient((m2, m2))
    rng = np.random.default_rng(0)
    x = FreeElement(amb)
    for _ in range(5):
        x = x + random_alternating_word(amb, 3, rng, centered=False)
    epath = _write(tmp_path, "elem.json", x.to_json())
    argv = ["free-moments", "--factors", _m2_factors(tmp_path), "--element", epath,
            "--rmax", "2", "--out", str(tmp_path / "m.csv")]
    assert run(argv) == 2
    assert f"exceed {fock._PAIR_CAP} term pairs" in capsys.readouterr().err


def test_float_moments_do_not_claim_atoms(tmp_path, capsys):
    from math import comb

    # the semicircle's moments (Catalan numbers) written as JSON floats
    moments = [float(comb(k, k // 2) // (k // 2 + 1)) if k % 2 == 0 else 0.0 for k in range(90)]
    space = _write(tmp_path, "space.json",
                   {"measure": {"support": [-2, 2], "moments": moments}})
    assert run(["rd-certify", "--space", space, "--max-n", "40"]) == 2
    err = capsys.readouterr().err
    assert "float" in err and "atoms" not in err


@pytest.mark.parametrize("coeff", [[1, 0], ["1", "0"]], ids=["int-pair", "string-pair"])
def test_int_pair_coefficient_is_exact(tmp_path, coeff):
    # x = iota_0(e_12): q_2 = tau((x*x)^2) = 1/2, exact by free cumulants
    factors = _m2_factors(tmp_path)
    unit = [[["0", "1"], ["0", "0"]]]
    epath = _write(tmp_path, "elem.json",
                   {"terms": [{"coeff": coeff, "word": [{"factor": 0, "elem": unit}]}]})
    out = tmp_path / "moments.csv"
    assert run(["free-moments", "--factors", factors, "--element", epath, "--rmax", "2",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2].startswith("2,0.5,")
    assert "# method=free-cumulant" in lines


def test_float_free_moments_pair_no_elements(tmp_path, monkeypatch):
    # the vacuum check's scale ||x||_2 is q_1^(1/2), read from the moment rows
    import freedecay.cli as cli
    import freedecay.fock as fock
    import freedecay.freeword as freeword

    def refuse(x, y):
        raise AssertionError("paired two elements")

    for module in (freeword, fock, cli):
        monkeypatch.setattr(module, "l2_inner_free", refuse)
    unit = [[["0", "1"], ["0", "0"]]]
    elem = {"terms": [{"coeff": [0.5, 0.25], "word": [{"factor": 0, "elem": _FLIP},
                                                      {"factor": 1, "elem": unit}]},
                      {"coeff": [1.0, 0.0], "word": []}]}
    out = tmp_path / "moments.csv"
    assert run(["free-moments", "--factors", _m2_factors(tmp_path), "--element",
                _write(tmp_path, "elem.json", elem), "--rmax", "2", "--out", str(out)]) == 0
    assert "# method=fock-vector" in out.read_text().splitlines()


def _diag_letter(factor, a, b):
    return {"factor": factor, "elem": [[[a]], [[b]]]}


MOMENT_META_NUMBERS = ("state", "state_vs_vacuum_drift", "depth", "fock_dimension",
                       "fock_lower_bound", "best_lower_bound")


def _moment_csv_numbers(path):
    """The numbers of a moment CSV: every row cell and every numeric meta value."""
    numbers = []
    for line in path.read_text().splitlines()[1:]:
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            if key in MOMENT_META_NUMBERS:
                numbers.append(complex(value))
        else:
            numbers += [float(v) for v in line.split(",")]
    return numbers


@pytest.mark.parametrize("command", ["free-moments", "norm-estimate"])
@pytest.mark.parametrize("shape", ["letters", "word"])
def test_exact_entries_over_a_float_state_give_the_float_result(tmp_path, command, shape):
    # factor 1 has float weights, so its letters have float states and the
    # element is not exact however its entries are written
    from freedecay.scalars import agree

    factors = _write(tmp_path, "factors.json",
                     {"factors": [{"atoms": ["1/2", "1/2"]}, {"atoms": [0.25, 0.75]}]})
    outs = []
    for one in (1, 1.0):
        a, b = _diag_letter(0, one, -one), _diag_letter(1, 2 * one, -one)
        first = [a] if shape == "letters" else [a, b]
        elem = {"terms": [{"coeff": [1, 0], "word": first}, {"coeff": [1, 0], "word": [b]}]}
        epath = _write(tmp_path, f"elem-{one!r}.json", elem)
        out = tmp_path / f"{command}-{one!r}.csv"
        rmax = ["--rmax", "2"] if command == "free-moments" else []
        assert run([command, "--factors", factors, "--element", epath, *rmax,
                    "--out", str(out)]) == 0
        outs.append(out)
    exact, floats = (_moment_csv_numbers(out) for out in outs)
    assert len(exact) == len(floats)
    for u, v in zip(exact, floats):
        assert agree(u, v, max(abs(v), 1.0)), (u, v)
    method = "free-cumulant" if shape == "letters" else "fock-vector"
    for out in outs:
        assert f"# method={method}" in out.read_text().splitlines()


def test_norm_estimate_moment_depth_above_cap_exit_2(tmp_path, capsys):
    factors = _m2_factors(tmp_path)
    unit = [[["0", "1"], ["0", "0"]]]  # a non-self-adjoint matrix unit
    elem = {"terms": [{"coeff": [1.0, 0.0], "word": [{"factor": 0, "elem": unit}]}]}
    epath = _write(tmp_path, "elem.json", elem)
    code = run(["norm-estimate", "--factors", factors, "--element", epath,
                "--moment-rmax", "11", "--out", str(tmp_path / "norm.csv")])
    assert code == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_kh_norm_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "kh1.csv", tmp_path / "kh2.csv"
    argv = ["kh-norm", "--length", "1", "--trials", "3", "--seed", "11"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "trial,l2,kh_lower,kh_upper,norm_lb,rx_margin"
    assert sum(1 for l in lines if not l.startswith("#")) == 4


def test_kh_norm_refuses_the_fock_space_before_the_first_draw(monkeypatch, capsys):
    # a length-12 draw enumerates 2 * 3^12 coefficients; the depth-24 space
    # over (M2, tr) * (M2, tr) is refused first
    from freedecay.khintchine import HomogeneousWordElement

    def refuse(*args):
        raise AssertionError("drew an element")

    monkeypatch.setattr(HomogeneousWordElement, "random", refuse)
    assert run(["kh-norm", "--length", "12", "--trials", "1"]) == 2
    dim = 1 + sum(2 * 3**k for k in range(1, 25))
    assert capsys.readouterr().err == f"error: truncated Fock dimension {dim} exceeds the cap 200000\n"


def test_kh_norm_refuses_a_length_with_no_alternating_word(tmp_path, monkeypatch, capsys):
    # C has no centred letter, so over C * (M2, tr) only length 1 has words
    from freedecay.khintchine import HomogeneousWordElement

    def refuse(*args):
        raise AssertionError("drew an element")

    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    factors = _write(tmp_path, "f.json", {"factors": [{"atoms": [1]}, m2]})
    monkeypatch.setattr(HomogeneousWordElement, "random", refuse)
    for length in (2, 3):
        assert run(["kh-norm", "--factors", factors, "--length", str(length), "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: no alternating word of length {length} exists over these factors\n")
    monkeypatch.undo()
    assert run(["kh-norm", "--factors", factors, "--length", "1", "--trials", "1",
                "--out", str(tmp_path / "kh.csv")]) == 0


def test_counts_below_one_are_usage_errors_naming_the_flag(capsys):
    for argv, flag in ((["orthogonality-check", "--atoms", "0"], "--atoms"),
                       (["kh-norm", "--trials", "-1"], "--trials")):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err


# F and E stand for a factors file and an element file
@pytest.mark.parametrize("argv, flag", [
    (["fock-dim", "--factors", "F", "--depth", "-1"], "--depth"),
    (["norm-estimate", "--factors", "F", "--element", "E", "--depth", "-1"], "--depth"),
    (["orthogonality-check", "--level", "-1"], "--level"),
    (["avitzour-check", "--lmax", "0"], "--lmax"),
    (["kh-norm", "--length", "0"], "--length"),
    (["kh-norm", "--moment-rmax", "0"], "--moment-rmax"),
    (["free-moments", "--factors", "F", "--element", "E", "--rmax", "0"], "--rmax"),
    (["norm-estimate", "--factors", "F", "--element", "E", "--moment-rmax", "0"],
     "--moment-rmax"),
    (["rd-certify", "--builtin", "semicircle", "--max-n", "-1"], "--max-n"),
    (["rd-certify", "--builtin", "semicircle", "--max-n", "2"], "--max-n"),
])
def test_count_flags_reject_values_out_of_range(tmp_path, capsys, argv, flag):
    files = {"F": _m2_factors(tmp_path),
             "E": _write(tmp_path, "elem.json",
                         {"terms": [{"coeff": ["1", "0"], "word": [{"factor": 0, "elem": _FLIP}]}]})}
    out = tmp_path / "out.csv"
    assert run([files.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not out.exists()


def test_fock_dim_depth_zero_writes_one_row(tmp_path):
    out = tmp_path / "dims.csv"
    assert run(["fock-dim", "--factors", _m2_factors(tmp_path), "--depth", "0",
                "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows == ["depth,dimension", "0,1"]


def test_avitzour_find_m2(tmp_path):
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    a = _write(tmp_path, "a.json", m2)
    b = _write(tmp_path, "b.json", m2)
    out = tmp_path / "triple.json"
    assert run(["avitzour-find", "--a", a, "--b", b, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] is True
    assert max(float(v) for v in data["residuals"].values()) == 0.0


def test_avitzour_find_non_diagonal_density(tmp_path):
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    m3 = {"blocks": [{"dim": 3, "density": [["1/3", "1/6", "0"], ["1/6", "1/3", "0"],
                                            ["0", "0", "1/3"]]}]}
    a = _write(tmp_path, "a.json", m2)
    b = _write(tmp_path, "b.json", m3)
    out = tmp_path / "triple.json"
    assert run(["avitzour-find", "--a", a, "--b", b, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found"] is True
    assert max(float(v) for v in data["residuals"].values()) <= 1e-9


def test_avitzour_find_none(tmp_path):
    a = _write(tmp_path, "a.json", {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]})
    b = _write(tmp_path, "b.json", {"atoms": ["1"]})
    out = tmp_path / "none.json"
    assert run(["avitzour-find", "--a", a, "--b", b, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["found"] is False


def test_avitzour_check_small(tmp_path):
    out = tmp_path / "av.csv"
    code = run(
        ["avitzour-check", "--trials", "4", "--lmax", "2", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial,ell,trace_ok")
    assert "failures=0" in out.read_text()


def test_avitzour_check_passes_on_a_float_triple(tmp_path):
    # uniform C5 has only float unitaries of state zero (fifth roots of
    # unity), so the two sides of each identity differ by rounding
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    c5 = {"atoms": ["1/5"] * 5}
    factors = _write(tmp_path, "m2c5.json", {"factors": [m2, c5]})
    out = tmp_path / "av.csv"
    code = run(["avitzour-check", "--factors", factors, "--seed", "6", "--trials", "30",
                "--lmax", "4", "--out", str(out)])
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 30
    assert all(r[2:5] == ["1", "1", "1"] and r[6] == "1" for r in rows)
    assert "failures=0" in out.read_text()


def test_avitzour_check_passes_with_a_non_tracial_first_factor(tmp_path):
    # u must commute with the density diag(1/2, 1/3, 1/6): a cyclic shift
    # has state 0 but does not, and then the identities fail
    m3 = {"blocks": [{"dim": 3, "density": [["1/2", "0", "0"], ["0", "1/3", "0"],
                                            ["0", "0", "1/6"]]}]}
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    factors = _write(tmp_path, "m3m2.json", {"factors": [m3, m2]})
    out = tmp_path / "av.csv"
    code = run(["avitzour-check", "--factors", factors, "--seed", "3", "--trials", "30",
                "--lmax", "3", "--out", str(out)])
    assert code == 0
    assert "failures=0" in out.read_text()


def test_avitzour_check_without_a_triple_says_none_was_found(tmp_path, capsys):
    skew = {"blocks": [{"dim": 2, "density": [["2/3", "0"], ["0", "1/3"]]}]}
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    factors = _write(tmp_path, "skew.json", {"factors": [skew, m2]})
    assert run(["avitzour-check", "--factors", factors, "--out", str(tmp_path / "av.csv")]) == 1
    err = capsys.readouterr().err
    assert "no unitary triple found for these factors" in err and "exists" not in err


def test_avitzour_check_finds_a_pair_in_a_non_abelian_factor_with_a_1x1_block(tmp_path):
    # M2 (+) C with density diag(1/3, 1/3) (+) (1/3): v and w are diagonal
    # characters of order 3 in the eigenbasis
    m2 = {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]}
    m2_c = {"blocks": [{"dim": 2, "density": [["1/3", "0"], ["0", "1/3"]]},
                       {"dim": 1, "density": [["1/3"]]}]}
    factors = _write(tmp_path, "m2c.json", {"factors": [m2, m2_c]})
    out = tmp_path / "av.csv"
    assert run(["avitzour-check", "--factors", factors, "--trials", "20", "--lmax", "3",
                "--seed", "1", "--out", str(out)]) == 0
    assert "failures=0" in out.read_text()


def test_avitzour_check_searches_triples_with_the_finders_budget(tmp_path):
    # v and w in C5 with atoms (1/3, 1/9, 1/9, 1/9, 1/3) take more Newton
    # restarts than the default 20 trials; the trial count is the number of
    # random words only
    c5 = {"atoms": ["1/3", "1/9", "1/9", "1/9", "1/3"]}
    factors = _write(tmp_path, "m2c5.json", {"factors": [_M2, c5]})
    out = tmp_path / "av.csv"
    assert run(["avitzour-check", "--factors", factors, "--lmax", "2", "--seed", "0",
                "--out", str(out)]) == 0
    assert "failures=0" in out.read_text()


def test_avitzour_find_reads_float_atoms_like_fractions(tmp_path):
    m2 = _write(tmp_path, "m2.json",
                {"blocks": [{"dim": 2, "density": [["1/2", "0"], ["0", "1/2"]]}]})
    # C2 uniform has a u (1, -1) but no pair (v, w): 3 * 1/2 > 1
    for atoms in ([0.5, 0.5], ["1/2", "1/2"]):
        atoms_file = _write(tmp_path, "atoms.json", {"atoms": atoms})
        for a, b, found in ((atoms_file, m2, True), (m2, atoms_file, False)):
            out = tmp_path / "triple.json"
            assert run(["avitzour-find", "--a", a, "--b", b, "--out", str(out)]) == 0
            data = json.loads(out.read_text())
            assert data["found"] is found
            assert not found or float(data["residuals"]["u centralizer"]) == 0.0


def test_orthogonality_check_demo(tmp_path):
    out = tmp_path / "orth.csv"
    code = run(
        ["orthogonality-check", "--atoms", "24", "--level", "2",
         "--orders", "3", "6", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("case,sup_conjugated")
    assert len([l for l in lines if l.startswith("k=")]) == 2


def test_free_moments_reads_no_package_variable_and_writes_only_its_output(tmp_path, monkeypatch):
    read = []

    class RecordingEnviron(dict):
        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

        def __contains__(self, key):
            read.append(key)
            return super().__contains__(key)

    factors = _m2_factors(tmp_path)
    elem = {"terms": [{"coeff": ["1", "0"], "word": [
        {"factor": 0, "elem": [[["0", "1"], ["1", "0"]]]},
        {"factor": 1, "elem": [[["1", "0"], ["0", "-1"]]]},
    ]}]}
    epath = _write(tmp_path, "elem.json", elem)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr(os, "environ", RecordingEnviron(os.environ))
    argv = ["free-moments", "--factors", factors, "--element", epath, "--rmax", "2",
            "--out", "m.csv"]
    assert run(argv) == 0
    # no environment variable of the package steers the run (there is no
    # disk cache), and nothing but the output file is written
    assert not [k for k in read if k.startswith("FREEDECAY")]
    assert sorted(p.name for p in work.iterdir()) == ["m.csv"]
