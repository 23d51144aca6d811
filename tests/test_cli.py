"""CLI behavior: grammar, outputs, determinism, exit codes."""

import copy
import dataclasses
import importlib.util
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freedecay.algebra import AlgebraElement, MatrixBlockAlgebra
from freedecay import cli
from freedecay.cli import run
from freedecay.compressed import TruncatedFock, shared_fock
from freedecay.rdcert import ConstantFiltration, orthogonality_hypotheses, rd_report


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


@pytest.mark.parametrize("a, b, message", [
    ("0.7,0.6", "0.5,0.5", "weights of A: density traces sum to 13/10, expected 1"),
    ("1/2,1/2,0", "0.5,0.5", "weights of A: density of block 2 is not positive definite (state not faithful)"),
    ("1/2,1/2", "1/3,1/3", "weights of B: density traces sum to 2/3, expected 1"),
], ids=["sum", "zero-atom", "side-B"])
def test_classify_abelian_refusals_are_the_algebra_errors_of_the_side(capsys, a, b, message):
    assert run(["classify-abelian", "--a", a, "--b", b]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_runs_in_one_process_build_one_parser(monkeypatch, capsys):
    cli._build_parser.cache_clear()
    init, built = cli.argparse.ArgumentParser.__init__, []
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    argv = ["rd-certify", "--builtin", "semicircle", "--max-n", "6"]
    assert run(argv) == 0
    first = len(built)
    assert first > 1  # the parser and its subparsers
    assert run(argv) == 0 and run(["fock-dim", "--depth", "2"]) == 2
    assert len(built) == first


def test_a_usage_error_between_two_runs_leaves_the_output_unchanged(tmp_path, capsys):
    argv = ["rd-certify", "--builtin", "semicircle", "--max-n", "12", "--seed", "3", "--out"]
    assert run(argv + [str(tmp_path / "a.csv")]) == 0
    assert run(["rd-certify", "--builtin", "semicircle", "--max-n", "2", "--json"]) == 2
    assert run(["rd-certify", "--builtin", "semicircle", "--seed", "x"]) == 2
    assert run(argv + [str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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


_C2_C3 = {"factors": [{"atoms": ["1/2", "1/2"]}, {"atoms": ["1/3", "1/3", "1/3"]}]}


# {dir}: an existing directory, {missing}: a directory that does not exist,
# {factors}, {algebra}, {c2c3}: readable inputs
@pytest.mark.parametrize("argv", [
    ["rd-certify", "--builtin", "semicircle", "--max-n", "3", "--out", "{missing}/x.csv"],
    ["rd-certify", "--space", "{c2c3}", "--max-n", "13", "--out", "{missing}/x.csv"],
    ["rd-certify", "--builtin", "semicircle", "--max-n", "3", "--out", "{factors}/x.csv"],
    ["rd-certify", "--builtin", "semicircle", "--max-n", "3", "--out", "{dir}"],
    ["fock-dim", "--factors", "{factors}", "--depth", "2", "--out", "{dir}"],
    ["rd-certify", "--space", "{dir}", "--max-n", "3"],
    ["fock-dim", "--factors", "{dir}", "--depth", "2"],
    ["free-moments", "--factors", "{factors}", "--element", "{dir}"],
    ["orthogonality-check", "--config", "{dir}"],
    ["avitzour-find", "--a", "{dir}", "--b", "{algebra}"],
    ["avitzour-find", "--a", "{algebra}", "--b", "{dir}"],
], ids=["out-in-missing-dir", "large-run-out-in-missing-dir", "out-under-a-file", "out-is-dir",
        "fock-dim-out-is-dir", "space-is-dir", "factors-is-dir", "element-is-dir", "config-is-dir",
        "a-is-dir", "b-is-dir"])
def test_unreadable_or_unwritable_paths_exit_2_and_leave_no_temp_file(tmp_path, capsys, monkeypatch,
                                                                       argv):
    # an --out that cannot be written is refused before any work: C2 * C3 at
    # level 13 would first run for seconds and peak near 800 MB
    reports = []
    monkeypatch.setattr(cli, "rd_report", lambda *args: reports.append(args))
    (tmp_path / "d").mkdir()
    paths = {"dir": str(tmp_path / "d"), "missing": str(tmp_path / "missing"),
             "factors": _write(tmp_path, "factors.json", _C2_C3),
             "algebra": _write(tmp_path, "c2.json", {"atoms": ["1/2", "1/2"]}),
             "c2c3": _write(tmp_path, "c2c3.json", {"free_product": _C2_C3["factors"]})}
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot "), err
    assert str(tmp_path) in err[0]
    assert not list(tmp_path.rglob("*.tmp"))
    assert not reports


@pytest.mark.parametrize("command", ["free-moments", "norm-estimate"])
@pytest.mark.parametrize("text, literal", [
    ('{"terms": [{"coeff": ["1", "0"], "word": [{"factor": 0, "elem": [[[NaN]], [[-1]]]}]}]}',
     "NaN"),
    ('{"terms": [{"coeff": [1e400, 0], "word": [{"factor": 0, "elem": [[[1]], [[-1]]]}]}]}',
     "1e400"),
], ids=["nan-payload", "overflowing-coefficient"])
def test_non_finite_json_numbers_exit_2(tmp_path, capsys, command, text, literal):
    # Python's JSON reader takes NaN, Infinity and 1e400 as floats that are
    # not finite; a NaN payload's centred letter never reaches state 0
    element = tmp_path / "elem.json"
    element.write_text(text)
    argv = [command, "--factors", _write(tmp_path, "factors.json", _C2_C3),
            "--element", str(element), "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: non-finite number {literal} in {element}\n"


@pytest.mark.parametrize("command, message", [
    ("free-moments", "error: exact root too large for a float\n"),
    ("norm-estimate", "error: exact value too large for a float\n"),
], ids=["free-moments", "norm-estimate"])
def test_exact_numbers_too_large_for_a_float_exit_2(tmp_path, capsys, command, message):
    # a 401-digit integer coefficient is exact, so the JSON reader keeps it;
    # the float kernels meet it
    element = tmp_path / "elem.json"
    element.write_text('{"terms": [{"coeff": [1%s, 0], "word": [{"factor": 0, "elem": '
                       '[[[1]], [[-1]]]}]}]}' % ("0" * 400))
    argv = [command, "--factors", _write(tmp_path, "factors.json", _C2_C3),
            "--element", str(element), "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    assert capsys.readouterr().err == message


_C2_LETTER = {"factor": 0, "elem": [[["1"]], [["-1"]]]}


@pytest.mark.parametrize("command, document", [
    ("rd-certify", {"measure": {"atoms": [0, 1, 1e308, 3]}}),
    ("rd-certify", {"measure": {"support": ["1e999", 1], "moments": [1, 0, "1/3", 0, "1/5", 0, "1/7", 0]}}),
    ("free-moments", {"terms": [{"coeff": ["1", 1e308], "word": [_C2_LETTER]}]}),
    ("norm-estimate", {"terms": [{"coeff": ["1", 1e308], "word": [_C2_LETTER]}]}),
], ids=["atom-power", "support-end", "free-moments", "norm-estimate"])
def test_numbers_beyond_the_float_range_exit_2(tmp_path, capsys, command, document):
    path = _write(tmp_path, "input.json", document)
    if command == "rd-certify":
        argv = [command, "--space", path]
    else:
        argv = [command, "--factors", _write(tmp_path, "factors.json", _C2_C3), "--element", path]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: number too large: "), err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [["free-moments", "--rmax", "2"], ["norm-estimate", "--moment-rmax", "2"]],
                         ids=["free-moments", "norm-estimate"])
def test_float_moments_beyond_the_float_range_exit_2_on_the_free_cumulant_path(tmp_path, capsys, argv):
    # a self-adjoint single letter takes the free-cumulant method: q_1 = 1e400 is no float
    element = {"terms": [{"coeff": [1e200, 0.0], "word": [_C2_LETTER]}]}
    argv = argv + ["--factors", _write(tmp_path, "factors.json", _C2_C3),
                   "--element", _write(tmp_path, "x.json", element), "--out", str(tmp_path / "out.csv")]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: number too large: the float moment state((x*x)^1) is beyond the float range\n")
    assert not (tmp_path / "out.csv").exists()


def test_avitzour_check_on_three_factors_exits_2(tmp_path, capsys):
    factors = _write(tmp_path, "factors.json", {"factors": [{"atoms": ["1/2", "1/2"]}] * 3})
    assert run(["avitzour-check", "--factors", factors]) == 2
    assert capsys.readouterr().err == "error: avitzour-check needs exactly two factors\n"


def test_a_count_that_is_no_int_exits_2(capsys):
    assert run(["kh-norm", "--trials", "abc"]) == 2
    assert "argument --trials: invalid int value: 'abc'" in capsys.readouterr().err


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(cli.CliError, match="cannot write .*out.csv: Permission denied"):
        cli._atomic_write(str(tmp_path / "out.csv"), "r\n1\n")
    assert list(tmp_path.iterdir()) == []


_MOMENTS01 = [1, "1/2", "1/3", "1/4", "1/5", "1/6", "1/7", "1/8"]


@pytest.mark.parametrize("command, document, message", [
    ("rd-certify", {"algebra": {"atoms": [True]}}, "bad number in JSON: True"),
    ("rd-certify", {"algebra": {"blocks": [{"density": [["1/2", 0], [False, "1/2"]]}]}},
     "bad number in JSON: False"),
    ("rd-certify", {"measure": {"atoms": [0, True, 2]}}, "bad number in JSON: True"),
    ("rd-certify", {"measure": {"atoms": [0, 1], "weights": [True, 0]}}, "bad number in JSON: True"),
    ("rd-certify", {"measure": {"support": [False, 1], "moments": _MOMENTS01}}, "bad number in JSON: False"),
    ("rd-certify", {"measure": {"support": [0, 1], "moments": [True] + _MOMENTS01[1:]}},
     "bad number in JSON: True"),
    ("free-moments", {"terms": [{"coeff": [True, False], "word": [_C2_LETTER]}]}, "bad number in JSON: True"),
    ("free-moments", {"terms": [{"coeff": ["1", "0"], "word": [{"factor": 0, "elem": [[[True]], [[-1]]]}]}]},
     "bad number in JSON: True"),
    ("rd-certify", {"algebra": {"blocks": [{"dim": True, "density": [[1]]}]}},
     "declared block dim does not match density shape"),
    ("rd-certify", {"algebra": {"blocks": [{"dim": 1.0, "density": [[1]]}]}},
     "declared block dim does not match density shape"),
], ids=["algebra-atom", "density-entry", "measure-atom", "weight", "support-end", "moment", "coefficient",
        "payload-entry", "dim-true", "dim-float"])
def test_json_booleans_are_not_numbers(tmp_path, capsys, command, document, message):
    # a bool is an int to Python: true read as 1 and false as 0 before
    path = _write(tmp_path, "input.json", document)
    if command == "rd-certify":
        argv = [command, "--space", path, "--max-n", "3"]
    else:
        argv = [command, "--factors", _write(tmp_path, "factors.json", _C2_C3), "--element", path]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_misspelt_measure_key_exits_2_and_is_named(tmp_path, capsys):
    # read as the uniform measure, the space printed C_1 = 1.6733200530681511 where the weights give 2.0
    space = {"measure": {"atoms": [0, 1, 2, 3], "wieghts": ["1/2", "1/6", "1/6", "1/6"]}}
    assert run(["rd-certify", "--space", _write(tmp_path, "space.json", space), "--max-n", "3"]) == 2
    assert capsys.readouterr().err == "error: measure JSON takes no 'wieghts'\n"


_CONFIG = {"algebra": {"atoms": ["1/2", "1/2"]}, "u": [[["1"]], [["-1"]]], "v_span": [[[["1"]], [["-1"]]]]}

# (subcommand, file option, document, what the message names): one key no
# loader defines in each object the CLI reads, then a mix of two forms
_UNKNOWN_OR_MIXED = [
    pytest.param("rd-certify", "--space", {"algebra": {"atoms": ["1/2", "1/2"], "note": 1}},
                 "algebra JSON takes no 'note'", id="algebra"),
    pytest.param("rd-certify", "--space", {"algebra": {"blocks": [dict(_M2["blocks"][0], dims=2)]}},
                 "a block with density takes no 'dims'", id="block"),
    pytest.param("rd-certify", "--space", {"measure": {"builtin": "semicircle", "name": "x"}},
                 "measure JSON takes no 'name'", id="measure"),
    pytest.param("rd-certify", "--space", {"free_product": _C2_C3["factors"], "seed": 3}, "takes no 'seed'",
                 id="space"),
    pytest.param("fock-dim", "--factors", dict(_C2_C3, depth=3),
                 "free product JSON with factors takes no 'depth'", id="factors"),
    pytest.param("free-moments", "--element", {"terms": [], "scale": 2},
                 "element JSON with terms takes no 'scale'", id="element"),
    pytest.param("free-moments", "--element", {"terms": [{"coeff": ["1", "0"], "word": [], "power": 2}]},
                 "a term with coeff, word takes no 'power'", id="term"),
    pytest.param("free-moments", "--element",
                 {"terms": [{"coeff": ["1", "0"], "word": [dict(_C2_LETTER, adjoint=True)]}]},
                 "a letter with factor, elem takes no 'adjoint'", id="letter"),
    pytest.param("orthogonality-check", "--config", dict(_CONFIG, fhat=[]),
                 "with algebra, u, v_span takes no 'fhat'", id="config"),
    pytest.param("rd-certify", "--space", {"algebra": {"atoms": ["1/2", "1/2"], "blocks": [_M2["blocks"][0]]}},
                 "algebra JSON with atoms takes no 'blocks'", id="atoms-and-blocks"),
    pytest.param("rd-certify", "--space", {"measure": {"builtin": "semicircle", "support": [0, 1]}},
                 "measure JSON with builtin takes no 'support'", id="builtin-and-support"),
    pytest.param("rd-certify", "--space", {"measure": {"atoms": [0, 1], "support": [0, 1], "moments": [1]}},
                 "measure JSON with atoms takes no 'support', 'moments'", id="atoms-and-moments"),
    pytest.param("rd-certify", "--space", {"measure": {"support": [-1, 1], "moments": [1], "weights": [1]}},
                 "measure JSON with support, moments takes no 'weights'", id="weights-without-atoms"),
    pytest.param("rd-certify", "--space", {"measure": {"builtin": "cosine"}, "algebra": {"atoms": [1]}},
                 "with measure takes no 'algebra'", id="two-spaces"),
    pytest.param("rd-certify", "--space", {"measure": {}},
                 "measure JSON needs 'builtin' or 'atoms' or 'support'", id="no-form"),
]


@pytest.mark.parametrize("command, option, document, message", _UNKNOWN_OR_MIXED)
def test_json_objects_refuse_keys_they_do_not_define(tmp_path, capsys, command, option, document, message):
    argv = [command, option, _write(tmp_path, "input.json", document)]
    if command == "free-moments":
        argv += ["--factors", _write(tmp_path, "factors.json", _C2_C3)]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message), err


def test_the_benchmark_space_document_loads(tmp_path):
    # the document the certify workload of perfbench/workloads.py writes
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    space = _write(tmp_path, "c2c3.json", workloads.Certify.FREE_PRODUCT)
    assert run(["rd-certify", "--space", space, "--max-n", "3"]) == 0


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


@pytest.mark.parametrize("space, argv", [
    (None, ["--builtin", "semicircle", "--max-n", "12"]),
    ({"free_product": [{"atoms": ["1/2", "1/2"]}, {"atoms": ["1/3", "1/3", "1/3"]}]},
     ["--max-n", "6", "--seed", "1"]),
], ids=["semicircle", "C2*C3"])
def test_rd_certify_json_holds_the_csv_rows_and_alpha_hat(tmp_path, space, argv):
    if space is not None:
        argv = ["--space", _write(tmp_path, "space.json", space)] + argv
    csv_out, json_out = tmp_path / "report.csv", tmp_path / "report.json"
    assert run(["rd-certify"] + argv + ["--out", str(csv_out)]) == 0
    assert run(["rd-certify"] + argv + ["--json", "--out", str(json_out)]) == 0
    lines = csv_out.read_text().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    data = json.loads(json_out.read_text())
    rows = [[str(r["n"]), repr(r["C_lower"]), repr(r["C_upper"]), str(r["dim"])] for r in data["rows"]]
    assert rows == [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert repr(data["alpha_hat"]) == meta["alpha_hat"]
    assert data["recipe"] == meta["recipe"]


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:] if not line.startswith("#")]


@pytest.mark.parametrize("algebra", [
    {"blocks": [{"density": [["1/2", 0], [0, "1/2"]]}]},
    {"atoms": ["1/2", "1/3", "1/6"]},
], ids=["(M2, tr)", "C3(1/2, 1/3, 1/6)"])
def test_rd_certify_algebra_space_gives_the_constant_filtration_rows(tmp_path, algebra):
    out = tmp_path / "report.csv"
    argv = ["rd-certify", "--space", _write(tmp_path, "space.json", {"algebra": algebra}), "--max-n", "5"]
    assert run(argv + ["--out", str(out)]) == 0
    report = rd_report(ConstantFiltration(MatrixBlockAlgebra.from_json(algebra)), 5)
    assert _csv_rows(out) == [[str(n), repr(lo), repr(up), str(d)] for n, lo, up, d in report.rows]
    if "atoms" in algebra:  # abelian: the bracket closes
        assert all(lo == up for _, lo, up, _ in report.rows)


@pytest.mark.parametrize("with_fhat", [True, False], ids=["fhat_span", "fhat_span=v_span"])
def test_orthogonality_check_config_row_is_the_hypotheses_report(tmp_path, with_fhat):
    c4 = {"atoms": ["1/4"] * 4}
    config = {
        "algebra": c4,
        "u": [[["1"]], [[["0", "1"]]], [["-1"]], [[["0", "-1"]]]],
        "v_span": [[[["1"]], [["0"]], [["0"]], [["0"]]], [[["0"]], [["1"]], [["-1"]], [["0"]]]],
    }
    if with_fhat:
        config["fhat_span"] = [[[["1"]], [["1"]], [["0"]], [["0"]]]]
    out = tmp_path / "orth.csv"
    assert run(["orthogonality-check", "--config", _write(tmp_path, "config.json", config),
                "--out", str(out)]) == 0
    algebra = MatrixBlockAlgebra.from_json(c4)
    v_span, fhat = ([AlgebraElement.from_json(algebra, e) for e in config[key]]
                    for key in ("v_span", "fhat_span" if with_fhat else "v_span"))
    rep = orthogonality_hypotheses(v_span, AlgebraElement.from_json(algebra, config["u"]), fhat)
    fields = ["sup_conjugated", "sup_mixed", "inflated_constant", "containment_l2", "containment_op"]
    assert _csv_rows(out) == [["config"] + [repr(getattr(rep, f)) for f in fields]]


def _cli_child(argv, address_space, timeout):
    """A CLI run in a child process under an address-space limit and a
    timeout, so that a missing guard fails the test instead of exhausting
    the machine."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "freedecay.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2))


@pytest.mark.parametrize("max_n", [[], ["--max-n", "8"]], ids=["default", "8"])
def test_rd_certify_refuses_a_free_product_too_large_to_probe(tmp_path, max_n):
    # (M2, tr) * (M2, tr) at level 8 is 19,681 words on the 59,047 tensors of depth 9
    m2 = {"blocks": [{"density": [["1/2", 0], [0, "1/2"]]}]}
    space = _write(tmp_path, "m2m2.json", {"free_product": [m2, m2]})
    proc = _cli_child(["rd-certify", "--space", space] + max_n, 1 << 30, 30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: level ") and proc.stderr.count("\n") == 1
    assert "words x tensors" in proc.stderr


def test_rd_certify_refuses_word_blocks_above_the_entry_cap(tmp_path):
    # C2 * C3 at level 16 passes the words x tensors cap, but its word blocks
    # hold about 50 entries a column; unbounded, they exhaust 2 GiB of
    # address space with a MemoryError traceback
    space = _write(tmp_path, "c2c3.json", {"free_product": _C2_C3["factors"]})
    proc = _cli_child(["rd-certify", "--space", space, "--max-n", "16"], 2 << 30, 60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: the word blocks ") and proc.stderr.count("\n") == 1
    assert "stored entries" in proc.stderr


def test_rd_certify_out_of_memory_exits_2_with_one_line(tmp_path):
    # C2 * C3 at level 13 stores 7.6 M block entries, below both caps, and
    # peaks near 820 MB: under 512 MiB of address space numpy runs out of
    # memory, where level 9 (0.2 M entries) still runs
    space = _write(tmp_path, "c2c3.json", {"free_product": _C2_C3["factors"]})
    assert _cli_child(["rd-certify", "--space", space, "--max-n", "9"], 512 << 20, 30).returncode == 0
    proc = _cli_child(["rd-certify", "--space", space, "--max-n", "13"], 512 << 20, 60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


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


def test_moments_of_no_positive_measure_do_not_claim_atoms(tmp_path, capsys):
    # m_2 = -1: m_0 m_2 - m_1^2 < 0, so the Hankel form is negative at degree 1
    space = _write(tmp_path, "space.json",
                   {"measure": {"support": [-1, 1], "moments": [1, 0, -1, 0, 1, 0, 1, 0, 1]}})
    assert run(["rd-certify", "--space", space, "--max-n", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the Hankel form turns negative at degree 1: "
                   "no positive measure has these moments"], err


@pytest.mark.parametrize("kind", [str, float], ids=["exact", "float"])
def test_moments_are_checked_against_their_support(tmp_path, capsys, kind):
    # the moments of the uniform measure on {3, 4, 5, 6}: refused on [-1, 1],
    # where they put no mass, and on [3, 6] the CSV of the atoms themselves
    moments = [kind(sum(Fraction(p) ** k for p in (3, 4, 5, 6)) / 4) for k in range(8)]
    outside = _write(tmp_path, "outside.json", {"measure": {"support": [-1, 1], "moments": moments}})
    assert run(["rd-certify", "--space", outside, "--max-n", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the moments put mass outside the support [-1, 1] (degree 1)"], err
    csv = {}
    for name, measure in [("inside", {"support": [3, 6], "moments": moments}), ("atoms", {"atoms": [3, 4, 5, 6]})]:
        out = tmp_path / f"{name}.csv"
        assert run(["rd-certify", "--space", _write(tmp_path, f"{name}.json", {"measure": measure}),
                    "--max-n", "3", "--out", str(out)]) == 0
        csv[name] = out.read_text()
    if kind is str:
        assert csv["inside"] == csv["atoms"]
    else:  # the atoms' constants, up to the rounding of float moments
        rows = [[line.split(",") for line in csv[name].splitlines()[1:5]] for name in ("inside", "atoms")]
        assert all(float(a) == pytest.approx(float(b), rel=1e-12) for r, s in zip(*rows) for a, b in zip(r, s))


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


@pytest.mark.parametrize("coeff", [[0.1, "0"], ["0", 0.1], ["1/3", 0.5]], ids=["float-string", "string-float", "fraction-float"])
def test_a_pair_with_a_float_entry_is_float(tmp_path, coeff):
    # exact only when both entries are strings or ints: one float entry makes
    # x = c iota_0(e_12) a float element, on the vector path like [re, im] floats
    factors, unit = _m2_factors(tmp_path), [[["0", "1"], ["0", "0"]]]
    got = {}
    for name, c in (("mixed", coeff), ("floats", [float(Fraction(v)) for v in coeff])):
        epath = _write(tmp_path, f"{name}.json", {"terms": [{"coeff": c, "word": [{"factor": 0, "elem": unit}]}]})
        out = tmp_path / f"{name}.csv"
        assert run(["free-moments", "--factors", factors, "--element", epath, "--rmax", "2",
                    "--out", str(out)]) == 0
        got[name] = out.read_text()
    assert "# method=fock-vector" in got["mixed"].splitlines()
    assert got["mixed"] == got["floats"]


def test_norm_estimate_on_a_length_1_float_element_builds_one_space(tmp_path, monkeypatch):
    # the compressed bound (depth default_depth(1) = 4) and the vector moments
    # (depth r_max * l = 4) share the one space of shared_fock
    built, init = [], TruncatedFock.__init__
    monkeypatch.setattr(TruncatedFock, "__init__", lambda self, *a: built.append(a[1]) or init(self, *a))
    elem = {"terms": [{"coeff": [0.5, 0.5], "word": [{"factor": 0, "elem": [[[0.0, 1.0], [0.0, 0.0]]]}]},
                      {"coeff": [0.25, -0.1], "word": [{"factor": 1, "elem": [[[1.0, 0.5], [0.0, -0.5]]]}]}]}
    out = tmp_path / "estimate.csv"
    shared_fock.cache_clear()
    try:
        assert run(["norm-estimate", "--factors", _m2_factors(tmp_path), "--element",
                    _write(tmp_path, "elem.json", elem), "--out", str(out)]) == 0
    finally:
        shared_fock.cache_clear()
    assert "# method=fock-vector" in out.read_text().splitlines()
    assert built == [4]


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


def _failing_at(calls, k, check, fail):
    """``check`` recording its reports in ``calls``, with the report of its
    k-th call (from 0) turned into a failure by ``fail``."""
    def wrapped(*args, **kwargs):
        calls.append(check(*args, **kwargs))
        return fail(calls[-1]) if len(calls) == k + 1 else calls[-1]
    return wrapped


def test_kh_norm_exits_1_with_one_witness_when_a_trial_fails(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "rx_check", _failing_at(calls, 1, cli.rx_check,
                                                     lambda r: dataclasses.replace(r, sr_ok=False)))
    out = tmp_path / "kh.csv"
    assert run(["kh-norm", "--length", "1", "--trials", "3", "--seed", "11", "--out", str(out)]) == 1
    assert len(calls) == 3 and "# failures=1" in out.read_text().splitlines()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("witness: trial 1: RxReport(length=1,")
    assert "sr_ok=False" in err[0]


def test_avitzour_check_exits_1_with_one_witness_when_a_trial_fails(tmp_path, monkeypatch, capsys):
    # the first shape check of trial 0 fails; the trial's row reads shape_ok 0, ok 0
    calls = []
    monkeypatch.setattr(cli, "avitzour_shape_check", _failing_at(
        calls, 0, cli.avitzour_shape_check, lambda r: dataclasses.replace(r, ok=False, reason="forced")))
    out = tmp_path / "av.csv"
    assert run(["avitzour-check", "--trials", "2", "--lmax", "2", "--seed", "5", "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert [(r[0], r[4], r[6]) for r in rows] == [("0", "0", "0"), ("1", "1", "1")]
    assert "# failures=1" in lines
    assert capsys.readouterr().err == "witness: trial 0 failed\n"


def test_classify_abelian_skips_empty_weight_pieces_and_refuses_an_empty_list(capsys):
    assert run(["classify-abelian", "--a", ",,", "--b", "1/2,1/2"]) == 2
    assert capsys.readouterr().err == "error: empty weight list\n"
    assert run(["classify-abelian", "--a", "1/2,,1/2", "--b", "1/3,1/3,1/3"]) == 0
    skipped = capsys.readouterr().out
    assert run(["classify-abelian", "--a", "1/2,1/2", "--b", "1/3,1/3,1/3"]) == 0
    assert skipped == capsys.readouterr().out and skipped.startswith("selfless")


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
