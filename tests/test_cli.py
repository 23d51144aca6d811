"""CLI behavior: grammar, outputs, determinism, exit codes."""

import json
import os

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


def test_rd_certify_filtration_recipe_must_match(tmp_path, capsys):
    code = run(["rd-certify", "--builtin", "semicircle", "--filtration", "constant",
                "--max-n", "4"])
    assert code == 2
    assert "recipe" in capsys.readouterr().err


def test_rd_certify_threads_deterministic(tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    argv = ["rd-certify", "--builtin", "semicircle", "--max-n", "10", "--seed", "3"]
    assert run(argv + ["--out", str(out1), "--threads", "1"]) == 0
    assert run(argv + ["--out", str(out2), "--threads", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rd_certify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"measure": \n !!}')
    code = run(["rd-certify", "--space", str(bad), "--max-n", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


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


def test_kh_norm_threads_match_serial(tmp_path):
    out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
    argv = ["kh-norm", "--length", "1", "--trials", "4", "--seed", "3"]
    assert run(argv + ["--out", str(out1), "--threads", "1"]) == 0
    assert run(argv + ["--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_kh_norm_threads_below_one_is_usage_error(capsys):
    for bad in ("0", "-3"):
        assert run(["kh-norm", "--length", "1", "--trials", "1", "--threads", bad]) == 2
        assert "--threads" in capsys.readouterr().err


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


def test_cache_dir_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("FREEDECAY_CACHE_DIR", str(tmp_path / "cache"))
    from freedecay.freeword import reset_cache_probe

    reset_cache_probe()
    factors = _m2_factors(tmp_path)
    elem = {
        "terms": [
            {
                "coeff": ["1", "0"],
                "word": [
                    {"factor": 0, "elem": [[["0", "1"], ["1", "0"]]]},
                    {"factor": 1, "elem": [[["1", "0"], ["0", "-1"]]]},
                ],
            }
        ]
    }
    epath = _write(tmp_path, "elem.json", elem)
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    argv = ["free-moments", "--factors", factors, "--element", epath, "--rmax", "2"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert os.path.isdir(str(tmp_path / "cache"))
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.delenv("FREEDECAY_CACHE_DIR")
    reset_cache_probe()
