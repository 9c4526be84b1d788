"""CLI surface: subcommands, payload shapes, exit codes, error paths."""

import json
import subprocess
import sys

import pytest

from trioperad.cli import certify_all, run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------------ cells


def test_cells_subset(capsys):
    code, payload = run_json(capsys, ["cells", "--family", "subset", "--arity", "2"])
    assert code == 0
    assert payload["count"] == 3
    assert payload["cells"] == ["{1}@2", "{2}@2", "{1,2}@2"]
    assert payload["by_degree"] == {"0": 2, "1": 1} or payload["by_degree"] == {0: 2, 1: 1}


def test_cells_tree_text(capsys):
    code = run(["cells", "--family", "tree", "--arity", "2", "--format", "text"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert sorted(out) == sorted(["(|,(|,|))", "((|,|),|)", "(|,|,|)"])


def test_cells_cube_csv(capsys):
    code = run(["cells", "--family", "cube", "--arity", "2", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "cell,degree"
    assert len(out) == 4


# -------------------------------------------------------------------- tri


def test_tri_mul(capsys):
    code, payload = run_json(capsys, ["tri", "mul", "--op", "mid", "{1}@1", "{1}@1"])
    assert code == 0
    assert payload["result"] == "{1,2}@2"


def test_tri_boundary(capsys):
    code, payload = run_json(capsys, ["tri", "boundary", "{1,2}@2"])
    assert code == 0
    assert payload["boundary"] == [
        {"coeff": "-1", "cell": "{1}@2"},
        {"coeff": "1", "cell": "{2}@2"},
    ]


def test_tri_check_relations(capsys):
    code, payload = run_json(capsys, ["tri", "check-relations", "--max-arity", "5"])
    assert code == 0
    assert payload["passed"]


def test_tri_check_operad(capsys):
    code, payload = run_json(capsys, ["tri", "check-operad", "--max-arity", "4"])
    assert code == 0
    assert payload["passed"]


def test_tri_check_dg(capsys):
    code, payload = run_json(capsys, ["tri", "check-dg", "--max-arity", "4"])
    assert code == 0
    assert payload["discovery_passed"]
    assert payload["universal_mid_rules"] == ["discovered_mid"]


def test_tri_parse_error_exits_2(capsys):
    code = run(["tri", "mul", "--op", "left", "{1}", "{1}@1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "grammar" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tri", "check-relations", "--max-arity", "-5"],
        ["tri", "check-relations", "--max-arity", "2"],
        ["tri", "check-operad", "--max-arity", "0"],
        ["tri", "check-dg", "--max-arity", "1"],
        ["dend", "check-relations", "--max-leaves", "5"],
    ],
)
def test_vacuous_bound_exits_2(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "smallest valid bound" in captured.err


# ------------------------------------------------------------------- dend


def test_dend_mul(capsys):
    code, payload = run_json(capsys, ["dend", "mul", "--op", "star", "(|,|)", "(|,|)"])
    assert code == 0
    assert len(payload["result"]) == 3


def test_dend_leaf_error_exits_2(capsys):
    code = run(["dend", "mul", "--op", "prec", "|", "(|,|)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unit for star only" in err


def test_dend_power(capsys):
    code, payload = run_json(capsys, ["dend", "power", "--n", "3"])
    assert code == 0
    assert payload["count"] == 11
    assert all(term["coeff"] == "1" for term in payload["terms"])


def test_dend_check_relations(capsys):
    code, payload = run_json(capsys, ["dend", "check-relations", "--max-leaves", "7"])
    assert code == 0
    assert payload["passed"]
    assert payload["star_associativity"]["passed"]


# ----------------------------------------------------------------- koszul


def test_koszul_certify(capsys):
    code, payload = run_json(capsys, ["koszul", "certify"])
    assert code == 0
    assert payload["passed"]
    assert payload["rank_trialgebra_relations"] == 11
    assert payload["rank_dendriform_relations"] == 7


# ---------------------------------------------------------------- complex


def test_complex_build(capsys):
    code, payload = run_json(
        capsys, ["complex", "build", "--family", "tree", "--weight", "3"]
    )
    assert code == 0
    assert payload["d_squared_zero"]
    assert [e["dim"] for e in payload["per_n"]] == [7, 18, 11]
    assert all(v == 0 for v in payload["betti"].values())


def test_complex_build_report_selection(capsys):
    code, payload = run_json(
        capsys,
        ["complex", "build", "--family", "simplex", "--weight", "2", "--report", "dims"],
    )
    assert code == 0
    assert "betti" not in payload
    assert "d_squared_zero" not in payload


def test_complex_bad_report_exits_2(capsys):
    code = run(["complex", "build", "--family", "tree", "--weight", "2", "--report", "poetry"])
    assert code == 2


@pytest.mark.parametrize("report", [",", "", " , "])
def test_complex_empty_report_exits_2(capsys, report):
    code = run(["complex", "build", "--family", "tree", "--weight", "1", "--report", report])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "dims,d2,betti" in captured.err


# ----------------------------------------------------------------- series


def test_series_json(capsys):
    code, payload = run_json(capsys, ["series", "--family", "delta", "--order", "4"])
    assert code == 0
    assert payload["coefficients"][0]["coefficient"] == "-1"
    assert payload["coefficients"][1]["coefficient"] == "2 + t"


def test_series_t_eval(capsys):
    code, payload = run_json(
        capsys,
        ["series", "--family", "stasheff", "--order", "5", "--t-eval", "1"],
    )
    assert code == 0
    values = [entry["value at t=1"] for entry in payload["coefficients"]]
    assert values == ["-1", "3", "-11", "45", "-197"]


def test_series_csv(capsys):
    code = run(["series", "--family", "cube", "--order", "3", "--format", "csv"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 4
    assert out[1].startswith("1,")


@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_series_bad_t_eval_exits_2(capsys, value):
    code = run(["series", "--family", "delta", "--order", "2", "--t-eval", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "2, -3 or 1/2" in captured.err
    assert repr(value) in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_series_order_below_one_exits_2(capsys, fmt):
    code = run(["series", "--family", "delta", "--order", "0", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--order must be >= 1" in captured.err


# ------------------------------------------------------------- certify-all


def test_certify_all_quick_passes():
    report = certify_all("quick")
    assert report["passed"]
    assert set(report["sections"]) == {
        "operad_axioms",
        "trialgebra_relations",
        "dendriform_relations",
        "star_associativity",
        "generator_spans",
        "dimensions",
        "dg_rules",
        "duality",
        "complexes",
        "series",
    }
    assert all(sec["passed"] for sec in report["sections"].values())


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "trioperad.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "certify-all" in proc.stdout
