"""CLI surface: subcommands, payload shapes, exit codes, error paths."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from trioperad import cells as cells_mod
from trioperad import complexes as complexes_mod
from trioperad import dendriform as dendriform_mod
from trioperad import series as series_mod
from trioperad import trialgebra as trialgebra_mod
from trioperad.cli import (
    CELLS_CAP,
    CHECK_CAP,
    SERIES_ORDER_CAP,
    T_EVAL_DIGITS_CAP,
    _T_EVAL_GRAMMAR,
    _cells_for,
    _dimensions_report,
    certify_all,
    run,
)
from trioperad.linear import LinComb
from trioperad.relations import check_cases
from trioperad.series import TPoly, TSeries

FAMILIES = ("subset", "tree", "cube")
ENUMERATORS = ("enumerate_subset_cells", "enumerate_planar_trees", "enumerate_cube_cells")


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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("arity", ["0", "-1"])
def test_cells_arity_below_one_exits_2(capsys, family, arity):
    code = run(["cells", "--family", family, "--arity", arity])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--arity must be >= 1, got {arity}" in captured.err


def _refuse(monkeypatch, module, *names):
    """Make the named functions fail the test if a capped command calls them."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started past the cap")

    for name in names:
        monkeypatch.setattr(module, name, refuse)


def _refuse_enumeration(monkeypatch):
    _refuse(monkeypatch, cells_mod, *ENUMERATORS)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("arity", [40, 10**6])
def test_cells_over_cap_exits_2(capsys, monkeypatch, family, arity):
    _refuse_enumeration(monkeypatch)
    code = run(["cells", "--family", family, "--arity", str(arity)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"CELLS_CAP = {CELLS_CAP}" in captured.err


@pytest.mark.parametrize(
    "family, largest, count",
    # 2^19 - 1 subset cells, super-Catalan s_10 trees, 3^12 cube cells
    [("subset", 19, 524287), ("tree", 10, 518859), ("cube", 13, 531441)],
)
def test_cells_cap_boundary(monkeypatch, family, largest, count):
    assert count <= CELLS_CAP
    started = []

    def record(n):
        started.append(n)
        return []

    for name in ENUMERATORS:
        monkeypatch.setattr(cells_mod, name, record)
    assert _cells_for(family, largest) == []
    assert len(started) == 1
    _refuse_enumeration(monkeypatch)
    with pytest.raises(ValueError, match="CELLS_CAP"):
        _cells_for(family, largest + 1)


# ------------------------------------------------------------- dimensions


@pytest.mark.parametrize(
    "mutate",
    [
        lambda trees: trees[1:],
        # same count, but a binary tree (degree 0) becomes the corolla
        # (degree 3): only the degree polynomial sees it
        lambda trees: trees[1:] + trees[-1:],
    ],
    ids=["dropped", "regraded"],
)
def test_dimensions_report_fails_on_wrong_trees(monkeypatch, mutate):
    real = cells_mod.enumerate_planar_trees
    monkeypatch.setattr(
        cells_mod,
        "enumerate_planar_trees",
        lambda leaves: mutate(real(leaves)) if leaves == 5 else real(leaves),
    )
    assert _dimensions_report() == {
        "passed": False,
        "trialgebra_dims_match": True,
        "dendriform_dims_match": False,
        "cube_dims_match": True,
    }


def test_dimensions_report_fails_on_a_perturbed_series(monkeypatch):
    real = series_mod.f_cube

    def perturbed(order):
        coeffs = list(real(order).coeffs)
        c4 = coeffs[4].coeffs
        coeffs[4] = TPoly((c4[0] + 1,) + c4[1:])
        return TSeries(order, coeffs)

    monkeypatch.setattr(series_mod, "f_cube", perturbed)
    assert _dimensions_report() == {
        "passed": False,
        "trialgebra_dims_match": True,
        "dendriform_dims_match": True,
        "cube_dims_match": False,
    }


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


def test_tri_boundary_of_a_sparse_literal_at_the_arity_cap(capsys):
    code, payload = run_json(capsys, ["tri", "boundary", "{1,2}@1000000"])
    assert code == 0
    assert payload["boundary"] == [
        {"coeff": "-1", "cell": "{1}@1000000"},
        {"coeff": "1", "cell": "{2}@1000000"},
    ]


@pytest.mark.parametrize(
    "elements, arity",
    # k = 1000 elements at n = 10^6, and k = n = 3162: k*(k + n) > 4*CELLS_CAP
    [(range(999001, 1000001), 10**6), (range(1, 3163), 3162)],
    ids=["k1000-n1000000", "k3162-n3162"],
)
def test_tri_boundary_over_cap_exits_2(capsys, monkeypatch, elements, arity):
    _refuse(monkeypatch, trialgebra_mod, "boundary")
    literal = "{" + ",".join(map(str, elements)) + "}@" + str(arity)
    code = run(["tri", "boundary", literal])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"4*CELLS_CAP = {4 * CELLS_CAP}" in captured.err


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
    # the verdict certify-all reads, as the last key
    assert list(payload)[-1] == "passed"
    assert payload["passed"]


def test_tri_parse_error_exits_2(capsys):
    code = run(["tri", "mul", "--op", "left", "{1}", "{1}@1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "grammar" in err


def test_tri_literal_arity_cap(capsys):
    # a cell's mask takes one bit per vertex: CELLS_CAP bounds a literal's arity
    assert CELLS_CAP == 10**6
    code, payload = run_json(capsys, ["tri", "mul", "--op", "right", "{1}@1000000", "{1}@1"])
    assert code == 0
    assert payload["result"] == "{1000001}@1000001"
    for argv in (
        ["tri", "mul", "--op", "right", "{1}@1000001", "{1}@1"],
        ["tri", "mul", "--op", "right", "{1}@99999999999999999", "{1}@1"],
        ["tri", "boundary", "{1}@99999999999999999"],
    ):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "above the cap 1000000" in captured.err
        assert "grammar" in captured.err


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


# ------------------------------------------------------------ check caps

# (command, its check, module, the functions it runs, default bound,
# cases at the default, smallest bound past CHECK_CAP)
CHECK_COMMANDS = [
    ("tri check-relations", "trialgebra_relations", trialgebra_mod,
     ("check_trialgebra_relations",), 9, 9740, 12),
    ("tri check-dg", "dg_rules", trialgebra_mod, ("check_dg_rules",), 6, 303, 13),
    ("tri check-operad", "operad_axioms", trialgebra_mod, ("check_operad_axioms",), 6, 42274, 7),
    ("dend check-relations", "dendriform_relations", dendriform_mod,
     ("check_dendriform_relations", "star_associativity"), 10, 2491, 13),
]
CHECK_IDS = [c[0] for c in CHECK_COMMANDS]


def _check_argv(command: str, bound: int) -> list[str]:
    flag = "--max-leaves" if command.startswith("dend") else "--max-arity"
    return command.split() + [flag, str(bound)]


@pytest.mark.parametrize("case", CHECK_COMMANDS, ids=CHECK_IDS)
def test_check_cap_boundary(case):
    _, check, _, _, default, cases, refused = case
    assert check_cases(check, default) == cases <= CHECK_CAP
    assert check_cases(check, refused - 1) <= CHECK_CAP < check_cases(check, refused)


@pytest.mark.parametrize("case", CHECK_COMMANDS, ids=CHECK_IDS)
def test_check_default_bound_is_accepted(monkeypatch, case):
    command, _, module, names, default, _, _ = case
    started = []

    def record(bound):
        started.append(bound)
        return {"passed": True}

    for name in names:
        monkeypatch.setattr(module, name, record)
    assert run(command.split()) == 0
    assert started == [default] * len(names)


@pytest.mark.parametrize("case", CHECK_COMMANDS, ids=CHECK_IDS)
def test_check_over_cap_exits_2(capsys, monkeypatch, case):
    command, _, module, names, _, _, refused = case
    _refuse(monkeypatch, module, *names)
    code = run(_check_argv(command, refused))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"CHECK_CAP = {CHECK_CAP}" in captured.err
    assert _check_argv(command, refused)[-2] in captured.err
    # a huge bound is refused before any cell count is computed
    _refuse(monkeypatch, cells_mod, "cell_count")
    assert run(_check_argv(command, 10**6)) == 2


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


@pytest.mark.parametrize("n", [11, 40, 10**6])
def test_dend_power_over_cap_exits_2(capsys, monkeypatch, n):
    _refuse(monkeypatch, dendriform_mod, "star_power")
    if n - 1 >= CELLS_CAP.bit_length():
        # refused before any count is computed
        _refuse(monkeypatch, cells_mod, "cell_count")
    code = run(["dend", "power", "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"CELLS_CAP = {CELLS_CAP}" in captured.err


def test_dend_power_cap_boundary(monkeypatch):
    # s_10 = 518,859 trees is the largest accepted power
    assert cells_mod.cell_count("tree", 10) == 518859 <= CELLS_CAP
    started = []

    def record(n):
        started.append(n)
        return LinComb()

    monkeypatch.setattr(dendriform_mod, "star_power", record)
    assert run(["dend", "power", "--n", "10"]) == 0
    assert started == [10]
    _refuse(monkeypatch, dendriform_mod, "star_power")
    assert run(["dend", "power", "--n", "11"]) == 2


def test_dend_mul_depth_cap(capsys):
    deep = "(|," * cells_mod.TREE_DEPTH_CAP + "|" + ")" * cells_mod.TREE_DEPTH_CAP
    for op in ("prec", "succ", "mid", "star"):
        code, payload = run_json(capsys, ["dend", "mul", "--op", op, deep, "(|,|)"])
        assert code == 0
        assert payload["x"] == deep
    deeper = "(|," * 1200 + "|" + ")" * 1200
    code = run(["dend", "mul", "--op", "star", deeper, "(|,|)"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "TREE_DEPTH_CAP" in captured.err and "grammar" in captured.err


def _combs(depth):
    """A right comb and a left comb of ``depth`` internal vertices: the
    rightmost path of the first and the leftmost path of the second hold
    all of them."""
    right = left = "|"
    for _ in range(depth):
        right, left = f"(|,{right})", f"({left},|)"
    return right, left


@pytest.mark.parametrize("op", ["prec", "succ", "mid", "star"])
def test_dend_mul_term_cap_boundary(capsys, monkeypatch, op):
    # D(8, 8) = 265,729 terms reach the product; D(9, 9) = 1,462,563 do not
    reached = []

    def stub(x, y):
        reached.append((x.literal(), y.literal()))
        return LinComb()

    monkeypatch.setitem(dendriform_mod.DEND_OPS, op, stub)
    x, y = _combs(8)
    assert run(["dend", "mul", "--op", op, x, y]) == 0
    assert reached == [(x, y)]
    capsys.readouterr()

    monkeypatch.setitem(dendriform_mod.DEND_OPS, op, lambda x, y: pytest.fail("product started"))
    code = run(["dend", "mul", "--op", op, *_combs(9)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "1462563 terms" in captured.err
    assert f"CELLS_CAP = {CELLS_CAP}" in captured.err


def _comb_pairs():
    """Every right comb with a left comb, of 1 to 5 internal vertices
    each: the star products have up to D(5, 5) = 1,683 terms."""
    rights = [_combs(i)[0] for i in range(1, 6)]
    lefts = [_combs(j)[1] for j in range(1, 6)]
    return [(x, y) for x in rights for y in lefts]


def test_tree_literals_parse_back():
    # the batch renderer and PlanarTree.literal give the literal that
    # parses back to the tree itself
    for x, y in _comb_pairs():
        product = dendriform_mod.star(cells_mod.parse_tree(x), cells_mod.parse_tree(y))
        trees = list(product.support())
        for text, tree in zip(cells_mod.tree_literals(trees), trees, strict=True):
            assert cells_mod.parse_tree(text) is tree
            assert tree.literal() == text


# sha256 of the concatenated stdout of `trioperad dend mul --op OP x y`
# over _comb_pairs(), and of `trioperad dend power --n n` for n = 1..7; a
# change to any rendered literal, term order or coefficient changes them
DEND_MUL_COMBS_SHA256 = {
    "prec": "9986ab076e7215e8486bed029d126cb3b0e004e681f4e6e950c24f4670820d9e",
    "succ": "1ba62567a5087512b4985713495c82f55fc7a0bab7be2cc30def11d6552b22ae",
    "mid": "1e92ae5a74a67ae66b42d8465256c8e9153a19b5e4fff1d69ed4968ea8286bb5",
    "star": "cbd02cbf67302db722971276cd7b155cd8ed678e24b1ce956870f040be57a066",
}
DEND_POWER_SHA256 = "6e1d386ff792dd4089ab74b4ad92baf724cad7112967f961adb98c07e5962f3d"


@pytest.mark.parametrize("op", sorted(DEND_MUL_COMBS_SHA256))
def test_dend_mul_output_pinned(capsys, op):
    for x, y in _comb_pairs():
        assert run(["dend", "mul", "--op", op, x, y]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == DEND_MUL_COMBS_SHA256[op]


def test_dend_power_output_pinned(capsys):
    for n in range(1, 8):
        assert run(["dend", "power", "--n", str(n)]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == DEND_POWER_SHA256


def test_dend_mul_small_trees_are_accepted():
    # every pair with at most four leaves each: D(3, 3) = 63 at most
    trees = [t for n in range(1, 5) for t in cells_mod.enumerate_planar_trees(n)]
    counts = [dendriform_mod.star_term_count(x, y) for x in trees for y in trees]
    assert max(counts) == 63 <= CELLS_CAP


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


@pytest.mark.parametrize("report", ["betti", "dims,d2,betti"])
def test_complex_build_wrong_betti_exits_1(capsys, monkeypatch, report):
    real = complexes_mod.homology_ranks

    def wrong(gc):
        hom = real(gc)
        hom["betti"][2] = 1
        return hom

    monkeypatch.setattr(complexes_mod, "homology_ranks", wrong)
    code, payload = run_json(
        capsys, ["complex", "build", "--family", "tree", "--weight", "3", "--report", report]
    )
    assert code == 1
    assert payload["betti"] == {"1": 0, "2": 1, "3": 0}
    assert payload.get("d_squared_zero", True)


def test_complex_build_d2_failure_in_payload(capsys, monkeypatch):
    # the pinned simplex face swapped for the mirrored pairing: d^2 != 0
    # at weight 3, and the payload names the first failing element
    mirrored = complexes_mod.simplex_face(complexes_mod.MIRRORED_PAIRING)
    pinned = complexes_mod.FAMILIES["simplex"]
    monkeypatch.setitem(complexes_mod.FAMILIES, "simplex", pinned._replace(face=mirrored))
    code, payload = run_json(
        capsys, ["complex", "build", "--family", "simplex", "--weight", "3", "--report", "d2"]
    )
    assert code == 1
    assert payload["d_squared_zero"] is False
    failure = payload["d_squared_failure"]
    assert failure == complexes_mod.build_complex("simplex", 3, mirrored).d_squared_failure
    assert failure["level"] == 3
    assert failure["residual"] and all(c != 0 for c in failure["residual"].values())


def test_complex_build_passing_payload_has_no_failure(capsys):
    code, payload = run_json(
        capsys, ["complex", "build", "--family", "tree", "--weight", "4", "--report", "d2"]
    )
    assert code == 0
    assert payload == {"family": "tree", "weight": 4, "d_squared_zero": True}


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


def _refuse_build(monkeypatch):
    _refuse(monkeypatch, complexes_mod, "build_complex")


@pytest.mark.parametrize("family", ["simplex", "tree"])
@pytest.mark.parametrize("weight", [9, 40, 10**6])
def test_complex_build_over_cap_exits_2(capsys, monkeypatch, family, weight):
    _refuse_build(monkeypatch)
    code = run(["complex", "build", "--family", family, "--weight", str(weight)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"CELLS_CAP = {CELLS_CAP}" in captured.err


@pytest.mark.parametrize("family, total", [("simplex", 279936), ("tree", 530544)])
def test_complex_build_cap_boundary(monkeypatch, family, total):
    # weight 8 is the largest accepted weight for both families
    assert sum(complexes_mod.level_dims(family, 8).values()) == total <= CELLS_CAP
    started = []

    def record(family, weight):
        started.append((family, weight))
        return complexes_mod.GradedComplex(family=family, weight=weight)

    monkeypatch.setattr(complexes_mod, "build_complex", record)
    assert run(["complex", "build", "--family", family, "--weight", "8", "--report", "d2"]) == 0
    assert started == [(family, 8)]
    _refuse_build(monkeypatch)
    assert run(["complex", "build", "--family", family, "--weight", "9"]) == 2


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
@pytest.mark.parametrize("value", ["-1/2", "-2.5e-3", "-3", "-.5", "-7e2"])
def test_series_negative_t_eval_spaced_and_joined_agree(capsys, value, fmt):
    argv = ["series", "--family", "delta", "--order", "4", "--format", fmt]
    assert run(argv + ["--t-eval", value]) == 0
    spaced = capsys.readouterr()
    assert run(argv + [f"--t-eval={value}"]) == 0
    joined = capsys.readouterr()
    assert spaced.out == joined.out
    assert spaced.err == joined.err == ""


def test_series_negative_t_eval_console_form():
    # the argv a shell passes, read by main() from sys.argv
    outputs = []
    for form in (["--t-eval", "-1/2"], ["--t-eval=-1/2"]):
        proc = subprocess.run(
            [sys.executable, "-m", "trioperad.cli", "series", "--family", "delta"]
            + ["--order", "2", *form],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["coefficients"][1]["value at t=-1/2"] == "3/2"


@pytest.mark.parametrize("value", ["-1/x", "-1/0", "-2.5e-3e1", "-1//2"])
def test_series_bad_negative_t_eval_exits_2_with_grammar(capsys, value):
    code = run(["series", "--family", "delta", "--order", "2", "--t-eval", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {_T_EVAL_GRAMMAR}, got {value!r}\n"


def test_series_huge_negative_t_eval_spaced_exits_2_at_once(capsys):
    start = time.perf_counter()
    code = run(["series", "--family", "delta", "--t-eval", "-1e20000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"T_EVAL_DIGITS_CAP = {T_EVAL_DIGITS_CAP}" in captured.err
    assert elapsed < 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "delta", "--t-eval", "1e20000000"],
        ["--family", "stasheff", "--order", "100", "--t-eval", "1e45"],
    ],
)
def test_series_huge_t_eval_exits_2_at_once(capsys, argv):
    start = time.perf_counter()
    code = run(["series", *argv])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"T_EVAL_DIGITS_CAP = {T_EVAL_DIGITS_CAP}" in captured.err
    assert "2, -3 or 1/2" in captured.err
    assert elapsed < 1


def test_series_largest_t_eval_prints(capsys):
    # order x digits at the cap: every value prints in full
    t = "9" * (T_EVAL_DIGITS_CAP // 100)
    code, payload = run_json(
        capsys, ["series", "--family", "stasheff", "--order", "100", "--t-eval", t]
    )
    assert code == 0
    last = payload["coefficients"][-1][f"value at t={t}"]
    assert len(last) > 0.99 * T_EVAL_DIGITS_CAP


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_series_order_below_one_exits_2(capsys, fmt):
    code = run(["series", "--family", "delta", "--order", "0", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--order must be >= 1" in captured.err


@pytest.mark.parametrize("family", ["delta", "stasheff", "cube"])
def test_series_order_over_cap_exits_2(capsys, monkeypatch, family):
    assert SERIES_ORDER_CAP == 100
    _refuse(monkeypatch, series_mod, "f_delta", "f_stasheff", "f_cube")
    code = run(["series", "--family", family, "--order", "101"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "SERIES_ORDER_CAP = 100" in captured.err


def test_series_order_cap_boundary(monkeypatch):
    started = []

    class Reached(Exception):
        pass

    def record(order):
        started.append(order)
        raise Reached

    monkeypatch.setattr(series_mod, "f_stasheff", record)
    with pytest.raises(Reached):
        run(["series", "--family", "stasheff", "--order", "100"])
    assert started == [100]


# sha256 of the concatenated stdout of `trioperad series --family F --order 16
# --format X` and then `... --order 9 --format X --t-eval 1/2`, for F in delta,
# stasheff, cube and X in json, csv, text; a change that alters the printed
# series must update it on purpose
SERIES_CLI_SHA256 = "403f50facd4d3e35bdb28a5e4cf15d9f156cfb7cfbeded084d20ebb197d34fef"


def test_series_cli_output_is_pinned(capsys):
    printed = []
    for family in ("delta", "stasheff", "cube"):
        for fmt in ("json", "csv", "text"):
            for extra in ([], ["--t-eval", "1/2"]):
                order = "9" if extra else "16"
                argv = ["series", "--family", family, "--order", order, "--format", fmt]
                assert run(argv + extra) == 0
                printed.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(printed).encode()).hexdigest()
    assert digest == SERIES_CLI_SHA256


# ------------------------------------------------------------- certify-all


# sha256 of the stdout of `trioperad certify-all --level quick`; a change
# that alters the certificate must update it on purpose
CERTIFY_QUICK_SHA256 = "83c4f0090e0130b473685ae41e2ed90124a254c2c4426302f0960f11f56e3571"


def test_certify_all_quick_passes():
    report = certify_all("quick")
    printed = json.dumps(report, indent=2, default=str) + "\n"
    assert hashlib.sha256(printed.encode()).hexdigest() == CERTIFY_QUICK_SHA256
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


def test_closed_stdout_ends_quietly(tmp_path):
    # `dend power --n 7` prints about 320 kB, more than a pipe buffer holds,
    # so the process is still writing when its reader goes away
    err_path = tmp_path / "err.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "trioperad.cli", "dend", "power", "--n", "7"],
            stdout=subprocess.PIPE,
            stderr=err,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert code == 1
    assert err_path.read_text() == ""
