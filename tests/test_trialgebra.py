"""Simplex-cell operad: composition, three products, boundary, dg rules."""

import pytest

from trioperad.cells import parse_subset_cell as cell
from trioperad.linear import LinComb
from trioperad.relations import relation_statement
from trioperad.trialgebra import (
    OPERAD_UNIT,
    TRI_OPS,
    TRIALGEBRA_RELATIONS,
    boundary,
    check_dg_rules,
    check_operad_axioms,
    check_trialgebra_relations,
    gamma,
    left_cell,
    mid_cell,
    right_cell,
    tri_left,
    tri_mid,
    tri_right,
)

# the 11 relations, frozen as (a, b, c, d) for (x a y) b z = x c (y d z)
FROZEN_RELATIONS = [
    ("left", "left", "left", "left"),
    ("left", "left", "left", "right"),
    ("right", "left", "right", "left"),
    ("left", "right", "right", "right"),
    ("right", "right", "right", "right"),
    ("left", "left", "left", "mid"),
    ("mid", "left", "mid", "left"),
    ("left", "mid", "mid", "right"),
    ("right", "mid", "right", "mid"),
    ("mid", "right", "right", "right"),
    ("mid", "mid", "mid", "mid"),
]


# ------------------------------------------------------------------ gamma


def test_gamma_pinned_example():
    out = gamma(cell("{2}@2"), [cell("{1}@2"), cell("{2}@3")])
    assert out == cell("{4}@5")


def test_gamma_unit():
    x = cell("{1,3}@3")
    assert gamma(OPERAD_UNIT, [x]) == x
    assert gamma(x, [OPERAD_UNIT] * 3) == x


def test_gamma_arity_mismatch():
    with pytest.raises(ValueError):
        gamma(cell("{1}@2"), [cell("{1}@1")])


def test_operad_axioms_small():
    report = check_operad_axioms(4)
    assert report["passed"]
    assert report["first_failure"] is None
    assert report["associativity_cases"] > 0


# --------------------------------------------------------------- products


def test_cell_products_on_generators():
    x = cell("{1}@1")
    assert left_cell(x, x) == cell("{1}@2")
    assert right_cell(x, x) == cell("{2}@2")
    assert mid_cell(x, x) == cell("{1,2}@2")


def test_cell_products_general():
    x = cell("{1,2}@2")
    y = cell("{2}@3")
    assert left_cell(x, y) == cell("{1,2}@5")
    assert right_cell(x, y) == cell("{4}@5")
    assert mid_cell(x, y) == cell("{1,2,4}@5")


def test_left_left_equals_left_right_pinned():
    x = cell("{1}@1")
    lhs = tri_left(tri_left(x, x), x)
    rhs = tri_left(x, tri_right(x, x))
    assert lhs == rhs == LinComb.single(cell("{1}@3"))


def test_relation_tuples_frozen():
    assert list(TRIALGEBRA_RELATIONS) == FROZEN_RELATIONS
    assert len(TRIALGEBRA_RELATIONS) == 11
    assert relation_statement(FROZEN_RELATIONS[7]) == "(x left y) mid z = x mid (y right z)"


def test_relations_hold_small():
    report = check_trialgebra_relations(6)
    assert report["passed"]
    assert all(r["holds"] for r in report["relations"])
    assert len(report["relations"]) == 11


def test_tri_ops_bilinear():
    x = cell("{1}@1")
    u = LinComb([(cell("{1}@2"), 2), (cell("{2}@2"), -1)])
    out = TRI_OPS["mid"](u, LinComb.single(x))
    assert out == LinComb(
        [(mid_cell(cell("{1}@2"), x), 2), (mid_cell(cell("{2}@2"), x), -1)]
    )


# --------------------------------------------------------------- boundary


def test_boundary_pinned():
    d = boundary(cell("{1,2}@2"))
    assert d == LinComb([(cell("{2}@2"), 1), (cell("{1}@2"), -1)])


def test_boundary_of_vertex_is_zero():
    assert boundary(cell("{2}@3")).is_zero()


def test_boundary_squared_zero():
    from trioperad.cells import enumerate_subset_cells

    for n in range(1, 6):
        for c in enumerate_subset_cells(n):
            dd = LinComb()
            for b, coeff in boundary(c):
                dd = dd + coeff * boundary(b)
            assert dd.is_zero()


def test_boundary_lowers_degree_by_one():
    c = cell("{1,3,4}@5")
    for b, _ in boundary(c):
        assert b.degree == c.degree - 1


# --------------------------------------------------------------- dg rules


def test_dg_left_rule_pinned_example():
    # d(x left y) = dx left y on x={1,2}@2, y={1}@1: both sides {2}@3 - {1}@3
    x, y = cell("{1,2}@2"), cell("{1}@1")
    lhs = boundary(left_cell(x, y))
    rhs = TRI_OPS["left"](boundary(x), LinComb.single(y))
    want = LinComb([(cell("{2}@3"), 1), (cell("{1}@3"), -1)])
    assert lhs == rhs == want


def test_dg_rule_discovery():
    dg = check_dg_rules(5)
    rules = {r["name"]: r for r in dg["rules"]}
    assert rules["left_plain"]["holds"]
    assert not rules["right_koszul_signed"]["holds"]  # sign is inconsistent
    assert rules["right_unsigned"]["holds"]
    assert not rules["mid_koszul_signed"]["holds"]
    assert dg["signed_mid_fails_on_generators"]
    # no constant-sign correction works; the degree-gated rule is unique
    assert dg["universal_mid_rules"] == ["discovered_mid"]
    assert dg["discovery_passed"]
    assert dg["passed"]


def test_dg_signed_right_counterexample_is_reported():
    dg = check_dg_rules(4)
    bad = {r["name"]: r for r in dg["rules"]}["right_koszul_signed"]
    assert bad["counterexample"] is not None
