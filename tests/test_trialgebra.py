"""Simplex-cell operad: composition, three products, boundary, dg rules."""

import hashlib
import json

import pytest

from trioperad.cells import cell_of_key, enumerate_subset_cells
from trioperad.cells import parse_subset_cell as cell
from trioperad.linear import LinComb
from trioperad.relations import relation_statement
from trioperad.trialgebra import (
    KEY_OPS,
    OPERAD_UNIT,
    TRI_OPS,
    TRIALGEBRA_RELATIONS,
    boundary,
    check_dg_rules,
    check_operad_axioms,
    check_trialgebra_relations,
    dg_terms,
    gamma,
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
    assert TRI_OPS["left"](x, x) == LinComb.single(cell("{1}@2"))
    assert TRI_OPS["right"](x, x) == LinComb.single(cell("{2}@2"))
    assert TRI_OPS["mid"](x, x) == LinComb.single(cell("{1,2}@2"))


def test_cell_products_general():
    x = cell("{1,2}@2")
    y = cell("{2}@3")
    assert TRI_OPS["left"](x, y) == LinComb.single(cell("{1,2}@5"))
    assert TRI_OPS["right"](x, y) == LinComb.single(cell("{4}@5"))
    assert TRI_OPS["mid"](x, y) == LinComb.single(cell("{1,2,4}@5"))


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
    # term by term, through the product on keys
    assert out == LinComb((cell_of_key(KEY_OPS["mid"](c.key, x.key)), k) for c, k in u)


# --------------------------------------------------------------- boundary


def test_boundary_pinned():
    d = boundary(cell("{1,2}@2"))
    assert d == LinComb([(cell("{2}@2"), 1), (cell("{1}@2"), -1)])


def test_boundary_of_vertex_is_zero():
    assert boundary(cell("{2}@3")).is_zero()


def test_boundary_squared_zero():
    from trioperad.cells import cell_of_key, enumerate_subset_cells

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
    lhs = boundary(TRI_OPS["left"](x, y))
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


# sha256 of json.dumps(check_dg_rules(b)); a change to any rule
# statement, case count or counterexample changes it
DG_REPORT_SHA256 = {
    2: "53a65e92090fc2d033e34357c47b3b88db071e1078a30dd3c43e6fed5fa9d861",
    3: "54ba0c42479d282163014240d747f838d7de450c02a1ff87f8c3f2635e2eccde",
    4: "ce927dbb3f29e887edc1d184e3caffc74caa7da25363f0629646eb8df4cf482d",
    5: "abd8cb304ca42a6bc3029d33b68f519ab8ef61f3bfe6b34a7beeacc5a6e90e85",
    6: "511ea848cb73717219a854144ba42bbdc06b4fbd772fe500c62625839afe4504",
    7: "ff9dc97e2fe3f43a5f542c16c5d310d7e9a471de77212a23f3340f573b8032ff",
}


@pytest.mark.parametrize("bound", sorted(DG_REPORT_SHA256))
def test_dg_report_pinned(bound):
    printed = json.dumps(check_dg_rules(bound))
    assert hashlib.sha256(printed.encode()).hexdigest() == DG_REPORT_SHA256[bound]


def test_dg_terms_match_public_products():
    # each key-level term against boundary and tri_* on cells, the
    # LinComb path, for every pair with arity sum <= 6
    pairs = 0
    for p in range(1, 6):
        for q in range(1, 7 - p):
            for x in enumerate_subset_cells(p):
                for y in enumerate_subset_cells(q):
                    pairs += 1
                    terms = dg_terms(x.key, y.key)
                    assert len(terms) == 12
                    for name, op in TRI_OPS.items():
                        want = {
                            f"d(x {name} y)": boundary(op(x, y)),
                            f"dx {name} y": op(boundary(x), y),
                            f"x {name} dy": op(x, boundary(y)),
                            f"x {name} y": op(x, y),
                        }
                        for term, lin in want.items():
                            got = {cell_of_key(k): c for k, c in terms[term].items()}
                            assert LinComb(got) == lin, (term, x, y)
    assert pairs == sum(
        (2**p - 1) * (2**q - 1) for p in range(1, 6) for q in range(1, 7 - p)
    )
