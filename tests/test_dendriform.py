"""Planar-tree algebra: three products, star, relations, generator spans."""

import pytest

from trioperad.cells import LEAF, enumerate_planar_trees, parse_tree
from trioperad.dendriform import (
    DEND_OPS,
    DENDRIFORM_RELATIONS,
    GENERATOR,
    check_dendriform_relations,
    check_generator_spans,
    mid,
    prec,
    star,
    star_associativity,
    star_power,
    succ,
)
from trioperad.linear import LinComb
from trioperad.relations import relation_statement

# the 7 relations, frozen as (a, b, c, d) for (x a y) b z = x c (y d z)
FROZEN_RELATIONS = [
    ("prec", "prec", "prec", "star"),
    ("succ", "prec", "succ", "prec"),
    ("star", "succ", "succ", "succ"),
    ("succ", "mid", "succ", "mid"),
    ("prec", "mid", "mid", "succ"),
    ("mid", "prec", "mid", "prec"),
    ("mid", "mid", "mid", "mid"),
]

A = parse_tree("(|,|)")


def lc(*literals) -> LinComb:
    return LinComb((parse_tree(t), 1) for t in literals)


# --------------------------------------------------------------- products


def test_generator_products_pinned():
    assert prec(A, A) == lc("(|,(|,|))")
    assert succ(A, A) == lc("((|,|),|)")
    assert mid(A, A) == lc("(|,|,|)")
    assert star(A, A) == lc("(|,(|,|))", "((|,|),|)", "(|,|,|)")


def test_first_relation_pinned_expansion():
    # (a prec a) prec a = a prec (a star a), both a three-term sum
    left_inner = prec(A, A)
    lhs = LinComb()
    for t, c in left_inner:
        lhs = lhs + c * prec(t, A)
    rhs_inner = star(A, A)
    rhs = LinComb()
    for t, c in rhs_inner:
        rhs = rhs + c * prec(A, t)
    want = lc("(|,(|,(|,|)))", "(|,((|,|),|))", "(|,(|,|,|))")
    assert lhs == rhs == want


def test_star_unit_is_leaf():
    t = parse_tree("(|,|,|)")
    assert star(LEAF, t) == LinComb.single(t)
    assert star(t, LEAF) == LinComb.single(t)


def test_leaf_rejected_by_partial_products():
    for op in (prec, succ, mid):
        with pytest.raises(ValueError, match="unit for star only"):
            op(LEAF, A)
        with pytest.raises(ValueError, match="unit for star only"):
            op(A, LEAF)
        # a leaf anywhere in a combination's support, but only with a partner
        with pytest.raises(ValueError, match="unit for star only"):
            op(A, lc("(|,|,|)", "|"))
        assert op(LEAF, LinComb()) == LinComb()


def test_products_add_weights():
    x = parse_tree("(|,(|,|))")
    y = parse_tree("(|,|,|)")
    for name in ("prec", "succ", "mid", "star"):
        for t, _ in DEND_OPS[name](x, y):
            assert t.leaves == x.leaves + y.leaves - 1


def test_product_terms_are_the_enumerated_trees():
    # trees are hash-consed: every term is the enumerated object for its tree
    enumerated = {t.literal(): t for n in range(1, 7) for t in enumerate_planar_trees(n)}
    trees = [t for n in range(2, 6) for t in enumerate_planar_trees(n)]
    pairs = [(x, y) for x in trees for y in trees if x.leaves + y.leaves <= 7]
    for op in DEND_OPS.values():
        for x, y in pairs:
            for t, _ in op(x, y):
                assert t is enumerated[t.literal()]


# -------------------------------------------------------------- relations


def test_relation_tuples_frozen():
    assert list(DENDRIFORM_RELATIONS) == FROZEN_RELATIONS
    assert relation_statement(FROZEN_RELATIONS[4]) == "(x prec y) mid z = x mid (y succ z)"


def test_relations_hold_small():
    report = check_dendriform_relations(8)
    assert report["passed"]
    assert all(r["holds"] for r in report["relations"])
    assert len(report["relations"]) == 7


def test_star_associativity_small():
    report = star_associativity(8)
    assert report["passed"]
    assert report["first_failure"] is None


def test_star_associativity_pinned_triple():
    # (a*a)*a = a*(a*a) = sum of all 11 four-leaf trees
    lhs = LinComb()
    for t, c in star(A, A):
        lhs = lhs + c * star(t, A)
    rhs = LinComb()
    for t, c in star(A, A):
        rhs = rhs + c * star(A, t)
    all4 = LinComb((t, 1) for t in enumerate_planar_trees(4))
    assert lhs == rhs == all4


# ------------------------------------------------------------ star powers


def test_star_powers_span_all_trees():
    assert GENERATOR == A
    for n in range(1, 6):
        power = star_power(n)
        assert power == LinComb((t, 1) for t in enumerate_planar_trees(n + 1))


def test_star_power_three_has_eleven_terms():
    assert len(star_power(3)) == 11


def test_generator_spans():
    report = check_generator_spans(4)
    assert report["passed"]
    assert [w["rank"] for w in report["per_weight"]] == [1, 3, 11, 45]
