"""Planar-tree algebra: three products, star, relations, generator spans."""

import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from trioperad.cells import (
    LEAF,
    PlanarTree,
    decompose,
    enumerate_planar_trees,
    graft,
    parse_tree,
)
from trioperad.dendriform import (
    BASIS_OPS,
    DEND_OPS,
    DENDRIFORM_RELATIONS,
    DENDRIFORM_SCHEME,
    GENERATOR,
    check_dendriform_relations,
    check_generator_spans,
    mid,
    prec,
    star,
    star_associativity,
    star_power,
    star_term_count,
    succ,
)
from trioperad.linear import LinComb, as_lincomb
from trioperad.relations import relation_statement
from trioperad.series import f_stasheff

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


# ------------------------------------------- reference recursive products
#
# The recursive definitions the one-dict products replace: every product
# is a LinComb built from a generator, a bare tree goes through
# as_lincomb, and star is the sum prec + succ + mid.


def _ref_graft_star(head, x, y, tail):
    return LinComb((graft(head + (t,) + tail), c) for t, c in _ref_star(x, y))


@lru_cache(maxsize=None)
def _ref_prec(x, y):
    parts = decompose(x)
    return _ref_graft_star(parts[:-1], parts[-1], y, ())


@lru_cache(maxsize=None)
def _ref_succ(x, y):
    parts = decompose(y)
    return _ref_graft_star((), x, parts[0], parts[1:])


@lru_cache(maxsize=None)
def _ref_mid(x, y):
    xp, yp = decompose(x), decompose(y)
    return _ref_graft_star(xp[:-1], xp[-1], yp[0], yp[1:])


def _ref_star(x, y):
    if x.is_leaf:
        return LinComb.single(y)
    if y.is_leaf:
        return LinComb.single(x)
    return _ref_prec(x, y) + _ref_succ(x, y) + _ref_mid(x, y)


def _ref_bilinear(tree_fn, allow_leaf):
    def op(x, y):
        xs, ys = as_lincomb(x), as_lincomb(y)
        if not allow_leaf and xs and ys and (LEAF in xs.support() or LEAF in ys.support()):
            raise ValueError("the one-leaf tree is a unit for star only")
        return LinComb(
            (t, cx * cy * c) for bx, cx in xs for by, cy in ys for t, c in tree_fn(bx, by)
        )

    return op


REFERENCE_OPS = {
    "prec": _ref_bilinear(_ref_prec, allow_leaf=False),
    "succ": _ref_bilinear(_ref_succ, allow_leaf=False),
    "mid": _ref_bilinear(_ref_mid, allow_leaf=False),
    "star": _ref_bilinear(_ref_star, allow_leaf=True),
}


@pytest.mark.parametrize("name", list(REFERENCE_OPS))
def test_products_match_reference_on_basis_pairs(name):
    # every basis pair with leaf sum <= 8; the one-leaf tree only for star
    least = 1 if name == "star" else 2
    trees = [t for n in range(least, 8) for t in enumerate_planar_trees(n)]
    pairs = [(x, y) for x in trees for y in trees if x.leaves + y.leaves <= 8]
    assert len(pairs) == (3300 if name == "star" else 979)
    op, ref = DEND_OPS[name], REFERENCE_OPS[name]
    for x, y in pairs:
        assert op(x, y) == ref(x, y), (name, str(x), str(y))


def _counted(v):
    """A tree stays a tree; a multiset of trees becomes the LinComb it
    stands for."""
    return v if isinstance(v, PlanarTree) else LinComb((t, 1) for t in v)


@pytest.mark.parametrize("name", list(BASIS_OPS))
def test_basis_products_are_distinct_trees_with_coefficient_one(name):
    # the cached tuple is the whole product: no repeated tree, and the
    # reference LinComb has exactly these trees, each with coefficient 1
    least = 1 if name == "star" else 2
    trees = [t for n in range(least, 8) for t in enumerate_planar_trees(n)]
    basis_op, ref = BASIS_OPS[name], REFERENCE_OPS[name]
    for x in trees:
        for y in trees:
            if x.leaves + y.leaves > 8:
                continue
            got = basis_op(x, y)
            assert type(got) is tuple and basis_op(x, y) is got
            assert len(set(got)) == len(got), (name, str(x), str(y))
            want = ref(x, y)
            assert all(c == 1 for _, c in want), (name, str(x), str(y))
            assert _counted(got) == want, (name, str(x), str(y))
            if name == "star" and not (x.is_leaf or y.is_leaf):
                parts = (BASIS_OPS[n](x, y) for n in ("prec", "succ", "mid"))
                assert got == sum(parts, ())


@pytest.mark.parametrize("name", list(BASIS_OPS))
def test_multiset_ops_agree_with_lincomb_ops(name):
    # the scheme's ops on trees and tuples of trees, repeats included, are
    # the LinComb products of the sums they stand for, in any order
    op, lin = DENDRIFORM_SCHEME.ops[name], DEND_OPS[name]
    rng = random.Random(14)
    trees = [t for n in range(2, 6) for t in enumerate_planar_trees(n)]
    sums = [tuple(rng.choices(trees, k=rng.randint(1, 5))) for _ in range(40)]
    sums += [(A, A, B), (B, A, B, B), (A,)]
    assert any(len(set(s)) < len(s) for s in sums)
    cases = list(zip(sums, reversed(sums))) + [(A, (A, A, B)), ((B, B), A), (A, B)]
    # each argument shape, a tuple side with and without repeats
    C = parse_tree("(|,(|,|))")
    cases += [(B, (C, A, C, C)), (C, (B, A)), ((C, A, B), B), ((A, C, A), C)]
    cases += [((B, C), (A, A, C)), ((C, C), (B,)), ((A, B), (C, B))]
    for x, y in cases:
        got = op(x, y)
        assert type(got) is tuple
        assert _counted(got) == lin(_counted(x), _counted(y)), (name, x, y)
        if not isinstance(x, PlanarTree):
            assert Counter(op(x[::-1], y)) == Counter(got)
    # a repeated tree keeps its multiplicity
    twice = op((A, A), B)
    assert _counted(twice) == 2 * lin(A, B)
    assert len(twice) == 2 * len(op(A, B))


@pytest.mark.parametrize("name", list(BASIS_OPS))
def test_multiset_ops_on_two_trees_are_the_cached_products(name):
    # no copy: on two basis trees the scheme's op hands back the cached tuple
    op, basis_op = DENDRIFORM_SCHEME.ops[name], BASIS_OPS[name]
    least = 1 if name == "star" else 2
    trees = [t for n in range(least, 6) for t in enumerate_planar_trees(n)]
    for x in trees:
        for y in trees:
            assert op(x, y) is basis_op(x, y), (name, str(x), str(y))


@pytest.mark.parametrize("name", list(BASIS_OPS))
def test_multiset_ops_on_a_tree_and_a_one_tuple(name):
    # a 1-tuple on either side stands for its one tree: the op hands back
    # the cached product of the two trees, the terms of the LinComb one
    op, basis_op, lin = DENDRIFORM_SCHEME.ops[name], BASIS_OPS[name], DEND_OPS[name]
    least = 1 if name == "star" else 2
    trees = [t for n in range(least, 6) for t in enumerate_planar_trees(n)]
    for t in trees:
        for u in trees:
            want = basis_op(t, u)
            assert op((t,), u) == op(t, (u,)) == op(t, u) == want, (name, str(t), str(u))
            assert op((t,), u) is want and op(t, (u,)) is want
            assert _counted(op((t,), u)) == _counted(op(t, (u,))) == lin(t, u)


def test_same_compares_multisets_exactly():
    same = DENDRIFORM_SCHEME.same
    C = parse_tree("(|,(|,|))")
    # one set, other counts: unequal whichever side repeats
    assert not same((A, A, B), (A, B, B))
    assert not same((A, B, B), (A, A, B))
    # one multiset in two orders
    assert same((A, B, A), (B, A, A))
    assert same((A, B, C), (C, A, B))
    assert same((), ())
    # other lengths, the shorter side's set inside the longer's
    assert not same((A, B), (A, B, B))
    assert not same((A, B, B), (A, B))
    assert not same((A,), ())
    # a distinct left side against a right side that repeats a tree
    assert not same((A, B, C), (A, B, B))
    assert not same((A, B), (C, A))


def _seeded_lincombs(seed, count):
    rng = random.Random(seed)
    trees = [t for n in range(2, 6) for t in enumerate_planar_trees(n)]
    coeffs = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2))
    return [
        LinComb((t, rng.choice(coeffs)) for t in rng.sample(trees, rng.randint(1, 5)))
        for _ in range(count)
    ]


B = parse_tree("(|,|,|)")

# inputs on both paths: several terms, Fractions, single terms whose
# coefficients multiply to 1 (the shared cached product) or to -1, zero
SPECIAL_PAIRS = [
    (lc("(|,|)", "(|,|,|)"), LinComb([(A, 1), (B, -1)])),
    (LinComb.single(A, -1), LinComb.single(B, -1)),
    (LinComb.single(A, -1), B),
    (A, LinComb.single(B, -1)),
    (LinComb.single(A, Fraction(2, 3)), LinComb.single(B, Fraction(3, 2))),
    (LinComb.single(A, Fraction(1, 2)), LinComb.single(B, 3)),
    (LinComb([(A, 1), (A, -1)]), B),
    (LinComb(), A),
    (A, LinComb()),
    (LinComb(), LinComb()),
]


@pytest.mark.parametrize("name", list(REFERENCE_OPS))
def test_products_match_reference_on_combinations(name):
    op, ref = DEND_OPS[name], REFERENCE_OPS[name]
    xs, ys = _seeded_lincombs(12, 40), _seeded_lincombs(13, 40)
    for x, y in list(zip(xs, ys)) + SPECIAL_PAIRS:
        assert op(x, y) == ref(x, y), (name, str(x), str(y))
    for zero in (LinComb(), LinComb([(A, 2), (A, -2)])):
        assert op(zero, B) == op(B, zero) == LinComb()


def test_product_terms_cancel():
    # (|,|) mid (|,|,|) and (|,|,|) mid (|,|) are both the four-leaf corolla,
    # so with x = A + B and y = A - B it cancels in mid and in star
    x, y = LinComb([(A, 1), (B, 1)]), LinComb([(A, 1), (B, -1)])
    corolla = parse_tree("(|,|,|,|)")
    for name in ("mid", "star"):
        got = DEND_OPS[name](x, y)
        assert got == REFERENCE_OPS[name](x, y)
        assert got.coeff(corolla) == 0
        assert corolla not in got.support()


def test_leaf_arguments_after_one_dict_products():
    leafy = LinComb([(LEAF, 2), (A, 1)])
    for name in ("prec", "succ", "mid"):
        for x, y in ((LEAF, A), (A, LEAF), (leafy, B), (B, leafy)):
            with pytest.raises(ValueError, match="unit for star only"):
                DEND_OPS[name](x, y)
    assert star(LEAF, B) == LinComb.single(B)
    assert star(leafy, B) == REFERENCE_OPS["star"](leafy, B)
    assert star(LEAF, LEAF) == LinComb.single(LEAF)


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


@pytest.mark.parametrize(
    "call, why", [(lambda: star_power(0), "n must be >= 1")], ids=["star_power"]
)
def test_guards_refuse_an_empty_power(call, why):
    with pytest.raises(ValueError, match=why):
        call()


# Run in a fresh interpreter, where every tree of a star power is first
# made by a product (``cells.graft_each``), not by the constructor or an
# enumeration: a wrong field on a product-made tree then shows in its
# degree.
_STAR_POWER_TERMS = """
import json
from trioperad.dendriform import star_power
print(json.dumps([
    [(t.degree, c) for t, c in star_power(n).items()] for n in range(1, 8)
]))
"""


def test_star_power_degrees_match_stasheff_series_in_fresh_process():
    proc = subprocess.run(
        [sys.executable, "-c", _STAR_POWER_TERMS], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    fk = f_stasheff(7)
    for n, terms in enumerate(json.loads(proc.stdout), start=1):
        assert {c for _, c in terms} == {1}
        counts = Counter(degree for degree, _ in terms)
        assert counts == {d: abs(c) for d, c in enumerate(fk.coeffs[n].coeffs)}, n


def test_generator_spans():
    report = check_generator_spans(4)
    assert report["passed"]
    assert [w["rank"] for w in report["per_weight"]] == [1, 3, 11, 45]


# --------------------------------------------------------- term counts


@lru_cache(maxsize=None)
def delannoy(m, n):
    """Lattice paths from (0, 0) to (m, n) with steps (1,0), (0,1), (1,1)."""
    if m == 0 or n == 0:
        return 1
    return delannoy(m - 1, n) + delannoy(m, n - 1) + delannoy(m - 1, n - 1)


def spine(t, side):
    """Internal vertices on the leftmost (side 0) or rightmost (-1) path."""
    return 0 if t.is_leaf else 1 + spine(t.children[side], side)


def test_star_term_count_is_the_delannoy_number():
    trees = [t for n in range(1, 6) for t in enumerate_planar_trees(n)]
    for x in trees:
        for y in trees:
            want = delannoy(spine(x, -1), spine(y, 0))
            assert len(star(x, y)) == star_term_count(x, y) == want, (x, y)
            if not (x.is_leaf or y.is_leaf):
                assert max(len(prec(x, y)), len(succ(x, y)), len(mid(x, y))) <= want
    assert (delannoy(8, 8), delannoy(9, 9)) == (265729, 1462563)
