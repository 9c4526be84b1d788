"""The relation-scheme harness: non-vacuous bounds and negative controls."""

import itertools
import operator

import pytest

from trioperad import trialgebra

from trioperad.cells import compositions, enumerate_planar_trees, key_literal, subset_keys
from trioperad.complexes import face_convention_sweep, simplex_convention_sweep
from trioperad.dendriform import (
    DENDRIFORM_SCHEME,
    check_dendriform_relations,
    check_generator_spans,
    star_associativity,
)
from trioperad.duality import negative_control_scheme
from trioperad.relations import Scheme, check_cases, check_scheme, relation_statement
from trioperad.trialgebra import (
    TRIALGEBRA_SCHEME,
    check_dg_rules,
    check_operad_axioms,
    check_trialgebra_relations,
    left_key,
    mid_key,
)


def test_schemes_hold_their_frozen_data():
    assert TRIALGEBRA_SCHEME.generators == ("left", "right", "mid")
    assert DENDRIFORM_SCHEME.generators == ("prec", "succ", "mid")
    assert TRIALGEBRA_SCHEME.sum_symbol is None
    assert DENDRIFORM_SCHEME.sum_symbol == "star"
    assert (TRIALGEBRA_SCHEME.min_size, DENDRIFORM_SCHEME.min_size) == (1, 2)
    assert (len(TRIALGEBRA_SCHEME.rows), len(DENDRIFORM_SCHEME.rows)) == (11, 7)


def test_key_side_compares_with_eq():
    # products on keys are ints, compared with ==; only the tree side,
    # whose sums are multisets in no fixed order, sets its own comparison
    assert Scheme._field_defaults["same"] is operator.eq
    assert TRIALGEBRA_SCHEME.same is operator.eq
    assert DENDRIFORM_SCHEME.same is not operator.eq


def test_smallest_bound_checks_one_triple():
    # {1}@1 three times, and the two-leaf generator three times
    assert check_trialgebra_relations(3)["triples_checked"] == 1
    assert check_dendriform_relations(6)["triples_checked"] == 1
    assert star_associativity(6)["triples_checked"] == 1


@pytest.mark.parametrize(
    "check, bound, least",
    [
        (check_trialgebra_relations, 2, 3),
        (check_trialgebra_relations, -5, 3),
        (check_dendriform_relations, 5, 6),
        (star_associativity, 5, 6),
        (check_operad_axioms, 0, 1),
        (check_dg_rules, 1, 2),
        (check_generator_spans, 0, 1),
        (check_generator_spans, -3, 1),
        (face_convention_sweep, 0, 1),
        (simplex_convention_sweep, 0, 1),
    ],
)
def test_vacuous_bounds_rejected(check, bound, least):
    with pytest.raises(ValueError, match=f"smallest valid bound is {least}"):
        check(bound)


def _failing_entry(entries, row):
    failing = [e for e in entries if not e["holds"]]
    assert [e["relation"] for e in failing] == [relation_statement(row)]
    ce = failing[0]["counterexample"]
    assert ce is not None
    assert ce["lhs"] != ce["rhs"]
    return ce


def test_harness_rejects_the_duality_negative_control():
    # relation 8 with its inner right-hand product flipped to left: the
    # pairing side of the duality certificate already rejects it
    scheme = negative_control_scheme()
    assert scheme.rows[7] == ("left", "mid", "mid", "left")
    entries, triples = check_scheme(scheme, 4)
    assert triples > 0
    ce = _failing_entry(entries, scheme.rows[7])
    assert ce == {
        "x": "{1}@1",
        "y": "{1}@1",
        "z": "{1}@1",
        "lhs": "{1,3}@3",
        "rhs": "{1,2}@3",
    }


def _skipping_gamma_key(outer, args):
    # a gamma that advances past an unselected slot by one vertex, not by
    # its argument's arity: both unit laws still hold (unit arguments have
    # arity 1), associativity does not
    mask = shift = 0
    for a in args:
        p = a.bit_length() - 1
        if outer & 1:
            mask |= (a ^ 1 << p) << shift
            shift += p
        else:
            shift += 1
        outer >>= 1
    return mask | 1 << sum(a.bit_length() - 1 for a in args)


_GAMMA_KEY = trialgebra.gamma_key


def _wide_gamma_key(outer, args):
    # gamma, except that a result of arity >= 6 from an unselected first
    # slot and an argument of arity >= 2 selects the first slot too: no
    # case below total arity 6 sees it
    arities = [a.bit_length() - 1 for a in args]
    if not outer & 1 and sum(arities) >= 6 and max(arities) >= 2:
        outer |= 1
    return _GAMMA_KEY(outer, args)


def _first_failure(monkeypatch, broken, bound):
    # the first case, in the order x, then ys, then zs, whose two sides
    # differ under the mutated composition
    monkeypatch.setattr(trialgebra, "gamma_key", broken)
    report = check_operad_axioms(bound)
    assert report["passed"] is (report["first_failure"] is None)
    cases = report["unit_cases"] + report["associativity_cases"]
    assert cases == check_cases("operad_axioms", bound)
    return report["first_failure"]


def test_operad_check_rejects_a_broken_composition(monkeypatch):
    for bound in (4, 6):
        assert _first_failure(monkeypatch, _skipping_gamma_key, bound) == {
            "kind": "associativity",
            "x": "{2}@2",
            "ys": ["{1}@2", "{1}@1"],
            "zs": ["{1}@1", "{1}@1", "{2}@2"],
            "lhs": "{2}@4",
            "rhs": "{3}@4",
        }


def test_operad_check_rejects_a_composition_broken_at_arity_6(monkeypatch):
    assert _first_failure(monkeypatch, _wide_gamma_key, 5) is None
    assert _first_failure(monkeypatch, _wide_gamma_key, 6) == {
        "kind": "associativity",
        "x": "{1}@2",
        "ys": ["{2}@2", "{1}@1"],
        "zs": ["{1}@1", "{1}@1", "{1}@4"],
        "lhs": "{1,2}@6",
        "rhs": "{2}@6",
    }


def test_operad_check_composes_at_most_twice_per_case(monkeypatch):
    # the inner composites are shared by every x, and each left side by
    # every x and ys with the same (x; ys)
    calls = 0

    def counted(outer, args):
        nonlocal calls
        calls += 1
        return _GAMMA_KEY(outer, args)

    monkeypatch.setattr(trialgebra, "gamma_key", counted)
    report = check_operad_axioms(6)
    assert report == {
        "passed": True,
        "max_arity": 6,
        "unit_cases": 240,
        "associativity_cases": 42034,
        "first_failure": None,
    }
    assert calls <= 2 * (240 + 42034)


def _reference_operad_failure(gamma, bound):
    # case by case, in the order of check_operad_axioms: both sides of
    # every (x; ys; zs) composed afresh, with no table
    for total in range(1, bound + 1):
        for mid_arity in range(1, total + 1):
            for inner_arities in compositions(total, mid_arity):
                for n in range(1, mid_arity + 1):
                    for outer_arities in compositions(mid_arity, n):
                        for x in subset_keys(n):
                            for ys in itertools.product(*map(subset_keys, outer_arities)):
                                for zs in itertools.product(*map(subset_keys, inner_arities)):
                                    rest = iter(zs)
                                    args = [
                                        gamma(y, list(itertools.islice(rest, k)))
                                        for y, k in zip(ys, outer_arities)
                                    ]
                                    lhs, rhs = gamma(gamma(x, ys), zs), gamma(x, args)
                                    if lhs != rhs:
                                        return {
                                            "kind": "associativity",
                                            "x": key_literal(x),
                                            "ys": [key_literal(y) for y in ys],
                                            "zs": [key_literal(z) for z in zs],
                                            "lhs": key_literal(lhs),
                                            "rhs": key_literal(rhs),
                                        }
    return None


def _last_slot_gamma_key(outer, args):
    # gamma, except that three arguments ending in {1,2}@2 also select the
    # first slot: the last zs of a block, never its first, sees it
    if len(args) == 3 and args[-1] == 0b111:
        outer |= 1
    return _GAMMA_KEY(outer, args)


def test_operad_check_reports_the_first_case_inside_a_block(monkeypatch):
    # the first wrong case has a later x and a later zs than its (x; ys)
    # block starts with; the check must name it, not the block's first zs
    want = _reference_operad_failure(_last_slot_gamma_key, 5)
    assert want == {
        "kind": "associativity",
        "x": "{2}@2",
        "ys": ["{1}@1", "{1}@2"],
        "zs": ["{1}@1", "{1}@1", "{1,2}@2"],
        "lhs": "{1,2}@4",
        "rhs": "{2}@4",
    }
    assert _first_failure(monkeypatch, _last_slot_gamma_key, 5) == want
    assert _reference_operad_failure(_GAMMA_KEY, 4) is None


# (row index, perturbed row, lhs, rhs); each first fails at x = y = z = (|,|)
PERTURBED_TREE_ROWS = [
    (4, ("prec", "mid", "mid", "prec"), "(|,(|,|),|)", "(|,|,(|,|))"),
    (
        0,
        ("prec", "prec", "prec", "prec"),
        "(|,((|,|),|)) + (|,(|,(|,|))) + (|,(|,|,|))",
        "(|,(|,(|,|)))",
    ),
    (
        2,
        ("star", "succ", "succ", "prec"),
        "(((|,|),|),|) + ((|,(|,|)),|) + ((|,|,|),|)",
        "((|,|),(|,|))",
    ),
]


def test_harness_rejects_a_perturbed_tree_row():
    # the multiset comparison finds the same counterexample a LinComb one
    # would, rendered as the LinComb
    for i, row, lhs, rhs in PERTURBED_TREE_ROWS:
        rows = list(DENDRIFORM_SCHEME.rows)
        rows[i] = row
        scheme = DENDRIFORM_SCHEME._replace(rows=tuple(rows))
        entries, _ = check_scheme(scheme, 7)
        ce = _failing_entry(entries, row)
        generator = "(|,|)"
        assert ce == {"x": generator, "y": generator, "z": generator, "lhs": lhs, "rhs": rhs}


def _failures(scheme, bound):
    """The failing rows of ``scheme`` at ``bound``: {row index: counterexample}."""
    entries, _ = check_scheme(scheme, bound)
    return {i: e["counterexample"] for i, e in enumerate(entries) if not e["holds"]}


def _with_op(name, op):
    return DENDRIFORM_SCHEME._replace(ops={**DENDRIFORM_SCHEME.ops, name: op})


def _mid_repeating(x, y):
    # mid, with the first of its terms in literal order standing in for
    # the last: the same number of terms, one of them repeated
    out = sorted(DENDRIFORM_SCHEME.ops["mid"](x, y), key=str)
    return tuple(out[:1] + out[:-1])


def test_harness_rejects_a_mid_that_repeats_a_term():
    # row 3 fails with a left side that repeats a tree (compared by
    # counts), row 5 with a distinct left side (compared as sets); the
    # sums of each row have the same length
    assert _failures(_with_op("mid", _mid_repeating), 7) == {
        3: {
            "x": "(|,|)",
            "y": "((|,|),|)",
            "z": "(|,|)",
            "lhs": "2*(((|,|),|),|,|) + ((|,(|,|)),|,|)",
            "rhs": "(((|,|),|),|,|) + ((|,(|,|)),|,|) + ((|,|,|),|,|)",
        },
        5: {
            "x": "(|,|)",
            "y": "(|,(|,|))",
            "z": "(|,|)",
            "lhs": "(|,|,((|,|),|)) + (|,|,(|,(|,|))) + (|,|,(|,|,|))",
            "rhs": "2*(|,|,((|,|),|)) + (|,|,(|,(|,|)))",
        },
    }


def _deep_prec(x, y):
    # prec, except that a result with 6 or more leaves is mid's: only a
    # triple with 8 or more leaves in all has such an outer product
    out = DENDRIFORM_SCHEME.ops["prec"](x, y)
    return DENDRIFORM_SCHEME.ops["mid"](x, y) if out[0].leaves >= 6 else out


def test_harness_rejects_a_tree_product_broken_past_bound_7():
    # the first failing triple of each row, in the order p, q, x, y, z
    scheme = _with_op("prec", _deep_prec)
    assert _failures(scheme, 7) == {}
    corner = {"x": "(|,|)", "y": "(|,|)", "z": "(|,(|,(|,|)))"}
    assert _failures(scheme, 8) == {
        0: {
            **corner,
            "lhs": "(|,(|,|),(|,(|,|)))",
            "rhs": "(|,(|,|),(|,(|,|))) + (|,|,(|,(|,(|,|)))) + (|,|,|,(|,(|,|)))",
        },
        1: {**corner, "lhs": "((|,|),|,(|,(|,|)))", "rhs": "((|,|),(|,(|,(|,|))))"},
        5: {**corner, "lhs": "(|,|,|,(|,(|,|)))", "rhs": "(|,|,(|,(|,(|,|))))"},
    }


def _reference_failures(scheme, bound):
    # the plain loop over p, q, x, y, z and the rows, both sides of every
    # row computed afresh for every triple: {row index: counterexample}
    ops, m, render = scheme.ops, scheme.min_size, scheme.render
    found = {}
    for p in range(m, bound - 2 * m + 1):
        for q in range(m, bound - p - m + 1):
            for x in scheme.basis(p):
                for y in scheme.basis(q):
                    for r in range(m, bound - p - q + 1):
                        for z in scheme.basis(r):
                            for i, (a, b, c, d) in enumerate(scheme.rows):
                                lhs, rhs = ops[b](ops[a](x, y), z), ops[c](x, ops[d](y, z))
                                if i not in found and not scheme.same(lhs, rhs):
                                    found[i] = {
                                        "x": render(x),
                                        "y": render(y),
                                        "z": render(z),
                                        "lhs": render(lhs),
                                        "rhs": render(rhs),
                                    }
    return found


def _with_broken_row(scheme, i, broken):
    # row i with its outer right-hand product replaced by ``broken``, under
    # a name of its own, so that several rows can be broken in turn
    rows = list(scheme.rows)
    a, b, _, d = rows[i]
    name = f"broken {i}"
    rows[i] = (a, b, name, d)
    return scheme._replace(ops={**scheme.ops, name: broken}, rows=tuple(rows))


def test_harness_order_on_a_key_row_broken_past_the_first_x():
    # x -| (y |- z) is wrong only for x of arity >= 3 other than {1}@n,
    # and z of two elements: of the many failing triples the check must
    # report the first in the order p, q, x, y, z
    def broken(u, v):
        p = u.bit_length() - 1
        late = p >= 3 and u != 1 << p | 1
        return mid_key(u, v) if late and v.bit_count() == 3 else left_key(u, v)

    scheme = _with_broken_row(TRIALGEBRA_SCHEME, 1, broken)
    want = _reference_failures(scheme, 7)
    assert want == {
        1: {"x": "{2}@3", "y": "{1}@1", "z": "{1,2}@2", "lhs": "{2}@6", "rhs": "{2,5,6}@6"}
    }
    assert _failures(scheme, 7) == want


def test_harness_order_on_a_tree_product_broken_past_the_first_x():
    # x prec (y star z) is wrong only for x other than the first tree of
    # its size and y not of the form (|,t), which the first term of y star
    # z shows: its root has y's branch count and y's first branch
    ops = DENDRIFORM_SCHEME.ops

    def broken(u, v):
        head = v[0].children
        late = u is not enumerate_planar_trees(u.leaves)[0]
        if late and (len(head) > 2 or not head[0].is_leaf):
            return ops["mid"](u, v)
        return ops["prec"](u, v)

    scheme = _with_broken_row(DENDRIFORM_SCHEME, 0, broken)
    want = _reference_failures(scheme, 9)
    assert list(want) == [0]
    corner = {"x": "((|,|),|)", "y": "((|,|),|)", "z": "(|,|)"}
    assert {k: want[0][k] for k in corner} == corner
    assert _failures(scheme, 9) == want


# per side: the scheme, the bound, its check_cases name, the size of a
# basis element and the first basis element of a size
SIDES = {
    "key": (
        TRIALGEBRA_SCHEME,
        7,
        "trialgebra_relations",
        lambda u: u.bit_length() - 1,
        lambda n: 1 << n | 1,
    ),
    "tree": (
        DENDRIFORM_SCHEME,
        9,
        "dendriform_relations",
        lambda u: u.leaves,
        lambda n: enumerate_planar_trees(n)[0],
    ),
}


def _switched(scheme, i, other, when):
    # row i with its outer right-hand product swapped for ``other`` on the
    # (u, v) where ``when`` holds
    ops, c = scheme.ops, scheme.rows[i][2]
    return _with_broken_row(
        scheme, i, lambda u, v: ops[other](u, v) if when(u, v) else ops[c](u, v)
    )


def _sizes(ce):
    # the sizes (p, q, r) of a counterexample triple: the arity after "@"
    # of a key literal, the leaf count of a tree
    literals = (ce[k] for k in "xyz")
    return tuple(int(s.split("@")[1]) if "@" in s else s.count("|") for s in literals)


def _matches_the_plain_loop(scheme, bound, check):
    # every entry of the block harness is the plain loop's, and the triple
    # count is the counted one
    entries, triples = check_scheme(scheme, bound)
    assert triples == check_cases(check, bound)
    want = _reference_failures(scheme, bound)
    assert [(e["holds"], e["counterexample"]) for e in entries] == [
        (i not in want, want.get(i)) for i in range(len(scheme.rows))
    ]
    return want


@pytest.mark.parametrize(
    "side, first_row, second_row",
    [("key", (0, "mid"), (3, "left")), ("tree", (1, "prec"), (4, "succ"))],
)
def test_block_harness_with_two_rows_failing_in_different_blocks(side, first_row, second_row):
    # the first row is wrong once x has one more than the least size, the
    # second once it has two more: after the first row has failed, the
    # harness goes on checking the second
    scheme, bound, check, size, _ = SIDES[side]
    m = scheme.min_size
    scheme = _switched(scheme, *first_row, lambda u, v: size(u) > m)
    scheme = _switched(scheme, *second_row, lambda u, v: size(u) > m + 1)
    want = _matches_the_plain_loop(scheme, bound, check)
    (i, _), (j, _) = first_row, second_row
    assert list(want) == [i, j]
    assert _sizes(want[i])[0] == m + 1 and _sizes(want[j])[0] == m + 2


@pytest.mark.parametrize("side, row", [("key", (8, "left")), ("tree", (6, "prec"))])
def test_block_harness_with_a_row_failing_only_in_the_last_block(side, row):
    # x of the largest size meets only the last (p, q) block, whose y and
    # z are of the least size; one bound lower the row holds
    scheme, bound, check, size, _ = SIDES[side]
    m = scheme.min_size
    scheme = _switched(scheme, *row, lambda u, v: size(u) == bound - 2 * m)
    want = _matches_the_plain_loop(scheme, bound, check)
    assert list(want) == [row[0]]
    assert _sizes(want[row[0]]) == (bound - 2 * m, m, m)
    assert _matches_the_plain_loop(scheme, bound - 1, check) == {}


@pytest.mark.parametrize(
    "side, rows", [("key", ((0, "mid"), (2, "mid"))), ("tree", ((1, "prec"), (5, "prec")))]
)
def test_block_harness_with_two_rows_failing_first_at_one_triple(side, rows):
    # both rows are wrong where neither x nor (y d z) is the first basis
    # element of its size: the first such triple is inside its block, past
    # its first x and its first (y, z)
    scheme, bound, check, size, first = SIDES[side]

    def late(u, v):
        inner = v if isinstance(v, int) else v[0]
        return u != first(size(u)) and inner != first(size(inner))

    for row in rows:
        scheme = _switched(scheme, *row, late)
    want = _matches_the_plain_loop(scheme, bound, check)
    (i, _), (j, _) = rows
    assert list(want) == [i, j]
    triple = {k: want[i][k] for k in "xyz"}
    assert {k: want[j][k] for k in "xyz"} == triple
    firsts = dict(zip("xyz", map(scheme.render, map(first, _sizes(triple)))))
    assert triple["x"] != firsts["x"] and (triple["y"], triple["z"]) != (firsts["y"], firsts["z"])


def test_check_cases_count_what_the_checks_visit():
    for b in range(3, 7):
        want = check_trialgebra_relations(b)["triples_checked"]
        assert check_cases("trialgebra_relations", b) == want
    for b in range(2, 6):
        assert check_cases("dg_rules", b) == check_dg_rules(b)["pairs_checked"]
    for b in range(1, 7):
        report = check_operad_axioms(b)
        want = report["unit_cases"] + report["associativity_cases"]
        assert check_cases("operad_axioms", b) == want
    for b in range(6, 9):
        assert (
            check_cases("dendriform_relations", b)
            == check_dendriform_relations(b)["triples_checked"]
            == star_associativity(b)["triples_checked"]
        )
    # a bound that admits nothing counts nothing; the check itself refuses it
    assert check_cases("trialgebra_relations", -5) == 0
    assert check_cases("dendriform_relations", 5) == 0
    with pytest.raises(ValueError, match="unknown check"):
        check_cases("relations", 5)
