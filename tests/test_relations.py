"""The relation-scheme harness: non-vacuous bounds and negative controls."""

import re
from dataclasses import replace

import pytest

from trioperad import trialgebra

from trioperad.dendriform import (
    DENDRIFORM_SCHEME,
    check_dendriform_relations,
    star_associativity,
)
from trioperad.duality import negative_control_scheme
from trioperad.relations import check_cases, check_scheme, relation_statement
from trioperad.trialgebra import (
    TRIALGEBRA_SCHEME,
    check_dg_rules,
    check_operad_axioms,
    check_trialgebra_relations,
)


def test_schemes_hold_their_frozen_data():
    assert TRIALGEBRA_SCHEME.generators == ("left", "right", "mid")
    assert DENDRIFORM_SCHEME.generators == ("prec", "succ", "mid")
    assert TRIALGEBRA_SCHEME.sum_symbol is None
    assert DENDRIFORM_SCHEME.sum_symbol == "star"
    assert (TRIALGEBRA_SCHEME.min_size, DENDRIFORM_SCHEME.min_size) == (1, 2)
    assert (len(TRIALGEBRA_SCHEME.rows), len(DENDRIFORM_SCHEME.rows)) == (11, 7)


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


def test_operad_check_rejects_a_broken_composition(monkeypatch):
    # a gamma that advances past an unselected slot by one vertex, not by
    # its argument's arity: both unit laws still hold (unit arguments have
    # arity 1), associativity does not
    def broken_gamma_key(outer, args):
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

    monkeypatch.setattr(trialgebra, "gamma_key", broken_gamma_key)
    report = check_operad_axioms(4)
    assert not report["passed"]
    failure = report["first_failure"]
    assert failure["kind"] == "associativity"
    literal = re.compile(r"\{\d+(,\d+)*\}@\d+")
    for field in ("x", "lhs", "rhs"):
        assert literal.fullmatch(failure[field]), failure
    for field in ("ys", "zs"):
        assert failure[field] and all(literal.fullmatch(c) for c in failure[field]), failure
    assert failure["lhs"] != failure["rhs"]


def test_harness_rejects_a_perturbed_tree_row():
    rows = list(DENDRIFORM_SCHEME.rows)
    rows[4] = ("prec", "mid", "mid", "prec")
    scheme = replace(DENDRIFORM_SCHEME, rows=tuple(rows))
    entries, _ = check_scheme(scheme, 7)
    _failing_entry(entries, rows[4])


def test_check_cases_count_what_the_checks_visit():
    for b in range(3, 7):
        want = check_trialgebra_relations(b)["triples_checked"]
        assert check_cases("trialgebra_relations", b) == want
    for b in range(2, 6):
        assert check_cases("dg_rules", b) == check_dg_rules(b)["pairs_checked"]
    for b in range(1, 5):
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
