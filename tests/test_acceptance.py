"""Acceptance gate: every certification the package promises, at the
stated bounds, exact arithmetic throughout (tolerance zero).

One criterion per test function so the verbose run shows one pass/fail
line per criterion; each also prints an ACCEPTANCE line for log scraping.
Criterion 9 splits into its four sub-claims (a-d).  The rule stated in
9b is false; the discovery harness refutes it, and 9b asserts that
refutation (counterexample and nonzero residual) as an executable defect
report, so it passes exactly while the defect is still reported.
"""

import time
from math import comb

from trioperad.cells import enumerate_planar_trees, enumerate_subset_cells
from trioperad.cli import certify_all
from trioperad.complexes import (
    SIMPLEX_FACE_TABLE,
    SIMPLEX_FAMILY,
    TREE_FACE_OPS,
    TREE_FAMILY,
    build_complex,
    expected_betti,
    face_convention_sweep,
    homology_ranks,
    simplex_convention_sweep,
)
from trioperad.dendriform import check_dendriform_relations, star_associativity, star_power
from trioperad.duality import certify_duality
from trioperad.linear import LinComb
from trioperad.series import f_cube, f_delta, f_stasheff, series_identities_report
from trioperad.trialgebra import (
    boundary,
    check_dg_rules,
    check_operad_axioms,
    check_trialgebra_relations,
    tri_right,
)
from trioperad.cells import LeafOrientation, parse_subset_cell


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} -- {detail}")


def test_criterion_01_operad_axioms_exhaustive_to_arity_6():
    t0 = time.monotonic()
    out = check_operad_axioms(6)
    elapsed = time.monotonic() - t0
    ok = out["passed"] and elapsed < 10.0
    report(
        "1",
        ok,
        f"{out['associativity_cases']} associativity cases, "
        f"{out['unit_cases']} unit cases, {elapsed:.1f}s (< 10s)",
    )
    assert out["passed"], out["first_failure"]
    assert elapsed < 10.0


def test_criterion_02_eleven_relations_to_arity_sum_9():
    t0 = time.monotonic()
    out = check_trialgebra_relations(9)
    elapsed = time.monotonic() - t0
    ok = out["passed"] and elapsed < 60.0
    report(
        "2",
        ok,
        f"11 relations x {out['triples_checked']} triples, {elapsed:.1f}s (< 60s)",
    )
    assert out["passed"], [r for r in out["relations"] if not r["holds"]]
    assert len(out["relations"]) == 11
    assert elapsed < 60.0


def test_criterion_03_seven_relations_to_ten_leaves():
    t0 = time.monotonic()
    out = check_dendriform_relations(10)
    assoc = star_associativity(10)
    elapsed = time.monotonic() - t0
    ok = out["passed"] and assoc["passed"] and elapsed < 60.0
    report(
        "3",
        ok,
        f"7 relations x {out['triples_checked']} triples + star associativity "
        f"({assoc['triples_checked']} triples), {elapsed:.1f}s (< 60s)",
    )
    assert out["passed"], [r for r in out["relations"] if not r["holds"]]
    assert assoc["passed"], assoc["first_failure"]
    assert elapsed < 60.0


def test_criterion_04_free_algebra_dimensions():
    for n in range(1, 11):
        cells = enumerate_subset_cells(n)
        assert len(cells) == 2**n - 1
        by_degree = {}
        for c in cells:
            by_degree[c.degree] = by_degree.get(c.degree, 0) + 1
        # ((1+t)^n - 1)/t has t^d coefficient binom(n, d+1)
        assert by_degree == {d: comb(n, d + 1) for d in range(n)}
    dend = {n: len(enumerate_planar_trees(n)) for n in range(2, 7)}
    assert dend == {2: 1, 3: 3, 4: 11, 5: 45, 6: 197}
    report("4", True, "2^n - 1 with binomial grading (n <= 10); 1,3,11,45,197")


def test_criterion_05_duality_certificate():
    t0 = time.monotonic()
    cert = certify_duality()
    elapsed = time.monotonic() - t0
    ok = cert["passed"] and elapsed < 1.0
    report(
        "5",
        ok,
        f"ranks {cert['rank_trialgebra_relations']}+{cert['rank_dendriform_relations']}"
        f"=18, 11x7 pairing matrix zero, negative control breaks, "
        f"{elapsed:.2f}s (< 1s)",
    )
    assert cert["rank_trialgebra_relations"] == 11
    assert cert["rank_dendriform_relations"] == 7
    assert cert["rank_trialgebra_relations"] + cert["rank_dendriform_relations"] == 18
    assert all(v == 0 for row in cert["pairing_matrix"] for v in row)
    assert len(cert["pairing_matrix"]) == 11
    assert all(len(row) == 7 for row in cert["pairing_matrix"])
    assert cert["orthogonal"]
    assert cert["complement_matches"]
    assert cert["negative_control_breaks"]
    assert cert["passed"]
    assert elapsed < 1.0


def test_criterion_06_d_squared_zero_and_face_tables():
    for family in (SIMPLEX_FAMILY, TREE_FAMILY):
        for w in range(1, 6):
            gc = build_complex(family, w)
            assert gc.d_squared_zero, (family, w, gc.d_squared_failure)
    # quoted case analyses: both-endpoints row is the mid product, and the
    # left-oriented-leaf row is the left product
    assert SIMPLEX_FACE_TABLE[(True, True)] == "mid"
    assert SIMPLEX_FACE_TABLE[(False, False)] == "star"
    assert sorted(SIMPLEX_FACE_TABLE.values()) == ["mid", "prec", "star", "succ"]
    assert TREE_FACE_OPS[LeafOrientation.LEFT].__name__ == "left_cell"
    assert TREE_FACE_OPS[LeafOrientation.RIGHT].__name__ == "right_cell"
    assert TREE_FACE_OPS[LeafOrientation.MIDDLE].__name__ == "mid_cell"
    # the mixed-row orientation and the leaf indexing are each the unique
    # choice compatible with d^2 = 0 (see the convention sweeps)
    assert simplex_convention_sweep(3)["pinned_is_unique_pass"]
    assert face_convention_sweep(3)["pinned_is_unique_pass"]
    report("6", True, "d^2 = 0 both families w <= 5; face tables pinned by sweeps")


def test_criterion_07_koszulness_betti_profile():
    t0 = time.monotonic()
    for family in (SIMPLEX_FAMILY, TREE_FAMILY):
        for w in range(1, 6):
            gc = build_complex(family, w)
            hom = homology_ranks(gc)
            assert hom["betti"] == expected_betti(w), (family, w, hom)
    elapsed = time.monotonic() - t0
    ok = elapsed < 300.0
    report(
        "7",
        ok,
        f"betti = 1 at (n,w)=(1,1), else 0, both families w <= 5, "
        f"{elapsed:.1f}s (< 300s)",
    )
    assert elapsed < 300.0


def test_criterion_08_series_identities():
    t0 = time.monotonic()
    rep = series_identities_report(12)
    elapsed = time.monotonic() - t0
    checks = {entry["name"]: entry["passed"] for entry in rep["checks"]}
    ok = rep["passed"] and elapsed < 1.0
    report("8", ok, f"10 identities at order 12, exact, {elapsed:.2f}s (< 1s)")
    assert checks["delta_of_stasheff_is_x"]
    assert checks["stasheff_of_delta_is_x"]
    assert checks["invert_delta_equals_stasheff"]  # closed form == inverse
    # Catalan sequence 1,1,2,5,14,42,...: the t=0 magnitudes are C_1,C_2,...
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
    fk = f_stasheff(12)
    assert [abs(v) for v in fk.evaluate_t(0)[1:]] == catalan[1:13]
    assert checks["stasheff_at_t0_catalan"]
    assert checks["stasheff_at_t1_super_catalan"]
    assert checks["cube_self_inverse_compose"]
    assert checks["invert_cube_equals_cube"]
    assert rep["passed"]
    assert elapsed < 1.0


def test_criterion_09a_left_rule_universal():
    dg = check_dg_rules(6)
    rules = {r["name"]: r for r in dg["rules"]}
    ok = rules["left_plain"]["holds"]
    report("9a", ok, "d(x left y) = dx left y holds for all pairs, arity sum <= 6")
    assert ok, rules["left_plain"]["counterexample"]


def test_criterion_09b_right_rule_with_koszul_sign_universal():
    # The claim d(x right y) = (-1)^{|x|} x right dy cannot hold
    # universally: x right y does not depend on x's subset, the claimed
    # sign does.  This test is the executable defect report: it passes
    # while the discovery harness refutes the signed rule with the
    # counterexample below, and fails if the harness stops refuting it or
    # if the right product starts to depend on x's subset.
    dg = check_dg_rules(6)
    rules = {r["name"]: r for r in dg["rules"]}
    signed, unsigned = rules["right_koszul_signed"], rules["right_unsigned"]
    y = parse_subset_cell("{1,2}@2")
    x_vertex, x_edge = parse_subset_cell("{1}@2"), parse_subset_cell("{1,2}@2")

    def claimed_rhs(x):
        return (-1) ** x.degree * tri_right(x, boundary(y))

    # recomputed here: the claim's residual on the reported pair
    lhs = boundary(tri_right(x_edge, y))
    residual = lhs - claimed_rhs(x_edge)
    ok = not signed["holds"] and not residual.is_zero() and unsigned["holds"]
    report(
        "9b",
        ok,
        "signed right rule refuted; counterexample: "
        f"{signed['counterexample']}, residual {residual} "
        f"(sign-free variant holds on {unsigned['checked']} pairs: "
        f"{unsigned['holds']})",
    )
    assert not signed["holds"], "the signed right rule is no longer refuted"
    assert signed["counterexample"] == {
        "x": "{1,2}@2",
        "y": "{1,2}@2",
        "lhs": "- {3}@4 + {4}@4",
        "rhs": "{3}@4 - {4}@4",
    }
    assert str(lhs) == signed["counterexample"]["lhs"]
    assert str(claimed_rhs(x_edge)) == signed["counterexample"]["rhs"]
    assert not residual.is_zero()
    # degrees 0 and 1, one left side, two claimed right sides of opposite
    # sign: no sign rule in |x| can hold
    assert tri_right(x_vertex, y) == tri_right(x_edge, y), "x right y depends on x"
    assert not lhs.is_zero()
    assert claimed_rhs(x_vertex) == -claimed_rhs(x_edge)
    assert not claimed_rhs(x_edge).is_zero()
    assert unsigned["holds"], unsigned["counterexample"]
    assert unsigned["checked"] > 0


def test_criterion_09c_unique_mid_correction_discovered():
    dg = check_dg_rules(6)
    ok = dg["universal_mid_rules"] == ["discovered_mid"] and dg["discovery_passed"]
    rules = {r["name"]: r for r in dg["rules"]}
    report(
        "9c",
        ok,
        f"unique universal mid rule: {dg['universal_mid_rules']} "
        f"({rules['discovered_mid']['statement']})",
    )
    assert dg["universal_mid_rules"] == ["discovered_mid"]
    assert not any(
        r["holds"] for r in dg["rules"] if r["name"].startswith("corrected_mid")
    )
    assert dg["discovery_passed"]


def test_criterion_09d_verbatim_mid_rule_fails_on_generators():
    dg = check_dg_rules(6)
    rules = {r["name"]: r for r in dg["rules"]}
    ok = dg["signed_mid_fails_on_generators"] and not rules["mid_koszul_signed"]["holds"]
    report("9d", ok, f"counterexample: {rules['mid_koszul_signed']['counterexample']}")
    assert ok


def test_criterion_10_star_powers_span_all_trees():
    for n in range(1, 6):
        power = star_power(n)
        trees = enumerate_planar_trees(n + 1)
        assert power == LinComb((t, 1) for t in trees), n
    assert len(star_power(3)) == 11  # the pentagon's cell count
    report("10", True, "a*^n = coefficient-1 sum of all (n+1)-leaf trees, n <= 5")


def test_certify_all_full_aggregate():
    # the CLI-level aggregate at full depth, minus the heavy repeats above
    rep = certify_all("full")
    failing = [name for name, sec in rep["sections"].items() if not sec["passed"]]
    report("aggregate", rep["passed"], f"certify-all --level full; failing: {failing}")
    assert rep["passed"], failing
