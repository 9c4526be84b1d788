"""The operad of simplex cells and the free three-product algebra on them.

The arity-n component is the set of cells of the (n-1)-simplex (nonempty
subsets of {1..n}).  Operadic composition plugs cells into the slots a
cell selects; the three binary products

    x left y   -- keep x's subset             (written  x -| y)
    x right y  -- keep y's subset, shifted    (written  x |- y)
    x mid y    -- union of the two            (written  x -|- y)

make the direct sum over all arities the free algebra on one generator
for the eleven three-product associativity relations checked by
``check_trialgebra_relations``.

``check_dg_rules`` is a discovery harness for how the simplicial boundary
interacts with the three products: it tests several candidate compatibility
rules, reports which hold universally, and gives counterexamples for the
ones that fail.  It never patches a failing rule silently.
"""

from __future__ import annotations

import itertools

from .cells import SubsetCell, compositions, enumerate_subset_cells
from .linear import LinComb, as_lincomb
from .relations import Scheme, check_scheme, require_bound

OPERAD_UNIT = SubsetCell(1, (1,))


# =====================================================================
# operad structure
# =====================================================================


def gamma(outer: SubsetCell, args: "list[SubsetCell] | tuple[SubsetCell, ...]") -> SubsetCell:
    """Operadic composition: plug one cell per slot of ``outer``.

    Needs exactly ``outer.arity`` arguments; the result keeps the
    arguments sitting in the slots ``outer`` selects, with vertex numbers
    shifted past the earlier slots.
    """
    args = tuple(args)
    if len(args) != outer.arity:
        raise ValueError(
            f"gamma needs {outer.arity} arguments for {outer}, got {len(args)}"
        )
    offsets = [0] * (outer.arity + 1)
    for j, a in enumerate(args, start=1):
        offsets[j] = offsets[j - 1] + a.arity
    total = offsets[-1]
    elems: list[int] = []
    for j in outer.elements:
        elems.extend(e + offsets[j - 1] for e in args[j - 1].elements)
    return SubsetCell(total, tuple(elems))


def check_operad_axioms(max_arity: int) -> dict:
    """Exhaustive associativity + unit check for all composites of total
    arity (arity of the composed operation) up to ``max_arity``."""
    require_bound(max_arity, 1, "composite")
    unit_cases = 0
    assoc_cases = 0
    first_failure = None

    for n in range(1, max_arity + 1):
        for x in enumerate_subset_cells(n):
            if gamma(x, [OPERAD_UNIT] * n) != x or gamma(OPERAD_UNIT, [x]) != x:
                first_failure = first_failure or {"kind": "unit", "x": x.literal()}
            unit_cases += 2

    for total in range(1, max_arity + 1):
        for mid_arity in range(1, total + 1):
            for inner_arities in compositions(total, mid_arity):
                inner_bases = [enumerate_subset_cells(k) for k in inner_arities]
                for n in range(1, mid_arity + 1):
                    for outer_arities in compositions(mid_arity, n):
                        blocks = []
                        start = 0
                        for size in outer_arities:
                            blocks.append((start, start + size))
                            start += size
                        mid_bases = [enumerate_subset_cells(i) for i in outer_arities]
                        for x in enumerate_subset_cells(n):
                            for ys in itertools.product(*mid_bases):
                                xy = gamma(x, ys)
                                for zs in itertools.product(*inner_bases):
                                    lhs = gamma(xy, zs)
                                    rhs = gamma(
                                        x,
                                        [
                                            gamma(ys[j], zs[a:b])
                                            for j, (a, b) in enumerate(blocks)
                                        ],
                                    )
                                    assoc_cases += 1
                                    if lhs != rhs and first_failure is None:
                                        first_failure = {
                                            "kind": "associativity",
                                            "x": x.literal(),
                                            "ys": [y.literal() for y in ys],
                                            "zs": [z.literal() for z in zs],
                                            "lhs": lhs.literal(),
                                            "rhs": rhs.literal(),
                                        }
    return {
        "passed": first_failure is None,
        "max_arity": max_arity,
        "unit_cases": unit_cases,
        "associativity_cases": assoc_cases,
        "first_failure": first_failure,
    }


# =====================================================================
# the three products
# =====================================================================


def left_cell(x: SubsetCell, y: SubsetCell) -> SubsetCell:
    """x -| y : keep x's subset inside the juxtaposed vertex set."""
    return SubsetCell(x.arity + y.arity, x.elements)


def right_cell(x: SubsetCell, y: SubsetCell) -> SubsetCell:
    """x |- y : keep y's subset, shifted past x."""
    return SubsetCell(x.arity + y.arity, tuple(e + x.arity for e in y.elements))


def mid_cell(x: SubsetCell, y: SubsetCell) -> SubsetCell:
    """x -|- y : union of x's subset and y's shifted subset."""
    return SubsetCell(
        x.arity + y.arity,
        x.elements + tuple(e + x.arity for e in y.elements),
    )


CELL_OPS = {"left": left_cell, "right": right_cell, "mid": mid_cell}


def _bilinear(cell_fn):
    def op(x, y) -> LinComb:
        xs, ys = as_lincomb(x), as_lincomb(y)
        return LinComb(
            (cell_fn(bx, by), cx * cy) for bx, cx in xs for by, cy in ys
        )
    return op


tri_left = _bilinear(left_cell)
tri_right = _bilinear(right_cell)
tri_mid = _bilinear(mid_cell)

TRI_OPS = {"left": tri_left, "right": tri_right, "mid": tri_mid}


# Each row reads  (x a y) b z == x c (y d z)  as (a, b, c, d).
TRIALGEBRA_RELATIONS: list[tuple[str, str, str, str]] = [
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

TRIALGEBRA_SCHEME = Scheme(
    generators=("left", "right", "mid"),
    ops=CELL_OPS,
    rows=tuple(TRIALGEBRA_RELATIONS),
    sum_symbol=None,
    basis=enumerate_subset_cells,
    min_size=1,
)


def check_trialgebra_relations(max_arity: int) -> dict:
    """All eleven relations on every basis-cell triple with arity sum <= max."""
    per_relation, triples = check_scheme(TRIALGEBRA_SCHEME, max_arity)
    return {
        "passed": all(e["holds"] for e in per_relation),
        "max_arity": max_arity,
        "triples_checked": triples,
        "relations": per_relation,
    }


# =====================================================================
# simplicial boundary and the boundary/product compatibility harness
# =====================================================================


def boundary_cell(x: SubsetCell) -> LinComb:
    """Alternating sum over one-element deletions; empty results dropped."""
    elems = x.elements
    if len(elems) == 1:
        return LinComb()
    return LinComb(
        (SubsetCell(x.arity, elems[:r] + elems[r + 1 :]), (-1) ** r)
        for r in range(len(elems))
    )


def boundary(x) -> LinComb:
    return LinComb(
        (b, coeff * c) for cell, coeff in as_lincomb(x) for b, c in boundary_cell(cell)
    )


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def _dg_rule_variants():
    """Candidate boundary/product rules tested by check_dg_rules.

    Each evaluator takes basis cells (x, y) and returns (lhs, rhs).
    |x| is the cell degree throughout.
    """

    def left_plain(x, y):
        return boundary(left_cell(x, y)), tri_left(boundary_cell(x), y)

    def right_koszul_signed(x, y):
        return (
            boundary(right_cell(x, y)),
            _sign(x.degree) * tri_right(x, boundary_cell(y)),
        )

    def mid_core(x, y, mid_sign):
        return tri_mid(boundary_cell(x), y) + mid_sign * tri_mid(x, boundary_cell(y))

    def mid_koszul_signed(x, y):
        return boundary(mid_cell(x, y)), mid_core(x, y, _sign(x.degree))

    def corrected_mid(e1, e2):
        def rule(x, y):
            rhs = (
                mid_core(x, y, _sign(x.degree))
                + e1 * LinComb.single(right_cell(x, y))
                + e2 * LinComb.single(left_cell(x, y))
            )
            return boundary(mid_cell(x, y)), rhs
        return rule

    def right_unsigned(x, y):
        return boundary(right_cell(x, y)), tri_right(x, boundary_cell(y))

    def discovered_mid(x, y):
        s = _sign(x.degree + 1)
        rhs = mid_core(x, y, s)
        if x.degree == 0:
            rhs = rhs + LinComb.single(right_cell(x, y))
        if y.degree == 0:
            rhs = rhs + s * LinComb.single(left_cell(x, y))
        return boundary(mid_cell(x, y)), rhs

    variants = [
        ("left_plain", "d(x left y) = dx left y", left_plain),
        ("right_koszul_signed", "d(x right y) = (-1)^|x| x right dy", right_koszul_signed),
        ("mid_koszul_signed", "d(x mid y) = dx mid y + (-1)^|x| x mid dy", mid_koszul_signed),
    ]
    for e1, e2 in [(1, -1), (1, 1), (-1, 1), (-1, -1)]:
        name = f"corrected_mid(e1={e1:+d},e2={e2:+d})"
        stmt = (
            "d(x mid y) = dx mid y + (-1)^|x| x mid dy "
            f"{'+' if e1 > 0 else '-'} x right y {'+' if e2 > 0 else '-'} x left y"
        )
        variants.append((name, stmt, corrected_mid(e1, e2)))
    variants.append(("right_unsigned", "d(x right y) = x right dy", right_unsigned))
    variants.append(
        (
            "discovered_mid",
            "d(x mid y) = dx mid y + (-1)^(|x|+1) x mid dy"
            " + [|x|=0] x right y + (-1)^(|x|+1) [|y|=0] x left y",
            discovered_mid,
        )
    )
    return variants


def check_dg_rules(max_arity: int) -> dict:
    """Test every candidate boundary/product rule on all basis-cell pairs
    with arity sum <= max_arity and report which hold universally.

    Candidates: the plain left rule, the right and mid rules carrying the
    classical Koszul sign (-1)^|x|, the four constant-correction variants
    of the signed mid rule, the sign-free right rule, and the degree-gated
    mid rule the discovery run certifies.  Failures come with the first
    counterexample.
    """
    require_bound(max_arity, 2, "cell pair")
    variants = _dg_rule_variants()
    results = [
        {"name": name, "statement": stmt, "holds": True, "checked": 0, "counterexample": None}
        for name, stmt, _ in variants
    ]
    pairs = 0
    for p in range(1, max_arity):
        for q in range(1, max_arity - p + 1):
            for x in enumerate_subset_cells(p):
                for y in enumerate_subset_cells(q):
                    pairs += 1
                    for (_, _, fn), entry in zip(variants, results):
                        lhs, rhs = fn(x, y)
                        entry["checked"] += 1
                        if lhs != rhs and entry["holds"]:
                            entry["holds"] = False
                            entry["counterexample"] = {
                                "x": x.literal(),
                                "y": y.literal(),
                                "lhs": str(lhs),
                                "rhs": str(rhs),
                            }
    by_name = {e["name"]: e for e in results}
    gen = SubsetCell(1, (1,))
    gen_lhs, gen_rhs = _dg_rule_variants()[2][2](gen, gen)
    mid_variants = [e for e in results if "mid" in e["name"]]
    universal_mid = [e["name"] for e in mid_variants if e["holds"]]
    return {
        "max_arity": max_arity,
        "grading": "cell degree",
        "pairs_checked": pairs,
        "rules": results,
        "signed_mid_fails_on_generators": gen_lhs != gen_rhs,
        "universal_mid_rules": universal_mid,
        "discovery_passed": (
            by_name["left_plain"]["holds"]
            and by_name["right_unsigned"]["holds"]
            and by_name["discovered_mid"]["holds"]
            and universal_mid == ["discovered_mid"]
        ),
    }
