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

Each of composition and the three products has one definition, on cell
keys (``cells.SubsetCell.key``, the int ``mask | 1 << arity``):
``gamma_key``, ``left_key``, ``right_key`` and ``mid_key``.  With p and
q the arities of x and y, the products are

    left  = x ^ 1 << p | 1 << p + q
    right = y << p
    mid   = x ^ 1 << p | y << p

``gamma``, ``left_cell``, ``right_cell`` and ``mid_cell`` are thin
wrappers that take and return ``SubsetCell``.  The exhaustive checks run
on keys and build a cell only to render a counterexample; the bilinear
products ``tri_left``/``tri_right``/``tri_mid`` and ``boundary`` add all
their terms into one dict on keys and build one cell per distinct output
key.

``check_dg_rules`` is a discovery harness for how the simplicial boundary
interacts with the three products: it tests several candidate compatibility
rules, reports which hold universally, and gives counterexamples for the
ones that fail.  It never patches a failing rule silently.
"""

from __future__ import annotations

import itertools

from .cells import (
    SubsetCell,
    cell_of_key,
    compositions,
    enumerate_subset_cells,
    key_literal,
    subset_keys,
)
from .linear import LinComb, _add_into
from .relations import Scheme, check_scheme, require_bound

OPERAD_UNIT = SubsetCell(1, 1)
_UNIT_KEY = OPERAD_UNIT.key


# =====================================================================
# operad structure
# =====================================================================


def gamma_key(outer: int, args: "list[int] | tuple[int, ...]") -> int:
    """Operadic composition on keys: plug one cell per slot of ``outer``.

    Needs exactly one argument per slot; the result ORs the masks of the
    arguments sitting in the slots ``outer`` selects, each shifted past
    the earlier slots.
    """
    if len(args) != outer.bit_length() - 1:
        raise ValueError(
            f"gamma needs {outer.bit_length() - 1} arguments for "
            f"{key_literal(outer)}, got {len(args)}"
        )
    mask = shift = 0
    for a in args:
        p = a.bit_length() - 1
        if outer & 1:
            mask |= (a ^ 1 << p) << shift
        outer >>= 1
        shift += p
    return mask | 1 << shift


def gamma(outer: SubsetCell, args: "list[SubsetCell] | tuple[SubsetCell, ...]") -> SubsetCell:
    """``gamma_key`` on cells: needs exactly ``outer.arity`` arguments."""
    return cell_of_key(gamma_key(outer.key, [a.key for a in args]))


def check_operad_axioms(max_arity: int) -> dict:
    """Exhaustive associativity + unit check for all composites of total
    arity (arity of the composed operation) up to ``max_arity``, on keys."""
    require_bound(max_arity, 1, "composite")
    unit_cases = 0
    assoc_cases = 0
    first_failure = None

    for n in range(1, max_arity + 1):
        units = [_UNIT_KEY] * n
        for x in subset_keys(n):
            if gamma_key(x, units) != x or gamma_key(_UNIT_KEY, [x]) != x:
                first_failure = first_failure or {"kind": "unit", "x": key_literal(x)}
            unit_cases += 2

    for total in range(1, max_arity + 1):
        for mid_arity in range(1, total + 1):
            for inner_arities in compositions(total, mid_arity):
                inner_bases = [subset_keys(k) for k in inner_arities]
                for n in range(1, mid_arity + 1):
                    for outer_arities in compositions(mid_arity, n):
                        blocks = []
                        start = 0
                        for size in outer_arities:
                            blocks.append(slice(start, start + size))
                            start += size
                        mid_bases = [subset_keys(i) for i in outer_arities]
                        for x in subset_keys(n):
                            for ys in itertools.product(*mid_bases):
                                xy = gamma_key(x, ys)
                                yblocks = list(zip(ys, blocks))
                                for zs in itertools.product(*inner_bases):
                                    lhs = gamma_key(xy, zs)
                                    rhs = gamma_key(x, [gamma_key(y, zs[b]) for y, b in yblocks])
                                    assoc_cases += 1
                                    if lhs != rhs and first_failure is None:
                                        first_failure = {
                                            "kind": "associativity",
                                            "x": key_literal(x),
                                            "ys": [key_literal(y) for y in ys],
                                            "zs": [key_literal(z) for z in zs],
                                            "lhs": key_literal(lhs),
                                            "rhs": key_literal(rhs),
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


def left_key(x: int, y: int) -> int:
    """x -| y on keys: keep x's subset inside the juxtaposed vertex set."""
    p = x.bit_length() - 1
    return x ^ 1 << p | 1 << p + y.bit_length() - 1


def right_key(x: int, y: int) -> int:
    """x |- y on keys: keep y's subset, shifted past x."""
    return y << x.bit_length() - 1


def mid_key(x: int, y: int) -> int:
    """x -|- y on keys: union of x's subset and y's shifted subset."""
    p = x.bit_length() - 1
    return x ^ 1 << p | y << p


def left_cell(x: SubsetCell, y: SubsetCell) -> SubsetCell:
    """x -| y : ``left_key`` on cells."""
    return cell_of_key(left_key(x.key, y.key))


def right_cell(x: SubsetCell, y: SubsetCell) -> SubsetCell:
    """x |- y : ``right_key`` on cells."""
    return cell_of_key(right_key(x.key, y.key))


def mid_cell(x: SubsetCell, y: SubsetCell) -> SubsetCell:
    """x -|- y : ``mid_key`` on cells."""
    return cell_of_key(mid_key(x.key, y.key))


KEY_OPS = {"left": left_key, "right": right_key, "mid": mid_key}
CELL_OPS = {"left": left_cell, "right": right_cell, "mid": mid_cell}


def _keyed(x) -> list:
    """The (key, coefficient) terms of a LinComb of cells or a bare cell."""
    if isinstance(x, LinComb):
        return [(b.key, c) for b, c in x]
    return [(x.key, 1)]


def _of_keys(d: dict) -> LinComb:
    """The LinComb of cells for a dict of keys with no zero coefficients."""
    return LinComb._of({cell_of_key(k): c for k, c in d.items()})


def _bilinear(key_op):
    """The bilinear extension of a product on keys: every coefficient
    product goes into one dict on keys, and only the distinct output keys
    become cells."""

    def op(x, y) -> LinComb:
        ys = _keyed(y)
        d: dict = {}
        for kx, cx in _keyed(x):
            for ky, cy in ys:
                k = key_op(kx, ky)
                s = d.get(k, 0) + cx * cy
                if s:
                    d[k] = s
                elif k in d:
                    del d[k]
        return _of_keys(d)

    return op


tri_left = _bilinear(left_key)
tri_right = _bilinear(right_key)
tri_mid = _bilinear(mid_key)

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

# the relations are checked on keys; counterexamples render as literals
TRIALGEBRA_SCHEME = Scheme(
    generators=("left", "right", "mid"),
    ops=KEY_OPS,
    rows=tuple(TRIALGEBRA_RELATIONS),
    sum_symbol=None,
    basis=subset_keys,
    min_size=1,
    render=key_literal,
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


def boundary_key(key: int) -> dict[int, int]:
    """The simplicial boundary on keys, as {key: sign}: the alternating
    sum over one-element deletions, empty results dropped.  Deleting the
    element of rank r (0-based) clears its bit, with sign (-1)^r."""
    rest = key ^ 1 << key.bit_length() - 1
    if rest & (rest - 1) == 0:
        return {}
    terms = {}
    sign = 1
    while rest:
        low = rest & -rest
        terms[key ^ low] = sign
        sign = -sign
        rest ^= low
    return terms


def boundary_cell(x: SubsetCell) -> LinComb:
    """``boundary_key`` on one cell."""
    return _of_keys(boundary_key(x.key))


def boundary(x) -> LinComb:
    """The boundary of a LinComb of cells (or a bare cell), summed into
    one dict on keys."""
    d: dict = {}
    for k, c in _keyed(x):
        _add_into(d, boundary_key(k), c)
    return _of_keys(d)


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
    counterexample.  ``passed`` requires the discovery to pass and the
    signed mid rule to fail on the generators.
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
    signed_mid = {name: fn for name, _, fn in variants}["mid_koszul_signed"]
    gen_lhs, gen_rhs = signed_mid(OPERAD_UNIT, OPERAD_UNIT)
    mid_variants = [e for e in results if "mid" in e["name"]]
    universal_mid = [e["name"] for e in mid_variants if e["holds"]]
    discovery_passed = (
        by_name["left_plain"]["holds"]
        and by_name["right_unsigned"]["holds"]
        and by_name["discovered_mid"]["holds"]
        and universal_mid == ["discovered_mid"]
    )
    signed_mid_fails = gen_lhs != gen_rhs
    return {
        "max_arity": max_arity,
        "grading": "cell degree",
        "pairs_checked": pairs,
        "rules": results,
        "signed_mid_fails_on_generators": signed_mid_fails,
        "universal_mid_rules": universal_mid,
        "discovery_passed": discovery_passed,
        "passed": discovery_passed and signed_mid_fails,
    }
