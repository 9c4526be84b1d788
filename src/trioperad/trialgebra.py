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

``gamma`` is a thin wrapper that takes and returns ``SubsetCell``.  The
exhaustive checks run on keys and build a cell only to render a
counterexample; the bilinear products ``tri_left``/``tri_right``/``tri_mid``
(``TRI_OPS``) and ``boundary`` add all their terms into one dict on keys
(``_key_sum`` is the one bilinear loop) and build one cell per distinct
output key.

``check_dg_rules`` is a discovery harness for how the simplicial boundary
interacts with the three products: it tests several candidate compatibility
rules, reports which hold universally, and gives counterexamples for the
ones that fail.  It never patches a failing rule silently.  Each rule of
``DG_RULES`` is data: the product whose boundary is its left side and the
coefficients of its right side in the twelve ``dg_terms``, computed once
per key pair.
"""

from __future__ import annotations

from itertools import accumulate, pairwise, product, repeat

from .cells import (
    SubsetCell,
    cell_of_key,
    compositions,
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
    arity (arity of the composed operation) up to ``max_arity``, on keys.

    Each associativity case (x; ys; zs) compares ((x; ys); zs) with
    (x; (y_1; zs_1), ..., (y_n; zs_n)), both through ``gamma_key``, where
    zs_b is the block of zs that y_b takes.  For each inner arities (of
    the zs), every zs is listed once, and for each outer arities (of the
    ys), every inner composite (y; zs_b), for each y and zs_b of block b,
    is computed once, before the loop over x, which it does not depend
    on.  The left sides are a list over the listed zs per distinct
    (x; ys), filled when that (x; ys) first occurs and kept for the
    current inner arities only; each (x; ys) composes its right sides in
    one pass, compares the two lists, and names a failing case by its
    index into the listed zs.  Cases run x, then ys, then zs, so the
    first failure is the first case in that order.  At arity 6 a block
    lists at most 63 zs, and the check's peak memory stays a few tens of
    kilobytes.
    """
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
                every_zs = list(product(*inner_bases))
                # xy -> [(xy; zs) for zs in every_zs], for these inner arities
                lhs_rows = {}
                for n in range(1, mid_arity + 1):
                    for outer_arities in compositions(mid_arity, n):
                        # inner[b][j][k] = (j-th y of block b; k-th zs_b)
                        inner = [
                            [
                                [gamma_key(y, zb) for zb in product(*inner_bases[i:j])]
                                for y in subset_keys(j - i)
                            ]
                            for i, j in pairwise(accumulate(outer_arities, initial=0))
                        ]
                        mid_bases = [subset_keys(i) for i in outer_arities]
                        for x in subset_keys(n):
                            for ys, rows in zip(product(*mid_bases), product(*inner)):
                                xy = gamma_key(x, ys)
                                lhs_row = lhs_rows.get(xy)
                                if lhs_row is None:
                                    lhs_row = lhs_rows[xy] = [gamma_key(xy, zs) for zs in every_zs]
                                assoc_cases += len(lhs_row)
                                # product(*rows) runs over the zs in the order of every_zs
                                rhs_row = list(map(gamma_key, repeat(x), product(*rows)))
                                if rhs_row != lhs_row and first_failure is None:
                                    k = next(k for k, r in enumerate(rhs_row) if r != lhs_row[k])
                                    first_failure = {
                                        "kind": "associativity",
                                        "x": key_literal(x),
                                        "ys": [key_literal(y) for y in ys],
                                        "zs": [key_literal(z) for z in every_zs[k]],
                                        "lhs": key_literal(lhs_row[k]),
                                        "rhs": key_literal(rhs_row[k]),
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


KEY_OPS = {"left": left_key, "right": right_key, "mid": mid_key}


def _keyed(x) -> list:
    """The (key, coefficient) terms of a LinComb of cells or a bare cell."""
    if isinstance(x, LinComb):
        return [(b.key, c) for b, c in x]
    return [(x.key, 1)]


def _of_keys(d: dict) -> LinComb:
    """The LinComb of cells for a dict of keys with no zero coefficients."""
    return LinComb._of({cell_of_key(k): c for k, c in d.items()})


def _key_sum(key_op, xs, ys) -> dict:
    """The bilinear sum of ``key_op`` over two sequences of (key,
    coefficient) terms, added into one dict on keys with no zero
    coefficients."""
    d: dict = {}
    for kx, cx in xs:
        for ky, cy in ys:
            k = key_op(kx, ky)
            s = d.get(k, 0) + cx * cy
            if s:
                d[k] = s
            elif k in d:
                del d[k]
    return d


def _bilinear(key_op):
    """The bilinear extension of a product on keys: ``_key_sum`` on the
    keys of the two arguments, and only the distinct output keys become
    cells."""
    return lambda x, y: _of_keys(_key_sum(key_op, _keyed(x), _keyed(y)))


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


def boundary(x) -> LinComb:
    """The boundary of a LinComb of cells (or a bare cell), summed into
    one dict on keys."""
    d: dict = {}
    for k, c in _keyed(x):
        _add_into(d, boundary_key(k), c)
    return _of_keys(d)


def dg_terms(x: int, y: int) -> dict[str, dict[int, int]]:
    """The twelve terms the dg rules are written in, at the cell keys x
    and y: ``d(x op y)``, ``dx op y``, ``x op dy`` and ``x op y`` for each
    op in ``KEY_OPS``, each a dict {key: coefficient}."""
    dx, dy = boundary_key(x).items(), boundary_key(y).items()
    terms = {}
    for name, op in KEY_OPS.items():
        xy = op(x, y)
        terms[f"d(x {name} y)"] = boundary_key(xy)
        terms[f"dx {name} y"] = _key_sum(op, dx, ((y, 1),))
        terms[f"x {name} dy"] = _key_sum(op, ((x, 1),), dy)
        terms[f"x {name} y"] = {xy: 1}
    return terms


# Each rule reads (name, statement, op, coefficients): d(x op y) is the sum
# of the ``dg_terms`` named in coefficients(p, q), each times its
# coefficient, with p = |x| and q = |y| the cell degrees.
DG_RULES = [
    ("left_plain", "d(x left y) = dx left y", "left", lambda p, q: {"dx left y": 1}),
    ("right_koszul_signed", "d(x right y) = (-1)^|x| x right dy", "right",
     lambda p, q: {"x right dy": (-1) ** p}),
    ("mid_koszul_signed", "d(x mid y) = dx mid y + (-1)^|x| x mid dy", "mid",
     lambda p, q: {"dx mid y": 1, "x mid dy": (-1) ** p}),
    *[
        (f"corrected_mid(e1={e1:+d},e2={e2:+d})",
         "d(x mid y) = dx mid y + (-1)^|x| x mid dy "
         f"{'+' if e1 > 0 else '-'} x right y {'+' if e2 > 0 else '-'} x left y", "mid",
         lambda p, q, e1=e1, e2=e2: {"dx mid y": 1, "x mid dy": (-1) ** p,
                                     "x right y": e1, "x left y": e2})
        for e1, e2 in [(1, -1), (1, 1), (-1, 1), (-1, -1)]
    ],
    ("right_unsigned", "d(x right y) = x right dy", "right", lambda p, q: {"x right dy": 1}),
    ("discovered_mid", "d(x mid y) = dx mid y + (-1)^(|x|+1) x mid dy"
     " + [|x|=0] x right y + (-1)^(|x|+1) [|y|=0] x left y", "mid",
     lambda p, q: {"dx mid y": 1, "x mid dy": -((-1) ** p),
                   "x right y": int(p == 0), "x left y": -((-1) ** p) * (q == 0)}),
]


def _dg_sides(rule, x: int, y: int, terms: dict) -> tuple[dict, dict]:
    """Both sides of a rule of ``DG_RULES`` at the cell keys x and y, as
    dicts on keys, from ``terms = dg_terms(x, y)``.  A key's degree is
    its bit count less 2 (the arity bit and one element)."""
    _, _, op, coefficients = rule
    rhs: dict = {}
    for term, c in coefficients(x.bit_count() - 2, y.bit_count() - 2).items():
        if c:
            _add_into(rhs, terms[term], c)
    return terms[f"d(x {op} y)"], rhs


def check_dg_rules(max_arity: int) -> dict:
    """Test every rule of ``DG_RULES`` on all basis-cell pairs with arity
    sum <= max_arity, on keys, and report which hold universally.

    Candidates: the plain left rule, the right and mid rules carrying the
    classical Koszul sign (-1)^|x|, the four constant-correction variants
    of the signed mid rule, the sign-free right rule, and the degree-gated
    mid rule the discovery run certifies.  Each pair's terms are computed
    once and dropped after the pair.  A rule that has failed is not
    evaluated again: its counterexample is its first failing pair, the
    only place cells are built, and every rule's ``checked`` is the pair
    count.  ``passed`` requires
    the discovery to pass and the signed mid rule to fail on the
    generators.
    """
    require_bound(max_arity, 2, "cell pair")
    failures: dict[str, dict] = {}
    pairs = 0
    for n in range(1, max_arity):
        for m in range(1, max_arity - n + 1):
            for x in subset_keys(n):
                for y in subset_keys(m):
                    pairs += 1
                    terms = dg_terms(x, y)
                    for rule in DG_RULES:
                        # a failed rule keeps its first failing pair
                        if rule[0] in failures:
                            continue
                        lhs, rhs = _dg_sides(rule, x, y, terms)
                        if lhs != rhs:
                            failures[rule[0]] = {
                                "x": key_literal(x),
                                "y": key_literal(y),
                                "lhs": str(_of_keys(lhs)),
                                "rhs": str(_of_keys(rhs)),
                            }
    holds = {name: name not in failures for name, _, _, _ in DG_RULES}
    results = [
        {"name": name, "statement": stmt, "holds": holds[name], "checked": pairs,
         "counterexample": failures.get(name)}
        for name, stmt, _, _ in DG_RULES
    ]
    signed_mid = next(rule for rule in DG_RULES if rule[0] == "mid_koszul_signed")
    gen_lhs, gen_rhs = _dg_sides(signed_mid, _UNIT_KEY, _UNIT_KEY, dg_terms(_UNIT_KEY, _UNIT_KEY))
    universal_mid = [name for name, _, op, _ in DG_RULES if op == "mid" and holds[name]]
    discovery_passed = (
        holds["left_plain"] and holds["right_unsigned"] and universal_mid == ["discovered_mid"]
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
