"""The free three-product algebra on planar trees.

Trees with n+1 leaves form the arity-n component; the three products

    x prec y   -- y is absorbed into x's last branch     (x < y)
    x succ y   -- x is absorbed into y's first branch    (x > y)
    x mid y    -- both melt into a common root           (x . y)

are defined by a mutual recursion through their sum ``star`` (x * y),
with the one-leaf tree acting as a unit for ``star`` only.  ``star`` is
associative; the seven relations among prec/succ/mid are checked by
``check_dendriform_relations``.

Arity is additive: leaves(x op y) = leaves(x) + leaves(y) - 1.

The products build no throwaway objects: ``prec``/``succ``/``mid``/``star``
read the term dicts of their arguments (a bare tree counts as one term),
add every coefficient product into one dict (``linear._add_into``) and
wrap it once with the internal ``LinComb._of``.  A product of two single
terms whose coefficients multiply to 1 is the cached basis product itself
(a ``LinComb`` is immutable, so sharing it is safe).  ``_star`` merges the
three cached basis products into one dict, and ``_graft_star`` builds its
dict in one comprehension: grafting under a fixed head and tail is
injective on interned trees, so no two terms collide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import lru_cache

from .cells import LEAF, PlanarTree, decompose, enumerate_planar_trees, graft
from .linear import LinComb, _add_into, rank
from .relations import Scheme, check_scheme

GENERATOR = graft((LEAF, LEAF))


# =====================================================================
# products on basis trees
# =====================================================================


def _graft_star(head: tuple, x: PlanarTree, y: PlanarTree, tail: tuple) -> LinComb:
    """Graft head, each term of x * y, tail under one root."""
    return LinComb._of({graft(head + (t,) + tail): c for t, c in _star(x, y)._terms.items()})


@lru_cache(maxsize=None)
def _prec(x: PlanarTree, y: PlanarTree) -> LinComb:
    parts = decompose(x)
    return _graft_star(parts[:-1], parts[-1], y, ())


@lru_cache(maxsize=None)
def _succ(x: PlanarTree, y: PlanarTree) -> LinComb:
    parts = decompose(y)
    return _graft_star((), x, parts[0], parts[1:])


@lru_cache(maxsize=None)
def _mid(x: PlanarTree, y: PlanarTree) -> LinComb:
    xp, yp = decompose(x), decompose(y)
    return _graft_star(xp[:-1], xp[-1], yp[0], yp[1:])


def _star(x: PlanarTree, y: PlanarTree) -> LinComb:
    # the one-leaf tree is the unit of star (and only of star)
    if x.is_leaf:
        return LinComb._of({y: 1})
    if y.is_leaf:
        return LinComb._of({x: 1})
    d = dict(_prec(x, y)._terms)
    _add_into(d, _succ(x, y)._terms)
    _add_into(d, _mid(x, y)._terms)
    return LinComb._of(d)


def _bilinear(tree_fn, allow_leaf: bool):
    def op(x, y) -> LinComb:
        xs = x._terms if isinstance(x, LinComb) else {x: 1}
        ys = y._terms if isinstance(y, LinComb) else {y: 1}
        # a leaf is rejected whenever it would meet a partner
        if not allow_leaf and xs and ys and (LEAF in xs or LEAF in ys):
            raise ValueError(
                "the one-leaf tree is a unit for star only, "
                "not an argument of prec/succ/mid"
            )
        if len(xs) == 1 and len(ys) == 1:
            ((bx, cx),), ((by, cy),) = xs.items(), ys.items()
            if cx * cy == 1:
                return tree_fn(bx, by)
        d: dict = {}
        for bx, cx in xs.items():
            for by, cy in ys.items():
                _add_into(d, tree_fn(bx, by)._terms, cx * cy)
        return LinComb._of(d)

    return op


prec = _bilinear(_prec, allow_leaf=False)
succ = _bilinear(_succ, allow_leaf=False)
mid = _bilinear(_mid, allow_leaf=False)
star = _bilinear(_star, allow_leaf=True)

DEND_OPS = {"prec": prec, "succ": succ, "mid": mid, "star": star}


def _spine(t: PlanarTree, side: int) -> int:
    """Internal vertices on the path from the root through the children at
    position ``side`` (-1: rightmost path, 0: leftmost path)."""
    n = 0
    while t.children:
        n += 1
        t = t.children[side]
    return n


def star_term_count(x: PlanarTree, y: PlanarTree) -> int:
    """The number of terms of star(x, y), computed without the product.

    It is the Delannoy number D(r, l) = sum_k C(r, k) C(l, k) 2^k, with r
    the internal vertices on x's rightmost path and l those on y's
    leftmost path: the product interleaves the two paths, each vertex pair
    either kept apart (prec, succ) or merged (mid).  prec, succ and mid
    never have more terms.  The tests pin this on every pair of trees
    with at most five leaves each.
    """
    r, l = _spine(x, -1), _spine(y, 0)
    return sum(math.comb(r, k) * math.comb(l, k) * 2**k for k in range(min(r, l) + 1))


def star_power(n: int) -> LinComb:
    """n-fold star power of the two-leaf generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = LinComb.single(GENERATOR)
    for _ in range(n - 1):
        out = star(out, LinComb.single(GENERATOR))
    return out


# =====================================================================
# relation checkers
# =====================================================================

# Each row reads  (x a y) b z == x c (y d z)  as (a, b, c, d).
DENDRIFORM_RELATIONS: list[tuple[str, str, str, str]] = [
    ("prec", "prec", "prec", "star"),
    ("succ", "prec", "succ", "prec"),
    ("star", "succ", "succ", "succ"),
    ("succ", "mid", "succ", "mid"),
    ("prec", "mid", "mid", "succ"),
    ("mid", "prec", "mid", "prec"),
    ("mid", "mid", "mid", "mid"),
]

DENDRIFORM_SCHEME = Scheme(
    generators=("prec", "succ", "mid"),
    ops=DEND_OPS,
    rows=tuple(DENDRIFORM_RELATIONS),
    sum_symbol="star",
    basis=enumerate_planar_trees,
    min_size=2,
)

# associativity of star is the single row (star, star, star, star)
STAR_SCHEME = replace(DENDRIFORM_SCHEME, rows=(("star",) * 4,))


def check_dendriform_relations(max_leaves: int) -> dict:
    """All seven relations on every tree triple with leaf sum <= max_leaves."""
    per_relation, triples = check_scheme(DENDRIFORM_SCHEME, max_leaves)
    return {
        "passed": all(e["holds"] for e in per_relation),
        "max_leaves": max_leaves,
        "triples_checked": triples,
        "relations": per_relation,
    }


def star_associativity(max_leaves: int) -> dict:
    """(x*y)*z = x*(y*z) on every tree triple with leaf sum <= max_leaves."""
    (entry,), triples = check_scheme(STAR_SCHEME, max_leaves)
    return {
        "passed": entry["holds"],
        "max_leaves": max_leaves,
        "triples_checked": triples,
        "first_failure": entry["counterexample"],
    }


def check_generator_spans(max_weight: int) -> dict:
    """Iterated prec/succ/mid products of the generator span each arity
    component (dimension = number of trees with weight+1 leaves)."""
    products: dict[int, list[LinComb]] = {1: [LinComb.single(GENERATOR)]}
    for m in range(2, max_weight + 1):
        vecs = []
        for p in range(1, m):
            for u, v in itertools.product(products[p], products[m - p]):
                for op in (prec, succ, mid):
                    vecs.append(op(u, v))
        products[m] = vecs
    per_weight = []
    for m in range(1, max_weight + 1):
        basis = enumerate_planar_trees(m + 1)
        index = {t: i for i, t in enumerate(basis)}
        rows = [{index[t]: c for t, c in vec} for vec in products[m]]
        rk = rank(rows)
        per_weight.append(
            {"weight": m, "rank": rk, "expected": len(basis), "spans": rk == len(basis)}
        )
    return {
        "passed": all(e["spans"] for e in per_weight),
        "max_weight": max_weight,
        "per_weight": per_weight,
    }
