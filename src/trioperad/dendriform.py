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
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import lru_cache

from .cells import LEAF, PlanarTree, decompose, enumerate_planar_trees, graft
from .linear import LinComb, as_lincomb, rank
from .relations import Scheme, check_scheme

GENERATOR = graft((LEAF, LEAF))


# =====================================================================
# products on basis trees
# =====================================================================


def _graft_star(head: tuple, x: PlanarTree, y: PlanarTree, tail: tuple) -> LinComb:
    """Graft head, each term of x * y, tail under one root."""
    return LinComb((graft(head + (t,) + tail), c) for t, c in _star(x, y))


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
        return LinComb.single(y)
    if y.is_leaf:
        return LinComb.single(x)
    return _prec(x, y) + _succ(x, y) + _mid(x, y)


def _bilinear(tree_fn, allow_leaf: bool):
    def op(x, y) -> LinComb:
        xs, ys = as_lincomb(x), as_lincomb(y)
        # a leaf is rejected whenever it would meet a partner
        if not allow_leaf and xs and ys and any(
            b.is_leaf for b in (*xs.support(), *ys.support())
        ):
            raise ValueError(
                "the one-leaf tree is a unit for star only, "
                "not an argument of prec/succ/mid"
            )
        return LinComb(
            (t, cx * cy * c)
            for bx, cx in xs
            for by, cy in ys
            for t, c in tree_fn(bx, by)
        )

    return op


prec = _bilinear(_prec, allow_leaf=False)
succ = _bilinear(_succ, allow_leaf=False)
mid = _bilinear(_mid, allow_leaf=False)
star = _bilinear(_star, allow_leaf=True)

DEND_OPS = {"prec": prec, "succ": succ, "mid": mid, "star": star}


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
