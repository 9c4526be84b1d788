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

Each basis product has one definition: ``_prec``, ``_succ``, ``_mid`` and
``_star`` are cached functions of two trees that return the tuple of their
distinct result trees.  Every basis product has coefficient 1 and no
repeated term (prec, succ and mid results differ in root arity or in the
leaf count of the first child), and ``_star`` is the concatenation of the
three.  Grafting (``cells.graft_each``) under a fixed head and tail is
injective on interned trees, so the terms of ``_star`` stay distinct.

A sum of basis products is therefore a multiset of trees.  The relation
schemes run on multisets in no fixed order (``_multiset``: a tree times a
tree or a 1-tuple is the cached tuple itself), compare them with
``_same_multiset`` and build no ``LinComb``; ``render`` writes a multiset
as the ``LinComb`` it stands for.

The public ``prec``/``succ``/``mid``/``star`` are bilinear sums over the
same tuples: they read the term dicts of their arguments (a bare tree
counts as one term) and add every coefficient product into one dict,
wrapped once with the internal ``LinComb._of``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, product, repeat, starmap

from .cells import LEAF, PlanarTree, enumerate_planar_trees, graft, graft_each
from .linear import LinComb, rank
from .relations import Scheme, check_scheme, require_bound

GENERATOR = graft((LEAF, LEAF))


# =====================================================================
# products on basis trees
# =====================================================================


@lru_cache(maxsize=None)
def _prec(x: PlanarTree, y: PlanarTree) -> tuple:
    parts = x.children
    return graft_each(parts[:-1], _star(parts[-1], y), ())


@lru_cache(maxsize=None)
def _succ(x: PlanarTree, y: PlanarTree) -> tuple:
    parts = y.children
    return graft_each((), _star(x, parts[0]), parts[1:])


@lru_cache(maxsize=None)
def _mid(x: PlanarTree, y: PlanarTree) -> tuple:
    xp, yp = x.children, y.children
    return graft_each(xp[:-1], _star(xp[-1], yp[0]), yp[1:])


@lru_cache(maxsize=None)
def _star(x: PlanarTree, y: PlanarTree) -> tuple:
    # the one-leaf tree is the unit of star (and only of star)
    if x.is_leaf:
        return (y,)
    if y.is_leaf:
        return (x,)
    return _prec(x, y) + _succ(x, y) + _mid(x, y)


BASIS_OPS = {"prec": _prec, "succ": _succ, "mid": _mid, "star": _star}


def _bilinear(basis_op, allow_leaf: bool):
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
            return LinComb._of(dict.fromkeys(basis_op(bx, by), cx * cy))
        d: dict = {}
        for bx, cx in xs.items():
            for by, cy in ys.items():
                c = cx * cy
                for t in basis_op(bx, by):
                    s = d.get(t, 0) + c
                    if s:
                        d[t] = s
                    else:  # c != 0, so t was in d
                        del d[t]
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


def _multiset(basis_op):
    """``basis_op`` summed over a tree or a tuple of trees on either side:
    on two trees, or a tree and a 1-tuple, the cached tuple itself, else a
    flat tuple of the result trees, repeats kept, unsorted."""

    def op(x, y) -> tuple:
        if isinstance(x, PlanarTree):
            if isinstance(y, PlanarTree):
                return basis_op(x, y)
            if len(y) == 1:
                return basis_op(x, y[0])
            terms = map(basis_op, repeat(x), y)
        elif isinstance(y, PlanarTree):
            if len(x) == 1:
                return basis_op(x[0], y)
            terms = map(basis_op, x, repeat(y))
        else:
            terms = starmap(basis_op, product(x, y))
        # a tuple grown from an iterator would, once freed, fill the
        # interpreter's tuple free lists; one made from a list does not
        return tuple([*chain.from_iterable(terms)])

    return op


def _same_multiset(lhs: tuple, rhs: tuple) -> bool:
    """Whether two tuples of trees are one multiset: as sets if they have
    one length and ``lhs`` repeats no tree, else by exact counts."""
    if len(lhs) != len(rhs):
        return False
    trees = set(lhs)
    if len(trees) == len(lhs):
        return trees == set(rhs)
    return Counter(lhs) == Counter(rhs)


def _render(v) -> str:
    """A tree, or a multiset of trees written as the LinComb it stands for."""
    return str(v) if isinstance(v, PlanarTree) else str(LinComb((t, 1) for t in v))


# Every basis product has coefficient 1, so a sum of them is a multiset of
# trees.
DENDRIFORM_SCHEME = Scheme(
    generators=("prec", "succ", "mid"),
    ops={name: _multiset(fn) for name, fn in BASIS_OPS.items()},
    rows=tuple(DENDRIFORM_RELATIONS),
    sum_symbol="star",
    basis=enumerate_planar_trees,
    min_size=2,
    render=_render,
    same=_same_multiset,
)

# associativity of star is the single row (star, star, star, star)
STAR_SCHEME = DENDRIFORM_SCHEME._replace(rows=(("star",) * 4,))


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
    require_bound(max_weight, 1, "weight")
    products: dict[int, list[LinComb]] = {1: [LinComb.single(GENERATOR)]}
    for m in range(2, max_weight + 1):
        vecs = []
        for p in range(1, m):
            for u, v in product(products[p], products[m - p]):
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
