"""Relation schemes and the one exhaustive harness that checks them.

Each side of the dual pair is three binary generators and rows (a, b, c, d)
standing for  (x a y) b z = x c (y d z).  ``check_scheme`` checks the rows
of a ``Scheme`` on basis triples, one (p, q) block of sizes at a time;
``duality`` turns the same rows into weight-2 relation vectors.
``require_bound`` refuses a bound that admits no case, and
``check_cases`` counts the cases each exhaustive check visits at a bound
without running it, as coefficients of composed counting series.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .cells import cell_count
from .series import _compose


class Scheme(
    namedtuple(
        "Scheme",
        "generators ops rows sum_symbol basis min_size render same",
        defaults=(str, operator.eq),
    )
):
    """One side of the dual pair.  ``generators`` are in duality order;
    ``ops`` maps every symbol of ``rows`` to its product on basis elements
    (the outer products must accept the inner results); ``sum_symbol``
    names the sum of the three generators, if the rows use it; sizes of
    ``basis(k)`` start at ``min_size``; ``render`` writes a basis element
    or a product for a counterexample; ``same`` compares two products.
    """

    __slots__ = ()


def relation_statement(rel: tuple[str, str, str, str]) -> str:
    a, b, c, d = rel
    return f"(x {a} y) {b} z = x {c} (y {d} z)"


def require_bound(bound: int, least: int, what: str) -> None:
    """Refuse a bound that admits nothing to check: zero cases never pass."""
    if bound < least:
        raise ValueError(f"bound {bound} admits no {what}; the smallest valid bound is {least}")


def check_scheme(scheme: Scheme, bound: int) -> tuple[list[dict], int]:
    """Every row of ``scheme`` on every basis triple with sizes
    >= ``scheme.min_size`` summing to <= ``bound``.  Returns one {relation,
    holds, counterexample} entry per row, the counterexample being the
    first failing triple in the order p, q, x, y, z, and the triple count.

    A row is checked once per (p, q) block: every (x a y) and (y d z) of
    the block is computed once per inner symbol, and both sides of a row
    are lists over the block's triples in (x, y, z) order.  A row passes
    the block if the lists are equal or agree under ``same`` item by item;
    else its first disagreeing index is decoded into (x, y, z).  The first
    failure of a row is kept, and a row that has failed is not checked
    again.
    """
    ops, m, render, same = scheme.ops, scheme.min_size, scheme.render, scheme.same
    require_bound(bound, 3 * m, "basis triple")
    inner_left = {rel[0] for rel in scheme.rows}
    inner_right = {rel[3] for rel in scheme.rows}
    failures: dict[int, dict] = {}
    triples = 0
    for p in range(m, bound - 2 * m + 1):
        xs = scheme.basis(p)
        for q in range(m, bound - p - m + 1):
            ys = scheme.basis(q)
            zs = [z for r in range(m, bound - p - q + 1) for z in scheme.basis(r)]
            xy = {a: [ops[a](x, y) for x in xs for y in ys] for a in inner_left}
            yz = {d: [ops[d](y, z) for y in ys for z in zs] for d in inner_right}
            triples += len(xs) * len(ys) * len(zs)
            for i, (a, b, c, d) in enumerate(scheme.rows):
                if i in failures:
                    continue
                outer_left, outer_right = ops[b], ops[c]
                lhs = [outer_left(v, z) for v in xy[a] for z in zs]
                rhs = [outer_right(x, w) for x in xs for w in yz[d]]
                if lhs == rhs or all(map(same, lhs, rhs)):
                    continue
                k = [*map(same, lhs, rhs)].index(False)
                ixy, iz = divmod(k, len(zs))
                ix, iy = divmod(ixy, len(ys))
                # the first failure is kept; the skip above only saves work
                failures.setdefault(
                    i,
                    {
                        "x": render(xs[ix]),
                        "y": render(ys[iy]),
                        "z": render(zs[iz]),
                        "lhs": render(lhs[k]),
                        "rhs": render(rhs[k]),
                    },
                )
    entries = [
        {
            "relation": relation_statement(rel),
            "holds": i not in failures,
            "counterexample": failures.get(i),
        }
        for i, rel in enumerate(scheme.rows)
    ]
    return entries, triples


def check_cases(check: str, bound: int) -> int:
    """The cases an exhaustive check visits at ``bound``, counted without
    running it (the symbolic method: Flajolet and Sedgewick 2009,
    *Analytic Combinatorics*, ch. I).  With C = sum c_k x^k, c_k the basis
    elements of size k a check visits (subset cells of arity k, or planar
    trees with k >= 2 leaves, from ``cells.cell_count``), the cases up to
    ``bound`` are the coefficients up to x^bound of: C^3 for the basis
    triples of ``trialgebra_relations`` and ``dendriform_relations`` (star
    associativity visits the same), C^2 for the cell pairs of
    ``dg_rules``, and C(C(C)) for the (x; ys; zs) associativity cases of
    ``operad_axioms``, plus its 2 sum C unit cases.  All are read from
    ``series._compose``; C^k is x^k composed with C.  The count takes
    about bound^3 steps; every check visits at least 2^(bound - 6) cases,
    so a caller can refuse a huge bound before counting."""
    if check not in ("trialgebra_relations", "dendriform_relations", "dg_rules", "operad_axioms"):
        raise ValueError(f"unknown check {check!r}")
    top = max(bound, 0)
    family, least = ("tree", 2) if check == "dendriform_relations" else ("subset", 1)
    c = [cell_count(family, k - least + 1) if k >= least else 0 for k in range(top + 1)]
    if check == "operad_axioms":
        return 2 * sum(c) + sum(_compose(_compose(c, c, top), c, top))
    k = 2 if check == "dg_rules" else 3
    return sum(_compose([int(i == k) for i in range(top + 1)], c, top))
