"""Relation schemes and the one exhaustive harness that checks them.

Each side of the dual pair is three binary generators and rows (a, b, c, d)
standing for  (x a y) b z = x c (y d z).  ``check_scheme`` checks the rows
of a ``Scheme`` on basis triples; ``duality`` turns the same rows into
weight-2 relation vectors.  ``require_bound`` refuses a bound that admits
no case, and ``check_cases`` counts the cases each exhaustive check visits
at a bound without running it.
"""

from __future__ import annotations

import operator
from collections import namedtuple

from .cells import cell_count


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
    first failing triple, and the triple count.  Each (x a y) is computed
    once per pair and each (y d z) once per triple, a cache hit with no
    new object on the tree side.
    """
    ops, m, render, same = scheme.ops, scheme.min_size, scheme.render, scheme.same
    require_bound(bound, 3 * m, "basis triple")
    entries = [
        {"relation": relation_statement(rel), "holds": True, "counterexample": None}
        for rel in scheme.rows
    ]
    rows = [(a, ops[b], ops[c], d, entry) for (a, b, c, d), entry in zip(scheme.rows, entries)]
    inner_left = {rel[0] for rel in scheme.rows}
    inner_right = {rel[3] for rel in scheme.rows}
    triples = 0
    for p in range(m, bound - 2 * m + 1):
        for q in range(m, bound - p - m + 1):
            zs = [z for r in range(m, bound - p - q + 1) for z in scheme.basis(r)]
            for x in scheme.basis(p):
                for y in scheme.basis(q):
                    xy = {a: ops[a](x, y) for a in inner_left}
                    for z in zs:
                        triples += 1
                        yz = {d: ops[d](y, z) for d in inner_right}
                        for a, outer_left, outer_right, d, entry in rows:
                            lhs = outer_left(xy[a], z)
                            rhs = outer_right(x, yz[d])
                            if not same(lhs, rhs) and entry["holds"]:
                                entry["holds"] = False
                                entry["counterexample"] = {
                                    "x": render(x),
                                    "y": render(y),
                                    "z": render(z),
                                    "lhs": render(lhs),
                                    "rhs": render(rhs),
                                }
    return entries, triples


def _size_counts(family: str, least: int, top: int) -> list[int]:
    """Index k holds the basis elements of size k >= least that a check
    visits: subset cells of arity k, or planar trees with k leaves."""
    shift = 0 if family == "subset" else 1
    return [cell_count(family, k - shift) if k >= least else 0 for k in range(top + 1)]


def _times(a: list[int], b: list[int]) -> list[int]:
    """Product of two count polynomials, cut at the degree of ``a``."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def check_cases(check: str, bound: int) -> int:
    """The cases an exhaustive check visits at ``bound``, counted from
    ``cells.cell_count`` without running it: the basis triples of
    ``trialgebra_relations`` and ``dendriform_relations`` (star
    associativity visits the same), the cell pairs of ``dg_rules``, the
    unit and associativity cases of ``operad_axioms``.  The count takes
    about bound^3 steps; every check visits at least 2^(bound - 6) cases,
    so a caller can refuse a huge bound before counting."""
    top = max(bound, 0)
    if check == "dendriform_relations":
        c = _size_counts("tree", 2, top)
        return sum(_times(c, _times(c, c)))
    c = _size_counts("subset", 1, top)
    if check == "trialgebra_relations":
        return sum(_times(c, _times(c, c)))
    if check == "dg_rules":
        return sum(_times(c, c))
    if check != "operad_axioms":
        raise ValueError(f"unknown check {check!r}")
    # x with its ys of total arity m, times the zs of each total arity
    # <= bound that fill the m slots of (x; ys)
    powers = [[1] + [0] * top]
    for _ in range(top):
        powers.append(_times(powers[-1], c))
    with_ys = [sum(c[n] * powers[n][m] for n in range(top + 1)) for m in range(top + 1)]
    return 2 * sum(c) + sum(with_ys[m] * sum(powers[m]) for m in range(1, top + 1))
