"""Relation schemes and the one exhaustive harness that checks them.

Each side of the dual pair is three binary generators and rows (a, b, c, d)
standing for  (x a y) b z = x c (y d z).  ``check_scheme`` checks the rows
of a ``Scheme`` on basis triples; ``duality`` turns the same rows into
weight-2 relation vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Scheme:
    """One side of the dual pair.  ``generators`` are in duality order;
    ``ops`` maps every symbol of ``rows`` to its product on basis elements
    (the outer products must accept the inner results); ``sum_symbol``
    names the sum of the three generators, if the rows use it; sizes of
    ``basis(k)`` start at ``min_size``.
    """

    generators: tuple[str, str, str]
    ops: dict[str, Callable]
    rows: tuple[tuple[str, str, str, str], ...]
    sum_symbol: str | None
    basis: Callable[[int], list]
    min_size: int


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
    once per pair and each (y d z) once per triple.
    """
    rows, ops, m = scheme.rows, scheme.ops, scheme.min_size
    require_bound(bound, 3 * m, "basis triple")
    entries = [
        {"relation": relation_statement(rel), "holds": True, "counterexample": None}
        for rel in rows
    ]
    inner_left = {rel[0] for rel in rows}
    inner_right = {rel[3] for rel in rows}
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
                        for (a, b, c, d), entry in zip(rows, entries):
                            lhs = ops[b](xy[a], z)
                            rhs = ops[c](x, yz[d])
                            if lhs != rhs and entry["holds"]:
                                entry["holds"] = False
                                entry["counterexample"] = {
                                    "x": str(x),
                                    "y": str(y),
                                    "z": str(z),
                                    "lhs": str(lhs),
                                    "rhs": str(rhs),
                                }
    return entries, triples
