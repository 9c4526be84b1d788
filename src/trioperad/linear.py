"""Exact linear algebra: linear combinations and rank.

Every coefficient the operads produce is an integer, and ``LinComb``
stores coefficients as given, so products, boundaries and relation
checks run on plain ints.  ``Fraction`` enters only at the edge, through
a non-integer user scalar.  ``rank`` is the one elimination engine:
fraction-free (integer cross-multiplication with per-row gcd reduction
after clearing denominators) with deterministic pivoting.  The pivot row
is the shortest active row, taken from a length heap; the pivot column
is its column held by the fewest rows; a column index finds the rows to
eliminate, so no step scans all active rows.  Entries must be ``int`` or
``Fraction``; the package never produces a float.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

Rational = Fraction


# =====================================================================
# linear combinations
# =====================================================================


class LinComb:
    """Immutable linear combination of hashable basis elements.

    Supports +, -, unary -, scalar multiplication, and iteration over
    (basis, coefficient) pairs.  Zero coefficients are dropped; the others
    are stored as given (ints stay ints).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: "Mapping | Iterable[tuple] | None" = None):
        d: dict = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for basis, coeff in items:
                c = d.get(basis, 0) + coeff
                if c:
                    d[basis] = c
                elif basis in d:
                    del d[basis]
        self._terms = d

    @classmethod
    def single(cls, basis: Hashable, coeff=1) -> "LinComb":
        return cls([(basis, coeff)])

    def items(self):
        return self._terms.items()

    def coeff(self, basis: Hashable):
        return self._terms.get(basis, 0)

    def support(self):
        return self._terms.keys()

    def is_zero(self) -> bool:
        return not self._terms

    def map_basis(self, fn) -> "LinComb":
        """Apply fn to every basis element (collecting collisions)."""
        return LinComb((fn(b), c) for b, c in self._terms.items())

    def __add__(self, other: "LinComb") -> "LinComb":
        d = dict(self._terms)
        for b, c in other._terms.items():
            s = d.get(b, 0) + c
            if s:
                d[b] = s
            elif b in d:
                del d[b]
        out = LinComb()
        out._terms = d
        return out

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        out = LinComb()
        out._terms = {b: -c for b, c in self._terms.items()}
        return out

    def __rmul__(self, scalar) -> "LinComb":
        # the user-scalar edge: ints stay exact ints, anything else
        # (0.5 included) becomes the exact Fraction it denotes
        s = scalar if isinstance(scalar, int) else Fraction(scalar)
        if not s:
            return LinComb()
        out = LinComb()
        out._terms = {b: s * c for b, c in self._terms.items()}
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for b, c in sorted(self._terms.items(), key=lambda bc: str(bc[0])):
            if c == 1:
                parts.append(f"+ {b}")
            elif c == -1:
                parts.append(f"- {b}")
            elif c > 0:
                parts.append(f"+ {c}*{b}")
            else:
                parts.append(f"- {-c}*{b}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    __repr__ = __str__


def as_lincomb(x) -> LinComb:
    """Coerce a bare basis element to the corresponding LinComb."""
    return x if isinstance(x, LinComb) else LinComb.single(x)


# =====================================================================
# rank via sparse fraction-free elimination
# =====================================================================


def _integer_row(row) -> dict[int, int]:
    """Clear denominators and divide by the content; row scaling keeps rank.

    Entries must be ``int`` or ``Fraction``; anything else (a float
    included) raises ``TypeError``.  Entries that are zero after clearing
    are dropped.
    """
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    entries = []
    denom = 1
    for c, v in items:
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
        elif not isinstance(v, int):
            raise TypeError(
                f"rank entries must be int or Fraction, got {type(v).__name__} {v!r}"
            )
        entries.append((int(c), v))
    ints = {}
    g = 0
    for c, v in entries:
        w = int(v * denom)
        if w:
            ints[c] = w
            g = gcd(g, w)
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def rank(rows: Iterable) -> int:
    """Rank over the rationals of a matrix given as rows.

    Rows may be dense sequences or sparse {column: coefficient} mappings
    with int or Fraction entries.  Fraction-free: rows are cleared to
    integers, elimination uses cross-multiplication, and every updated row
    is reduced by its gcd to control growth.

    Pivot choice is deterministic and no step scans all active rows.  The
    pivot row is the shortest active row (lowest row id on ties), taken
    from a heap of (length, row id) entries; an entry whose row is gone or
    has changed length is skipped.  The pivot column is the pivot row's
    column held by the fewest active rows, then the lowest column.  A
    column index (column -> ids of the active rows holding it) gives those
    counts and the rows to eliminate; each update changes it only for the
    columns a row loses or gains.
    """
    active: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        r = _integer_row(row)
        if r:
            active[rid] = r
            for c in r:
                cols.setdefault(c, set()).add(rid)
    heap = [(len(r), rid) for rid, r in active.items()]
    heapify(heap)
    rk = 0
    while heap:
        length, pid = heappop(heap)
        pivot_row = active.get(pid)
        if pivot_row is None or len(pivot_row) != length:
            continue
        del active[pid]
        pc = min(pivot_row, key=lambda c: (len(cols[c]), c))
        pv = pivot_row[pc]
        rk += 1
        for c in pivot_row:
            cols[c].discard(pid)
        for rid in sorted(cols[pc]):
            r = active[rid]
            rv = r[pc]
            new = {}
            # union of supports: fill-in appears where only the pivot row
            # has an entry
            for c in r.keys() | pivot_row.keys():
                w = r.get(c, 0) * pv - pivot_row.get(c, 0) * rv
                if w:
                    new[c] = w
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            for c in r.keys() - new.keys():
                cols[c].discard(rid)
            for c in new.keys() - r.keys():
                cols.setdefault(c, set()).add(rid)
            if new:
                active[rid] = new
                heappush(heap, (len(new), rid))
            else:
                del active[rid]
    return rk
