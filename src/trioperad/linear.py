"""Exact linear algebra: linear combinations and rank.

Every coefficient the operads produce is an integer, and ``LinComb``
stores coefficients as given, so products, boundaries and relation
checks run on plain ints.  ``Fraction`` enters only at the edge, through
a non-integer user scalar.  ``LinComb._of(d)`` is the internal
constructor of the product hot paths: it takes ownership of a dict with
no zero coefficients and wraps it without a copy, so a product adds all
its terms into one dict (``_add_into``) and builds one ``LinComb``.

``rank`` is the one elimination engine: fraction-free (cross-multiplying
integer rows, each reduced by its gcd) with deterministic pivoting: the
pivot row is the shortest active row, from a length heap; the pivot
column is its column held by the fewest rows; a column index finds the
rows to eliminate.  An update walks only the pivot row: it copies the
target row and adds to it a multiple of the pivot row, entry by entry.
A pivot of +-1, every pivot of the chain complexes, needs no
cross-multiplication: r - (r_c * p_c) * p is the cross-multiplied row
times p_c, with the same support and content.  Entries are ``int`` (a
``Fraction`` or float raises ``TypeError``), and ``rank`` never modifies
an input row.  On request it also hands back its pivot columns, which
``complexes.homology_ranks`` uses to clear the rows of the next boundary
matrix down.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd


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
    def _of(cls, terms: dict) -> "LinComb":
        """Internal: wrap ``terms`` (no zero coefficients) without copying;
        the LinComb owns the dict from here on."""
        out = object.__new__(cls)
        out._terms = terms
        return out

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

    def __add__(self, other: "LinComb") -> "LinComb":
        d = dict(self._terms)
        _add_into(d, other._terms)
        return LinComb._of(d)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return LinComb._of({b: -c for b, c in self._terms.items()})

    def __rmul__(self, scalar) -> "LinComb":
        # the user-scalar edge: ints stay exact ints, anything else
        # (0.5 included) becomes the exact Fraction it denotes
        s = scalar if isinstance(scalar, int) else Fraction(scalar)
        if not s:
            return LinComb()
        return LinComb._of({b: s * c for b, c in self._terms.items()})

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


def _add_into(d: dict, terms: dict, scale=1) -> None:
    """d += scale * terms, dropping the coefficients that cancel."""
    for b, c in terms.items():
        s = d.get(b, 0) + scale * c
        if s:
            d[b] = s
        elif b in d:
            del d[b]


def as_lincomb(x) -> LinComb:
    """Coerce a bare basis element to the corresponding LinComb."""
    return x if isinstance(x, LinComb) else LinComb.single(x)


# =====================================================================
# rank via sparse fraction-free elimination
# =====================================================================


def _integer_row(row) -> dict:
    """The row as a {column: int} dict with no zero entry and content 1;
    dividing a row by its content keeps the rank.  A dict row already in
    that form is returned itself, not copied."""
    if not isinstance(row, dict):
        # dict() reads any mapping through its keys; other rows are dense
        row = dict(row) if hasattr(row, "keys") else dict(enumerate(row))
    try:
        g = gcd(*row.values())
    except TypeError as exc:
        raise TypeError(f"rank entries must be int: {exc}") from None
    if g == 1 and 0 not in row.values():
        return row
    return {c: v // g for c, v in row.items() if v}


def rank(rows: Iterable, pivots: list | None = None) -> int:
    """Rank over the rationals of a matrix given as rows.

    Rows may be dense sequences or sparse {column: coefficient} dicts
    (or other mappings) with ``int`` entries; a ``Fraction`` or float
    entry raises ``TypeError``.  No row is modified: an update copies the
    target row r and walks the pivot row p once, adding to r where an
    entry appears and deleting where one cancels.  With pivot entry p_c
    = +-1 it subtracts (r_c * p_c) * p, which is the cross-multiplied row
    p_c * r - r_c * p times p_c: the same support and content, so the
    pivots and the rank are those of cross-multiplication, which every
    other pivot uses.  Each new row is reduced by its gcd to control
    growth.

    Pivot choice is deterministic and no step scans all active rows.  The
    pivot row is the shortest active row (lowest row id on ties), taken
    from a heap of (length, row id) entries; an entry whose row is gone or
    has changed length is skipped.  The pivot column is the pivot row's
    column held by the fewest active rows, then the lowest column.  A
    column index (column -> ids of the active rows holding it) gives those
    counts and the rows to eliminate; each update changes it only for the
    pivot-row columns where an entry appears or cancels.

    If ``pivots`` is a list, the pivot column of each step is appended to
    it in pivot order: rank-many distinct columns, on which the rows
    have full rank.  Each pivot row lacks the earlier pivot columns, so
    the reduced pivot rows restricted to them are triangular with a
    nonzero diagonal.
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
        if pivots is not None:
            pivots.append(pc)
        # no row gains column pc from here on: only pivot rows bring new
        # columns, and every later pivot row lacks pc
        holders = cols.pop(pc)
        holders.discard(pid)
        rest = [(c, v) for c, v in pivot_row.items() if c != pc]
        for c, _ in rest:
            cols[c].discard(pid)
        unit = pv == 1 or pv == -1
        # an update adds f times the rest of the pivot row; with entries
        # +-1, f is nearly always +-1, so both are built once per pivot
        neg = [(c, -v) for c, v in rest]
        for rid in sorted(holders):
            r = active[rid]
            rv = r[pc]
            if unit:
                # r - (rv * pv) * pivot_row: the cross-multiplied row times
                # pv, so the same support and content
                new = dict(r)
                f = -rv * pv
            else:
                new = {c: v * pv for c, v in r.items()}
                f = -rv
            del new[pc]
            delta = rest if f == 1 else neg if f == -1 else [(c, f * v) for c, v in rest]
            # only the pivot row's columns change: an entry appears
            # (fill-in) or cancels
            for c, d in delta:
                w = new.get(c)
                if w is None:
                    new[c] = d
                    cols[c].add(rid)
                elif w + d:
                    new[c] = w + d
                else:
                    del new[c]
                    cols[c].discard(rid)
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                active[rid] = new
                heappush(heap, (len(new), rid))
            else:
                del active[rid]
    return rk
