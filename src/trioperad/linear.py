"""Exact linear algebra: linear combinations and rank.

Every coefficient the operads produce is an integer, and ``LinComb``
stores coefficients as given, so products, boundaries and relation
checks run on plain ints.  ``Fraction`` enters only at the edge, through
a non-integer user scalar, which alone imports ``fractions``.
``LinComb._of(d)`` is the internal constructor of the product hot paths:
it takes ownership of a dict with no zero coefficients and wraps it
without a copy, so a product adds all its terms into one dict
(``_add_into``) and builds one ``LinComb``.

``rank`` is the one elimination engine, a fraction-free row reduction:
it reduces each row in turn against the rows kept under their highest
column, cross-multiplying integer rows and dividing each new row by its
gcd.  Entries are ``int`` (a ``Fraction`` or float raises
``TypeError``), and ``rank`` never modifies an input row.  On request it
also hands back its pivot columns, which ``complexes.homology_ranks``
uses to clear the rows of the next boundary matrix down.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
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
        if not isinstance(scalar, int):
            from fractions import Fraction

            scalar = Fraction(scalar)
        if not scalar:
            return LinComb()
        return LinComb._of({b: scalar * c for b, c in self._terms.items()})

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
# rank via sparse fraction-free row reduction
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
    entry raises ``TypeError``.  No input row is modified: every update
    builds a new dict.

    The rows are taken in order and reduced against a table of kept
    rows, one per column (the standard reduction of persistent homology,
    Zomorodian and Carlsson 2005).  While a row r is nonempty, let c be
    its highest column.  If no row is kept under c, r is kept there;
    otherwise, with p the row kept under c, r becomes p_c * r - r_c * p
    divided by its content.  The rank is the number of kept rows.

    If ``pivots`` is a list, the column of each kept row is appended to
    it: rank-many distinct columns, on which the rows have full rank.  A
    kept row has no entry above its own column, so the kept rows
    restricted to these columns are triangular with a nonzero diagonal.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _integer_row(row)
        while r:
            c = max(r)
            p = kept.get(c)
            if p is None:
                kept[c] = r
                if pivots is not None:
                    pivots.append(c)
                break
            pc, rc = p[c], r[c]
            r = {k: pc * v for k, v in r.items()}
            _add_into(r, p, -rc)
            if r:
                g = gcd(*r.values())
                if g > 1:
                    r = {k: v // g for k, v in r.items()}
    return len(kept)
