"""Quadratic duality certificate for the two three-product operads.

Both operads have three binary generators; their weight-2 components are
spanned by the 18 composites  (outer o1 inner)  and  (outer o2 inner)
(inner product plugged into slot 1 or 2 of the outer one).  The duality
pairing matches the generators positionally::

    left <-> prec      right <-> succ      mid <-> mid

and weighs slot-1 composites with +1 and slot-2 composites with -1.  This
pairing is pinned: it is the paper's, and no other sign convention is
tried, so a scheme that fails under it fails the certificate.
``certify_duality`` verifies that the 11-dimensional relation span of the
simplex-cell algebra and the 7-dimensional relation span of the tree
algebra annihilate each other and are exact orthogonal complements, and
emits the full 11 x 7 pairing matrix as the certificate.
"""

from __future__ import annotations

import json

from .dendriform import DENDRIFORM_SCHEME, STAR_SCHEME
from .linear import rank
from .relations import Scheme, relation_statement
from .trialgebra import TRIALGEBRA_SCHEME

DIMENSION = 18  # 2 slots x 3 outer x 3 inner


def basis_index(slot: int, outer: int, inner: int) -> int:
    """Index of (outer o_slot inner) in the 18-dimensional weight-2 space."""
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    return (slot - 1) * 9 + outer * 3 + inner


def _relation_vector(scheme: Scheme, rel) -> list[int]:
    """(x a y) b z - x c (y d z) as a weight-2 vector.

    LHS composites sit in slot 1 (outer = b, inner = a), RHS in slot 2
    (outer = c, inner = d).  The scheme's sum symbol fans out into all
    three generators.
    """
    a, b, c, d = rel
    vec = [0] * DIMENSION

    def terms(sym):
        if sym == scheme.sum_symbol:
            return range(3)
        return [scheme.generators.index(sym)]

    for outer in terms(b):
        for inner in terms(a):
            vec[basis_index(1, outer, inner)] += 1
    for outer in terms(c):
        for inner in terms(d):
            vec[basis_index(2, outer, inner)] -= 1
    return vec


def relation_vectors(scheme: Scheme) -> list[list[int]]:
    return [_relation_vector(scheme, r) for r in scheme.rows]


def negative_control_scheme() -> Scheme:
    """The simplex-side scheme with relation 8's inner RHS product flipped
    to left: both the pairing and the product check must reject it."""
    rows = list(TRIALGEBRA_SCHEME.rows)
    a, b, c, _ = rows[7]
    rows[7] = (a, b, c, "left")
    return TRIALGEBRA_SCHEME._replace(rows=tuple(rows))


# the pairing weight of each of the 18 coordinates: +1 in slot 1, -1 in slot 2
_SLOT_WEIGHTS = [1] * 9 + [-1] * 9


def duality_pairing(u: list[int], v: list[int]) -> int:
    """Diagonal pairing: slot-1 coordinates weigh +1, slot-2 coordinates
    -1; generators are identified positionally."""
    return sum(w * a * b for w, a, b in zip(_SLOT_WEIGHTS, u, v, strict=True))


def _pairing_matrix(us, vs):
    return [[duality_pairing(u, v) for v in vs] for u in us]


def _complement_matches(tri_vecs, dend_vecs, orthogonal: bool) -> bool:
    """span(dend_vecs) is the whole annihilator of span(tri_vecs), given
    whether the two spans pair to zero (``orthogonal``).

    The annihilator is the kernel of tri_vecs . G (G the diagonal Gram
    matrix of slot weights), of dimension 18 - rank(tri_vecs . G).  A span
    that pairs to zero against tri_vecs and has that dimension is it.
    """
    weighted = [[wi * v for wi, v in zip(_SLOT_WEIGHTS, vec)] for vec in tri_vecs]
    return orthogonal and rank(dend_vecs) == DIMENSION - rank(weighted)


def _associative_diagonal_report(tri_vecs, dend_vecs, rank_dend: int) -> dict:
    """Both operads carry the associative operad on the diagonal.

    ``relations_collapse_to_associativity``: collapsing the generators to
    one product sends every simplex-side relation to bare associativity.
    The vector encoding makes this hold for every row without the sum
    symbol, so it cannot fail for any simplex-side scheme, the negative
    control included.  ``star_associativity_in_relation_span`` carries the
    claim: the relation vector of star associativity lies in the span of
    the seven tree-side relations, of rank ``rank_dend``.
    """
    collapse_ok = all((sum(v[:9]), sum(v[9:])) == (1, -1) for v in tri_vecs)
    in_span = rank_dend == rank(dend_vecs + relation_vectors(STAR_SCHEME))
    return {
        "relations_collapse_to_associativity": collapse_ok,
        "star_associativity_in_relation_span": in_span,
        "passed": collapse_ok and in_span,
    }


def certify_duality() -> dict:
    """Full duality certificate under the pinned pairing; see the module
    docstring.  Includes a negative control: perturbing one relation must
    break orthogonality.  ``hashlib`` is imported here, for the matrix's
    sha256, so that importing the package does not load it.
    """
    import hashlib

    tri_vecs = relation_vectors(TRIALGEBRA_SCHEME)
    dend_vecs = relation_vectors(DENDRIFORM_SCHEME)
    rank_tri = rank(tri_vecs)
    rank_dend = rank(dend_vecs)

    matrix = _pairing_matrix(tri_vecs, dend_vecs)
    orthogonal = all(v == 0 for row in matrix for v in row)

    complement_matches = _complement_matches(tri_vecs, dend_vecs, orthogonal)
    # a diagonal form is nondegenerate iff no weight is zero
    nondegenerate = all(_SLOT_WEIGHTS)

    # negative control: a perturbed relation must pair nonzero somewhere
    perturbed_vecs = relation_vectors(negative_control_scheme())
    control = _pairing_matrix(perturbed_vecs, dend_vecs)
    control_breaks = any(v != 0 for row in control for v in row)

    diagonal = _associative_diagonal_report(tri_vecs, dend_vecs, rank_dend)

    passed = (
        orthogonal
        and rank_tri == 11
        and rank_dend == 7
        and rank_tri + rank_dend == DIMENSION
        and complement_matches
        and nondegenerate
        and control_breaks
        and diagonal["passed"]
    )
    blob = json.dumps(matrix, separators=(",", ":")).encode()
    return {
        "passed": passed,
        "dimension": DIMENSION,
        "pairing_convention": [1, -1],
        "rank_trialgebra_relations": rank_tri,
        "rank_dendriform_relations": rank_dend,
        "orthogonal": orthogonal,
        "pairing_matrix": matrix,
        "pairing_matrix_sha256": hashlib.sha256(blob).hexdigest(),
        "pairing_nondegenerate": nondegenerate,
        "complement_matches": complement_matches,
        "negative_control_breaks": control_breaks,
        "associative_diagonal": diagonal,
        "trialgebra_relations": [relation_statement(r) for r in TRIALGEBRA_SCHEME.rows],
        "dendriform_relations": [relation_statement(r) for r in DENDRIFORM_SCHEME.rows],
    }
