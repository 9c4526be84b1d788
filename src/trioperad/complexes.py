"""The two weight-graded chain complexes certifying the operads' duality.

For a fixed weight w, level n of either complex is spanned by a
coefficient cell of arity n tensored with n basis factors from the
*other* family's free algebra, with factor weights composing w:

* ``simplex`` family: coefficient = simplex cell of {1..n}, factors =
  planar trees.  Face i merges factors i, i+1 with a product read off the
  membership of i and i+1 in the coefficient subset (mid / prec / succ /
  star), and collapses the subset accordingly.  The two mixed-membership
  rows admit two orientations (which of i, i+1 selects prec); only one
  makes d^2 = 0 -- at n = 3 the seven coefficient cells then reproduce
  exactly the seven tree-algebra relations -- and
  ``simplex_convention_sweep`` pins it.
* ``tree`` family: coefficient = planar tree with n+1 leaves, factors =
  simplex cells.  The n factors sit in the n gaps between consecutive
  leaves, so face i removes the leaf between factors i and i+1 -- leaf
  i+1 -- and multiplies the factors with left / right / mid according to
  that leaf's orientation.

The differential is the alternating face sum d = -sum_i (-1)^i d_i.
The leaf-index/orientation convention for the tree family is pinned by
``face_convention_sweep``, which rebuilds small complexes under every
candidate convention and shows the pinned one is the only candidate with
d^2 = 0 and the right homology.

A face convention is one function ``face(coeff, i)`` returning the face
coefficient and the product that merges factors i, i+1:
``simplex_face`` (``collapse_vertex`` and ``simplex_face_product``) and
``tree_face`` (``remove_leaf`` and ``leaf_orientation`` of leaf i +
offset) build the candidates the sweeps try.  ``face_map`` applies one
face to one element; it defines what ``build_complex`` computes and
serves as the reference in the tests.

``build_complex`` assembles the boundary on integer ids:

* Ids.  Level n is ordered by composition (w_1..w_n) of the weight, then
  coefficient, then factor tuple in ``itertools.product`` order, so the
  element (c; f_1..f_n) has the mixed-radix id
  ``offset[comp] + c * P + sum_k f_k * stride_k``, where c and f_k are
  positions in the coefficient and factor enumerations, P is the product
  of the factor counts and stride_k the product of those after slot k.
* Face table.  Per coefficient and face i, computed once from ``face``:
  the id of the face coefficient and the merging product.
* Product tables.  Per (product, w_i, w_{i+1}), computed once: the
  product of every factor pair as (factor id, coefficient) terms.

Face i of a block then sends the elements with factors a, b in slots i,
i+1 to the product terms t, at fixed prefix and suffix of the other
slots: a boundary row is index arithmetic, and no tuple of cells is
hashed.  ``level_dims`` counts the same levels from the closed-form cell
counts, without building them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .cells import (
    LeafOrientation,
    PlanarTree,
    SubsetCell,
    cell_count,
    compositions,
    enumerate_planar_trees,
    enumerate_subset_cells,
    leaf_orientation,
    remove_leaf,
)
from .dendriform import DEND_OPS
from .linear import LinComb, as_lincomb, rank
from .trialgebra import left_cell, mid_cell, right_cell

SIMPLEX_FAMILY = "simplex"
TREE_FAMILY = "tree"

# Pinned by face_convention_sweep: face i reads leaf i+1 (1-based), and
# orientations map left->left, right->right, middle->mid.
TREE_FACE_LEAF_OFFSET = 1
TREE_FACE_OPS = {
    LeafOrientation.LEFT: left_cell,
    LeafOrientation.RIGHT: right_cell,
    LeafOrientation.MIDDLE: mid_cell,
}
_MIRRORED_OPS = {
    LeafOrientation.LEFT: right_cell,
    LeafOrientation.RIGHT: left_cell,
    LeafOrientation.MIDDLE: mid_cell,
}


# Both tables agree on the unmixed rows: mid when i and i+1 are both in
# the subset, star when neither is.  They differ on which mixed row gets
# prec.  Only SIMPLEX_FACE_TABLE satisfies d^2 = 0 (the sweep shows the
# mirrored table fails already at weight 3).
SIMPLEX_FACE_TABLE = {
    (True, True): "mid",
    (True, False): "prec",
    (False, True): "succ",
    (False, False): "star",
}
_MIRRORED_SIMPLEX_TABLE = {
    (True, True): "mid",
    (True, False): "succ",
    (False, True): "prec",
    (False, False): "star",
}


def simplex_face_product(i: int, cell: SubsetCell, table=SIMPLEX_FACE_TABLE) -> str:
    """Which product merges factors i, i+1 over a simplex coefficient."""
    m = cell.mask >> (i - 1)
    return table[(m & 1 == 1, m & 2 == 2)]


def collapse_vertex(cell: SubsetCell, i: int) -> SubsetCell:
    """Identify vertices i and i+1; duplicates collapse (set image): the
    bits of 1..i stay, those of i+1.. move down by one."""
    low = cell.mask & ((1 << i) - 1)
    return SubsetCell(cell.arity - 1, low | cell.mask >> i << (i - 1))


def simplex_face(table=SIMPLEX_FACE_TABLE):
    """The simplex-family face convention: face i collapses vertices i,
    i+1 of the coefficient cell and merges the factors with the product
    ``table`` reads off their membership."""

    def face(cell: SubsetCell, i: int):
        return collapse_vertex(cell, i), DEND_OPS[simplex_face_product(i, cell, table)]

    return face


def tree_face(leaf_offset: int = TREE_FACE_LEAF_OFFSET, ops=TREE_FACE_OPS):
    """The tree-family face convention: face i removes leaf i +
    ``leaf_offset`` of the coefficient tree and merges the factors with
    the product ``ops`` assigns to that leaf's orientation."""

    def face(tree: PlanarTree, i: int):
        leaf = i + leaf_offset
        return remove_leaf(tree, leaf), ops[leaf_orientation(tree, leaf)]

    return face


def face_map(i: int, coeff, factors: tuple, face) -> LinComb:
    """i-th face of the element (coeff; factors) under the convention
    ``face``."""
    n = len(factors)
    if not 1 <= i <= n - 1:
        raise ValueError(f"face index {i} out of range 1..{n - 1}")
    new_coeff, op = face(coeff, i)
    return LinComb(
        ((new_coeff, factors[: i - 1] + (t,) + factors[i + 1 :]), c)
        for t, c in as_lincomb(op(factors[i - 1], factors[i]))
    )


@dataclass
class GradedComplex:
    """Bases and boundary maps of one weight-graded complex.

    ``levels[n]`` lists the basis elements (coefficient, factor tuple) of
    level n; ``diff[n]`` gives, per basis element, its boundary as a
    sparse {index at level n-1: integer coefficient} row.
    """

    family: str
    weight: int
    levels: dict[int, list] = field(default_factory=dict)
    diff: dict[int, list[dict[int, int]]] = field(default_factory=dict)
    d_squared_zero: bool = True
    d_squared_failure: dict | None = None

    def dims(self) -> dict[int, int]:
        return {n: len(basis) for n, basis in self.levels.items()}


def _arity_basis(family: str, n: int):
    """Subset cells of {1..n}, or planar trees with n+1 leaves."""
    if family == SIMPLEX_FAMILY:
        return enumerate_subset_cells(n)
    return enumerate_planar_trees(n + 1)


# the `cells` family name of each complex family's coefficients
_CELL_FAMILY = {SIMPLEX_FAMILY: "subset", TREE_FAMILY: "tree"}


def _dual(family: str) -> str:
    # factors come from the free algebra of the dual family
    return TREE_FAMILY if family == SIMPLEX_FAMILY else SIMPLEX_FAMILY


def _check_family_weight(family: str, weight: int) -> None:
    if family not in (SIMPLEX_FAMILY, TREE_FAMILY):
        raise ValueError(f"unknown family {family!r}")
    if weight < 1:
        raise ValueError("weight must be >= 1")


def level_dims(family: str, weight: int) -> dict[int, int]:
    """The level dimensions of ``build_complex(family, weight)``, counted
    without building anything: level n has, summed over the compositions
    of the weight, |coefficients of arity n| times the product of
    |factors of weight w_k|."""
    _check_family_weight(family, weight)
    coeffs, factors = (
        [cell_count(_CELL_FAMILY[f], n) for n in range(1, weight + 1)]
        for f in (family, _dual(family))
    )
    return {
        n: coeffs[n - 1]
        * sum(math.prod(factors[w - 1] for w in comp) for comp in compositions(weight, n))
        for n in range(1, weight + 1)
    }


def build_complex(family: str, weight: int, face=None) -> GradedComplex:
    """Assemble bases and boundary matrices for weight ``weight`` under
    the face convention ``face`` (None: the pinned one) and verify
    d^2 = 0 across all levels."""
    _check_family_weight(family, weight)
    if face is None:
        face = simplex_face() if family == SIMPLEX_FAMILY else tree_face()
    gc = GradedComplex(family=family, weight=weight)
    factors = {w: _arity_basis(_dual(family), w) for w in range(1, weight + 1)}
    sizes = {w: len(fs) for w, fs in factors.items()}
    coeffs: dict[int, list] = {}
    blocks: dict[int, dict[tuple, int]] = {}
    for n in range(1, weight + 1):
        coeffs[n] = _arity_basis(family, n)
        basis: list = []
        blocks[n] = {}
        for comp in compositions(weight, n):
            blocks[n][comp] = len(basis)
            tuples = list(itertools.product(*(factors[w] for w in comp)))
            basis.extend((c, fs) for c in coeffs[n] for fs in tuples)
        gc.levels[n] = basis
    factor_ids = {w: {f: k for k, f in enumerate(fs)} for w, fs in factors.items()}
    products: dict[tuple, list] = {}

    def product_table(op, wa: int, wb: int) -> list:
        """op(x, y) for every factor pair, row-major in (x, y), as lists
        of (factor id, coefficient) terms."""
        key = (op, wa, wb)
        if key not in products:
            ids = factor_ids[wa + wb]
            products[key] = [
                [(ids[t], c) for t, c in as_lincomb(op(x, y))]
                for x in factors[wa]
                for y in factors[wb]
            ]
        return products[key]

    for n in range(2, weight + 1):
        lower_ids = {c: k for k, c in enumerate(coeffs[n - 1])}
        faces = [
            [(lower_ids[low], op) for low, op in (face(c, i) for i in range(1, n))]
            for c in coeffs[n]
        ]
        rows: list[dict[int, int]] = [{} for _ in gc.levels[n]]
        # one int object per column, shared by every row that holds it
        col_ids = list(range(len(gc.levels[n - 1])))
        for comp, offset in blocks[n].items():
            radix = [sizes[w] for w in comp]
            block = math.prod(radix)
            for i in range(1, n):
                # The element with coefficient c, prefix r, factors a, b in
                # slots i, i+1 and suffix s has id offset + c * block +
                # (r * a_size * b_size + a * b_size + b) * suffix + s.  Face i
                # sends it, for each term t of a * b, to lower_offset +
                # lower_c * lower_block + (r * merged_size + t) * suffix + s.
                a_size, b_size = radix[i - 1], radix[i]
                suffix = math.prod(radix[i + 1 :])
                merged = comp[i - 1] + comp[i]
                lower = comp[: i - 1] + (merged,) + comp[i + 1 :]
                lower_offset = blocks[n - 1][lower]
                merged_size = sizes[merged]
                lower_block = block // (a_size * b_size) * merged_size
                sign = -((-1) ** i)  # d = -sum_i (-1)^i d_i
                for c, coeff_faces in enumerate(faces):
                    lower_c, op = coeff_faces[i - 1]
                    table = product_table(op, comp[i - 1], comp[i])
                    for r in range(block // (a_size * b_size * suffix)):
                        e = offset + c * block + r * a_size * b_size * suffix
                        col = lower_offset + lower_c * lower_block + r * merged_size * suffix
                        # faces i < i' land in different lower compositions,
                        # so no row receives a column twice
                        for terms in table:
                            for t, k in terms:
                                base = col + t * suffix
                                v = sign * k
                                for s in range(suffix):
                                    rows[e + s][col_ids[base + s]] = v
                            e += suffix
        gc.diff[n] = rows
    _check_d_squared(gc)
    return gc


def _check_d_squared(gc: GradedComplex) -> None:
    """Set d_squared_zero, and d_squared_failure for the first element x
    with d(d(x)) != 0, its residual labelled by basis element."""
    for n in range(3, gc.weight + 1):
        lower = gc.diff[n - 1]
        for k, row in enumerate(gc.diff[n]):
            acc: dict[int, int] = {}
            for j, c in row.items():
                for jj, cc in lower[j].items():
                    acc[jj] = acc.get(jj, 0) + c * cc
            if any(acc.values()):
                gc.d_squared_zero = False
                if gc.d_squared_failure is None:
                    gc.d_squared_failure = {
                        "level": n,
                        "element": _label(gc.levels[n][k]),
                        "residual": {
                            _label(gc.levels[n - 2][j]): c
                            for j, c in sorted(acc.items())
                            if c
                        },
                    }


def _label(elem) -> str:
    coeff_cell, factors = elem
    return str(coeff_cell) + " ; " + ",".join(str(f) for f in factors)


def homology_ranks(gc: GradedComplex) -> dict:
    """Dimensions, boundary ranks and Betti numbers per level."""
    dims = gc.dims()
    ranks = {n: 0 for n in dims}
    for n, rows in gc.diff.items():
        ranks[n] = rank(rows)
    betti = {}
    for n in dims:
        betti[n] = dims[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
    return {"dims": dims, "ranks": ranks, "betti": betti}


def expected_betti(weight: int) -> dict[int, int]:
    """One-dimensional homology in level 1 at weight 1; zero elsewhere."""
    return {n: 1 if (n == 1 and weight == 1) else 0 for n in range(1, weight + 1)}


def weight_report(family: str, weight: int, face=None) -> dict:
    """Build one complex; check d^2 = 0 and the expected Betti numbers."""
    gc = build_complex(family, weight, face)
    hom = homology_ranks(gc)
    return {
        "weight": weight,
        "dims": hom["dims"],
        "betti": hom["betti"],
        "d_squared_zero": gc.d_squared_zero,
        "passed": gc.d_squared_zero and hom["betti"] == expected_betti(weight),
    }


def _sweep(family: str, max_weight: int, candidates, pinned_label, **pin_fields) -> dict:
    """Which candidate conventions, each (label, report fields, face),
    give d^2 = 0 and the expected homology at every weight <= max_weight;
    ``pinned_label`` is the one the package uses."""
    results = []
    passing = []
    for label, fields, face in candidates:
        reports = [weight_report(family, w, face) for w in range(1, max_weight + 1)]
        ok = all(r["passed"] for r in reports)
        detail = [{k: r[k] for k in ("weight", "d_squared_zero", "betti")} for r in reports]
        results.append({**fields, "passes": ok, "detail": detail})
        if ok:
            passing.append(label)
    return {
        "max_weight": max_weight,
        "candidates": results,
        "passing": passing,
        "unique": len(passing) == 1,
        **pin_fields,
        "pinned_is_unique_pass": passing == [pinned_label],
    }


# The candidate conventions of the two sweeps, each (label, report
# fields, face).  Tree family: leaf offset 0/1 (face i reads leaf i or
# leaf i+1) crossed with the natural or mirrored orientation map.
# Simplex family: both orientations of the mixed rows of the
# face-product table.
TREE_FACE_CANDIDATES = [
    (
        (offset, ops_name),
        {"leaf_offset": offset, "orientation_map": ops_name},
        tree_face(offset, ops),
    )
    for offset in (0, 1)
    for ops_name, ops in (("natural", TREE_FACE_OPS), ("mirrored", _MIRRORED_OPS))
]
SIMPLEX_FACE_CANDIDATES = [
    (name, {"table": name}, simplex_face(table))
    for name, table in (("pinned", SIMPLEX_FACE_TABLE), ("mirrored", _MIRRORED_SIMPLEX_TABLE))
]


def face_convention_sweep(max_weight: int = 3) -> dict:
    """Sweep the tree-coefficient complexes over TREE_FACE_CANDIDATES."""
    pinned = (TREE_FACE_LEAF_OFFSET, "natural")
    return _sweep(TREE_FAMILY, max_weight, TREE_FACE_CANDIDATES, pinned, pinned=pinned)


def simplex_convention_sweep(max_weight: int = 3) -> dict:
    """Sweep the simplex-coefficient complexes over SIMPLEX_FACE_CANDIDATES."""
    return _sweep(SIMPLEX_FAMILY, max_weight, SIMPLEX_FACE_CANDIDATES, "pinned")
