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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cells import (
    LeafOrientation,
    PlanarTree,
    SubsetCell,
    compositions,
    enumerate_planar_trees,
    enumerate_subset_cells,
    leaf_orientation,
    remove_leaf,
)
from .dendriform import DEND_OPS
from .linear import LinComb, rank
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


def simplex_face_product(i: int, cell: SubsetCell, table=None) -> str:
    """Which product merges factors i, i+1 over a simplex coefficient."""
    ops = SIMPLEX_FACE_TABLE if table is None else table
    return ops[(i in cell.elements, (i + 1) in cell.elements)]


def collapse_vertex(cell: SubsetCell, i: int) -> SubsetCell:
    """Identify vertices i and i+1; duplicates collapse (set image)."""
    elems = sorted({e if e <= i else e - 1 for e in cell.elements})
    return SubsetCell(cell.arity - 1, tuple(elems))


def face_map_simplex_coeff(
    i: int, cell: SubsetCell, factors: tuple, *, product_table=None
) -> LinComb:
    """i-th face of (cell; factors) in the simplex-coefficient complex."""
    n = cell.arity
    if not 1 <= i <= n - 1:
        raise ValueError(f"face index {i} out of range 1..{n - 1}")
    product = DEND_OPS[simplex_face_product(i, cell, product_table)](
        factors[i - 1], factors[i]
    )
    new_cell = collapse_vertex(cell, i)
    return LinComb(
        ((new_cell, factors[: i - 1] + (t,) + factors[i + 1 :]), c)
        for t, c in product
    )


def face_map_tree_coeff(
    i: int,
    tree: PlanarTree,
    factors: tuple,
    *,
    leaf_offset: int = TREE_FACE_LEAF_OFFSET,
    orientation_ops=None,
) -> LinComb:
    """i-th face of (tree; factors) in the tree-coefficient complex."""
    n = tree.leaves - 1
    if not 1 <= i <= n - 1:
        raise ValueError(f"face index {i} out of range 1..{n - 1}")
    ops = TREE_FACE_OPS if orientation_ops is None else orientation_ops
    leaf = i + leaf_offset
    cell_op = ops[leaf_orientation(tree, leaf)]
    new_tree = remove_leaf(tree, leaf)
    merged = cell_op(factors[i - 1], factors[i])
    return LinComb.single((new_tree, factors[: i - 1] + (merged,) + factors[i + 1 :]))


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


def _level_basis(family: str, weight: int, n: int) -> list:
    coeffs = _arity_basis(family, n)
    # factors come from the free algebra of the dual family
    dual = TREE_FAMILY if family == SIMPLEX_FAMILY else SIMPLEX_FAMILY
    out = []
    for comp in compositions(weight, n):
        factor_lists = [_arity_basis(dual, w) for w in comp]
        for coeff_cell in coeffs:
            for factors in itertools.product(*factor_lists):
                out.append((coeff_cell, factors))
    return out


def _boundary_of(family: str, elem, **face_kwargs) -> LinComb:
    coeff_cell, factors = elem
    face = face_map_simplex_coeff if family == SIMPLEX_FAMILY else face_map_tree_coeff
    # d = -sum_i (-1)^i d_i
    return LinComb(
        (b, -((-1) ** i) * c)
        for i in range(1, len(factors))
        for b, c in face(i, coeff_cell, factors, **face_kwargs)
    )


def build_complex(family: str, weight: int, **face_kwargs) -> GradedComplex:
    """Assemble bases and boundary matrices for weight ``weight`` and
    verify d^2 = 0 across all levels."""
    if family not in (SIMPLEX_FAMILY, TREE_FAMILY):
        raise ValueError(f"unknown family {family!r}")
    if weight < 1:
        raise ValueError("weight must be >= 1")
    gc = GradedComplex(family=family, weight=weight)
    index: dict[int, dict] = {}
    for n in range(1, weight + 1):
        basis = _level_basis(family, weight, n)
        gc.levels[n] = basis
        index[n] = {elem: k for k, elem in enumerate(basis)}
    for n in range(2, weight + 1):
        rows = []
        for elem in gc.levels[n]:
            image = _boundary_of(family, elem, **face_kwargs)
            rows.append({index[n - 1][b]: c for b, c in image})
        gc.diff[n] = rows
    for n in range(3, weight + 1):
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
    return gc


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


def weight_report(family: str, weight: int, **face_kwargs) -> dict:
    """Build one complex; check d^2 = 0 and the expected Betti numbers."""
    gc = build_complex(family, weight, **face_kwargs)
    hom = homology_ranks(gc)
    return {
        "weight": weight,
        "dims": hom["dims"],
        "betti": hom["betti"],
        "d_squared_zero": gc.d_squared_zero,
        "passed": gc.d_squared_zero and hom["betti"] == expected_betti(weight),
    }


def _sweep(family: str, max_weight: int, candidates, pinned_label, **pin_fields) -> dict:
    """Which candidate conventions, each (label, report fields, build_complex
    keyword arguments), give d^2 = 0 and the expected homology at every
    weight <= max_weight; ``pinned_label`` is the one the package uses."""
    results = []
    passing = []
    for label, fields, face_kwargs in candidates:
        reports = [weight_report(family, w, **face_kwargs) for w in range(1, max_weight + 1)]
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


def face_convention_sweep(max_weight: int = 3) -> dict:
    """Sweep the tree-coefficient complexes over leaf offset 0/1 (face i
    reads leaf i or leaf i+1) crossed with the natural or mirrored
    orientation map."""
    candidates = [
        (
            (offset, ops_name),
            {"leaf_offset": offset, "orientation_map": ops_name},
            {"leaf_offset": offset, "orientation_ops": ops},
        )
        for offset in (0, 1)
        for ops_name, ops in (("natural", TREE_FACE_OPS), ("mirrored", _MIRRORED_OPS))
    ]
    pinned = (TREE_FACE_LEAF_OFFSET, "natural")
    return _sweep(TREE_FAMILY, max_weight, candidates, pinned, pinned=pinned)


def simplex_convention_sweep(max_weight: int = 3) -> dict:
    """Sweep the simplex-coefficient complexes over both orientations of
    the mixed rows of the face-product table."""
    candidates = [
        (name, {"table": name}, {"product_table": table})
        for name, table in (
            ("pinned", SIMPLEX_FACE_TABLE),
            ("mirrored", _MIRRORED_SIMPLEX_TABLE),
        )
    ]
    return _sweep(SIMPLEX_FAMILY, max_weight, candidates, "pinned")
