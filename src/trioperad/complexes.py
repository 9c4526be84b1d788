"""The two weight-graded chain complexes certifying the operads' duality.

For a fixed weight w, level n of either complex is spanned by a
coefficient cell of arity n tensored with n basis factors from the
*other* family's free algebra, with factor weights composing w:

* ``simplex`` family: coefficient = simplex cell of {1..n}, factors =
  planar trees.  Face i collapses vertices i, i+1 of the coefficient X
  to X' and multiplies factors i, i+1 by the tree product dual to the
  generator g with X = X' o_i g: the mask of i, i+1 in X is g's.  When
  neither is in X every g fits, and the face multiplies by ``star``, the
  sum of the three duals.
* ``tree`` family: coefficient = planar tree with n+1 leaves, factors =
  simplex cells.  The n factors sit in the n gaps between consecutive
  leaves, so face i removes the leaf between factors i and i+1 -- leaf
  i+1 -- and multiplies the factors by the cell product dual to the tree
  generator that the leaf's orientation names.

"Dual" is the duality's generator pairing ``PAIRING`` (left <-> prec,
right <-> succ, mid <-> mid); ``WINDOW_GENERATORS`` and
``LEAF_GENERATORS`` name the generators.  Each face is thus meant as
the transpose of a partial composition with a generator, the face of the
Koszul complex of the pair (Loday and Vallette 2012, *Algebraic Operads*,
7.4); no tree composition is in the code, so the tree rule is checked
through d^2 and homology only.
The differential is the alternating face sum d = -sum_i (-1)^i d_i.
``simplex_convention_sweep`` and ``face_convention_sweep`` rebuild small
complexes under the mirrored pairing (prec and succ swapped) and, for
trees, the other leaf offset, and show that the pinned convention is the
only candidate with d^2 = 0 and the right homology.

A face convention is one function ``face(coeff, memo)`` listing the
faces i = 1..n-1 of a coefficient of arity n, each as the face
coefficient and the product that merges factors i, i+1:
``simplex_face(pairing)`` (it ignores ``memo``) and
``tree_face(leaf_offset, pairing)`` (a slice of the ``cells.leaf_faces``
table, whose subtree tables ``memo`` keeps) build the candidates the
sweeps try.  ``face_map`` applies one face to one element; it defines
what ``build_complex`` computes and serves as the reference in the
tests.

``build_complex`` assembles the boundary on integer ids alone:

* Ids.  Level n is ordered by composition (w_1..w_n) of the weight, then
  coefficient, then factor tuple in ``itertools.product`` order, so the
  element (c; f_1..f_n) has the mixed-radix id
  ``offset[comp] + c * P + sum_k f_k * stride_k``, where c and f_k are
  positions in the coefficient and factor enumerations, P is the product
  of the factor counts and stride_k the product of those after slot k.
  No element is built: ``GradedComplex`` keeps the offsets and the
  coefficient and factor lists, and decodes an element from its id on
  demand (the labels of a d^2 counterexample, or ``levels``).
* Face table.  Per coefficient and face i, computed once before the
  product tables: the id of the face coefficient and the merging
  product, from one call of the convention per coefficient, with a memo
  that is dropped before the boundary is built.
* Product tables.  Per (product, w_i, w_{i+1}), computed once from the
  basis form the family's record in ``FAMILIES`` gives the public
  product: for every factor pair, the tuple of result factor ids, read
  through a {factor key: id} map.  A tree product lists distinct trees,
  a cell product one cell key, each with coefficient 1, so every
  boundary entry is the face sign.

Face i of a block then sends the elements with factors a, b in slots i,
i+1 to the factors t of a * b, at fixed prefix and suffix of the other
slots: a boundary row is index arithmetic, and no tuple of cells is
hashed.  ``level_dims`` counts the same levels without building them, as
coefficients of composed counting series: level n has |coefficients of
arity n| times [x^w] F^n elements, F counting the factors by weight.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache

from .cells import (
    LeafOrientation,
    PlanarTree,
    SubsetCell,
    cell_count,
    compositions,
    enumerate_planar_trees,
    enumerate_subset_cells,
    leaf_faces,
)
from .dendriform import BASIS_OPS, DEND_OPS, DENDRIFORM_SCHEME
from .linear import LinComb, as_lincomb, rank
from .relations import require_bound
from .series import _compose
from .trialgebra import KEY_OPS, TRI_OPS, TRIALGEBRA_SCHEME

SIMPLEX_FAMILY = "simplex"
TREE_FAMILY = "tree"

# The duality's generator pairing (``duality`` pairs the two schemes'
# generators by position): left <-> prec, right <-> succ, mid <-> mid.
PAIRING = dict(zip(TRIALGEBRA_SCHEME.generators, DENDRIFORM_SCHEME.generators))
# the sweeps' other candidate: the same pairing with prec and succ swapped
MIRRORED_PAIRING = {g: {"prec": "succ", "succ": "prec"}.get(t, t) for g, t in PAIRING.items()}
# The shape maps.  The mask of vertices i, i+1 of a cell X is that of the
# simplex generator g with X = X' o_i g: {1}@2 left, {2}@2 right, {1,2}@2
# mid.  The removed leaf has the orientation of leaf 2 in the tree
# generator's tree: (|,(|,|)) prec, ((|,|),|) succ, (|,|,|) mid.
WINDOW_GENERATORS = {1: "left", 2: "right", 3: "mid"}
LEAF_GENERATORS = {
    LeafOrientation.LEFT: "prec", LeafOrientation.RIGHT: "succ", LeafOrientation.MIDDLE: "mid"
}

# Pinned by face_convention_sweep: face i reads leaf i+1 (1-based).
TREE_FACE_LEAF_OFFSET = 1


def collapse_vertex(cell: SubsetCell, i: int) -> SubsetCell:
    """Identify vertices i and i+1; duplicates collapse (set image): the
    bits of 1..i stay, those of i+1.. move down by one."""
    low = cell.mask & ((1 << i) - 1)
    return SubsetCell(cell.arity - 1, low | cell.mask >> i << (i - 1))


def simplex_face(pairing=PAIRING):
    """The simplex-family face convention: face i collapses vertices i,
    i+1 of the coefficient cell and multiplies the factors by the tree
    product ``pairing`` pairs with the generator ``WINDOW_GENERATORS``
    reads off the mask of those two vertices; an empty window fits every
    generator, and the face multiplies by the sum of the three, ``star``.
    ``memo`` is unused."""
    ops = {mask: DEND_OPS[pairing[g]] for mask, g in WINDOW_GENERATORS.items()}
    ops[0] = DEND_OPS[DENDRIFORM_SCHEME.sum_symbol]

    def face(cell: SubsetCell, memo: dict) -> list:
        return [
            (collapse_vertex(cell, i), ops[cell.mask >> (i - 1) & 3])
            for i in range(1, cell.arity)
        ]

    return face


def tree_face(leaf_offset: int = TREE_FACE_LEAF_OFFSET, pairing=PAIRING):
    """The tree-family face convention: face i removes leaf i +
    ``leaf_offset`` of the coefficient tree and multiplies the factors by
    the cell product (``trialgebra.TRI_OPS``) that ``pairing`` pairs with
    the tree generator ``LEAF_GENERATORS`` reads off that leaf's
    orientation.  All faces come from one ``leaf_faces`` table, which
    reads the tables of subtrees from ``memo``."""
    dual = {t: g for g, t in pairing.items()}
    ops = {orientation: TRI_OPS[dual[t]] for orientation, t in LEAF_GENERATORS.items()}

    def face(tree: PlanarTree, memo: dict) -> list:
        table = leaf_faces(tree, memo)[leaf_offset : leaf_offset + tree.leaves - 2]
        return [(low, ops[orientation]) for low, orientation in table]

    return face


class _Family(namedtuple("_Family", "basis cells dual face products factor_keys")):
    """One complex family: ``basis(n)`` lists its coefficients of arity
    n, ``cells.cell_count(cells, n)`` counts them, ``dual`` gives the
    factors, ``face`` is the pinned face convention, and ``products``
    maps each product a face may return to its name and its basis form,
    which reads the factors as ``factor_keys`` lists them."""

    __slots__ = ()


# each basis reads complexes.enumerate_* at call time, so wrappers see it
FAMILIES = {
    SIMPLEX_FAMILY: _Family(
        basis=lambda n: enumerate_subset_cells(n),
        cells="subset",
        dual=TREE_FAMILY,
        face=simplex_face(),
        products={DEND_OPS[name]: (name, op) for name, op in BASIS_OPS.items()},
        factor_keys=lambda trees: trees,
    ),
    TREE_FAMILY: _Family(
        basis=lambda n: enumerate_planar_trees(n + 1),
        cells="tree",
        dual=SIMPLEX_FAMILY,
        face=tree_face(),
        products={
            TRI_OPS[name]: (name, lambda x, y, key_op=key_op: (key_op(x, y),))
            for name, key_op in KEY_OPS.items()
        },
        factor_keys=lambda cells: [c.key for c in cells],
    ),
}


def face_map(i: int, coeff, factors: tuple, face) -> LinComb:
    """i-th face of the element (coeff; factors) under the convention
    ``face``; a basis element has one factor more than its coefficient
    has faces."""
    n = len(factors)
    faces = face(coeff, {})
    if len(faces) != n - 1:
        raise ValueError(f"{coeff} takes {len(faces) + 1} factors, got {n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"face index {i} out of range 1..{n - 1}")
    new_coeff, op = faces[i - 1]
    return LinComb(
        ((new_coeff, factors[: i - 1] + (t,) + factors[i + 1 :]), c)
        for t, c in as_lincomb(op(factors[i - 1], factors[i]))
    )


class GradedComplex:
    """Boundary maps of one weight-graded complex, on integer ids.

    Level n has ``sizes[n]`` basis elements (coefficient, factor tuple):
    ``coeffs[n]`` lists the coefficients of arity n, ``factors[w]`` the
    factors of weight w, and ``offsets[n][comp]`` is the id of the first
    element whose factor weights are the composition ``comp``; see
    ``build_complex`` for the id order.  No element is stored:
    ``element(n, k)`` decodes the element with id k, and ``levels[n]``
    decodes all of level n, on each access.  ``diff[n]`` gives, per
    element of level n, its boundary as a sparse {id at level n-1:
    integer coefficient} row.
    """

    def __init__(self, family: str, weight: int) -> None:
        self.family, self.weight = family, weight
        self.sizes: dict[int, int] = {}
        self.offsets: dict[int, dict[tuple, int]] = {}
        self.coeffs: dict[int, list] = {}
        self.factors: dict[int, list] = {}
        self.diff: dict[int, list[dict[int, int]]] = {}
        self.d_squared_failure: dict | None = None

    @property
    def d_squared_zero(self) -> bool:
        return self.d_squared_failure is None

    def dims(self) -> dict[int, int]:
        return dict(self.sizes)

    def element(self, n: int, k: int) -> tuple:
        """The basis element (coefficient, factor tuple) with id k at
        level n, read off the mixed-radix id."""
        size = self.sizes.get(n, 0)
        if not 0 <= k < size:
            raise IndexError(f"id {k} out of range 0..{size - 1} at level {n}")
        for comp, offset in reversed(self.offsets[n].items()):
            if offset <= k:
                break
        radix = [len(self.factors[w]) for w in comp]
        c, k = divmod(k - offset, math.prod(radix))
        slots = []
        for w, size in zip(reversed(comp), reversed(radix)):
            k, f = divmod(k, size)
            slots.append(self.factors[w][f])
        return self.coeffs[n][c], tuple(reversed(slots))

    @property
    def levels(self) -> dict[int, list]:
        """Every level's basis elements in id order, decoded anew."""
        return {n: [self.element(n, k) for k in range(size)] for n, size in self.sizes.items()}


def _family_record(family: str, weight: int) -> _Family:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if weight < 1:
        raise ValueError("weight must be >= 1")
    return FAMILIES[family]


def level_dims(family: str, weight: int) -> dict[int, int]:
    """The level dimensions of ``build_complex(family, weight)``, counted
    without building anything.  With F = sum |factors of weight k| x^k,
    the factor tuples of total weight w at level n number [x^w] F^n, and
    F^n is x^n composed with F (``series._compose``), so level n has
    |coefficients of arity n| [x^w] F^n elements."""
    record = _family_record(family, weight)
    coeffs, factors = (
        [0] + [cell_count(r.cells, k) for k in range(1, weight + 1)]
        for r in (record, FAMILIES[record.dual])
    )
    return {
        n: coeffs[n] * _compose([int(k == n) for k in range(weight + 1)], factors, weight)[weight]
        for n in range(1, weight + 1)
    }


def _face_tables(face, coeffs: dict[int, list], weight: int) -> dict[int, list]:
    """Per level n >= 2, per coefficient, its faces i = 1..n-1 as (id of
    the face coefficient at level n-1, merging product).  Every call of
    ``face`` shares one memo, which lives for this call only."""
    memo: dict = {}
    tables = {}
    for n in range(2, weight + 1):
        lower_ids = {c: k for k, c in enumerate(coeffs[n - 1])}
        tables[n] = [[(lower_ids[low], op) for low, op in face(c, memo)] for c in coeffs[n]]
    return tables


def build_complex(family: str, weight: int, face=None) -> GradedComplex:
    """Assemble the boundary matrices for weight ``weight`` under the
    face convention ``face`` (None: the pinned one) and verify d^2 = 0
    across all levels.  The products ``face`` returns must be those of
    the family's record in ``FAMILIES``."""
    record = _family_record(family, weight)
    gc = GradedComplex(family=family, weight=weight)
    gc.factors = {w: FAMILIES[record.dual].basis(w) for w in range(1, weight + 1)}
    sizes = {w: len(fs) for w, fs in gc.factors.items()}
    gc.coeffs = {n: record.basis(n) for n in range(1, weight + 1)}
    face_tables = _face_tables(face or record.face, gc.coeffs, weight)
    for n in range(1, weight + 1):
        gc.offsets[n] = {}
        size = 0
        for comp in compositions(weight, n):
            gc.offsets[n][comp] = size
            size += len(gc.coeffs[n]) * math.prod(sizes[w] for w in comp)
        gc.sizes[n] = size
    keys = {w: record.factor_keys(fs) for w, fs in gc.factors.items()}
    factor_ids = {w: {f: k for k, f in enumerate(fs)} for w, fs in keys.items()}

    @cache
    def product_table(op, wa: int, wb: int) -> list:
        """op(x, y) for every factor pair, row-major in (x, y), as the
        tuple of result factor ids: every coefficient is 1."""
        if op not in record.products:
            accepted = ", ".join(name for name, _ in record.products.values())
            raise ValueError(
                f"face product {op!r} is not a product of the {family} complex's factors; "
                f"accepted: {accepted}"
            )
        basis_op = record.products[op][1]
        ids = factor_ids[wa + wb]
        return [tuple([ids[t] for t in basis_op(x, y)]) for x in keys[wa] for y in keys[wb]]

    for n in range(2, weight + 1):
        faces = face_tables[n]
        rows: list[dict[int, int]] = [{} for _ in range(gc.sizes[n])]
        # one int object per column, shared by every row that holds it
        col_ids = list(range(gc.sizes[n - 1]))
        for comp, offset in gc.offsets[n].items():
            radix = [sizes[w] for w in comp]
            block = math.prod(radix)
            for i in range(1, n):
                # The element with coefficient c, prefix r, factors a, b in
                # slots i, i+1 and suffix s has id offset + c * block +
                # (r * a_size * b_size + a * b_size + b) * suffix + s.  Face i
                # sends it, for each factor t of a * b, to lower_offset +
                # lower_c * lower_block + (r * merged_size + t) * suffix + s,
                # with coefficient the face sign.
                a_size, b_size = radix[i - 1], radix[i]
                suffix = math.prod(radix[i + 1 :])
                merged = comp[i - 1] + comp[i]
                lower = comp[: i - 1] + (merged,) + comp[i + 1 :]
                lower_offset = gc.offsets[n - 1][lower]
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
                        # and the factors of a * b are distinct, so no row
                        # receives a column twice
                        if suffix == 1:
                            for terms in table:
                                row = rows[e]
                                for t in terms:
                                    row[col_ids[col + t]] = sign
                                e += 1
                            continue
                        for terms in table:
                            for t in terms:
                                base = col + t * suffix
                                for s in range(suffix):
                                    rows[e + s][col_ids[base + s]] = sign
                            e += suffix
        gc.diff[n] = rows
    _check_d_squared(gc)
    return gc


def _check_d_squared(gc: GradedComplex) -> None:
    """Set d_squared_failure for the first element x with d(d(x)) != 0, its
    residual labelled by basis element; the check stops at that element."""
    for n in range(3, gc.weight + 1):
        lower = gc.diff[n - 1]
        for k, row in enumerate(gc.diff[n]):
            acc: dict[int, int] = {}
            for j, c in row.items():
                for jj, cc in lower[j].items():
                    acc[jj] = acc.get(jj, 0) + c * cc
            if any(acc.values()):
                gc.d_squared_failure = {
                    "level": n,
                    "element": _label(gc.element(n, k)),
                    "residual": {
                        _label(gc.element(n - 2, j)): c for j, c in sorted(acc.items()) if c
                    },
                }
                return


def _label(elem) -> str:
    coeff_cell, factors = elem
    return str(coeff_cell) + " ; " + ",".join(str(f) for f in factors)


def homology_ranks(gc: GradedComplex) -> dict:
    """Dimensions, boundary ranks and Betti numbers per level.

    With d^2 = 0 the ranks are taken top-down with clearing (Chen and
    Kerber 2011, "Persistent homology computation with a twist"; Bauer,
    Kerber and Reininghaus 2014, "Clear and compress"): the rows of
    ``diff[n]`` whose level-n ids were pivot columns of ``diff[n+1]``
    are left out.  This keeps rank(d_n) over the rationals.  The rows
    ``rank`` keeps for d_{n+1}, restricted to its pivot columns J, are
    triangular with a nonzero diagonal, so for each j in J the image of
    d_{n+1} holds a vector e_j + sum_{k not in J} b_k e_k.  d_n sends it
    to 0, so row j of ``diff[n]`` lies in the span of the rows outside J,
    whatever the pivot rule.  When d^2 != 0 (a candidate of the
    convention sweeps) no row is left out.
    """
    dims = gc.dims()
    ranks = {n: 0 for n in dims}
    cleared: set = set()
    for n in sorted(gc.diff, reverse=True):
        pivots: list = []
        ranks[n] = rank([row for k, row in enumerate(gc.diff[n]) if k not in cleared], pivots)
        if gc.d_squared_zero:
            cleared = set(pivots)
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
    require_bound(max_weight, 1, "weight")
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
# leaf i+1) crossed with the pinned or the mirrored pairing.  Simplex
# family: the same two pairings.
TREE_FACE_CANDIDATES = [
    ((offset, name), {"leaf_offset": offset, "orientation_map": name}, tree_face(offset, pairing))
    for offset in (0, 1)
    for name, pairing in (("natural", PAIRING), ("mirrored", MIRRORED_PAIRING))
]
SIMPLEX_FACE_CANDIDATES = [
    (name, {"table": name}, simplex_face(pairing))
    for name, pairing in (("pinned", PAIRING), ("mirrored", MIRRORED_PAIRING))
]


def face_convention_sweep(max_weight: int = 3) -> dict:
    """Sweep the tree-coefficient complexes over TREE_FACE_CANDIDATES."""
    pinned = (TREE_FACE_LEAF_OFFSET, "natural")
    return _sweep(TREE_FAMILY, max_weight, TREE_FACE_CANDIDATES, pinned, pinned=pinned)


def simplex_convention_sweep(max_weight: int = 3) -> dict:
    """Sweep the simplex-coefficient complexes over SIMPLEX_FACE_CANDIDATES."""
    return _sweep(SIMPLEX_FAMILY, max_weight, SIMPLEX_FACE_CANDIDATES, "pinned")
