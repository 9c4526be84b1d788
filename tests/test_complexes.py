"""Weight-graded chain complexes: faces, d^2 = 0, homology, conventions."""

import itertools
from collections import Counter

import pytest

from trioperad import complexes as complexes_mod
from trioperad.cells import (
    LEAF,
    LeafOrientation,
    cell_of_key,
    enumerate_planar_trees,
    enumerate_subset_cells,
    graft,
    leaf_orientation,
    parse_subset_cell as cell,
    parse_tree,
    remove_leaf,
)
from trioperad.complexes import (
    FAMILIES,
    LEAF_GENERATORS,
    GradedComplex,
    MIRRORED_PAIRING,
    PAIRING,
    SIMPLEX_FACE_CANDIDATES,
    SIMPLEX_FAMILY,
    TREE_FACE_CANDIDATES,
    TREE_FACE_LEAF_OFFSET,
    TREE_FAMILY,
    WINDOW_GENERATORS,
    _check_d_squared,
    build_complex,
    collapse_vertex,
    expected_betti,
    face_convention_sweep,
    face_map,
    homology_ranks,
    level_dims,
    simplex_convention_sweep,
    simplex_face,
    tree_face,
)
from trioperad.dendriform import BASIS_OPS, DEND_OPS, DENDRIFORM_SCHEME, GENERATOR
from trioperad.duality import _relation_vector
from trioperad.linear import LinComb, as_lincomb, rank
from trioperad.series import TPoly, TSeries, f_delta, f_stasheff
from trioperad.trialgebra import KEY_OPS, OPERAD_UNIT, TRI_OPS, TRIALGEBRA_SCHEME

A = parse_tree("(|,|)")

# dims frozen from the free-algebra bookkeeping
SIMPLEX_DIMS = {
    3: {1: 11, 2: 18, 3: 7},
    5: {1: 197, 2: 468, 3: 420, 4: 180, 5: 31},
}
TREE_DIMS = {
    3: {1: 7, 2: 18, 3: 11},
    5: {1: 31, 2: 216, 3: 528, 4: 540, 5: 197},
}


# ------------------------------------------------------------- face rules


# Reference tables, kept here as literals: the product of the simplex
# face by the membership of vertices i, i+1 in the coefficient subset,
# and the cell product of the tree face by the removed leaf's orientation.
_LEFT, _RIGHT, _MIDDLE = LeafOrientation.LEFT, LeafOrientation.RIGHT, LeafOrientation.MIDDLE
_SIMPLEX_TABLES = {
    "pinned": {
        (True, True): "mid", (True, False): "prec", (False, True): "succ", (False, False): "star"
    },
    "mirrored": {
        (True, True): "mid", (True, False): "succ", (False, True): "prec", (False, False): "star"
    },
}
_TREE_OPS = {
    "natural": {_LEFT: "left", _RIGHT: "right", _MIDDLE: "mid"},
    "mirrored": {_LEFT: "right", _RIGHT: "left", _MIDDLE: "mid"},
}


def test_simplex_face_table_pinned():
    # the face build_complex uses by default: mid when both endpoints are
    # in the subset, star when neither; the mixed rows are the orientation
    # pinned by simplex_convention_sweep.  Membership is read through
    # cell.elements, not the mask.
    face = FAMILIES[SIMPLEX_FAMILY].face
    table = _SIMPLEX_TABLES["pinned"]
    for n in range(2, 5):
        for c in enumerate_subset_cells(n):
            for i, (_, op) in enumerate(face(c, {}), 1):
                assert op is DEND_OPS[table[(i in c.elements, i + 1 in c.elements)]], (c, i)


def _face_product(i, coeff):
    return simplex_face()(coeff, {})[i - 1][1]


def test_simplex_face_product_reads_membership():
    assert _face_product(1, cell("{1,2}@3")) is DEND_OPS["mid"]
    assert _face_product(2, cell("{1}@3")) is DEND_OPS["star"]
    assert _face_product(1, cell("{1}@3")) is DEND_OPS["prec"]
    assert _face_product(1, cell("{2}@3")) is DEND_OPS["succ"]


def test_shape_maps_and_pairing_derived():
    # the arity-2 case of "each face is the transpose of a partial
    # composition with a generator": the window of each simplex generator
    # U g U is its own mask, and the removed leaf 2 of each tree
    # generator's tree has the orientation the leaf map names
    unit = OPERAD_UNIT.key
    assert {cell_of_key(op(unit, unit)).mask: g for g, op in KEY_OPS.items()} == WINDOW_GENERATORS
    trees = {g: BASIS_OPS[g](GENERATOR, GENERATOR) for g in DENDRIFORM_SCHEME.generators}
    assert all(len(t) == 1 for t in trees.values())
    assert {leaf_orientation(t, 2): g for g, (t,) in trees.items()} == LEAF_GENERATORS
    # the pairing is the one the duality certificate uses: generators by
    # position, so a row that names g pairs with one that names PAIRING[g]
    for g, t in PAIRING.items():
        assert TRIALGEBRA_SCHEME.generators.index(g) == DENDRIFORM_SCHEME.generators.index(t)
        assert _relation_vector(TRIALGEBRA_SCHEME, (g,) * 4) == _relation_vector(
            DENDRIFORM_SCHEME, (t,) * 4
        )
    assert MIRRORED_PAIRING == {"left": "succ", "right": "prec", "mid": "mid"}


def test_collapse_vertex():
    assert collapse_vertex(cell("{1,2}@2"), 1) == cell("{1}@1")
    assert collapse_vertex(cell("{1,3}@3"), 2) == cell("{1,2}@2")
    assert collapse_vertex(cell("{2,3}@3"), 2) == cell("{2}@2")


def test_face_map_simplex_mid_row_pinned():
    # X = {1,2}@2 with two 2-leaf factors: the mid product, one term
    out = face_map(1, cell("{1,2}@2"), (A, A), simplex_face())
    assert out == LinComb.single((cell("{1}@1"), (parse_tree("(|,|,|)"),)))


def test_face_map_simplex_multi_term():
    # neither endpoint in X: star, which fans into three trees
    out = face_map(2, cell("{1}@3"), (A, A, A), simplex_face())
    assert len(out) == 3
    for (new_cell, factors), c in out:
        assert c == 1
        assert new_cell == cell("{1}@2")
        assert len(factors) == 2
        assert factors[0] == A


def test_face_map_simplex_range():
    with pytest.raises(ValueError):
        face_map(2, cell("{1}@2"), (A, A), simplex_face())


def test_face_map_refuses_an_element_that_is_not_a_basis_element():
    # a coefficient of arity n has n - 1 faces and takes n factors
    with pytest.raises(ValueError, match="takes 3 factors, got 2"):
        face_map(1, cell("{1}@3"), (A, A), simplex_face())
    with pytest.raises(ValueError, match="takes 2 factors, got 3"):
        face_map(1, parse_tree("(|,|,|)"), (cell("{1}@1"),) * 3, tree_face())


def test_face_map_tree_middle_leaf_pinned():
    # corolla coefficient, face 1 reads leaf 2 (middle) -> mid product
    corolla = parse_tree("(|,|,|)")
    out = face_map(1, corolla, (cell("{1}@1"), cell("{1}@1")), tree_face())
    assert out == LinComb.single((A, (cell("{1,2}@2"),)))


def test_face_map_tree_left_leaf():
    # coefficient (|,(|,|)): leaf 2 is left-oriented -> left product
    t = parse_tree("(|,(|,|))")
    out = face_map(1, t, (cell("{1}@1"), cell("{1}@1")), tree_face())
    assert out == LinComb.single((A, (cell("{1}@2"),)))


def test_tree_face_leaf_offset_pinned():
    assert TREE_FACE_LEAF_OFFSET == 1


def _one_element_faces(fields, coeff):
    """Faces 1..n-1 of ``coeff`` from the public one-element helpers,
    under the sweep convention with report fields ``fields``."""
    if "table" in fields:
        table = _SIMPLEX_TABLES[fields["table"]]
        window = [(i in coeff.elements, i + 1 in coeff.elements) for i in range(1, coeff.arity)]
        return [
            (collapse_vertex(coeff, i), DEND_OPS[table[w]]) for i, w in enumerate(window, 1)
        ]
    offset, ops = fields["leaf_offset"], _TREE_OPS[fields["orientation_map"]]
    return [
        (remove_leaf(coeff, i + offset), TRI_OPS[ops[leaf_orientation(coeff, i + offset)]])
        for i in range(1, coeff.leaves - 1)
    ]


@pytest.mark.parametrize(
    "fields,face",
    [(fields, face) for _, fields, face in TREE_FACE_CANDIDATES + SIMPLEX_FACE_CANDIDATES],
    ids=[str(label) for label, _, _ in TREE_FACE_CANDIDATES + SIMPLEX_FACE_CANDIDATES],
)
def test_faces_match_one_element_helpers(fields, face):
    # the face list build_complex reads, with a shared memo and with none
    if "table" in fields:
        coeffs = [c for n in range(2, 8) for c in enumerate_subset_cells(n)]
    else:
        coeffs = [t for leaves in range(3, 8) for t in enumerate_planar_trees(leaves)]
    memo = {}
    for c in coeffs:
        want = _one_element_faces(fields, c)
        assert face(c, memo) == want
        assert face(c, {}) == want


def test_tree_basis_products_match_public_products():
    # every tree pair with at most 7 leaves in total: the basis form lists
    # distinct trees, each the public product's term with coefficient 1
    trees = {k: enumerate_planar_trees(k) for k in range(2, 6)}
    pairs = [
        (x, y) for a in trees for b in trees if a + b <= 7 for x in trees[a] for y in trees[b]
    ]
    assert len(pairs) == 194
    record = FAMILIES[SIMPLEX_FAMILY]
    assert {name for name, _ in record.products.values()} == set(DEND_OPS)
    for public, (name, basis_op) in record.products.items():
        assert public is DEND_OPS[name]
        for x, y in pairs:
            terms = basis_op(*record.factor_keys([x, y]))
            assert len(set(terms)) == len(terms)
            assert dict(as_lincomb(public(x, y)).items()) == dict.fromkeys(terms, 1)


def test_cell_basis_products_match_public_products():
    # every cell pair with arity sum at most 6: the basis form reads the
    # cells' keys and gives one result key, that of the public product's
    # one term, with coefficient 1
    pairs = [
        (x, y)
        for p in range(1, 6)
        for q in range(1, 7 - p)
        for x in enumerate_subset_cells(p)
        for y in enumerate_subset_cells(q)
    ]
    record = FAMILIES[TREE_FAMILY]
    assert {name for name, _ in record.products.values()} == set(TRI_OPS)
    for public, (name, basis_op) in record.products.items():
        assert public is TRI_OPS[name]
        key_op = KEY_OPS[name]
        for x, y in pairs:
            x_key, y_key = record.factor_keys([x, y])
            terms = basis_op(x_key, y_key)
            assert terms == (key_op(x.key, y.key),)
            assert as_lincomb(public(x, y)) == LinComb.single(cell_of_key(terms[0]))


def _simplex_face_with(op):
    return lambda c, memo: [(collapse_vertex(c, i), op) for i in range(1, c.arity)]


def _tree_face_with(op):
    def face(t, memo):
        return [(low, op) for low, _ in tree_face()(t, memo)]

    return face


_TREE_PRODUCTS = "prec, succ, mid, star"
_CELL_PRODUCTS = "left, right, mid"


@pytest.mark.parametrize(
    "family,face,accepted",
    [
        # a product of the other family, and a product outside the map
        (SIMPLEX_FAMILY, _simplex_face_with(TRI_OPS["left"]), _TREE_PRODUCTS),
        (SIMPLEX_FAMILY, _simplex_face_with(lambda x, y: DEND_OPS["prec"](x, y)), _TREE_PRODUCTS),
        (TREE_FAMILY, _tree_face_with(DEND_OPS["mid"]), _CELL_PRODUCTS),
        (TREE_FAMILY, _tree_face_with(lambda x, y: TRI_OPS["left"](x, y)), _CELL_PRODUCTS),
    ],
)
def test_face_product_outside_basis_products_raises(family, face, accepted):
    with pytest.raises(ValueError, match=f"accepted: {accepted}$"):
        build_complex(family, 3, face)


# -------------------------------------------------------------- complexes


def test_weight_one_trivial():
    for family in (SIMPLEX_FAMILY, TREE_FAMILY):
        gc = build_complex(family, 1)
        assert gc.dims() == {1: 1}
        assert gc.d_squared_zero
        assert homology_ranks(gc)["betti"] == {1: 1}


def test_weight_two_isomorphism():
    for family in (SIMPLEX_FAMILY, TREE_FAMILY):
        gc = build_complex(family, 2)
        hom = homology_ranks(gc)
        assert hom["dims"] == {1: 3, 2: 3}
        assert hom["ranks"][2] == 3  # d_2 is an isomorphism
        assert hom["betti"] == {1: 0, 2: 0}


@pytest.mark.parametrize("family,frozen", [(SIMPLEX_FAMILY, SIMPLEX_DIMS), (TREE_FAMILY, TREE_DIMS)])
def test_dims_frozen(family, frozen):
    for w, want in frozen.items():
        assert build_complex(family, w).dims() == want


@pytest.mark.parametrize("family", [SIMPLEX_FAMILY, TREE_FAMILY])
def test_d_squared_and_betti_through_weight_four(family):
    for w in range(1, 5):
        gc = build_complex(family, w)
        assert gc.d_squared_zero, gc.d_squared_failure
        assert homology_ranks(gc)["betti"] == expected_betti(w)


@pytest.mark.parametrize(
    "family,ranks",
    [
        (SIMPLEX_FAMILY, {2: 903, 3: 1452, 4: 1068, 5: 402, 6: 63}),
        (TREE_FAMILY, {2: 63, 3: 540, 4: 1638, 5: 2052, 6: 903}),
    ],
)
def test_homology_weight_six_pinned(family, ranks):
    hom = homology_ranks(build_complex(family, 6))
    assert hom["ranks"] == {1: 0, **ranks}
    assert hom["betti"] == expected_betti(6)


def _full_ranks(gc):
    # every boundary matrix whole: the ranks homology_ranks must reproduce
    return {n: rank(gc.diff.get(n, [])) for n in gc.dims()}


@pytest.mark.parametrize(
    "family,face",
    [(TREE_FAMILY, face) for _, _, face in TREE_FACE_CANDIDATES]
    + [(SIMPLEX_FAMILY, face) for _, _, face in SIMPLEX_FACE_CANDIDATES],
)
def test_clearing_keeps_ranks_of_sweep_candidates(family, face):
    # d^2 = 0 or not, the ranks are those of the full matrices
    for w in range(2, 6):
        gc = build_complex(family, w, face)
        assert homology_ranks(gc)["ranks"] == _full_ranks(gc)


@pytest.mark.parametrize("family", [SIMPLEX_FAMILY, TREE_FAMILY])
def test_clearing_keeps_ranks_at_weight_six(family):
    gc = build_complex(family, 6)
    assert homology_ranks(gc)["ranks"] == _full_ranks(gc)


def test_clearing_needs_d_squared_zero():
    # negative control: under the mirrored table d^2 != 0 at weight 3, and
    # clearing d_2 by the pivot columns of d_3 would lose two ranks
    mirrored = next(face for label, _, face in SIMPLEX_FACE_CANDIDATES if label == "mirrored")
    gc = build_complex(SIMPLEX_FAMILY, 3, mirrored)
    assert not gc.d_squared_zero
    assert homology_ranks(gc)["ranks"][2] == rank(gc.diff[2]) == 11
    pivots = []
    rank(gc.diff[3], pivots)
    cleared = [row for k, row in enumerate(gc.diff[2]) if k not in set(pivots)]
    assert rank(cleared) == 9


def test_differential_preserves_weight_and_drops_level():
    gc = build_complex(SIMPLEX_FAMILY, 3)
    for n, rows in gc.diff.items():
        lower = gc.levels[n - 1]
        for k, row in enumerate(rows):
            _, factors = gc.levels[n][k]
            weight = sum(t.leaves - 1 for t in factors)
            for j in row:
                _, lfactors = lower[j]
                assert len(lfactors) == n - 1
                assert sum(t.leaves - 1 for t in lfactors) == weight


def _reference_rows(gc, n, face):
    """d = -sum_i (-1)^i d_i from the one-element face map, per element
    of level n, as {index at level n-1: coefficient} rows."""
    index = {elem: k for k, elem in enumerate(gc.levels[n - 1])}
    rows = []
    for coeff, factors in gc.levels[n]:
        image = LinComb(
            (b, -((-1) ** i) * c)
            for i in range(1, len(factors))
            for b, c in face_map(i, coeff, factors, face)
        )
        rows.append({index[b]: c for b, c in image})
    return rows


@pytest.mark.parametrize(
    "family,face_kwargs",
    [(SIMPLEX_FAMILY, {"face": face}) for _, _, face in SIMPLEX_FACE_CANDIDATES]
    + [(TREE_FAMILY, {"face": face}) for _, _, face in TREE_FACE_CANDIDATES],
)
def test_boundary_rows_match_one_element_faces(family, face_kwargs):
    # every sweep candidate, the mirrored ones whose d^2 fails included
    for w in range(1, 5):
        gc = build_complex(family, w, **face_kwargs)
        assert set(gc.diff) == set(range(2, w + 1))
        for n in gc.diff:
            assert gc.diff[n] == _reference_rows(gc, n, **face_kwargs)


@pytest.mark.parametrize("family", [SIMPLEX_FAMILY, TREE_FAMILY])
def test_level_dims_match_built_dims(family):
    for w in range(1, 7):
        assert level_dims(family, w) == build_complex(family, w).dims()


def test_level_dims_totals():
    for w in range(1, 21):
        simplex, tree = (sum(level_dims(f, w).values()) for f in (SIMPLEX_FAMILY, TREE_FAMILY))
        assert simplex == 6 ** (w - 1)
        # the cap in `complex build` refuses by 6^(w-1) before counting
        assert tree >= simplex
    assert [sum(level_dims(TREE_FAMILY, w).values()) for w in (5, 6, 7)] == [1512, 10392, 73440]


@pytest.mark.parametrize(
    "family, coeff_series, factor_series",
    [(SIMPLEX_FAMILY, f_delta, f_stasheff), (TREE_FAMILY, f_stasheff, f_delta)],
)
def test_level_dims_by_degree_match_the_series(family, coeff_series, factor_series):
    # [x^n] of the coefficients' series, composed with the factors' series,
    # counts level n by degree at x^w: an element's degree is its
    # coefficient's plus its factors', and both series carry (-1)^size
    for w in range(1, 6):
        D, S = coeff_series(w), factor_series(w)
        gc = build_complex(family, w)
        for n, elements in gc.levels.items():
            by_degree = Counter(c.degree + sum(f.degree for f in fs) for c, fs in elements)
            want = (-1) ** w * TSeries(w, [0] * n + [(-1) ** n * D.coeffs[n]]).compose(S).coeffs[w]
            assert TPoly([by_degree[d] for d in range(max(by_degree) + 1)]) == want


@pytest.mark.parametrize("family", [SIMPLEX_FAMILY, TREE_FAMILY])
def test_level_dims_euler_characteristic(family):
    # sum (-1)^(n-1) dim_n equals the alternating sum of the Betti numbers
    for w in range(1, 12):
        euler = sum((-1) ** (n - 1) * d for n, d in level_dims(family, w).items())
        assert euler == sum((-1) ** (n - 1) * b for n, b in expected_betti(w).items())
        assert euler == (1 if w == 1 else 0)


def test_level_dims_rejects_bad_input():
    with pytest.raises(ValueError):
        level_dims("octahedron", 2)
    with pytest.raises(ValueError):
        level_dims(TREE_FAMILY, 0)


def test_build_complex_rejects_bad_input():
    with pytest.raises(ValueError):
        build_complex("octahedron", 2)
    with pytest.raises(ValueError):
        build_complex(SIMPLEX_FAMILY, 0)


def test_family_records_are_immutable():
    with pytest.raises(AttributeError):
        FAMILIES[SIMPLEX_FAMILY].face = None


def test_graded_complex_starts_empty():
    gc = GradedComplex(family=TREE_FAMILY, weight=3)
    assert (gc.family, gc.weight) == (TREE_FAMILY, 3)
    assert gc.sizes == gc.offsets == gc.coeffs == gc.factors == gc.diff == {}
    assert gc.d_squared_zero and gc.dims() == {}
    # each complex owns its dicts
    assert GradedComplex(TREE_FAMILY, 3).sizes is not gc.sizes


def test_expected_betti():
    assert expected_betti(1) == {1: 1}
    assert expected_betti(3) == {1: 0, 2: 0, 3: 0}


# ------------------------------------------------------------ conventions


def test_tree_convention_sweep_unique():
    sweep = face_convention_sweep(3)
    assert sweep["unique"]
    assert sweep["pinned_is_unique_pass"]
    assert sweep["passing"] == [(1, "natural")]


def test_simplex_convention_sweep_unique():
    sweep = simplex_convention_sweep(3)
    assert sweep["unique"]
    assert sweep["pinned_is_unique_pass"]
    # the mirrored table already breaks d^2 = 0 at weight 3
    mirrored = next(c for c in sweep["candidates"] if c["table"] == "mirrored")
    assert not mirrored["detail"][2]["d_squared_zero"]


def test_d_squared_failure_carries_residual():
    # the mirrored pairing (prec and succ swapped on the mixed rows)
    gc = build_complex(SIMPLEX_FAMILY, 3, simplex_face(MIRRORED_PAIRING))
    assert not gc.d_squared_zero
    failure = gc.d_squared_failure
    assert failure["level"] == 3
    residual = failure["residual"]
    assert residual and all(c != 0 for c in residual.values())
    # recompute d(d(element)) from the boundary matrices
    labels = [str(c) + " ; " + ",".join(map(str, fs)) for c, fs in gc.levels[3]]
    k = labels.index(failure["element"])
    acc = {}
    for j, c in gc.diff[3][k].items():
        for i, cc in gc.diff[2][j].items():
            acc[i] = acc.get(i, 0) + c * cc
    want = {
        str(gc.levels[1][i][0]) + " ; " + ",".join(map(str, gc.levels[1][i][1])): c
        for i, c in acc.items()
        if c
    }
    assert residual == want


def _enumerated_levels(family, weight):
    """Every level of the complex in id order, enumerated here: the
    compositions of the weight (cut points in lexicographic order), then
    the coefficients, then the factor tuples in itertools.product order."""
    if family == SIMPLEX_FAMILY:
        coeffs, factors = enumerate_subset_cells, lambda w: enumerate_planar_trees(w + 1)
    else:
        coeffs, factors = lambda n: enumerate_planar_trees(n + 1), enumerate_subset_cells
    levels = {}
    for n in range(1, weight + 1):
        comps = [
            tuple(b - a for a, b in zip((0,) + cuts, cuts + (weight,)))
            for cuts in itertools.combinations(range(1, weight), n - 1)
        ]
        levels[n] = [
            (c, fs)
            for comp in comps
            for c in coeffs(n)
            for fs in itertools.product(*(factors(w) for w in comp))
        ]
    return levels


@pytest.mark.parametrize("family", [SIMPLEX_FAMILY, TREE_FAMILY])
def test_levels_decode_ids_in_enumeration_order(family):
    for w in range(1, 6):
        gc = build_complex(family, w)
        want = _enumerated_levels(family, w)
        assert gc.levels == want
        assert gc.dims() == {n: len(basis) for n, basis in want.items()}
        for n, basis in want.items():
            assert gc.element(n, len(basis) - 1) == basis[-1]
            with pytest.raises(IndexError):
                gc.element(n, len(basis))
        for n in (0, w + 1):
            with pytest.raises(IndexError, match=f"id 0 out of range 0..-1 at level {n}"):
                gc.element(n, 0)


def test_d_squared_check_stops_at_first_failure():
    mirrored = next(face for label, _, face in SIMPLEX_FACE_CANDIDATES if label == "mirrored")
    gc = build_complex(SIMPLEX_FAMILY, 3, mirrored)
    failure = gc.d_squared_failure
    k = [str(c) + " ; " + ",".join(map(str, fs)) for c, fs in gc.levels[3]].index(
        failure["element"]
    )
    assert k < len(gc.diff[3]) - 1
    # a row past the first failure that a full scan would trip over
    gc.diff[3][k + 1 :] = [{len(gc.diff[2]): 1}] * (len(gc.diff[3]) - k - 1)
    gc.d_squared_failure = None
    assert gc.d_squared_zero
    _check_d_squared(gc)
    assert not gc.d_squared_zero
    assert gc.d_squared_failure == failure
    with pytest.raises(AttributeError):
        gc.d_squared_zero = True


def test_family_bases_enumerate_through_module_globals(monkeypatch):
    # a wrapper set on complexes.enumerate_* sees every basis a build
    # enumerates: perfbench times cell enumeration that way
    calls = []
    for name in ("enumerate_subset_cells", "enumerate_planar_trees"):
        real = getattr(complexes_mod, name)
        monkeypatch.setattr(
            complexes_mod, name, lambda n, real=real, name=name: calls.append((name, n)) or real(n)
        )
    build_complex(SIMPLEX_FAMILY, 2)
    build_complex(TREE_FAMILY, 2)
    trees = [("enumerate_planar_trees", 2), ("enumerate_planar_trees", 3)]
    subsets = [("enumerate_subset_cells", 1), ("enumerate_subset_cells", 2)]
    assert calls == trees + subsets + subsets + trees
