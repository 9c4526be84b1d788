"""Weight-graded chain complexes: faces, d^2 = 0, homology, conventions."""

import pytest

from trioperad.cells import LEAF, graft, parse_subset_cell as cell, parse_tree
from trioperad.complexes import (
    SIMPLEX_FACE_CANDIDATES,
    SIMPLEX_FACE_TABLE,
    SIMPLEX_FAMILY,
    TREE_FACE_CANDIDATES,
    TREE_FACE_LEAF_OFFSET,
    TREE_FAMILY,
    build_complex,
    collapse_vertex,
    expected_betti,
    face_convention_sweep,
    face_map,
    homology_ranks,
    level_dims,
    simplex_convention_sweep,
    simplex_face,
    simplex_face_product,
    tree_face,
)
from trioperad.linear import LinComb

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


def test_simplex_face_table_pinned():
    # mid when both endpoints are in the subset, star when neither;
    # the mixed rows are the orientation pinned by simplex_convention_sweep
    assert SIMPLEX_FACE_TABLE[(True, True)] == "mid"
    assert SIMPLEX_FACE_TABLE[(False, False)] == "star"
    assert SIMPLEX_FACE_TABLE[(True, False)] == "prec"
    assert SIMPLEX_FACE_TABLE[(False, True)] == "succ"


def test_simplex_face_product_reads_membership():
    assert simplex_face_product(1, cell("{1,2}@3")) == "mid"
    assert simplex_face_product(2, cell("{1}@3")) == "star"
    assert simplex_face_product(1, cell("{1}@3")) == "prec"
    assert simplex_face_product(1, cell("{2}@3")) == "succ"


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
    for w in range(1, 13):
        simplex, tree = (sum(level_dims(f, w).values()) for f in (SIMPLEX_FAMILY, TREE_FAMILY))
        assert simplex == 6 ** (w - 1)
        # the cap in `complex build` refuses by 6^(w-1) before counting
        assert tree >= simplex
    assert [sum(level_dims(TREE_FAMILY, w).values()) for w in (5, 6, 7)] == [1512, 10392, 73440]


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
    # the mirrored face table (prec and succ swapped on the mixed rows)
    mirrored = {
        (True, True): "mid",
        (True, False): "succ",
        (False, True): "prec",
        (False, False): "star",
    }
    gc = build_complex(SIMPLEX_FAMILY, 3, simplex_face(mirrored))
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
