"""Integer coefficients and bilinearity of every product and boundary;
the relations on random combinations past the exhaustive bounds."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trioperad.cells import enumerate_planar_trees, enumerate_subset_cells
from trioperad.dendriform import DEND_OPS, DENDRIFORM_RELATIONS, prec, star, star_power, succ
from trioperad.dendriform import mid as dend_mid
from trioperad.linear import LinComb
from trioperad.trialgebra import (
    TRI_OPS,
    TRIALGEBRA_RELATIONS,
    boundary,
    tri_left,
    tri_mid,
    tri_right,
)

TREES = [t for n in range(2, 5) for t in enumerate_planar_trees(n)]
CELLS = [c for n in range(1, 4) for c in enumerate_subset_cells(n)]

TREE_OPS = {"prec": prec, "succ": succ, "mid": dend_mid, "star": star}
CELL_OPS = {"left": tri_left, "right": tri_right, "mid": tri_mid}
ALL_OPS = [(TREES, op) for op in TREE_OPS.values()] + [
    (CELLS, op) for op in CELL_OPS.values()
]
ALL_IDS = [f"tree-{n}" for n in TREE_OPS] + [f"cell-{n}" for n in CELL_OPS]

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=30, deadline=None
)


def _combination(basis, terms, seed):
    return LinComb(
        (basis[(seed * 7 + 3 * k) % len(basis)], (-1) ** k * (k + 1)) for k in range(terms)
    )


def _ints_only(lin: LinComb) -> bool:
    return all(type(c) is int for _, c in lin)


@pytest.mark.parametrize("basis, op", ALL_OPS, ids=ALL_IDS)
def test_products_of_integer_inputs_have_int_coefficients(basis, op):
    for seed in range(6):
        u = _combination(basis, 3, seed)
        v = _combination(basis, 2, seed + 1)
        out = op(u, v)
        assert out
        assert _ints_only(out)


def test_boundary_and_star_power_have_int_coefficients():
    for seed in range(6):
        out = boundary(_combination(CELLS, 3, seed))
        assert _ints_only(out)
    assert boundary(_combination(CELLS, 3, 5))
    assert _ints_only(star_power(4))


def _lincombs(basis):
    return st.lists(
        st.tuples(st.sampled_from(basis), st.integers(-3, 3)), max_size=3
    ).map(LinComb)


SCALARS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-2, max_value=2, max_denominator=5),
)


@pytest.mark.parametrize("op", TREE_OPS.values(), ids=TREE_OPS.keys())
@PROPERTY_SETTINGS
@given(a=SCALARS, u=_lincombs(TREES), v=_lincombs(TREES), w=_lincombs(TREES))
def test_tree_products_are_bilinear(op, a, u, v, w):
    assert op(a * u + v, w) == a * op(u, w) + op(v, w)
    assert op(w, a * u + v) == a * op(w, u) + op(w, v)


@pytest.mark.parametrize("op", CELL_OPS.values(), ids=CELL_OPS.keys())
@PROPERTY_SETTINGS
@given(a=SCALARS, u=_lincombs(CELLS), v=_lincombs(CELLS), w=_lincombs(CELLS))
def test_cell_products_are_bilinear(op, a, u, v, w):
    assert op(a * u + v, w) == a * op(u, w) + op(v, w)
    assert op(w, a * u + v) == a * op(w, u) + op(w, v)


@PROPERTY_SETTINGS
@given(a=SCALARS, u=_lincombs(CELLS), v=_lincombs(CELLS))
def test_boundary_is_linear(a, u, v):
    assert boundary(a * u + v) == a * boundary(u) + boundary(v)


# ------------------------------------- relations past the exhaustive bounds

# check_trialgebra_relations runs to arity sum 9 and the tree checks to leaf
# sum 10; these draw combinations of larger basis elements instead
BEYOND_SETTINGS = settings(
    derandomize=True, database=None, max_examples=20, deadline=None
)
COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@lru_cache(maxsize=None)
def _basis(enumerate_basis, size):
    return enumerate_basis(size)


@st.composite
def _triple(draw, enumerate_basis, least, totals, terms):
    """x, y, z: combinations of `terms` distinct basis elements each (or of
    all of them, where a size has fewer), of sizes >= least summing to one
    of `totals`."""
    total = draw(st.sampled_from(totals))
    p = draw(st.integers(least, total - 2 * least))
    q = draw(st.integers(least, total - p - least))
    out = []
    for size in (p, q, total - p - q):
        basis = _basis(enumerate_basis, size)
        k = min(draw(st.sampled_from(terms)), len(basis))
        indices = st.integers(0, len(basis) - 1)
        chosen = draw(st.lists(indices, min_size=k, max_size=k, unique=True))
        out.append(LinComb((basis[i], draw(COEFFS)) for i in chosen))
    return tuple(out)


def _rows_hold(ops, rows, x, y, z):
    for a, b, c, d in rows:
        assert ops[b](ops[a](x, y), z) == ops[c](x, ops[d](y, z)), (a, b, c, d)


@BEYOND_SETTINGS
@given(xyz=_triple(enumerate_subset_cells, 1, range(10, 15), (2, 3, 4)))
def test_trialgebra_relations_beyond_the_exhaustive_bound(xyz):
    _rows_hold(TRI_OPS, TRIALGEBRA_RELATIONS, *xyz)


@BEYOND_SETTINGS
@given(xyz=_triple(enumerate_planar_trees, 2, (11, 12), (2,)))
def test_tree_relations_and_star_associativity_beyond_the_exhaustive_bound(xyz):
    _rows_hold(DEND_OPS, DENDRIFORM_RELATIONS + [("star",) * 4], *xyz)
