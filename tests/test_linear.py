"""Exact linear algebra: LinComb and rank."""

import copy
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from trioperad.complexes import (
    SIMPLEX_FACE_CANDIDATES,
    SIMPLEX_FAMILY,
    TREE_FACE_CANDIDATES,
    TREE_FAMILY,
    build_complex,
)
from trioperad.linear import LinComb, as_lincomb, rank


def naive_dense_rank(M):
    """Independent referee: plain Gaussian elimination over Fraction."""
    M = [[Fraction(v) for v in row] for row in M]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pv = M[r][c]
        M[r] = [x / pv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


# ---------------------------------------------------------------- LinComb


def test_lincomb_basics():
    v = LinComb([("a", 1), ("b", 2), ("a", -1)])
    assert v.coeff("a") == 0
    assert v.coeff("b") == 2
    assert len(v) == 1
    assert not LinComb()
    assert LinComb().is_zero()


def test_lincomb_arithmetic():
    u = LinComb([("a", 1), ("b", 1)])
    v = LinComb([("b", -1), ("c", 3)])
    assert (u + v).coeff("b") == 0
    assert (u - v).coeff("c") == -3
    assert (-u).coeff("a") == -1
    assert (2 * u).coeff("b") == 2
    assert 0 * u == LinComb()
    assert u + LinComb() == u


def test_lincomb_scalar_edge():
    u = LinComb([("a", 1), ("b", 2)])
    assert all(type(c) is int for _, c in u)
    assert all(type(c) is int for _, c in 3 * u)
    half = 0.5 * u
    assert half.coeff("a") == Fraction(1, 2)
    assert type(half.coeff("a")) is Fraction
    assert half.coeff("b") == 1
    assert not any(isinstance(c, float) for _, c in half)
    # ints and integral Fractions are the same coefficient
    assert Fraction(2) * u == 2 * u
    assert str(Fraction(2) * u) == str(2 * u) == "2*a + 4*b"
    assert u.coeff("c") == 0


def test_lincomb_str():
    assert str(LinComb()) == "0"
    assert str(LinComb([("a", 1), ("b", -2)])) == "a - 2*b"


def test_as_lincomb():
    assert as_lincomb("a") == LinComb.single("a")
    v = LinComb.single("a")
    assert as_lincomb(v) is v


# ------------------------------------------------------------------- rank


def test_rank_known_matrices():
    assert rank([]) == 0
    assert rank([{0: 1}, {1: 1}, {2: 1}]) == 3
    assert rank([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1
    assert rank([[1, 2], [2, 4], [1, 0]]) == 2
    assert rank([[3, 2]]) == 1
    assert rank([{0: 0}, [0, 0], {}]) == 0
    assert rank([{0: 0, 1: 2}, {1: -3}]) == 1
    # a mapping that is not a dict is read by its items, never by position
    assert rank([MappingProxyType({1: 1}), {0: 1}]) == 2
    assert rank([MappingProxyType({1: 2, 0: 0}), {1: 1}]) == 1


def test_rank_rejects_float_entries():
    for rows in ([[0.5, 0.5], [1, 2]], [{0: 0.5}], [[1, 2.0]]):
        with pytest.raises(TypeError, match="must be int"):
            rank(rows)


def test_rank_rejects_fraction_entries():
    # integral Fractions too: every coefficient in the package is an int
    for rows in ([[Fraction(1, 2), 1]], [{0: 1}, {1: Fraction(2)}], [[Fraction(0), 0]]):
        with pytest.raises(TypeError, match="must be int"):
            rank(rows)


def test_rank_leaves_rows_unchanged():
    cases = [
        rows
        for family in ("simplex", "tree")
        for w in range(1, 6)
        for rows in build_complex(family, w).diff.values()
    ]
    shared = {0: 2, 1: 4}
    cases += [
        # content > 1, explicit zeros, dense rows, one dict passed twice
        [{0: 6, 2: -4}, {0: 3, 1: 0, 2: -2}, {1: 5, 2: 0}],
        [[2, 4, 0], [0, 3, 3], [1, 2, 0], [0, 0, 0]],
        [shared, {1: 1, 2: 1}, shared, {0: 1}],
        [{0: 1, 1: 1, 2: 1}, {0: 1}, {1: 1, 2: 1}],
    ]
    for rows in cases:
        before = copy.deepcopy(rows)
        rank(rows)
        assert rows == before


def test_rank_fill_in_regression():
    # pivot row has support the target row lacks; fill-in must survive
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1}, {1: 1, 2: 1}]
    assert rank(rows) == 2


def test_rank_fuzz_against_independent_referee():
    random.seed(7)
    for _ in range(500):
        m = random.randint(1, 10)
        n = random.randint(1, 10)
        rows = []
        for _ in range(m):
            scale = random.choice((1, 1, 2, 6))
            row = {j: scale * random.randint(-4, 4) for j in range(n) if random.random() < 0.5}
            rows.append({k: v for k, v in row.items() if v})
        dense = [[rows[i].get(j, 0) for j in range(n)] for i in range(m)]
        assert rank(rows) == naive_dense_rank(dense)


def test_rank_fuzz_dependent_rows_against_independent_referee():
    # larger, sparser integer matrices with duplicate rows and sums of
    # rows, so that rows cancel to empty mid-elimination and change
    # length between pivots
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(2, 30)
        n = rng.randint(1, 30)
        density = rng.uniform(0.1, 0.4)
        rows = []
        for _ in range(m):
            pick = rng.random()
            if rows and pick < 0.2:
                rows.append(dict(rng.choice(rows)))
            elif len(rows) > 1 and pick < 0.4:
                a, b = rng.sample(rows, 2)
                s = rng.choice((-1, 1))
                row = {j: a.get(j, 0) + s * b.get(j, 0) for j in a.keys() | b.keys()}
                rows.append({j: v for j, v in row.items() if v})
            else:
                rows.append(
                    {
                        j: rng.choice((-1, 1)) * rng.randint(1, 3)
                        for j in range(n)
                        if rng.random() < density
                    }
                )
        rng.shuffle(rows)
        dense = [[row.get(j, 0) for j in range(n)] for row in rows]
        assert rank(rows) == naive_dense_rank(dense)


def test_rank_fuzz_unit_entries_against_independent_referee():
    # entries in {-1, 0, 1}, as in the complexes' boundary maps
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(20, 40)
        n = rng.randint(5, 40)
        density = rng.uniform(0.05, 0.35)
        rows = [
            {j: rng.choice((-1, 1)) for j in range(n) if rng.random() < density}
            for _ in range(m)
        ]
        dense = [[row.get(j, 0) for j in range(n)] for row in rows]
        assert rank(rows) == naive_dense_rank(dense)


def test_rank_non_unit_kept_entry_content_and_cancellation():
    # Row 0 is kept under column 3 with entry 2 and reduces rows 1-3.
    # Row 1: 2 row 1 - row 0 = (3, 0, -3, 0), content 3, kept under 2.
    # Row 2: 2 row 2 / 3 - row 0 = (1, 0, -1, 0), which cancels against
    # the row kept under 2.  Row 3: (-1, 2, -1, 0) after row 0, then
    # (2, -2, 0, 0) after the row kept under 2, content 2, kept under 1.
    rows = [{0: 1, 2: 1, 3: 2}, {0: 2, 2: -1, 3: 1}, {0: 3, 3: 3}, {1: 2, 3: 2}]
    dense = [[row.get(j, 0) for j in range(4)] for row in rows]
    pivots = []
    assert rank(rows, pivots) == naive_dense_rank(dense) == 3
    assert pivots == [3, 2, 1]


def _check_rank_and_pivots(rows, ncols):
    # the rank, and pivot columns: rank-many, distinct, and the rows
    # restricted to them keep the full rank
    pivots = []
    r = rank(rows, pivots)
    assert r == naive_dense_rank([[row.get(j, 0) for j in range(ncols)] for row in rows])
    assert len(pivots) == len(set(pivots)) == r
    assert naive_dense_rank([[row.get(j, 0) for j in pivots] for row in rows]) == r


def test_rank_pivot_columns_fuzz_against_independent_referee():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 20)
        n = rng.randint(1, 20)
        density = rng.uniform(0.05, 0.5)
        rows = [
            {j: rng.choice((-2, -1, 1, 1, 3)) for j in range(n) if rng.random() < density}
            for _ in range(m)
        ]
        if m > 2:
            a, b = rng.sample(rows, 2)
            rows.append({j: a.get(j, 0) - b.get(j, 0) for j in a.keys() | b.keys()})
        _check_rank_and_pivots(rows, n)


def test_rank_pivot_columns_of_known_matrix():
    pivots = []
    assert rank([{0: 1, 1: 1}, {0: 2, 1: 2}, {2: 5}], pivots) == 2
    assert sorted(pivots) in ([0, 2], [1, 2])
    pivots = []
    assert rank([], pivots) == 0
    assert pivots == []


@pytest.mark.parametrize(
    "family,face",
    [(TREE_FAMILY, face) for _, _, face in TREE_FACE_CANDIDATES]
    + [(SIMPLEX_FAMILY, face) for _, _, face in SIMPLEX_FACE_CANDIDATES],
)
def test_rank_of_boundary_matrices_against_independent_referee(family, face):
    # the matrices rank meets in the program, d^2 = 0 or not
    for w in range(2, 5):
        gc = build_complex(family, w, face)
        for n, rows in gc.diff.items():
            _check_rank_and_pivots(rows, gc.dims()[n - 1])
