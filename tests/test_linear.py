"""Exact linear algebra: LinComb and rank."""

import copy
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from trioperad.complexes import build_complex
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
