"""The bitmask cell operations against their definitions on sorted tuples.

The reference functions below work on a cell written as (arity, sorted
element tuple), the form the operations had before cells became masks.
They are the independent referee: every mask operation must produce the
same literal on every case in the bounds below, and the bilinear
products and boundary, which work on cell keys, must equal the
term-by-term sums of the reference on linear combinations.
"""

import itertools
import random
from fractions import Fraction

import pytest

from trioperad.cells import cell_of_key, parse_subset_cell
from trioperad.complexes import MIRRORED_PAIRING, PAIRING, collapse_vertex, simplex_face
from trioperad.dendriform import DEND_OPS
from trioperad.linear import LinComb
from trioperad.trialgebra import KEY_OPS, boundary, gamma, tri_left, tri_mid, tri_right

# the simplex face products by membership of i, i+1 in the coefficient, as
# literal tables (all four rows distinct), under each pairing
FACE_TABLES = [
    (
        PAIRING,
        {(True, True): "mid", (True, False): "prec", (False, True): "succ", (False, False): "star"},
    ),
    (
        MIRRORED_PAIRING,
        {(True, True): "mid", (True, False): "succ", (False, True): "prec", (False, False): "star"},
    ),
]


# ------------------------------------------------------- tuple reference


def ref_cells(n):
    """Every nonempty subset of {1..n} as (n, sorted tuple)."""
    return [
        (n, elems)
        for k in range(1, n + 1)
        for elems in itertools.combinations(range(1, n + 1), k)
    ]


def ref_literal(cell):
    arity, elems = cell
    return "{" + ",".join(str(e) for e in elems) + "}@" + str(arity)


def ref_gamma(outer, args):
    offsets = [0] * (outer[0] + 1)
    for j, a in enumerate(args, start=1):
        offsets[j] = offsets[j - 1] + a[0]
    elems = []
    for j in outer[1]:
        elems.extend(e + offsets[j - 1] for e in args[j - 1][1])
    return (offsets[-1], tuple(elems))


def ref_left(x, y):
    return (x[0] + y[0], x[1])


def ref_right(x, y):
    return (x[0] + y[0], tuple(e + x[0] for e in y[1]))


def ref_mid(x, y):
    return (x[0] + y[0], x[1] + tuple(e + x[0] for e in y[1]))


def ref_boundary(x):
    arity, elems = x
    if len(elems) == 1:
        return []
    return [((arity, elems[:r] + elems[r + 1 :]), (-1) ** r) for r in range(len(elems))]


def ref_collapse_vertex(x, i):
    arity, elems = x
    return (arity - 1, tuple(sorted({e if e <= i else e - 1 for e in elems})))


def ref_face_product(i, x, table):
    return table[(i in x[1], (i + 1) in x[1])]


def mask_cell(ref):
    return parse_subset_cell(ref_literal(ref))


# ------------------------------------------------------------- the cases


def test_gamma_matches_reference():
    cells_upto_3 = [c for n in range(1, 4) for c in ref_cells(n)]
    cases = 0
    for n in range(1, 4):
        for outer in ref_cells(n):
            for args in itertools.product(cells_upto_3, repeat=n):
                got = gamma(mask_cell(outer), [mask_cell(a) for a in args])
                assert got.literal() == ref_literal(ref_gamma(outer, args)), (outer, args)
                cases += 1
    assert cases == 1 * 11 + 3 * 11**2 + 7 * 11**3


@pytest.mark.parametrize(
    "name, ref", [("left", ref_left), ("right", ref_right), ("mid", ref_mid)]
)
def test_products_match_reference(name, ref):
    op = KEY_OPS[name]
    cases = 0
    for p in range(1, 8):
        for q in range(1, 9 - p):
            for x in ref_cells(p):
                for y in ref_cells(q):
                    got = cell_of_key(op(mask_cell(x).key, mask_cell(y).key))
                    assert got.literal() == ref_literal(ref(x, y)), (x, y)
                    cases += 1
    assert cases == sum(
        (2**p - 1) * (2**q - 1) for p in range(1, 8) for q in range(1, 9 - p)
    )


def test_boundary_and_faces_match_reference():
    faces = [(simplex_face(pairing), table) for pairing, table in FACE_TABLES]
    cases = 0
    for n in range(1, 8):
        for x in ref_cells(n):
            cell = mask_cell(x)
            got = sorted((b.literal(), c) for b, c in boundary(cell))
            assert got == sorted((ref_literal(b), c) for b, c in ref_boundary(x)), x
            assert cell.degree == len(x[1]) - 1
            for i in range(1, n):
                low = collapse_vertex(cell, i)
                assert low.literal() == ref_literal(ref_collapse_vertex(x, i)), (x, i)
                for face, table in faces:
                    op = face(cell, {})[i - 1][1]
                    assert op is DEND_OPS[ref_face_product(i, x, table)], (x, i)
            cases += 1
    assert cases == sum(2**n - 1 for n in range(1, 8))


# ------------------------------------------- products on combinations


def ref_sum(terms):
    """{literal: coefficient} of a sum of (reference cell, coefficient)
    terms, cancelled terms dropped, and whether any term cancelled."""
    out = {}
    for cell, c in terms:
        lit = ref_literal(cell)
        out[lit] = out.get(lit, 0) + c
    return {k: v for k, v in out.items() if v}, any(v == 0 for v in out.values())


def as_arg(terms):
    """The argument for a list of (reference cell, coefficient) terms: a
    bare cell for one term with coefficient 1, else a LinComb."""
    if len(terms) == 1 and terms[0][1] == 1:
        return mask_cell(terms[0][0])
    return LinComb((mask_cell(r), c) for r, c in terms)


def literals(lin):
    return {b.literal(): c for b, c in lin}


COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
REF_BASIS = [c for n in range(1, 5) for c in ref_cells(n)]


def random_terms(rng):
    # arities 1..4, repeats allowed, so terms meet and cancel
    return [(rng.choice(REF_BASIS), rng.choice(COEFFS)) for _ in range(rng.randint(1, 5))]


# fixed inputs, as (reference cell, coefficient) terms, whose products
# cancel or that sit at the edges: a bare cell, coefficient -1, the zero
# combination, Fraction coefficients that multiply to 1
FIXED_PAIRS = [
    ([((1, (1,)), 1)], [((2, (1,)), 1), ((2, (2,)), -1)]),
    ([((2, (1,)), 1), ((2, (2,)), -1)], [((1, (1,)), 1)]),
    ([((1, (1,)), 1), ((2, (1,)), -1)], [((2, (2,)), 1), ((1, (1,)), 1)]),
    ([((3, (1, 3)), -1)], [((2, (1, 2)), 1)]),
    ([((2, (2,)), Fraction(2, 3))], [((1, (1,)), Fraction(3, 2))]),
    ([], [((1, (1,)), 1)]),
    ([((3, (2,)), 2)], []),
]


@pytest.mark.parametrize(
    "op, ref",
    [(tri_left, ref_left), (tri_right, ref_right), (tri_mid, ref_mid)],
    ids=["left", "right", "mid"],
)
def test_products_match_reference_on_combinations(op, ref):
    rng = random.Random(13)
    pairs = FIXED_PAIRS + [(random_terms(rng), random_terms(rng)) for _ in range(400)]
    cancelled = 0
    for xs, ys in pairs:
        want, gone = ref_sum(
            (ref(x, y), cx * cy) for x, cx in xs for y, cy in ys
        )
        got = op(as_arg(xs), as_arg(ys))
        assert isinstance(got, LinComb)
        assert literals(got) == want, (xs, ys)
        cancelled += gone
    assert cancelled > 0


def test_boundary_matches_reference_on_combinations():
    rng = random.Random(13)
    inputs = [xs for xs, _ in FIXED_PAIRS] + [
        [((3, (1, 2)), 1), ((3, (1, 3)), -1)],
        [((2, (1, 2)), Fraction(1, 2))],
    ]
    inputs += [random_terms(rng) for _ in range(400)]
    cancelled = 0
    for xs in inputs:
        want, gone = ref_sum((b, cx * c) for x, cx in xs for b, c in ref_boundary(x))
        assert literals(boundary(as_arg(xs))) == want, xs
        cancelled += gone
    assert cancelled > 0
