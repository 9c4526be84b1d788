"""Generating series over Q[t]: closed forms and compositional identities."""

from fractions import Fraction
from itertools import zip_longest
from random import Random

import pytest

from trioperad.cells import (
    enumerate_cube_cells,
    enumerate_planar_trees,
    enumerate_subset_cells,
)
from trioperad.series import (
    TPoly,
    TSeries,
    f_cube,
    f_delta,
    f_stasheff,
    series_identities_report,
)

# coefficient polynomials frozen from the closed forms, low orders
DELTA_COEFFS = {
    1: TPoly((-1,)),
    2: TPoly((2, 1)),
    3: TPoly((-3, -3, -1)),
    4: TPoly((4, 6, 4, 1)),
}
CUBE_COEFFS = {
    1: TPoly((-1,)),
    2: TPoly((2, 1)),
    3: TPoly((-4, -4, -1)),
    4: TPoly((8, 12, 6, 1)),
}
# cell counts of the polytopes: point, interval, pentagon, 3-dim case
STASHEFF_COEFFS = {
    1: TPoly((-1,)),
    2: TPoly((2, 1)),
    3: TPoly((-5, -5, -1)),
    4: TPoly((14, 21, 9, 1)),
}


# ------------------------------------------------------------------ TPoly


def test_tpoly_basics():
    p = TPoly((1, 2))
    assert p.degree == 1
    assert str(p) == "1 + 2*t"
    assert TPoly((0, 0)).is_zero()
    assert not TPoly((0, 1)).is_zero()
    assert TPoly((1, 0)) == TPoly.const(1)
    # a zero coefficient is skipped, and the zero polynomial reads 0
    assert str(TPoly((1, 0, 1))) == "1 + t^2"
    assert str(TPoly()) == "0"


def test_tpoly_arithmetic():
    t = TPoly((0, 1))
    assert -t == TPoly((0, -1))
    assert 2 * t == TPoly((0, 2))


def test_tpoly_evaluate():
    p = TPoly((1, 2, 1))
    assert p.evaluate(Fraction(0)) == 1
    assert p.evaluate(Fraction(1)) == 4
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)


def test_evaluate_at_integer_t_gives_ints():
    fs = f_stasheff(12)
    for t in (0, 1, -1):
        values = fs.evaluate_t(t)
        assert all(type(v) is int for v in values), t
    assert values[1:4] == [-1, 1, -1]
    # a rational t keeps exact Fractions, ints where the value is integral
    halves = fs.evaluate_t(Fraction(1, 2))
    assert halves[2] == Fraction(5, 2) and type(halves[2]) is Fraction
    assert all(type(v) in (int, Fraction) for v in halves)


# ----------------------------------------------------------------- TSeries


def test_tseries_compose_and_invert():
    # g = x/(1-x), its inverse is x/(1+x)
    order = 8
    g = TSeries(order, (TPoly.const(0),) + tuple(TPoly.const(1) for _ in range(order)))
    h = g.invert()
    assert g.compose(h) == TSeries.x(order)
    assert h.compose(g) == TSeries.x(order)
    signs = [h.coeffs[n].evaluate(Fraction(0)) for n in range(1, order + 1)]
    assert signs == [(-1) ** (n - 1) for n in range(1, order + 1)]


def _poly_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _poly_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _naive_compose(f, g):
    """Reference f(g): sum_k f_k g^k, each g^k the schoolbook truncated
    product of g^(k-1) and g, on coefficient tuples."""
    n = f.order
    fr, gr = [c.coeffs for c in f.coeffs], [c.coeffs for c in g.coeffs]
    total, power = [[] for _ in range(n + 1)], [[1]] + [[] for _ in range(n)]
    for k in range(n + 1):
        for m in range(n + 1):
            total[m] = _poly_add(total[m], _poly_mul(fr[k], power[m]))
        product = [[] for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1 - i):
                product[i + j] = _poly_add(product[i + j], _poly_mul(power[i], gr[j]))
        power = product
    return TSeries(n, [TPoly(c) for c in total])


def _random_series(rng, order, start, linear=None, low=-3, high=3, degree=2):
    """Coefficients of degree up to degree in t, each entry drawn from
    low..high, about a third of them zero, below x^start all zero;
    linear, if given, fixes x^1."""
    cs = [
        TPoly([rng.randint(low, high) for _ in range(rng.randint(0, degree + 1))])
        if n >= start and rng.random() > 0.3 else TPoly()
        for n in range(order + 1)
    ]
    if linear is not None:
        cs[1] = TPoly.const(linear)
    return TSeries(order, cs)


def _seeded_cases():
    """(f, g, h) per seed and order: f with a constant term (nonzero on
    even seeds), g with none, h with none and a linear coefficient of
    +-1 (None at order 0, where invert is undefined).  Three kinds: small
    entries at orders 0..12; entries up to +-2^90 of degree up to 4 in t,
    so that the packing width spans several machine words; and entries
    all positive (h's linear coefficient -1), so that nothing cancels and
    an output reaches the majorant that sets the width; then one fixed
    case."""
    for seed in range(4):
        rng = Random(seed)
        for order in range(13):
            f = _random_series(rng, order, 0)
            if seed % 2 == 0:
                f = TSeries(order, (TPoly((rng.choice((-2, 1, 3)), 1)),) + f.coeffs[1:])
            g = _random_series(rng, order, 1)
            h = _random_series(rng, order, 1, rng.choice((1, -1))) if order else None
            yield f, g, h
    big = {"low": -(2**90), "high": 2**90, "degree": 4}
    for seed in range(4, 6):
        rng = Random(seed)
        for order in range(9):
            f = _random_series(rng, order, 0, **big)
            g = _random_series(rng, order, 1, **big)
            h = _random_series(rng, order, 1, rng.choice((1, -1)), **big) if order else None
            yield f, g, h
    for seed in range(6, 10):
        rng = Random(seed)
        # constant entries on even seeds: each output is then its own
        # majorant, so the largest one needs every bit of the width
        positive = {"low": 1, "high": 2**rng.randint(1, 40), "degree": 2 * (seed % 2)}
        for order in range(11):
            f = _random_series(rng, order, 0, **positive)
            g = _random_series(rng, order, 1, **positive)
            h = _random_series(rng, order, 1, -1, **positive) if order else None
            yield f, g, h
    # invert's majorant has linear coefficient -1: its inverse's x^3
    # coefficient here is -4, and the same norms with +1 would bound it by 1
    h = TSeries(3, (0, -1, 1, 2))
    yield h, h, h


def test_compose_and_invert_match_naive_reference():
    # every series the certificate composes has f_0 = 0, and compose and
    # invert share their power sums; a schoolbook reference checks both
    saw_constant = saw_zero_f = saw_zero_g = False
    for f, g, h in _seeded_cases():
        saw_constant |= not f.coeffs[0].is_zero()
        saw_zero_f |= any(c.is_zero() for c in f.coeffs[1:])
        saw_zero_g |= any(c.is_zero() for c in g.coeffs[1:])
        assert f.compose(g) == _naive_compose(f, g), (f, g)
        if h is not None:
            inv = h.invert()
            assert _naive_compose(h, inv) == TSeries.x(h.order), h
            assert _naive_compose(inv, h) == TSeries.x(h.order), h
            assert h.compose(inv) == TSeries.x(h.order), h
    assert saw_constant and saw_zero_f and saw_zero_g


def test_compose_and_invert_take_int_coefficients_only():
    # a rational scalar makes a Fraction coefficient, which has no value
    # at t = 2^b to pack
    half = TSeries(4, (0, 1, TPoly((Fraction(1, 2),))))
    with pytest.raises(TypeError, match="must be int"):
        half.compose(half)
    with pytest.raises(TypeError, match="must be int"):
        TSeries.x(4).compose(half)
    with pytest.raises(TypeError, match="must be int"):
        half.invert()


@pytest.mark.parametrize(
    "call, why",
    [
        (lambda: TSeries(-1), "order must be >= 0"),
        (lambda: TSeries.x(3).compose(TSeries.x(4)), "orders differ"),
        (lambda: TSeries.x(3).compose(TSeries(3, (1, 1))), "zero constant term"),
        (lambda: TSeries(3, (1, 1)).invert(), "zero constant term"),
    ],
    ids=["negative order", "orders differ", "compose constant term", "invert constant term"],
)
def test_guards_refuse_a_series_they_cannot_take(call, why):
    with pytest.raises(ValueError, match=why):
        call()


def test_tseries_invert_order_zero():
    with pytest.raises(ValueError, match="order >= 1"):
        TSeries(0).invert()


def test_tseries_invert_needs_a_unit_linear_coefficient():
    # only 1 and -1 are their own inverses: the inverse stays integral
    with pytest.raises(ValueError, match="1 or -1"):
        TSeries(4, (0, 2)).invert()


# ------------------------------------------------------------ the series


def test_delta_series_closed_form():
    fd = f_delta(6)
    for n, want in DELTA_COEFFS.items():
        assert fd.coeffs[n] == want


def test_cube_series_closed_form():
    fc = f_cube(6)
    for n, want in CUBE_COEFFS.items():
        assert fc.coeffs[n] == want


def test_stasheff_series_low_orders():
    fk = f_stasheff(6)
    for n, want in STASHEFF_COEFFS.items():
        assert fk.coeffs[n] == want


def test_stasheff_is_compositional_inverse_of_delta():
    order = 10
    fd, fk = f_delta(order), f_stasheff(order)
    x = TSeries.x(order)
    assert fd.compose(fk) == x
    assert fk.compose(fd) == x
    assert fd.invert() == fk


def test_cube_series_self_inverse():
    fc = f_cube(10)
    assert fc.compose(fc) == TSeries.x(10)
    assert fc.invert() == fc


def test_stasheff_counts_at_corners():
    fk = f_stasheff(8)
    at0 = [abs(v) for v in fk.evaluate_t(Fraction(0))[1:]]
    at1 = [abs(v) for v in fk.evaluate_t(Fraction(1))[1:]]
    assert at0 == [1, 2, 5, 14, 42, 132, 429, 1430]  # Catalan C_1..C_8
    assert at1 == [1, 3, 11, 45, 197, 903, 4279, 20793]  # super-Catalan


@pytest.mark.parametrize(
    "maker, cells_of_arity",
    [
        (f_delta, enumerate_subset_cells),
        (f_stasheff, lambda n: enumerate_planar_trees(n + 1)),
        (f_cube, enumerate_cube_cells),
    ],
)
def test_series_match_enumerated_cells(maker, cells_of_arity):
    # [x^n] is (-1)^n times the degree polynomial of the arity-n cells
    fs = maker(7)
    for n in range(1, 8):
        counts = [0] * n
        for cell in cells_of_arity(n):
            counts[cell.degree] += 1
        assert fs.coeffs[n] == TPoly(counts) * (-1) ** n, n


def test_every_counting_series_at_t_minus_one_is_minus_x_over_one_plus_x():
    # the Euler characteristic of each cell complex: sum_d (-1)^d (cells
    # of dimension d) is 1, so [x^n] at t = -1 is (-1)^n
    for maker in (f_delta, f_stasheff, f_cube):
        values = maker(60).evaluate_t(-1)
        assert values[0] == 0
        assert all(values[n] == (-1) ** n for n in range(1, 61)), maker.__name__


def test_full_report():
    # order 16 checks the Catalan and super-Catalan references past
    # their first 12 terms
    for order in (12, 16):
        report = series_identities_report(order)
        assert report["passed"], report
        assert report["order"] == order
        assert len(report["checks"]) == 10
        assert all(entry["passed"] for entry in report["checks"])
