"""Generating series over Q[t]: closed forms and compositional identities."""

from fractions import Fraction

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


def test_tpoly_arithmetic():
    t = TPoly((0, 1))
    assert -t == TPoly((0, -1))
    assert 2 * t == TPoly((0, 2))


def test_tpoly_evaluate():
    p = TPoly((1, 2, 1))
    assert p.evaluate(Fraction(0)) == 1
    assert p.evaluate(Fraction(1)) == 4
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)


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


def test_full_report():
    # order 16 checks the Catalan and super-Catalan references past
    # their first 12 terms
    for order in (12, 16):
        report = series_identities_report(order)
        assert report["passed"], report
        assert report["order"] == order
        assert len(report["checks"]) == 10
        assert all(entry["passed"] for entry in report["checks"])
