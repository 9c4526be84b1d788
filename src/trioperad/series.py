"""Exact generating series in x with polynomial-in-t coefficients.

``TPoly`` is a polynomial in t; ``TSeries`` is a truncated power series in
x whose coefficients are TPolys.  Everything is exact.  Every coefficient
of the three cell-counting series is an integer, and building them,
composing them and inverting them (``invert`` takes a linear coefficient
of +-1 only) runs on integers alone.  ``Fraction`` appears only at the
API edge: ``TPoly.evaluate`` at a rational t (the ``--t-eval`` option)
and the scalar ``TPoly.__mul__`` by a rational.

The three cell-counting series are the roots with f(0) = 0 of one
equation, (1 + (2+t)x) f + (1+t) q(f) + x = 0, and differ only in q(f):

* ``f_delta``    q(f) = x^2 f: -x / ((1+x)(1+(1+t)x))          simplex cells
* ``f_stasheff`` q(f) = x f^2: (-(1+(2+t)x) + sqrt(1+2(2+t)x+t^2 x^2))
                               / (2(1+t)x)                      planar trees
* ``f_cube``     q(f) = 0:     -x / (1+(2+t)x)                  cube cells

f_delta and f_stasheff are mutually inverse under composition; f_cube is
its own compositional inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _addmul(acc: list, a, b) -> None:
    """acc += a*b on raw coefficient sequences (index = power of t)."""
    if not a or not b:
        return
    need = len(a) + len(b) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                acc[k] += ai * bj


class TPoly:
    """Polynomial in t with exact coefficients, stored as given, trailing
    zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_strip(list(coeffs)))

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "TPoly":
        """The scalar multiple by an int or a Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return TPoly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def evaluate(self, q):
        """The value at t = q, exact: an int when the value is integral, a
        Fraction otherwise."""
        if not isinstance(q, int):
            q = Fraction(q)
        val = 0
        for c in reversed(self.coeffs):
            val = val * q + c
        val = Fraction(val)
        return val.numerator if val.denominator == 1 else val

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("tpoly", self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                tk = "t" if k == 1 else f"t^{k}"
                body = tk if mag == 1 else f"{mag}*{tk}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


_ZERO = TPoly()
_ONE = TPoly((1,))


class TSeries:
    """Power series in x, truncated at a fixed order, TPoly coefficients.

    Composition and inversion work on the raw coefficient tuples of the
    TPolys and wrap the result once.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [c if isinstance(c, TPoly) else TPoly.const(c) for c in coeffs]
        cs = cs[: order + 1]
        cs += [_ZERO] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls, order: int) -> "TSeries":
        return cls(order, (_ZERO, _ONE))

    @classmethod
    def _from_raw(cls, order: int, rows) -> "TSeries":
        return cls(order, [TPoly(r) for r in rows])

    def _raw(self) -> list:
        return [c.coeffs for c in self.coeffs]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def compose(self, g: "TSeries") -> "TSeries":
        """self(g(x)); g must have no constant term.

        Sums f_k g^k over the truncated powers of g, each computed once
        from the previous one; g^k starts at x^k, so the product
        g^(k-1) * g only touches the coefficients that can survive.
        """
        if self.order != g.order:
            raise ValueError("truncation orders differ")
        if not g.coeffs[0].is_zero():
            raise ValueError("composition needs a series with zero constant term")
        n = self.order
        f, graw = self._raw(), g._raw()
        out = [list(f[0])] + [[] for _ in range(n)]
        power = graw
        for k in range(1, n + 1):
            if k > 1:
                power = _series_mul(power, graw, n)
            if f[k]:
                for m in range(k, n + 1):
                    _addmul(out[m], f[k], power[m])
        return TSeries._from_raw(n, out)

    def invert(self) -> "TSeries":
        """Compositional inverse; needs zero constant term and a linear
        coefficient of 1 or -1, each its own inverse, so the inverse has
        integer coefficients too.

        Solves self(g) = x one coefficient at a time while building the
        powers of g alongside (the compose above, run online): [x^m] g^k
        for k >= 2 needs only g_1..g_(m-1), and
        [x^m] self(g) = c1 g_m + sum_{k>=2} f_k [x^m] g^k = 0 for m >= 2.
        """
        if self.order < 1:
            raise ValueError("compositional inverse needs order >= 1")
        if not self.coeffs[0].is_zero():
            raise ValueError("compositional inverse needs zero constant term")
        c1 = self.coeffs[1].coeffs
        if c1 not in ((1,), (-1,)):
            raise ValueError("compositional inverse needs a linear coefficient of 1 or -1")
        n = self.order
        f = self._raw()
        g = [(), c1] + [()] * (n - 1)
        # powers[k][m] = [x^m] g^k; powers[1] is g itself, filled as it grows
        powers = [None, g] + [[()] * (n + 1) for _ in range(n - 1)]
        for m in range(2, n + 1):
            acc: list = []
            for k in range(2, m + 1):
                prev = powers[k - 1]
                pk: list = []
                for j in range(1, m - k + 2):
                    _addmul(pk, g[j], prev[m - j])
                powers[k][m] = tuple(_strip(pk))
                _addmul(acc, f[k], powers[k][m])
            # g_m = -acc / c1, and c1 is its own inverse
            g[m] = tuple(_strip([-c1[0] * c for c in acc]))
        return TSeries._from_raw(n, g)

    def evaluate_t(self, q) -> list:
        return [c.evaluate(q) for c in self.coeffs]

    def __str__(self) -> str:
        parts = [
            f"({c})*x^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _series_mul(a: list, b: list, order: int) -> list:
    """Truncated product of two raw series (lists of raw TPoly coefficients)."""
    out: list = [[] for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if ai:
            for j in range(order + 1 - i):
                _addmul(out[i + j], ai, b[j])
    return [tuple(_strip(c)) for c in out]


# =====================================================================
# the three cell-counting series
# =====================================================================


def _counting_series(order: int, quadratic) -> TSeries:
    """The root with f(0) = 0 of (1 + (2+t)x) f + (1+t) q(f) + x = 0.

    Read at x^n this is the integer recurrence
    f_n = -[n=1] - (2+t) f_(n-1) - (1+t) [x^n] q(f),
    where quadratic(f, n) is the raw [x^n] q(f), read from f_1..f_(n-1);
    so no square root and no division is needed.
    """
    f: list = [()] * (order + 1)
    for n in range(1, order + 1):
        acc: list = [-1] if n == 1 else []
        _addmul(acc, (-2, -1), f[n - 1])
        _addmul(acc, (-1, -1), quadratic(f, n))
        f[n] = tuple(_strip(acc))
    return TSeries._from_raw(order, f)


def _stasheff_square(f: list, n: int) -> list:
    """[x^n] x f^2 = sum_{i+j=n-1} f_i f_j; f_0 = 0 drops the end terms."""
    conv: list = []
    for i in range(1, n - 1):
        _addmul(conv, f[i], f[n - 1 - i])
    return conv


def f_delta(order: int) -> TSeries:
    """-x / ((1+x)(1+(1+t)x)); coefficient of x^n is (-1)^n ((1+t)^n-1)/t."""
    return _counting_series(order, lambda f, n: f[n - 2] if n > 1 else ())


def f_cube(order: int) -> TSeries:
    """-x / (1+(2+t)x); coefficient of x^n is (-1)^n (2+t)^(n-1)."""
    return _counting_series(order, lambda f, n: ())


def f_stasheff(order: int) -> TSeries:
    """The root with f(0) = 0 of (1+t) x f^2 + (1+(2+t)x) f + x = 0."""
    return _counting_series(order, _stasheff_square)


def catalan_numbers(n: int) -> list[int]:
    """C_1..C_n, by C_(m+1) = 2(2m+1) C_m / (m+2)."""
    out, c = [], 1
    for m in range(n):
        c = c * 2 * (2 * m + 1) // (m + 2)
        out.append(c)
    return out


def super_catalan_numbers(n: int) -> list[int]:
    """Super-Catalan (little Schroeder) numbers s_1..s_n = 1, 3, 11, 45, ...
    by (m+1) s_m = 3(2m-1) s_(m-1) - (m-2) s_(m-2), s_0 = s_1 = 1."""
    s = [1, 1]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[1 : n + 1]


def series_identities_report(order: int = 12) -> dict:
    """All series-level identities at the given truncation order."""
    fd = f_delta(order)
    fk = f_stasheff(order)
    fc = f_cube(order)
    x = TSeries.x(order)

    def poly_formula_delta(n: int) -> TPoly:
        # (-1)^n ((1+t)^n - 1) / t, whose t^d coefficient is binom(n, d+1)
        p = TPoly(tuple(comb(n, d + 1) for d in range(n)))
        return p if n % 2 == 0 else -p

    def poly_formula_cube(n: int) -> TPoly:
        # (-1)^n (2+t)^(n-1), whose t^d coefficient is binom(n-1, d) 2^(n-1-d)
        p = TPoly(tuple(comb(n - 1, d) * 2 ** (n - 1 - d) for d in range(n)))
        return p if n % 2 == 0 else -p

    # |x^n coefficient| at t=0 counts the vertices of the n-th polytope,
    # the binary trees with n+1 leaves: Catalan numbers C_1..C_order; at
    # t=1 it counts all its cells, all planar trees with n+1 leaves
    catalan = catalan_numbers(order)
    super_catalan = super_catalan_numbers(order)

    checks = [
        ("delta_closed_form", all(
            fd.coeffs[n] == poly_formula_delta(n) for n in range(1, order + 1)
        )),
        ("cube_closed_form", all(
            fc.coeffs[n] == poly_formula_cube(n) for n in range(1, order + 1)
        )),
        ("delta_of_stasheff_is_x", fd.compose(fk) == x),
        ("stasheff_of_delta_is_x", fk.compose(fd) == x),
        ("invert_delta_equals_stasheff", fd.invert() == fk),
        ("cube_self_inverse_compose", fc.compose(fc) == x),
        ("invert_cube_equals_cube", fc.invert() == fc),
        ("stasheff_at_t0_catalan", [
            abs(v) for v in fk.evaluate_t(0)[1:]
        ] == catalan),
        ("stasheff_at_t1_super_catalan", [
            abs(v) for v in fk.evaluate_t(1)[1:]
        ] == super_catalan),
        ("stasheff_signs_alternate", all(
            fk.evaluate_t(1)[n] * (-1) ** n > 0 for n in range(1, order + 1)
        )),
    ]
    return {
        "passed": all(ok for _, ok in checks),
        "order": order,
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
    }
