"""Exact generating series in x with polynomial-in-t coefficients.

``TPoly`` is a polynomial in t over the rationals; ``TSeries`` is a
truncated power series in x whose coefficients are TPolys.  Everything is
exact.  Coefficients are stored as ``int`` and become ``Fraction`` only
where a value is truly non-integral (a rational scalar, evaluation at a
rational t, a general ``reciprocal``/``invert``).  Every coefficient of
the three cell-counting series is an integer, so building them,
composing them and inverting them runs on integers alone.

The three cell-counting series:

* ``f_delta``    -x / ((1+x)(1+(1+t)x))            simplex cells
* ``f_stasheff`` the root with f(0) = 0 of
                 (1+t) x f^2 + (1+(2+t)x) f + x = 0, that is
                 (-(1+(2+t)x) + sqrt(1+2(2+t)x+t^2 x^2)) / (2(1+t)x)
* ``f_cube``     -x / (1+(2+t)x)                   cube cells

f_delta and f_stasheff are mutually inverse under composition; f_cube is
its own compositional inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


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
    """Polynomial in t with exact coefficients (int where integral,
    Fraction otherwise), trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_strip([_exact(c) for c in coeffs]))

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls((c,))

    @classmethod
    def t(cls) -> "TPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "TPoly") -> "TPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return TPoly(tuple(c + b[i] if i < len(b) else c for i, c in enumerate(a)))

    def __sub__(self, other: "TPoly") -> "TPoly":
        return self + (-other)

    def __neg__(self) -> "TPoly":
        return TPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "TPoly":
        if isinstance(other, (int, Fraction)):
            return TPoly(tuple(c * other for c in self.coeffs))
        out: list = []
        _addmul(out, self.coeffs, other.coeffs)
        return TPoly(out)

    __rmul__ = __mul__

    def evaluate(self, q):
        """The value at t = q, exact: an int when q and the value are
        integral, a Fraction otherwise."""
        q = _exact(q)
        val = 0
        for c in reversed(self.coeffs):
            val = val * q + c
        return _exact(val)

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


def _scaled(acc: list, s) -> tuple:
    """The raw coefficients s*acc, trailing zeros stripped."""
    return tuple(_strip([_exact(c * s) for c in acc]))


class TSeries:
    """Power series in x, truncated at a fixed order, TPoly coefficients.

    Products, reciprocals, composition and inversion work on the raw
    coefficient tuples of the TPolys and wrap the result once.
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

    def _check(self, other: "TSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __neg__(self) -> "TSeries":
        return TSeries(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "TSeries":
        if isinstance(other, (int, Fraction, TPoly)):
            p = other if isinstance(other, TPoly) else TPoly.const(other)
            return TSeries(self.order, tuple(c * p for c in self.coeffs))
        self._check(other)
        return TSeries._from_raw(self.order, _series_mul(self._raw(), other._raw(), self.order))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def shift_up(self) -> "TSeries":
        """Multiply by x."""
        return TSeries(self.order, (_ZERO,) + self.coeffs[:-1])

    def reciprocal(self) -> "TSeries":
        """Multiplicative inverse; the constant term must be a nonzero
        rational constant (degree-0 TPoly)."""
        c0 = self.coeffs[0]
        if c0.is_zero() or c0.degree > 0:
            raise ValueError("reciprocal needs a nonzero constant (in t) leading term")
        inv0 = _exact(Fraction(1) / c0.coeffs[0])
        a = self._raw()
        out = [(inv0,)]
        for n in range(1, self.order + 1):
            acc: list = []
            for k in range(1, n + 1):
                _addmul(acc, a[k], out[n - k])
            out.append(_scaled(acc, -inv0))
        return TSeries._from_raw(self.order, out)

    def compose(self, g: "TSeries") -> "TSeries":
        """self(g(x)); g must have no constant term.

        Sums f_k g^k over the truncated powers of g, each computed once
        from the previous one; g^k starts at x^k, so the product
        g^(k-1) * g only touches the coefficients that can survive.
        """
        self._check(g)
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
        coefficient that is a nonzero rational constant (here always +-1).

        Solves self(g) = x one coefficient at a time while building the
        powers of g alongside (the compose above, run online): [x^m] g^k
        for k >= 2 needs only g_1..g_(m-1), and
        [x^m] self(g) = c1 g_m + sum_{k>=2} f_k [x^m] g^k = 0 for m >= 2.
        """
        if self.order < 1:
            raise ValueError("compositional inverse needs order >= 1")
        if not self.coeffs[0].is_zero():
            raise ValueError("compositional inverse needs zero constant term")
        c1 = self.coeffs[1]
        if c1.is_zero() or c1.degree > 0:
            raise ValueError("linear coefficient must be a nonzero constant in t")
        n = self.order
        f = self._raw()
        inv_c1 = _exact(Fraction(1) / c1.coeffs[0])
        g = [(), (inv_c1,)] + [()] * (n - 1)
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
            g[m] = _scaled(acc, -inv_c1)
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


def f_delta(order: int) -> TSeries:
    """-x / ((1+x)(1+(1+t)x)); coefficient of x^n is (-1)^n ((1+t)^n-1)/t."""
    one_plus_t = TPoly((1, 1))
    d1 = TSeries(order, (_ONE, _ONE))
    d2 = TSeries(order, (_ONE, one_plus_t))
    return -(d1 * d2).reciprocal().shift_up()


def f_cube(order: int) -> TSeries:
    """-x / (1+(2+t)x); coefficient of x^n is (-1)^n (2+t)^(n-1)."""
    den = TSeries(order, (_ONE, TPoly((2, 1))))
    return -den.reciprocal().shift_up()


def f_stasheff(order: int) -> TSeries:
    """The root with f(0) = 0 of (1+t) x f^2 + (1+(2+t)x) f + x = 0.

    Read at x^n this is the integer recurrence
    f_n = -[n=1] - (2+t) f_(n-1) - (1+t) sum_{i+j=n-1} f_i f_j,
    so no square root and no division is needed.
    """
    f: list = [()] * (order + 1)
    for n in range(1, order + 1):
        acc: list = [-1] if n == 1 else []
        _addmul(acc, (-2, -1), f[n - 1])
        conv: list = []
        for i in range(1, n - 1):
            _addmul(conv, f[i], f[n - 1 - i])
        _addmul(acc, (-1, -1), conv)
        f[n] = tuple(_strip(acc))
    return TSeries._from_raw(order, f)


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
        p = _ONE
        for _ in range(n - 1):
            p = p * TPoly((2, 1))
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
