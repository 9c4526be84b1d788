"""Exact generating series in x with polynomial-in-t coefficients.

``TPoly`` is a polynomial in t; ``TSeries`` is a truncated power series in
x whose coefficients are TPolys.  Everything is exact.  Every coefficient
of the three cell-counting series is an integer, and building them,
composing them and inverting them (``invert`` takes a linear coefficient
of +-1 only) runs on integers alone: ``compose`` and ``invert`` take int
coefficients only.  ``Fraction`` appears only at the API edge:
``TPoly.evaluate`` at a rational t (``--t-eval``), which only then imports
``fractions``, and the scalar ``TPoly.__mul__`` by a rational.

The three cell-counting series are the roots with f(0) = 0 of one
equation, (1 + (2+t)x) f + (1+t) q(f) + x = 0, and differ only in q(f):

* ``f_delta``    q(f) = x^2 f: -x / ((1+x)(1+(1+t)x))          simplex cells
* ``f_stasheff`` q(f) = x f^2: (-(1+(2+t)x) + sqrt(1+2(2+t)x+t^2 x^2))
                               / (2(1+t)x)                      planar trees
* ``f_cube``     q(f) = 0:     -x / (1+(2+t)x)                  cube cells

f_delta and f_stasheff are mutually inverse under composition; f_cube is
its own compositional inverse.

The arithmetic packs each TPoly into its value at t = 2^b (Kronecker
substitution), so a product of TPolys is one product of ints.  Products of
series go through one convolution, ``_product_coeff``, and ``compose`` and
``invert`` share one online power routine, ``_power_sums`` (Brent and Kung
1978).  b is rigorous: the same routine run on the L1 norms of the inputs,
every sign made positive, bounds each output's L1 norm, and one bit past
that bound each output reads back as balanced base-2^b digits.
"""

from __future__ import annotations

from math import comb
from numbers import Rational
from operator import mul


def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


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
        if not isinstance(other, Rational):
            return NotImplemented
        return TPoly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def evaluate(self, q):
        """The value at t = q, exact: an int when the value is integral, a
        Fraction otherwise."""
        if not isinstance(q, int):
            from fractions import Fraction

            q = Fraction(q)
        val = 0
        for c in reversed(self.coeffs):
            val = val * q + c
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
    """Power series in x, truncated at a fixed order, TPoly coefficients."""

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
    def _unpacked(cls, order: int, values: list, b: int) -> "TSeries":
        return cls(order, [_unpack(v, b) for v in values])

    def _packed(self, b: int) -> list:
        return [_pack(c.coeffs, b) for c in self.coeffs]

    def _norms(self) -> list:
        norms = [sum(map(abs, c.coeffs)) for c in self.coeffs]
        bad = [type(v).__name__ for v in norms if type(v) is not int]
        if bad:
            raise TypeError(f"compose and invert: TPoly coefficients must be int, got {bad[0]}")
        return norms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def compose(self, g: "TSeries") -> "TSeries":
        """self(g(x)); g must have no constant term.

        [x^m] self(g) = f_1 g_m + sum_{k>=2} f_k [x^m] g^k, the sums
        taken from ``_power_sums``.
        """
        if self.order != g.order:
            raise ValueError("truncation orders differ")
        if not g.coeffs[0].is_zero():
            raise ValueError("composition needs a series with zero constant term")
        n = self.order
        b = _width(_compose(self._norms(), g._norms(), n))
        return TSeries._unpacked(n, _compose(self._packed(b), g._packed(b), n), b)

    def invert(self) -> "TSeries":
        """Compositional inverse; needs zero constant term and a linear
        coefficient of 1 or -1, each its own inverse, so the inverse has
        integer coefficients too.

        Solves self(g) = x one coefficient at a time: for m >= 2,
        [x^m] self(g) = c1 g_m + sum_{k>=2} f_k [x^m] g^k = 0, and
        ``_power_sums`` gives the sum from g_1..g_(m-1) alone.
        """
        if self.order < 1:
            raise ValueError("compositional inverse needs order >= 1")
        if not self.coeffs[0].is_zero():
            raise ValueError("compositional inverse needs zero constant term")
        if self.coeffs[1].coeffs not in ((1,), (-1,)):
            raise ValueError("compositional inverse needs a linear coefficient of 1 or -1")
        n = self.order
        # the inverse of -x + sum_{k>=2} F_k x^k is M(-x), where
        # M = x + sum_{k>=2} F_k M^k bounds the L1 norm of each g_m
        norms = self._norms()
        norms[1] = -1
        b = _width(_invert(norms, n))
        return TSeries._unpacked(n, _invert(self._packed(b), n), b)

    def evaluate_t(self, q) -> list:
        return [c.evaluate(q) for c in self.coeffs]

    def __str__(self) -> str:
        parts = [
            f"({c})*x^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _pack(cs: tuple, b: int) -> int:
    """The value at t = 2^b of the polynomial with coefficients cs."""
    v = 0
    for c in reversed(cs):
        v = (v << b) + c
    return v


def _unpack(v: int, b: int) -> TPoly:
    """The TPoly whose value at t = 2^b is v, when every coefficient lies
    in [-2^(b-1), 2^(b-1)): v read as balanced base-2^b digits.  A nonzero
    coefficient of t^d makes |v| > 2^(bd - 1), which bounds the digits."""
    half, mask = 1 << (b - 1), (1 << b) - 1
    cs = []
    for _ in range(abs(v).bit_length() // b + 1):
        d = ((v + half) & mask) - half
        cs.append(d)
        v = (v - d) >> b
    return TPoly(cs)


def _width(bounds: list) -> int:
    """One bit past the largest bound: every value within it unpacks."""
    return max(map(abs, bounds)).bit_length() + 1


def _product_coeff(a: list, b: list, m: int, k: int) -> int:
    """[x^m] a*b, when a starts at x^1 and b at x^(k-1)."""
    return sum(map(mul, a[1 : m - k + 2], b[m - 1 : k - 2 : -1]))


def _power_sums(f: list, g: list, n: int):
    """Yield sum_{k>=2} f_k [x^m] g^k for m = 2..n in turn.

    The powers are built online: [x^m] g^k for 2 <= k <= m is set from
    g_1..g_(m-1) alone, so a caller may fill in g_m after reading the
    m-th sum.  g must have no constant term.
    """
    # powers[k - 1][m] = [x^m] g^k; g^k starts at x^k
    powers = [g] + [[0] * (n + 1) for _ in range(n - 1)]
    for m in range(2, n + 1):
        acc = 0
        for k in range(2, m + 1):
            pk = powers[k - 1][m] = _product_coeff(g, powers[k - 2], m, k)
            acc += f[k] * pk
        yield acc


def _compose(f: list, g: list, n: int) -> list:
    """f(g) up to x^n; g must have no constant term."""
    out = [f[0]] + [f[1] * gm for gm in g[1:]]
    for m, acc in enumerate(_power_sums(f, g, n), 2):
        out[m] += acc
    return out


def _invert(f: list, n: int) -> list:
    """The inverse of f up to x^n; f_0 = 0 and f_1 = c1 is 1 or -1."""
    c1 = f[1]
    g = [0, c1] + [0] * (n - 1)
    for m, acc in enumerate(_power_sums(f, g, n), 2):
        g[m] = -c1 * acc
    return g


# =====================================================================
# the three cell-counting series
# =====================================================================


def _recurrence(order: int, quadratic, u: int, a: int, c: int) -> list:
    """f_1 = u and f_n = a f_(n-1) + c [x^n] q(f) for n >= 2, where
    quadratic(f, n) is [x^n] q(f), read from f_1..f_(n-1)."""
    f = [0, u] + [0] * (order - 1)
    for n in range(2, order + 1):
        f[n] = a * f[n - 1] + c * quadratic(f, n)
    return f


def _counting_series(order: int, quadratic) -> TSeries:
    """The root with f(0) = 0 of (1 + (2+t)x) f + (1+t) q(f) + x = 0.

    Read at x^n this is the integer recurrence
    f_n = -[n=1] - (2+t) f_(n-1) - (1+t) [x^n] q(f),
    so no square root and no division is needed.  It runs at t = 2^b,
    after one run with -1, -(2+t) and -(1+t) replaced by their L1 norms
    1, 3 and 2, which bounds the L1 norm of every f_n.
    """
    b = _width(_recurrence(order, quadratic, 1, 3, 2))
    r = 1 << b
    return TSeries._unpacked(order, _recurrence(order, quadratic, -1, -2 - r, -1 - r), b)


def f_delta(order: int) -> TSeries:
    """-x / ((1+x)(1+(1+t)x)); coefficient of x^n is (-1)^n ((1+t)^n-1)/t."""
    return _counting_series(order, lambda f, n: f[n - 2])


def f_cube(order: int) -> TSeries:
    """-x / (1+(2+t)x); coefficient of x^n is (-1)^n (2+t)^(n-1)."""
    return _counting_series(order, lambda f, n: 0)


def f_stasheff(order: int) -> TSeries:
    """The root with f(0) = 0 of (1+t) x f^2 + (1+(2+t)x) f + x = 0."""
    return _counting_series(order, lambda f, n: _product_coeff(f, f, n - 1, 2))


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
    at_t1 = fk.evaluate_t(1)

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
            abs(v) for v in at_t1[1:]
        ] == super_catalan),
        ("stasheff_signs_alternate", all(
            at_t1[n] * (-1) ** n > 0 for n in range(1, order + 1)
        )),
    ]
    return {
        "passed": all(ok for _, ok in checks),
        "order": order,
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
    }
