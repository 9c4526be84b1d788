"""Command line interface.

Subcommands::

    cells        enumerate the basis cells of one polytope family
    tri          simplex-cell algebra: mul, boundary, check-relations,
                 check-dg, check-operad
    dend         tree algebra: mul, power, check-relations
    koszul       certify the relation-span duality
    complex      build a weight-graded chain complex and report on it
    series       print cell-counting series coefficients
    certify-all  run every certification in one pass

Payloads are JSON on stdout (``--format csv|text`` for the cells and
series tables).  Checking commands exit 0 iff the check passes; malformed
input exits 2 with a message citing the grammar.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from itertools import islice
from operator import itemgetter

from . import cells as cells_mod
from . import complexes, dendriform, duality, trialgebra
from . import series as series_mod
from .linear import LinComb
from .relations import check_cases
from .series import TPoly, series_identities_report


# =====================================================================
# payload helpers
# =====================================================================


def _terms(lin: LinComb, key: str) -> list[dict]:
    """The terms of ``lin`` sorted by literal; trees are rendered as one
    batch, each distinct subtree once."""
    bases = list(lin.support())
    texts = cells_mod.tree_literals(bases) if key == "tree" else [b.literal() for b in bases]
    terms = [{"coeff": str(c), key: text} for text, (_, c) in zip(texts, lin)]
    return sorted(terms, key=itemgetter(key))


def _emit_json(payload) -> None:
    # streamed, so the indented text is never held as one string; the
    # encoder's small chunks go out joined in batches, since an unbuffered
    # stdout (PYTHONUNBUFFERED) makes every write a system call
    chunks = json.JSONEncoder(indent=2, default=str).iterencode(payload)
    while batch := "".join(islice(chunks, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _report(payload: dict) -> int:
    """Print a checker's report; exit 0 iff it passed."""
    _emit_json(payload)
    return 0 if payload["passed"] else 1


# The most cells `cells` enumerates, the most terms `dend power` sums and
# `dend mul` prints, the most basis elements `complex build` assembles,
# and the largest arity of a `tri` literal (its mask takes one bit per
# vertex).
CELLS_CAP = 10**6

# The highest `series --order`: the stasheff series grows steeply with the
# order (about 0.3 s at 100 and 7 s at 200 on a shared 2-vCPU VM).
SERIES_ORDER_CAP = 100

# The most `series --order` times the digits of `--t-eval`: a value at t
# has at most that many digits plus the coefficient's own (under 80 at
# order 100), so it stays below Python's 4300-digit limit on printing an
# int.  The literal is measured from its text, before it is built:
# `Fraction('1e20000000')` alone takes 24 s.
T_EVAL_DIGITS_CAP = 4000
_T_EVAL_GRAMMAR = "--t-eval takes a rational such as 2, -3 or 1/2, or a decimal such as 2.5e-3"


def _t_eval_digits(text: str) -> int:
    """D with the numerator and denominator of Fraction(text) at most 10^D:
    the digits before any exponent plus the exponent (10^18 if it is too
    long to read).  A malformed literal is left to Fraction() to reject."""
    mantissa, _, exp = text.lower().partition("e")
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    exp = exp if exp.isdigit() else "0"
    return sum(map(str.isdigit, mantissa)) + (int(exp) if len(exp) <= 18 else 10**18)


def _over_cap(family: str, arity: int) -> bool:
    """Whether the family has more than CELLS_CAP cells at arity >= 1.
    Every family has at least 2^(n-1) cells at arity n, so an arity past
    the cap's bit length is refused before any count is computed."""
    return arity - 1 >= CELLS_CAP.bit_length() or cells_mod.cell_count(family, arity) > CELLS_CAP


# The most cases a check command visits: basis triples for `tri` and
# `dend check-relations`, cell pairs for `tri check-dg`, unit and
# associativity cases for `tri check-operad`.  The default bounds visit
# 42,274 cases at most.  Tree triples are the slowest cases: on a shared
# 2-vCPU VM `dend check-relations --max-leaves 12` (77,748 triples, the
# largest accepted) took 13 s with a 156 MB peak.
CHECK_CAP = 10**5


def _capped_bound(check: str, flag: str, bound: int) -> int:
    """``bound``, once the cases ``check`` visits there are within
    CHECK_CAP.  Every check visits at least 2^(bound - 6) cases, so a
    bound past the cap's bit length is refused before any count."""
    if bound - 6 >= CHECK_CAP.bit_length() or check_cases(check, bound) > CHECK_CAP:
        raise ValueError(
            f"{flag} {bound} visits more than CHECK_CAP = {CHECK_CAP} cases "
            f"({check}); use a smaller {flag}"
        )
    return bound


def _tri_check(check: str, run_check):
    """A `tri check-*` command: cap --max-arity, run the check, report."""
    return lambda a: _report(run_check(_capped_bound(check, "--max-arity", a.max_arity)))


def _cells_for(family: str, arity: int):
    if arity < 1:
        raise ValueError(f"--arity must be >= 1, got {arity}")
    if _over_cap(family, arity):
        raise ValueError(
            f"--family {family} --arity {arity} has more than "
            f"CELLS_CAP = {CELLS_CAP} cells; use a smaller --arity"
        )
    if family == "subset":
        return cells_mod.enumerate_subset_cells(arity)
    if family == "tree":
        return cells_mod.enumerate_planar_trees(arity + 1)
    return cells_mod.enumerate_cube_cells(arity)


def _check_complex_size(family: str, weight: int) -> None:
    """Refuse a complex with more than CELLS_CAP basis elements.  Every
    family has at least 6^(w-1) of them (the simplex family exactly), so
    a weight past the cap's bit length is refused before any count; the
    weights below it are counted by ``level_dims`` in milliseconds."""
    if (
        weight - 1 >= CELLS_CAP.bit_length()
        or sum(complexes.level_dims(family, weight).values()) > CELLS_CAP
    ):
        raise ValueError(
            f"--family {family} --weight {weight} has more than "
            f"CELLS_CAP = {CELLS_CAP} basis elements; use a smaller --weight"
        )


# =====================================================================
# subcommand implementations
# =====================================================================


def _cmd_cells(args) -> int:
    items = _cells_for(args.family, args.arity)
    payload = {
        "family": args.family,
        "arity": args.arity,
        "count": len(items),
        "by_degree": Counter(c.degree for c in items),
        "cells": [c.literal() for c in items],
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        print("cell,degree")
        for c in items:
            print(f"{c.literal()},{c.degree}")
    else:
        for c in items:
            print(c.literal())
    return 0


def _cmd_tri_mul(args) -> int:
    x = cells_mod.parse_subset_cell(args.x, max_arity=CELLS_CAP)
    y = cells_mod.parse_subset_cell(args.y, max_arity=CELLS_CAP)
    result = cells_mod.key_literal(trialgebra.KEY_OPS[args.op](x.key, y.key))
    _emit_json({"op": args.op, "x": x.literal(), "y": y.literal(), "result": result})
    return 0


def _cmd_tri_boundary(args) -> int:
    x = cells_mod.parse_subset_cell(args.cell, max_arity=CELLS_CAP)
    # k terms, each an n-bit mask printed with k - 1 elements
    k, n = x.mask.bit_count(), x.arity
    if k * (k + n) > 4 * CELLS_CAP:
        raise ValueError(
            f"the boundary of a {k}-element cell at arity {n} is too large: "
            f"k*(k + n) = {k * (k + n)} is above 4*CELLS_CAP = {4 * CELLS_CAP}"
        )
    _emit_json({"cell": x.literal(), "boundary": _terms(trialgebra.boundary(x), "cell")})
    return 0


def _cmd_dend_mul(args) -> int:
    x = cells_mod.parse_tree(args.x)
    y = cells_mod.parse_tree(args.y)
    # star(x, y) has the most terms of the four products; the count comes
    # from the two trees' spines, before any product is computed
    terms = dendriform.star_term_count(x, y)
    if terms > CELLS_CAP:
        raise ValueError(
            f"the product of these trees has up to {terms} terms (the Delannoy "
            f"number of x's rightmost and y's leftmost path), more than "
            f"CELLS_CAP = {CELLS_CAP}; use shallower trees"
        )
    result = _terms(dendriform.DEND_OPS[args.op](x, y), "tree")
    _emit_json({"op": args.op, "x": x.literal(), "y": y.literal(), "result": result})
    return 0


def _cmd_dend_power(args) -> int:
    # star_power(n) is the sum of the s_n planar trees with n + 1 leaves
    if args.n >= 1 and _over_cap("tree", args.n):
        raise ValueError(
            f"--n {args.n} has more than CELLS_CAP = {CELLS_CAP} terms; use a smaller --n"
        )
    result = dendriform.star_power(args.n)
    _emit_json({"n": args.n, "count": len(result), "terms": _terms(result, "tree")})
    return 0


def _cmd_dend_check_relations(args) -> int:
    bound = _capped_bound("dendriform_relations", "--max-leaves", args.max_leaves)
    relations = dendriform.check_dendriform_relations(bound)
    assoc = dendriform.star_associativity(bound)
    return _report(
        {
            "passed": relations["passed"] and assoc["passed"],
            "relations": relations,
            "star_associativity": assoc,
        }
    )


def _cmd_complex_build(args) -> int:
    wanted = {p.strip() for p in args.report.split(",") if p.strip()}
    unknown = wanted - {"dims", "d2", "betti"}
    if unknown:
        raise ValueError(f"unknown report sections {sorted(unknown)}; use dims,d2,betti")
    if not wanted:
        raise ValueError("empty report selection; use one or more of dims,d2,betti")
    _check_complex_size(args.family, args.weight)
    gc = complexes.build_complex(args.family, args.weight)
    payload: dict = {"family": args.family, "weight": args.weight}
    ok = True
    hom = complexes.homology_ranks(gc) if "betti" in wanted else None
    if "dims" in wanted:
        payload["per_n"] = [
            {"n": n, "dim": dim, "rank_d": hom["ranks"].get(n) if hom else None}
            for n, dim in sorted(gc.dims().items())
        ]
    if "d2" in wanted:
        payload["d_squared_zero"] = gc.d_squared_zero
        if gc.d_squared_failure is not None:
            payload["d_squared_failure"] = gc.d_squared_failure
        ok = ok and gc.d_squared_zero
    if hom:
        payload["betti"] = hom["betti"]
        ok = ok and hom["betti"] == complexes.expected_betti(args.weight)
    _emit_json(payload)
    return 0 if ok else 1


def _cmd_series(args) -> int:
    if args.order < 1:
        raise ValueError(f"--order must be >= 1, got {args.order}")
    if args.order > SERIES_ORDER_CAP:
        raise ValueError(
            f"--order {args.order} is above SERIES_ORDER_CAP = {SERIES_ORDER_CAP}; "
            "use a smaller --order"
        )
    q = None
    if args.t_eval is not None:
        if args.order * _t_eval_digits(args.t_eval) > T_EVAL_DIGITS_CAP:
            raise ValueError(
                f"--t-eval {args.t_eval!r} has more than {T_EVAL_DIGITS_CAP // args.order} "
                f"digits, the most --order {args.order} allows (T_EVAL_DIGITS_CAP = "
                f"{T_EVAL_DIGITS_CAP} over the order); {_T_EVAL_GRAMMAR}"
            )
        from fractions import Fraction

        try:
            q = Fraction(args.t_eval)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{_T_EVAL_GRAMMAR}, got {args.t_eval!r}") from None
    maker = {
        "delta": series_mod.f_delta,
        "stasheff": series_mod.f_stasheff,
        "cube": series_mod.f_cube,
    }[args.family]
    fs = maker(args.order)
    if q is not None:
        values = fs.evaluate_t(q)
        rows = [(n, str(values[n])) for n in range(1, args.order + 1)]
        value_key = f"value at t={q}"
    else:
        rows = [(n, str(fs.coeffs[n])) for n in range(1, args.order + 1)]
        value_key = "coefficient"
    if args.format == "json":
        _emit_json(
            {
                "family": args.family,
                "order": args.order,
                "t_eval": args.t_eval,
                "coefficients": [{"n": n, value_key: v} for n, v in rows],
            }
        )
    elif args.format == "csv":
        print(f"n,{value_key}")
        for n, v in rows:
            print(f'{n},"{v}"')
    else:
        width = max(len(v) for _, v in rows)
        for n, v in rows:
            print(f"x^{n:<3} {v:>{width}}")
    return 0


# =====================================================================
# certify-all
# =====================================================================


def _dimensions_report() -> dict:
    """The enumerated cells against the counting series: at arity n the
    degree polynomial of a family's cells is (-1)^n [x^n] of its series
    (subset cells and f_delta, planar trees with n + 1 leaves and
    f_stasheff, cube cells and f_cube)."""

    def matches(family: str, series, top: int) -> bool:
        fs = series(top)
        for n in range(1, top + 1):
            by_degree = Counter(c.degree for c in _cells_for(family, n))
            top_degree = max(by_degree, default=0)
            poly = TPoly([by_degree[d] for d in range(top_degree + 1)])
            if fs.coeffs[n] != poly * (-1) ** n:
                return False
        return True

    tri_ok = matches("subset", series_mod.f_delta, 10)
    dend_ok = matches("tree", series_mod.f_stasheff, 5)
    cube_ok = matches("cube", series_mod.f_cube, 6)
    return {
        "passed": tri_ok and dend_ok and cube_ok,
        "trialgebra_dims_match": tri_ok,
        "dendriform_dims_match": dend_ok,
        "cube_dims_match": cube_ok,
    }


def certify_all(level: str = "quick") -> dict:
    """Every certification in one pass; quick caps complexes at weight 4,
    full at weight 5."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}; the levels are 'quick' and 'full'")
    max_weight = 4 if level == "quick" else 5
    sections: dict[str, dict] = {}
    sections["operad_axioms"] = trialgebra.check_operad_axioms(6)
    sections["trialgebra_relations"] = trialgebra.check_trialgebra_relations(9)
    sections["dendriform_relations"] = dendriform.check_dendriform_relations(10)
    sections["star_associativity"] = dendriform.star_associativity(10)
    sections["generator_spans"] = dendriform.check_generator_spans(5)
    sections["dimensions"] = _dimensions_report()
    sections["dg_rules"] = trialgebra.check_dg_rules(6)
    sections["duality"] = duality.certify_duality()
    families = {}
    for family in complexes.FAMILIES:
        per_weight = [complexes.weight_report(family, w) for w in range(1, max_weight + 1)]
        passed = all(e["passed"] for e in per_weight)
        families[family] = {"passed": passed, "per_weight": per_weight}
    sections["complexes"] = {"passed": all(f["passed"] for f in families.values()), **families}
    sections["series"] = series_identities_report(12)
    return {
        "level": level,
        "passed": all(s["passed"] for s in sections.values()),
        "sections": sections,
    }


# =====================================================================
# argument parsing
# =====================================================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trioperad",
        description="exact engine for the dual pair of three-product operads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cells", help="enumerate basis cells")
    p.add_argument("--family", choices=["subset", "tree", "cube"], required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(fn=_cmd_cells)

    tri = sub.add_parser("tri", help="simplex-cell algebra").add_subparsers(
        dest="subcommand", required=True
    )
    p = tri.add_parser("mul", help="multiply two cells")
    p.add_argument("--op", choices=["left", "right", "mid"], required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=_cmd_tri_mul)
    p = tri.add_parser("boundary", help="simplicial boundary of a cell")
    p.add_argument("cell")
    p.set_defaults(fn=_cmd_tri_boundary)
    p = tri.add_parser("check-relations", help="the eleven product relations")
    p.add_argument("--max-arity", type=int, default=9)
    p.set_defaults(fn=_tri_check("trialgebra_relations", trialgebra.check_trialgebra_relations))
    p = tri.add_parser("check-dg", help="boundary/product rule discovery")
    p.add_argument("--max-arity", type=int, default=6)
    p.set_defaults(fn=_tri_check("dg_rules", trialgebra.check_dg_rules))
    p = tri.add_parser("check-operad", help="operad associativity and units")
    p.add_argument("--max-arity", type=int, default=6)
    p.set_defaults(fn=_tri_check("operad_axioms", trialgebra.check_operad_axioms))

    dend = sub.add_parser("dend", help="planar-tree algebra").add_subparsers(
        dest="subcommand", required=True
    )
    p = dend.add_parser("mul", help="multiply two trees")
    p.add_argument("--op", choices=["prec", "succ", "mid", "star"], required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=_cmd_dend_mul)
    p = dend.add_parser("power", help="star power of the two-leaf generator")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_dend_power)
    p = dend.add_parser("check-relations", help="the seven relations + star assoc")
    p.add_argument("--max-leaves", type=int, default=10)
    p.set_defaults(fn=_cmd_dend_check_relations)

    koszul = sub.add_parser("koszul", help="relation-span duality").add_subparsers(
        dest="subcommand", required=True
    )
    p = koszul.add_parser("certify", help="full duality certificate")
    p.set_defaults(fn=lambda a: _report(duality.certify_duality()))

    comp = sub.add_parser("complex", help="weight-graded chain complexes").add_subparsers(
        dest="subcommand", required=True
    )
    p = comp.add_parser("build", help="assemble one complex and report")
    p.add_argument("--family", choices=list(complexes.FAMILIES), required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--report", default="dims,d2,betti")
    p.set_defaults(fn=_cmd_complex_build)

    p = sub.add_parser("series", help="cell-counting series")
    p.add_argument("--family", choices=["delta", "stasheff", "cube"], required=True)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--t-eval", default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("certify-all", help="run every certification")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(fn=lambda a: _report(certify_all(a.level)))

    return parser


# argparse reads a token that starts with "-" as an option unless it looks
# like a negative int or plain decimal, so it refuses `--t-eval -1/2` and
# `--t-eval -2.5e-3` with "expected one argument".  A value that starts
# like a negative number is joined to the option (or a prefix of it that
# argparse accepts) as `--t-eval=-1/2`; _cmd_series then parses it.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_t_eval(argv: list[str]) -> list[str]:
    if argv[:1] != ["series"]:
        return argv
    out: list[str] = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if (
            len(tok) >= 3
            and "--t-eval".startswith(tok)
            and k + 1 < len(argv)
            and _NEGATIVE_VALUE.match(argv[k + 1])
        ):
            out.append("--t-eval=" + argv[k + 1])
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_t_eval(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): end quietly, and send
        # what is still buffered to devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
