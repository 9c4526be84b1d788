"""One measured iteration of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per iteration, so module-level caches in
trioperad (``lru_cache`` on tree enumeration and tree products) never carry
warm state from one iteration to the next.  Usage::

    PYTHONPATH=src python3 perfbench/child.py '<job json>'

The job names a workload, its parameters and whether to trace.  The last
line of standard output is one JSON object: the monotonic clock reading
taken right after ``import trioperad.cli`` (the parent subtracts its own
reading taken before the interpreter started, giving set-up time), the
workload's wall time, the mean time of the reference task run during the
workload (see ``RefClock``), peak RSS, the correctness checks attempted
and failed, and, when tracing, the spans.
"""

import sys
import time

import trioperad
import trioperad.cli

T_READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the set-up clock reading)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

from trioperad import cells, complexes, dendriform, duality, linear, series, trialgebra  # noqa: E402

cli = trioperad.cli


def reference_task() -> int:
    """A fixed piece of pure-Python work, under a millisecond, that uses
    nothing of trioperad: its time tracks the speed of the machine."""
    acc: dict = {}
    for i in range(3000):
        key = i * 7919 % 1009
        acc[key] = acc.get(key, 0) + i * i
    return sum(v % 97 for v in acc.values())


# period of the reference task while a workload runs
REF_INTERVAL_S = 0.01


class RefClock:
    """Times ``reference_task`` every REF_INTERVAL_S of wall time.

    The machine's speed swings by a factor of about 1.5 in phases of
    seconds to minutes, and the workload and the reference task slow down
    together, so the workload's time over the mean reference time stays
    steady where either alone does not.  The task runs from a SIGALRM
    handler, between two bytecodes of whatever the workload is doing;
    ``spent`` is its total time, which the workload subtracts from its own
    timings.  When tracing, each run of the task is a ``reference`` span,
    which the self time of the span it interrupted leaves out.
    """

    def __init__(self, tr: "Tracer"):
        self.tr = tr
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, *_) -> None:
        if self._busy:  # a tick that falls due inside a tick is skipped
            return
        self._busy = True
        t0 = perf_counter()
        reference_task()
        t1 = perf_counter()
        self._busy = False
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        if self.tr.enabled:
            self.tr.record("reference", t0, t1, {})

    @contextlib.contextmanager
    def running(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def mean(self) -> float:
        if not self.samples:  # a workload shorter than one period
            t0 = perf_counter()
            reference_task()
            self.samples.append(perf_counter() - t0)
        return statistics.fmean(self.samples)


class Tracer:
    """Spans (id, name, parent id, start, end, counts), kept in memory.

    A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        rec = self.record(name, perf_counter(), None, counts)
        self._open.append(rec[0])
        try:
            yield counts
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end, counts: dict) -> list:
        parent = self._open[-1] if self._open else None
        rec = [len(self.spans), name, parent, start, end, counts]
        self.spans.append(rec)
        return rec

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a function that records one span per
        call; ``counts(args, result)`` gives the span's counts, worked out
        after the span has closed."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as c:
                out = fn(*args, **kwargs)
            if counts:
                c.update(counts(args, out))
            return out

        setattr(module, attr, traced)


def _nnz(rows) -> int:
    return sum(len(row) for row in rows)


# Layer entry points that a traced iteration wraps in spans: (module,
# attribute, span name, counts).  The wrapped attribute is the name the
# caller looks up, so the traced iteration runs the same code as the
# untraced one: the CLI calls trialgebra.check_*, dendriform.check_*,
# duality.certify_duality, complexes.build_complex and its own
# _dimensions_report and series_identities_report; homology_ranks calls
# complexes.rank (linear.rank) on each boundary matrix; build_complex
# enumerates its bases through complexes.enumerate_*.  Series are built
# by series.f_* and combined by the TSeries methods, which invert calls
# again (one compose per coefficient).
LAYER_ENTRY_POINTS = [
    (trialgebra, "check_operad_axioms", "trialgebra.operad_axioms",
     lambda a, r: {"cases": r["unit_cases"] + r["associativity_cases"]}),
    (trialgebra, "check_trialgebra_relations", "trialgebra.relations",
     lambda a, r: {"triples": r["triples_checked"]}),
    (trialgebra, "check_dg_rules", "trialgebra.dg_rules",
     lambda a, r: {"pairs": r["pairs_checked"]}),
    (dendriform, "check_dendriform_relations", "dendriform.relations",
     lambda a, r: {"triples": r["triples_checked"]}),
    (dendriform, "star_associativity", "dendriform.star_assoc",
     lambda a, r: {"triples": r["triples_checked"]}),
    (dendriform, "check_generator_spans", "dendriform.generator_spans", None),
    (cli, "_dimensions_report", "cli.dimensions", None),
    (duality, "certify_duality", "duality.certify", None),
    (complexes, "build_complex", "complexes.build",
     lambda a, gc: {
         "basis_elems": sum(gc.dims().values()),
         "boundary_nnz": sum(_nnz(rows) for rows in gc.diff.values()),
     }),
    (complexes, "rank", "linear.rank",
     lambda a, r: {"rows": len(a[0]), "nnz": _nnz(a[0])}),
    (complexes, "enumerate_planar_trees", "cells.enumerate", lambda a, r: {"cells": len(r)}),
    (complexes, "enumerate_subset_cells", "cells.enumerate", lambda a, r: {"cells": len(r)}),
    (cli, "series_identities_report", "series.identities", None),
    (series, "f_delta", "series.build", None),
    (series, "f_stasheff", "series.build", None),
    (series, "f_cube", "series.build", None),
    (series.TSeries, "compose", "series.compose", None),
    (series.TSeries, "invert", "series.invert", None),
]

# the memoised tree products that every dendriform product goes through
PRODUCT_CACHES = (dendriform._prec, dendriform._succ, dendriform._mid)


def cache_counts() -> tuple[int, int]:
    """Hits and misses so far of the memoised tree products."""
    infos = [f.cache_info() for f in PRODUCT_CACHES]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


class Checks:
    """Correctness checks attempted, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{what}: got {got!r}, want {want!r}")


# =====================================================================
# certify-full
# =====================================================================


def certify_facts(report: dict) -> dict:
    """The pass flags and case counts of a certify-all report, flattened."""
    s = report["sections"]
    facts = {"passed": report["passed"]}
    for name, section in s.items():
        facts[name + ".passed"] = section["passed"]
    facts["operad_axioms.unit_cases"] = s["operad_axioms"]["unit_cases"]
    facts["operad_axioms.associativity_cases"] = s["operad_axioms"]["associativity_cases"]
    for name in ("trialgebra_relations", "dendriform_relations", "star_associativity"):
        facts[name + ".triples_checked"] = s[name]["triples_checked"]
    facts["generator_spans.ranks"] = [e["rank"] for e in s["generator_spans"]["per_weight"]]
    facts["dg_rules.pairs_checked"] = s["dg_rules"]["pairs_checked"]
    facts["duality.dimension"] = s["duality"]["dimension"]
    facts["series.checks"] = len(s["series"]["checks"])
    for family in (complexes.SIMPLEX_FAMILY, complexes.TREE_FAMILY):
        facts[f"complexes.{family}.dims"] = [
            [e["dims"][k] for k in sorted(e["dims"], key=int)]
            for e in s["complexes"][family]["per_weight"]
        ]
    return facts


def certify_full(p: dict, tr: Tracer, chk: Checks, ref: RefClock) -> dict:
    out = io.StringIO()
    t0 = perf_counter()
    with ref.running(), contextlib.redirect_stdout(out):
        code = cli.run(p["argv"])
    wall = perf_counter() - t0 - ref.spent
    chk.expect("certify-all exit code", code, 0)
    facts = certify_facts(json.loads(out.getvalue()))
    for key, want in p["expect"].items():
        chk.expect(key, facts.get(key), want)
    return {"wall_s": wall}


# =====================================================================
# homology-w6
# =====================================================================


def homology(p: dict, tr: Tracer, chk: Checks, ref: RefClock) -> dict:
    w = p["weight"]
    t0 = perf_counter()
    results = {}
    with ref.running():
        for family in (complexes.SIMPLEX_FAMILY, complexes.TREE_FAMILY):
            gc = complexes.build_complex(family, w)
            results[family] = (complexes.homology_ranks(gc), gc.d_squared_zero)
    wall = perf_counter() - t0 - ref.spent
    for family, (hom, d2) in results.items():
        chk.expect(f"{family} d_squared_zero", d2, True)
        chk.expect(f"{family} betti", hom["betti"], complexes.expected_betti(w))
        dims = hom["dims"]
        chk.expect(f"{family} dims", [dims[n] for n in sorted(dims)], p["dims"][family])
    return {"wall_s": wall}


# =====================================================================
# series-deep
# =====================================================================


def catalan_numbers(n: int) -> list[int]:
    """C_1..C_n, from C_0 = 1 and C_{m+1} = sum_i C_i C_{m-i}."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[1:]


def super_catalan_numbers(n: int) -> list[int]:
    """Super-Catalan (little Schroeder) numbers 1, 3, 11, 45, ..., n of
    them: half the large Schroeder numbers r_1..r_n, where r_0 = 1 and
    r_m = r_{m-1} + sum_k r_k r_{m-1-k}."""
    r = [1]
    for m in range(1, n + 1):
        r.append(r[m - 1] + sum(r[k] * r[m - 1 - k] for k in range(m)))
    return [v // 2 for v in r[1:]]


def series_deep(p: dict, tr: Tracer, chk: Checks, ref: RefClock) -> dict:
    """The three cell-counting series beyond the certificate's order 12,
    with their compose and invert identities.  series_identities_report is
    not called: its Catalan tables stop at order 12 (see NOTES.md)."""
    n = p["order"]
    t0 = perf_counter()
    with ref.running():
        fd, fk, fc = series.f_delta(n), series.f_stasheff(n), series.f_cube(n)
        composed = [fd.compose(fk), fk.compose(fd), fc.compose(fc)]
        inverted = [fd.invert(), fc.invert()]
    wall = perf_counter() - t0 - ref.spent
    x = series.TSeries.x(n)
    for name, got in zip(("delta(stasheff)", "stasheff(delta)", "cube(cube)"), composed):
        chk.expect(f"{name} == x", got == x, True)
    chk.expect("invert(delta) == stasheff", inverted[0] == fk, True)
    chk.expect("invert(cube) == cube", inverted[1] == fc, True)
    at0, at1 = fk.evaluate_t(0)[1:], fk.evaluate_t(1)[1:]
    chk.expect("stasheff at t=0 is Catalan", [abs(v) for v in at0], catalan_numbers(n))
    chk.expect("stasheff at t=1 is super-Catalan", [abs(v) for v in at1], super_catalan_numbers(n))
    chk.expect("stasheff signs alternate", all(v * (-1) ** k > 0 for k, v in enumerate(at1, 1)), True)
    return {"wall_s": wall}


# =====================================================================
# product-stream
# =====================================================================

COEFFS = (-3, -2, -1, 1, 2, 3)
TREE_OPS = (
    ("prec", dendriform.prec),
    ("succ", dendriform.succ),
    ("mid", dendriform.mid),
    ("star", dendriform.star),
)
CELL_OPS = (
    ("left", trialgebra.tri_left),
    ("right", trialgebra.tri_right),
    ("mid", trialgebra.tri_mid),
)


def _lincomb(rng: random.Random, basis: list, terms: int) -> linear.LinComb:
    picks = rng.sample(basis, min(terms, len(basis)))
    return linear.LinComb((b, rng.choice(COEFFS)) for b in picks)


def _stream(p: dict, rounds: int, rng: random.Random, trees: dict, subsets: dict) -> list:
    """Rounds of public product calls on random homogeneous combinations.

    Each call is (span name, op, function, args, arity of every output
    term).  A tree round calls prec, succ, mid and star, each on a pair of
    its own; a cell round calls the three cell products on one pair and
    boundary on the left factor.  Sizes and term counts follow a fixed
    schedule that cycles through every size pair, so the cost of a stream
    does not hang on the seed; the seed picks the basis elements and
    coefficients.
    """
    leaves = range(2, p["max_leaves"] + 1)
    arities = range(1, p["max_arity"] + 1)
    tree_sizes = [(a, b) for a in leaves for b in leaves]
    cell_sizes = [(a, b) for a in arities for b in arities]
    tt, ct = p["tree_terms"], p["cell_terms"]
    calls = []
    for i in range(rounds):
        lx, ly = tree_sizes[i % len(tree_sizes)]
        for op, fn in TREE_OPS:
            args = (
                _lincomb(rng, trees[lx], 1 + i % tt),
                _lincomb(rng, trees[ly], 1 + i // tt % tt),
            )
            calls.append(("dendriform.product", op, fn, args, lx + ly - 1))
        ax, ay = cell_sizes[i % len(cell_sizes)]
        args = (
            _lincomb(rng, subsets[ax], 1 + i % ct),
            _lincomb(rng, subsets[ay], 1 + i // ct % ct),
        )
        for op, fn in CELL_OPS:
            calls.append(("trialgebra.product", op, fn, args, ax + ay))
        calls.append(("trialgebra.boundary", "boundary", trialgebra.boundary, args[:1], ax))
    return calls


def _digest(calls: list, outs: list) -> str:
    digest = hashlib.sha256()
    for (_, op, _, _, _), out in zip(calls, outs):
        literals = sorted(f"{b.literal()}:{c}" for b, c in out)
        digest.update(f"{op}|{'+'.join(literals)}\n".encode())
    return digest.hexdigest()


def product_stream(p: dict, tr: Tracer, chk: Checks, ref: RefClock) -> dict:
    with tr.span("cells.enumerate") as c:
        trees = {n: cells.enumerate_planar_trees(n) for n in range(2, p["max_leaves"] + 1)}
        subsets = {n: cells.enumerate_subset_cells(n) for n in range(1, p["max_arity"] + 1)}
    c["cells"] = sum(map(len, trees.values())) + sum(map(len, subsets.values()))
    calls = _stream(p, p["rounds"], random.Random(p["seed"]), trees, subsets)

    outs, lat = [], []
    t_start = perf_counter()
    with ref.running():
        for layer, _, fn, args, _ in calls:
            with tr.span(layer) as c:
                spent, t0 = ref.spent, perf_counter()
                out = fn(*args)
                lat.append(perf_counter() - t0 - (ref.spent - spent))
            c["terms"] = len(out)
            outs.append(out)
    wall = perf_counter() - t_start - ref.spent
    hits, misses = cache_counts()

    terms = 0
    for (layer, op, _, args, arity), out in zip(calls, outs):
        terms += len(out)
        size = "leaves" if layer == "dendriform.product" else "arity"
        chk.expect(f"{op} arity additive", all(getattr(b, size) == arity for b, _ in out), True)
        if op == "star":
            want = dendriform.prec(*args) + dendriform.succ(*args) + dendriform.mid(*args)
            chk.expect("star == prec + succ + mid", out == want, True)
        elif op == "boundary":
            chk.expect("boundary(boundary(x)) == 0", trialgebra.boundary(out).is_zero(), True)
    chk.expect("output terms > 0", terms > 0, True)

    # a fixed reference stream whose output digest is pinned: products
    # that are wrong in a consistent way pass the checks above, not this
    ref_calls = _stream(p, p["reference_rounds"], random.Random(p["reference_seed"]), trees, subsets)
    ref_digest = _digest(ref_calls, [fn(*args) for _, _, fn, args, _ in ref_calls])
    chk.expect("reference stream digest", ref_digest, p["reference_digest"])

    return {
        "wall_s": wall,
        "latencies_us": [v * 1e6 for v in lat],
        "digest": _digest(calls, outs),
        "cache_hits": hits,
        "cache_misses": misses,
    }


WORKLOADS = {
    "certify-full": certify_full,
    "homology-w6": homology,
    "series-deep": series_deep,
    "product-stream": product_stream,
}


def main() -> None:
    job = json.loads(sys.argv[1])
    result = {"t_ready": T_READY}
    if job["workload"] != "setup":
        tr, chk = Tracer(job["trace"]), Checks()
        if tr.enabled:
            for module, attr, name, counts in LAYER_ENTRY_POINTS:
                tr.wrap(module, attr, name, counts)
        ref = RefClock(tr)
        result.update(WORKLOADS[job["workload"]](job["params"], tr, chk, ref))
        result.update(ref_s=ref.mean(), ref_ticks=len(ref.samples))
        if "cache_hits" not in result:
            result["cache_hits"], result["cache_misses"] = cache_counts()
        result.update(
            attempted=chk.attempted,
            failed=chk.failed,
            first_failures=chk.first_failures,
            spans=tr.spans,
        )
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
