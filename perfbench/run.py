"""trioperad benchmark: four workloads, each iteration in a fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload certify-full --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

    certify-full    trioperad certify-all --level full, through trioperad.cli
    homology-w6     build_complex + homology_ranks, both families, weight 6
    series-deep     the three cell-counting series at order 16: compose, invert
    product-stream  seeded stream of product calls on multi-term LinCombs

Every iteration is a new ``python3 perfbench/child.py`` process, so the
package's module-level caches start cold each time.  Iterations run one
after another until the next one would overrun ``--seconds``; a time or
memory metric is the median over the run's processes.  Times are given
at a fixed machine speed: each is scaled by REF_NOMINAL_S over the mean
time of a reference task that the child runs every 10 ms during the
workload (see ``RefClock`` in child.py); the raw times are printed too.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced iterations, prints the
per-layer metrics and writes the spans to perfbench/out/.

Each metric is printed as ``metric <name> <value> <unit>``; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only if every correctness check
passed; it is 1 when a check fails or an iteration dies, and 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Times are reported at the speed at which the reference task of
# child.py takes this long: about its time during product-stream on the
# machine the benchmark was defined on, in that machine's faster phases.
REF_NOMINAL_S = 0.00055

# Hard limit for one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Set-up-only interpreter starts before the first iteration; one more
# follows each iteration.
SETUP_SAMPLES_FIRST = 3

# Case counts and complex dimensions are those of the program when the
# benchmark was defined: a faster program that checks fewer cases fails.
CERTIFY_DIMS = {
    "simplex": [[1], [3, 3], [11, 18, 7], [45, 93, 63, 15], [197, 468, 420, 180, 31]],
    "tree": [[1], [3, 3], [7, 18, 11], [15, 69, 99, 45], [31, 216, 528, 540, 197]],
}
CERTIFY_SECTIONS = (
    "operad_axioms",
    "trialgebra_relations",
    "dendriform_relations",
    "star_associativity",
    "generator_spans",
    "dimensions",
    "dg_rules",
    "duality",
    "complexes",
    "series",
)

PRODUCT_STREAM = {
    "rounds": 500,
    "max_leaves": 6,
    "tree_terms": 4,
    "max_arity": 8,
    "cell_terms": 12,
    # checked in every iteration outside the timed loop: the output digest
    # of a fixed stream, pinned to the program's output when the benchmark
    # was defined (64 rounds cover every tree and cell size pair)
    "reference_seed": 0,
    "reference_rounds": 64,
    "reference_digest": "7f77c1c54e26f89ea14caf615ab626f7ee7c90897c24a6b1426071abee7dbc49",
}

WORKLOADS = {
    "certify-full": {
        "argv": ["certify-all", "--level", "full"],
        "expect": {
            "passed": True,
            **{name + ".passed": True for name in CERTIFY_SECTIONS},
            "operad_axioms.unit_cases": 240,
            "operad_axioms.associativity_cases": 42034,
            "trialgebra_relations.triples_checked": 9740,
            "dendriform_relations.triples_checked": 2491,
            "star_associativity.triples_checked": 2491,
            "generator_spans.ranks": [1, 3, 11, 45, 197],
            "dg_rules.pairs_checked": 303,
            "duality.dimension": 18,
            "series.checks": 10,
            "complexes.simplex.dims": CERTIFY_DIMS["simplex"],
            "complexes.tree.dims": CERTIFY_DIMS["tree"],
        },
    },
    "homology-w6": {
        "weight": 6,
        "dims": {
            "simplex": [903, 2355, 2520, 1470, 465, 63],
            "tree": [63, 603, 2178, 3690, 2955, 903],
        },
    },
    "series-deep": {"order": 16},
    "product-stream": PRODUCT_STREAM,
}

# End-to-end metrics, as declared in BENCHMARK.json, then metrics that are
# printed but not declared: the declared ones exist on every workload and
# never read 0, while per-call latency exists only on product-stream and
# failed_frac is 0 whenever the run passes.
UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "ref_ms": "ms",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "failed_frac": "ratio",
}

# Per-layer metric -> (span name, what to read): "s" is the summed self
# time of the spans, "calls" their number, anything else a summed count.
PER_LAYER = {
    "cells.enumerate_s": ("cells.enumerate", "s"),
    "cells.enumerated": ("cells.enumerate", "cells"),
    "trialgebra.operad_axioms_s": ("trialgebra.operad_axioms", "s"),
    "trialgebra.operad_cases": ("trialgebra.operad_axioms", "cases"),
    "trialgebra.relations_s": ("trialgebra.relations", "s"),
    "trialgebra.relation_triples": ("trialgebra.relations", "triples"),
    "trialgebra.dg_rules_s": ("trialgebra.dg_rules", "s"),
    "trialgebra.dg_pairs": ("trialgebra.dg_rules", "pairs"),
    "trialgebra.product_s": ("trialgebra.product", "s"),
    "trialgebra.product_calls": ("trialgebra.product", "calls"),
    "trialgebra.product_terms": ("trialgebra.product", "terms"),
    "trialgebra.boundary_s": ("trialgebra.boundary", "s"),
    "trialgebra.boundary_calls": ("trialgebra.boundary", "calls"),
    "dendriform.relations_s": ("dendriform.relations", "s"),
    "dendriform.relation_triples": ("dendriform.relations", "triples"),
    "dendriform.star_assoc_s": ("dendriform.star_assoc", "s"),
    "dendriform.star_assoc_triples": ("dendriform.star_assoc", "triples"),
    "dendriform.generator_spans_s": ("dendriform.generator_spans", "s"),
    "dendriform.product_s": ("dendriform.product", "s"),
    "dendriform.product_calls": ("dendriform.product", "calls"),
    "dendriform.product_terms": ("dendriform.product", "terms"),
    "duality.certify_s": ("duality.certify", "s"),
    "complexes.build_s": ("complexes.build", "s"),
    "complexes.basis_elems": ("complexes.build", "basis_elems"),
    "complexes.boundary_nnz": ("complexes.build", "boundary_nnz"),
    "linear.rank_s": ("linear.rank", "s"),
    "linear.rank_rows": ("linear.rank", "rows"),
    "linear.rank_nnz": ("linear.rank", "nnz"),
    "series.build_s": ("series.build", "s"),
    "series.compose_s": ("series.compose", "s"),
    "series.compose_calls": ("series.compose", "calls"),
    "series.invert_s": ("series.invert", "s"),
    "series.invert_calls": ("series.invert", "calls"),
    "series.identities_s": ("series.identities", "s"),
    "cli.dimensions_s": ("cli.dimensions", "s"),
}
# Per-layer metrics read from the iteration's result, not from its spans:
# hits and misses of the memoised tree products (dendriform._prec, _succ,
# _mid) over the workload; on product-stream over the timed loop only.
PER_LAYER_RESULT = {
    "dendriform.cache_hits": "cache_hits",
    "dendriform.cache_misses": "cache_misses",
}


class IterationFailed(RuntimeError):
    """A child process died, hung or printed no result."""


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def _spawn(job: dict, deadline: float) -> dict:
    """Run one child process to completion and return its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise IterationFailed(f"run limit of {RUN_LIMIT_S:.0f} s reached")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise IterationFailed(f"{job['workload']} iteration killed after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise IterationFailed(
            f"{job['workload']} iteration exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - t0
    return result


def _at_ref(result: dict, seconds: float) -> float:
    """A time of one iteration, scaled to the reference speed."""
    return seconds * REF_NOMINAL_S / result["ref_s"]


def _per_layer(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, mostly from its spans."""
    spans = result["spans"]
    child_time: dict[int, float] = {}
    for _, _, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    metrics = {}
    for metric, (span_name, what) in PER_LAYER.items():
        mine = [s for s in spans if s[1] == span_name]
        if what == "s":
            self_time = sum(end - start - child_time.get(sid, 0.0) for sid, _, _, start, end, _ in mine)
            metrics[metric] = _at_ref(result, self_time)
        elif what == "calls":
            metrics[metric] = len(mine)
        else:
            metrics[metric] = sum(s[5].get(what, 0) for s in mine)
    for metric, key in PER_LAYER_RESULT.items():
        metrics[metric] = result[key]
    return metrics


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


def _median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _wall_at_ref(results: list[dict]) -> float:
    return statistics.median(_at_ref(r, r["wall_s"]) for r in results)


def measure(workload: str, seed: int, seconds: float, trace: bool, params: dict) -> dict:
    """All processes of one run; returns metrics, check totals and detail."""
    deadline = time.monotonic() + RUN_LIMIT_S
    p = dict(params[workload], seed=seed)

    def spawn(**job) -> dict:
        return _spawn(job, deadline)

    spawn(workload="setup")  # writes the bytecode caches; not counted
    # interpreters that only import the package, before and between the
    # iterations, so that setup_s samples the whole window
    setups = [spawn(workload="setup") for _ in range(SETUP_SAMPLES_FIRST)]
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(spawn(workload=workload, params=p, trace=False))
        if trace:
            traced.append(spawn(workload=workload, params=p, trace=True))
        setups.append(spawn(workload="setup"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(untraced) > seconds:
            break
    children = untraced + traced
    setup_s = [r["setup_s"] for r in setups + children]

    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    failures = [f for r in children for f in r["first_failures"]][:5]
    extra = {}
    hits, misses = (_median_of(untraced, k) for k in ("cache_hits", "cache_misses"))
    detail = f" product_cache_hits {hits:g} misses {misses:g}"
    if workload == "product-stream":
        # the same seed must give the same outputs in every process
        digests = sorted({r["digest"] for r in children})
        attempted += 1
        if len(digests) > 1:
            failed += 1
            failures.append(f"product outputs differ between processes: {digests}")
        # latencies pooled over the run's processes, so the percentiles
        # weigh each stretch of the window by its number of calls
        calls = sorted(v for r in untraced for v in r["latencies_us"])
        if not trace:
            extra = {"op_p50_us": _percentile(calls, 50), "op_p99_us": _percentile(calls, 99)}
        detail += f" op_samples {len(calls)} digest {digests[0][:16]}"

    if trace:
        layers = [_per_layer(r) for r in traced]
        metrics = {m: statistics.median(x[m] for x in layers) for m in layers[0]}
        metrics["trace.overhead_s"] = _wall_at_ref(traced) - _wall_at_ref(untraced)
    else:
        # set-up is too short to time the reference task beside it: it is
        # scaled by the reference time of the run's iterations, which spread
        # over the same window
        ref_s = _median_of(untraced, "ref_s")
        metrics = {
            "wall_s": _wall_at_ref(untraced),
            "setup_s": statistics.median(setup_s) * REF_NOMINAL_S / ref_s,
            "peak_rss_mb": _median_of(untraced, "rss_kb") / 1024,
        }
        extra = dict(
            extra,
            wall_raw_s=_median_of(untraced, "wall_s"),
            setup_raw_s=statistics.median(setup_s),
            ref_ms=ref_s * 1e3,
        )
    return {
        "metrics": metrics,
        "extra": dict(extra, failed_frac=failed / attempted),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "detail": f"iterations {len(untraced)}" + detail,
        "samples": {
            "wall_s": [_at_ref(r, r["wall_s"]) for r in untraced],
            "wall_raw_s": [r["wall_s"] for r in untraced],
            "ref_ms": [r["ref_s"] * 1e3 for r in untraced],
            "setup_raw_s": setup_s,
        },
        "spans": [r["spans"] for r in traced],
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "trioperad").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def main(argv=None, params=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(params), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "trioperad" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'trioperad'}", file=sys.stderr)
        return 2

    prov = provenance(args.seed)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), params)
    except IterationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov["loadavg_end"] = os.getloadavg()
    correct = res["failed"] == 0

    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"provenance": prov, "iterations": res["spans"]}))
        print(f"spans {path.relative_to(ROOT)}")
    print("provenance " + json.dumps(prov))
    print(f"workload {args.workload} {res['detail']}")
    for name, values in res["samples"].items():
        print(f"samples {name} " + " ".join(f"{v:.6g}" for v in values))
    for f in res["failures"]:
        print(f"FAILED {f}")
    metrics = {m: {"value": v, "unit": _unit(m)} for m, v in res["metrics"].items()}
    for name, value in dict(res["metrics"], **res["extra"]).items():
        print(f"metric {name} {value!r} {_unit(name)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
