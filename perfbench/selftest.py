"""Self-tests of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

1. Smoke: every workload once untraced and once traced, at tiny sizes
   (certify-full has no smaller form, so it runs at full size).  The
   result holds exactly the metrics BENCHMARK.json declares, each is
   printed by name with its unit, and every per-layer metric is nonzero
   on some workload.  failed_frac is printed everywhere; the raw times
   and the reference time on every untraced run; op_p50_us and op_p99_us
   on product-stream.
2. The product stream repeats its output digest for a seed and changes
   it with the seed.
3. Negative controls: a wrong expected value fails the run, on
   homology-w6 (complex dimensions), on certify-full (dg pairs) and on
   product-stream (the pinned digest of the reference stream).

Takes about a minute; exits 0 when every test passes.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = {
    "certify-full": run.WORKLOADS["certify-full"],
    "homology-w6": {"weight": 3, "dims": {"simplex": [11, 18, 7], "tree": [7, 18, 11]}},
    # beyond the certificate's order 12, where its Catalan tables end
    "series-deep": {"order": 13},
    # 130 rounds give 1040 calls, enough for ten samples beyond p99
    "product-stream": dict(run.PRODUCT_STREAM, rounds=130),
}


def invoke(workload: str, trace: int, params: dict, seed: int = 1):
    """Run one benchmark run in this process; returns (exit code, lines)."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, params)
    return code, out.getvalue().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def digest_of(lines: list[str]) -> str:
    return next(line.split()[-1] for line in lines if line.startswith("workload "))


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    nonzero: set[str] = set()
    for workload in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = invoke(workload, trace, TINY)
            res = result_of(lines)
            if code != 0 or not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: exit {code}, {res}")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != declared {want}")
            printed = dict(want, failed_frac="ratio")
            if not trace:
                printed.update(wall_raw_s="s", setup_raw_s="s", ref_ms="ms")
            if workload == "product-stream" and not trace:
                printed.update(op_p50_us="us", op_p99_us="us")
            for name, unit in printed.items():
                if not any(l.startswith(f"metric {name} ") and l.endswith(f" {unit}") for l in lines):
                    problems.append(f"{workload} trace={trace}: {name} not printed with {unit}")
            nonzero |= {name for name, m in res["metrics"].items() if m["value"]}
            print(f"smoke {workload} trace={trace}: exit {code}, {res['attempted']} checks")
    never = sorted({m["name"] for m in declared["per_layer"]} - nonzero)
    if never:
        problems.append(f"per-layer metrics zero on every workload: {never}")

    first = digest_of(invoke("product-stream", 0, TINY, seed=7)[1])
    again = digest_of(invoke("product-stream", 0, TINY, seed=7)[1])
    other = digest_of(invoke("product-stream", 0, TINY, seed=8)[1])
    if first != again or first == other:
        problems.append(f"digest seed 7: {first}, again {again}, seed 8: {other}")
    print(f"digest seed 7 twice {first} {again}, seed 8 {other}")

    wrong_dims = dict(TINY, **{"homology-w6": {"weight": 3, "dims": {"simplex": [11, 18, 7], "tree": [7, 18, 12]}}})
    cert = run.WORKLOADS["certify-full"]
    wrong_pairs = dict(TINY, **{"certify-full": dict(cert, expect=dict(cert["expect"], **{"dg_rules.pairs_checked": 302}))})
    wrong_ref = dict(TINY, **{"product-stream": dict(TINY["product-stream"], reference_digest="0" * 64)})
    for workload, params in (("homology-w6", wrong_dims), ("certify-full", wrong_pairs), ("product-stream", wrong_ref)):
        code, lines = invoke(workload, 0, params)
        res = result_of(lines)
        if code == 0 or res["correct"] or res["failed"] != 1:
            problems.append(f"negative control {workload}: exit {code}, {res}")
        print(f"negative control {workload}: exit {code}, failed {res['failed']}")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
