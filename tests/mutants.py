"""Committed mutants: small textual changes to ``src/trioperad`` that a
named probe must detect (mutation testing: DeMillo, Lipton and Sayward
1978, *Hints on test data selection*, IEEE Computer 11).

Each mutant is (name, module, old text, new text, probe).  The runner
copies ``src/`` to a temporary directory, replaces the old text, which
must occur exactly once in the module, by the new text, and runs the
probe in a fresh interpreter that imports the copy.  A probe is a
certificate call that must report ``passed``, a call that must raise,
or a pytest node id; the mutant is killed when the probe exits nonzero
or runs past ``TIMEOUT``.  A mutant that survives is reported by name,
and so is a stale one, whose old text no longer occurs exactly once: a
refactor of the code a mutant names must carry the mutant with it.
Before any mutant, each probe must pass on the unmutated source, since
a probe that always fails would kill every mutant.

Run from anywhere:

    python3 tests/mutants.py

It prints one verdict per mutant and exits 1 if any mutant survived,
is stale or has a probe that fails unmutated.  ``tests/test_mutants.py`` runs the same list in the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120

Mutant = namedtuple("Mutant", "name module old new probe")


def passes(module: str, call: str) -> tuple[str, ...]:
    """A probe that fails unless ``trioperad.<module>.<call>`` reports
    ``passed``."""
    return ("-c", f"import sys\nfrom trioperad import {module}\nsys.exit(not {module}.{call}['passed'])")


def raises(setup: str, call: str, error: str) -> tuple[str, ...]:
    """A probe that fails unless ``call``, run after ``setup``, raises
    ``error``."""
    return ("-c", f"{setup}\ntry:\n    {call}\nexcept {error}:\n    pass\nelse:\n    raise SystemExit(1)")


def pytest_node(node: str) -> tuple[str, ...]:
    """A probe that fails unless the pytest node id ``node`` passes; the
    hypothesis plugin is not loaded, which cuts the start-up by more than
    half."""
    return ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", node)


MUTANTS = [
    Mutant(
        "mid_key with x and y swapped", "trialgebra",
        "def mid_key(x: int, y: int) -> int:", "def mid_key(y: int, x: int) -> int:",
        passes("cli", "certify_all('quick')"),
    ),
    Mutant(
        "right_key shifted one bit too far", "trialgebra",
        "    return y << x.bit_length() - 1\n", "    return y << x.bit_length()\n",
        passes("cli", "certify_all('quick')"),
    ),
    Mutant(
        "f_delta without its quadratic term", "series",
        "lambda f, n: f[n - 2]", "lambda f, n: 0",
        passes("series", "series_identities_report(12)"),
    ),
    Mutant(
        "discovered_mid's right term gated on |y|", "trialgebra",
        '"x right y": int(p == 0)', '"x right y": int(q == 0)',
        passes("trialgebra", "check_dg_rules(6)"),
    ),
    Mutant(
        "the dg harness keeps a rule's last failing pair", "trialgebra",
        "                        # a failed rule keeps its first failing pair\n"
        "                        if rule[0] in failures:\n"
        "                            continue\n",
        "",
        pytest_node("tests/test_trialgebra.py::test_dg_report_pinned"),
    ),
    Mutant(
        "an operad failure names its block's first zs", "trialgebra",
        "every_zs[k]", "every_zs[0]",
        pytest_node(
            "tests/test_relations.py::test_operad_check_reports_the_first_case_inside_a_block"
        ),
    ),
    Mutant(
        "operad left rows cached under x, not xy", "trialgebra",
        "lhs_row = lhs_rows.get(xy)\n"
        "                                if lhs_row is None:\n"
        "                                    lhs_row = lhs_rows[xy] =",
        "lhs_row = lhs_rows.get(x)\n"
        "                                if lhs_row is None:\n"
        "                                    lhs_row = lhs_rows[x] =",
        passes("trialgebra", "check_operad_axioms(6)"),
    ),
    Mutant(
        "face_map takes any number of factors", "complexes",
        "    if len(faces) != n - 1:\n", "    if False:\n",
        raises(
            "from trioperad.cells import parse_subset_cell, parse_tree\n"
            "from trioperad.complexes import face_map, simplex_face\n"
            "g = parse_tree('(|,|)')",
            "face_map(1, parse_subset_cell('{1}@3'), (g, g), simplex_face())",
            "ValueError",
        ),
    ),
    Mutant(
        "GradedComplex.element looks an unknown level up bare", "complexes",
        "        size = self.sizes.get(n, 0)\n", "        size = self.sizes[n]\n",
        raises(
            "from trioperad.complexes import build_complex",
            "build_complex('simplex', 3).element(9, 0)",
            "IndexError",
        ),
    ),
    Mutant(
        "basis_index checks only the slot", "duality",
        "    if not (0 <= outer < 3 and 0 <= inner < 3):\n", "    if False:\n",
        raises("from trioperad.duality import basis_index", "basis_index(1, 3, 0)", "ValueError"),
    ),
    Mutant(
        "certify_all runs any level as full", "cli",
        '    if level not in ("quick", "full"):\n', "    if False:\n",
        raises("from trioperad.cli import certify_all", "certify_all('bogus')", "ValueError"),
    ),
    Mutant(
        "check_scheme passes a scheme with no rows", "relations",
        "    if not scheme.rows:\n", "    if False:\n",
        raises(
            "from trioperad.relations import check_scheme\n"
            "from trioperad.trialgebra import TRIALGEBRA_SCHEME",
            "check_scheme(TRIALGEBRA_SCHEME._replace(rows=()), 3)",
            "ValueError",
        ),
    ),
    Mutant(
        "leaf faces with LEFT and RIGHT swapped", "cells",
        "                LeafOrientation.LEFT\n"
        "                if idx == 0\n"
        "                else LeafOrientation.RIGHT\n",
        "                LeafOrientation.RIGHT\n"
        "                if idx == 0\n"
        "                else LeafOrientation.LEFT\n",
        passes("cli", "certify_all('quick')"),
    ),
    Mutant(
        "tree_face's slice one leaf to the right", "complexes",
        "[leaf_offset : leaf_offset + tree.leaves - 2]",
        "[leaf_offset + 1 : leaf_offset + tree.leaves - 1]",
        passes("cli", "certify_all('quick')"),
    ),
    Mutant(
        "homology_ranks clears pivots without d² = 0", "complexes",
        "        if gc.d_squared_zero:\n"
        "            cleared = set(pivots)\n",
        "        cleared = set(pivots)\n",
        pytest_node("tests/test_complexes.py::test_clearing_needs_d_squared_zero"),
    ),
    Mutant(
        "_unpack reads plain digits, not balanced ones", "series",
        "d = ((v + half) & mask) - half", "d = v & mask",
        passes("series", "series_identities_report(12)"),
    ),
    Mutant(
        "duality imports hashlib at module level", "duality",
        "\nimport json\n", "\nimport hashlib\nimport json\n",
        pytest_node("tests/test_imports.py::test_cli_import_loads_no_fenced_module"),
    ),
    Mutant(
        "check_cases counts triples for every check", "relations",
        'k = 2 if check == "dg_rules" else 3', "k = 3",
        pytest_node("tests/test_relations.py::test_check_cases_count_what_the_checks_visit"),
    ),
    Mutant(
        "_succ returns its first tree twice", "dendriform",
        "    return graft_each((), _star(x, parts[0]), parts[1:])\n",
        "    terms = graft_each((), _star(x, parts[0]), parts[1:])\n"
        "    return terms[:1] + terms\n",
        passes("cli", "certify_all('quick')"),
    ),
    Mutant(
        # the certificate's series checks, at order 12 and at 100, cannot
        # see a packing width one bit short; only the naive reference can
        "_width one bit short", "series",
        "max(map(abs, bounds)).bit_length() + 1", "max(map(abs, bounds)).bit_length()",
        pytest_node("tests/test_series.py::test_compose_and_invert_match_naive_reference"),
    ),
    Mutant(
        "compositions yields each composition reversed", "cells",
        "itertools.pairwise((0, *cuts, total)))", "itertools.pairwise((0, *cuts, total)))[::-1]",
        pytest_node("tests/test_cells.py::test_compositions"),
    ),
    Mutant(
        "leaf_faces of the one-leaf tree is empty", "cells",
        "    if not t.children:\n"
        '        raise ValueError("the one-leaf tree has no leaf faces")\n',
        "",
        pytest_node("tests/test_cells.py::test_leaf_faces_of_the_one_leaf_tree_raise"),
    ),
    Mutant(
        "the complement test skips the rank count", "duality",
        "    return orthogonal and rank(dend_vecs) == DIMENSION - rank(tri_vecs)\n",
        "    return orthogonal\n",
        pytest_node("tests/test_duality.py::test_complement_rejects_a_dropped_dendriform_vector"),
    ),
    Mutant(
        "SubsetCell takes any arity", "cells",
        "        if arity.__class__ is not int:\n", "        if False:\n",
        raises("from trioperad.cells import SubsetCell", "SubsetCell(2.0, 1)", "TypeError"),
    ),
]


def run_probe(probe: tuple[str, ...], src: Path) -> int:
    """Exit status of ``probe`` in a fresh interpreter that imports
    ``trioperad`` from ``src``; a probe past ``TIMEOUT`` counts as 1."""
    # PYTHONPATH is replaced, not extended: ``src`` alone is importable
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, *probe], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT,
        ).returncode
    except subprocess.TimeoutExpired:
        return 1


def verdict(mutant: Mutant) -> str:
    """"killed", "survived" or "stale" for one mutant of ``src/``.  A
    pytest probe that names no test (exit 4 or 5) is stale too: it would
    kill every mutant."""
    text = (ROOT / "src" / "trioperad" / f"{mutant.module}.py").read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "trioperad" / f"{mutant.module}.py").write_text(text.replace(mutant.old, mutant.new))
        status = run_probe(mutant.probe, src)
    if mutant.probe[:2] == ("-m", "pytest") and status in (4, 5):
        return "stale"
    return "killed" if status else "survived"


def main(mutants: list[Mutant] = MUTANTS) -> int:
    # a probe that fails on the unmutated source would kill every mutant
    broken = {m.probe for m in mutants if run_probe(m.probe, ROOT / "src")}
    failed = 0
    for mutant in mutants:
        start = time.perf_counter()
        result = "broken probe" if mutant.probe in broken else verdict(mutant)
        failed += result != "killed"
        print(f"{result:12}  {time.perf_counter() - start:5.2f} s  {mutant.module}: {mutant.name}")
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
