"""Import fence: the package loads only the modules its commands run.

Each probe runs in a fresh interpreter and reports the modules added to
``sys.modules`` since the previous report, so whatever the interpreter
or its site hooks preload does not count.  ``Fraction`` belongs only at
the API edge (a user scalar, ``--t-eval``), so no certificate may load
``fractions``.
"""

import subprocess
import sys

# stdlib modules that no command's work needs at import time
FENCED = {"dataclasses", "inspect", "hashlib", "fractions", "decimal"}

_PROBE = """
import sys
seen = set(sys.modules)


def mark():
    global seen
    print("--modules--", *sorted(set(sys.modules) - seen))
    seen = set(sys.modules)


{body}
mark()
"""


def _modules_added(body: str) -> list[set[str]]:
    """Run ``body`` in a fresh interpreter; one set of added modules per
    ``mark()`` call in it, and one for the end."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    return [set(words[1:]) for words in lines if words[:1] == ["--modules--"]]


def test_cli_import_loads_no_fenced_module():
    [added] = _modules_added("import trioperad.cli")
    assert not added & FENCED
    # non-vacuity: the difference sees the modules the CLI does import
    assert {"argparse", "json", "trioperad.cli"} <= added


def test_full_certificate_builds_no_fraction_and_t_eval_does():
    imported, certified, evaluated = _modules_added(
        "import trioperad.cli\n"
        "mark()\n"
        "assert trioperad.cli.certify_all('full')['passed']\n"
        "mark()\n"
        "trioperad.cli.run(['series', '--family', 'delta', '--order', '3', '--t-eval', '-1/2'])"
    )
    assert "fractions" not in imported | certified
    # the certificate did run: its duality section hashes the pairing matrix
    assert "hashlib" in certified
    assert "fractions" in evaluated
