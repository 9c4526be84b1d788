"""The README's Python quick start runs as written, and prints what its
comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Quick start (Python)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    exec(compile(_quick_start(), "README quick start", "exec"), {})


def test_readme_quick_start_results_match_its_comments():
    block = _quick_start()
    ns: dict = {}
    exec(compile(block, "README quick start", "exec"), ns)
    x, y, a, cert = ns["x"], ns["y"], ns["a"], ns["cert"]
    shown = [
        ("tri_mid(x, y)            # {1,2,4}@5", ns["tri_mid"](x, y)),
        ("boundary(x)              # - {1}@2 + {2}@2", ns["boundary"](x)),
        ("star(a, a)               # ((|,|),|) + (|,(|,|)) + (|,|,|)", ns["star"](a, a)),
        ("# (True, 11, 7)", (cert["passed"], cert["rank_trialgebra_relations"],
                             cert["rank_dendriform_relations"])),
        ("cx.d_squared_zero        # True", ns["cx"].d_squared_zero),
        ("# (-1)*x^1 + (2 + t)*x^2 + (-5 - 5*t - t^2)*x^3 + (14 + 21*t + 9*t^2 + t^3)*x^4",
         ns["f_stasheff"](4)),
    ]
    lines = block.splitlines()
    for line, value in shown:
        assert line in lines
        assert str(value) == line.split("# ", 1)[1]
    assert "star_power(3)            # sum of all 11 trees with 4 leaves, coefficients 1" in lines
    power = ns["star_power"](3)
    assert len(power) == 11 and {c for _, c in power} == {1}
    assert {t.leaves for t, _ in power} == {4}
