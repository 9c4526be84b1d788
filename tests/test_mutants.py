"""The committed mutants in ``tests/mutants.py`` are all killed, and the
runner reports a survivor and a stale mutant by name."""

from mutants import MUTANTS, Mutant, main, passes, pytest_node, verdict


def test_every_committed_mutant_is_killed():
    verdicts = {m.name: verdict(m) for m in MUTANTS}
    assert len(verdicts) == len(MUTANTS) >= 20
    assert {name: v for name, v in verdicts.items() if v != "killed"} == {}


def test_runner_reports_survivors_and_stale_mutants_by_name(capsys):
    comment = Mutant(
        "a comment reworded", "trialgebra",
        "# the relations are checked on keys", "# the relations are checked on ints",
        passes("trialgebra", "check_dg_rules(6)"),
    )
    gone = comment._replace(name="old text that is not in the module", old="def no_such_function(")
    twice = comment._replace(name="old text that occurs twice", old="def ")
    no_test = comment._replace(
        name="a probe that names no test", probe=pytest_node("tests/test_mutants.py::no_such_test")
    )
    assert main([comment, gone, twice, no_test]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["survived", "stale", "stale", "broken"]
    assert [line.endswith(m.name) for line, m in zip(lines, [comment, gone, twice, no_test])] == [True] * 4
    assert lines[-1] == "0 of 4 mutants killed"
    assert verdict(no_test) == "stale"
