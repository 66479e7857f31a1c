"""The mutation harness, tests/mutants.py, on its two cheapest mutants."""

import mutants


def test_cheapest_mutants_are_killed():
    problems = mutants.run(["level_system_cell_off", "save_ignores_outdir"])
    assert not problems, "\n".join(problems)


def test_a_stale_anchor_fails_the_harness(monkeypatch):
    stale = mutants.MUTANTS[0]._replace(old="no such text")
    monkeypatch.setattr(mutants, "MUTANTS", (stale,))
    assert mutants.run() == [f"{stale.name}: the old text occurs 0 times in"
                             f" src/{stale.path}, not once"]
