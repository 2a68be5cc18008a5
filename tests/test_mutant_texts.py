"""The mutants in tests/mutants.py still name code that exists."""

from mutants import MUTANTS, SRC


def test_every_mutant_old_text_occurs_once():
    counts = {m.name: (SRC / m.module).read_text().count(m.old)
              for m in MUTANTS}
    assert counts == dict.fromkeys(counts, 1)
