"""The mutant record stays current: ``mutants.json`` lists exactly the
mutants that ``mutants.py`` defines, and every mutant's edit still applies
to the tree.  Neither test runs a mutant; ``python tests/mutants.py`` does."""

import json

import mutants


def test_record_lists_exactly_the_defined_mutants():
    record = json.loads(mutants.RECORD.read_text())
    assert list(record["mutants"]) == list(mutants.MUTANTS)
    for entry in record["mutants"].values():
        assert entry["outcome"] == "killed" and entry["failed"]


def test_every_mutant_edit_applies_once():
    for name, (path, old, new) in mutants.MUTANTS.items():
        assert (mutants.ROOT / path).read_text().count(old) == 1, name
        assert new != old, name
