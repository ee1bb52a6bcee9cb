"""tests/unreached.txt names statements that are still there, with reasons.

The line trace that compares the list with what Tier-1 runs takes minutes;
these checks catch an edit that moves or deletes a listed guard in seconds.
"""

from linetrace import PACKAGE, listed_statements, statement_starts

LISTED = listed_statements()


def test_the_list_is_short():
    assert 0 < len(LISTED) <= 12


def test_each_entry_names_one_statement_and_its_lemma():
    for (name, text), lemma in LISTED.items():
        path = PACKAGE / name
        lines = [i for i, line in enumerate(path.read_text().splitlines(), 1) if line.strip() == text]
        assert len(lines) == 1, (name, text, lines)
        assert statement_starts(path)[lines[0]] == lines[0], (name, text)
        assert lemma, (name, text)
