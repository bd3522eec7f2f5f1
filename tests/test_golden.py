"""Every CLI output byte against the committed digest corpus (tests/golden).

Regenerate, and list the entries that moved, with
``PYTHONPATH=src python tests/golden_corpus.py [--write]``.
"""

import pytest

import golden_corpus as corpus

ENTRIES = corpus.load()["entries"]


def test_manifest_lists_the_corpus():
    assert list(ENTRIES) == corpus.INVOCATIONS


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Each command's entry from this run, computed once per module."""
    entries = {}

    def entry(command):
        if command not in entries:
            entries[command] = corpus.run(command, tmp_path_factory.mktemp("golden"))
        return entries[command]

    return entry


@pytest.mark.parametrize("command", corpus.INVOCATIONS)
def test_output_matches_the_manifest(command, fresh):
    assert corpus.moved(command, ENTRIES[command], fresh(command)) == []


def test_regenerating_keeps_every_stored_byte(fresh):
    # --write stores only what moved, so a rerun with nothing moved leaves the
    # manifest as committed, whatever this host's unmasked oracle values read
    text, _ = corpus.regenerate(corpus.load(), {c: fresh(c) for c in corpus.INVOCATIONS})
    assert text == corpus.MANIFEST.read_text()
