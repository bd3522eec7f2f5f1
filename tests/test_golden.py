"""Every CLI output byte against the committed digest corpus (tests/golden).

Regenerate, and list the entries that moved, with
``PYTHONPATH=src python tests/golden_corpus.py [--write]``.
"""

import pytest

import golden_corpus as corpus

ENTRIES = corpus.load()["entries"]


def test_manifest_lists_the_corpus():
    assert list(ENTRIES) == corpus.INVOCATIONS


@pytest.mark.parametrize("command", corpus.INVOCATIONS)
def test_output_matches_the_manifest(command, tmp_path):
    assert corpus.moved(command, ENTRIES[command], corpus.run(command, tmp_path)) == []
