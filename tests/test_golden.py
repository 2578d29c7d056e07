"""The command line against its committed golden outputs (``tests/golden/cli.json``).

A change that means to move an output rewrites the corpus with
``python tests/golden/write.py`` and lists the entries that moved.
"""

import json
from pathlib import Path

import pytest

from golden.write import CORPUS, run

ENTRIES = json.loads(Path(CORPUS).read_text(encoding="utf-8"))


def test_corpus_stays_small():
    assert Path(CORPUS).stat().st_size < 2**20


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replays_the_golden_output(entry):
    assert run(entry["argv"]) == entry
