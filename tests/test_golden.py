"""lupoly against its committed golden outputs (``tests/golden/cli.json`` and ``dim.json``).

A change that means to move an output rewrites the corpus with
``python tests/golden/write.py`` and lists the entries that moved.
"""

import json
from pathlib import Path

import pytest

from golden.write import (
    CORPUS, DIM_CORPUS, commands, dim_bucket, dim_buckets, dim_document,
    dim_points, run,
)
from lupoly.dimension import FORMULAS

ENTRIES = json.loads(Path(CORPUS).read_text(encoding="utf-8"))
DIM_ENTRIES = json.loads(Path(DIM_CORPUS).read_text(encoding="utf-8"))


def test_corpus_stays_small():
    assert Path(CORPUS).stat().st_size + Path(DIM_CORPUS).stat().st_size < 2**20


def test_corpus_lists_every_command():
    assert [entry["argv"] for entry in ENTRIES] == commands()


def test_dim_corpus_lists_every_bucket():
    assert list(DIM_ENTRIES) == list(dim_buckets())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replays_the_golden_output(entry):
    assert run(entry["argv"]) == entry


@pytest.mark.parametrize("name", list(dim_buckets()))
def test_replays_the_golden_dim_documents(name):
    kind, tol = dim_buckets()[name]
    points = dim_points(kind, tol)
    docs = [dim_document(lams, tol) for lams in points]
    got, want = dim_bucket(points, docs), DIM_ENTRIES[name]
    moved = [(i, lams) for i, lams in enumerate(points) if got["digests"][i] != want["digests"][i]]
    assert not moved, f"{len(moved)} moved documents, the first ones: {moved[:5]}"
    assert got == want
    # the bucket's coverage: mostly members, every formula and some refusals
    refused = sum("refused" in doc for doc in docs)
    assert len(docs) >= 2 * refused > 0
    assert {doc[1]["formula"] for doc in docs if "refused" not in doc} == set(FORMULAS)
