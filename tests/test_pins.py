"""The pin registry (:mod:`tests.pins`) owns every pinned document.

A file under ``tests/data/`` or a ``tests/golden_*.json`` that no registry
entry owns would be a pin that ``python -m tests.pins --write`` cannot
regenerate; one that two entries own would be written twice.
"""

import os
import subprocess
import sys
from collections import Counter

from .pins import FIXTURES, PINS, ROOT


def _tests_documents():
    return sorted(str(p.relative_to(ROOT)) for p in
                  [*(ROOT / "tests" / "data").rglob("*"),
                   *(ROOT / "tests").glob("golden_*.json")] if p.is_file())


def test_every_test_document_is_one_pin_or_a_fixture():
    owners = Counter([file for file, _ in PINS.values()] + list(FIXTURES))
    assert {doc: owners[doc] for doc in _tests_documents()} == \
        {doc: 1 for doc in _tests_documents()}


def test_every_pin_and_fixture_file_exists():
    files = [file for file, _ in PINS.values()] + list(FIXTURES)
    assert [f for f in files if not (ROOT / f).is_file()] == []


def test_an_unknown_name_writes_nothing():
    files = [ROOT / file for file, _ in PINS.values()]
    before = [(f.stat().st_mtime_ns, f.read_bytes()) for f in files]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.pins", "--write", "golden_digest",
         "nosuch"], cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "unknown pin: nosuch" in proc.stderr
    assert proc.stdout == ""
    assert [(f.stat().st_mtime_ns, f.read_bytes()) for f in files] == before
