"""The README's API tour: every ``examples/*.py`` script runs to the end.

Each example runs in-process as ``__main__`` (the way ``python
examples/X.py`` runs it) with stdout captured, so an API change that
breaks a documented example fails CI.  Their printed numbers are not
pinned here.

These run under the ``smoke`` marker, outside tier-1::

    PYTHONPATH=src python -m pytest tests -m smoke -q
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

pytestmark = pytest.mark.smoke

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out.strip()
    assert not any(tmp_path.iterdir()), "examples must not write files"
