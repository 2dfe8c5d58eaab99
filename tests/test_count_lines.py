"""The counted-lines rule of ``tools/count_lines.py``: code lines only,
without blanks, comments or docstrings."""
from __future__ import annotations

import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SOURCE = '''"""A module docstring
over two lines."""
import os  # code with a trailing comment counts once

# a comment line


class Box:
    """A class docstring."""

    async def empty(self):
        """An async function's docstring."""

    def size(self):
        """A function docstring
        over two lines.
        """
        total = (1 +
                 2)
        """A string statement after the first is code."""
        return total
'''


def test_counts_code_lines_only(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("count_lines")
    # import, class, async def, def, the two lines of the sum, the late
    # string statement and the return
    assert tool.count_lines(SOURCE) == 8
    (tmp_path / "box.py").write_text(SOURCE)
    (tmp_path / "one.py").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["box       8", "one       1", "total     9", ""]
