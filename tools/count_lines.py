"""Count the code lines of each module in a package directory.

A counted line holds code: blank lines, comment lines and the lines of
module, class and function docstrings are left out.  A statement that
spans several lines counts each line it spans, and a line holding code
and a trailing comment counts once.

    python tools/count_lines.py [DIRECTORY]

prints one ``module count`` row per ``.py`` file, largest first, then
the total.  DIRECTORY defaults to ``src/causelab``.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are not code: a line holding only these is not counted.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """The counted lines of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path("src/causelab")
    counts = {path.stem: count_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for name, n in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}} {n:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
