"""Count the code lines of Python modules: the lines that hold code, outside
blank lines, comments and docstrings.

    python3 tools/code_lines.py [--rev REV] [PATH ...]

A line counts when a token other than a comment starts, ends or spans it
(each line of a multi-line string that is not a docstring counts), unless a
docstring covers it: the string that opens a module, a class or a function
body.  PATH defaults to every module under ``src/imgflib``.  With ``--rev``
each path is read as ``git show REV:PATH`` in the repository next to this
script, so ``--rev HEAD~1`` gives the counts before the last commit.
Prints one ``count path`` line per module and the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of the tree cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _source(path: str, rev: str | None) -> str:
    if rev is None:
        return Path(path).read_text(encoding="utf-8")
    relative = Path(path).resolve().relative_to(ROOT).as_posix()
    return subprocess.run(["git", "show", f"{rev}:{relative}"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="read each path at this git revision")
    parser.add_argument("paths", nargs="*", help="Python files (default: src/imgflib/*.py)")
    args = parser.parse_args(argv)
    paths = args.paths or sorted(str(p) for p in (ROOT / "src" / "imgflib").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(_source(path, args.rev))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
