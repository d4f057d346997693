"""tools/code_lines.py on a synthetic source: docstrings, comments and blank
lines are not code; every other line is, strings that are not docstrings
included."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment leaves the line code

# a comment line


class Law:
    """Class docstring."""

    rate = 2.0


def f(x):
    """Function docstring,

    with a blank line inside."""
    text = """a string that is no docstring,
on two lines"""
    "an expression string after the docstring"
    return (x +
            math.pi)


async def g():
    """Async docstring."""
'''


def test_counts_code_only():
    # import, class, rate, def f, the two lines of text, the later string,
    # the two lines of the return, async def g
    assert code_lines.code_lines(SOURCE) == 10


def test_body_without_docstring_counts():
    assert code_lines.code_lines('def f():\n    return "not a docstring"\n') == 2
    assert code_lines.code_lines('x = 1\n"a module string after code"\n') == 2
