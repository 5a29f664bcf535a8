"""The code-line budget of src/qtflow (ROADMAP item 7).

A code line is a line that is not blank, not a comment alone, and not
inside a module, class or function docstring.  Run with ``pytest -s`` to
see the count per module.  A change that adds code raises MAX_CODE_LINES
and says why in CHANGES.md.
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qtflow"

#: The most code lines src/qtflow may hold.
MAX_CODE_LINES = 981


def code_lines(path):
    """The number of code lines of one Python source file."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    with path.open("rb") as handle:
        comments = {tok.start[0] for tok in tokenize.tokenize(handle.readline)
                    if tok.type == tokenize.COMMENT}
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if line.strip() and number not in docstrings
               and not (number in comments and line.lstrip().startswith("#")))


def test_code_lines_within_budget():
    counts = {path.name: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    for name, count in counts.items():
        print("%-16s %4d" % (name, count))
    print("%-16s %4d" % ("total", sum(counts.values())))
    assert sum(counts.values()) <= MAX_CODE_LINES
