"""The code-line budget of src/qtflow (ROADMAP item 7), no dead import, and
no function, class, method or property that src/qtflow never refers to.

A code line is a line that is not blank, not a comment alone, and not
inside a module, class or function docstring.  Run with ``pytest -s`` to
see the code lines and the total lines per module.  A change that adds code raises MAX_CODE_LINES
and says why in CHANGES.md.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qtflow"

#: The most code lines src/qtflow may hold.
MAX_CODE_LINES = 938

#: (module, name) of the imports that a module keeps without using them,
#: with the reason each stays.
UNUSED_IMPORTS = {
    ("stepper.py", "assembly"): "perfbench/spans.py rebinds stepper.assembly",
}

#: (module, name) of the definitions that src/qtflow keeps without
#: referring to them, with the reason each stays.
UNREFERENCED = {
    ("mesh.py", "StructuredMesh.n_nodes"): "tests/oracles.py sizes nodal arrays by it",
}


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
    counts = {path.name: (code_lines(path), len(path.read_text().splitlines()))
              for path in sorted(SRC.glob("*.py"))}
    print("%-16s %5s %5s" % ("module", "code", "total"))
    for name, (code, total) in counts.items():
        print("%-16s %5d %5d" % (name, code, total))
    code, total = (sum(column) for column in zip(*counts.values()))
    print("%-16s %5d %5d" % ("total", code, total))
    assert code <= MAX_CODE_LINES


def unused_imports(path):
    """The names that one Python source file imports and never uses: no
    name in its code loads them and no string constant spells them (cli's
    study table names its functions, which it looks up in globals())."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return imported - used


def test_no_unused_import():
    """Every import of a module is used, but the listed ones.  The package's
    __init__.py is not checked: its imports are the package's API."""
    unused = {(path.name, name) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py" for name in unused_imports(path)}
    assert unused == set(UNUSED_IMPORTS)


def references(node):
    """How often each name is referred to below node: as a loaded name, an
    attribute or a string constant (cli's study table names its functions,
    which it looks up in globals())."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            counts[sub.value] += 1
    return counts


def definitions(tree):
    """(name, node) of the top-level functions and classes of a module, and
    of the methods and properties of its classes but dunders, a method
    named Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                        sub.name.startswith("__") and sub.name.endswith("__")):
                    yield "%s.%s" % (node.name, sub.name), sub


def test_every_definition_is_referred_to():
    """Each function, class, method and property of a module (not
    __init__.py, whose imports only export) is referred to somewhere in
    src/qtflow outside its own definition, but the listed ones: code that
    only tests call belongs in tests/."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unreferenced = set()
    for module, tree in trees.items():
        for name, node in definitions(tree) if module != "__init__.py" else ():
            short = name.rpartition(".")[2]  # a method is referred to as .method
            if total[short] <= references(node)[short]:
                unreferenced.add((module, name))
    assert unreferenced == set(UNREFERENCED)
