"""Library code catches only its own typed errors.

A handler for a builtin exception class (or a bare `except:`) would
also swallow bugs; the single exception is `cli._read_input`, which
turns unreadable input files into InvalidInput.
"""

import ast
import builtins
from pathlib import Path

import grassgeo

SOURCE = Path(grassgeo.__file__).parent
ALLOWED = {("cli.py", "_read_input")}
BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _caught_names(handler):
    if handler.type is None:
        return ["<bare except>"]
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [n.id if isinstance(n, ast.Name) else ast.unparse(n) for n in nodes]


def _handlers(tree):
    """(enclosing function name or None, handler) for every except clause."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.ExceptHandler):
                yield func, child
            yield from walk(child, inner)

    return walk(tree, None)


def test_no_handler_catches_builtin_exceptions():
    bad = []
    for path in sorted(SOURCE.glob("*.py")):
        for func, handler in _handlers(ast.parse(path.read_text())):
            if (path.name, func) in ALLOWED:
                continue
            for name in _caught_names(handler):
                if name == "<bare except>" or name in BUILTIN_EXCEPTIONS:
                    bad.append("%s:%d catches %s" % (path.name, handler.lineno, name))
    assert not bad, bad


def test_main_has_one_handler():
    tree = ast.parse((SOURCE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert [_caught_names(h) for h in handlers] == [["GrassgeoError"]]
