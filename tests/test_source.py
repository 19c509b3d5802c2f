import ast
from pathlib import Path

import meshseg

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(scope):
    """The nodes of a function's body outside any function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree):
    """(function, name) for each name a function assigns but neither it nor
    a function nested in it reads.  Names starting with _ are exempt."""
    dead = []
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        outer = set()
        stored = set()
        for node in own_nodes(scope):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
        read = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        name = getattr(scope, "name", "<lambda>")
        dead += [(name, n) for n in sorted(stored - outer - read) if not n.startswith("_")]
    return dead


def test_dead_locals_finds_an_unread_assignment():
    tree = ast.parse(
        "def f(a):\n"
        "    unread, kept = a, a\n"
        "    _skipped = 1\n"
        "    total = 0\n"
        "    total += 1\n"
        "    def inner():\n"
        "        return kept\n"
        "    return inner\n")
    assert dead_locals(tree) == [("f", "unread")]


def test_no_src_function_assigns_a_name_it_never_reads():
    src = Path(meshseg.__file__).parent
    dead = [f"{path.name}: {fn}: {name}" for path in sorted(src.glob("*.py"))
            for fn, name in dead_locals(ast.parse(path.read_text()))]
    assert not dead, f"names assigned and never read: {dead}"
