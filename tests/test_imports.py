"""Every module of the package uses each name it imports, every function
reads each parameter it takes, and one class holds the union-find."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "actionpairs"


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, as a name or as a string
    of its `__all__`; `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and \
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\n"
                          "x: Optional[int] = os.sep\n") == [(2, "List")]
    assert unused_imports("from . import a, b\n__all__ = ['a']\n") == [(1, "b")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


# parameters kept though unread: callers pass them by position
KEPT_PARAMETERS = {
    # perfbench/pairs.py calls omega_inputs(ctx, act, rule, ...) positionally
    ("registry.py", "omega_inputs", "act"),
    # the tests call fix_set(alg, a)
    ("indalg.py", "fix_set", "alg"),
}


def unread_parameters(source: str) -> list:
    """(function, parameter) for each parameter of a `def` that its body
    never reads; `self` and `cls` are exempt, and so are lambdas, whose
    arity a caller fixes (a product callback takes two arguments)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [(node.name, p) for p in params
                  if p not in read and p not in ("self", "cls")]
    return found


def test_the_check_sees_an_unread_parameter():
    source = ("def f(a, b, *, c):\n    return a + (lambda x, y: c)(1, 2)\n"
              "class K:\n    def g(self, d):\n        return 0\n")
    assert unread_parameters(source) == [("f", "b"), ("g", "d")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_parameter_it_never_reads(path):
    unread = [(path.name, f, p) for f, p in unread_parameters(path.read_text())]
    assert [u for u in unread if u not in KEPT_PARAMETERS] == []


def orphan_helpers(sources: dict) -> list:
    """(module, name) for each private function or class (one leading
    underscore) that no code of any of the modules names outside its own
    definition, as a name, an attribute or an import."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    named: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named[node.id] = named.get(node.id, 0) + 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] = named.get(node.attr, 0) + 1
            elif isinstance(node, ast.alias):
                named[node.name] = named.get(node.name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                inside = sum(1 for n in ast.walk(node)
                             if getattr(n, "id", getattr(n, "attr", None)) == node.name)
                if named.get(node.name, 0) == inside:
                    found.append((module, node.name))
    return sorted(found)


def test_the_check_sees_an_orphan_helper():
    sources = {"a.py": "def _used():\n    return 1\n"
                       "def _alone(n):\n    return _alone(n - 1) if n else 0\n"
                       "class _K:\n    def _m(self):\n        return _used()\n",
               "b.py": "from a import _K\nx = _K()._m()\n"}
    assert orphan_helpers(sources) == [("a.py", "_alone")]


def test_every_private_helper_is_named_elsewhere():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphan_helpers(sources) == []


def halving_loops_outside(source: str) -> list:
    """The lines of the path-halving loops (`while p[x] != x`, a root search
    over a parent list) that lie outside the class `CongruencePartition`."""
    tree = ast.parse(source)
    inside = {id(n) for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) and node.name == "CongruencePartition"
              for n in ast.walk(node)}

    def is_root_search(test):
        return isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.ops[0], ast.NotEq) \
            and isinstance(test.left, ast.Subscript) \
            and isinstance(test.left.slice, ast.Name) \
            and isinstance(test.comparators[0], ast.Name) \
            and test.left.slice.id == test.comparators[0].id

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.While) and id(node) not in inside
                  and is_root_search(node.test))


def test_the_check_sees_a_second_union_find():
    source = ("class CongruencePartition:\n"
              "    def find(self, x):\n"
              "        while self.parent[x] != x:\n"
              "            x = self.parent[x]\n"
              "        return x\n"
              "def enumerate(uf, t):\n"
              "    if uf[t] != t:\n"
              "        t = 0\n"
              "    while uf[t] != t:\n"
              "        t = uf[t]\n"
              "    while uf[t] != 0:\n"
              "        t -= 1\n"
              "    return t\n")
    assert halving_loops_outside(source) == [9]


def test_one_union_find():
    # every root search over a parent list is `CongruencePartition`'s
    found = {path.name: halving_loops_outside(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
