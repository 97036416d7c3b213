"""The package's internal import graph, read from the source."""

import ast
from pathlib import Path

import qemine

PACKAGE = Path(qemine.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _package_imports(tree):
    """(node, imported module) for every ``from .x import ...`` and
    ``from . import x`` in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module:
            yield node, node.module.split(".")[0]
        else:
            yield from ((node, alias.name) for alias in node.names if alias.name in MODULES)


def _trees():
    return {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
            for name in MODULES}


def _cycle(graph):
    """One import cycle of ``graph`` as a list of modules, or None."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph[module]):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        found = visit(module)
        if found:
            return found
    return None


def test_cycle_finder_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
    assert _cycle(graph) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_package_import_graph_has_no_cycle():
    graph = {name: {target for _, target in _package_imports(tree) if target != "__init__"}
             for name, tree in _trees().items()}
    assert "training" in graph["estimators"]  # the graph sees the edges
    assert _cycle(graph) is None


def test_package_modules_import_each_other_at_module_level():
    nested = []
    for name, tree in _trees().items():
        top_level = set(tree.body)
        nested += [f"{name}:{node.lineno} imports {target}"
                   for node, target in _package_imports(tree) if node not in top_level]
    assert nested == []


def test_mining_and_the_embedding_rule_do_not_import_the_trainer():
    graph = {name: {target for _, target in _package_imports(tree)}
             for name, tree in _trees().items()}
    assert "embedding" in graph["mining"]  # the graph sees the edge
    assert "training" not in graph["mining"]
    assert graph["embedding"].isdisjoint({"training", "estimators", "mining"})
