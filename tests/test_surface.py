"""Guard against library code that no command reaches.

Every module-level function or class of ``src/groupapprox``, and every
method or property of such a class other than a dunder, must have its name
read somewhere in ``src/`` outside its own body, as a ``Name`` or as an
``Attribute``.  Names are matched as strings, so a definition whose name is
also a local variable or another object's attribute read elsewhere passes
unread: this is a guard, not a proof.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "groupapprox"

# Reached from no command today, and kept on purpose.
ALLOWED = {
    # the direct sum of replicated blocks; scripts/sofic_demo.py calls it,
    # and a multi-word sofic-search would merge its certificates with it
    "approximation.merge_homomorphisms",
    # the paper's second characterization over an alternating catalog,
    # which an equation command over A_m would report
    "equations.bridge_report",
    # perfbench/workloads.py writes the benchmark's certificates with it
    "report.certificate_to_data",
}


def _reads(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(module: str, tree):
    """(qualified name, bare name, node) for each definition the guard covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def unread_definitions(package: Path = PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    return [
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(module, tree)
        if reads[name] - _reads(node)[name] <= 0
    ]


def test_every_definition_is_read_outside_its_own_body():
    assert sorted(set(unread_definitions()) - ALLOWED) == []


def test_every_allowed_name_is_still_defined_and_unread():
    assert ALLOWED <= set(unread_definitions())
