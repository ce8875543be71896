"""Every public function and class in `src` serves the program or its API.

A module-level public name must be used somewhere in the package, or be
exported through `berbench.__all__`.  Helpers only tests call belong in
the tests (see `oracles.py`).
"""
import ast
from pathlib import Path

import berbench

PACKAGE = Path(berbench.__file__).parent

#: Public names kept although nothing in the package uses them.
ALLOWED = {
    # The HDB3 line codec is library code: acceptance criterion 7 checks
    # its round trip, though no session line-codes its stream.
    "hdb3_encode",
    "hdb3_decode",
}


def _uses(tree: ast.Module) -> set[str]:
    """Names a module reads, directly or as attributes of a sibling module.

    An import alone is not a use.
    """
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module is None  # `from . import x`
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.add(node.attr)
    return used


def test_every_public_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_uses, trees.values()))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | set(berbench.__all__) | ALLOWED
    ]
    assert unused == []
