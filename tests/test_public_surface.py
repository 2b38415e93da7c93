import ast
from pathlib import Path

import qfridge

SOURCES = {
    path.stem: ast.parse(path.read_text())
    for path in sorted(Path(qfridge.__file__).parent.glob("*.py"))
}

# Public names that no source module references, and why each stays.
KEEP = {
    "majorizes": "independent reference the solver tests check the T-transforms against",
    "simulate_one_qubit_partial_swap": "independent dense reference for one_qubit_coherent",
    "degeneracy_classifier": "acceptance criterion 7",
    "degenerate_subspace_sweep": "acceptance criterion 7",
    "swap_update": "acceptance criterion 8",
    "optimal_sequence": "README figure recipe and the summary tie test",
}


def _public_definitions() -> dict[str, str]:
    return {
        node.name: module
        for module, tree in SOURCES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names() -> set[str]:
    # Loads, attribute reads and imports outside the package's re-export
    # list; comments and docstrings are not in the tree.
    names: set[str] = set()
    for module, tree in SOURCES.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_has_a_caller_in_the_package():
    referenced = _referenced_names()
    unreached = {
        f"{module}.{name}"
        for name, module in _public_definitions().items()
        if name not in referenced and name not in KEEP
    }
    assert unreached == set()


def test_kept_names_exist_and_still_lack_a_caller():
    # A kept name that gains a caller, or is deleted, leaves KEEP.
    referenced = _referenced_names()
    assert set(KEEP) <= set(_public_definitions())
    assert not set(KEEP) & referenced
