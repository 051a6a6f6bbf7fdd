import ast
from pathlib import Path

import borwin

SOURCE = Path(borwin.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips asserts; invariants must raise typed errors instead
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [f"{module.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_never_compiles_the_full_grid():
    # build_graph's grid grows with min_updown; it is gate c07's model view,
    # and every pipeline reads reached_graph instead
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "build_graph":
                    found.append(f"{module.name}:{node.lineno}")
    assert found == []
