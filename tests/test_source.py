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
