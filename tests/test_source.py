import ast
import importlib.util
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


def test_library_raises_deadline_errors_only_in_the_deadline_helper():
    # every solver loop and oracle calls graph.check_deadline, so the clock
    # and the message format live in one place
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        helpers = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and module.name == "graph.py" and node.name == "check_deadline"
        ]
        allowed = {id(node) for helper in helpers for node in ast.walk(helper)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "TimeoutExceeded":
                    found.append(f"{module.name}:{node.lineno}")
    assert found == []


def test_only_the_solver_builds_the_default_value_bound():
    # phase 2 takes its value bound as an argument, and the one default is
    # built in solver.solve_tight on phase 1's sweep
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in ast.walk(tree):
            if module.name == "phase2.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
                if any(name.split(".")[-1] == "bounds" for name in names):
                    found.append(f"{module.name}:{node.lineno} imports bounds")
            if isinstance(node, ast.Call) and module.name != "solver.py":
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "ValueTailBound":
                    found.append(f"{module.name}:{node.lineno}")
    assert found == []


def test_the_phases_run_only_in_solve_tight_and_the_presolve_only_in_solve_awclpp():
    # the hand-off between the phases, and the prelude in front of them,
    # each live in one function
    home = {"run_phase1": "solver.solve_tight", "run_phase2": "solver.solve_tight", "presolve": "solver.solve_awclpp"}
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        owner = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), f"{module.stem}.{fn.name}") for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in home and owner.get(id(node)) != home[name]:
                    found.append(f"{module.name}:{node.lineno} {name}")
    assert found == []


def test_only_dump_json_renders_indented_json():
    # io.dump_json writes every instance; json.dumps with an indent is
    # its fallback, so the bytes have one definition
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        owner = {}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef):
                owner.update((id(node), f"{module.stem}.{fn.name}") for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and any(kw.arg == "indent" for kw in node.keywords):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("dumps", "dump"):
                    found.append(owner.get(id(node), f"{module.name}:{node.lineno}"))
    assert found == ["io.dump_json"]


def test_the_generator_walks_the_integer_moves():
    # random_huc walks huc._Moves, the compiles' one integer model of the
    # ramp and hold rules; the exact rules are the legality oracle's. It
    # draws on integers and makes no Fraction
    tree = ast.parse((SOURCE / "generate.py").read_text())
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_Moves" in names
    assert names.isdisjoint({"cumulative_flows", "_step", "_broken_rule", "legal_moves"})
    (random_huc,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "random_huc"]
    calls = {getattr(node.func, "id", getattr(node.func, "attr", None)) for node in ast.walk(random_huc) if isinstance(node, ast.Call)}
    assert "Fraction" not in calls


# names a module imports only so that perfbench's tracer finds them there;
# test_layer_self_times_sum_to_the_traced_solve_span asserts none is absent
HOOK_REEXPORTS = {("solver.py", "orient_dag"), ("huc.py", "prune_unreachable")}


def test_library_imports_only_names_it_uses():
    # __init__.py's imports are the package API
    found = []
    for module in sorted(SOURCE.rglob("*.py")):
        if module.name == "__init__.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{module.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used and (module.name, name) not in HOOK_REEXPORTS
        ]
    assert found == []


def test_every_planted_defect_finds_its_target_text_once():
    # scripts/mutants.py plants each defect by exact text, so a change that
    # moves or rewords a target must update the defect with it
    path = SOURCE.parent.parent / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) >= 9
    for mutant in mutants.MUTANTS:
        text = (SOURCE / mutant.file).read_text()
        for old, new in mutant.edits:
            assert text.count(old) == 1 and old != new, mutant.name
        assert all((path.parent.parent / test).is_file() for test in mutant.tests), mutant.name
