"""Every oracle is written once: in reference.py, and imported from there.

The test modules are parsed, not imported: none may import from another
test module, and none may define a function that reference.py defines.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def defined_functions(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_oracles_are_defined_once_and_no_test_module_imports_another():
    oracles = defined_functions(ast.parse((TESTS / "reference.py").read_text()))
    problems = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "reference.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            problems += [f"{path.name}:{node.lineno} imports {module}"
                         for module in modules if module.split(".")[0].startswith("test_")]
        problems += [f"{path.name} defines {name}, an oracle of reference.py"
                     for name in sorted(defined_functions(tree) & oracles)]
    assert problems == []
