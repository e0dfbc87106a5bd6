"""Every oracle is written once: in reference.py, and imported from there.

The test modules are parsed, not imported: none may import from another
test module, and none may define a function that reference.py defines.
The package's modules are parsed too: none may square an expression by
multiplying it by itself.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "adaseries"


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


def self_products(tree):
    """The lines of `a * a` and `np.multiply(a, a, ...)` in a module: one operand read twice."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "multiply" and len(node.args) >= 2):
            operands = node.args[:2]
        else:
            continue
        if ast.dump(operands[0]) == ast.dump(operands[1]):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_multiplies_an_expression_by_itself():
    """Squares are np.square, which reads its input once and gives the bits of a * a.

    a * a and np.multiply(a, a) stream the same array in twice.
    """
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in self_products(ast.parse(path.read_text()))]
    assert found == []
