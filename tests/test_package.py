"""No package code is reached only by tests: every public module-level function
and class of src/apexcsl is named in the package, its scripts or its benchmark,
or exported by apexcsl/__init__.py."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "apexcsl"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_has_a_caller():
    used = set()
    for root in (PACKAGE, REPO / "scripts", REPO / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    used |= {alias.asname or alias.name for node in _parse(PACKAGE / "__init__.py").body
             if isinstance(node, ast.ImportFrom) for alias in node.names}  # the package's exports
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used):
                unreached.append(f"{path.stem}.{node.name}")
    assert unreached == []
