"""No package code is reached only by tests: every public module-level function
and class of src/apexcsl is named in the package, its scripts or its benchmark,
or exported by apexcsl/__init__.py. No module of the package reaches into
another's private names, and only csl reads the mixed-radix arrays."""

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


def test_no_private_name_crosses_modules():
    # a `_`-prefixed name is its module's own: another module that imports it,
    # or reads it off an imported module, depends on what may change unseen
    crossing = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("apexcsl")):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        crossing.append(f"{path.stem} imports {alias.name}")
                    if node.module is None or node.module == "apexcsl":  # `from . import engine`
                        modules.add(alias.asname or alias.name)
        crossing += [f"{path.stem} reads {node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules and node.attr.startswith("_") and not node.attr.startswith("__")]
    assert crossing == []


def test_only_csl_reads_the_mixed_radix_arrays():
    # a layout's radix and first pair row per R-group position are the codec's
    # own; a module that reads them keeps a second copy of the digit rule
    readers = [f"{path.stem} reads .{node.attr}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "csl"
               for node in ast.walk(_parse(path))
               if isinstance(node, ast.Attribute) and node.attr in ("radix", "first_row")]
    assert readers == []
