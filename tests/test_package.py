"""No package code is reached only by tests: every module-level def, class and
constant of src/apexcsl, and every method of its classes, is read in the
package, its scripts or its benchmark, outside its own definition. No module of the package reaches into
another's private names, and only csl reads the mixed-radix arrays."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "apexcsl"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defined_names(statement):
    """The names a module-level statement defines: a def's, a class's or an assignment's."""
    if isinstance(statement, FUNCTIONS + (ast.ClassDef,)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _methods(statement):
    """The methods a module-level class statement defines, dunders left out."""
    if not isinstance(statement, ast.ClassDef):
        return set()
    return {m.name for m in statement.body if isinstance(m, FUNCTIONS) and not m.name.startswith("__")}


def _names_read():
    """Every name that the package, its scripts or its benchmark reads (a
    load, an attribute or an import) outside the definition of that name: a
    package module's own def, class or constant, or a class's own method."""
    read = set()
    for root in (PACKAGE, REPO / "scripts", REPO / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            for statement in _parse(path).body:
                own = _defined_names(statement) if path.parent == PACKAGE else set()
                parts = [(statement, own)]
                if isinstance(statement, ast.ClassDef):
                    # a member at a time, so that a method's reads of itself are its own
                    parts = [(node, own) for node in statement.decorator_list + statement.bases + statement.keywords]
                    parts += [(m, own | ({m.name} if isinstance(m, FUNCTIONS) else set())) for m in statement.body]
                for part, mine in parts:
                    for node in ast.walk(part):
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                            name = node.id
                        elif isinstance(node, (ast.Attribute, ast.alias)):
                            name = node.attr if isinstance(node, ast.Attribute) else node.name
                        else:
                            continue
                        if name not in mine:
                            read.add(name)
    return read


def test_every_module_level_name_has_a_reader():
    # a def, class or constant of the package that nothing in the package, its
    # scripts or its benchmark reads (a load, an attribute or an import), outside
    # its own definition, has no caller but the tests
    read = _names_read()
    unread = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py")) for statement in _parse(path).body
              for name in sorted(_defined_names(statement)) if name not in read and not name.startswith("__")]
    assert unread == []


def test_every_method_has_a_reader():
    # a method of a package class whose name nothing reads (a call or an
    # attribute) outside its own body has no caller but the tests: a view
    # method left behind when the scan stops calling it is one
    read = _names_read()
    unread = [f"{path.stem}.{statement.name}.{name}" for path in sorted(PACKAGE.glob("*.py"))
              for statement in _parse(path).body for name in sorted(_methods(statement)) if name not in read]
    assert unread == []


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
