"""What the library modules may import.

The library computes exact integers in GF(p) and needs no extended
precision, so no module imports mpmath; ``finite_part._quad`` is the one
checked quadrature path, so only ``finite_part.py`` imports
``scipy.integrate``; reports are the command line's job, so only ``cli.py``
imports ``json``.  Every import sits at the top of its module, so the
module graph has no hidden edges and no cycle deferred into a function.
``discrete._lattice_sum`` is the one reduction of spectral sums, so the
sums built on it loop over nothing themselves.  A finite-part tail means
one thing wherever it is passed, so only ``finite_part._tail_part`` asks
whether it is a declared ``Expansion``.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "torusdet").glob("*.py"))


def imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")   # e.g. scipy.integrate
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"discrete.py", "finite_part.py"}


def test_no_module_imports_mpmath():
    for path in SOURCES:
        assert not any(name.split(".")[0] == "mpmath"
                       for name in imported_modules(path)), path.name


def test_only_finite_part_imports_scipy_integrate():
    users = {path.name for path in SOURCES
             if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
                    for name in imported_modules(path))}
    assert users == {"finite_part.py"}


def test_only_cli_imports_json():
    users = {path.name for path in SOURCES
             if any(name.split(".")[0] == "json"
                    for name in imported_modules(path))}
    assert users == {"cli.py"}


def test_no_import_inside_a_function():
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                               for node in ast.walk(fn)), (path.name, fn.name)


def package_imports(path):
    """The package modules that ``path`` imports, by file stem."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else (alias.name for alias in node.names))
    return names


def test_package_imports_form_no_cycle():
    graph = {path.stem: package_imports(path) for path in SOURCES}
    done = set()

    def visit(name, trail):
        assert name not in trail, " -> ".join(trail + (name,))
        if name not in done:
            for dep in graph.get(name, ()):
                visit(dep, trail + (name,))
            done.add(name)

    for name in graph:
        visit(name, ())


def test_spectral_sums_reduce_through_lattice_sum():
    tree = ast.parse((SOURCES[0].parent / "discrete.py").read_text())
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("resolvent_trace", "log_det_rescaled", "_extended_trace_sum"):
        nodes = list(ast.walk(fns[name]))
        assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                       for node in nodes), name
        refs = {ast.unparse(node) for node in nodes
                if isinstance(node, (ast.Name, ast.Attribute))}
        assert "math.fsum" not in refs, name
        assert any(isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "_lattice_sum"
                   for node in nodes), name


def test_only_tail_part_asks_whether_a_tail_is_declared():
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef)
                   and (path.stem, fn.name) == ("finite_part", "_tail_part")
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "isinstance"
                    and "Expansion" in ast.unparse(node.args[1])):
                assert id(node) in allowed, (path.name, node.lineno)
