"""What the library modules may import.

The library computes exact integers in GF(p) and needs no extended
precision, so no module imports mpmath; ``finite_part._quad`` is the one
checked quadrature path, so only ``finite_part.py`` imports
``scipy.integrate``; reports are the command line's job, so only ``cli.py``
imports ``json``.  Every import sits at the top of its module, so the
module graph has no hidden edges and no cycle deferred into a function.
Modules reach scipy's submodules as attributes of ``import scipy``
(``scipy.special.ive``), never bound to a module-level name, so ``import
torusdet`` loads numpy only and each submodule loads on its first call.
``discrete._lattice_sum`` is the one reduction of spectral sums, so the
sums built on it loop over nothing themselves.  A finite-part tail means
one thing wherever it is passed, so only ``finite_part._tail_part`` asks
whether it is a declared ``Expansion``, and only it fits one; the
log-determinant core is one quadrature with no tail.  Every name the
package exports has a caller outside the tests: another library module,
its own module outside its definition, the bench or a demo.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "torusdet").glob("*.py"))


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


LOADS_SCIPY_ON_FIRST_USE = """
import sys

def loaded():
    print(*(name in sys.modules for name in ("scipy.special", "scipy.integrate")))

import torusdet as td, torusdet.cli
loaded()
t = td.DiscreteTorus(2, 4)
td.spanning_tree_count(t)
td.reduced_laplacian_det_mod(t, 101)
td.eigenvalue_product_integer(t)
td.log_det(t)
td.resolvent_trace(t, 1.0, 2)
loaded()
td.log_det_zeta(2)
td.em_decompose(t, 1.0)
loaded()
td.logdet_via_regint(lambda z, a: td.resolvent_trace(t, z, a), 2, 1)
loaded()
"""


def test_scipy_submodules_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", LOADS_SCIPY_ON_FIRST_USE],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    # (scipy.special, scipy.integrate) after import, the exact and discrete
    # calls, the zeta determinant and the decomposition, and the first
    # quadrature
    assert out.stdout.splitlines() == ["False False", "False False",
                                       "True False", "True True"]


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


def calls_by_function(path):
    """``{function name: [called names]}`` for the top-level functions of
    ``path``, the calls of their nested functions included."""
    return {fn.name: [ast.unparse(node.func) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)]
            for fn in ast.parse(path.read_text()).body
            if isinstance(fn, ast.FunctionDef)}


def test_logdet_core_is_one_quadrature_and_fits_no_tail():
    calls = calls_by_function(SOURCES[0].parent / "finite_part.py")
    core = calls["_logdet_regint"]
    assert core.count("_quad") == 1
    assert "_tail_part" not in core and "fit_tail" not in core
    callers = {(path.stem, name) for path in SOURCES
               for name, called in calls_by_function(path).items()
               if any(f.split(".")[-1] == "fit_tail" for f in called)}
    assert callers == {("finite_part", "_tail_part")}


def bound_names(fn):
    """The parameters and assigned locals of ``fn``, its nested functions'
    included."""
    return {node.arg if isinstance(node, ast.arg) else node.id
            for node in ast.walk(fn) if isinstance(node, ast.arg)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def references(tree, skip=None):
    """The names ``tree`` refers to outside the node ``skip``: imported
    names, attribute names, and names read where no parameter or local of
    an enclosing function binds them (``omega`` is also a parameter name)."""
    found = set()

    def visit(node, local):
        if node is skip:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | bound_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_outside_the_tests():
    init = SOURCES[0].parent / "__init__.py"
    exports = {alias.asname or alias.name: node.module
               for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    callers = ([path for path in SOURCES if path != init]
               + sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "demos").glob("*.py")))
    trees = {path: ast.parse(path.read_text()) for path in callers}
    unused = []
    for name, module in sorted(exports.items()):
        definition = next((node for node in trees[init.parent / f"{module}.py"].body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                           and node.name == name), None)
        if not any(name in references(tree, definition)
                   for tree in trees.values()):
            unused.append(name)
    assert exports and not unused, unused
