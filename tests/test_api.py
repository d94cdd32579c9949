"""The public surface: what the package exports and what the benchmark's
tracer wraps must resolve, so a rename fails here and not only in a
benchmark run."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import entropy_lab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_benchmark_trace_targets_resolve():
    targets = _tracing_targets()
    assert targets
    for span, mod, attr, _ in targets:
        home = importlib.import_module(f"entropy_lab.{mod}")
        owner, _, member = attr.rpartition(".")
        target = getattr(home, owner) if owner else home
        assert member in vars(target), f"{span}: {mod}.{attr} is gone"
        defined = target if owner else vars(target)[member]
        assert defined.__module__ == home.__name__, \
            f"{span}: {attr} is defined in {defined.__module__}"


def test_all_names_resolve_once():
    names = entropy_lab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(entropy_lab, name), name


# exported for a caller the ROADMAP item beside each name will add
NOT_YET_CALLED = {"net_upper": "item 1", "packing_profile": "item 8"}


def _loaded_names(tree):
    """Names a module loads, outside the top-level def or class of the
    same name (a definition's own recursion or methods do not count)."""
    loaded = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id != own):
                loaded.add(node.id)
    return loaded


def test_every_export_has_a_caller_in_the_package():
    # no test-only public API: each exported name is used by the package
    # itself, not only re-exported by __init__
    package = Path(entropy_lab.__file__).resolve().parent
    loaded = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            loaded |= _loaded_names(ast.parse(path.read_text()))
    unused = sorted(set(entropy_lab.__all__) - loaded - set(NOT_YET_CALLED))
    assert unused == [], f"exported but never called in the package: {unused}"
    assert not set(NOT_YET_CALLED) - set(entropy_lab.__all__)


def test_traced_functions_stay_imported_where_the_benchmark_wraps_them():
    # the tracer rebinds every module-level reference to a traced function;
    # these modules call it through their own import
    users = {"summation.apply": ("certificate", "experiments"),
             "entropy.traverse": ("experiments",),
             "entropy.sample": ("experiments",)}
    for span, mod, attr, _ in _tracing_targets():
        if span not in users:
            continue
        func = getattr(importlib.import_module(f"entropy_lab.{mod}"), attr)
        for user in users.pop(span):
            module = importlib.import_module(f"entropy_lab.{user}")
            assert func in vars(module).values(), f"{user} lost {span}"
    assert not users


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that
    # imports the package and its CLI has no scipy module loaded
    src = str(Path(entropy_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, entropy_lab, entropy_lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_starts_no_thread():
    # every pass runs in the calling thread: no src module imports a
    # thread or executor API
    package = Path(entropy_lab.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] == "threading"
                      or name.startswith("concurrent.futures")
                      or name == "concurrent.futures"]
    assert found == []


def _functions(tree):
    """Each def in a module's AST by its dotted name (methods as
    Class.method)."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            found.update({f"{stmt.name}.{node.name}": node
                          for node in stmt.body
                          if isinstance(node, ast.FunctionDef)})
        elif isinstance(stmt, ast.FunctionDef):
            found[stmt.name] = stmt
    return found


def test_level_sweeps_live_on_the_tree():
    # the root-path scan and the subtree sum are Tree.path_scan and
    # Tree.subtree_sums: no scatter-add, no caller of the child segments,
    # and no level loop in the functions that sweep through them
    package = Path(entropy_lab.__file__).resolve().parent
    modules = {path.stem: ast.parse(path.read_text())
               for path in package.glob("*.py")}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "at":
                assert not (isinstance(node.value, ast.Attribute)
                            and node.value.attr == "add"), \
                    f"{name}: np.add.at"
            ident = getattr(node, "attr", getattr(node, "id", ""))
            assert name == "trees" or "segments" not in ident, \
                f"{name}: {ident}"
    sweepers = {"summation": ["apply", "apply_adjoint"],
                "trees": ["Tree.preorder", "_hanging_parts"],
                "entropy": ["_BasisRows.__init__"]}
    for name, funcs in sweepers.items():
        defs = _functions(modules[name])
        for func in funcs:
            loops = [node for node in ast.walk(defs[func])
                     if isinstance(node, (ast.For, ast.While))
                     or getattr(node, "attr", None) == "levels"]
            assert loops == [], f"{name}.{func} holds a level loop"
