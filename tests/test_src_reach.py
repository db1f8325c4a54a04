"""The package keeps only code that a command, an acceptance criterion or a
benchmark span reaches: every function or method defined in
``src/isotypic`` must be named somewhere else in the package, or be listed
below with the reason it stays.

A name counts as used when it appears as an ``ast.Name`` or as the
attribute of an ``ast.Attribute`` outside the body of the function that
defines it (so a recursive helper nobody else calls is caught).  Dunders are
skipped, and so is ``__init__.py``, whose imports only re-export names.  The
check matches by name alone, so a function whose name is shared by another
used name (``FiniteGroup.quotient`` and the ``quotient`` field of
``ObstructionRecord``, or a ``conj`` method and numpy's ``.conj()``) cannot
be seen by it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isotypic"

# name -> why it stays with no other src use
ALLOWED_UNREACHED = {
    "catalog_pairs": "acceptance criteria 3, 4 and 8 run over the catalog pairs",
    "disjoint_union": "acceptance criterion 5 builds its random A-trivial G-sets with it",
    "enumerate_arrays": "acceptance criterion 8 counts the arrays against the product series",
    "omega_generator_series": "acceptance criterion 8 checks it against partition counts",
    "irr_action": "acceptance criterion 2 reads the worked example's action on Irr(A)",
    "is_zero": "acceptance criterion 1 checks exact orthogonality with it",
    "bu_generator_series": "reference oracle for test_specialization_trivial_action",
    "omega_regular_count": "benchmark span target only (perfbench/spans.py); "
                           "delete with the next benchmark change",
    "stabilizer_of_character": "benchmark span target only (perfbench/spans.py); "
                               "delete with the next benchmark change",
}


def _used_names(node: ast.AST) -> Counter:
    used: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
    return used


def unreached_functions() -> set[str]:
    """Names of the functions and methods in src that no other src code names."""
    used: Counter = Counter()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used += _used_names(tree)
        defs += [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))]
    by_name: Counter = Counter()
    for node in defs:
        by_name[node.name] += _used_names(node)[node.name]
    return {name for name in by_name if used[name] - by_name[name] == 0}


def test_every_src_function_is_reached_or_allowed():
    unreached = unreached_functions()
    assert unreached == set(ALLOWED_UNREACHED), (
        "reached only by tests, delete or allow with a reason: %s; allowed but now "
        "reached or gone: %s" % (sorted(unreached - set(ALLOWED_UNREACHED)),
                                 sorted(set(ALLOWED_UNREACHED) - unreached)))


# module-level caches -> why each may outlive a job
ALLOWED_CACHES = {
    "cyclotomic._basis_data": "per-order reduction tables, a pure function of e",
    "cli._parser": "the one parser of the process",
}


def test_src_module_caches_are_allowed():
    """Every functools.lru_cache or functools.cache in src is listed with the
    reason it stays, so an in-process run and a one-shot CLI call differ
    only by these."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else \
                        getattr(target, "id", None)
                    if name in ("lru_cache", "cache"):
                        found.add("%s.%s" % (path.stem, node.name))
    assert found == set(ALLOWED_CACHES), (
        "unlisted, argue for or delete: %s; listed but gone: %s"
        % (sorted(found - set(ALLOWED_CACHES)), sorted(set(ALLOWED_CACHES) - found)))


def test_src_makes_no_random_draw():
    """Results are functions of the group alone: no src module imports
    random or names numpy's random module, and no src function takes a
    seed or a tol: the float checks read the constants repmatrices.TOL and
    SNAP_TOL.  The CLI's --seed is parsed and validated, and reaches nothing."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "random" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "random", path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "random", path.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                names = [arg.arg for arg in args]
                assert "seed" not in names and "tol" not in names, (path.name, node.name)


def test_src_has_one_json_rendering_path():
    """Reports are printed by cli._render alone: no src module calls
    json.dumps or json.dump with an indent."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("dumps", "dump"):
                    assert "indent" not in [kw.arg for kw in node.keywords], path.name


def _names_by_scope(tree: ast.AST, names: set[str]) -> Counter:
    """(name, enclosing def) -> how often the name is read there; the scope
    is the dotted path of the enclosing classes and functions, or
    ``<module>`` at the top level."""
    found: Counter = Counter()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else scope + "." + child.name)
                continue
            if isinstance(child, ast.Name) and child.id in names \
                    and isinstance(child.ctx, ast.Load):
                found[child.id, scope] += 1
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_cyclotomic_has_one_arithmetic_kernel():
    """Every Cyclotomic operation is one cyclotomic.dot call: a value is
    made (_make) only by dot and by the module's one unit constant, and
    numerators are reduced to the basis (_reduce) only by dot and by
    Cyclotomic.__init__, which parses coefficient maps."""
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    found = _names_by_scope(tree, {"_make", "_reduce"})
    assert set(found) == {("_make", "dot"), ("_make", "<module>"),
                          ("_reduce", "dot"), ("_reduce", "Cyclotomic.__init__")}, sorted(found)
    assert found["_make", "<module>"] == 1
