"""The package keeps only code that a command, an acceptance criterion or a
benchmark span reaches: every function or method defined in
``src/isotypic`` must be named somewhere else in the package, or be listed
below with the reason it stays.

A name counts as used when it is read outside the body of the function
that defines it (so a recursive helper nobody else calls is caught): as the
attribute of an ``ast.Attribute``, or, for a function that is not a method,
as an ``ast.Name`` that no parameter or local variable of an enclosing
function binds.  So ``GSet.cosets`` is not reached by a local ``cosets``
list, nor ``Cyclotomic.conjugate`` by ``dot``'s ``conjugate`` flag.  This
name check skips dunders, which operators and built-ins call without
naming them, and ``__init__.py``, whose imports only re-export names.
The check still matches attributes by name alone, so a method whose name is
shared by another attribute cannot be seen by it.  Two methods pass so with
no src caller: ``Cyclotomic.zero``, as ``PowerSeries.zero`` is read, and
``PowerSeries.one``, as ``Cyclotomic.one`` is read.  Both stay, because
acceptance criteria 1 and 8 call them (``tests/test_acceptance.py``).

Dunders are checked at run time instead: every one defined in src must run
in a handful of command-line calls, traced with ``sys.setprofile``, or be
listed in ``ALLOWED_OPERATORS`` with the reason it stays.
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

from isotypic.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "isotypic"

# name -> why it stays with no other src use
ALLOWED_UNREACHED = {
    "catalog_pairs": "acceptance criteria 3, 4 and 8 run over the catalog pairs",
    "disjoint_union": "acceptance criterion 5 builds its random A-trivial G-sets with it",
    "enumerate_arrays": "acceptance criterion 8 counts the arrays against the product series",
    "omega_generator_series": "acceptance criterion 8 checks it against partition counts",
    "irr_action": "acceptance criterion 2 reads the worked example's action on Irr(A)",
    "is_zero": "acceptance criterion 1 checks exact orthogonality with it",
    "omega_regular_count": "benchmark span target only (perfbench/spans.py); "
                           "delete with the next benchmark change",
    "stabilizer_of_character": "benchmark span target only (perfbench/spans.py); "
                               "delete with the next benchmark change",
    "determinant_character_value": "benchmark span target (perfbench/spans.py) that tests "
                                   "check directly; delete with the next benchmark change",
    "cosets": "acceptance criterion 5 builds its random G-sets from GSet.cosets",
    "conjugate": "acceptance criterion 1 checks orthogonality with Cyclotomic.conjugate, "
                 "and it is a benchmark span target (perfbench/spans.py)",
    "coeffs": "Cyclotomic.coeffs is the view assert_same compares with RefCyclotomic",
}


def _bound_names(func) -> set[str]:
    """The parameters of a function or lambda and the names it assigns; its
    deferred imports and nested defs are left out, as they name functions."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    body = func.body if isinstance(func.body, list) else [func.body]
    bound |= {sub.id for stmt in body for sub in ast.walk(stmt)
              if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    return bound


def _reads(tree: ast.AST) -> set[tuple[str, bool]]:
    """(name, through an attribute) for every name a module reads, leaving
    out bare names bound by an enclosing function and reads inside a def of
    the same name."""
    reads = set()

    def visit(node, bound, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr not in enclosing:
                reads.add((child.attr, True))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                    and child.id not in bound and child.id not in enclosing:
                reads.add((child.id, False))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, bound | _bound_names(child),
                      enclosing | {getattr(child, "name", "<lambda>")})
            else:
                visit(child, bound, enclosing)

    visit(tree, set(), set())
    return reads


def unreached_functions() -> set[str]:
    """Names of the functions and methods in src that no other src code names."""
    reads, defined, free = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        reads |= _reads(tree)
        methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
                if id(node) not in methods:
                    free.add(node.name)
    return {name for name in defined
            if (name, True) not in reads and not (name in free and (name, False) in reads)}


def test_every_src_function_is_reached_or_allowed():
    unreached = unreached_functions()
    assert unreached == set(ALLOWED_UNREACHED), (
        "reached only by tests, delete or allow with a reason: %s; allowed but now "
        "reached or gone: %s" % (sorted(unreached - set(ALLOWED_UNREACHED)),
                                 sorted(set(ALLOWED_UNREACHED) - unreached)))


# "Class.__dunder__" that no command below runs -> why it stays
ALLOWED_OPERATORS = {
    "ClassFunction.__call__": "acceptance criterion 2 evaluates characters at elements",
    "Cyclotomic.__add__": "acceptance criterion 1 sums character values, and it is the "
                          "benchmark span cyclotomic.add (perfbench/spans.py)",
    "Cyclotomic.__mul__": "acceptance criterion 1 multiplies character values, and it is "
                          "the benchmark span cyclotomic.mul (perfbench/spans.py)",
    "PowerSeries.__mul__": "acceptance criterion 8 forms the product generating function",
    "Subgroup.__contains__": "acceptance criterion 2 picks a reflection outside A with it",
}

# constructors run wherever their class is used; __repr__ serves messages
# and debugging, which no command exercises
EXEMPT_DUNDERS = {"__init__", "__post_init__", "__repr__"}


def _src_dunders() -> tuple[dict, list]:
    """The code object of every dunder method defined in src, except the
    exempt ones -> its "Class.__dunder__" name; and every dunder bound by
    assignment in a class body other than ``__slots__``, an alias such as
    ``__radd__ = __add__``, which shares its target's code, so that a trace
    cannot tell which name ran."""
    found, aliases = {}, []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("isotypic." + path.stem)
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for f in cls.body:
                if isinstance(f, ast.Assign):
                    aliases += ["%s.%s" % (cls.name, t.id) for t in f.targets
                                if isinstance(t, ast.Name) and t.id.startswith("__")
                                and t.id != "__slots__"]
                if isinstance(f, ast.FunctionDef) and f.name.startswith("__") \
                        and f.name.endswith("__") and f.name not in EXEMPT_DUNDERS:
                    code = getattr(module, cls.name).__dict__[f.name].__code__
                    found[code] = "%s.%s" % (cls.name, f.name)
    return found, aliases


def test_every_src_operator_runs_in_a_command_or_is_allowed(tmp_path, capsys):
    """irr, clifford on S4 over A4 (rho(1) = 3 with quotient Z2, so the float
    cocycle path runs), bundle-verify on the shipped bundle, adjacent-pair
    and global bordism, and d2p: every src dunder runs in one of them or
    is allowed above."""
    data = SRC / "data"
    s4_a4 = tmp_path / "s4_a4.json"
    s4_a4.write_text(json.dumps({
        "name": "S4", "degree": 4,
        "generators": [[1, 2, 3, 0], [1, 0, 2, 3], [1, 2, 0, 3], [1, 0, 3, 2], [2, 3, 0, 1]],
        "normal_subgroup_generators": [2, 3, 4]}))
    commands = [["irr", str(data / "d8.json")],
                ["clifford", str(s4_a4)],
                ["bundle-verify", str(data / "d8_rho_bundle.json")],
                ["bordism", str(data / "d8.json"), "--max-degree", "8"],
                ["bordism", str(data / "d8.json"), "--global", "--max-degree", "8"],
                ["d2p", "--p", "3", "--max-degree", "8"]]
    dunders, aliases = _src_dunders()
    ran = set()

    def trace(frame, event, arg):
        if event == "call" and frame.f_code in dunders:
            ran.add(dunders[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(trace)
    try:
        codes = [main(["--format", "json"] + argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(commands)
    unrun = set(dunders.values()) - ran
    assert unrun == set(ALLOWED_OPERATORS), (
        "run by no command, delete or allow with a reason: %s; allowed but now "
        "run or gone: %s" % (sorted(unrun - set(ALLOWED_OPERATORS)),
                             sorted(set(ALLOWED_OPERATORS) - unrun)))
    assert aliases == [], "define each dunder with def, so the trace sees it: %s" % aliases


# module-level caches -> why each may outlive a job
ALLOWED_CACHES = {
    "cyclotomic._nonbasis": "per-order reduction tables, a pure function of e",
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


# the modules that may import numpy -> what they use it for
NUMPY_MODULES = {
    "characters": "the Dixon-Schneider class matrices",
    "repmatrices": "the float layer: unitary irreps, intertwiners, cocycle snapping",
}


def test_numpy_only_in_the_numeric_layers():
    """Groups, cyclotomic arithmetic, orbits, bundles, bordism and the CLI
    are plain Python: only the modules listed above import numpy."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                found.add(path.stem)
    assert found == set(NUMPY_MODULES), (
        "unlisted numpy imports: %s; listed but gone: %s"
        % (sorted(found - set(NUMPY_MODULES)), sorted(set(NUMPY_MODULES) - found)))


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
    made (_make) only by dot, by from_exponent_counts and by the module's
    one unit constant, and numerators are reduced to the basis (_reduce)
    only by dot, by from_exponent_counts and by Cyclotomic.__init__, which
    parses coefficient maps.  The stored format is known to cyclotomic.py
    alone: no other src module names _make, _reduce, _num or _den, as a
    name, an attribute or an import."""
    tree = ast.parse((SRC / "cyclotomic.py").read_text())
    found = _names_by_scope(tree, {"_make", "_reduce"})
    assert set(found) == {("_make", "dot"), ("_make", "from_exponent_counts"),
                          ("_make", "<module>"), ("_reduce", "dot"),
                          ("_reduce", "from_exponent_counts"),
                          ("_reduce", "Cyclotomic.__init__")}, sorted(found)
    assert found["_make", "<module>"] == 1
    private = {"_make", "_reduce", "_num", "_den"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cyclotomic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                named |= {alias.name for alias in node.names}
            assert not named & private, (path.name, sorted(named & private))


def test_group_derived_data_is_read_by_name():
    """A group's derived data is built once, in groups.py, and read by name:
    the class partition as ``FiniteGroup.class_of``, the classes, exponent,
    subgroup classes and quotients through their methods.  No other src
    module names ``_class_of``, ``_classes``, ``_exponent``,
    ``_subgroup_classes``, ``_quotients`` or any private cached property of
    FiniteGroup, as a name, an attribute or an import."""
    tree = ast.parse((SRC / "groups.py").read_text())
    group = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "FiniteGroup")
    private = {"_class_of", "_classes", "_exponent", "_subgroup_classes", "_quotients"}
    private |= {f.name for f in group.body if isinstance(f, ast.FunctionDef)
                and f.name.startswith("_")
                and any(getattr(d, "id", None) == "cached_property" for d in f.decorator_list)}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                named |= {alias.name for alias in node.names}
            found |= {(path.name, name) for name in named & private}
    assert not found, sorted(found)
