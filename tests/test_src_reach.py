"""The package keeps only code that a command, an acceptance criterion or a
benchmark span reaches: every function or method defined in
``src/isotypic`` must be named somewhere else in the package, or be listed
below with the reason it stays.

A name counts as used when it appears as an ``ast.Name`` or as the
attribute of an ``ast.Attribute`` outside the body of the function that
defines it (so a recursive helper nobody else calls is caught).  Dunders are
skipped, and so is ``__init__.py``, whose imports only re-export names.  The
check matches by name alone, so a function whose name is shared by another
used name (``FiniteGroup.quotient`` and the ``quotient`` field of the
orbit records) cannot be seen by it.
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
