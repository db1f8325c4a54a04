"""JSON file formats: group files and bundle files.

Group file:
    {"name": str, "degree": int, "generators": [[int, ...], ...],
     "normal_subgroup_generators": [int, ...]}   # nonnegative indices into "generators"

Bundle file:
    {"group": str,                       # path relative to the bundle file
     "base": {"points": int, "action": [[int, ...], ...]},   # one row per element
     "fibers": [{"orbit_rep": int,       # a point in 0..points-1; at least one per orbit
                 "character": {"irreducible_multiplicities": [int, ...]}
                           or [cyclotomic values]}]}

The action table is checked by GSet alone, which takes JSON integers only
(no floats, no booleans), and "points" must equal its width.  Fiber
multiplicities are indexed by the rows of the character table of the
stabilizer of the given point.  A value list is decomposed into such
multiplicities on load, and a FileFormatError is raised unless it is a
character; the two kinds may be mixed in one file.  Storing fibers at
several points of one orbit is allowed; the verification cross-checks the
redundant data.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .bundles import EquivariantBundle, GSet
from .catalog import CATALOG, build_catalog_group
from .characters import ClassFunction, character_table, inner_product
from .cyclotomic import cyclotomic_from_jsonable
from .errors import IsotypicError
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, group_from_generators


class FileFormatError(IsotypicError):
    """Malformed input file."""


def load_group_file(path: str, cap: int = DEFAULT_ORDER_CAP,
                    normal: Optional[str] = None) -> tuple[FiniteGroup, Optional[Subgroup]]:
    """Build a group and a subgroup of it from a file, read once.

    The pseudo-path "catalog:NAME" resolves to a built-in group, and raises
    FileFormatError for an unknown NAME.  ``normal`` is the command line's
    --normal selector: None gives the subgroup the file names (None if it
    names none); "trivial", "full" and "center" give those subgroups;
    anything else is comma-separated indices into the file's generators,
    which raise FileFormatError unless each is in range.
    """
    if path.startswith("catalog:"):
        name = path.split(":", 1)[1]
        if name not in CATALOG:
            raise FileFormatError("unknown catalog group %s (known: %s)"
                                  % (name, ", ".join(sorted(CATALOG))))
        G, A = build_catalog_group(name, cap=cap)
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FileFormatError("cannot read group file %s: %s" % (path, exc))
        G, A = group_from_jsonable(data, cap=cap)
    if normal is None:
        return G, A
    named = {"trivial": G.trivial_subgroup, "full": G.full_subgroup, "center": G.center}
    if normal in named:
        return G, named[normal]()
    idxs = [x for x in normal.split(",") if x != ""]
    return G, G.subgroup(generator_elements(G, idxs, "--normal selector %r" % normal))


def group_from_jsonable(data: dict, cap: int = DEFAULT_ORDER_CAP) -> tuple[FiniteGroup, Optional[Subgroup]]:
    try:
        name = str(data["name"])
        degree = _integer(data["degree"], "group degree")
        gens = [_integers(p, "generator") for p in data["generators"]]
    except (KeyError, TypeError) as exc:
        raise FileFormatError("group file is missing fields: %s" % exc)
    if degree < 0:
        raise FileFormatError("group degree must be nonnegative, got %d" % degree)
    G = group_from_generators(degree, gens, name=name, cap=cap)
    normal = None
    idxs = data.get("normal_subgroup_generators")
    if idxs is not None:
        what = "normal_subgroup_generators"
        normal = G.subgroup(generator_elements(G, _integers(idxs, what), what))
    return G, normal


def generator_elements(G: FiniteGroup, indices, what: str) -> list[int]:
    """Elements of G given by indices into its generators (``G.generators``),
    as integers or as the --normal text's strings.  Raises FileFormatError,
    naming ``what``, unless every index is in 0..len(G.generators)-1."""
    try:
        idxs = [int(i) for i in indices]
    except (TypeError, ValueError) as exc:
        raise FileFormatError("bad %s: %s" % (what, exc))
    for i in idxs:
        if not 0 <= i < len(G.generators):
            raise FileFormatError("bad %s: generator index %d is not in 0..%d"
                                  % (what, i, len(G.generators) - 1))
    return [G.generators[i] for i in idxs]


def _integer(value, what: str) -> int:
    """value, if a JSON integer, else FileFormatError (int() reads 1.5 and true as 1)."""
    if type(value) is not int:  # a bool's type is bool
        raise FileFormatError("%s must be an integer, got %r" % (what, value))
    return value


def _integers(values, what: str) -> list[int]:
    """values, if a JSON list of integers, else FileFormatError."""
    if not isinstance(values, list):
        raise FileFormatError("%s must be a list of integers, got %r" % (what, values))
    for v in values:
        if type(v) is not int:
            raise FileFormatError("%s entries must be integers, got %r" % (what, v))
    return values


def load_bundle_file(path: str, cap: int = DEFAULT_ORDER_CAP
                     ) -> tuple[EquivariantBundle, FiniteGroup, Optional[Subgroup]]:
    """Load a bundle with its group, built under the order cap ``cap``; the
    group reference is resolved relative to the bundle file's directory."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError("cannot read bundle file %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise FileFormatError("bundle file %s must hold a JSON object" % path)
    ref = data.get("group")
    if not isinstance(ref, str):
        raise FileFormatError("bundle file needs a 'group' file reference")
    if not ref.startswith("catalog:") and not os.path.isabs(ref):
        ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    G, A = load_group_file(ref, cap=cap)
    bundle = bundle_from_jsonable(data, G)
    return bundle, G, A


def bundle_from_jsonable(data: dict, G: FiniteGroup) -> EquivariantBundle:
    try:
        base_data = data["base"]
        points = _integer(base_data["points"], "bundle base points")
        base = GSet(G, base_data["action"])  # checks every entry of the table
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError("bundle base: %s" % exc)
    if base.size != points:
        raise FileFormatError("bundle action table must be |G| x points")

    mults = {}
    entries = data.get("fibers", [])
    if not isinstance(entries, list):
        raise FileFormatError("bundle 'fibers' must be a list, got %r" % (entries,))
    for fib in entries:
        try:
            rep = _integer(fib["orbit_rep"], "fiber orbit_rep")
            char = fib["character"]
        except (KeyError, TypeError) as exc:
            raise FileFormatError("bundle fiber entry is malformed: %s" % exc)
        if not 0 <= rep < points:
            raise FileFormatError("fiber orbit_rep %d is not a point in 0..%d" % (rep, points - 1))
        if rep in mults:
            raise FileFormatError("two fibers at point %d" % rep)
        if isinstance(char, dict) and "irreducible_multiplicities" in char:
            ms = char["irreducible_multiplicities"]
            if not isinstance(ms, list):
                raise FileFormatError("irreducible_multiplicities at point %d must be a list" % rep)
            mults[rep] = ms  # entries are checked by from_multiplicities
        elif isinstance(char, list):
            sgrp, _ = base.stabilizer(rep).as_group()
            values = [_fiber_value(v, G) for v in char]
            if len(values) != len(sgrp.conjugacy_classes()):
                raise FileFormatError("fiber character has %d values, stabilizer has %d classes"
                                      % (len(values), len(sgrp.conjugacy_classes())))
            mults[rep] = _character_multiplicities(ClassFunction(sgrp, values))
        else:
            raise FileFormatError("fiber character must be multiplicities or a value list")
    try:
        return EquivariantBundle.from_multiplicities(base, mults)
    except ValueError as exc:
        raise FileFormatError(str(exc))


def _character_multiplicities(chi: ClassFunction) -> list[int]:
    """The multiplicities of the rows of chi's group's table in chi; a
    FileFormatError unless each is an integer >= 0."""
    out = []
    for row in character_table(chi.group).rows:
        m = inner_product(chi, row)
        r = m.rational() if m.is_rational() else None
        if r is None or r.denominator != 1 or r < 0:
            raise FileFormatError("fiber character is not a genuine character "
                                  "(multiplicity %r)" % (m,))
        out.append(int(r))
    return out


def _fiber_value(obj, G: FiniteGroup):
    """One cyclotomic fiber value; its order must divide the exponent of G,
    whose field holds every character of a stabilizer."""
    e = obj.get("e") if isinstance(obj, dict) else None
    if not isinstance(e, int) or isinstance(e, bool) or e <= 0 or G.exponent % e:
        raise FileFormatError("fiber value %r needs an order e dividing the group "
                              "exponent %d" % (obj, G.exponent))
    try:
        return cyclotomic_from_jsonable(obj)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FileFormatError("fiber value %r is malformed: %s" % (obj, exc))
