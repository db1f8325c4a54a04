"""Layer spans recorded from outside the package, by wrapping its functions.

Each wrapped function becomes a span with a name, start, end, parent span
and job id, kept in memory until the run ends.  Hot leaf functions, called
up to millions of times a run, are aggregated instead: one count and one
self time per (parent span, name).  A span's self time is its duration minus
the durations of the spans it directly encloses.

Wrappers are installed at every place a caller resolves the function: the
defining module, every package module that re-imported the name, and every
class attribute holding it (method aliases such as ``__radd__`` included).
Deferred imports inside the package resolve through the defining module and
so reach the wrapper too.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute path, hot)
TARGETS = [
    ("groups.group_from_generators", "isotypic.groups", "group_from_generators", False),
    ("groups.finite_group_init", "isotypic.groups", "FiniteGroup.__init__", True),
    ("groups.conjugacy_classes", "isotypic.groups", "FiniteGroup.conjugacy_classes", True),
    ("groups.closure", "isotypic.groups", "closure", True),
    ("groups.all_subgroups", "isotypic.groups", "FiniteGroup.all_subgroups", False),
    ("groups.subgroup_conjugacy_classes", "isotypic.groups",
     "FiniteGroup.subgroup_conjugacy_classes", False),
    ("groups.minimal_generators", "isotypic.groups", "minimal_generators", True),
    ("groups.normalizer", "isotypic.groups", "FiniteGroup.normalizer", True),
    ("groups.is_normal", "isotypic.groups", "FiniteGroup.is_normal", True),
    ("groups.quotient", "isotypic.groups", "FiniteGroup.quotient", True),
    ("groups.as_group", "isotypic.groups", "Subgroup.as_group", True),
    ("characters.character_table", "isotypic.characters", "character_table", True),
    ("characters.inner_product", "isotypic.characters", "inner_product", True),
    ("characters.restrict", "isotypic.characters", "restrict", True),
    ("characters.determinant_character_value", "isotypic.characters",
     "determinant_character_value", True),
    ("cyclotomic.init", "isotypic.cyclotomic", "Cyclotomic.__init__", True),
    ("cyclotomic.add", "isotypic.cyclotomic", "Cyclotomic.__add__", True),
    ("cyclotomic.mul", "isotypic.cyclotomic", "Cyclotomic.__mul__", True),
    ("cyclotomic.conjugate", "isotypic.cyclotomic", "Cyclotomic.conjugate", True),
    ("cyclotomic.promote", "isotypic.cyclotomic", "Cyclotomic.promote", True),
    ("cyclotomic.equals_value", "isotypic.cyclotomic", "Cyclotomic.equals_value", True),
    ("repmatrices.matrix_irreps", "isotypic.repmatrices", "matrix_irreps", False),
    ("repmatrices.intertwiner", "isotypic.repmatrices", "intertwiner", False),
    ("repmatrices.obstruction_cocycle", "isotypic.repmatrices", "obstruction_cocycle", False),
    ("repmatrices.stabilizer_of_character", "isotypic.repmatrices",
     "stabilizer_of_character", False),
    ("orbits.orbit_decomposition", "isotypic.orbits", "orbit_decomposition", False),
    ("orbits.irr_action", "isotypic.orbits", "irr_action", True),
    ("orbits.omega_regular_count", "isotypic.orbits", "omega_regular_count", False),
    ("orbits.extension_exists", "isotypic.orbits", "extension_exists", False),
    ("bundles.gset_init", "isotypic.bundles", "GSet.__init__", False),
    ("bundles.stabilizer", "isotypic.bundles", "GSet.stabilizer", True),
    ("bundles.fiber_character", "isotypic.bundles", "fiber_character", True),
    ("bundles.induction_piece_character", "isotypic.bundles", "induction_piece_character", False),
    ("bundles.verify_decomposition", "isotypic.bundles", "verify_decomposition", False),
    ("bundles.from_multiplicities", "isotypic.bundles",
     "EquivariantBundle.from_multiplicities", False),
    ("bordism.rank_profile", "isotypic.bordism", "rank_profile", False),
    ("bordism.burnside_label_series", "isotypic.bordism", "burnside_label_series", False),
    ("bordism.global_generator_series", "isotypic.bordism", "global_generator_series", False),
    ("bordism.d2p_certify", "isotypic.bordism", "d2p_certify", False),
    ("files.load", "isotypic.files", "load_group_file", False),
    ("files.load", "isotypic.files", "load_bundle_file", False),
    ("cli.render", "isotypic.cli", "Report.to_json", False),
]

# span names reported together as one layer metric
CYCLOTOMIC_OPS = tuple(name for name, *_ in TARGETS if name.startswith("cyclotomic."))


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, job, self seconds)
        self.hot = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [count, self s]
        self.job = None
        self._stack = []         # frames: [child seconds, span id]
        self._next_id = 0
        self._patched = []       # (module or class, attribute, original)

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, hot: bool):
        stack = self._stack
        clock = time.perf_counter

        if hot:
            def wrapper(*args, **kwargs):
                parent = stack[-1][1] if stack else None
                frame = [0.0, parent]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    acc = self.hot[(parent, name)]
                    acc[0] += 1
                    acc[1] += dur - frame[0]
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1][1] if stack else None
                self._next_id += 1
                frame = [0.0, self._next_id]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    if stack:
                        stack[-1][0] += t1 - t0
                    self.spans.append((frame[1], name, t0, t1, parent, self.job,
                                       t1 - t0 - frame[0]))
        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        owners = {}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "isotypic" or name.startswith("isotypic.")):
                continue
            owners[id(mod)] = mod
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__.startswith("isotypic"):
                    owners[id(value)] = value
        for name, modname, path, hot in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self.span(name, raw.__func__, hot))
            else:
                replacement = self.span(name, raw, hot)
            for obj in owners.values():
                for key, value in list(vars(obj).items()):
                    if value is raw:
                        self._patched.append((obj, key, raw))
                        setattr(obj, key, replacement)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched = []

    # -- results -------------------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, self seconds] over every span and hot aggregate."""
        out = defaultdict(lambda: [0, 0.0])
        for _, name, _, _, _, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        for (_, name), (count, self_s) in self.hot.items():
            out[name][0] += count
            out[name][1] += self_s
        return dict(out)

