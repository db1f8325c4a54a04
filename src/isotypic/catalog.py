"""Built-in groups, given as permutation generators.

Every entry carries the permutation generators (so it can be exported as a
group file), the indices of the generators spanning a distinguished normal
subgroup where one is interesting, and the documented invariants the test
suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .groups import DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, group_from_generators


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    degree: int
    generators: tuple
    normal_generator_indices: tuple = ()
    expected: dict = field(default_factory=dict)


def _cycle(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


def _reflection(n: int) -> tuple:
    return tuple((n - i) % n for i in range(n))


def _perm_from_cycles(degree: int, cycles) -> tuple:
    out = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def _dicyclic_regular(m: int) -> tuple:
    """Left regular permutations (a, b, a^m) of the dicyclic group of order 4m
    (a^2m = 1, b^2 = a^m, b a b^-1 = a^-1); a^m spans the center."""
    n = 4 * m

    def mul(x, y):
        i, j = x % (2 * m), x // (2 * m)
        k, l = y % (2 * m), y // (2 * m)
        if j == 0:
            return (i + k) % (2 * m) + 2 * m * l
        if l == 0:
            return (i - k) % (2 * m) + 2 * m
        return (i - k + m) % (2 * m)

    def left(g):
        return tuple(mul(g, h) for h in range(n))

    a = 1
    b = 2 * m
    am = m
    return left(a), left(b), left(am)


def _catalog() -> dict:
    entries = {}

    for n in range(1, 17):
        gens = [_cycle(n)]
        normal = ()
        if n % 2 == 0 and n > 1:
            # a^2 spans the index-2 subgroup, exported for the (Z/n, Z/(n/2)) pair
            gens.append(_perm_power(_cycle(n), 2))
            normal = (1,)
        entries["Z%d" % n] = CatalogEntry(
            name="Z%d" % n, degree=n, generators=tuple(gens),
            normal_generator_indices=normal,
            expected={"order": n, "classes": n, "abelian": True})

    # dihedral groups on n >= 3 points (the order-4 case is the V4 entry)
    for n in range(3, 14):
        entries["D%d" % (2 * n)] = CatalogEntry(
            name="D%d" % (2 * n), degree=n,
            generators=(_cycle(n), _reflection(n)),
            normal_generator_indices=(0,),
            expected={"order": 2 * n,
                      "classes": (n // 2 + 3) if n % 2 == 0 else (n + 3) // 2})

    q8 = _dicyclic_regular(2)
    entries["Q8"] = CatalogEntry(
        name="Q8", degree=8, generators=q8, normal_generator_indices=(2,),
        expected={"order": 8, "classes": 5, "degrees": (1, 1, 1, 1, 2)})
    q16 = _dicyclic_regular(4)
    entries["Q16"] = CatalogEntry(
        name="Q16", degree=16, generators=q16, normal_generator_indices=(2,),
        expected={"order": 16, "classes": 7})

    entries["S3"] = CatalogEntry(
        name="S3", degree=3,
        generators=(_perm_from_cycles(3, [(0, 1, 2)]), _perm_from_cycles(3, [(0, 1)])),
        normal_generator_indices=(0,),
        expected={"order": 6, "classes": 3, "class_sizes": (1, 2, 3)})
    entries["S4"] = CatalogEntry(
        name="S4", degree=4,
        generators=(_perm_from_cycles(4, [(0, 1, 2, 3)]), _perm_from_cycles(4, [(0, 1)]),
                    _perm_from_cycles(4, [(0, 1), (2, 3)]), _perm_from_cycles(4, [(0, 2), (1, 3)])),
        normal_generator_indices=(2, 3),
        expected={"order": 24, "classes": 5, "degrees": (1, 1, 2, 3, 3)})
    entries["A4"] = CatalogEntry(
        name="A4", degree=4,
        generators=(_perm_from_cycles(4, [(0, 1, 2)]), _perm_from_cycles(4, [(0, 1), (2, 3)]),
                    _perm_from_cycles(4, [(0, 2), (1, 3)])),
        normal_generator_indices=(1, 2),
        expected={"order": 12, "classes": 4, "degrees": (1, 1, 1, 3)})
    entries["V4"] = CatalogEntry(
        name="V4", degree=4,
        generators=(_perm_from_cycles(4, [(0, 1)]), _perm_from_cycles(4, [(2, 3)])),
        normal_generator_indices=(0,),
        expected={"order": 4, "classes": 4, "abelian": True})

    # semidirect products Z/p x| Z/q with q | p-1 (multiplication action)
    entries["F20"] = CatalogEntry(
        name="F20", degree=5,
        generators=(_cycle(5), tuple(2 * i % 5 for i in range(5))),
        normal_generator_indices=(0,),
        expected={"order": 20, "classes": 5, "degrees": (1, 1, 1, 1, 4)})
    entries["F21"] = CatalogEntry(
        name="F21", degree=7,
        generators=(_cycle(7), tuple(2 * i % 7 for i in range(7))),
        normal_generator_indices=(0,),
        expected={"order": 21, "classes": 5, "degrees": (1, 1, 1, 3, 3)})

    return entries


def _perm_power(p: tuple, k: int) -> tuple:
    out = tuple(range(len(p)))
    for _ in range(k):
        out = tuple(p[x] for x in out)
    return out


CATALOG = _catalog()


def catalog_entry(name: str) -> CatalogEntry:
    if name not in CATALOG:
        raise KeyError("unknown catalog group %r (known: %s)"
                       % (name, ", ".join(sorted(CATALOG))))
    return CATALOG[name]


def build_catalog_group(name: str, cap: int = DEFAULT_ORDER_CAP
                        ) -> tuple[FiniteGroup, Optional[Subgroup]]:
    """Construct a catalog group and its distinguished normal subgroup."""
    entry = catalog_entry(name)
    G = group_from_generators(entry.degree, entry.generators, name=entry.name, cap=cap)
    normal = None
    if entry.normal_generator_indices:
        normal = G.subgroup([G.generators[i] for i in entry.normal_generator_indices])
    return G, normal


def catalog_pairs() -> list[tuple[str, FiniteGroup, Subgroup]]:
    """The (G, A) pairs with A normal that the test suite sweeps."""
    pair_names = ["Z4", "Z8", "D6", "D8", "D10", "D14", "Q8", "Q16",
                  "S4", "A4", "F21", "F20"]
    pairs = []
    for name in pair_names:
        G, A = build_catalog_group(name)
        assert A is not None and G.is_normal(A)
        pairs.append((name, G, A))
    # a second dihedral pair: D8 over its center
    d8, _ = build_catalog_group("D8")
    pairs.append(("D8/center", d8, d8.center()))
    # Q8 over a cyclic subgroup of order 4
    q8, _ = build_catalog_group("Q8")
    i4 = next(g for g in q8.elements() if q8.element_order(g) == 4)
    pairs.append(("Q8/Z4", q8, q8.subgroup([i4])))
    # S4 over A4, its one subgroup of order 12
    s4, _ = build_catalog_group("S4")
    pairs.append(("S4/A4", s4, next(H for H in s4.all_subgroups() if H.order == 12)))
    return pairs

