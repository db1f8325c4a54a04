"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# time limit, so they are reproducible and cannot fail on a slow machine.
settings.register_profile("isotypic", derandomize=True, deadline=None, database=None)
settings.load_profile("isotypic")

from isotypic.bundles import EquivariantBundle, GSet
from isotypic.catalog import CATALOG, build_catalog_group, catalog_pairs
from isotypic.characters import ClassFunction, restrict
from isotypic.groups import FiniteGroup, Subgroup, group_from_generators


@pytest.fixture(scope="session")
def d8():
    return build_catalog_group("D8")


@pytest.fixture(scope="session")
def q8():
    return build_catalog_group("Q8")


@pytest.fixture(scope="session")
def z4():
    return build_catalog_group("Z4")


@pytest.fixture(scope="session")
def pairs():
    return catalog_pairs()


def dihedral(p: int) -> FiniteGroup:
    rot = [(i + 1) % p for i in range(p)]
    ref = [(p - i) % p for i in range(p)]
    return group_from_generators(p, [rot, ref], name="D%d" % (2 * p))


S3_GENS = [[1, 2, 0], [1, 0, 2]]
S4_GENS = [[1, 2, 3, 0], [1, 0, 2, 3]]


def direct_product(gens1, deg1, gens2, deg2):
    """Generators of the direct product acting on deg1 + deg2 points."""
    return ([list(p) + list(range(deg1, deg1 + deg2)) for p in gens1]
            + [list(range(deg1)) + [deg1 + x for x in q] for q in gens2])


def conj(G: FiniteGroup, g: int, a: int) -> int:
    """g a g^-1, read off G's table."""
    return G.mul(G.mul(g, a), G.inv(g))


def relabelled_generators(degree, gens, rng) -> tuple[list[list[int]], list[int]]:
    """(new, at): gens after a random relabelling of the points, the list
    shuffled, and where the shuffle put each generator, new[at[i]] being
    gens[i] relabelled.  Shuffling the positions draws what shuffling the
    list would."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    inv = [sigma.index(i) for i in range(degree)]
    order = list(range(len(gens)))
    rng.shuffle(order)
    new = [[sigma[gens[j][inv[i]]] for i in range(degree)] for j in order]
    return new, [order.index(i) for i in range(len(gens))]


def plain_index(degree, gens) -> dict[tuple[int, ...], int]:
    """Each permutation of the group gens generate -> its element index, by
    plain means: breadth-first discovery with each product composed in
    Python, in the order group_from_generators numbers the elements."""
    ident = tuple(range(degree))
    perms, index = [ident], {ident: 0}
    for p in perms:  # perms grows while it is scanned
        for g in gens:
            y = tuple(p[i] for i in g)
            if y not in index:
                index[y] = len(perms)
                perms.append(y)
    return index


def plain_permutation_closure(degree, gens):
    """(perms, table, inv) by plain means: the permutations in discovery
    order (``plain_index``), then table[a][b] = index of p_a o p_b for every
    pair and inv[a] = index of p_a^-1."""
    index = plain_index(degree, gens)
    perms = list(index)
    table = [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]
    inv = [index[tuple(sorted(range(degree), key=p.__getitem__))] for p in perms]
    return perms, table, inv


def relabelled_group(name, degree, gens, rng) -> FiniteGroup:
    """The group generated by gens after a random relabelling of the points,
    with the generator list shuffled, so every element index changes."""
    return group_from_generators(degree, relabelled_generators(degree, gens, rng)[0], name=name)


def relabel(G, rng):
    """(H, pi): G with every non-identity element a renamed pi[a], pi random."""
    pi = [0] + rng.sample(range(1, G.order), G.order - 1)
    table = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            table[pi[a]][pi[b]] = pi[G.mul(a, b)]
    return FiniteGroup(table, name=G.name, check=False), pi


def benchmark_pool() -> dict:
    """The benchmark's group pool, ``POOL`` of perfbench/inputs.py, loaded by
    path (that module uses no package code)."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.POOL


def pool_pair(spec) -> tuple:
    """G and its normal subgroup A from a benchmark pool GroupSpec."""
    G = group_from_generators(spec.degree, list(spec.gens) + list(spec.normal_gens),
                              name=spec.name)
    return G, G.subgroup(G.generators[len(spec.gens):])


# -- input builders: no command reaches these, only tests of other functions ---


def all_catalog_groups() -> list[FiniteGroup]:
    """Every catalog group, built fresh (orders are all at most 64)."""
    return [build_catalog_group(name)[0] for name in sorted(CATALOG)]


def point_gset(G: FiniteGroup) -> GSet:
    """The one-point G-set, GSet.cosets(G, G.full_subgroup())."""
    return GSet(G, [[0]] * G.order)


def class_sum(chis) -> ClassFunction:
    """The valuewise sum of class functions on one group."""
    first, *rest = chis
    assert all(chi.group is first.group for chi in rest)
    return ClassFunction(first.group, [sum(vs[1:], vs[0])
                                       for vs in zip(*(chi.values for chi in chis))])


def trivial_bundle(base: GSet, chi: ClassFunction) -> EquivariantBundle:
    """The product bundle with fiber a fixed representation of G."""
    fibers = {}
    for orb in base.orbits():
        rep = orb[0]
        fibers[rep] = restrict(chi, base.stabilizer(rep))
    return EquivariantBundle(base, fibers)


def induced_bundle(G: FiniteGroup, H: Subgroup, chi: ClassFunction) -> EquivariantBundle:
    """The bundle G x_H V over G/H determined by an H-representation."""
    base = GSet.cosets(G, H)
    sgrp = H.as_group()
    if chi.group is not sgrp:
        raise ValueError("character must live on the inducing subgroup")
    return EquivariantBundle(base, {0: chi})


# -- independent oracles -------------------------------------------------------


def brute_conjugacy_classes(table):
    """Conjugacy classes straight from a multiplication table (no library)."""
    n = len(table)
    inv = [row.index(0) for row in [list(r) for r in table]]
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        cls = {table[table[x][g]][inv[x]] for x in range(n)}
        seen |= cls
        classes.append(tuple(sorted(cls)))
    return sorted(classes, key=lambda c: c[0])


def brute_partitions(n: int, max_parts: int = None):
    """All partitions of n (optionally with a bounded number of parts)."""
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            if max_parts is None or len(prefix) <= max_parts:
                out.append(tuple(prefix))
            return
        if max_parts is not None and len(prefix) >= max_parts:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


def brute_label_orbit_counts(dims, perms, max_degree):
    """Orbit counts of (array, partition tuple) labels per degree, by explicit
    enumeration and canonical-form deduplication; checks Burnside externally."""
    labels_by_degree = {n: set() for n in range(max_degree + 1)}
    arrays = _arrays_up_to(dims, max_degree // 2)
    for arr in arrays:
        k = sum(n * d for n, d in zip(arr, dims))
        budget = (max_degree - 2 * k) // 2
        if budget < 0:
            continue
        for sizes in _compositions(budget, len(arr)):
            choices = [brute_partitions(s, m) for s, m in zip(sizes, arr)]
            if any(not c for c in choices):
                continue
            for combo in itertools.product(*choices):
                degree = 2 * k + 2 * sum(sum(lam) for lam in combo)
                canon = min(_apply_label(arr, combo, perm) for perm in perms)
                labels_by_degree[degree].add(canon)
    return [len(labels_by_degree[n]) for n in range(max_degree + 1)]


def _apply_label(arr, partitions, perm):
    new_arr = [0] * len(arr)
    new_parts = [()] * len(arr)
    for i, j in enumerate(perm):
        new_arr[j] = arr[i]
        new_parts[j] = partitions[i]
    return tuple(new_arr), tuple(new_parts)


def _arrays_up_to(dims, kmax):
    out = []

    def rec(i, budget, prefix):
        if i == len(dims):
            out.append(tuple(prefix))
            return
        for n in range(budget // dims[i] + 1):
            rec(i + 1, budget - n * dims[i], prefix + [n])

    if not dims:
        return [()]
    rec(0, kmax, [])
    return out


def _compositions(total_max, length):
    """All tuples of nonnegative ints of given length with sum <= total_max."""
    if length == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _compositions(total_max - first, length - 1):
            yield (first,) + rest


def brute_automorphisms(G: FiniteGroup, limit: int = 200000):
    """All automorphisms of a small group by generator-image search."""
    from isotypic.groups import minimal_generators
    gens = minimal_generators(G, tuple(G.elements()))
    orders = [G.element_order(g) for g in gens]
    autos = []
    candidates = [[h for h in G.elements() if G.element_order(h) == o] for o in orders]
    for images in itertools.product(*candidates):
        phi = _extend_hom(G, gens, images)
        if phi is not None and len(set(phi)) == G.order:
            autos.append(tuple(phi))
        if len(autos) > limit:
            break
    return autos


def _extend_hom(G, gens, images):
    """Extend generator images to a homomorphism by BFS on words, or None."""
    phi = {0: 0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g, img in zip(gens, images):
            y = G.mul(x, g)
            fy = G.mul(phi[x], img)
            if y in phi:
                if phi[y] != fy:
                    return None
            else:
                phi[y] = fy
                frontier.append(y)
    if len(phi) != G.order:
        return None
    out = [phi[x] for x in range(G.order)]
    # full homomorphism check
    for a in range(G.order):
        for b in range(G.order):
            if out[G.mul(a, b)] != G.mul(out[a], out[b]):
                return None
    return out
