"""Generator-count series for equivariant unitary bordism of adjacent families.

Everything is a truncated integer power series in the topological degree.
The free-module generators of the bordism of a product of BU(k)'s are
labeled by an array of isotypic ranks (one per nontrivial irreducible of
the subgroup the families differ by) together with one partition of at most
that many parts per coordinate; the series of a pair of adjacent families
counts Weyl-orbit classes of such labels via Burnside's lemma, localized
away from the group order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .catalog import build_catalog_group
from .characters import character_table
from .cyclotomic import _factorize
from .errors import CapExceeded, NotNormal, NotOdd, NotPrime
from .groups import FiniteGroup, Subgroup


# -- truncated integer series ----------------------------------------------------


class PowerSeries:
    """Truncated power series with integer coefficients, indexed by degree."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int]):
        self.coefficients = tuple(int(c) for c in coefficients)

    @property
    def max_degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> int:
        return self.coefficients[n] if 0 <= n <= self.max_degree else 0

    @staticmethod
    def zero(max_degree: int) -> "PowerSeries":
        return PowerSeries([0] * (max_degree + 1))

    @staticmethod
    def one(max_degree: int) -> "PowerSeries":
        return PowerSeries([1] + [0] * max_degree)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.max_degree, other.max_degree)
        return PowerSeries([self.coefficient(i) + other.coefficient(i) for i in range(n + 1)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.max_degree, other.max_degree)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coefficients[:n + 1]):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients[:n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return PowerSeries(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return "PowerSeries(%r)" % (list(self.coefficients),)


# -- partition combinatorics ------------------------------------------------------


@lru_cache(maxsize=None)
def partitions_at_most(n: int, parts: int) -> int:
    """Number of partitions of n into at most `parts` parts."""
    if n == 0:
        return 1
    if n < 0 or parts == 0:
        return 0
    return partitions_at_most(n, parts - 1) + partitions_at_most(n - parts, parts)


def omega_generator_series(max_degree: int) -> PowerSeries:
    """Rank series of the unitary bordism coefficient ring.

    Coefficient at degree 2k is the number of partitions of k (one free
    polynomial generator in each even degree); odd coefficients vanish.
    """
    if max_degree > 200:
        raise CapExceeded("max_degree above 200")
    coeffs = [0] * (max_degree + 1)
    for n in range(0, max_degree + 1, 2):
        coeffs[n] = partitions_at_most(n // 2, n // 2)
    return PowerSeries(coeffs)


def bu_generator_series(ranks: Sequence[int], max_degree: int) -> PowerSeries:
    """Generator series of the bordism of a product of BU(r)'s.

    One free generator per tuple of partitions (at most r parts for the
    BU(r) factor), in degree twice the total size.
    """
    out = PowerSeries.one(max_degree)
    for r in ranks:
        factor = [partitions_at_most(n // 2, r) if n % 2 == 0 else 0
                  for n in range(max_degree + 1)]
        out = out * PowerSeries(factor)
    return out


def _stack_series(u_exp: int, v_exp: int, max_degree: int) -> PowerSeries:
    """sum_{n>=0} u^n * (sum over partitions with at most n parts of v^size),
    with u = t^u_exp and v = t^v_exp, truncated."""
    coeffs = [0] * (max_degree + 1)
    n = 0
    while n * u_exp <= max_degree:
        base = n * u_exp
        j = 0
        while base + j * v_exp <= max_degree:
            coeffs[base + j * v_exp] += partitions_at_most(j, n)
            j += 1
        n += 1
    return PowerSeries(coeffs)


# -- rank profiles and Burnside counting ------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    """Dimensions of the (nontrivial) irreducibles of A with a Weyl action.

    perms holds one permutation of the index set per element of the acting
    group W (not deduplicated; Burnside averages over group elements).
    """

    dims: tuple
    perms: tuple

    def __post_init__(self):
        for perm in self.perms:
            for i, j in enumerate(perm):
                if self.dims[i] != self.dims[j]:
                    raise ValueError("action does not preserve dimensions")


def rank_profile(G: FiniteGroup, A: Subgroup, include_trivial: bool = False) -> RankProfile:
    """Irreducible dimensions of A with the outer action of N_A/A.

    N_A/A acts by the maps of ``G.conjugation_action(A)``, one per coset of A
    in N_A, in increasing order.  For normal A, N_A = G and the acting group is G/A.
    """
    table = character_table(A.as_group()[0])
    triv = table.trivial_index()
    indices = [i for i in range(len(table)) if include_trivial or i != triv]
    pos = {t: i for i, t in enumerate(indices)}
    perms = tuple(tuple(pos[table.row_index(table.rows[t].pullback(conj_map).values)]
                        for t in indices)
                  for conj_map in G.conjugation_action(A)[1].values())
    dims = tuple(table.degrees[i] for i in indices)
    return RankProfile(dims=dims, perms=perms)


def enumerate_arrays(profile: RankProfile, k: int) -> list[tuple[int, ...]]:
    """All arrays (n_i) of nonnegative integers with sum n_i * dims[i] = k,
    lexicographically sorted (n ascends at each position, later ones fastest)."""
    dims = profile.dims
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(dims):
            if remaining == 0:
                out.append(prefix)
            return
        if remaining < 0:
            return
        for n in range(0, remaining // dims[i] + 1):
            rec(i + 1, remaining - n * dims[i], prefix + (n,))

    if not dims:
        return [()] if k == 0 else []
    rec(0, k, ())
    return out


def _cycles(perm: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(cyc)
    return cycles


def burnside_label_series(profile: RankProfile, max_degree: int) -> PowerSeries:
    """Number of W-orbits of (rank array, partition tuple) labels per degree.

    A label of total degree n consists of an array (n_i) with partitions of
    at most n_i parts attached; its degree is twice the weighted array size
    plus twice the total partition size.  Burnside's lemma turns the orbit
    count into an average over W of products of stacked series, one factor
    per cycle of the action.
    """
    if not profile.perms:
        raise ValueError("profile carries an empty acting group")
    total = PowerSeries.zero(max_degree)
    for perm in profile.perms:
        fixed = PowerSeries.one(max_degree)
        for cyc in _cycles(perm):
            ell = len(cyc)
            dim = profile.dims[cyc[0]]
            fixed = fixed * _stack_series(2 * ell * dim, 2 * ell, max_degree)
        total = total + fixed
    w = len(profile.perms)
    if any(c % w for c in total.coefficients):
        raise AssertionError("Burnside average is not integral")
    return PowerSeries([c // w for c in total.coefficients])


def adjacent_family_series(G: FiniteGroup, A: Subgroup, max_degree: int) -> PowerSeries:
    """Generator series of the bordism of an adjacent pair differing by a
    normal subgroup A, localized away from |G|.

    Coefficient at n counts G/A-orbits of basis labels of degree n; odd
    coefficients vanish.
    """
    if not G.is_normal(A):
        raise NotNormal("adjacent family series needs a normal subgroup")
    return burnside_label_series(rank_profile(G, A), max_degree)


def global_generator_series(G: FiniteGroup, max_degree: int):
    """Total generator series of the localized equivariant bordism of G.

    One summand per conjugacy class of subgroups; returns (total, breakdown)
    where breakdown lists (representative subgroup, class size, series).
    """
    total = PowerSeries.zero(max_degree)
    breakdown = []
    for cls in G.subgroup_conjugacy_classes():
        rep = cls[0]
        series = burnside_label_series(rank_profile(G, rep), max_degree)
        total = total + series
        breakdown.append((rep, len(cls), series))
    return total, breakdown


# -- the dihedral certification ----------------------------------------------------


def is_family(G: FiniteGroup, members: set) -> bool:
    """Closed under subgroups and conjugation (members: set of member-tuples)."""
    subs = {s.members: s for s in G.all_subgroups()}
    for mem in members:
        s = subs[mem]
        for g in G.elements():
            if s.conjugate(g).members not in members:
                return False
        for t in subs.values():
            if set(t.members) <= set(mem) and t.members not in members:
                return False
    return True


@dataclass
class D2pReport:
    """Families, adjacency data, and generator series for a dihedral group."""

    p: int
    max_degree: int
    families: dict
    adjacency: list
    pair_series: dict
    global_series: PowerSeries
    degree_zero: int
    subgroup_class_count: int
    odd_vanishing: bool
    irr_pairs: int
    irr_fixed: int

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "max_degree": self.max_degree,
            "localization": "generator counts after inverting the primes dividing 2p",
            "families": {k: [list(m) for m in v] for k, v in self.families.items()},
            "family_sizes": {k: len(v) for k, v in self.families.items()},
            "adjacency": self.adjacency,
            "pair_series": {k: list(s.coefficients) for k, s in self.pair_series.items()},
            "global_series": list(self.global_series.coefficients),
            "degree_zero": self.degree_zero,
            "subgroup_class_count": self.subgroup_class_count,
            "odd_vanishing": self.odd_vanishing,
            "nontrivial_irr_orbits": {"pairs": self.irr_pairs, "fixed": self.irr_fixed},
        }


def d2p_certify(p: int, max_degree: int) -> D2pReport:
    """Certify the free-on-even-generators shape for the dihedral group of
    order 2p at the level of localized generator counts.

    Builds the chain of four families, checks adjacency and the Weyl groups
    of each step, computes the series of every adjacent pair and the global
    series, and asserts that all odd coefficients vanish.
    """
    if p % 2 == 0:
        raise NotOdd("p must be odd")
    if _factorize(p) != [(p, 1)]:
        raise NotPrime("p must be an odd prime")
    if p > 13:
        raise CapExceeded("p above 13")
    if max_degree > 60:
        raise CapExceeded("max_degree above 60")

    G, _ = build_catalog_group("D%d" % (2 * p))
    subs = G.all_subgroups()
    trivial = next(s for s in subs if s.order == 1)
    rotation = next(s for s in subs if s.order == p)
    reflections = [s for s in subs if s.order == 2]
    full = next(s for s in subs if s.order == 2 * p)
    assert len(subs) == p + 3

    f0 = {trivial.members}
    f1 = f0 | {rotation.members}
    f2 = f1 | {s.members for s in reflections}
    f3 = f2 | {full.members}
    families = {"F0": sorted(f0), "F1": sorted(f1), "F2": sorted(f2), "F3": sorted(f3)}
    for name, fam in [("F0", f0), ("F1", f1), ("F2", f2), ("F3", f3)]:
        if not is_family(G, fam):
            raise AssertionError("%s is not closed under subgroups/conjugation" % name)
    assert f2 == {s.members for s in subs if s.order != 2 * p}, "F2 must be all but the full group"

    steps = [("(F1,F0)", rotation), ("(F2,F1)", reflections[0]), ("(F3,F2)", full)]
    adjacency = []
    pair_series = {}
    for label, A in steps:
        N = G.normalizer(A)
        weyl_order = N.order // A.order
        adjacency.append({
            "pair": label,
            "differs_by_order": A.order,
            "conjugacy_class_size": G.order // N.order,
            "normalizer_order": N.order,
            "weyl_order": weyl_order,
        })
        pair_series[label] = burnside_label_series(rank_profile(G, A), max_degree)
    pair_series["(F0,)"] = burnside_label_series(rank_profile(G, trivial), max_degree)

    # the full group and each reflection subgroup are self-normalizing,
    # while the rotation subgroup has Weyl group Z/2
    assert adjacency[0]["weyl_order"] == 2
    assert adjacency[1]["weyl_order"] == 1
    assert adjacency[2]["weyl_order"] == 1

    total, breakdown = global_generator_series(G, max_degree)
    class_count = len(breakdown)
    prof = rank_profile(G, rotation)
    swap = next(perm for perm in prof.perms if perm != tuple(range(len(prof.dims))))
    cycles = _cycles(swap)
    irr_pairs = sum(1 for c in cycles if len(c) == 2)
    irr_fixed = sum(1 for c in cycles if len(c) == 1)

    odd_ok = all(total.coefficient(n) == 0 for n in range(1, max_degree + 1, 2)) and \
        all(all(s.coefficient(n) == 0 for n in range(1, max_degree + 1, 2))
            for s in pair_series.values())

    return D2pReport(
        p=p, max_degree=max_degree, families=families, adjacency=adjacency,
        pair_series=pair_series, global_series=total,
        degree_zero=total.coefficient(0), subgroup_class_count=class_count,
        odd_vanishing=odd_ok, irr_pairs=irr_pairs, irr_fixed=irr_fixed)
