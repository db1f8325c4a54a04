"""Generator-count series for equivariant unitary bordism of adjacent families.

Everything is a truncated integer power series in the topological degree,
capped at degree 200.  The free-module generators of the bordism of a
product of BU(k)'s are labeled by an array of isotypic ranks (one per
nontrivial irreducible of the subgroup A the families differ by) together
with one partition of at most that many parts per coordinate; the series of
a pair of adjacent families counts Weyl-orbit classes of such labels via
Burnside's lemma, localized away from the group order.  Every series is an
Euler product prod_m 1/(1 - t^(2m)) over a multiset of parts m, formed by
the Euler transform from the sums of the parts dividing each k.

The count depends only on the Weyl cycle types: for each w in N_G(A)/A, the
multiset of (cycle length, degree) over the cycles of w on the nontrivial
irreducibles of A.  By Brauer's permutation lemma (Isaacs Thm 6.32 and
Cor. 6.33) w has the same cycles on Irr(A) as on the classes of A.  For
abelian A every class is one element and every character linear, so the
types are read straight off the conjugation maps of
``FiniteGroup.conjugation_action(A)``, every cycle of degree 1; the trivial
subgroup has no nontrivial irreducible, so its |G| elements w all have the
empty type, read with no coset table.  For non-abelian A the cycle lengths
are read off the action on the classes of A and on the cosets of A', and
the degrees fitted to them: each non-linear degree exceeds 1 and divides
|A| (Isaacs Thm 3.11), a cycle permutes characters of one degree, the
squares of the non-linear degrees sum to |A| - [A:A'], and by the
Frobenius-Schur count (Isaacs Ch. 4) all the degrees sum to at least
#{a in A : a^2 = 1}, so the non-linear ones to at least that less [A:A'].
When exactly one assignment of degrees to the cycles fits, it is the true
one, and no character table is built: S5's degrees 4, 4, 5, 5, 6 are the
one fit, as 2, 3, 4, 5, 8 sum below the floor.  Only when some w has no fit
or more than one (the classes of order 72 and 144 of S4xS3) is a table
built, by ``rank_profile``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from math import isqrt
from operator import add, mul
from typing import Optional, Sequence

from .characters import character_table
from .cyclotomic import _factorize
from .errors import CapExceeded, NotNormal, NotOdd, NotPrime
from .groups import (DEFAULT_ORDER_CAP, FiniteGroup, Subgroup, _gather, _partition, closure,
                     group_from_generators)
from .orbits import irr_permutations

MAX_DEGREE = 200
# the largest p that d2p_certify accepts.  Time and memory grow as p^2 (the
# table of D2p has 4p^2 entries): at degree 40 on a 2-vCPU machine, D1018
# (p = 509) certifies in 0.10-0.22 s with a 12.7 MB traced peak, D2018
# (p = 1009) in 0.44-0.78 s with 48.5 MB
D2P_MAX_P = 509


# -- truncated integer series ----------------------------------------------------


class PowerSeries:
    """Truncated power series with integer coefficients, indexed by degree;
    the coefficients are stored as given, so they must be ints."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[int]):
        self.coefficients = tuple(coefficients)

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
        return PowerSeries([a + b for a, b in zip(self.coefficients, other.coefficients)])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.max_degree, other.max_degree)
        out = [0] * (n + 1)
        terms = [(j, b) for j, b in enumerate(other.coefficients[:n + 1]) if b]
        for i, a in enumerate(self.coefficients[:n + 1]):
            if a == 0:
                continue
            for j, b in terms:
                if i + j > n:
                    break
                out[i + j] += a * b
        return PowerSeries(out)

    def __repr__(self) -> str:
        return "PowerSeries(%r)" % (list(self.coefficients),)


# -- Euler products ----------------------------------------------------------------


def _check_degree(max_degree: int) -> None:
    if max_degree < 0:
        raise ValueError("max_degree below 0")
    if max_degree > MAX_DEGREE:
        raise CapExceeded("max_degree above %d" % MAX_DEGREE)


def _euler_product(part_sums: Sequence[int], max_degree: int) -> list[int]:
    """Coefficients of prod_m 1/(1 - t^(2m)) up to t^max_degree, given the
    part sums: part_sums[k - 1] is the sum of the parts m (with repeats)
    that divide k, for k = 1 .. max_degree // 2.

    The Euler transform (Bernstein and Sloane, Linear Algebra Appl. 226-228,
    1995; Andrews, The Theory of Partitions, Ch. 2): with u = t^2 the
    coefficients a_n of the product satisfy n a_n = sum_{k=1..n} s_k a_{n-k},
    one C-level sum per coefficient.  Each division by n is checked exact.
    """
    even = [1]
    for n in range(1, max_degree // 2 + 1):
        a, r = divmod(sum(map(mul, part_sums, reversed(even))), n)
        if r:
            raise AssertionError("Euler transform is not integral")
        even.append(a)
    coeffs = [0] * (max_degree + 1)
    coeffs[::2] = even
    return coeffs


def _add_part_sums(part_sums: list[int], parts: range, count: int) -> None:
    """Add count copies of each part in parts to the part sums, in place."""
    top = len(part_sums)
    for m in parts:
        w = count * m
        for k in range(m - 1, top, m):
            part_sums[k] += w


def omega_generator_series(max_degree: int) -> PowerSeries:
    """Rank series of the unitary bordism coefficient ring.

    Coefficient at degree 2k is the number of partitions of k (one free
    polynomial generator in each even degree); odd coefficients vanish.
    Up to t^max_degree this is the series of BU(max_degree // 2).
    """
    return bu_generator_series([max_degree // 2], max_degree)


def bu_generator_series(ranks: Sequence[int], max_degree: int) -> PowerSeries:
    """Generator series of the bordism of a product of BU(r)'s.

    One free generator per tuple of partitions (at most r parts for the
    BU(r) factor), in degree twice the total size.
    """
    _check_degree(max_degree)
    part_sums = [0] * (max_degree // 2)
    for r in ranks:
        _add_part_sums(part_sums, range(1, min(r, max_degree // 2) + 1), 1)
    return PowerSeries(_euler_product(part_sums, max_degree))


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

    def cycle_types(self) -> Counter:
        """Sorted (cycle length, dimension) tuple of each perm -> how many perms have it."""
        return Counter(_cycle_type(perm, self.dims) for perm in self.perms)


def rank_profile(G: FiniteGroup, A: Subgroup) -> RankProfile:
    """Nontrivial irreducible dimensions of A with the outer action of N_A/A.

    N_A/A acts by ``orbits.irr_permutations(G, A)``, one per coset of A
    in N_A, in increasing order.  For normal A, N_A = G and the acting group is G/A.
    """
    table = character_table(A.as_group()[0])
    triv = table.trivial_index()
    indices = [i for i in range(len(table)) if i != triv]
    pos = {t: i for i, t in enumerate(indices)}
    perms = tuple(tuple(pos[perm[t]] for t in indices)
                  for perm in irr_permutations(G, A).values())
    dims = tuple(table.degrees[i] for i in indices)
    return RankProfile(dims=dims, perms=perms)


def _fit_degrees(lengths: Sequence[int], order: int, total: int, floor: int = 0):
    """The one multiset of (cycle length, degree) pairs, sorted, that gives
    each cycle length in lengths a degree d >= 2 dividing order so that
    sum(length * d^2) == total and sum(length * d) >= floor; None when no
    multiset fits or more than one does.  Lengths are walked in sorted order
    with degrees nondecreasing within equal lengths, so each multiset is met
    once; a branch is cut when the rest cannot reach or must overshoot the
    remaining sum, and a multiset under the floor is passed over.  The walk
    keeps its own stack (one degree index per cycle), so a thousand cycles
    are a thousand steps, not a thousand nested calls."""
    lengths = sorted(lengths)
    n = len(lengths)
    degrees = [d for d in range(2, isqrt(total) + 1) if order % d == 0]
    squares = [d * d for d in degrees]
    tail = list(accumulate(reversed(lengths), initial=0))[::-1]  # tail[j]: sum of lengths[j:]
    found: list[tuple] = []
    picks: list[int] = []  # picks[j]: the index in degrees of cycle j's degree
    lefts = [total]  # lefts[j]: the sum the cycles from j on must make
    i = 0  # the next index in degrees to try for cycle len(picks)
    while True:
        j = len(picks)
        if j == n:
            if lefts[j] == 0 and sum(map(mul, lengths, map(degrees.__getitem__, picks))) >= floor:
                found.append(tuple((ell, degrees[k]) for ell, k in zip(lengths, picks)))
                if len(found) > 1:
                    break
        elif squares:
            ell, left, after = lengths[j], lefts[j], tail[j + 1]
            # the rest of this run of equal lengths takes degree >= d, the others >= degrees[0]
            run = after - tail[bisect_right(lengths, ell, j)]
            least, most = (after - run) * squares[0], after * squares[-1]
            for i in range(i, len(squares)):
                rest = left - ell * squares[i]
                if rest < run * squares[i] + least:
                    break
                if rest <= most:
                    picks.append(i)
                    lefts.append(rest)
                    if j + 1 < n and lengths[j + 1] != ell:
                        i = 0
                    break
            if len(picks) > j:
                continue
        if not picks:
            break
        lefts.pop()
        i = picks.pop() + 1
    return found[0] if len(found) == 1 else None


def weyl_cycle_types(G: FiniteGroup, A: Subgroup, fits: Optional[dict] = None) -> Counter:
    """The cycle types of N_A/A on the nontrivial irreducibles of A, as
    ``RankProfile.cycle_types`` counts them, one per coset of A in N_A.

    Read off G's table, with no character table of A whenever the cycle
    lengths force the degrees.  The trivial subgroup has no nontrivial
    irreducible and N_1 = G, so its types are |G| empty ones, with no
    conjugation action.  By Brauer's permutation lemma (Isaacs, Thm 6.32
    and Cor. 6.33) each w has the same cycle type on Irr(A) as on the
    classes of A.  When A is abelian every class is one element and every
    character linear, so w's cycle type is that of its conjugation map
    (``FiniteGroup.conjugation_action``) on the non-identity members, every
    cycle of degree 1.  Otherwise, applied to the abelian group A/A', the
    lemma gives w the same cycle type on the linear characters as on the
    cosets of A', so the cycles of w on the non-linear characters are the
    multiset difference of the two.  A cycle permutes characters of one
    degree, each non-linear degree exceeds 1 and divides |A| (Frobenius,
    Isaacs Thm 3.11), the squares of the degrees sum to |A|, so to
    |A| - [A:A'] over the non-linear ones, and the degrees themselves sum to
    at least #{a in A : a^2 = 1} (Frobenius-Schur, Isaacs Ch. 4), so to at
    least that less [A:A'] over the non-linear ones.  The true degrees are
    thus one way to give each cycle of length l a degree d >= 2 dividing |A|
    with sum(l d^2) = |A| - [A:A'] and sum(l d) at least that floor
    (``_fit_degrees``); when it is the only way, it is w's cycle type.  Each
    (lengths, |A|, [A:A'], floor) is fitted once per fits dict, which a
    caller may share across calls.  When some w has no fit or more than one
    (S4xS3's classes of order 72 and 144), the types are read off
    ``rank_profile``.
    """
    if A.order == 1:
        return Counter({(): G.order})
    rows, inv, members = G._rows, G._inv, A.members
    maps = G.conjugation_action(A).maps.values()
    types: dict[tuple, tuple] = {}
    out: Counter = Counter()
    # abelian: every pair of members commutes (stopping at the first that does not)
    if all(rows[x][y] == rows[y][x] for k, x in enumerate(members) for y in members[:k]):
        ones = (1,) * (A.order - 1)
        for image in maps:  # each image fixes position 0, the identity
            if image not in types:
                types[image] = _cycle_type([j - 1 for j in image[1:]], ones)
            out[types[image]] += 1
        return out
    pos = A._position
    # the classes of A and the cosets of A', both by position in A.members
    # (block 0 holds the identity); A' is generated by the commutators c h^-1,
    # c in the class of each representative h, as [x, yhy^-1] = [xy, h][y, h]^-1
    class_of, class_reps = _partition(members, lambda h: map(pos.get, {
        rows[rows[x][h]][inv[x]] for x in members}))
    rep_inv = [inv[members[i]] for i in class_reps]
    derived = closure(G, sorted({rows[h][rep_inv[c]] for h, c in zip(members, class_of)}))
    coset = _gather(derived)  # h A', read off row h
    coset_of, coset_reps = _partition(members, lambda h: map(pos.get, coset(rows[h])))
    ones, index = (1,) * len(class_reps), len(coset_reps)
    # Frobenius-Schur: the degrees sum to at least #{a : a^2 = 1}, the linear ones to [A:A']
    floor = sum(rows[h][h] == 0 for h in members) - index
    fits = {} if fits is None else fits
    for image in maps:
        if image not in types:
            # each map fixes class 0 and coset 0, the trivial character
            cycles = _cycle_type([coset_of[image[i]] - 1 for i in coset_reps[1:]], ones)
            rest = Counter(_cycle_type([class_of[image[i]] - 1 for i in class_reps[1:]], ones))
            rest.subtract(cycles)
            if min(rest.values()) < 0:
                raise AssertionError("cosets of A' have cycles the classes of A lack")
            key = (tuple(sorted(ell for ell, _ in rest.elements())), A.order, index, floor)
            if key not in fits:
                fits[key] = _fit_degrees(key[0], A.order, A.order - index, floor)
            fit = fits[key]
            if fit is None:
                return rank_profile(G, A).cycle_types()
            types[image] = tuple(sorted(cycles + fit))
        out[types[image]] += 1
    return out


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
        for n in range(0, remaining // dims[i] + 1):
            rec(i + 1, remaining - n * dims[i], prefix + (n,))

    rec(0, k, ())
    return out


def _cycle_type(perm: Sequence[int], dims: Sequence[int]) -> tuple:
    """Sorted (cycle length, dimension) pairs over the cycles of perm."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        ell, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ell += 1
        if ell:
            out.append((ell, dims[i]))
    return tuple(sorted(out))


def burnside_label_series(cycle_types: Counter, max_degree: int) -> PowerSeries:
    """Number of W-orbits of (rank array, partition tuple) labels per degree.

    A label of total degree n consists of an array (n_i) with partitions of
    at most n_i parts attached; its degree is twice the weighted array size
    plus twice the total partition size.  Burnside's lemma turns the orbit
    count into an average over W of the labels each w fixes.  A cycle of
    length l on degree-d irreducibles repeats one entry and one partition l
    times; by Euler's identity (Andrews, The Theory of Partitions, Ch. 2)
    sum_n u^n sum_{lambda at most n parts} v^|lambda| = prod_{i>=0} 1/(1 - u v^i)
    with u = t^(2ld), v = t^(2l), so w fixes the Euler product over the parts
    l(d + i) of its cycles.  cycle_types (as ``weyl_cycle_types`` returns it)
    gives each cycle type with the number of elements of W that have it.
    """
    _check_degree(max_degree)
    return _burnside_average(cycle_types, max_degree, {})


def _burnside_average(cycle_types: Counter, max_degree: int, products: dict) -> PowerSeries:
    """``burnside_label_series``, reading the Euler product of each cycle
    type from products and adding those it forms; a caller that passes one
    dict to several calls forms each distinct cycle type's product once.
    The empty type (the trivial subgroup's) has the product 1, and when
    every w has one type, the average is that type's product."""
    if not cycle_types:
        raise ValueError("empty acting group")
    half = max_degree // 2
    for cycle_type in cycle_types:
        if cycle_type not in products:
            product = [1] + [0] * max_degree
            if cycle_type:
                # a cycle of length l on degree-d irreducibles has the parts l(d + i), i >= 0
                part_sums = [0] * half
                for (ell, dim), cycles in Counter(cycle_type).items():
                    _add_part_sums(part_sums, range(ell * dim, half + 1, ell), cycles)
                product = _euler_product(part_sums, max_degree)
            products[cycle_type] = product
    if len(cycle_types) == 1:
        return PowerSeries(products[next(iter(cycle_types))])
    total = [0] * (max_degree + 1)
    for cycle_type, count in cycle_types.items():
        total = list(map(add, total, map(mul, products[cycle_type], repeat(count))))
    w = sum(cycle_types.values())
    if any(c % w for c in total):
        raise AssertionError("Burnside average is not integral")
    return PowerSeries([c // w for c in total])


def adjacent_family_series(G: FiniteGroup, A: Subgroup, max_degree: int) -> PowerSeries:
    """Generator series of the bordism of an adjacent pair differing by a
    normal subgroup A, localized away from |G|.

    Coefficient at n counts G/A-orbits of basis labels of degree n; odd
    coefficients vanish.
    """
    _check_degree(max_degree)
    if not G.is_normal(A):
        raise NotNormal("adjacent family series needs a normal subgroup")
    return burnside_label_series(weyl_cycle_types(G, A), max_degree)


def global_generator_series(G: FiniteGroup, max_degree: int):
    """Total generator series of the localized equivariant bordism of G.

    One summand per conjugacy class of subgroups; returns (total, breakdown)
    where breakdown lists (representative subgroup, class size, series).
    The Euler product of each distinct Weyl cycle type, and the degree fit
    of each distinct set of cycle lengths, are formed once per call,
    whichever classes share them.
    """
    _check_degree(max_degree)
    total = PowerSeries.zero(max_degree)
    breakdown = []
    products: dict = {}
    fits: dict = {}
    for cls in G.subgroup_conjugacy_classes():
        rep = cls[0]
        series = _burnside_average(weyl_cycle_types(G, rep, fits), max_degree, products)
        total = total + series
        breakdown.append((rep, len(cls), series))
    return total, breakdown


# -- the dihedral certification ----------------------------------------------------


def is_family(G: FiniteGroup, members: set) -> bool:
    """Closed under subgroups and conjugation (members: set of member-tuples):
    each conjugacy class of subgroups lies wholly inside or wholly outside,
    and no subgroup outside lies in one inside."""
    family = [set(mem) for mem in members]
    for cls in G.subgroup_conjugacy_classes():
        held = [s.members in members for s in cls]
        if any(held) and not all(held):
            return False
        if not any(held) and any(s._position.keys() <= m for s in cls for m in family):
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


def d2p_certify(p: int, max_degree: int, cap: int = DEFAULT_ORDER_CAP) -> D2pReport:
    """Certify the free-on-even-generators shape for the dihedral group of
    order 2p at the level of localized generator counts.

    Builds D2p from the rotation and the reflection of the p-gon, for odd
    primes p up to ``D2P_MAX_P``, closing it under the order cap cap (the
    CLI's ``--max-order``), then the chain of four families, checks
    adjacency and the Weyl groups of each step, computes the global series,
    reads the series of every adjacent pair off its breakdown, and asserts
    that all odd coefficients vanish.
    """
    if p % 2 == 0:
        raise NotOdd("p must be odd")
    if _factorize(p) != [(p, 1)]:
        raise NotPrime("p must be an odd prime")
    if p > D2P_MAX_P:
        raise CapExceeded("p above %d" % D2P_MAX_P)
    if max_degree > 60:
        raise CapExceeded("max_degree above 60")

    # the rotation i -> i + 1 and the reflection i -> -i of the p-gon
    G = group_from_generators(p, [[(i + 1) % p for i in range(p)],
                                  [(p - i) % p for i in range(p)]], name="D%d" % (2 * p),
                              cap=cap)
    subs = G.all_subgroups()
    trivial = next(s for s in subs if s.order == 1)
    rotation = next(s for s in subs if s.order == p)
    reflections = [s for s in subs if s.order == 2]
    full = next(s for s in subs if s.order == 2 * p)
    if len(subs) != p + 3:
        raise AssertionError("D%d must have %d subgroups, not %d" % (2 * p, p + 3, len(subs)))

    f0 = {trivial.members}
    f1 = f0 | {rotation.members}
    f2 = f1 | {s.members for s in reflections}
    f3 = f2 | {full.members}
    families = {"F0": sorted(f0), "F1": sorted(f1), "F2": sorted(f2), "F3": sorted(f3)}
    for name, fam in [("F0", f0), ("F1", f1), ("F2", f2), ("F3", f3)]:
        if not is_family(G, fam):
            raise AssertionError("%s is not closed under subgroups/conjugation" % name)
    if f2 != {s.members for s in subs if s.order != 2 * p}:
        raise AssertionError("F2 must be all but the full group")

    # each subgroup order is one conjugacy class of subgroups of D2p, so the
    # global breakdown already holds every pair's series, keyed by order
    total, breakdown = global_generator_series(G, max_degree)
    series_of_order = {H.order: series for H, _, series in breakdown}
    if len(series_of_order) != len(breakdown):
        raise AssertionError("two subgroup classes of D%d share an order" % (2 * p))

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
        pair_series[label] = series_of_order[A.order]
    pair_series["(F0,)"] = series_of_order[1]

    # the full group and each reflection subgroup are self-normalizing,
    # while the rotation subgroup has Weyl group Z/2
    for step, weyl_order in zip(adjacency, (2, 1, 1)):
        if step["weyl_order"] != weyl_order:
            raise AssertionError("%s must have Weyl order %d, not %d"
                                 % (step["pair"], weyl_order, step["weyl_order"]))

    swap = next(cycle_type for cycle_type in weyl_cycle_types(G, rotation)
                if any(ell > 1 for ell, _ in cycle_type))
    irr_pairs = sum(1 for ell, _ in swap if ell == 2)
    irr_fixed = sum(1 for ell, _ in swap if ell == 1)

    odd_ok = all(total.coefficient(n) == 0 for n in range(1, max_degree + 1, 2)) and \
        all(all(s.coefficient(n) == 0 for n in range(1, max_degree + 1, 2))
            for s in pair_series.values())

    return D2pReport(
        p=p, max_degree=max_degree, families=families, adjacency=adjacency,
        pair_series=pair_series, global_series=total,
        degree_zero=total.coefficient(0), subgroup_class_count=len(breakdown),
        odd_vanishing=odd_ok, irr_pairs=irr_pairs, irr_fixed=irr_fixed)
