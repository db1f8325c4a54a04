"""Finite groups as dense multiplication tables; subgroups, quotients, conjugation.

Conventions used throughout the package:
  * elements are indices 0..order-1 and element 0 is the identity,
  * subgroup member lists are sorted (deterministic iteration order),
  * conjugacy classes are sorted by their minimal element, so the class of
    the identity always comes first,
  * the left cosets gH of a subgroup H are numbered in the order of their
    minimal elements, and that minimum is the coset's lift; the one table of
    them is ``FiniteGroup.conjugation_action(H)``, which every transversal
    (quotients, coset G-sets, induction) reads,
  * subgroups are enumerated once, class by class, by
    ``FiniteGroup.subgroup_conjugacy_classes``, which extends only class
    representatives; ``all_subgroups`` is the sorted flattening of its classes.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapExceeded, ClosureOverflow, InvalidPermutation, NotNormal

DEFAULT_ORDER_CAP = 10000
# the subgroup enumeration (subgroup_conjugacy_classes, hence all_subgroups)
# raises CapExceeded past this many subgroups, conjugates included; read at
# call time
SUBGROUP_CAP = 20000

# Full associativity is O(n^3); above this order we spot-check random triples.
_ASSOC_FULL_LIMIT = 512
_ASSOC_SAMPLES = 20000


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Immutable after construction; any number of readers may share an
    instance.  Derived data (classes, exponent, subgroup classes,
    conjugation actions, character table, and the orbits module's actions on
    Irr(H) and restriction multiplicities) is cached lazily on the instance.
    The table is kept once, as nested Python lists (``_rows``, with ``_inv``);
    numpy is used only inside the axiom check that ``check`` runs.  Only a
    table passed in directly is checked: the tables the package derives (a
    permutation closure, a sub-table, a quotient by a normal subgroup) are
    groups by construction and are built with ``check=False``.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G",
                 perms: Optional[Sequence[tuple[int, ...]]] = None,
                 check: bool = True):
        rows = [list(map(int, row)) for row in table]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("multiplication table must be square")
        if check:
            _check_axioms(rows)
        self.order = n
        self.name = name
        self._rows: list[list[int]] = rows
        self._inv: list[int] = [row.index(0) for row in rows]
        self._perms = tuple(tuple(p) for p in perms) if perms is not None else None
        self._exponent: Optional[int] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[list[int]] = None
        self._subgroup_classes: Optional[list[list["Subgroup"]]] = None
        self._subgroup_cache: dict[tuple[int, ...], tuple["FiniteGroup", tuple[int, ...]]] = {}
        self._conjugation: dict[tuple[int, ...], CosetTable] = {}
        self._irr_permutations: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
        self._multiplicities: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        self._char_table = None  # set by characters.character_table

    # -- basic operations ----------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, a: int) -> int:
        """g a g^-1."""
        rows = self._rows
        return rows[rows[g][a]][self._inv[g]]

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    @property
    def exponent(self) -> int:
        if self._exponent is None:
            e = 1
            for g in self.elements():
                e = lcm(e, self.element_order(g))
            self._exponent = e
        return self._exponent

    @property
    def is_abelian(self) -> bool:
        return self._rows == [list(col) for col in zip(*self._rows)]

    def permutation_of(self, g: int) -> Optional[tuple[int, ...]]:
        """Underlying permutation when the group came from generators."""
        return None if self._perms is None else self._perms[g]

    def perm_index(self, p) -> int:
        """Element index of a permutation (groups built from generators only)."""
        if self._perms is None:
            raise ValueError("group was not built from permutations")
        lut = getattr(self, "_perm_lut", None)
        if lut is None:
            lut = {perm: i for i, perm in enumerate(self._perms)}
            self._perm_lut = lut
        return lut[tuple(p)]

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Partition of the elements into conjugacy classes.

        Classes are sorted tuples, ordered by minimal element; the class of
        the identity is first.
        """
        if self._classes is None:
            rows, inv = self._rows, self._inv
            seen = [False] * self.order
            classes = []
            for g in self.elements():
                if seen[g]:
                    continue
                orbit = {rows[rows[x][g]][inv[x]] for x in self.elements()}
                for h in orbit:
                    seen[h] = True
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda c: c[0])
            self._classes = classes
            class_of = [0] * self.order
            for i, cls in enumerate(classes):
                for h in cls:
                    class_of[h] = i
            self._class_of = class_of
        return self._classes

    def class_index(self, g: int) -> int:
        self.conjugacy_classes()
        assert self._class_of is not None
        return self._class_of[g]

    # -- subgroups -------------------------------------------------------------

    def subgroup(self, generators: Iterable[int]) -> "Subgroup":
        return Subgroup(self, closure(self, [int(g) for g in generators]))

    def subgroup_from_members(self, members: Iterable[int]) -> "Subgroup":
        return Subgroup(self, set(map(int, members)))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.elements())

    def center(self) -> "Subgroup":
        rows = self._rows
        # g is central iff its row of the table equals its column
        return self.subgroup_from_members(
            g for g in self.elements() if rows[g] == [row[g] for row in rows])

    def conjugation_action(self, H: "Subgroup") -> "CosetTable":
        """The left cosets of H and G acting on H by conjugation, as one
        CosetTable(coset_of, reps, maps) cached per member set.

        Scanning G in index order, the first element not yet covered is the
        minimum of its coset, reps[i], so coset 0 is H.  For each coset whose
        lift n normalizes H, maps[coset] lists the position in H.members of
        n^-1 h n for every h in H.members.  As nh normalizes H iff n does and
        (nh)^-1 x (nh) is H-conjugate to n^-1 x n, these maps give the whole
        action of N_G(H) on the classes of H.
        """
        if H.members not in self._conjugation:
            rows, inv = self._rows, self._inv
            coset_of = [-1] * self.order
            reps: list[int] = []
            for g in self.elements():
                if coset_of[g] < 0:
                    row = rows[g]
                    for h in H.members:
                        coset_of[row[h]] = len(reps)
                    reps.append(g)
            pos = {h: i for i, h in enumerate(H.members)}
            images = {c: tuple(pos.get(rows[rows[inv[n]][h]][n]) for h in H.members)
                      for c, n in enumerate(reps)}
            maps = {c: image for c, image in images.items() if None not in image}
            self._conjugation[H.members] = CosetTable(tuple(coset_of), tuple(reps), maps)
        return self._conjugation[H.members]

    def is_normal(self, H: "Subgroup") -> bool:
        """Whether gHg^-1 = H for every g: every coset of H normalizes it."""
        return len(self.conjugation_action(H).maps) * H.order == self.order

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        """Largest subgroup N with nHn^-1 = H: the normalizing cosets of H."""
        coset_of, _, maps = self.conjugation_action(H)
        return self.subgroup_from_members(n for n in self.elements() if coset_of[n] in maps)

    def quotient(self, A: "Subgroup") -> "QuotientGroup":
        """Quotient by a normal subgroup; raises NotNormal otherwise.

        No src caller: kept because the benchmark's span list wraps it."""
        if A.parent is not self:
            raise NotNormal("subgroup does not live in this group")
        if not self.is_normal(A):
            raise NotNormal("subgroup is not normal")
        return coset_quotient(self.full_subgroup(), A)

    def all_subgroups(self) -> list["Subgroup"]:
        """Every subgroup, sorted by (order, members): the flattened
        ``subgroup_conjugacy_classes``, as a fresh list on every call."""
        subs = [s for cls in self.subgroup_conjugacy_classes() for s in cls]
        subs.sort(key=lambda s: (s.order, s.members))
        return subs

    def subgroup_conjugacy_classes(self) -> list[list["Subgroup"]]:
        """Conjugacy classes of subgroups, each class sorted, classes sorted
        by (order, members of the minimal representative).

        One enumeration from class representatives (Neubuser's 1960 cyclic
        extension): every K != 1 is <M, g> for a maximal subgroup M of K, and
        M is conjugate to a class's first-found member H, so extending each H
        reaches every class.  Since <H, g> = <H, hg> for h in H, one g per
        right coset Hg is extended, by ``_extend`` with H's members as the
        generators.  A new subgroup's class is closed by breadth-first
        conjugation under G's generators.  CapExceeded is raised once a new
        subgroup is found with more than ``SUBGROUP_CAP`` already known.
        Cached only when complete; every call returns fresh lists.
        """
        if self._subgroup_classes is None:
            rows, inv = self._rows, self._inv
            gens = minimal_generators(self, self.elements())
            known = {(0,)}
            orbits = [[(0,)]]
            for cls in orbits:  # orbits grows while it is scanned
                mem = cls[0]
                done = set(mem)  # H and every right coset Hg extended so far
                for g in self.elements():
                    if g in done:
                        continue
                    done.update([rows[h][g] for h in mem])
                    queue = [_extend(rows, mem, mem + (g,))]
                    orbit = []
                    for sub in queue:  # queue grows while it is scanned
                        if sub in known:
                            continue
                        if len(known) > SUBGROUP_CAP:
                            raise CapExceeded("subgroup enumeration exceeded cap %d" % SUBGROUP_CAP)
                        known.add(sub)
                        orbit.append(sub)
                        for s in gens:
                            row, si = rows[s], inv[s]
                            queue.append(tuple(sorted([rows[row[h]][si] for h in sub])))
                    if orbit:
                        orbits.append(orbit)
            classes = [[Subgroup(self, mem) for mem in sorted(cls)] for cls in orbits]
            classes.sort(key=lambda c: (c[0].order, c[0].members))
            self._subgroup_classes = classes
        return [list(c) for c in self._subgroup_classes]

    def __repr__(self) -> str:
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


class Subgroup:
    """A subgroup of a FiniteGroup: its sorted member-index set, nothing
    more; however it was found, no generators or name are kept."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        self.parent = parent
        self.members = tuple(sorted(members))
        if self.members[0] != 0:
            raise ValueError("subgroup must contain the identity")
        if parent.order % len(self.members) != 0:
            raise ValueError("subgroup order does not divide group order")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self._member_set

    @property
    def _member_set(self) -> frozenset:
        ms = getattr(self, "_ms", None)
        if ms is None:
            ms = frozenset(self.members)
            self._ms = ms
        return ms

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Materialize as a standalone FiniteGroup, named by the parent and
        the order (e.g. "S4<12>").

        Returns (H, embed) where embed maps H-indices to parent indices.
        Cached on the parent so equal subgroups share the same object (and
        hence the same cached character table).
        """
        cached = self.parent._subgroup_cache.get(self.members)
        if cached is not None:
            return cached
        if len(self.members) == self.parent.order:
            out = (self.parent, tuple(self.parent.elements()))
        else:
            embed = self.members
            retract = {g: i for i, g in enumerate(embed)}
            rows = self.parent._rows
            table = [[retract[rows[a][b]] for b in embed] for a in embed]
            # unchecked: the retract lookup raised unless the members are
            # closed, and a closed subset of a finite group is a group
            out = (FiniteGroup(table, name="%s<%d>" % (self.parent.name, self.order),
                               check=False), embed)
        self.parent._subgroup_cache[self.members] = out
        return out

    def retract(self, g: int) -> int:
        """Parent index -> index in the materialized group."""
        lut = getattr(self, "_retract", None)
        if lut is None:
            _, embed = self.as_group()
            lut = {e: i for i, e in enumerate(embed)}
            self._retract = lut
        return lut[g]

    def __repr__(self) -> str:
        return "Subgroup(order=%d of %s)" % (self.order, self.parent.name)


class CosetTable(NamedTuple):
    """The coset of each element, the coset lifts and the conjugation maps
    of the normalizing cosets (``FiniteGroup.conjugation_action``)."""

    coset_of: tuple[int, ...]
    reps: tuple[int, ...]
    maps: dict[int, tuple[int, ...]]


class QuotientGroup:
    """A quotient H/A, for A normal in G and H a subgroup of G containing A,
    as ``coset_quotient`` builds it: the table of H/A, a projection (the
    coset of each element of G, -1 off H) and a section of coset lifts in G."""

    def __init__(self, group: FiniteGroup, projection: tuple[int, ...],
                 section: tuple[int, ...]):
        self.group = group
        self.projection = projection
        self.section = section

    @property
    def order(self) -> int:
        return self.group.order

    def __repr__(self) -> str:
        return "QuotientGroup(%s, order=%d)" % (self.group.name, self.order)


# -- free functions ------------------------------------------------------------


def _check_axioms(rows: list[list[int]]) -> None:
    """Raise ValueError unless the square table ``rows`` is the
    multiplication table of a group with identity 0."""
    tbl = np.asarray(rows, dtype=np.int64)
    n = tbl.shape[0]
    if np.any(tbl < 0) or np.any(tbl >= n):
        raise ValueError("table entries out of range")
    if not np.array_equal(tbl[0], np.arange(n)) or not np.array_equal(tbl[:, 0], np.arange(n)):
        raise ValueError("element 0 is not the identity")
    # each row and column must be a permutation (cancellation laws)
    ar = np.arange(n)
    for a in range(n):
        if not np.array_equal(np.sort(tbl[a]), ar) or not np.array_equal(np.sort(tbl[:, a]), ar):
            raise ValueError("table row/column is not a permutation")
    if n <= _ASSOC_FULL_LIMIT:
        for a in range(n):
            # (a*b)*c vs a*(b*c), vectorized over (b, c)
            if not np.array_equal(tbl[tbl[a], :], tbl[a][tbl]):
                raise ValueError("multiplication table is not associative")
    else:
        rng = random.Random(0)
        for _ in range(_ASSOC_SAMPLES):
            a = rng.randrange(n)
            b = rng.randrange(n)
            c = rng.randrange(n)
            if tbl[tbl[a, b], c] != tbl[a, tbl[b, c]]:
                raise ValueError("multiplication table is not associative")


def closure(G: FiniteGroup, generators: Sequence[int]) -> tuple[int, ...]:
    """Members of the subgroup generated by the given element indices."""
    return _extend(G._rows, (0,), generators)


def _extend(rows: list[list[int]], members: Sequence[int],
            generators: Sequence[int]) -> tuple[int, ...]:
    """Members of the subgroup K generated by ``generators``, given the
    members of a subgroup H of K (rows is the multiplication table).

    K is grown as a union of right cosets Hx, one representative x each.
    Once x*s lies in the union for every representative x and generator s,
    the union is closed under right multiplication by the generators
    (h x s = h h' x' for x s = h' x'), so it is K.
    """
    seen = set(members)
    reps = [0]
    for x in reps:  # reps grows while it is scanned
        row = rows[x]
        for s in generators:
            y = row[s]
            if y not in seen:
                seen.update([rows[h][y] for h in members])
                reps.append(y)
    return tuple(sorted(seen))


def coset_quotient(H: Subgroup, A: Subgroup) -> QuotientGroup:
    """H/A for A normal in G = H.parent and H a union of cosets of A, named
    by G and |A| (e.g. "S4/4"); the caller checks both (FiniteGroup.quotient
    with H = G, orbits.extension_exists with H a stabilizer G_rho).

    The section is the coset lifts of ``G.conjugation_action(A)`` that lie
    in H: coset q of H/A is the coset of section[q], and cosets multiply
    through their lifts in G.  projection[g] is the coset of g, -1 off H.
    """
    G = H.parent
    rows = G._rows
    coset_of, reps, _ = G.conjugation_action(A)
    section = tuple(n for n in reps if n in H)
    pos = {coset_of[n]: q for q, n in enumerate(section)}
    table = [[pos[coset_of[rows[x][y]]] for y in section] for x in section]
    # unchecked: A is normal, so the coset products form the group H/A
    qgrp = FiniteGroup(table, name="%s/%d" % (G.name, A.order), check=False)
    projection = tuple(pos.get(c, -1) for c in coset_of)
    return QuotientGroup(qgrp, projection, section)


def minimal_generators(G: FiniteGroup, members: Sequence[int]) -> tuple[int, ...]:
    """A short generating list for a known member set (greedy)."""
    gens: tuple[int, ...] = ()
    have = {0}
    for m in members:
        if m not in have:
            gens = gens + (m,)
            have = set(closure(G, gens))
            if len(have) == len(members):
                break
    return gens


def group_from_generators(degree: int, generators: Sequence[Sequence[int]],
                          name: str = "G", cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} into a full group table.

    Element 0 is the identity; the remaining elements are indexed in
    breadth-first discovery order, which is deterministic.  Each element y
    is first reached as y = x s for an earlier x and a generator s, so its
    column of the table is z -> (z x) s, read off x's column through the
    right multiplication by s that the search records; no two elements are
    composed outside the search.
    """
    gens = []
    for p in generators:
        pt = tuple(int(x) for x in p)
        if sorted(pt) != list(range(degree)):
            raise InvalidPermutation("generator %r is not a permutation of 0..%d" % (p, degree - 1))
        gens.append(pt)
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    word: list[tuple[int, int]] = [(0, 0)]  # (x, s) with elems[y] = elems[x] o gens[s]
    right: list[list[int]] = [[] for _ in gens]  # right[s][x]: index of x o gens[s]
    for x, px in enumerate(elems):  # elems grows while it is scanned
        for s, g in enumerate(gens):
            y = tuple([px[i] for i in g])
            if y not in index:
                if len(elems) >= cap:
                    raise ClosureOverflow("closure exceeded cap %d" % cap)
                index[y] = len(elems)
                elems.append(y)
                word.append((x, s))
            right[s].append(index[y])
    cols = [list(range(len(elems)))]
    for x, s in word[1:]:
        rs = right[s]
        cols.append([rs[z] for z in cols[x]])
    # unchecked: composition of permutations is a group operation
    return FiniteGroup(list(zip(*cols)), name=name, perms=elems, check=False)
