"""Finite groups as dense multiplication tables; subgroups, quotients, conjugation.

Conventions used throughout the package:
  * elements are indices 0..order-1 and element 0 is the identity,
  * subgroup member lists are sorted (deterministic iteration order),
  * conjugacy classes are sorted by their minimal element, so the class of
    the identity always comes first.
"""

from __future__ import annotations

import random
from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceeded, ClosureOverflow, InvalidPermutation, NotNormal

DEFAULT_ORDER_CAP = 10000

# Full associativity is O(n^3); above this order we spot-check random triples.
_ASSOC_FULL_LIMIT = 512
_ASSOC_SAMPLES = 20000


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Immutable after construction; any number of readers may share an
    instance.  Derived data (classes, exponent, subgroup lattice and classes,
    conjugation actions, character table) is cached lazily on the instance.
    The table is kept once, as nested Python lists (``_rows``, with ``_inv``);
    numpy is used only inside the axiom check that ``check`` runs.  Pass
    ``check=False`` only for a table taken from an already checked group.
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
        self._lattice: Optional[tuple[list["Subgroup"], int]] = None
        self._subgroup_classes: Optional[list[list["Subgroup"]]] = None
        self._subgroup_cache: dict[tuple[int, ...], tuple["FiniteGroup", tuple[int, ...]]] = {}
        self._conjugation: dict[tuple[int, ...], tuple] = {}
        self._char_table = None  # set by characters.character_table

    # -- basic operations ----------------------------------------------------

    @property
    def identity(self) -> int:
        return 0

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

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        out = 0
        for _ in range(k):
            out = self.mul(out, g)
        return out

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

    def subgroup(self, generators: Iterable[int], name: Optional[str] = None) -> "Subgroup":
        gens = tuple(dict.fromkeys(int(g) for g in generators))
        members = closure(self, gens)
        return Subgroup(self, members, gens, name=name)

    def subgroup_from_members(self, members: Iterable[int], name: Optional[str] = None) -> "Subgroup":
        mem = tuple(sorted(set(int(m) for m in members)))
        return Subgroup(self, mem, minimal_generators(self, mem), name=name)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), (), name="1")

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup_from_members(self.elements(), name=self.name)

    def center(self) -> "Subgroup":
        rows = self._rows
        # g is central iff its row of the table equals its column
        return self.subgroup_from_members(
            (g for g in self.elements() if rows[g] == [row[g] for row in rows]),
            name="Z(%s)" % self.name)

    def conjugation_action(self, H: "Subgroup") -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        """G acting on H by conjugation, as (coset_of, maps); cached per member set.

        coset_of is ``left_cosets(G, H.members)[0]``.  For each left coset of H
        whose minimal element n normalizes H, maps[coset] lists the position in
        H.members of n^-1 h n for every h in H.members.  As nh normalizes H iff
        n does and (nh)^-1 x (nh) is H-conjugate to n^-1 x n, these maps give
        the whole action of N_G(H) on the classes of H.
        """
        if H.members not in self._conjugation:
            rows, inv = self._rows, self._inv
            pos = {h: i for i, h in enumerate(H.members)}
            coset_of, reps = left_cosets(self, H.members)
            images = {c: tuple(pos.get(rows[rows[inv[n]][h]][n]) for h in H.members)
                      for c, n in enumerate(reps)}
            maps = {c: image for c, image in images.items() if None not in image}
            self._conjugation[H.members] = (coset_of, maps)
        return self._conjugation[H.members]

    def is_normal(self, H: "Subgroup") -> bool:
        """Whether gHg^-1 = H for every g: every coset of H normalizes it."""
        return len(self.conjugation_action(H)[1]) * H.order == self.order

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        """Largest subgroup N with nHn^-1 = H: the normalizing cosets of H."""
        coset_of, maps = self.conjugation_action(H)
        return self.subgroup_from_members(
            (n for n in self.elements() if coset_of[n] in maps),
            name="N(%s)" % (H.name or "H"))

    def quotient(self, A: "Subgroup") -> "QuotientGroup":
        """Quotient by a normal subgroup; raises NotNormal otherwise."""
        if A.parent is not self:
            raise NotNormal("subgroup does not live in this group")
        if not self.is_normal(A):
            raise NotNormal("subgroup is not normal")
        projection, section = left_cosets(self, A.members)
        m = len(section)
        table = [[projection[self.mul(section[i], section[j])] for j in range(m)]
                 for i in range(m)]
        qname = "%s/%s" % (self.name, A.name or "A")
        qgrp = FiniteGroup(table, name=qname)
        return QuotientGroup(qgrp, projection, section, A, self)

    def all_subgroups(self, limit: int = 20000) -> list["Subgroup"]:
        """Every subgroup, sorted by (order, members).

        Starts from the cyclic subgroups and extends each subgroup H found by
        one element g outside it.  Since <H, g> = <H, hg> for every h in H,
        one g per right coset Hg gives every extension, so the rest of the
        coset is skipped; <H, g> is closed from H's members by right cosets
        (see ``_extend``).  The lattice is computed once per group and cached;
        every call returns a fresh list.  CapExceeded is raised once a new
        non-cyclic subgroup is found with more than ``limit`` already known,
        on a cached call too.
        """
        if self._lattice is None:
            rows = self._rows
            found: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}
            frontier = [(0,)]
            for g in self.elements():
                mem = closure(self, (g,))
                if mem not in found:
                    found[mem] = (g,)
                    frontier.append(mem)
            known = -1  # subgroups known at the last non-cyclic discovery
            while frontier:
                mem = frontier.pop()
                gens = found[mem]
                if len(mem) == self.order:
                    continue
                done = set(mem)  # H and every right coset Hg extended so far
                for g in self.elements():
                    if g in done:
                        continue
                    done.update([rows[h][g] for h in mem])
                    bigger = _extend(rows, mem, gens + (g,))
                    if bigger not in found:
                        known = len(found)
                        if known > limit:
                            raise CapExceeded("subgroup enumeration exceeded limit")
                        found[bigger] = gens + (g,)
                        frontier.append(bigger)
            subs = [self.subgroup_from_members(mem) for mem in found]
            subs.sort(key=lambda s: (s.order, s.members))
            self._lattice = (subs, known)
        subs, known = self._lattice
        if known > limit:
            raise CapExceeded("subgroup enumeration exceeded limit")
        return list(subs)

    def subgroup_conjugacy_classes(self) -> list[list["Subgroup"]]:
        """Conjugacy classes of subgroups, each class sorted, classes sorted
        by (order, members of the minimal representative).  Cached; every
        call returns fresh lists."""
        if self._subgroup_classes is None:
            rows, inv = self._rows, self._inv
            subs = self.all_subgroups()
            by_members = {s.members: s for s in subs}
            seen: set[tuple[int, ...]] = set()
            classes: list[list[Subgroup]] = []
            for s in subs:
                if s.members in seen:
                    continue
                orbit = set()
                for g in self.elements():
                    row, gi = rows[g], inv[g]
                    orbit.add(tuple(sorted([rows[row[h]][gi] for h in s.members])))
                cls = sorted(orbit)
                seen.update(cls)
                classes.append([by_members[m] for m in cls])
            classes.sort(key=lambda c: (c[0].order, c[0].members))
            self._subgroup_classes = classes
        return [list(c) for c in self._subgroup_classes]

    def __repr__(self) -> str:
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted member-index set."""

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...],
                 generators: tuple[int, ...], name: Optional[str] = None):
        self.parent = parent
        self.members = tuple(sorted(members))
        self.generators = tuple(generators)
        self.name = name
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

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        mem = tuple(sorted(G.conj(g, h) for h in self.members))
        gens = tuple(G.conj(g, h) for h in self.generators)
        return Subgroup(G, mem, gens, name=self.name)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Materialize as a standalone FiniteGroup.

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
            name = self.name or ("%s<%s" % (self.parent.name, ",".join(map(str, self.generators))))
            # unchecked: the retract lookup raised unless the members are
            # closed, and a closed subset of a checked finite group is a group
            out = (FiniteGroup(table, name=name, check=False), embed)
        self.parent._subgroup_cache[self.members] = out
        return out

    def retract(self, g: int) -> int:
        """Parent index -> index in the materialized group."""
        _, embed = self.as_group()
        lut = getattr(self, "_retract", None)
        if lut is None:
            lut = {e: i for i, e in enumerate(embed)}
            self._retract = lut
        return lut[g]

    def __repr__(self) -> str:
        return "Subgroup(order=%d of %s)" % (self.order, self.parent.name)


class QuotientGroup:
    """A quotient G/A with a projection map and a section of coset reps."""

    def __init__(self, group: FiniteGroup, projection: tuple[int, ...],
                 section: tuple[int, ...], kernel: Subgroup, parent: FiniteGroup):
        self.group = group
        self.projection = projection
        self.section = section
        self.kernel = kernel
        self.parent = parent

    @property
    def order(self) -> int:
        return self.group.order

    def lift(self, q: int) -> int:
        return self.section[q]

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


def left_cosets(G: FiniteGroup, members: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left cosets gH of the subgroup H with the given members.

    Returns (coset_of, reps): coset_of[g] is the index of the coset of g and
    reps[i] is the minimal element of coset i.  Scanning G in index order,
    the first element not yet covered is the minimum of its coset, so reps
    increase and coset 0 is H itself.
    """
    rows = G._rows
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in G.elements():
        if coset_of[g] < 0:
            row = rows[g]
            for h in members:
                coset_of[row[h]] = len(reps)
            reps.append(g)
    return tuple(coset_of), tuple(reps)


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


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i)); matches left actions on points."""
    return tuple(p[q[i]] for i in range(len(q)))


def group_from_generators(degree: int, generators: Sequence[Sequence[int]],
                          name: str = "G", cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} into a full group table.

    Element 0 is the identity; the remaining elements are indexed in
    breadth-first discovery order, which is deterministic.
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
    queue = [ident]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = _compose(x, g)
            if y not in index:
                if len(elems) >= cap:
                    raise ClosureOverflow("closure exceeded cap %d" % cap)
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    n = len(elems)
    table = [[index[_compose(elems[i], elems[j])] for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=name, perms=elems)
