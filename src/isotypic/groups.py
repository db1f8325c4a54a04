"""Finite groups as dense multiplication tables; subgroups, quotients, conjugation.

Conventions used throughout the package:
  * elements are indices 0..order-1 and element 0 is the identity,
  * subgroup member lists are sorted (deterministic iteration order),
  * a partition into blocks (conjugacy classes, the left cosets gH of a
    subgroup H, the orbits of G on Irr(A)) is made by one routine,
    ``_partition``: it numbers the blocks in the order of their minimal
    elements, so the block of the identity (the class of 1, the coset H)
    always comes first, and a coset's minimum is its lift,
  * the one table of the cosets of H is ``FiniteGroup.conjugation_action(H)``,
    which every transversal (quotients, coset G-sets, induction) reads,
  * subgroups are enumerated once, class by class, by
    ``FiniteGroup.subgroup_conjugacy_classes``, which extends only class
    representatives H, by one g per double coset H g^k H (k prime to the
    order of g), and a normal H by one g per G-class of such cosets;
    ``all_subgroups`` is the sorted flattening of its classes,
  * a table the package derives is built once, as a list of int lists, and
    handed to ``FiniteGroup(..., check=False)``, which keeps it as given;
    a permutation closure (``group_from_generators``) builds it row by row,
    each row an earlier one read through the left multiplication by a
    generator, by one C-level gather (``_gather``), on the moved points only,
  * a table passed in directly is checked on its row lists too, so the
    module is plain Python: numpy enters only the character tables
    (Dixon-Schneider) and the float representations.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import CapExceeded, ClosureOverflow, InvalidPermutation, NotNormal

DEFAULT_ORDER_CAP = 10000
# the subgroup enumeration (subgroup_conjugacy_classes, hence all_subgroups)
# raises CapExceeded past this many subgroups, conjugates included; read at
# call time
SUBGROUP_CAP = 20000


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Immutable after construction; any number of readers may share an
    instance.  Derived data (classes, exponent, subgroup classes,
    conjugation actions, character table, and the orbits module's actions on
    Irr(H) and restriction multiplicities) is cached lazily on the instance.
    The table is kept once, as nested Python lists (``_rows``, with ``_inv``);
    a group closed from permutations keeps no permutation, only each given
    generator's element index (``generators``, else empty).  Only a table
    passed in directly is checked, on those lists, and copied
    with its entries converted by ``int``: the tables the package derives (a
    permutation closure, a sub-table, a quotient by a normal subgroup) are
    groups by construction, built as lists of int lists and passed with
    ``check=False``, which takes such a list as given, uncopied.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "G",
                 check: bool = True):
        rows = [list(map(int, row)) for row in table] if check else table
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("multiplication table must be square")
        self.order = n
        self.name = name
        self._rows: list[list[int]] = rows
        if check:
            _check_axioms(self)
        # x y = 1 gives y x = 1 too, so each scan finds two inverses
        inv = [-1] * n
        for x, row in enumerate(rows):
            if inv[x] < 0:
                y = row.index(0)
                inv[x] = y
                inv[y] = x
        self._inv: list[int] = inv
        self.generators: tuple[int, ...] = ()  # set by group_from_generators
        self._exponent: Optional[int] = None
        self._classes: Optional[list[tuple[int, ...]]] = None
        self._class_of: Optional[list[int]] = None
        self._subgroup_classes: Optional[list[list["Subgroup"]]] = None
        self._subgroup_cache: dict[tuple[int, ...], tuple["FiniteGroup", tuple[int, ...]]] = {}
        self._conjugation: dict[tuple[int, ...], CosetTable] = {}
        self._irr_permutations: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
        # member set of H -> (Irr(G) restricted to H, {rho: multiplicity column})
        self._multiplicities: dict[tuple[int, ...], tuple[list, dict[int, tuple[int, ...]]]] = {}
        self._char_table = None  # set by characters.character_table

    # -- basic operations ----------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def powers(self, g: int) -> list[int]:
        """1, g, g^2, ... up to the order of g."""
        out = [0]
        while self._rows[out[-1]][g]:
            out.append(self._rows[out[-1]][g])
        return out

    def element_order(self, g: int) -> int:
        return len(self.powers(g))

    @property
    def exponent(self) -> int:
        """The lcm of the element orders, read off the class representatives
        (conjugate elements have equal orders)."""
        if self._exponent is None:
            self._exponent = lcm(*(self.element_order(c[0]) for c in self.conjugacy_classes()))
        return self._exponent

    @property
    def is_abelian(self) -> bool:
        """Whether every conjugacy class is one element."""
        return len(self.conjugacy_classes()) == self.order

    # -- conjugacy classes ----------------------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        """Partition of the elements into conjugacy classes.

        Classes are sorted tuples, numbered by ``_partition``; the class of
        the identity is first.
        """
        if self._classes is None:
            rows, inv, n = self._rows, self._inv, self.order
            class_of, reps = _partition(range(n), lambda g: {
                rows[rows[x][g]][inv[x]] for x in range(n)})
            classes: list[list[int]] = [[] for _ in reps]
            for g, c in enumerate(class_of):
                classes[c].append(g)
            self._classes = list(map(tuple, classes))
            self._class_of = class_of
        return self._classes

    def class_index(self, g: int) -> int:
        self.conjugacy_classes()
        assert self._class_of is not None
        return self._class_of[g]

    def class_permutation(self, aut: Sequence[int]) -> tuple[int, ...]:
        """For each class c, the class of aut[g_c], g_c its representative,
        for an automorphism aut of the group given by element images (a
        map of ``conjugation_action``): the permutation aut makes of the
        classes."""
        classes = self.conjugacy_classes()
        class_of = self._class_of
        return tuple([class_of[aut[cls[0]]] for cls in classes])

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
        """The union of the one-element conjugacy classes."""
        return self.subgroup_from_members(
            cls[0] for cls in self.conjugacy_classes() if len(cls) == 1)

    def conjugation_action(self, H: "Subgroup") -> "CosetTable":
        """The left cosets of H and G acting on H by conjugation, as one
        CosetTable(coset_of, reps, maps) cached per member set.

        The cosets are numbered by ``_partition``, so reps[i] is the minimum
        of coset i and coset 0 is H.  For each coset whose lift n normalizes
        H, maps[coset] lists the position in H.members of n^-1 h n for every
        h in H.members.  As nh normalizes H iff n does and
        (nh)^-1 x (nh) is H-conjugate to n^-1 x n, these maps give the whole
        action of N_G(H) on the classes of H.
        """
        if H.members not in self._conjugation:
            rows, inv = self._rows, self._inv
            coset_of, reps = _partition(rows, _gather(H.members))  # gH, read off row g
            pos = H._position
            maps = {}
            for c, n in enumerate(reps):
                row = rows[inv[n]]
                image = []
                for h in H.members:
                    j = pos.get(rows[row[h]][n])
                    if j is None:  # n^-1 h n leaves H: n does not normalize it
                        break
                    image.append(j)
                else:
                    maps[c] = tuple(image)
            self._conjugation[H.members] = CosetTable(tuple(coset_of), tuple(reps), maps)
        return self._conjugation[H.members]

    def is_normal(self, H: "Subgroup") -> bool:
        """Whether gHg^-1 = H for every g: every coset of H normalizes it."""
        return len(self.conjugation_action(H).maps) * H.order == self.order

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        """Largest subgroup N with nHn^-1 = H: the normalizing cosets of H."""
        coset_of, _, maps = self.conjugation_action(H)
        return self.subgroup_from_members(n for n in self.elements() if coset_of[n] in maps)

    def quotient(self, A: "Subgroup") -> tuple["FiniteGroup", tuple[int, ...]]:
        """(G/A, section) by ``coset_quotient``; raises NotNormal unless A is normal.

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
        reaches every class.  Since <H, g> = <H, h g^k h'> for h, h' in H
        and k prime to the order of g, one g per union of the double cosets
        H g^k H is extended, by ``_extend`` with the generators that built H
        (the g of each extension from the trivial group on) and g; each
        H y H is marked as its right cosets H y z, z in H.  A class of one
        member is a normal H, for which H y H = yH, and as
        <H, x y x^-1> = x <H, y> x^-1 lies in the class that <H, y> opens,
        the coset xyx^-1 H of every conjugate of y is marked too.  A new
        subgroup's class is closed by breadth-first conjugation under G's
        generators.
        CapExceeded is raised once a new subgroup is found with more than
        ``SUBGROUP_CAP`` already known.  Cached only when complete; every
        call returns fresh lists.
        """
        if self._subgroup_classes is None:
            rows, inv = self._rows, self._inv
            classes, class_of = self.conjugacy_classes(), self._class_of
            gens = minimal_generators(self, self.elements())
            known = {(0,)}
            orbits = [[(0,)]]
            built_by = {(0,): ()}  # each class representative's generators
            for cls in orbits:  # orbits grows while it is scanned
                mem = cls[0]
                done = set(mem)  # H and every double coset H g^k H extended so far
                for g in self.elements():
                    if g in done:
                        continue
                    powers = self.powers(g)
                    for k, y in enumerate(powers):
                        if y in done or gcd(k, len(powers)) != 1:
                            continue
                        if len(cls) == 1:
                            # H is normal: H y H = yH, and <H, x y x^-1> = x <H, y> x^-1
                            # lies in the class <H, y> opens, so mark every xyx^-1 H too
                            for c in classes[class_of[y]]:
                                if c not in done:
                                    done.update([rows[c][h] for h in mem])
                            continue
                        for z in mem:  # H y H as the union of the right cosets H y z
                            yz = rows[y][z]
                            if yz not in done:
                                done.update([rows[h][yz] for h in mem])
                    extended = built_by[mem] + (g,)
                    queue = [_extend(rows, mem, extended)]
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
                        built_by[orbit[0]] = extended
                        orbits.append(orbit)
            classes = [[Subgroup(self, mem) for mem in sorted(cls)] for cls in orbits]
            classes.sort(key=lambda c: (c[0].order, c[0].members))
            self._subgroup_classes = classes
        return [list(c) for c in self._subgroup_classes]

    def __repr__(self) -> str:
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


class Subgroup:
    """A subgroup of a FiniteGroup: its sorted member-index set, nothing
    more; however it was found, no generators or name are kept.  Its one
    index over the members is ``_position`` (member -> position in
    ``members``), built on first use, which membership tests read too."""

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
        return g in self._position

    @cached_property
    def _position(self) -> dict[int, int]:
        """Each member's index in the materialized group: its position in
        ``members``."""
        return {g: i for i, g in enumerate(self.members)}

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
            pos = self._position
            rows = self.parent._rows
            table = [[pos[rows[a][b]] for b in embed] for a in embed]
            # unchecked: the position lookup raised unless the members are
            # closed, and a closed subset of a finite group is a group
            out = (FiniteGroup(table, name="%s<%d>" % (self.parent.name, self.order),
                               check=False), embed)
        self.parent._subgroup_cache[self.members] = out
        return out

    def retract(self, g: int) -> int:
        """Parent index -> index in the materialized group."""
        return self._position[g]

    def __repr__(self) -> str:
        return "Subgroup(order=%d of %s)" % (self.order, self.parent.name)


class CosetTable(NamedTuple):
    """The coset of each element, the coset lifts and the conjugation maps
    of the normalizing cosets (``FiniteGroup.conjugation_action``)."""

    coset_of: tuple[int, ...]
    reps: tuple[int, ...]
    maps: dict[int, tuple[int, ...]]


# -- free functions ------------------------------------------------------------


def _check_axioms(G: FiniteGroup) -> None:
    """Raise ValueError unless the square table ``G._rows`` is the
    multiplication table of a group with identity 0."""
    rows = G._rows
    n = len(rows)
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise ValueError("table entries out of range")
    ar = list(range(n))
    if rows[0] != ar or [row[0] for row in rows] != ar:
        raise ValueError("element 0 is not the identity")
    # each row and column must be a permutation (cancellation laws)
    if any(sorted(row) != ar for row in rows) or any(sorted(col) != ar for col in zip(*rows)):
        raise ValueError("table row/column is not a permutation")
    # Light's test: the g with (x g) y = x (g y) for all (x, y) are closed
    # under products, so it suffices to check generators, here the greedy
    # ones of minimal_generators: what they reach from 0 by right
    # multiplication is all of G, and if they pass, every product of them does.
    for g in minimal_generators(G, ar):
        times_g = _gather(rows[g])  # x -> x (g y) over all y, read off row x
        if any(rows[row[g]] != list(times_g(row)) for row in rows):
            raise ValueError("multiplication table is not associative")


def _partition(items: Sequence, block: Callable[..., Iterable[int]]) -> tuple[list[int], list[int]]:
    """(block_of, firsts): the positions 0..len(items)-1 split into the
    blocks block(items[i]), each met at its least position i, the one block
    is called at, and numbered in that order (block 0 holds 0); firsts[b]
    is the least position in block b."""
    block_of = [-1] * len(items)
    firsts: list[int] = []
    for i in range(len(items)):
        if block_of[i] < 0:
            b = len(firsts)
            for j in block(items[i]):
                block_of[j] = b
            firsts.append(i)
    return block_of, firsts


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


def coset_quotient(H: Subgroup, A: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """(H/A, section) for A normal in G = H.parent and H a union of cosets
    of A, the group named by G and |A| (e.g. "S4/4"); the caller makes sure
    of both (FiniteGroup.quotient with H = G, obstruction_cocycle with H the
    stabilizer G_rho it builds).  The shape is Subgroup.as_group's (group,
    embed).

    The section is the coset lifts of ``G.conjugation_action(A)`` that lie
    in H: element q of H/A is the coset of section[q], and cosets multiply
    through their lifts in G.
    """
    G = H.parent
    rows = G._rows
    coset_of, reps, _ = G.conjugation_action(A)
    section = tuple(n for n in reps if n in H)
    pos = {coset_of[n]: q for q, n in enumerate(section)}
    table = [[pos[coset_of[rows[x][y]]] for y in section] for x in section]
    # unchecked: A is normal, so the coset products form the group H/A
    return FiniteGroup(table, name="%s/%d" % (G.name, A.order), check=False), section


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

    Each generator is checked on all ``degree`` points, then restricted to
    the points some generator moves: equality and composition do not depend
    on the points' labels, so fixed points cost nothing.  Element 0 is the
    identity; the remaining elements are indexed in breadth-first discovery
    order, which is deterministic.  Each element y is first reached as
    y = x s for an earlier x and a generator s, and the search records the
    right multiplication by every s.  The left multiplication by s follows
    along the same words, s (x t) = (s x) t, and row y of the table is row
    x read through it, (x s) z = x (s z): every composition, of permutations
    or of rows, is one ``_gather``.  Of the search's permutations the group
    keeps only each generator's index, ``generators[s]`` = 1 s.
    """
    full = []
    for p in generators:
        pt = tuple(int(x) for x in p)
        if sorted(pt) != list(range(degree)):
            raise InvalidPermutation("generator %r is not a permutation of 0..%d" % (p, degree - 1))
        full.append(pt)
    moved = sorted({i for p in full for i, x in enumerate(p) if x != i})
    at = {i: k for k, i in enumerate(moved)}
    gens = [tuple(at[p[i]] for i in moved) for p in full]
    ident = tuple(range(len(moved)))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    word: list[tuple[int, int]] = [(0, 0)]  # (x, s) with elems[y] = elems[x] o gens[s]
    right: list[list[int]] = [[] for _ in gens]  # right[s][x]: index of x o gens[s]
    compose = [_gather(g) for g in gens]  # compose[s](p) = p o gens[s]
    for x, px in enumerate(elems):  # elems grows while it is scanned
        for s, comp in enumerate(compose):
            y = comp(px)
            j = index.get(y)
            if j is None:
                if len(elems) >= cap:
                    raise ClosureOverflow("closure exceeded cap %d" % cap)
                j = index[y] = len(elems)
                elems.append(y)
                word.append((x, s))
            right[s].append(j)
    lefts = []  # lefts[s] reads z -> s z off a row
    for rs in right:
        left = [rs[0]]
        for x, t in word[1:]:
            left.append(right[t][left[x]])
        lefts.append(_gather(left))
    rows = [list(range(len(elems)))]
    for x, s in word[1:]:
        rows.append(list(lefts[s](rows[x])))
    # unchecked: composition of permutations is a group operation
    G = FiniteGroup(rows, name=name, check=False)
    G.generators = tuple(rs[0] for rs in right)
    return G


def _gather(indices: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """The map p -> (p[i] for i in indices), by one C-level ``itemgetter``
    call: a tuple, or for fewer than two indices a slice of p (of p's
    type), as itemgetter returns a bare item for one index."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))
