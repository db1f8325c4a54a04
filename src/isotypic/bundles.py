"""Equivariant vector bundles over finite G-sets and their decomposition.

A bundle over a finite G-set is its isomorphism-class data: one stabilizer
character per orbit, always built from its multiplicities over the
stabilizer's irreducibles (``EquivariantBundle.from_multiplicities``).  The
decomposition into induced isotypic pieces along the orbits of G on Irr(A)
is then an identity of exact characters, verified fiberwise with cyclotomic
arithmetic and no tolerance.  It needs only the orbits and their
stabilizers (``irr_orbits``): no float code, seed or tolerance.  A base
orbit whose stored fibers agree is checked at its anchor only.  The pieces
of every orbit at a checked point come from one ``induction_piece_character``
call, one exact sum per class of the point's stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .characters import ClassFunction, character_table
from .cyclotomic import Cyclotomic, dot
from .errors import NotATrivial
from .groups import FiniteGroup, Subgroup, _gather, minimal_generators
from .orbits import IrrOrbit, irr_orbits


class GSet:
    """A finite G-set given by its full action table (element x point).

    Orbits and transporters are read off the origin table, built in one pass:
    x -> (r, t) for r the minimum of x's orbit and t minimal with t . r = x.
    """

    def __init__(self, group: FiniteGroup, action: Sequence[Sequence[int]]):
        self.group = group
        self.action = tuple(map(tuple, action))
        if len(self.action) != group.order:
            raise ValueError("action table needs one row per group element")
        self.size = len(self.action[0])
        for row in self.action:
            if len(row) != self.size or not all(type(x) is int and 0 <= x < self.size
                                                for x in row):
                raise ValueError("action table rows must map into the point set by integers")
        if self.action[0] != tuple(range(self.size)):
            raise ValueError("identity must act trivially")
        # the law for every g and generator s gives it for all pairs (induction on word length)
        for s in minimal_generators(group, group.elements()):
            act_s = _gather(self.action[s])  # (g s) . y = g . (s . y)
            for g in group.elements():
                if self.action[group.mul(g, s)] != act_s(self.action[g]):
                    raise ValueError("action table is not a group action")
        # an orbit is first met at its minimum r, which g = 0 reaches first
        self._origin: list[tuple[int, int]] = [(-1, -1)] * self.size
        for r in range(self.size):
            if self._origin[r][0] < 0:
                for g in group.elements():
                    x = self.action[g][r]
                    if self._origin[x][0] < 0:
                        self._origin[x] = (r, g)
        self._stabilizers: dict[int, Subgroup] = {}

    def act(self, g: int, x: int) -> int:
        return self.action[g][x]

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits as sorted point tuples, ordered by minimal point."""
        orbits: dict[int, list[int]] = {}
        for x, (r, _) in enumerate(self._origin):
            orbits.setdefault(r, []).append(x)
        return [tuple(orb) for orb in orbits.values()]

    def stabilizer(self, x: int) -> Subgroup:
        """The stabilizer of x, computed once per point: every call returns
        the same Subgroup."""
        stab = self._stabilizers.get(x)
        if stab is None:
            stab = self.group.subgroup_from_members(
                g for g in self.group.elements() if self.act(g, x) == x)
            self._stabilizers[x] = stab
        return stab

    def transporter_from(self, src: int, dst: int) -> int:
        """t_dst t_src^-1, an element taking src to dst (same orbit)."""
        if self._origin[src][0] != self._origin[dst][0]:
            raise ValueError("points %d and %d are not in the same orbit" % (src, dst))
        return self.group.mul(self._origin[dst][1], self.group.inv(self._origin[src][1]))

    def is_trivial_for(self, A: Subgroup) -> bool:
        return all(self.action[a] == self.action[0] for a in A.members)

    @staticmethod
    def cosets(G: FiniteGroup, H: Subgroup) -> "GSet":
        """The left coset space G/H with its translation action; point i is
        the i-th coset of G.conjugation_action(H)."""
        coset_of, reps, _ = G.conjugation_action(H)
        action = [[coset_of[G.mul(g, r)] for r in reps] for g in G.elements()]
        return GSet(G, action)

    @staticmethod
    def disjoint_union(parts: Sequence["GSet"]) -> "GSet":
        if not parts:
            raise ValueError("need at least one part")
        G = parts[0].group
        if any(p.group is not G for p in parts):
            raise ValueError("all parts must share the same group")
        action = []
        for g in G.elements():
            row: list[int] = []
            offset = 0
            for p in parts:
                row.extend(offset + y for y in p.action[g])
                offset += p.size
            action.append(row)
        return GSet(G, action)


class EquivariantBundle:
    """Isomorphism-class data of a G-equivariant bundle over a finite G-set.

    fibers maps points (at least one per orbit, usually the orbit
    representatives) to the character of the stabilizer representation on
    the fiber there.  The package builds every bundle with
    from_multiplicities, so each fiber is a genuine character with values at
    the exponent of G, and the constructor only stores them.  Data stored at several points of one
    orbit is deliberately redundant: the decomposition check compares it for
    mutual consistency.
    """

    def __init__(self, base: GSet, fibers: dict):
        self.base = base
        self.fibers = dict(sorted(fibers.items()))
        self._anchor = {}
        for orb in base.orbits():
            stored = [x for x in orb if x in self.fibers]
            if not stored:
                raise ValueError("missing fiber character for the orbit of %d" % orb[0])
            for x in orb:
                self._anchor[x] = x if x in self.fibers else stored[0]

    def anchor(self, x: int) -> int:
        """The stored point whose data describes the fiber at x."""
        return self._anchor[x]

    @staticmethod
    def from_multiplicities(base: GSet, mults: dict) -> "EquivariantBundle":
        """The bundle whose fiber at each given point is sum_i m_i chi_i over
        the rows chi_i of its stabilizer's table.

        A list of nonnegative integers, one per row, always gives a
        character, so the sums are not decomposed again.
        """
        one = Cyclotomic.one(1)
        fibers = {}
        for rep, ms in mults.items():
            sgrp = base.stabilizer(rep).as_group()
            table = character_table(sgrp)
            if len(ms) != len(table.rows):
                raise ValueError("expected %d multiplicities for orbit %d"
                                 % (len(table.rows), rep))
            if any(isinstance(m, bool) or not isinstance(m, int) or m < 0 for m in ms):
                raise ValueError("multiplicities for orbit %d must be integers >= 0, got %r"
                                 % (rep, list(ms)))
            fibers[rep] = ClassFunction(sgrp, [
                dot(base.group.exponent, [(m, row.values[c], one)
                                          for m, row in zip(ms, table.rows)])
                for c in range(len(table.classes))])
        return EquivariantBundle(base, fibers)


def _require_a_trivial(base: GSet, A: Subgroup) -> None:
    if not base.is_trivial_for(A):
        raise NotATrivial("the distinguished normal subgroup moves a base point")


def fiber_character(E: EquivariantBundle, x: int) -> ClassFunction:
    """Character of the stabilizer representation on the fiber at x.

    At points without stored data the value is conjugate-transported from
    the orbit's anchor point along ``transporter_from`` (any element taking
    the anchor to x gives the same values).
    """
    return _transported_fiber(E, E.anchor(x), x)


def _transported_fiber(E: EquivariantBundle, src: int, x: int) -> ClassFunction:
    """The fiber character stored at src, transported to x in its orbit:
    pulled back to Stab(x) along k -> t^-1 k t, t the transporter from src
    to x, which maps Stab(x) onto Stab(src)."""
    base = E.base
    chi = E.fibers[src]
    if x == src:
        return chi
    G = base.group
    t = base.transporter_from(src, x)
    tinv = G.inv(t)
    stab_r, stab_x = base.stabilizer(src), base.stabilizer(x)
    members = stab_x.members
    return chi.pullback(stab_x.as_group(),
                        lambda k: stab_r.retract(G.mul(G.mul(tinv, members[k]), t)))


def induction_piece_character(E: EquivariantBundle, A: Subgroup,
                              orbits: Sequence[IrrOrbit], x: int) -> ClassFunction:
    """Character at x of the sum of the induced isotypic pieces attached to
    the given orbits of G on Irr(A); one orbit gives its piece alone.

    The piece of an orbit with representative rho and stabilizer G_rho is
    the sum over cosets g G_rho of the rho-isotypic part of the fiber of E at
    g^-1 x; an element k of Stab(x) permutes the cosets and its value
    collects the fixed cosets, where h = g^-1 k g acts on the summand by
    rho(1)/|A| sum_a chi_y(h a) conj(rho(a)).  Each value is one exact sum
    over the fixed cosets of every orbit and the elements of A.  The fiber
    at each y is transported once per call, as a map from the elements of
    Stab(y) to their values, which every orbit shares.  Reads only
    orbit.representative and orbit.stabilizer of each orbit (an
    IrrOrbitRecord serves too).
    """
    _require_a_trivial(E.base, A)
    base = E.base
    G = base.group
    rows, inv = G._rows, G._inv
    Agrp = A.as_group()
    table_a = character_table(Agrp)
    stab_x = base.stabilizer(x)
    sxg = stab_x.as_group()
    ks = [stab_x.members[cls[0]] for cls in sxg.conjugacy_classes()]
    terms: list[list] = [[] for _ in ks]
    fibers: dict[int, dict[int, Cyclotomic]] = {}  # y -> {element of Stab(y): value}
    for orbit in orbits:
        d_rho = table_a.degrees[orbit.representative]
        # (element of A, rho value) pairs; rho enters conjugated
        a_vals = [(A.members[aa], rval) for acls, rval in
                  zip(Agrp.conjugacy_classes(), table_a.rows[orbit.representative].values)
                  for aa in acls]
        stab_members = orbit.stabilizer._position
        for g in G.conjugation_action(orbit.stabilizer).reps:
            ginv = inv[g]
            y = base.act(ginv, x)
            fib = fibers.get(y)
            if fib is None:
                stab_y = base.stabilizer(y)
                fib = fibers[y] = {stab_y.members[h]: v for cls, v in
                                   zip(stab_y.as_group().conjugacy_classes(),
                                       fiber_character(E, y).values)
                                   for h in cls}
            row_ginv = rows[ginv]
            for k, kterms in zip(ks, terms):
                h = rows[row_ginv[k]][g]
                if h in stab_members:  # k fixes the coset g G_rho
                    row_h = rows[h]
                    kterms += [(d_rho, fib[row_h[a]], rval) for a, rval in a_vals]
    scale = Fraction(1, Agrp.order)
    return ClassFunction(sxg, [dot(G.exponent, kterms, scale, conjugate=True)
                               for kterms in terms])


@dataclass
class DecompositionCheck:
    """Outcome of the fiberwise comparison of E with its decomposition."""

    ok: bool
    per_point: dict  # point -> list of mismatching class indices

    def to_jsonable(self) -> dict:
        return {"ok": self.ok,
                "per_point": {str(k): v for k, v in sorted(self.per_point.items())}}


def verify_decomposition(E: EquivariantBundle, A: Subgroup) -> DecompositionCheck:
    """Exact fiberwise verification that the isotypic pieces sum to E.

    At every point x of the base, the sum over the orbits of G on Irr(A)
    (``irr_orbits``) of the induced piece characters must equal the fiber
    character of E at x, exactly as class functions.  Every fiber stored
    redundantly must also equal the one transported from the first stored
    point of its orbit; its mismatching classes are reported at its own
    point.  An orbit with a disagreeing stored fiber is checked point by
    point.  On an orbit whose stored fibers all agree the fibers, and so the
    pieces, are G-equivariant, and by column orthogonality (sum over rho of
    rho(1) rho(a) = |A| delta(a, 1)) the pieces sum to the fiber for any
    input.  So the sum is checked at the anchor (the first stored point)
    only, and a failure there, the package's own fault, raises AssertionError.
    """
    records = irr_orbits(E.base.group, A)  # NotNormal comes before NotATrivial
    _require_a_trivial(E.base, A)
    per_point = {}
    for orb in E.base.orbits():
        stored = [x for x in orb if x in E.fibers]
        redundant = {x: _mismatches(_transported_fiber(E, stored[0], x), E.fibers[x])
                     for x in stored[1:]}
        if any(redundant.values()):
            for x in orb:
                per_point[x] = sorted(set(_piece_mismatches(E, A, records, x))
                                      | set(redundant.get(x, [])))
        elif _piece_mismatches(E, A, records, stored[0]):
            raise AssertionError("the isotypic pieces of an equivariant fiber family "
                                 "do not sum to it at point %d" % stored[0])
        else:
            per_point.update((x, []) for x in orb)
    ok = all(not bad for bad in per_point.values())
    return DecompositionCheck(ok=ok, per_point=dict(sorted(per_point.items())))


def _piece_mismatches(E: EquivariantBundle, A: Subgroup, records: list, x: int) -> list:
    """Classes of Stab(x) where the pieces at x do not sum to the fiber."""
    return _mismatches(induction_piece_character(E, A, records, x), fiber_character(E, x))


def _mismatches(a: ClassFunction, b: ClassFunction) -> list:
    """Indices of the classes where two class functions differ."""
    return [i for i, (u, v) in enumerate(zip(a.values, b.values)) if not u.equals_value(v)]
