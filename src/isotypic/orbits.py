"""The action of G on the irreducible characters of a normal subgroup.

Orbits, stabilizers, obstruction records, the fibers of restriction
("lying over"), and the two independent counts whose agreement realizes the
rank decomposition of the equivariant K-theory of a point.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .characters import (CharacterTable, character_table, inner_product,
                         restrict)
from .errors import NotNormal, NotStabilized
from .groups import FiniteGroup, Subgroup, left_cosets
from .repmatrices import (ObstructionRecord, check_cocycle, matrix_irreps,
                          obstruction_cocycle, stabilizer_of_character,
                          DEFAULT_SEED, DEFAULT_TOL, DEFAULT_SNAP_TOL)


def irr_action(G: FiniteGroup, A: Subgroup, g: int, tau: int) -> int:
    """Index of the character a -> tau(g^-1 a g) in the table of A.

    Defines a left action of N_G(A) on the rows of A's character table.
    """
    table = character_table(A.as_group()[0])
    coset_of, maps = G.conjugation_action(A)
    return table.row_index(table.rows[tau].pullback(maps[coset_of[g]]).values)


def extension_exists(G_rho: Subgroup, A: Subgroup, rho: int) -> bool:
    """Whether rho extends from A to its stabilizer, decided on characters.

    True iff some irreducible character of G_rho has the same degree as rho
    and restricts to it exactly.
    """
    G = G_rho.parent
    Agrp, _ = A.as_group()
    table_a = character_table(Agrp)
    chi_rho = table_a.rows[rho]
    if not set(G_rho.members) <= set(stabilizer_of_character(G, A, chi_rho).members):
        raise NotStabilized("stabilizer subgroup moves the representation")
    Sgrp, _ = G_rho.as_group()
    A_in_s = Sgrp.subgroup_from_members([G_rho.retract(a) for a in A.members])
    table_s = character_table(Sgrp)
    d = table_a.degrees[rho]
    for idx, chi in enumerate(table_s.rows):
        if table_s.degrees[idx] != d:
            continue
        if _same_values(restrict(chi, A_in_s).values, chi_rho.values):
            return True
    return False


def _same_values(a, b) -> bool:
    """Positional value equality across cyclotomic orders.

    Used where two materializations of the same subgroup (inside different
    parents) produce identical tables and hence identical class orders.
    """
    return len(a) == len(b) and all(x.equals_value(y) for x, y in zip(a, b))


IrrOrbit = namedtuple("IrrOrbit", "representative orbit stabilizer")


@dataclass
class IrrOrbitRecord:
    """One G-orbit on Irr(A) with its stabilizer and obstruction data."""

    representative: int
    orbit: frozenset
    stabilizer: Subgroup
    quotient: "QuotientGroup"
    obstruction: ObstructionRecord
    lying_over: frozenset
    twisted_count: int
    omega_regular: int

    def to_jsonable(self, table_a: CharacterTable) -> dict:
        from .characters import cyclotomic_to_jsonable
        rep_row = table_a.rows[self.representative]
        return {
            "representative": self.representative,
            "representative_values": [cyclotomic_to_jsonable(v) for v in rep_row.values],
            "orbit": sorted(self.orbit),
            "orbit_size": len(self.orbit),
            "stabilizer_order": self.stabilizer.order,
            "quotient_order": self.quotient.order,
            "obstruction_trivial": self.obstruction.trivial,
            "lying_over": sorted(self.lying_over),
            "twisted_count": self.twisted_count,
            "omega_regular_count": self.omega_regular,
        }


@dataclass
class DecompositionReport:
    """Rank bookkeeping for the orbit decomposition of Irr(G) over Irr(A).

    discrepancies are counting mismatches (implementation bug sentinels);
    notes record observations that are not asserted as theorems, e.g. the
    relation between the extension criterion and the regular-class count.
    """

    group: FiniteGroup
    normal: Subgroup
    records: list
    total_irr_g: int
    sum_of_counts: int
    consistent: bool
    discrepancies: list
    notes: list

    def to_jsonable(self) -> dict:
        Agrp, _ = self.normal.as_group()
        table_a = character_table(Agrp)
        return {
            "group": self.group.name,
            "group_order": self.group.order,
            "normal_subgroup_order": self.normal.order,
            "orbits": [r.to_jsonable(table_a) for r in self.records],
            "total_irr_g": self.total_irr_g,
            "sum_of_counts": self.sum_of_counts,
            "identity": "%d = %s" % (self.total_irr_g,
                                     " + ".join(str(r.twisted_count) for r in self.records)),
            "consistent": self.consistent,
            "discrepancies": self.discrepancies,
            "notes": self.notes,
        }


def irr_orbits(G: FiniteGroup, A: Subgroup) -> list:
    """One IrrOrbit per G-orbit on Irr(A), decided exactly on characters.

    The representative is the orbit's minimal row of A's table and the
    stabilizer is that row's; orbits are listed by representative.
    """
    if not G.is_normal(A):
        raise NotNormal("orbit decomposition needs a normal subgroup")
    table_a = character_table(A.as_group()[0])
    # A acts trivially on Irr(A): one element per left coset of A reaches the orbit
    _, coset_reps = left_cosets(G, A.members)
    orbits = []
    for tau in range(len(table_a)):
        if all(tau not in o.orbit for o in orbits):
            orbit = frozenset(irr_action(G, A, g, tau) for g in coset_reps)
            orbits.append(IrrOrbit(tau, orbit, stabilizer_of_character(G, A, table_a.rows[tau])))
    return orbits


def orbit_decomposition(G: FiniteGroup, A: Subgroup,
                        seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
                        snap_tol: float = DEFAULT_SNAP_TOL) -> list:
    """One IrrOrbitRecord per G-orbit on Irr(A), in the order of irr_orbits."""
    orbits = irr_orbits(G, A)
    Agrp, _ = A.as_group()
    table_a = character_table(Agrp)
    table_g = character_table(G)
    irreps_a = matrix_irreps(Agrp, seed=seed, tol=tol)
    restricted = [restrict(chi, A) for chi in table_g.rows]
    records = []
    for rep, orbit, stabilizer in orbits:
        obs = obstruction_cocycle(G, A, irreps_a[rep], seed=seed, tol=tol,
                                  snap_tol=snap_tol)
        # chi lies over the orbit iff <Res_A chi, rho> > 0
        lying = frozenset(
            i for i, res in enumerate(restricted)
            if inner_product(res, table_a.rows[rep]).rational() > 0)
        # obstruction_cocycle has already checked this table
        regular = _regular_class_count(obs.quotient.group, obs.omega, obs.modulus)
        records.append(IrrOrbitRecord(
            representative=rep, orbit=orbit, stabilizer=stabilizer,
            quotient=obs.quotient, obstruction=obs, lying_over=lying,
            twisted_count=len(lying), omega_regular=regular))
    return records


def omega_regular_count(Q: FiniteGroup, omega, modulus: int) -> int:
    """Number of omega-regular conjugacy classes of Q.

    The class of q is regular iff omega(q, c) = omega(c, q) for every c in
    the centralizer of q; values are compared exactly as exponents.  omega
    must be a normalized cocycle, else InvalidCocycle is raised.
    """
    check_cocycle(Q, omega, modulus)
    return _regular_class_count(Q, omega, modulus)


def _regular_class_count(Q: FiniteGroup, omega, modulus: int) -> int:
    """omega_regular_count for a table already known to be a normalized cocycle."""
    count = 0
    for cls in Q.conjugacy_classes():
        q = cls[0]
        regular = True
        for c in Q.elements():
            if Q.mul(q, c) != Q.mul(c, q):
                continue
            if omega[q][c] % modulus != omega[c][q] % modulus:
                regular = False
                break
        if regular:
            count += 1
    return count


def k_decomposition_report(G: FiniteGroup, A: Subgroup,
                           seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
                           snap_tol: float = DEFAULT_SNAP_TOL) -> DecompositionReport:
    """Rank identity |Irr(G)| = sum of twisted counts over orbits.

    Both counting routes (restriction fibers and omega-regular classes) are
    computed; any mismatch is recorded in the report, never dropped.
    """
    records = orbit_decomposition(G, A, seed=seed, tol=tol, snap_tol=snap_tol)
    table_g = character_table(G)
    total = len(table_g)
    ssum = sum(rec.twisted_count for rec in records)

    discrepancies = []
    notes = []
    union = set()
    overlap = False
    for rec in records:
        if union & rec.lying_over:
            overlap = True
        union |= rec.lying_over
    if overlap:
        discrepancies.append("lying_over sets overlap")
    if union != set(range(total)):
        discrepancies.append("lying_over sets do not cover Irr(G)")
    for rec in records:
        if rec.twisted_count != rec.omega_regular:
            discrepancies.append(
                "orbit of %d: lying_over count %d != omega-regular count %d"
                % (rec.representative, rec.twisted_count, rec.omega_regular))
        # recorded, not asserted: whether a full regular-class count implies
        # a trivial obstruction class is decided by the extension test alone
        trivially_regular = rec.omega_regular == len(rec.quotient.group.conjugacy_classes())
        if rec.obstruction.trivial != trivially_regular:
            notes.append(
                "orbit of %d: extension criterion says trivial=%s while the "
                "omega-regular count %s the class count"
                % (rec.representative, rec.obstruction.trivial,
                   "matches" if trivially_regular else "misses"))
    consistent = (total == ssum) and not discrepancies
    return DecompositionReport(group=G, normal=A, records=records,
                               total_irr_g=total, sum_of_counts=ssum,
                               consistent=consistent, discrepancies=discrepancies,
                               notes=notes)
