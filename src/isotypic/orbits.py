"""The action of G on the irreducible characters of a normal subgroup.

Orbits, stabilizers, obstruction records, the fibers of restriction
("lying over"), and the two independent counts whose agreement realizes the
rank decomposition of the equivariant K-theory of a point.  Each orbit and
its stabilizer come from one permutation of Irr(A) per coset of A, and that
stabilizer is built once: the obstruction record is computed on it.  Whether
a character extends to its stabilizer is read off its multiplicity column
<Res_A chi, rho> over Irr(G).  Both tables are cached on G.
Matrix models of Irr(A) are built once per decomposition, and only if some
orbit has rho(1) >= 2 and a nontrivial G_rho/A; every other cocycle is
exact, so --seed and --tol reach only those orbits.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .characters import (CharacterTable, character_table, inner_product,
                         restrict)
from .errors import NotNormal, NotStabilized
from .groups import FiniteGroup, Subgroup
from .repmatrices import (ObstructionRecord, check_cocycle, matrix_irreps,
                          needs_matrix_model, obstruction_cocycle, DEFAULT_SEED,
                          DEFAULT_TOL)


def irr_permutations(G: FiniteGroup, A: Subgroup) -> dict[int, tuple[int, ...]]:
    """For each coset of A in N_G(A), the permutation of A's table rows that
    its minimal element n induces, tau -> (a -> tau(n^-1 a n)); cached on G."""
    if A.members not in G._irr_permutations:
        table = character_table(A.as_group()[0])
        G._irr_permutations[A.members] = {
            c: tuple(table.row_index(row.pullback(conj_map).values) for row in table.rows)
            for c, conj_map in G.conjugation_action(A).maps.items()}
    return G._irr_permutations[A.members]


def irr_action(G: FiniteGroup, A: Subgroup, g: int, tau: int) -> int:
    """Index of the character a -> tau(g^-1 a g) in the table of A.

    Defines a left action of N_G(A) on the rows of A's character table;
    raises NotNormal unless g normalizes A.
    """
    perm = irr_permutations(G, A).get(G.conjugation_action(A).coset_of[g])
    if perm is None:
        raise NotNormal("element does not normalize the subgroup")
    return perm[tau]


def irr_stabilizer(G: FiniteGroup, A: Subgroup, tau: int) -> Subgroup:
    """The union of the cosets of A whose permutation fixes row tau."""
    coset_of = G.conjugation_action(A).coset_of
    fixed = {c for c, perm in irr_permutations(G, A).items() if perm[tau] == tau}
    return G.subgroup_from_members(g for g in G.elements() if coset_of[g] in fixed)


def multiplicities(G: FiniteGroup, A: Subgroup, rho: int) -> tuple[int, ...]:
    """<Res_A chi, rho> for each chi in Irr(G), cached on G; AssertionError unless
    each is an integer >= 0 and sum_chi e_chi chi(1) = [G : A] rho(1) exactly."""
    if (A.members, rho) not in G._multiplicities:
        table_a, table_g = character_table(A.as_group()[0]), character_table(G)
        column = [inner_product(restrict(chi, A), table_a.rows[rho]).rational()
                  for chi in table_g.rows]
        if any(e.denominator != 1 or e < 0 for e in column):
            raise AssertionError("restriction multiplicity is not a nonnegative integer")
        if sum(e * d for e, d in zip(column, table_g.degrees)) != \
                G.order // A.order * table_a.degrees[rho]:
            raise AssertionError("restriction multiplicities break Frobenius reciprocity")
        G._multiplicities[A.members, rho] = tuple(map(int, column))
    return G._multiplicities[A.members, rho]


def extension_exists(G_rho: Subgroup, A: Subgroup, rho: int) -> bool:
    """Whether rho extends from the normal subgroup A to its stabilizer G_rho.

    Decided on Irr(G), G = G_rho.parent, by the Clifford correspondence
    (Isaacs, Character Theory of Finite Groups, Thms 6.2 and 6.11): induction from
    G_rho is a bijection from the irreducibles of G_rho over rho onto those of
    G over rho, and chi(1) = e_chi [G : G_rho] rho(1), so rho extends iff some
    chi in Irr(G) has e_chi = <Res_A chi, rho> = 1.  Raises NotNormal unless A is
    normal in G and NotStabilized unless G_rho is exactly rho's stabilizer.
    """
    G = G_rho.parent
    if not G.is_normal(A):
        raise NotNormal("the extension criterion needs a normal subgroup")
    if G_rho.members != irr_stabilizer(G, A, rho).members:
        raise NotStabilized("subgroup is not the stabilizer of the representation")
    return 1 in multiplicities(G, A, rho)


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
    """One IrrOrbit per G-orbit on Irr(A), read off irr_permutations.

    The representative is the orbit's minimal row of A's table and the
    stabilizer is that row's, the union of the cosets of A that fix it;
    orbits are listed by representative.  No character of G is touched.
    """
    if not G.is_normal(A):
        raise NotNormal("orbit decomposition needs a normal subgroup")
    perms = irr_permutations(G, A)
    orbits = []
    for tau in range(len(perms[0])):  # coset 0 is A itself, which fixes every row
        if all(tau not in o.orbit for o in orbits):
            orbits.append(IrrOrbit(tau, frozenset(perm[tau] for perm in perms.values()),
                                   irr_stabilizer(G, A, tau)))
    return orbits


def orbit_decomposition(G: FiniteGroup, A: Subgroup,
                        seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL) -> list:
    """One IrrOrbitRecord per G-orbit on Irr(A), in the order of irr_orbits;
    each record and its obstruction share the stabilizer irr_orbits built.

    matrix_irreps(A, seed, tol) is called once, and only if some orbit
    needs_matrix_model; only those orbits get a matrix model.
    """
    orbits = irr_orbits(G, A)
    Agrp, _ = A.as_group()
    table_a = character_table(Agrp)
    needs = [needs_matrix_model(stabilizer, A, table_a.degrees[rep])
             for rep, _, stabilizer in orbits]
    irreps_a = matrix_irreps(Agrp, seed=seed, tol=tol) if any(needs) else None
    records = []
    for (rep, orbit, stabilizer), need in zip(orbits, needs):
        obs = obstruction_cocycle(stabilizer, A, table_a.rows[rep],
                                  irreps_a[rep] if need else None, seed=seed, tol=tol)
        # chi lies over the orbit iff e_chi > 0
        lying = frozenset(i for i, e in enumerate(multiplicities(G, A, rep)) if e)
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
    must be a normalized cocycle, else InvalidCocycle is raised.  No src
    caller: kept because the benchmark's span list wraps it.
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


def k_decomposition_report(G: FiniteGroup, A: Subgroup, seed: int = DEFAULT_SEED,
                           tol: float = DEFAULT_TOL) -> DecompositionReport:
    """Rank identity |Irr(G)| = sum of twisted counts over orbits.

    Both counting routes (restriction fibers and omega-regular classes) are
    computed; any mismatch is recorded in the report, never dropped.
    """
    records = orbit_decomposition(G, A, seed=seed, tol=tol)
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
