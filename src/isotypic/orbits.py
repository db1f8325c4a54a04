"""The action of G on the irreducible characters of a normal subgroup.

Orbits, stabilizers, obstruction records, the fibers of restriction
("lying over"), and the two independent counts whose agreement realizes the
rank decomposition of the equivariant K-theory of a point.  Each orbit and
its stabilizer come from one permutation of Irr(A) per coset of A.
obstruction_cocycle builds the stabilizer it works on from those
permutations too, and each record holds the obstruction's.  Whether a
character extends to its stabilizer is read off its multiplicity column
<Res_A chi, rho> over Irr(G).  Both tables are cached on G.
Only an orbit with rho(1) >= 2 and a nontrivial G_rho/A gets a matrix
model, of its representative alone, built inside its obstruction_cocycle
call; every other cocycle is exact.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from .characters import CharacterTable, character_table, restrict
from .cyclotomic import cyclotomic_to_jsonable, dot
from .errors import NotNormal
from .groups import FiniteGroup, Subgroup, _gather, _partition
from .repmatrices import ObstructionRecord, check_cocycle, obstruction_cocycle


def irr_permutations(G: FiniteGroup, A: Subgroup) -> dict[int, tuple[int, ...]]:
    """For each coset of A in N_G(A), the permutation of A's table rows that
    its minimal element n induces, tau -> (a -> tau(n^-1 a n)); cached on G.

    Read off the table's codes: n permutes the classes of A once per coset,
    and row i goes to the row whose code tuple is codes[i] composed with
    that class permutation.
    """
    if A.members not in G._irr_permutations:
        Agrp = A.as_group()[0]
        table = character_table(Agrp)
        G._irr_permutations[A.members] = {
            c: table.row_permutation(Agrp.class_permutation(conj_map))
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
    """The union of the cosets of A whose permutation fixes row tau, each
    the left coset n A of its lift n."""
    rows, reps = G._rows, G.conjugation_action(A).reps
    coset = _gather(A.members)
    return G.subgroup_from_members(chain.from_iterable(
        coset(rows[reps[c]]) for c, perm in irr_permutations(G, A).items() if perm[tau] == tau))


def multiplicities(G: FiniteGroup, A: Subgroup, rho: int) -> tuple[int, ...]:
    """<Res_A chi, rho> for each chi in Irr(G), taken as an int;
    AssertionError unless each is an integer >= 0 and
    sum_chi e_chi chi(1) = [G : A] rho(1) exactly.

    Each is one ``dot`` over the class sizes A's table holds, at the
    exponent of G: every value of both tables lies at an order dividing it.
    Cached on G per member set of A: Irr(G) is restricted to A once, and
    each column once per rho.
    """
    entry = G._multiplicities.get(A.members)
    if entry is None or rho not in entry[1]:
        table_a, table_g = character_table(A.as_group()[0]), character_table(G)
        if entry is None:
            entry = G._multiplicities[A.members] = (
                [restrict(chi, A) for chi in table_g.rows], {})
        restricted, columns = entry
        message = "restriction multiplicity is not a nonnegative integer"
        e, sizes, scale = G.exponent, table_a.class_sizes, Fraction(1, A.order)
        rho_values = table_a.rows[rho].values
        try:
            column = tuple([dot(e, zip(sizes, res.values, rho_values), scale,
                                conjugate=True).integer() for res in restricted])
        except ValueError:
            raise AssertionError(message) from None
        if min(column) < 0:
            raise AssertionError(message)
        if sum(map(mul, column, table_g.degrees)) != \
                G.order // A.order * table_a.degrees[rho]:
            raise AssertionError("restriction multiplicities break Frobenius reciprocity")
        columns[rho] = column
    return entry[1][rho]


def extension_exists(G: FiniteGroup, A: Subgroup, rho: int) -> bool:
    """Whether rho extends from the normal subgroup A of G to its stabilizer
    G_rho.

    Decided on Irr(G) by the Clifford correspondence (Isaacs, Character
    Theory of Finite Groups, Thms 6.2 and 6.11): induction from G_rho is a
    bijection from the irreducibles of G_rho over rho onto those of G over
    rho, and chi(1) = e_chi [G : G_rho] rho(1), so rho extends iff some chi
    in Irr(G) has e_chi = <Res_A chi, rho> = 1, so no stabilizer is built.
    Raises NotNormal unless A is normal in G.
    """
    if not G.is_normal(A):
        raise NotNormal("the extension criterion needs a normal subgroup")
    return 1 in multiplicities(G, A, rho)


IrrOrbit = namedtuple("IrrOrbit", "representative orbit stabilizer")


@dataclass
class IrrOrbitRecord:
    """One G-orbit on Irr(A) with its stabilizer and obstruction data."""

    representative: int
    orbit: frozenset
    stabilizer: Subgroup
    obstruction: ObstructionRecord
    lying_over: frozenset
    twisted_count: int
    omega_regular: int

    def to_jsonable(self, table_a: CharacterTable, values: list) -> dict:
        """The record as JSON; values[c] is the JSON object of the value
        with code c in table_a, shared by every entry that holds it."""
        return {
            "representative": self.representative,
            "representative_values": [values[c] for c in table_a.codes[self.representative]],
            "orbit": sorted(self.orbit),
            "orbit_size": len(self.orbit),
            "stabilizer_order": self.stabilizer.order,
            "quotient_order": self.obstruction.quotient.order,
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
        values = [cyclotomic_to_jsonable(v) for v in table_a.values]
        return {
            "group": self.group.name,
            "group_order": self.group.order,
            "normal_subgroup_order": self.normal.order,
            "orbits": [r.to_jsonable(table_a, values) for r in self.records],
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

    The orbits are numbered by ``_partition``: the representative is the
    orbit's minimal row of A's table and the stabilizer is that row's, the
    union of the cosets of A that fix it.  No character of G is touched.
    Raises NotNormal, naming G, unless A is normal in G.
    """
    if not G.is_normal(A):
        raise NotNormal("subgroup is not normal in %s" % G.name)
    perms = irr_permutations(G, A)

    def orbit(tau: int) -> frozenset:
        return frozenset([perm[tau] for perm in perms.values()])

    _, reps = _partition(range(len(perms[0])), orbit)  # coset 0 is A, which fixes every row
    return [IrrOrbit(tau, orbit(tau), irr_stabilizer(G, A, tau)) for tau in reps]


def orbit_decomposition(G: FiniteGroup, A: Subgroup) -> list:
    """One IrrOrbitRecord per G-orbit on Irr(A), in the order of irr_orbits;
    each record and its obstruction share the stabilizer obstruction_cocycle
    built.  No matrix model is built here: obstruction_cocycle builds the one
    its orbit needs, if any.
    """
    records = []
    for rep, orbit, _ in irr_orbits(G, A):
        obs = obstruction_cocycle(G, A, rep)
        # chi lies over the orbit iff e_chi > 0
        lying = frozenset(i for i, e in enumerate(multiplicities(G, A, rep)) if e)
        # obstruction_cocycle has already checked this table
        regular = _regular_class_count(obs.quotient, obs.omega, obs.modulus)
        records.append(IrrOrbitRecord(
            representative=rep, orbit=orbit, stabilizer=obs.stabilizer,
            obstruction=obs, lying_over=lying,
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


def k_decomposition_report(G: FiniteGroup, A: Subgroup) -> DecompositionReport:
    """Rank identity |Irr(G)| = sum of twisted counts over orbits.

    Both counting routes (restriction fibers and omega-regular classes) are
    computed; any mismatch is recorded in the report, never dropped.
    """
    records = orbit_decomposition(G, A)
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
        trivially_regular = rec.omega_regular == len(rec.obstruction.quotient.conjugacy_classes())
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
