from fractions import Fraction

import pytest

from isotypic import characters, groups, orbits, repmatrices
from isotypic.catalog import build_catalog_group
from isotypic.characters import character_table
from isotypic.cyclotomic import Cyclotomic
from isotypic.errors import InvalidCocycle, NotNormal
from isotypic.groups import group_from_generators
from isotypic.orbits import (extension_exists, irr_action, irr_permutations, irr_stabilizer,
                             k_decomposition_report, multiplicities,
                             omega_regular_count, orbit_decomposition)

from conftest import (S3_GENS, S4_GENS, brute_automorphisms, conj, dihedral, direct_product,
                      plain_index, relabel)


def rho_indices_z4(z4_pair):
    """Indices of 1, rho, rho^2, rho^3 in the table of the rotation subgroup."""
    G, A = z4_pair
    Agrp, _ = A.as_group()
    ta = character_table(Agrp)
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    by_value = {}
    for i, row in enumerate(ta.rows):
        for k in range(4):
            if row(a_loc) == Cyclotomic.root_of_unity(4, k):
                by_value[k] = i
    return by_value  # k -> row index of rho^k


def test_inner_elements_act_trivially(pairs):
    for name, G, A in pairs:
        Agrp, _ = A.as_group()
        r = len(character_table(Agrp).rows)
        for a in A.members:
            for tau in range(r):
                assert irr_action(G, A, a, tau) == tau, name


def test_b_swaps_rho_and_rho3(d8):
    G, A = d8
    idx = rho_indices_z4((G, A))
    b = G.generators[1]
    assert irr_action(G, A, b, idx[1]) == idx[3]
    assert irr_action(G, A, b, idx[3]) == idx[1]
    assert irr_action(G, A, b, idx[0]) == idx[0]
    assert irr_action(G, A, b, idx[2]) == idx[2]


def test_d2p_reflection_inverts_characters():
    # b sends the character a -> zeta^l to a -> zeta^(p-l)
    for p in (3, 5, 7):
        G = dihedral(p)
        a, b = G.generators
        A = G.subgroup([a])
        Agrp, _ = A.as_group()
        ta = character_table(Agrp)
        a_loc = A.retract(a)
        exponent_of = {}
        for i, row in enumerate(ta.rows):
            for k in range(p):
                if row(a_loc) == Cyclotomic.root_of_unity(p, k):
                    exponent_of[i] = k
        assert len(exponent_of) == p
        for tau in range(p):
            image = irr_action(G, A, b, tau)
            assert (exponent_of[image] + exponent_of[tau]) % p == 0


def test_action_axioms_exhaustive(pairs):
    for name, G, A in pairs:
        if G.order > 16:
            continue
        Agrp, _ = A.as_group()
        r = len(character_table(Agrp).rows)
        for tau in range(r):
            assert irr_action(G, A, 0, tau) == tau
        for g in G.elements():
            for h in G.elements():
                gh = G.mul(g, h)
                for tau in range(r):
                    assert irr_action(G, A, g, irr_action(G, A, h, tau)) == \
                        irr_action(G, A, gh, tau), name


def test_irr_action_rejects_an_element_outside_the_normalizer():
    """Over a subgroup of S4 of order 2, an element that does not normalize it
    raises NotNormal; the elements of its normalizer act."""
    G, _ = build_catalog_group("S4")
    H = G.subgroup([G.generators[1]])
    N = G.normalizer(H)
    outside = next(g for g in G.elements() if g not in N)
    with pytest.raises(NotNormal):
        irr_action(G, H, outside, 0)
    assert all(irr_action(G, H, n, tau) == tau for n in N.members for tau in range(2))


def test_orbit_decomposition_d8(d8):
    G, A = d8
    idx = rho_indices_z4((G, A))
    recs = orbit_decomposition(G, A)
    orbits = {rec.orbit for rec in recs}
    assert orbits == {frozenset({idx[0]}), frozenset({idx[2]}),
                      frozenset({idx[1], idx[3]})}


def test_orbit_decomposition_requires_normal():
    G = group_from_generators(3, [[1, 2, 0], [1, 0, 2]], name="S3")
    H = G.subgroup([G.generators[1]])
    with pytest.raises(NotNormal):
        orbit_decomposition(G, H)


def test_orbits_with_a_equal_g(d8):
    G, _ = d8
    recs = orbit_decomposition(G, G.full_subgroup())
    assert len(recs) == 5
    for rec in recs:
        assert len(rec.orbit) == 1
        assert rec.obstruction.quotient.order == 1
        assert rec.twisted_count == 1 == rec.omega_regular


def test_orbits_with_trivial_a(d8):
    G, _ = d8
    recs = orbit_decomposition(G, G.trivial_subgroup())
    assert len(recs) == 1
    rec = recs[0]
    assert rec.twisted_count == 5
    assert rec.omega_regular == 5
    assert rec.obstruction.quotient.order == 8


def test_d2p_orbit_count():
    for p in (3, 5, 7):
        G = dihedral(p)
        a = G.generators[0]
        A = G.subgroup([a])
        recs = orbit_decomposition(G, A)
        assert len(recs) == 1 + (p - 1) // 2
        sizes = sorted(len(r.orbit) for r in recs)
        assert sizes == [1] + [2] * ((p - 1) // 2)


def test_orbit_stabilizer_identity(pairs):
    for name, G, A in pairs:
        for rec in orbit_decomposition(G, A):
            assert len(rec.orbit) * rec.stabilizer.order == G.order, name


def test_lying_over_partitions_irr_g(pairs):
    for name, G, A in pairs:
        recs = orbit_decomposition(G, A)
        union = set()
        total = 0
        for rec in recs:
            assert not (union & rec.lying_over), name
            union |= rec.lying_over
            total += rec.twisted_count
        t = character_table(G)
        assert union == set(range(len(t.rows))), name
        assert total == len(t.rows), name


def test_twisted_count_equals_omega_regular(pairs):
    for name, G, A in pairs:
        for rec in orbit_decomposition(G, A):
            assert rec.twisted_count == rec.omega_regular, name


def test_extension_exists_trivial_character(d8):
    G, A = d8
    idx = rho_indices_z4((G, A))
    assert extension_exists(G, A, idx[0])
    assert extension_exists(G, A, idx[2])


def test_extension_exists_answers_a_moved_character(d8):
    """D8 moves rho of its rotation subgroup Z4, so rho's stabilizer is Z4
    itself, to which rho extends."""
    G, A = d8
    idx = rho_indices_z4((G, A))
    assert irr_stabilizer(G, A, idx[1]).members == A.members
    assert extension_exists(G, A, idx[1])


def test_extension_fails_for_q8_center(q8):
    G, Z = q8
    Zgrp, _ = Z.as_group()
    ta = character_table(Zgrp)
    eps = next(i for i, row in enumerate(ta.rows)
               if row.values[1].rational() == -1)
    assert not extension_exists(G, Z, eps)
    triv = next(i for i, row in enumerate(ta.rows)
                if all(v.rational() == 1 for v in row.values))
    assert extension_exists(G, Z, triv)


def test_omega_regular_count_trivial_cocycle(d8):
    G, _ = d8
    n = G.order
    omega = [[0] * n for _ in range(n)]
    assert omega_regular_count(G, omega, 1) == len(G.conjugacy_classes())


def test_omega_regular_count_z2_always_two():
    Z2 = group_from_generators(2, [[1, 0]], name="Z2")
    # both cocycle tables on Z/2 with values +-1 are symmetric
    for x in (0, 1):
        omega = [[0, 0], [0, x]]
        if _is_cocycle(Z2, omega, 2):
            assert omega_regular_count(Z2, omega, 2) == 2


def _is_cocycle(Q, omega, mod):
    for a in range(Q.order):
        for b in range(Q.order):
            for c in range(Q.order):
                if (omega[a][b] + omega[Q.mul(a, b)][c]) % mod != \
                        (omega[a][Q.mul(b, c)] + omega[b][c]) % mod:
                    return False
    return True


@pytest.mark.parametrize("order, omega, reason", [
    (2, [[0, 1], [0, 0]], "not normalized"),
    (2, [[0, 0], [0, 0], [0, 0]], "wrong shape"),
    (3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]], "identity fails"),
], ids=["not-normalized", "wrong-shape", "not-a-cocycle"])
def test_omega_regular_count_rejects_invalid(order, omega, reason):
    Zn = group_from_generators(order, [[(i + 1) % order for i in range(order)]])
    with pytest.raises(InvalidCocycle, match=reason):
        omega_regular_count(Zn, omega, order)


def test_orbit_decomposition_checks_each_cocycle_once(monkeypatch):
    """The obstruction table is validated where it is built, not again when
    its regular classes are counted."""
    calls = []
    original = repmatrices.check_cocycle

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(repmatrices, "check_cocycle", counting)
    monkeypatch.setattr(orbits, "check_cocycle", counting)
    G, V4 = build_catalog_group("S4")
    assert V4.order == 4
    recs = orbit_decomposition(G, V4)
    assert len(recs) == 2
    assert len(calls) == len(recs)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records its calls; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_orbit_decomposition_acts_once_per_coset_of_a(monkeypatch):
    """A acts trivially on Irr(A), so the action table reads one permutation
    of the classes of V4 per coset of V4 in S4: 6, not 24; the table is
    cached on G, so a second decomposition and the Weyl action of
    rank_profile read none."""
    calls = _counting(monkeypatch, groups.FiniteGroup, "class_permutation")
    G, V4 = build_catalog_group("S4")
    recs = orbit_decomposition(G, V4)
    assert sorted(len(r.orbit) for r in recs) == [1, 3]
    assert len(calls) == 6
    del calls[:]
    assert [r.orbit for r in orbit_decomposition(G, V4)] == [r.orbit for r in recs]
    rank_profile(G, V4)
    assert len(calls) == 0


def test_orbit_decomposition_restricts_irr_g_once_per_normal_subgroup(monkeypatch):
    """Each of the 5 rows of Irr(S4) is restricted to V4 once, however many
    orbits ask for their multiplicity columns, and never again."""
    calls = _counting(monkeypatch, orbits, "restrict")
    G, V4 = build_catalog_group("S4")
    assert len(orbit_decomposition(G, V4)) == 2
    assert len(calls) == 5
    orbit_decomposition(G, V4)
    assert len(calls) == 5


def _reference_irr_permutations(G, A):
    """The pullback formula irr_permutations replaced, kept as its
    reference: every row of A's table pulled back along one conjugation map
    per coset of A in N_G(A), a -> row(conj_map[a]) on each class
    representative a, and found among the rows by its values."""
    Agrp = A.as_group()[0]
    table = character_table(Agrp)
    rows = [row.values for row in table.rows]
    return {c: tuple(rows.index(tuple(row(conj_map[cls[0]]) for cls in Agrp.conjugacy_classes()))
                     for row in table.rows)
            for c, conj_map in G.conjugation_action(A).maps.items()}


def test_irr_permutations_match_the_pullback_reference(pairs):
    """On every catalog pair, S5 over A5 and S4xS3 over S4, each also with
    its elements relabelled, the permutations read off the codes are the
    pullback reference's."""
    s5_gens = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
    S5 = group_from_generators(5, s5_gens, name="S5")
    A5 = S5.subgroup([plain_index(5, s5_gens)[p] for p in ((1, 2, 0, 3, 4), (0, 1, 3, 4, 2))])
    S4xS3 = group_from_generators(7, direct_product(S4_GENS, 4, S3_GENS, 3), name="S4xS3")
    S4 = S4xS3.subgroup(S4xS3.generators[:2])
    rng = random.Random(33)
    for name, G, A in list(pairs) + [("S5/A5", S5, A5), ("S4xS3/S4", S4xS3, S4)]:
        H, pi = relabel(G, rng)
        B = H.subgroup_from_members(pi[a] for a in A.members)
        for K, C in ((G, A), (H, B)):
            assert irr_permutations(K, C) == _reference_irr_permutations(K, C), name


def test_orbit_decomposition_takes_each_multiplicity_once(monkeypatch):
    """<Res_A chi, rho> is one column over the 5 rows of Irr(S4) per orbit of
    S4 on Irr(V4), shared by the lying-over sets and the extension bit, and
    cached on G: 2 x 5 = 10 inner products, one dot each, then none on a
    repeat."""
    calls = _counting(monkeypatch, orbits, "dot")
    G, V4 = build_catalog_group("S4")
    recs = orbit_decomposition(G, V4)
    assert len(calls) == 10
    del calls[:]
    assert [r.lying_over for r in orbit_decomposition(G, V4)] == [r.lying_over for r in recs]
    assert len(calls) == 0


def test_multiplicities_are_ints_and_reject_non_integers(monkeypatch):
    """Each <Res_A chi, rho> is stored as an int; a value that is not a
    nonnegative integer, or a column that breaks Frobenius reciprocity,
    raises AssertionError."""
    G, V4 = build_catalog_group("S4")
    column = multiplicities(G, V4, 1)
    assert all(type(e) is int for e in column) and sum(column) > 0
    for value, message in [(Cyclotomic.from_rational(1, Fraction(1, 2)), "nonnegative integer"),
                           (Cyclotomic(4, {1: 1}), "nonnegative integer"),
                           (Cyclotomic.from_rational(1, -1), "nonnegative integer"),
                           (Cyclotomic.from_rational(1, 1), "Frobenius reciprocity")]:
        G, V4 = build_catalog_group("S4")
        monkeypatch.setattr(orbits, "dot", lambda *args, value=value, **kwargs: value)
        with pytest.raises(AssertionError, match=message):
            multiplicities(G, V4, 0)


@pytest.mark.parametrize("name", ["S4/A4", "Q8/Z4", "D8/center"])
def test_obstruction_cocycle_evaluates_det_once_per_class(name, pairs, monkeypatch):
    """det o rho is a class function, read once per class of A off rho's
    row of A's determinant table: no obstruction calls
    determinant_character_value, which looks a row up by its values."""
    _, G, A = next(p for p in pairs if p[0] == name)
    calls = []
    per_cocycle = []
    original_det = characters.determinant_character_value
    original_cocycle = repmatrices.obstruction_cocycle

    def counting_det(chi, g):
        calls.append((chi, g))
        return original_det(chi, g)

    def counting_cocycle(*args, **kwargs):
        before = len(calls)
        record = original_cocycle(*args, **kwargs)
        per_cocycle.append(len(calls) - before)
        return record

    monkeypatch.setattr(characters, "determinant_character_value", counting_det)
    monkeypatch.setattr(repmatrices, "determinant_character_value", counting_det, raising=False)
    monkeypatch.setattr(orbits, "obstruction_cocycle", counting_cocycle)
    recs = orbit_decomposition(G, A)
    assert per_cocycle == [0] * len(recs) and recs
    # the wrapper sees a direct call, as it would the old per-class route's
    table_a = character_table(A.as_group()[0])
    characters.determinant_character_value(table_a.rows[-1], 0)
    assert len(calls) == 1


def test_k_report_d8(d8):
    G, A = d8
    rep = k_decomposition_report(G, A)
    assert rep.consistent
    assert rep.total_irr_g == 5
    assert sorted(r.twisted_count for r in rep.records) == [1, 2, 2]


def test_k_report_q8_center(q8):
    G, Z = q8
    rep = k_decomposition_report(G, Z)
    assert rep.consistent
    assert rep.total_irr_g == 5
    assert sorted(r.twisted_count for r in rep.records) == [1, 4]
    nontrivial = [r for r in rep.records if not r.obstruction.trivial]
    assert len(nontrivial) == 1
    assert nontrivial[0].omega_regular == 1


def test_k_report_catalog_consistent(pairs):
    for name, G, A in pairs:
        rep = k_decomposition_report(G, A)
        assert rep.consistent, (name, rep.discrepancies)
        assert rep.total_irr_g == rep.sum_of_counts, name


def test_relabeling_invariance_d8(d8):
    """An automorphism fixing A setwise permutes orbits but preserves the
    multiset of (orbit size, quotient order, twisted count)."""
    G, A = d8
    autos = [phi for phi in brute_automorphisms(G)
             if all(phi[a] in A for a in A.members)]
    assert len(autos) > 1
    base = sorted((len(r.orbit), r.obstruction.quotient.order, r.twisted_count)
                  for r in orbit_decomposition(G, A))
    from isotypic.groups import FiniteGroup
    for phi in autos:
        inv = [0] * G.order
        for x, y in enumerate(phi):
            inv[y] = x
        table = [[phi[G.mul(inv[i], inv[j])] for j in G.elements()] for i in G.elements()]
        G2 = FiniteGroup(table, name="D8relabeled")
        A2 = G2.subgroup_from_members([phi[a] for a in A.members])
        other = sorted((len(r.orbit), r.obstruction.quotient.order, r.twisted_count)
                       for r in orbit_decomposition(G2, A2))
        assert other == base


def test_report_json(d8):
    G, A = d8
    rep = k_decomposition_report(G, A)
    data = rep.to_jsonable()
    assert data["consistent"] is True
    assert data["identity"] == "5 = 2 + 2 + 1"
    assert len(data["orbits"]) == 3


# -- the conjugation action, under relabelling -------------------------------------

import random  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from isotypic.bordism import rank_profile  # noqa: E402
from isotypic.catalog import catalog_entry, catalog_pairs  # noqa: E402
from isotypic.orbits import irr_orbits  # noqa: E402

from conftest import relabelled_generators, relabelled_group  # noqa: E402

_PAIRS = {name: (G, A) for name, G, A in catalog_pairs()}


def _is_even_permutation(p):
    """Parity by counting inversions."""
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


def test_s4_over_a4_pair_is_the_even_permutations():
    """catalog_pairs takes S4's one subgroup of order 12: A has index 2 and is
    the even permutations, the member set acceptance criteria 3 and 4 have
    always swept."""
    G, A = _PAIRS["S4/A4"]
    assert G.order == 2 * A.order
    perms = list(plain_index(4, catalog_entry("S4").generators))
    assert A.members == tuple(g for g, p in enumerate(perms) if _is_even_permutation(p))
    assert A.members == (0, 3, 4, 5, 8, 12, 15, 16, 17, 19, 20, 21)


class _RecordingRandom(random.Random):
    """A Random that keeps every list it shuffled, in order."""

    def shuffle(self, x):
        super().shuffle(x)
        self.shuffled = getattr(self, "shuffled", []) + [list(x)]


def _relabelled_pair(name, seed):
    """The catalog pair relabelled as relabelled_group does, with the image of A.

    relabelled_generators moves the points by the first list its rng shuffles,
    sigma, so p becomes sigma p sigma^-1; the lookup in the new group's
    plain_index raises unless every element of G lands in it, which checks
    that reading.
    """
    G, A = _PAIRS[name]
    entry = catalog_entry(name.split("/")[0])
    rng = _RecordingRandom(seed)
    new = relabelled_generators(entry.degree, entry.generators, rng)[0]
    H = group_from_generators(entry.degree, new, name=name)
    sigma = rng.shuffled[0]
    inv = [sigma.index(i) for i in range(entry.degree)]
    perms = list(plain_index(entry.degree, entry.generators))
    index = plain_index(entry.degree, new)

    def image(g):
        p = perms[g]
        return index[tuple(sigma[p[inv[i]]] for i in range(entry.degree))]

    assert sorted(image(g) for g in G.elements()) == list(H.elements())
    return H, H.subgroup_from_members(image(a) for a in A.members)


def _cycle_types(profile):
    """The multiset of cycle types, each the sorted (length, dim) of its cycles."""
    types = []
    for perm in profile.perms:
        seen, cycles = set(), []
        for i in range(len(perm)):
            length, j = 0, i
            while j not in seen:
                seen.add(j)
                j = perm[j]
                length += 1
            if length:
                cycles.append((length, profile.dims[i]))
        types.append(tuple(sorted(cycles)))
    return sorted(types)


@settings(max_examples=30)
@given(st.sampled_from(sorted(_PAIRS)), st.integers(0, 2 ** 32))
def test_conjugation_action_under_relabelling(name, seed):
    G, A = _relabelled_pair(name, seed)
    Agrp, _ = A.as_group()
    coset_of, _, maps = G.conjugation_action(A)
    # every g in N_G(A), not only the coset minima, acts on A's classes by its
    # coset's map
    for g in G.elements():
        if tuple(sorted(conj(G, g, a) for a in A.members)) != A.members:
            assert coset_of[g] not in maps
            continue
        for a in A.members:
            x = G.mul(G.mul(G.inv(g), a), g)
            assert (Agrp.class_index(maps[coset_of[g]][A.retract(a)])
                    == Agrp.class_index(A.retract(x)))
    # normality and normalizers against the conjugate scan, on every subgroup
    for H in G.all_subgroups():
        fixing = [g for g in G.elements()
                  if tuple(sorted(conj(G, g, h) for h in H.members)) == H.members]
        assert G.normalizer(H).members == tuple(fixing)
        assert G.is_normal(H) is (len(fixing) == G.order)
    # orbit sizes, stabilizer orders and the Weyl action's cycle types do not
    # depend on the labels
    G0, A0 = _PAIRS[name]

    def shape(G, A):
        return sorted((len(o.orbit), o.stabilizer.order) for o in irr_orbits(G, A))

    assert shape(G, A) == shape(G0, A0)
    prof, prof0 = rank_profile(G, A), rank_profile(G0, A0)
    assert sorted(prof.dims) == sorted(prof0.dims)
    assert _cycle_types(prof) == _cycle_types(prof0)

    # nor do each orbit's extension bit and the multiset of (chi(1), e_chi)
    # over its multiplicity column
    def extension_bits(G, A):
        return sorted((len(o.orbit), extension_exists(G, A, o.representative))
                      for o in irr_orbits(G, A))

    def columns(G, A):
        degrees = character_table(G).degrees
        return sorted(sorted(zip(degrees, multiplicities(G, A, o.representative)))
                      for o in irr_orbits(G, A))

    assert extension_bits(G, A) == extension_bits(G0, A0)
    assert columns(G, A) == columns(G0, A0)


@pytest.mark.parametrize("fault", ["non-integer", "dropped"])
def test_multiplicities_check_every_value(fault, monkeypatch):
    """The column is checked, never truncated: with every inner product off by
    1/2, or with one chi over rho read as 0, multiplicities raises."""
    original = orbits.dot
    dropped = []

    def faulty(*args, **kwargs):
        value = original(*args, **kwargs)
        if fault == "non-integer":
            return value + Fraction(1, 2)
        if value.rational() and not dropped:
            dropped.append(value)
            return value * 0
        return value

    monkeypatch.setattr(orbits, "dot", faulty)
    G, V4 = build_catalog_group("S4")
    for rho in range(4):
        with pytest.raises(AssertionError):
            multiplicities(G, V4, rho)
        del dropped[:]


# -- the extension criterion on Irr(G) ----------------------------------------------

from isotypic.characters import restrict  # noqa: E402
from isotypic.repmatrices import obstruction_cocycle, stabilizer_of_character  # noqa: E402

from conftest import S3_GENS, S4_GENS, benchmark_pool, direct_product  # noqa: E402


def _reference_extension_exists(G_rho, A, rho):
    """The criterion read off G_rho's own character table, kept as the oracle.

    True iff some irreducible character of G_rho has the same degree as rho
    and restricts to it exactly.
    """
    G = G_rho.parent
    Agrp, _ = A.as_group()
    table_a = character_table(Agrp)
    chi_rho = table_a.rows[rho]
    assert set(G_rho.members) <= set(stabilizer_of_character(G, A, chi_rho).members)
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


def _extension_cases():
    """(label, G, A): every catalog pair, S3xS3 over its first factor and a
    relabelled S4xZ2 over V4, and each of these groups over its center, itself
    and the trivial group."""
    cases, groups = [], {}
    for name, G, A in catalog_pairs():
        cases.append((name, G, A))
        groups.setdefault(name.split("/")[0], G)
    gens = direct_product(S3_GENS, 3, S3_GENS, 3)
    S3xS3 = group_from_generators(6, gens, name="S3xS3")
    cases.append(("S3xS3/S3", S3xS3, S3xS3.subgroup(S3xS3.generators[:2])))
    S4xZ2 = relabelled_group("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2),
                             random.Random(9))
    cases.append(("S4xZ2/V4", S4xZ2, next(H for H in S4xZ2.all_subgroups()
                                          if H.order == 4 and S4xZ2.is_normal(H))))
    groups.update(S3xS3=S3xS3, S4xZ2=S4xZ2)
    for name, G in groups.items():
        cases += [(name + "/center", G, G.center()), (name + "/full", G, G.full_subgroup()),
                  (name + "/trivial", G, G.trivial_subgroup())]
    return cases


def test_extension_criterion_matches_the_stabilizer_table():
    """Deciding extension on Irr(G) by the Clifford correspondence gives the
    answer G_rho's own character table gives, on every orbit."""
    outcomes = {}
    for label, G, A in _extension_cases():
        assert G.is_normal(A), label
        for orbit in irr_orbits(G, A):
            got = extension_exists(G, A, orbit.representative)
            assert got == _reference_extension_exists(
                orbit.stabilizer, A, orbit.representative), (label, orbit.representative)
            outcomes.setdefault(label, []).append(got)
    assert {got for results in outcomes.values() for got in results} == {True, False}
    assert sorted(outcomes["Q8"]) == sorted(outcomes["Q8/center"]) == [False, True]


def _pool_pair(spec):
    """G and its normal subgroup A from a benchmark pool GroupSpec."""
    G = group_from_generators(spec.degree, list(spec.gens) + list(spec.normal_gens),
                              name=spec.name)
    return G, G.subgroup(G.generators[len(spec.gens):])


def test_extension_contract_holds_on_every_row():
    """extension_exists(G, A, rho) answers for every row of A's table, the
    rows G moves included: it equals the oracle on irr_stabilizer(G, A, rho)
    for every catalog and benchmark pool pair, and on the catalog pairs
    obstruction_cocycle works on that same stabilizer."""
    cases = [(name, G, A, True) for name, G, A in catalog_pairs()]
    cases += [(name, *_pool_pair(spec), False) for name, spec in benchmark_pool().items()]
    moved = 0
    for name, G, A, catalog in cases:
        for rho in range(len(character_table(A.as_group()[0]))):
            stabilizer = irr_stabilizer(G, A, rho)
            moved += stabilizer.order < G.order
            assert extension_exists(G, A, rho) == _reference_extension_exists(
                stabilizer, A, rho), (name, rho)
            if catalog:
                assert obstruction_cocycle(G, A, rho).stabilizer.members == \
                    stabilizer.members, (name, rho)
    assert moved


def test_extension_exists_decides_on_the_whole_stabilizer(q8):
    """Both characters of the center Z of Q8 are fixed by all of Q8.  The
    sign character extends to a cyclic subgroup of order 4 but not to Q8,
    and extension_exists answers for Q8; over one factor X of V4 every
    character extends to V4."""
    G, Z = q8
    i4 = G.subgroup([next(g for g in G.elements() if G.element_order(g) == 4)])
    table_z = character_table(Z.as_group()[0])
    for rho in range(2):
        assert stabilizer_of_character(G, Z, table_z.rows[rho]).order == 8
    sign = next(i for i, row in enumerate(table_z.rows) if row.values[1].rational() == -1)
    assert _reference_extension_exists(i4, Z, sign)
    assert not extension_exists(G, Z, sign)
    V4, X = build_catalog_group("V4")
    for rho in range(2):
        assert extension_exists(V4, X, rho)


def test_extension_exists_rejects_a_non_normal_subgroup():
    G = group_from_generators(3, S3_GENS, name="S3")
    H = G.subgroup([G.generators[1]])
    for rho in range(2):
        with pytest.raises(NotNormal):
            extension_exists(G, H, rho)


def test_orbit_decomposition_builds_one_stabilizer_per_orbit(monkeypatch):
    """irr_orbits reads each stabilizer off its coset images, and so does
    obstruction_cocycle, which builds a second one per orbit; each record
    holds its obstruction's.  Over the two orbits of S4 on Irr(V4) no
    stabilizer_of_character or minimal_generators call is made, and no
    character table but those of G and A is built."""
    calls, tables = {"stab": 0, "gens": 0}, set()
    original_stab = repmatrices.stabilizer_of_character
    original_gens = groups.minimal_generators
    original_table = orbits.character_table

    def counting_stab(*args):
        calls["stab"] += 1
        return original_stab(*args)

    def counting_gens(*args):
        calls["gens"] += 1
        return original_gens(*args)

    def recording_table(H):
        tables.add(H)
        return original_table(H)

    monkeypatch.setattr(repmatrices, "stabilizer_of_character", counting_stab)
    monkeypatch.setattr(orbits, "stabilizer_of_character", counting_stab, raising=False)
    monkeypatch.setattr(groups, "minimal_generators", counting_gens)
    monkeypatch.setattr(repmatrices, "character_table", recording_table)
    monkeypatch.setattr(orbits, "character_table", recording_table)
    G, V4 = build_catalog_group("S4")
    recs = orbit_decomposition(G, V4)
    assert len(recs) == 2
    assert calls == {"stab": 0, "gens": 0}
    assert tables == {G, V4.as_group()[0]}
    for rec in recs:
        assert rec.stabilizer is rec.obstruction.stabilizer
