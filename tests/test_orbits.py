import pytest

from isotypic import orbits, repmatrices
from isotypic.catalog import build_catalog_group
from isotypic.characters import character_table
from isotypic.cyclotomic import Cyclotomic
from isotypic.errors import InvalidCocycle, NotNormal, NotStabilized
from isotypic.groups import group_from_generators
from isotypic.orbits import (extension_exists, irr_action,
                             k_decomposition_report, omega_regular_count,
                             orbit_decomposition)

from conftest import brute_automorphisms, dihedral


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
    b = G.perm_index((0, 3, 2, 1))
    assert irr_action(G, A, b, idx[1]) == idx[3]
    assert irr_action(G, A, b, idx[3]) == idx[1]
    assert irr_action(G, A, b, idx[0]) == idx[0]
    assert irr_action(G, A, b, idx[2]) == idx[2]


def test_d2p_reflection_inverts_characters():
    # b sends the character a -> zeta^l to a -> zeta^(p-l)
    for p in (3, 5, 7):
        G = dihedral(p)
        a = G.perm_index(tuple((i + 1) % p for i in range(p)))
        b = G.perm_index(tuple((p - i) % p for i in range(p)))
        A = G.subgroup([a], name="Zp")
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


def test_orbit_decomposition_d8(d8):
    G, A = d8
    idx = rho_indices_z4((G, A))
    recs = orbit_decomposition(G, A)
    orbits = {rec.orbit for rec in recs}
    assert orbits == {frozenset({idx[0]}), frozenset({idx[2]}),
                      frozenset({idx[1], idx[3]})}


def test_orbit_decomposition_requires_normal():
    G = group_from_generators(3, [[1, 2, 0], [1, 0, 2]], name="S3")
    H = G.subgroup([G.perm_index((1, 0, 2))])
    with pytest.raises(NotNormal):
        orbit_decomposition(G, H)


def test_orbits_with_a_equal_g(d8):
    G, _ = d8
    recs = orbit_decomposition(G, G.full_subgroup())
    assert len(recs) == 5
    for rec in recs:
        assert len(rec.orbit) == 1
        assert rec.quotient.order == 1
        assert rec.twisted_count == 1 == rec.omega_regular


def test_orbits_with_trivial_a(d8):
    G, _ = d8
    recs = orbit_decomposition(G, G.trivial_subgroup())
    assert len(recs) == 1
    rec = recs[0]
    assert rec.twisted_count == 5
    assert rec.omega_regular == 5
    assert rec.quotient.order == 8


def test_d2p_orbit_count():
    for p in (3, 5, 7):
        G = dihedral(p)
        a = G.perm_index(tuple((i + 1) % p for i in range(p)))
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
    assert extension_exists(G.full_subgroup(), A, idx[0])
    assert extension_exists(G.full_subgroup(), A, idx[2])


def test_extension_exists_rejects_moved_character(d8):
    G, A = d8
    idx = rho_indices_z4((G, A))
    with pytest.raises(NotStabilized):
        extension_exists(G.full_subgroup(), A, idx[1])


def test_extension_fails_for_q8_center(q8):
    G, Z = q8
    Zgrp, _ = Z.as_group()
    ta = character_table(Zgrp)
    eps = next(i for i, row in enumerate(ta.rows)
               if row.values[1].rational() == -1)
    assert not extension_exists(G.full_subgroup(), Z, eps)
    triv = next(i for i, row in enumerate(ta.rows)
                if all(v.rational() == 1 for v in row.values))
    assert extension_exists(G.full_subgroup(), Z, triv)


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


def test_orbit_decomposition_acts_once_per_coset_of_a(monkeypatch):
    """A acts trivially on Irr(A), so the orbits are found with one element
    per left coset of A: 2 orbits x 6 cosets of V4 in S4, not 2 x 24."""
    calls = []
    original = orbits.irr_action

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(orbits, "irr_action", counting)
    G, V4 = build_catalog_group("S4")
    recs = orbit_decomposition(G, V4)
    assert sorted(len(r.orbit) for r in recs) == [1, 3]
    assert len(calls) == 12


@pytest.mark.parametrize("name", ["S4/A4", "Q8/Z4", "D8/center"])
def test_obstruction_cocycle_evaluates_det_once_per_class(name, pairs, monkeypatch):
    """det o rho is a class function, so each obstruction evaluates it once
    per conjugacy class of A."""
    _, G, A = next(p for p in pairs if p[0] == name)
    det_calls = []
    per_cocycle = []
    original_det = repmatrices.determinant_character_value
    original_cocycle = repmatrices.obstruction_cocycle

    def counting_det(*args):
        det_calls.append(args)
        return original_det(*args)

    def counting_cocycle(*args, **kwargs):
        before = len(det_calls)
        record = original_cocycle(*args, **kwargs)
        per_cocycle.append(len(det_calls) - before)
        return record

    monkeypatch.setattr(repmatrices, "determinant_character_value", counting_det)
    monkeypatch.setattr(orbits, "obstruction_cocycle", counting_cocycle)
    recs = orbit_decomposition(G, A)
    classes = len(A.as_group()[0].conjugacy_classes())
    assert per_cocycle == [classes] * len(recs)


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
             if all(phi[a] in A._member_set for a in A.members)]
    assert len(autos) > 1
    base = sorted((len(r.orbit), r.quotient.order, r.twisted_count)
                  for r in orbit_decomposition(G, A))
    from isotypic.groups import FiniteGroup
    for phi in autos:
        inv = [0] * G.order
        for x, y in enumerate(phi):
            inv[y] = x
        table = [[phi[G.mul(inv[i], inv[j])] for j in G.elements()] for i in G.elements()]
        G2 = FiniteGroup(table, name="D8relabeled")
        A2 = G2.subgroup_from_members([phi[a] for a in A.members])
        other = sorted((len(r.orbit), r.quotient.order, r.twisted_count)
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

from conftest import relabelled_group  # noqa: E402

_PAIRS = {name: (G, A) for name, G, A in catalog_pairs()}


class _RecordingRandom(random.Random):
    """A Random that keeps every list it shuffled, in order."""

    def shuffle(self, x):
        super().shuffle(x)
        self.shuffled = getattr(self, "shuffled", []) + [list(x)]


def _relabelled_pair(name, seed):
    """The catalog pair relabelled by relabelled_group, with the image of A.

    relabelled_group moves the points by the first list its rng shuffles,
    sigma, so p becomes sigma p sigma^-1; perm_index raises unless every
    element of G lands in the new group, which checks that reading.
    """
    G, A = _PAIRS[name]
    entry = catalog_entry(name.split("/")[0])
    rng = _RecordingRandom(seed)
    H = relabelled_group(name, entry.degree, entry.generators, rng)
    sigma = rng.shuffled[0]
    inv = [sigma.index(i) for i in range(entry.degree)]

    def image(g):
        p = G.permutation_of(g)
        return H.perm_index([sigma[p[inv[i]]] for i in range(entry.degree)])

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
    coset_of, maps = G.conjugation_action(A)
    # every g in N_G(A), not only the coset minima, acts on A's classes by its
    # coset's map
    for g in G.elements():
        if A.conjugate(g).members != A.members:
            assert coset_of[g] not in maps
            continue
        for a in A.members:
            x = G.mul(G.mul(G.inv(g), a), g)
            assert (Agrp.class_index(maps[coset_of[g]][A.retract(a)])
                    == Agrp.class_index(A.retract(x)))
    # normality and normalizers against the conjugate scan, on every subgroup
    for H in G.all_subgroups():
        fixing = [g for g in G.elements() if H.conjugate(g).members == H.members]
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
