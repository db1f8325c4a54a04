import random

import pytest

from isotypic import groups
from isotypic.catalog import CATALOG, build_catalog_group
from isotypic.errors import CapExceeded, ClosureOverflow, InvalidPermutation, NotNormal
from isotypic.groups import FiniteGroup, _check_axioms, group_from_generators

from conftest import (S3_GENS, S4_GENS, all_catalog_groups, brute_conjugacy_classes,
                      dihedral, direct_product, relabelled_group)


def test_cyclic_four_from_single_cycle():
    G = group_from_generators(4, [[1, 2, 3, 0]], name="Z4")
    assert G.order == 4
    assert all(G.mul(0, g) == g == G.mul(g, 0) for g in G.elements())
    assert len(G.conjugacy_classes()) == 4
    assert G.exponent == 4
    assert G.is_abelian


def test_d8_from_generators():
    G = group_from_generators(4, [[1, 2, 3, 0], [0, 3, 2, 1]])
    assert G.order == 8
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]


def test_d2p_order_and_presentation():
    for p in (3, 5, 7):
        G = dihedral(p)
        assert G.order == 2 * p
        a = G.perm_index(tuple((i + 1) % p for i in range(p)))
        b = G.perm_index(tuple((p - i) % p for i in range(p)))
        assert G.element_order(a) == p and G.element_order(b) == 2
        # b a b = a^-1
        assert G.mul(G.mul(b, a), b) == G.inv(a)


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutation):
        group_from_generators(3, [[0, 0, 1]])


def test_closure_overflow():
    with pytest.raises(ClosureOverflow):
        group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], cap=30)


def test_conjugacy_classes_match_bruteforce():
    for gens, degree in [([[1, 2, 3, 0], [0, 3, 2, 1]], 4),
                         ([[1, 2, 0], [1, 0, 2]], 3),
                         ([[1, 2, 3, 0], [1, 0, 2, 3]], 4)]:
        G = group_from_generators(degree, gens)
        table = [[G.mul(a, b) for b in G.elements()] for a in G.elements()]
        assert G.conjugacy_classes() == brute_conjugacy_classes(table)
        assert G.conjugacy_classes()[0] == (0,)
        assert sum(len(c) for c in G.conjugacy_classes()) == G.order
        for c in G.conjugacy_classes():
            assert G.order % len(c) == 0


def test_s3_classes():
    G = group_from_generators(3, [[1, 2, 0], [1, 0, 2]], name="S3")
    assert sorted(len(c) for c in G.conjugacy_classes()) == [1, 2, 3]


def test_exponent_divides_order_and_kills_elements():
    for gens, degree in [([[1, 2, 3, 0], [0, 3, 2, 1]], 4),
                         ([[1, 2, 0], [1, 0, 2]], 3),
                         ([[1, 2, 3, 4, 0]], 5)]:
        G = group_from_generators(degree, gens)
        assert G.order % G.exponent == 0
        for g in G.elements():
            x = 0
            for _ in range(G.exponent):
                x = G.mul(x, g)
            assert x == 0


def test_normalizer_index_two_subgroup(d8):
    G, A = d8
    N = G.normalizer(A)
    assert N.members == tuple(G.elements())


def test_normalizer_reflection_in_d2p():
    for p in (3, 5, 7):
        G = dihedral(p)
        b = G.perm_index(tuple((p - i) % p for i in range(p)))
        H = G.subgroup([b])
        N = G.normalizer(H)
        assert N.members == H.members  # self-normalizing
        assert set(H.members) <= set(N.members)


def test_normalizer_transposition_in_s4():
    G = group_from_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]], name="S4")
    assert G.order == 24
    t = G.perm_index((1, 0, 2, 3))
    N = G.normalizer(G.subgroup([t]))
    # brute force: elements commuting with the set {e, t} under conjugation
    expected = [n for n in G.elements() if G.conj(n, t) in (0, t)]
    assert list(N.members) == sorted(expected)
    assert N.order == 4


def test_normalizer_contains_and_normalizes():
    G = group_from_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    for gen in range(G.order):
        H = G.subgroup([gen])
        N = G.normalizer(H)
        assert set(H.members) <= set(N.members)
        mem = set(H.members)
        for n in N.members:
            assert all(G.conj(n, h) in mem for h in H.members)


def test_quotient_d8_by_rotation(d8):
    G, A = d8
    Q = G.quotient(A)
    assert Q.order == 2
    assert Q.group.element_order(1) == 2


def test_quotient_by_self_is_trivial(d8):
    G, _ = d8
    Q = G.quotient(G.full_subgroup())
    assert Q.order == 1


def test_quotient_q8_by_center_is_klein(q8):
    G, Z = q8
    assert Z.order == 2
    Q = G.quotient(Z)
    assert Q.order == 4
    # Klein four group: abelian with every nonidentity element of order 2
    assert Q.group.is_abelian
    assert all(Q.group.element_order(x) == 2 for x in range(1, 4))


def test_quotient_projection_is_homomorphism():
    for gens, degree in [([[1, 2, 3, 0], [0, 3, 2, 1]], 4),
                         ([[1, 2, 0], [1, 0, 2]], 3)]:
        G = group_from_generators(degree, gens)
        for H in G.all_subgroups():
            if not G.is_normal(H):
                continue
            Q = G.quotient(H)
            for g in G.elements():
                for h in G.elements():
                    assert (Q.projection[G.mul(g, h)]
                            == Q.group.mul(Q.projection[g], Q.projection[h]))
            for q in range(Q.order):
                assert Q.projection[Q.section[q]] == q
            kernel = [g for g in G.elements() if Q.projection[g] == 0]
            assert tuple(kernel) == H.members


def test_is_normal_is_cached_per_member_set(monkeypatch):
    G = group_from_generators(4, S4_GENS, name="S4")
    for H in G.all_subgroups():
        # brute force: H is normal iff every conjugate of H is H
        normal = all(tuple(sorted(G.conj(g, h) for h in H.members)) == H.members
                     for g in G.elements())
        assert G.is_normal(H) is normal
        assert G.is_normal(H) is normal
    # one scan of G per member set, whichever Subgroup object asks
    G = group_from_generators(4, S4_GENS, name="S4")
    scans = []
    elements = G.elements

    def counting_elements():
        scans.append(1)
        return elements()

    monkeypatch.setattr(G, "elements", counting_elements)
    V4 = G.subgroup([G.perm_index((1, 0, 3, 2)), G.perm_index((2, 3, 0, 1))])
    same = G.subgroup_from_members(V4.members)
    assert same is not V4
    assert G.is_normal(V4) and G.is_normal(same) and G.is_normal(V4)
    assert len(scans) == 1
    H = G.subgroup([G.perm_index((1, 0, 2, 3))])
    assert not G.is_normal(H) and not G.is_normal(G.subgroup_from_members(H.members))
    assert len(scans) == 2


def test_quotient_requires_normal():
    G = group_from_generators(3, [[1, 2, 0], [1, 0, 2]])
    H = G.subgroup([G.perm_index((1, 0, 2))])
    with pytest.raises(NotNormal):
        G.quotient(H)


def test_direct_table_constructor_checks():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # element 0 not the identity
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0]])  # ragged
    # a Latin square with identity 0 in which every element squares to 0: a
    # loop of order 5 that is no group, since a group of order 5 is cyclic
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(loop5)


def test_subgroup_membership_and_index():
    G = dihedral(5)
    A = G.subgroup([G.perm_index(tuple((i + 1) % 5 for i in range(5)))])
    assert A.order == 5
    assert G.order % A.order == 0
    mem = set(A.members)
    for a in A.members:
        for b in A.members:
            assert G.mul(a, b) in mem
        assert G.inv(a) in mem
    assert 0 in mem


def test_all_subgroups_s4_count():
    G = group_from_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]], name="S4")
    subs = G.all_subgroups()
    assert len(subs) == 30
    classes = G.subgroup_conjugacy_classes()
    assert len(classes) == 11


def test_all_subgroups_d2p_shape():
    for p in (3, 5):
        G = dihedral(p)
        subs = G.all_subgroups()
        assert len(subs) == p + 3
        orders = sorted(s.order for s in subs)
        assert orders == [1] + [2] * p + [p, 2 * p]


def _check_left_cosets(G, H):
    coset_of, reps, _ = G.conjugation_action(H)
    blocks = {}
    for g in G.elements():
        blocks.setdefault(coset_of[g], []).append(g)
    assert sorted(blocks) == list(range(len(reps)))
    assert all(len(b) == H.order for b in blocks.values())
    assert tuple(blocks[0]) == H.members
    for i, r in enumerate(reps):
        assert r == min(blocks[i])
        assert sorted(G.mul(r, h) for h in H.members) == blocks[i]
    assert all(a < b for a, b in zip(reps, reps[1:]))


def test_left_cosets_catalog_groups():
    for name in sorted(CATALOG):
        G, A = build_catalog_group(name)
        for H in (G.trivial_subgroup(), G.full_subgroup(), G.center(), A):
            if H is not None:
                _check_left_cosets(G, H)


def test_left_cosets_every_subgroup_of_s4():
    G = group_from_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]], name="S4")
    for H in G.all_subgroups():
        _check_left_cosets(G, H)


def test_left_cosets_relabelled_shuffled_generators():
    rng = random.Random(7)
    sigma = list(range(5))
    rng.shuffle(sigma)
    inv = [sigma.index(i) for i in range(5)]

    def relabel(p):
        return [sigma[p[inv[i]]] for i in range(5)]

    gens = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4], [2, 1, 0, 3, 4]]
    rng.shuffle(gens)
    G = group_from_generators(5, [relabel(p) for p in gens], name="S5'")
    assert G.order == 120
    for H in rng.sample(G.all_subgroups(), 40):
        _check_left_cosets(G, H)


# -- the subgroup lattice against the plain enumeration ------------------------


def _plain_closure(G, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


def _plain_all_subgroups(G):
    """The plain enumeration: close every cyclic subgroup, then extend every
    subgroup found by every element outside it, one closure each."""
    found = {(0,): ()}
    frontier = [(0,)]
    for g in G.elements():
        mem = _plain_closure(G, (g,))
        if mem not in found:
            found[mem] = (g,)
            frontier.append(mem)
    while frontier:
        mem = frontier.pop()
        gens = found[mem]
        inside = set(mem)
        for g in G.elements():
            if g not in inside:
                bigger = _plain_closure(G, gens + (g,))
                if bigger not in found:
                    found[bigger] = gens + (g,)
                    frontier.append(bigger)
    subs = [G.subgroup_from_members(mem) for mem in found]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def _plain_subgroup_classes(G, subs):
    """Member sets of each conjugacy class of subgroups, by conjugating
    every subgroup by every element."""
    seen = set()
    classes = []
    for s in subs:
        if s.members not in seen:
            cls = sorted({tuple(sorted(G.conj(g, h) for h in s.members))
                          for g in G.elements()})
            seen.update(cls)
            classes.append(cls)
    return sorted(classes)


PRODUCTS = {
    "S3xS3": (6, direct_product(S3_GENS, 3, S3_GENS, 3)),
    "S4xZ2": (6, direct_product(S4_GENS, 4, [[1, 0]], 2)),
    "S5": (5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4], [2, 1, 0, 3, 4]]),
    "S4xS3": (7, direct_product(S4_GENS, 4, S3_GENS, 3)),
}


def _check_against_plain(G):
    subs = G.all_subgroups()
    plain = _plain_all_subgroups(G)
    assert [s.members for s in subs] == [s.members for s in plain], G.name
    classes = G.subgroup_conjugacy_classes()
    assert sorted([s.members for s in c] for c in classes) == \
        _plain_subgroup_classes(G, plain), G.name
    return len(subs), len(classes)


def test_all_subgroups_matches_plain_enumeration_catalog():
    for G in all_catalog_groups():
        _check_against_plain(G)


@pytest.mark.parametrize("name, counts", [
    ("S3xS3", (60, 22)), ("S4xZ2", (98, 33)), ("S5", (156, 19)), ("S4xS3", (372, 70))])
def test_all_subgroups_matches_plain_enumerationrelabelled_group(name, counts):
    degree, gens = PRODUCTS[name]
    G = relabelled_group(name, degree, gens, random.Random(name))
    assert _check_against_plain(G) == counts


def _elementary_abelian(p, rank):
    cycle = [[(i + 1) % p for i in range(p)]]
    gens, degree = cycle, p
    for _ in range(rank - 1):
        gens, degree = direct_product(gens, degree, cycle, p), degree + p
    return group_from_generators(degree, gens, name="Z%d^%d" % (p, rank))


def _subgroup_counts_by_order(G):
    orders = [s.order for s in G.all_subgroups()]
    return tuple(orders.count(d) for d in sorted(set(orders)))


def test_subgroup_counts_by_order():
    # the subspaces of F_p^n of each dimension: the Gaussian binomials
    assert _subgroup_counts_by_order(_elementary_abelian(2, 6)) == \
        (1, 63, 651, 1395, 651, 63, 1)
    assert _subgroup_counts_by_order(_elementary_abelian(3, 3)) == (1, 13, 13, 1)
    D8 = [[1, 2, 3, 0], [3, 2, 1, 0]]
    G = group_from_generators(10, direct_product(direct_product(D8, 4, D8, 4), 8, [[1, 0]], 2),
                              name="D8xD8xZ2")
    assert G.order == 128
    assert len(G.subgroup_conjugacy_classes()) == 1268
    assert len(G.all_subgroups()) == 2428


def test_one_enumeration_serves_classes_and_lattice(monkeypatch):
    """The classes are found by extending class representatives only, at most
    one _extend per right coset of each, and all_subgroups reads them."""
    calls = []
    extend = groups._extend

    def counting_extend(rows, members, generators):
        calls.append(len(members))
        return extend(rows, members, generators)

    monkeypatch.setattr(groups, "_extend", counting_extend)
    S3xS3 = relabelled_group("S3xS3", *PRODUCTS["S3xS3"], random.Random(3))
    for G in [group_from_generators(4, S4_GENS, name="S4"), S3xS3, _elementary_abelian(2, 4)]:
        calls.clear()
        classes = G.subgroup_conjugacy_classes()
        made = len(calls)
        assert made <= sum(G.order // c[0].order for c in classes), G.name
        subs = G.all_subgroups()
        assert len(calls) == made, G.name
        assert [s.members for s in subs] == \
            sorted((s.members for c in classes for s in c), key=lambda m: (len(m), m))


def test_subgroup_lattice_cache_returns_fresh_lists():
    G = group_from_generators(4, S4_GENS, name="S4")
    subs = G.all_subgroups()
    members = [s.members for s in subs]
    subs.clear()
    assert [s.members for s in G.all_subgroups()] == members
    classes = G.subgroup_conjugacy_classes()
    partition = [[s.members for s in c] for c in classes]
    classes[0].append(classes[-1][0])
    classes.pop()
    assert [[s.members for s in c] for c in G.subgroup_conjugacy_classes()] == partition
    assert [s.members for s in G.all_subgroups()] == members


def test_all_subgroups_cap_raises_and_is_not_cached(monkeypatch):
    # S4 has 30 subgroups: the last one found is found with 29 already known;
    # a lattice that exceeded the cap is not cached
    G = group_from_generators(4, S4_GENS, name="S4")
    for cap in (28, 3):
        monkeypatch.setattr(groups, "SUBGROUP_CAP", cap)
        with pytest.raises(CapExceeded):
            G.all_subgroups()
    monkeypatch.setattr(groups, "SUBGROUP_CAP", 29)
    assert len(G.all_subgroups()) == 30


def _class_profile(G):
    # classes of equal order are listed by member indices, which a relabelling
    # permutes, so the profile is compared as a sorted list
    return sorted((c[0].order, len(c)) for c in G.subgroup_conjugacy_classes())


def test_subgroup_class_profile_invariant_under_relabelling():
    rng = random.Random(11)
    for name, (degree, gens) in [("S4", (4, S4_GENS)), ("S3xS3", PRODUCTS["S3xS3"])]:
        profile = _class_profile(group_from_generators(degree, gens))
        for _ in range(3):
            assert _class_profile(relabelled_group(name, degree, gens, rng)) == profile


def test_subgroup_tables_are_group_tables():
    """as_group builds its table without the axiom check; every such table
    must still pass it."""
    S4xZ2 = relabelled_group("S4xZ2", *PRODUCTS["S4xZ2"], random.Random(5))
    for G in all_catalog_groups() + [S4xZ2]:
        for H in G.all_subgroups():
            Hgrp, embed = H.as_group()
            assert embed == H.members
            _check_axioms(Hgrp._rows)


def test_closure_and_quotient_tables_are_group_tables():
    """group_from_generators and quotient build their tables without the
    axiom check; the table of every catalog group, of a relabelled S4xZ2 and
    of S3xS3, and of each of their quotients by a normal subgroup must still
    pass it."""
    S4xZ2 = relabelled_group("S4xZ2", *PRODUCTS["S4xZ2"], random.Random(5))
    S3xS3 = group_from_generators(*PRODUCTS["S3xS3"], name="S3xS3")
    for G in all_catalog_groups() + [S4xZ2, S3xS3]:
        _check_axioms(G._rows)
        for A in G.all_subgroups():
            if G.is_normal(A):
                _check_axioms(G.quotient(A).group._rows)


def test_group_table_equals_all_pairs_composition():
    """group_from_generators fills its table along breadth-first words; the
    table must equal the one that composes every pair of permutations, on
    every catalog group and on relabelled S3xS3, S4xZ2, S5 and S4xS3."""
    rng = random.Random(7)
    relabelled = [relabelled_group(name, *PRODUCTS[name], rng) for name in PRODUCTS]
    for G in all_catalog_groups() + relabelled:
        perms = [G.permutation_of(g) for g in G.elements()]
        index = {p: i for i, p in enumerate(perms)}
        assert perms[0] == tuple(range(len(perms[0]))), G.name
        reference = [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]
        assert G._rows == reference, G.name
