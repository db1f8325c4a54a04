import random
import time
import tracemalloc
from math import lcm

import pytest

from isotypic import groups
from isotypic.catalog import CATALOG, build_catalog_group
from isotypic.errors import CapExceeded, ClosureOverflow, InvalidPermutation, NotNormal
from isotypic.groups import FiniteGroup, _check_axioms, group_from_generators

from conftest import (S3_GENS, S4_GENS, all_catalog_groups, benchmark_pool,
                      brute_conjugacy_classes, conj, dihedral, direct_product, plain_index,
                      plain_permutation_closure, relabelled_generators, relabelled_group)


def test_cyclic_four_from_single_cycle():
    G = group_from_generators(4, [[1, 2, 3, 0]], name="Z4")
    assert G.order == 4
    assert all(G.mul(0, g) == g == G.mul(g, 0) for g in G.elements())
    assert len(G.conjugacy_classes()) == 4
    assert G.exponent == 4
    assert G.is_abelian


def test_inverses_match_a_scan_of_every_row():
    """Each row scan finds two inverses (x y = 1 gives y x = 1); the result
    is the scan of every row for 0, on every catalog and benchmark pool
    group."""
    specs = [(e.degree, e.generators) for e in CATALOG.values()]
    specs += [(spec.degree, spec.gens) for spec in benchmark_pool().values()]
    for degree, gens in specs:
        G = group_from_generators(degree, gens)
        assert G._inv == [row.index(0) for row in G._rows], (degree, gens)


def test_is_abelian_compares_rows_with_columns_at_order_144():
    """Z12xZ12 and S4xS3 (order 144): is_abelian agrees with the transposed
    table, and never holds the whole transpose (n^2 entries) at once."""
    Z12 = [[(i + 1) % 12 for i in range(12)]]
    for degree, gens, abelian in [(24, direct_product(Z12, 12, Z12, 12), True),
                                  (7, direct_product(S4_GENS, 4, S3_GENS, 3), False)]:
        G = group_from_generators(degree, gens)
        assert G.order == 144
        assert (G._rows == [list(col) for col in zip(*G._rows)]) is abelian
        tracemalloc.start()
        try:
            assert G.is_abelian is abelian
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * G.order * G.order // 4, peak


def test_d8_from_generators():
    G = group_from_generators(4, [[1, 2, 3, 0], [0, 3, 2, 1]])
    assert G.order == 8
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 1, 2, 2, 2]


def test_d2p_order_and_presentation():
    for p in (3, 5, 7):
        G = dihedral(p)
        assert G.order == 2 * p
        a, b = G.generators
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
        b = G.generators[1]
        H = G.subgroup([b])
        N = G.normalizer(H)
        assert N.members == H.members  # self-normalizing
        assert set(H.members) <= set(N.members)


def test_normalizer_transposition_in_s4():
    G = group_from_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]], name="S4")
    assert G.order == 24
    t = G.generators[1]
    N = G.normalizer(G.subgroup([t]))
    # brute force: elements commuting with the set {e, t} under conjugation
    expected = [n for n in G.elements() if conj(G, n, t) in (0, t)]
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
            assert all(conj(G, n, h) in mem for h in H.members)


def test_quotient_d8_by_rotation(d8):
    G, A = d8
    Q, _ = G.quotient(A)
    assert Q.order == 2
    assert Q.element_order(1) == 2


def test_quotient_by_self_is_trivial(d8):
    G, _ = d8
    Q, section = G.quotient(G.full_subgroup())
    assert Q.order == 1 and section == (0,)


def test_quotient_q8_by_center_is_klein(q8):
    G, Z = q8
    assert Z.order == 2
    Q, _ = G.quotient(Z)
    assert Q.order == 4
    # Klein four group: abelian with every nonidentity element of order 2
    assert Q.is_abelian
    assert all(Q.element_order(x) == 2 for x in range(1, 4))


def test_quotient_projection_is_homomorphism():
    for gens, degree in [([[1, 2, 3, 0], [0, 3, 2, 1]], 4),
                         ([[1, 2, 0], [1, 0, 2]], 3)]:
        G = group_from_generators(degree, gens)
        for H in G.all_subgroups():
            if not G.is_normal(H):
                continue
            Q, section = G.quotient(H)
            # the quotient map: g -> the element of Q whose lift shares g's coset
            coset_of = G.conjugation_action(H).coset_of
            pos = {coset_of[s]: q for q, s in enumerate(section)}
            projection = [pos[coset_of[g]] for g in G.elements()]
            for g in G.elements():
                for h in G.elements():
                    assert projection[G.mul(g, h)] == Q.mul(projection[g], projection[h])
            for q in range(Q.order):
                assert projection[section[q]] == q
            kernel = [g for g in G.elements() if projection[g] == 0]
            assert tuple(kernel) == H.members


def test_is_normal_is_cached_per_member_set(monkeypatch):
    G = group_from_generators(4, S4_GENS, name="S4")
    for H in G.all_subgroups():
        # brute force: H is normal iff every conjugate of H is H
        normal = all(tuple(sorted(conj(G, g, h) for h in H.members)) == H.members
                     for g in G.elements())
        assert G.is_normal(H) is normal
        assert G.is_normal(H) is normal
    # one scan of G (one partition into cosets) per member set, whichever
    # Subgroup object asks
    G = group_from_generators(4, S4_GENS, name="S4")
    scans = []
    partition = groups._partition

    def counting_partition(items, block):
        scans.append(len(items))
        return partition(items, block)

    monkeypatch.setattr(groups, "_partition", counting_partition)
    index = plain_index(4, S4_GENS)
    V4 = G.subgroup([index[(1, 0, 3, 2)], index[(2, 3, 0, 1)]])
    same = G.subgroup_from_members(V4.members)
    assert same is not V4
    assert G.is_normal(V4) and G.is_normal(same) and G.is_normal(V4)
    assert len(scans) == 1
    H = G.subgroup([G.generators[1]])
    assert not G.is_normal(H) and not G.is_normal(G.subgroup_from_members(H.members))
    assert len(scans) == 2


def test_quotient_requires_normal():
    G = group_from_generators(3, [[1, 2, 0], [1, 0, 2]])
    H = G.subgroup([G.generators[1]])
    with pytest.raises(NotNormal):
        G.quotient(H)


def test_direct_table_constructor_checks():
    with pytest.raises(ValueError, match="row/column is not a permutation"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="element 0 is not the identity"):
        FiniteGroup([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0]])  # ragged
    for table in ([[0, 2], [1, 0]], [[0, -1], [1, 0]]):
        with pytest.raises(ValueError, match="entries out of range"):
            FiniteGroup(table)
    # every row is a permutation, column 1 is not
    with pytest.raises(ValueError, match="row/column is not a permutation"):
        FiniteGroup([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    # a Latin square with identity 0 in which every element squares to 0: a
    # loop of order 5 that is no group, since a group of order 5 is cyclic
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(loop5)
    # Z600 with one 2 x 2 subsquare swapped, 3 and 303 at rows 1, 301 and
    # columns 2, 302: still a Latin square with identity 0, and above order
    # 512 checked as exactly as below it
    z600 = [[(a + b) % 600 for b in range(600)] for a in range(600)]
    assert FiniteGroup(z600).is_abelian
    z600[1][2], z600[1][302], z600[301][2], z600[301][302] = 303, 3, 3, 303
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(z600)


def test_subgroup_membership_and_index():
    G = dihedral(5)
    A = G.subgroup([G.generators[0]])
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


def _plain_conjugation_maps(G, H):
    """For each coset lift n whose conjugates n^-1 h n all lie in H, their
    positions in H.members, from whole image tuples and G.mul."""
    _, reps, _ = G.conjugation_action(H)
    images = {c: tuple(G.mul(G.mul(G.inv(n), h), n) for h in H.members)
              for c, n in enumerate(reps)}
    return {c: tuple(H.members.index(x) for x in image)
            for c, image in images.items() if set(image) <= set(H.members)}


def test_conjugation_maps_match_plain_images_on_every_subgroup_class():
    """The maps stop at the first conjugate that leaves H and keep only the
    normalizing cosets; they equal the whole-image reference on every
    subgroup-class representative, normal or not."""
    S4xS3 = group_from_generators(7, direct_product(S4_GENS, 4, S3_GENS, 3), name="S4xS3")
    non_normal = 0
    for G in all_catalog_groups() + [S4xS3]:
        for cls in G.subgroup_conjugacy_classes():
            H = cls[0]
            maps = G.conjugation_action(H).maps
            assert maps == _plain_conjugation_maps(G, H), (G.name, H.members)
            non_normal += len(maps) * H.order < G.order
    assert non_normal == 98


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
            cls = sorted({tuple(sorted(conj(G, g, h) for h in s.members))
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


@pytest.mark.parametrize("name, extensions", [("S3xS3", 79), ("S4xZ2", 146), ("S5", 107)])
def test_normal_classes_extend_one_g_per_class_of_conjugates(monkeypatch, name, extensions):
    """A class of one member is a normal H, and <H, x g x^-1> = x <H, g> x^-1
    lies in the class that <H, g> opens, so H is extended by one g per
    G-class of cosets gH: beside the closures of minimal_generators, S3xS3
    makes 79 extensions, S4xZ2 146 and S5 107 (108, 188 and 167 with one
    per double coset H g^k H), on the groups the plain enumeration checks."""
    calls = []
    extend = groups._extend

    def counting_extend(rows, members, generators):
        calls.append(len(members))
        return extend(rows, members, generators)

    degree, gens = PRODUCTS[name]
    G = relabelled_group(name, degree, gens, random.Random(name))
    generators = len(groups.minimal_generators(G, G.elements()))
    monkeypatch.setattr(groups, "_extend", counting_extend)
    G.subgroup_conjugacy_classes()
    assert len(calls) - generators == extensions


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


def _double_cosets_other_than(G, H):
    """The number of double cosets HgH other than H itself, each marked in
    full from its least element."""
    seen = set(H.members)
    count = 0
    for g in G.elements():
        if g not in seen:
            seen.update(G.mul(G.mul(h, g), k) for h in H.members for k in H.members)
            count += 1
    return count


def test_one_enumeration_serves_classes_and_lattice(monkeypatch):
    """The classes are found by extending class representatives only, at most
    one _extend per double coset HgH != H of each, after one closure per
    generator of G found by minimal_generators; all_subgroups reads them.
    (S4 makes 29 calls against a bound of 53, S3xS3 83 against 134; one
    per double coset, normal H included, made 43 and 112, one per right
    coset Hg 75 and 176.)"""
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
        subs = G.all_subgroups()
        assert len(calls) == made, G.name
        bound = len(groups.minimal_generators(G, G.elements())) + \
            sum(_double_cosets_other_than(G, c[0]) for c in classes)
        assert made <= bound, (G.name, made, bound)
        assert [s.members for s in subs] == \
            sorted((s.members for c in classes for s in c), key=lambda m: (len(m), m))


@pytest.mark.parametrize("name, degree, gens, counts", [
    ("S6", 6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]], (1455, 56)),
    ("S4xS4", 8, direct_product(S4_GENS, 4, S4_GENS, 4), (2976, 274)),
], ids=["S6", "S4xS4"])
def test_subgroup_enumeration_time_at_order_576_to_720(name, degree, gens, counts):
    """The subgroups of S6 (order 720) and S4xS4 (order 576), counted with
    their classes, are enumerated in under 0.5 s.  On one Intel Xeon core
    one extension per double coset H g^k H takes 0.07-0.13 s and
    0.16-0.24 s, one per right coset Hg 0.48-0.92 s and 0.65-1.15 s."""
    G = group_from_generators(degree, gens, name=name)
    start = time.perf_counter()
    classes = G.subgroup_conjugacy_classes()
    elapsed = time.perf_counter() - start
    assert (sum(map(len, classes)), len(classes)) == counts
    assert elapsed < 0.5, elapsed


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


def _check_derived_table(G):
    """A derived table skips the axiom check and is kept as given by
    check=False: it must pass the check and be a list of plain int lists."""
    _check_axioms(G)
    assert type(G._rows) is list, G.name
    assert all(type(row) is list for row in G._rows), G.name
    assert all(type(x) is int for row in G._rows for x in row), G.name


def test_subgroup_tables_are_group_tables():
    """as_group builds its table without the axiom check; every such table
    must still pass it, as a list of int lists."""
    S4xZ2 = relabelled_group("S4xZ2", *PRODUCTS["S4xZ2"], random.Random(5))
    for G in all_catalog_groups() + [S4xZ2]:
        for H in G.all_subgroups():
            Hgrp, embed = H.as_group()
            assert embed == H.members
            _check_derived_table(Hgrp)


def test_closure_and_quotient_tables_are_group_tables():
    """group_from_generators and coset_quotient build their tables without
    the axiom check; the table of every catalog group, of a relabelled S4xZ2
    and of S3xS3, and of each of their quotients by a normal subgroup must
    still pass it, as a list of int lists."""
    S4xZ2 = relabelled_group("S4xZ2", *PRODUCTS["S4xZ2"], random.Random(5))
    S3xS3 = group_from_generators(*PRODUCTS["S3xS3"], name="S3xS3")
    for G in all_catalog_groups() + [S4xZ2, S3xS3]:
        _check_derived_table(G)
        for A in G.all_subgroups():
            if G.is_normal(A):
                _check_derived_table(G.quotient(A)[0])


def test_group_table_equals_all_pairs_composition():
    """group_from_generators builds each row from an earlier one by gathers
    along breadth-first words; its table, inverses and generator indices
    must equal the plain closure's, on every catalog group, on relabelled
    S3xS3, S4xZ2, S5 and S4xS3, on S6, and at degrees 0, 1 and 2, where a
    gather has no index or one.  The search runs on the moved points only,
    so S4, D6 and the pool's S4xZ2 with fixed points before, between and
    after their moved ones give the unpadded group's table, inverses and
    generator indices."""
    rng = random.Random(7)
    specs = [(name, entry.degree, entry.generators) for name, entry in sorted(CATALOG.items())]
    specs += [(name, degree, relabelled_generators(degree, gens, rng)[0])
              for name, (degree, gens) in PRODUCTS.items()]
    specs += [("S6", 6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]),
              ("1 on 0 points", 0, [[]]), ("1 on 0 points, no generators", 0, []),
              ("1 on 1 point", 1, [[0]]), ("Z2", 2, [[1, 0]]), ("Z2 twice", 2, [[1, 0], [1, 0]])]
    for name, degree, gens in specs:
        G = group_from_generators(degree, gens, name=name)
        perms, table, inv = plain_permutation_closure(degree, [tuple(g) for g in gens])
        assert G._rows == table, name
        assert G._inv == inv, name
        assert G.generators == tuple(perms.index(tuple(g)) for g in gens), name
    pool = benchmark_pool()
    for name, degree, gens in [("S4", 4, CATALOG["S4"].generators),
                               ("S4xZ2", pool["S4xZ2"].degree, pool["S4xZ2"].gens),
                               ("D6", 3, CATALOG["D6"].generators)]:
        G = group_from_generators(degree, gens, name=name)
        at = [2 + 3 * i for i in range(degree)]  # two fixed points before each moved one
        padded = [list(range(at[-1] + 4)) for _ in gens]  # and three after the last
        for q, g in zip(padded, gens):
            for i in range(degree):
                q[at[i]] = at[g[i]]
        P = group_from_generators(len(padded[0]), padded, name=name)
        assert (P._rows, P._inv, P.generators) == (G._rows, G._inv, G.generators), name


def test_exponent_is_the_lcm_of_all_element_orders():
    """The exponent, read off the class representatives, equals the lcm of
    the orders of every element, on every catalog group and on relabelled
    S3xS3, S4xZ2, S5 and S4xS3."""
    rng = random.Random(27)
    relabelled = [relabelled_group(name, *PRODUCTS[name], rng) for name in PRODUCTS]
    for G in all_catalog_groups() + relabelled:
        assert G.exponent == lcm(*map(G.element_order, G.elements())), G.name


def test_closure_of_s6_time_and_memory():
    """Closing S6 (order 720) into its table takes under 1 s and a traced
    peak under 6 MB: each row is gathered from an earlier one straight into
    the int lists the group keeps, so the table is built once."""
    gens = [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]
    start = time.perf_counter()
    G = group_from_generators(6, gens, name="S6")
    elapsed = time.perf_counter() - start
    assert G.order == 720
    del G
    tracemalloc.start()
    try:
        G = group_from_generators(6, gens, name="S6")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 720
    assert elapsed < 1, elapsed
    assert peak < 6 * 2 ** 20, peak


# -- one partition routine: classes, cosets and orbits on drawn groups ---------

from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from isotypic.bordism import rank_profile, weyl_cycle_types  # noqa: E402
from isotypic.characters import DEFAULT_CHARTABLE_CAP, character_table  # noqa: E402
from isotypic.orbits import irr_action, irr_orbits  # noqa: E402


@st.composite
def small_permutation_groups(draw):
    """(degree, generators): 1 to 3 drawn permutations of at most 6 points,
    relabelled and shuffled by ``relabelled_generators``."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    return degree, relabelled_generators(degree, gens, rng)[0]


@settings(max_examples=100)
@given(small_permutation_groups())
def test_blocks_are_numbered_by_least_member(spec):
    """Every partition the package makes numbers its blocks by their least
    members: the conjugacy classes (against sympy.combinatorics, as is the
    order), the left cosets of each subgroup class representative H (coset
    k is reps[k] H), the G-orbits on Irr(A) for normal A (orbit times
    stabilizer is |G|); and weyl_cycle_types reads the cycle types
    rank_profile reads off the character table of H.  Subgroups above the
    character table cap get no table, so only their classes and cosets are
    checked."""
    degree, gens = spec
    G = group_from_generators(degree, gens)
    P = PermutationGroup([Permutation(g, size=degree) for g in gens])
    classes = G.conjugacy_classes()
    assert [c[0] for c in classes] == sorted(c[0] for c in classes) and classes[0] == (0,)
    assert all(list(c) == sorted(c) and G.class_index(g) == i
               for i, c in enumerate(classes) for g in c)
    index = plain_index(degree, gens)
    assert sorted(classes) == sorted(tuple(sorted(index[tuple(p.array_form)] for p in c))
                                     for c in P.conjugacy_classes())
    assert G.order == P.order()
    for cls in G.subgroup_conjugacy_classes():
        H = cls[0]
        coset_of, reps, _ = G.conjugation_action(H)
        assert list(reps) == sorted(reps) and reps[0] == 0
        cosets = [[] for _ in reps]
        for g in G.elements():
            cosets[coset_of[g]].append(g)
        for r, coset in zip(reps, cosets):
            assert coset == sorted(G.mul(r, h) for h in H.members) and coset[0] == r
        if H.order > DEFAULT_CHARTABLE_CAP:
            continue
        assert weyl_cycle_types(G, H) == rank_profile(G, H).cycle_types()
        if G.is_normal(H):
            orbits = irr_orbits(G, H)
            covered = sorted(tau for o in orbits for tau in o.orbit)
            assert covered == list(range(len(character_table(H.as_group()[0]))))
            assert [o.representative for o in orbits] == sorted(min(o.orbit) for o in orbits)
            for rep, orbit, stabilizer in orbits:
                assert {irr_action(G, H, g, tau) for g in G.elements() for tau in orbit} == orbit
                assert all(irr_action(G, H, g, rep) == rep for g in stabilizer.members)
                assert len(orbit) * stabilizer.order == G.order
