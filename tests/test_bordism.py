import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import isotypic
from isotypic import bordism, characters
from isotypic.bordism import (PowerSeries, RankProfile,
                              adjacent_family_series, bu_generator_series,
                              burnside_label_series, d2p_certify, enumerate_arrays,
                              global_generator_series, is_family,
                              omega_generator_series, rank_profile,
                              weyl_cycle_types, _fit_degrees)
from isotypic.catalog import CATALOG, build_catalog_group
from isotypic.characters import character_table
from isotypic.errors import CapExceeded, NotNormal, NotOdd, NotPrime
from isotypic.groups import FiniteGroup, Subgroup, group_from_generators
from isotypic.orbits import irr_action

from conftest import (S3_GENS, S4_GENS, all_catalog_groups, brute_label_orbit_counts,
                      benchmark_pool, brute_partitions, dihedral, direct_product,
                      relabelled_group)


def test_power_series_arithmetic():
    a = PowerSeries([1, 2, 3])
    b = PowerSeries([0, 1, 0])
    assert (a + b).coefficients == (1, 3, 3)
    assert (a * b).coefficients == (0, 1, 2)
    c = PowerSeries([1, 1, 1, 1])
    assert (a * c).coefficients[:3] == ((a * c) * PowerSeries.one(2)).coefficients
    assert (a * b).coefficients == (b * a).coefficients


def test_omega_series_is_partition_function():
    s = omega_generator_series(40)
    for k in range(21):
        assert s.coefficient(2 * k) == len(brute_partitions(k))
    for n in range(1, 40, 2):
        assert s.coefficient(n) == 0
    assert s.coefficient(20) == 42


def test_omega_series_reaches_the_degree_cap():
    """p(100), far beyond what brute enumeration reaches."""
    assert omega_generator_series(200).coefficient(200) == 190569292


def test_omega_series_first_values():
    s = omega_generator_series(8)
    assert list(s.coefficients) == [1, 0, 1, 0, 2, 0, 3, 0, 5]


def test_bu_series_against_partition_enumeration():
    assert bu_generator_series([0], 10).coefficients == PowerSeries.one(10).coefficients
    s1 = bu_generator_series([1], 10)
    assert all(s1.coefficient(2 * j) == 1 for j in range(6))
    s2 = bu_generator_series([2], 8)
    assert [s2.coefficient(n) for n in (0, 2, 4, 6, 8)] == [1, 1, 2, 2, 3]
    for r in (1, 2, 3):
        s = bu_generator_series([r], 16)
        for j in range(9):
            assert s.coefficient(2 * j) == len(brute_partitions(j, max_parts=r))
    # multiplicativity over factors
    s23 = bu_generator_series([2, 3], 12)
    assert s23.coefficients == \
        (bu_generator_series([2], 12) * bu_generator_series([3], 12)).coefficients


def _reference_euler_product(parts, max_degree):
    """The running-sum kernel the Euler transform replaced, kept as its
    reference: prod_{m in parts} 1/(1 - t^(2m)) up to t^max_degree, one
    running sum of stride m over the even coefficients per factor."""
    even = [1] + [0] * (max_degree // 2)
    for m in parts:
        for n in range(m, len(even)):
            even[n] += even[n - m]
    coeffs = [0] * (max_degree + 1)
    coeffs[::2] = even
    return coeffs


def _reference_burnside(cycle_types, max_degree):
    """Burnside's average of the running-sum products over the parts
    l(d + i) of each cycle type's cycles."""
    total = [0] * (max_degree + 1)
    for cycle_type, count in cycle_types.items():
        parts = [m for ell, dim in cycle_type
                 for m in range(ell * dim, max_degree // 2 + 1, ell)]
        for n, c in enumerate(_reference_euler_product(parts, max_degree)):
            total[n] += count * c
    w = sum(cycle_types.values())
    assert all(c % w == 0 for c in total)
    return [c // w for c in total]


def test_euler_transform_matches_running_sums_on_part_multisets():
    rng = random.Random(30)
    for _ in range(60):
        max_degree = rng.choice([0, 1, 2, 7, 20, 41, 60, bordism.MAX_DEGREE])
        half = max_degree // 2
        parts = [rng.randint(1, max(1, half)) for _ in range(rng.randint(0, 40))]
        part_sums = [sum(m for m in parts if k % m == 0) for k in range(1, half + 1)]
        assert bordism._euler_product(part_sums, max_degree) == \
            _reference_euler_product(parts, max_degree), (parts, max_degree)


def test_euler_transform_checks_each_division():
    """Part sums of no multiset of parts: 2 a_2 = s_1 a_1 + s_2 = 2*2 + 1."""
    with pytest.raises(AssertionError, match="not integral"):
        bordism._euler_product([2, 1], 4)


def test_series_match_running_sums_up_to_the_cap():
    rng = random.Random(31)
    for max_degree in (0, 1, 9, 30, 61, 120, bordism.MAX_DEGREE):
        half = max_degree // 2
        assert list(omega_generator_series(max_degree).coefficients) == \
            _reference_euler_product(range(1, half + 1), max_degree)
        for _ in range(4):
            ranks = [rng.randint(0, half + 2) for _ in range(rng.randint(0, 5))]
            assert list(bu_generator_series(ranks, max_degree).coefficients) == \
                _reference_euler_product([m for r in ranks for m in range(1, r + 1)],
                                         max_degree), (ranks, max_degree)


def test_burnside_series_match_running_sums_on_synthetic_cycle_types():
    """Cycle types of the cyclic group generated by a random permutation of
    synthetic degrees that preserves them."""
    rng = random.Random(32)
    for max_degree in (0, 3, 20, 45, 60, bordism.MAX_DEGREE):
        for _ in range(8):
            dims = sorted(rng.randint(1, 5) for _ in range(rng.randint(0, 12)))
            perm = list(range(len(dims)))
            for d in set(dims):
                block = [i for i in range(len(dims)) if dims[i] == d]
                shuffled = rng.sample(block, len(block))
                for i, j in zip(block, shuffled):
                    perm[i] = j
            perms = [tuple(range(len(dims)))]
            while tuple(perm[i] for i in perms[-1]) != perms[0]:
                perms.append(tuple(perm[i] for i in perms[-1]))
            types = RankProfile(tuple(dims), tuple(perms)).cycle_types()
            assert list(burnside_label_series(types, max_degree).coefficients) == \
                _reference_burnside(types, max_degree), (dims, perm, max_degree)


def test_global_series_forms_one_product_per_distinct_cycle_type(monkeypatch):
    """Classes whose Weyl actions share a cycle type share its Euler product
    within one call, and the trivial subgroup's empty type needs none: at
    degree 30 S3xS3 forms 16 products for 32 (class, cycle type) pairs over
    17 distinct types, S5 23 for 30 over 24 and S4 11 for 17 over 12.  So
    do classes whose cycle lengths share a degree fit: S3xS3 makes 7 fits
    where its classes, each on its own, make 14, and S5 11 for 12."""
    calls, fitted = [], []
    real, fit = bordism._euler_product, bordism._fit_degrees

    def counted(part_sums, max_degree):
        calls.append(tuple(part_sums))
        return real(part_sums, max_degree)

    def counted_fit(*args):
        fitted.append(args)
        return fit(*args)

    monkeypatch.setattr(bordism, "_euler_product", counted)
    monkeypatch.setattr(bordism, "_fit_degrees", counted_fit)
    S5_GENS = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
    for name, degree, gens, products, pairs, fits in [
            ("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3), 16, 32, (14, 7)),
            ("S5", 5, S5_GENS, 23, 30, (12, 11)),
            ("S4", 4, S4_GENS, 11, 17, (4, 4))]:
        G = group_from_generators(degree, gens, name=name)
        del fitted[:]
        types = [weyl_cycle_types(G, cls[0]) for cls in G.subgroup_conjugacy_classes()]
        assert sum(map(len, types)) == pairs, name
        assert len(set().union(*types)) - 1 == products, name
        alone = len(fitted)
        del calls[:], fitted[:]
        total, _ = global_generator_series(G, 30)
        assert len(calls) == products, name
        assert (alone, len(fitted)) == fits, name
        assert list(total.coefficients) == [sum(c) for c in zip(*(
            _reference_burnside(t, 30) for t in types))], name
    # a second call forms its products again: nothing outlives the call
    del calls[:]
    global_generator_series(G, 30)
    assert len(calls) == 11


def test_enumerate_arrays_z4():
    Z4, _ = build_catalog_group("Z4")
    prof = rank_profile(Z4, Z4.full_subgroup())
    assert prof.dims == (1, 1, 1)
    assert enumerate_arrays(prof, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(enumerate_arrays(prof, 2)) == 6
    assert enumerate_arrays(prof, 0) == [(0, 0, 0)]


def test_enumerate_arrays_q8():
    Q8, _ = build_catalog_group("Q8")
    prof = rank_profile(Q8, Q8.full_subgroup())
    assert sorted(prof.dims) == [1, 1, 1, 2]
    assert len(enumerate_arrays(prof, 2)) == 7


def test_enumerate_arrays_counts_match_product_series(pairs):
    """enumerate_arrays reads nothing of a profile but its dims, so each
    distinct dims tuple of the pairs up to order 24 is checked once."""
    profiles = {}
    for name, G, A in pairs:
        if G.order <= 24:
            prof = rank_profile(G, A)
            profiles.setdefault(prof.dims, (name, prof))
    for name, prof in profiles.values():
        series = PowerSeries.one(30)
        for d in prof.dims:
            geom = PowerSeries([1 if n % d == 0 else 0 for n in range(31)])
            series = series * geom
        for k in range(31):
            arrays = enumerate_arrays(prof, k)
            assert arrays == sorted(arrays), (name, k)
            assert len(arrays) == series.coefficient(k), (name, k)


def test_rank_profile_action_preserves_dims(pairs):
    for name, G, A in pairs:
        prof = rank_profile(G, A)
        for perm in prof.perms:
            for i, j in enumerate(perm):
                assert prof.dims[i] == prof.dims[j]


def _reference_weyl_perms(G, A):
    """The Weyl action built the long way: materialize the normalizer N,
    take the quotient N/A and lift each of its elements back to G."""
    table = character_table(A.as_group()[0])
    indices = [i for i in range(len(table)) if i != table.trivial_index()]
    pos = {t: i for i, t in enumerate(indices)}
    N = G.normalizer(A)
    Ngrp, nembed = N.as_group()
    Q, section = Ngrp.quotient(Ngrp.subgroup_from_members([N.retract(a) for a in A.members]))
    return tuple(tuple(pos[irr_action(G, A, nembed[section[q]], t)] for t in indices)
                 for q in range(Q.order))


def test_rank_profile_weyl_action_matches_normalizer_quotient():
    S4xZ2 = relabelled_group("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2),
                             random.Random(9))
    S3xS3 = group_from_generators(6, direct_product(S3_GENS, 3, S3_GENS, 3), name="S3xS3")
    for G in all_catalog_groups() + [S3xS3, S4xZ2]:
        for cls in G.subgroup_conjugacy_classes():
            A = cls[0]
            assert rank_profile(G, A).perms == _reference_weyl_perms(G, A), (G.name, A.members)


def test_weyl_cycle_types_agree_with_rank_profile(monkeypatch):
    """Every route gives the cycle types the character-table route gives, on
    every subgroup class, and the cycle types do not change with a
    relabelling.  Abelian A is read off its conjugation maps and the
    class/A' route (Brauer's permutation lemma on the classes of A and the
    cosets of A', with the degrees fitted to |A| - [A:A'] above the
    Frobenius-Schur floor) builds no table; ``rank_profile`` is called,
    once, only when the true cycles of some w are not the one fit, which
    happens only on S4xS3's classes of order 72 and 144."""
    tables = []

    def counted(G, A):
        tables.append((G.name, A.order))
        return rank_profile(G, A)

    monkeypatch.setattr(bordism, "rank_profile", counted)
    rng = random.Random(13)
    specs = [(e.name, e.degree, e.generators) for _, e in sorted(CATALOG.items())]
    specs += [("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3)),
              ("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2)),
              ("S4xS3", 7, direct_product(S4_GENS, 4, S3_GENS, 3)),
              ("S5", 5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])]
    routes = Counter()
    for name, degree, gens in specs:
        summaries = []
        for G in (group_from_generators(degree, gens, name=name),
                  relabelled_group(name, degree, gens, rng)):
            summary = []
            for cls in G.subgroup_conjugacy_classes():
                A = cls[0]
                before = len(tables)
                types = weyl_cycle_types(G, A)
                built = len(tables) - before
                assert built <= 1, (name, A.members)
                assert types == rank_profile(G, A).cycle_types(), (name, A.members)
                # the table is built only when some w's true non-linear
                # cycles are not the one fit of their lengths above the floor
                # #{a : a^2 = 1} - [A:A']
                degrees = character_table(A.as_group()[0]).degrees
                floor = sum(G.mul(a, a) == 0 for a in A.members) - degrees.count(1)
                fits = [_fit_degrees([ell for ell, d in t if d > 1], A.order,
                                     sum(ell * d * d for ell, d in t if d > 1), floor)
                        for t in types]
                assert built == (None in fits), (name, A.members)
                assert built == (name == "S4xS3" and A.order in (72, 144)), (name, A.members)
                abelian = A.as_group()[0].is_abelian
                assert not (abelian and built), (name, A.members)
                routes["abelian" if abelian else "table" if built else "table-free"] += 1
                if A.order == G.order:
                    nonlinear = [d for d in character_table(A.as_group()[0]).degrees if d > 1]
                    if name in ("S4", "S3xS3", "S4xZ2", "A4", "F20", "D8", "Q8", "S3", "F21",
                                "S5"):
                        assert not built and nonlinear, name
                    if name == "S4xS3":
                        assert built, name
                summary.append((A.order, len(cls), sorted(types.items())))
            summaries.append(sorted(summary))
        assert summaries[0] == summaries[1], name
    assert routes == {"abelian": 426, "table-free": 216, "table": 8}, routes


def test_weyl_cycle_types_read_abelian_classes_off_conjugation_maps(monkeypatch):
    """On every abelian subgroup class of the catalog and the benchmark pool
    groups, each also relabelled, the trivial subgroup included,
    ``weyl_cycle_types`` partitions nothing and closes nothing: the cycle
    types are those of the (already cached) conjugation maps on A's
    non-identity members, and they equal the character-table route's."""
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    specs = [(e.name, e.degree, e.generators) for _, e in sorted(CATALOG.items())]
    specs += [(name, spec.degree, spec.gens) for name, spec in benchmark_pool().items()
              if name not in CATALOG]
    rng = random.Random(42)
    groups = [G for name, degree, gens in specs
              for G in (group_from_generators(degree, gens, name=name),
                        relabelled_group(name, degree, gens, rng))]
    classes = [(G, cls[0]) for G in groups for cls in G.subgroup_conjugacy_classes()
               if cls[0].as_group()[0].is_abelian]
    for G, A in classes:
        G.conjugation_action(A)
    for module in (bordism, isotypic.groups):
        for name in ("_partition", "closure"):
            counting(module, name)
    for G, A in classes:
        calls.clear()
        types = weyl_cycle_types(G, A)
        assert not calls, (G.name, A.members, calls)
        assert types == rank_profile(G, A).cycle_types(), (G.name, A.members)
    assert sum(A.order == 1 for _, A in classes) == len(groups)
    assert (len(groups), len(classes)) == (90, 500)


def test_fit_degrees_finds_the_one_fit_or_none():
    """S3xS3 at w = 1 fits only 2, 2, 2, 2, 4; in A5 < S5 an odd w swaps the
    two degree-3 characters and fixes those of degree 4 and 5; S5 at w = 1
    fits both 4, 4, 5, 5, 6 and 2, 3, 4, 5, 8; abelian A has no cycle."""
    assert _fit_degrees([1] * 5, 36, 32) == ((1, 2),) * 4 + ((1, 4),)
    assert _fit_degrees([2, 1, 1], 60, 59) == ((1, 4), (1, 5), (2, 3))
    assert _fit_degrees([1] * 5, 120, 118) is None
    assert _fit_degrees([], 8, 0) == ()
    # no fit: a single cycle whose square sum is no square of a divisor
    assert _fit_degrees([1], 12, 8) is None


def test_fit_degrees_takes_the_frobenius_schur_floor():
    """The degrees of S5 sum to at least its 26 square roots of 1 (Isaacs,
    Ch. 4), the two linear ones to 2: a floor of 24 on the non-linear sum
    keeps 4, 4, 5, 5, 6 (24) and drops 2, 3, 4, 5, 8 (22)."""
    assert _fit_degrees([1] * 5, 120, 118, 24) == ((1, 4), (1, 4), (1, 5), (1, 5), (1, 6))
    assert _fit_degrees([1] * 5, 120, 118, 25) is None


def test_fit_degrees_is_fast_on_many_cycles():
    """D8xD8xZ2xZ2 (order 256, [A:A'] = 64) has 36 non-linear characters,
    32 of degree 2 and 4 of degree 4; the search settles them at once."""
    start = time.perf_counter()
    fit = _fit_degrees([1] * 36, 256, 256 - 64)
    elapsed = time.perf_counter() - start
    assert fit == ((1, 2),) * 32 + ((1, 4),) * 4
    assert elapsed < 0.05, elapsed


def test_fit_degrees_walks_a_thousand_cycles():
    """D4006 (p = 2003) has 1001 non-linear characters, all of degree 2, so
    the walk is 1001 cycles deep: it keeps its own stack, not Python's."""
    start = time.perf_counter()
    fit = _fit_degrees([1] * 1001, 4006, 4004)
    elapsed = time.perf_counter() - start
    assert fit == ((1, 2),) * 1001
    assert elapsed < 0.5, elapsed


def test_series_build_a_table_only_for_s4xs3_classes(monkeypatch):
    """``global_generator_series`` builds no character table on S3xS3, S4,
    S4xZ2 and S5 (the Frobenius-Schur floor settles S5's degrees), and the
    A5 < S5 pair builds none; an order-72 class of S4xS3, whose degrees the
    floor leaves unsettled, builds its one table."""
    tables = []

    def counted(G, A):
        tables.append((G.name, A.order))
        return rank_profile(G, A)

    monkeypatch.setattr(bordism, "rank_profile", counted)
    S5_GENS = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
    for name, degree, gens, built in [
            ("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3), []),
            ("S4", 4, S4_GENS, []),
            ("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2), []),
            ("S5", 5, S5_GENS, [])]:
        G = group_from_generators(degree, gens, name=name)
        del tables[:]
        global_generator_series(G, 20)
        assert tables == built, name
    A5 = next(s for s in G.all_subgroups() if s.order == 60)
    del tables[:]
    adjacent_family_series(G, A5, 20)
    assert tables == []
    G = group_from_generators(7, direct_product(S4_GENS, 4, S3_GENS, 3), name="S4xS3")
    A = next(s for s in G.all_subgroups() if s.order == 72)
    adjacent_family_series(G, A, 20)
    assert tables == [("S4xS3", 72)]


def test_weyl_cycle_types_of_the_trivial_subgroup_need_no_coset_table(monkeypatch):
    """The trivial subgroup has no nontrivial irreducible and N_1/1 = G, so
    its types are |G| empty cycles, read with no conjugation action."""
    calls = []
    real = FiniteGroup.conjugation_action

    def counted(self, H):
        calls.append(H.order)
        return real(self, H)

    monkeypatch.setattr(FiniteGroup, "conjugation_action", counted)
    for G in all_catalog_groups():
        assert weyl_cycle_types(G, G.trivial_subgroup()) == Counter({(): G.order}), G.name
    assert calls == []


def test_global_series_builds_no_table_on_the_benchmark_pool(monkeypatch):
    """On every pool group but S4xS3 (all 19 groups the benchmark runs
    ``bordism --global`` on among them), each also relabelled,
    ``global_generator_series`` builds no Dixon-Schneider table: every
    non-abelian class's degrees are settled by the fit above the
    Frobenius-Schur floor, S5's own included."""
    calls = []
    real = characters._dixon_schneider

    def counted(G):
        calls.append(G.name)
        return real(G)

    monkeypatch.setattr(characters, "_dixon_schneider", counted)
    rng = random.Random(43)
    names = []
    for name, spec in benchmark_pool().items():
        if name == "S4xS3":
            continue
        for G in (group_from_generators(spec.degree, spec.gens, name=name),
                  relabelled_group(name, spec.degree, spec.gens, rng)):
            global_generator_series(G, 20)
        names.append(name)
    assert calls == []
    assert {"S3xS3", "S4", "S4xZ2", "S5", "F20", "F21", "Dic24"} <= set(names)


def test_global_series_materializes_no_subgroup(monkeypatch):
    """Where every fit is unique (S3xS3, S4, S4xZ2), ``global_generator_series``
    calls ``Subgroup.as_group`` for no subgroup: ``weyl_cycle_types`` reads
    an abelian A off its conjugation maps, and the classes of any other A
    and the cosets of A' on A's member positions in G's table, and builds
    no table of A."""
    calls = []
    as_group = Subgroup.as_group

    def counted(self):
        calls.append(self.order)
        return as_group(self)

    monkeypatch.setattr(Subgroup, "as_group", counted)
    for name, degree, gens in [("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3)),
                               ("S4", 4, S4_GENS),
                               ("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2))]:
        global_generator_series(group_from_generators(degree, gens, name=name), 20)
        assert calls == [], name


def test_global_series_d8_d8_z2_pinned():
    """D8xD8xZ2 has 1268 subgroup classes, most of them non-abelian with
    every non-linear degree 2; the coefficients were computed with a
    character table for every non-abelian class."""
    D8 = [[1, 2, 3, 0], [3, 2, 1, 0]]
    G = group_from_generators(10, direct_product(direct_product(D8, 4, D8, 4), 8, [[1, 0]], 2),
                              name="D8xD8xZ2")
    total, breakdown = global_generator_series(G, 30)
    assert len(breakdown) == 1268
    assert list(total.coefficients) == [
        1268, 0, 7999, 0, 50788, 0, 291853, 0, 1654196, 0, 9274012, 0, 51787140, 0,
        286180811, 0, 1552851575, 0, 8209300572, 0, 42055358580, 0, 208145105862, 0,
        994234593881, 0, 4584745731579, 0, 20432597002051, 0, 88141538601667]


def test_global_series_z2_6_pinned():
    """Z2^6 is abelian throughout; its degree-0 count is the number of
    subspaces of F_2^6."""
    gens = [[j ^ 1 if j // 2 == i else j for j in range(12)] for i in range(6)]
    G = group_from_generators(12, gens, name="Z2^6")
    total, breakdown = global_generator_series(G, 30)
    assert len(breakdown) == 2825
    assert list(total.coefficients) == [
        2825, 0, 23562, 0, 177975, 0, 1262667, 0, 8953182, 0, 64924461, 0,
        486660342, 0, 3761783442, 0, 29613148425, 0, 233247805000, 0,
        1807413208209, 0, 13606572222495, 0, 98758468367223, 0,
        688540823702613, 0, 4606362249947964, 0, 29586190150046502]


def test_adjacent_series_z2_by_hand():
    Z2 = group_from_generators(2, [[1, 0]], name="Z2")
    series = adjacent_family_series(Z2, Z2.full_subgroup(), 20)
    for k in range(11):
        count = sum(len(brute_partitions(k - n1, max_parts=n1)) for n1 in range(k + 1))
        assert series.coefficient(2 * k) == count
    assert all(series.coefficient(n) == 0 for n in range(1, 21, 2))


def test_series_take_degrees_from_0_to_the_cap():
    Z4, A = build_catalog_group("Z4")
    builders = [omega_generator_series,
                lambda n: bu_generator_series([1], n),
                lambda n: burnside_label_series(Counter({(): 1}), n),
                lambda n: adjacent_family_series(Z4, A, n),
                lambda n: global_generator_series(Z4, n)[0]]
    for build in builders:
        with pytest.raises(ValueError):
            build(-1)
        with pytest.raises(CapExceeded):
            build(bordism.MAX_DEGREE + 1)
        assert build(0).max_degree == 0
        assert build(bordism.MAX_DEGREE).max_degree == bordism.MAX_DEGREE


def test_adjacent_series_requires_normal():
    G = dihedral(3)
    b = G.generators[1]
    with pytest.raises(NotNormal):
        adjacent_family_series(G, G.subgroup([b]), 10)


def test_trivial_subgroup_series_is_one(pairs):
    for name, G, A in pairs[:4]:
        series = adjacent_family_series(G, G.trivial_subgroup(), 12)
        assert series.coefficients == PowerSeries.one(12).coefficients, name


@pytest.mark.parametrize("dims, perms, max_degree", [
    ((1, 2, 2), [(0, 1, 2), (0, 2, 1)], 20),
    ((2, 2, 2), [(0, 1, 2), (1, 2, 0), (2, 0, 1)], 20),
    ((1, 1, 3, 3), [(0, 1, 2, 3), (1, 0, 3, 2)], 18),
    ((2, 2, 1, 1), [(0, 1, 2, 3), (1, 0, 3, 2)], 18),
])
def test_burnside_equals_bruteforce_on_higher_degrees(dims, perms, max_degree):
    """Synthetic profiles that permute irreducibles of degree above 1, which
    no catalog pair in the other brute-force checks does."""
    prof = RankProfile(dims, tuple(perms))
    series = burnside_label_series(prof.cycle_types(), max_degree)
    assert list(series.coefficients) == brute_label_orbit_counts(dims, perms, max_degree)


def test_burnside_equals_bruteforce_z4_z2():
    Z4, A = build_catalog_group("Z4")
    prof = rank_profile(Z4, A)
    series = adjacent_family_series(Z4, A, 20)
    brute = brute_label_orbit_counts(prof.dims, prof.perms, 20)
    assert list(series.coefficients) == brute


def test_burnside_equals_bruteforce_s4_v4():
    S4, V4 = build_catalog_group("S4")
    prof = rank_profile(S4, V4)
    series = adjacent_family_series(S4, V4, 12)
    brute = brute_label_orbit_counts(prof.dims, prof.perms, 12)
    assert list(series.coefficients) == brute


def test_specialization_trivial_action(pairs):
    """With trivial Weyl action the series is the plain label count."""
    for name, G, A in pairs:
        prof = rank_profile(G, A)
        identity = tuple(range(len(prof.dims)))
        if any(p != identity for p in prof.perms):
            continue
        series = adjacent_family_series(G, A, 16)
        expected = PowerSeries.zero(16)
        for k in range(9):
            for arr in enumerate_arrays(prof, k):
                shifted = PowerSeries([0] * 2 * k + [1] + [0] * (16 - 2 * k)) \
                    if 2 * k <= 16 else None
                if shifted is None:
                    continue
                expected = expected + shifted * bu_generator_series(arr, 16)
        assert series.coefficients == expected.coefficients, name


def test_parity_every_series_even(pairs):
    for name, G, A in pairs[:6]:
        series = adjacent_family_series(G, A, 15)
        assert all(series.coefficient(n) == 0 for n in range(1, 16, 2)), name


def test_global_series_trivial_group():
    G = group_from_generators(1, [[0]], name="1")
    total, breakdown = global_generator_series(G, 10)
    assert total.coefficients == PowerSeries.one(10).coefficients
    assert len(breakdown) == 1


def test_global_series_z2():
    Z2 = group_from_generators(2, [[1, 0]], name="Z2")
    total, breakdown = global_generator_series(Z2, 10)
    assert total.coefficient(0) == 2
    assert len(breakdown) == 2
    inner = adjacent_family_series(Z2, Z2.full_subgroup(), 10)
    assert total.coefficient(2) == inner.coefficient(2)


def test_global_degree_zero_counts_subgroup_classes(pairs):
    for name, G, A in pairs:
        if G.order > 21:
            continue
        total, breakdown = global_generator_series(G, 0)
        assert total.coefficient(0) == len(G.subgroup_conjugacy_classes()), name


def test_global_series_invariant_under_relabelling():
    rng = random.Random(5)
    for name, degree, gens in [("S4", 4, S4_GENS),
                               ("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3))]:
        total, _ = global_generator_series(group_from_generators(degree, gens), 16)
        for _ in range(2):
            G = relabelled_group(name, degree, gens, rng)
            assert global_generator_series(G, 16)[0].coefficients == total.coefficients, name


def test_is_family_detects_closure():
    G = dihedral(3)
    subs = G.all_subgroups()
    trivial = next(s for s in subs if s.order == 1)
    refl = next(s for s in subs if s.order == 2)
    assert is_family(G, {trivial.members})
    assert not is_family(G, {trivial.members, refl.members})  # misses conjugates
    full = next(s for s in subs if s.order == 6)
    assert not is_family(G, {trivial.members, full.members})  # misses the subgroups of D6
    assert is_family(G, {s.members for s in subs})


def test_d2p_certify_p3_families():
    rep = d2p_certify(3, 20)
    assert {k: len(v) for k, v in rep.families.items()} == \
        {"F0": 1, "F1": 2, "F2": 5, "F3": 6}
    assert rep.subgroup_class_count == 4
    assert rep.degree_zero == 4
    assert rep.irr_pairs == 1 and rep.irr_fixed == 0
    assert rep.odd_vanishing


def test_d2p_certify_weyl_orders():
    for p in (3, 5, 7):
        rep = d2p_certify(p, 12)
        weyl = {a["pair"]: a["weyl_order"] for a in rep.adjacency}
        assert weyl == {"(F1,F0)": 2, "(F2,F1)": 1, "(F3,F2)": 1}
        sizes = {a["pair"]: a["conjugacy_class_size"] for a in rep.adjacency}
        assert sizes == {"(F1,F0)": 1, "(F2,F1)": p, "(F3,F2)": 1}
        assert rep.irr_pairs == (p - 1) // 2 and rep.irr_fixed == 0


def test_d2p_global_matches_sum_of_pairs():
    for p in (3, 5):
        rep = d2p_certify(p, 16)
        total = PowerSeries.zero(16)
        for s in rep.pair_series.values():
            total = total + s
        assert total.coefficients == rep.global_series.coefficients


def test_d2p_series_match_the_closed_form_weyl_actions():
    """For an odd prime p the subgroup classes of D2p are 1, <s>, Z_p and
    D2p, with Weyl groups D2p, 1, Z2 and 1.  D2p fixes Irr(1) = {1}; <s> has
    one nontrivial (linear) character; Z2 acts on Irr(Z_p) by inversion,
    swapping its p - 1 nontrivial characters in (p - 1)/2 pairs; and
    Irr(D2p) has the sign character and (p - 1)/2 characters of degree 2.
    Each pair's series is Burnside's average over these cycle types, by the
    reference running-sum products, for primes up to the largest accepted."""
    degree = 12
    for p in (3, 5, 7, 11, 13, 17, 31, 61, 127, 251, bordism.D2P_MAX_P):
        half = (p - 1) // 2
        types = {"(F0,)": Counter({(): 2 * p}),
                 "(F1,F0)": Counter({((1, 1),) * (p - 1): 1, ((2, 1),) * half: 1}),
                 "(F2,F1)": Counter({((1, 1),): 1}),
                 "(F3,F2)": Counter({((1, 1),) + ((1, 2),) * half: 1})}
        expected = {pair: _reference_burnside(t, degree) for pair, t in types.items()}
        rep = d2p_certify(p, degree)
        assert {pair: list(s.coefficients) for pair, s in rep.pair_series.items()} == expected, p
        assert list(rep.global_series.coefficients) == [
            sum(c) for c in zip(*expected.values())], p
        assert (rep.irr_pairs, rep.irr_fixed) == (half, 0), p


def test_d2p_rejects_bad_input():
    with pytest.raises(NotOdd):
        d2p_certify(4, 10)
    with pytest.raises(NotPrime):
        d2p_certify(9, 10)
    with pytest.raises(NotPrime):
        d2p_certify(25, 10)


def test_d2p_checks_survive_python_O():
    """Under python -O, which strips assert statements, a failed d2p check
    still stops the report: a normalizer that is always the whole group
    gives the reflection step Weyl order p, and the command exits 5."""
    script = "\n".join([
        "import sys",
        "from isotypic import cli",
        "from isotypic.groups import FiniteGroup",
        "assert sys.flags.optimize == 1 and not __debug__",
        "FiniteGroup.normalizer = lambda self, H: self.full_subgroup()",
        "sys.exit(cli.main(['d2p', '--p', '3', '--max-degree', '10']))",
    ])
    src = os.path.dirname(os.path.dirname(isotypic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 5, proc.stderr
    assert "internal inconsistency: (F2,F1) must have Weyl order 1, not 3" in proc.stderr


def test_d2p_odd_vanishing_through_40():
    for p in (3, 5, 7, 11):
        rep = d2p_certify(p, 40)
        assert rep.odd_vanishing
        assert all(c >= 0 for c in rep.global_series.coefficients)


def test_subgroup_family_series_reflection_matches_z2_case():
    """The reflection pair of the dihedral chain reduces to the Z/2 one."""
    Z2 = group_from_generators(2, [[1, 0]], name="Z2")
    z2_series = adjacent_family_series(Z2, Z2.full_subgroup(), 20)
    for p in (3, 5):
        G = dihedral(p)
        b = G.generators[1]
        series = burnside_label_series(rank_profile(G, G.subgroup([b])).cycle_types(), 20)
        assert series.coefficients == z2_series.coefficients
