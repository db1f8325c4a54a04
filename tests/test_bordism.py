import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import isotypic
from isotypic import bordism
from isotypic.bordism import (PowerSeries, adjacent_family_series,
                              bu_generator_series, burnside_label_series,
                              d2p_certify, enumerate_arrays,
                              global_generator_series, is_family,
                              omega_generator_series, rank_profile,
                              weyl_cycle_types)
from isotypic.catalog import CATALOG, build_catalog_group
from isotypic.characters import character_table
from isotypic.errors import NotNormal, NotOdd, NotPrime
from isotypic.groups import group_from_generators
from isotypic.orbits import irr_action

from conftest import (S3_GENS, S4_GENS, all_catalog_groups, brute_label_orbit_counts,
                      brute_partitions, dihedral, direct_product, relabelled_group)


def test_power_series_arithmetic():
    a = PowerSeries([1, 2, 3])
    b = PowerSeries([0, 1, 0])
    assert (a + b).coefficients == (1, 3, 3)
    assert (a * b).coefficients == (0, 1, 2)
    c = PowerSeries([1, 1, 1, 1])
    assert (a * c).coefficients[:3] == ((a * c) * PowerSeries.one(2)).coefficients
    assert a * b == b * a


def test_omega_series_is_partition_function():
    s = omega_generator_series(40)
    for k in range(21):
        assert s.coefficient(2 * k) == len(brute_partitions(k))
    for n in range(1, 40, 2):
        assert s.coefficient(n) == 0
    assert s.coefficient(20) == 42


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
    assert s23 == bu_generator_series([2], 12) * bu_generator_series([3], 12)


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
    for name, G, A in pairs:
        if G.order > 24:
            continue
        prof = rank_profile(G, A)
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
    Q = Ngrp.quotient(Ngrp.subgroup_from_members([N.retract(a) for a in A.members]))
    return tuple(tuple(pos[irr_action(G, A, nembed[Q.section[q]], t)] for t in indices)
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
    """Both routes give the cycle types the character-table route gives, on
    every subgroup class, and the cycle types do not change with a
    relabelling.  The class/A' route (Brauer's permutation lemma on the
    classes of A and the cosets of A') builds no table; ``rank_profile`` is
    called exactly when some non-linear degree of A differs from the
    smallest prime factor p of |A|."""
    tables = []

    def counted(G, A):
        tables.append((G.name, A.order))
        return rank_profile(G, A)

    monkeypatch.setattr(bordism, "rank_profile", counted)
    rng = random.Random(13)
    specs = [(e.name, e.degree, e.generators) for _, e in sorted(CATALOG.items())]
    specs += [("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3)),
              ("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2)),
              ("S4xS3", 7, direct_product(S4_GENS, 4, S3_GENS, 3))]
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
                assert types == rank_profile(G, A).cycle_types(), (name, A.members)
                nonlinear = [d for d in character_table(A.as_group()[0]).degrees if d > 1]
                p = min((q for q in range(2, A.order + 1) if A.order % q == 0), default=1)
                route = "table" if any(d != p for d in nonlinear) else \
                    "one degree" if nonlinear else "abelian"
                assert built == (route == "table"), (name, A.members)
                routes[route] += 1
                if A.order == G.order:
                    if name in ("S4", "A4"):
                        assert built, name
                    if name in ("D8", "Q8", "S3", "F21"):
                        assert not built and nonlinear, name
                summary.append((A.order, len(cls), sorted(types.items())))
            summaries.append(sorted(summary))
        assert summaries[0] == summaries[1], name
    assert routes == {"abelian": 408, "one degree": 156, "table": 48}, routes


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


def test_adjacent_series_requires_normal():
    G = dihedral(3)
    b = G.perm_index((0, 2, 1))
    with pytest.raises(NotNormal):
        adjacent_family_series(G, G.subgroup([b]), 10)


def test_trivial_subgroup_series_is_one(pairs):
    for name, G, A in pairs[:4]:
        series = adjacent_family_series(G, G.trivial_subgroup(), 12)
        assert series.coefficients == PowerSeries.one(12).coefficients, name


def test_burnside_equals_bruteforce_d2p():
    for p in (3, 5, 7):
        G = dihedral(p)
        a = G.perm_index(tuple((i + 1) % p for i in range(p)))
        A = G.subgroup([a])
        prof = rank_profile(G, A)
        series = adjacent_family_series(G, A, 20)
        brute = brute_label_orbit_counts(prof.dims, prof.perms, 20)
        assert list(series.coefficients) == brute, p


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
        assert series == expected, name


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
            assert global_generator_series(G, 16)[0] == total, name


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
        assert total == rep.global_series


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
        b = G.perm_index(tuple((p - i) % p for i in range(p)))
        series = burnside_label_series(rank_profile(G, G.subgroup([b])).cycle_types(), 20)
        assert series == z2_series
