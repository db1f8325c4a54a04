"""Acceptance criteria, one test per criterion, each with a pass/fail line.

Every tolerance is pinned here: character identities are exact (zero
tolerance), the two timed suites must finish inside their budgets, and the
series comparisons are exact integer equality.
"""

import os
import random
import time

from isotypic.bordism import (adjacent_family_series, d2p_certify,
                              enumerate_arrays, omega_generator_series,
                              rank_profile, PowerSeries)
from isotypic.bundles import EquivariantBundle, GSet, verify_decomposition
from isotypic.catalog import CATALOG, build_catalog_group, catalog_pairs
from isotypic.characters import character_table, inner_product
from isotypic.cyclotomic import Cyclotomic
from isotypic.files import load_bundle_file
from isotypic.orbits import (irr_action, k_decomposition_report,
                             orbit_decomposition)

from conftest import brute_label_orbit_counts, brute_partitions, dihedral

DATA = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                    "src", "isotypic", "data"))


def report(n, ok, text):
    print("ACCEPTANCE %d: %s - %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok


def test_criterion_1_character_table_exactness():
    """Row/column orthogonality and sum of squared degrees, zero tolerance,
    full catalog, under 30 seconds."""
    t0 = time.monotonic()
    for name in sorted(CATALOG):
        G, _ = build_catalog_group(name)
        assert G.order <= 64
        table = character_table(G)
        e = G.exponent
        rows = table.rows
        assert sum(d * d for d in table.degrees) == G.order, name
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                want = Cyclotomic.from_rational(e, 1 if i == j else 0)
                assert inner_product(ri, rj) == want, (name, i, j)
        r = len(rows)
        for a in range(r):
            for b in range(r):
                s = Cyclotomic.zero(e)
                for row in rows:
                    s = s + row.values[a] * row.values[b].conjugate()
                if a == b:
                    assert s == Cyclotomic.from_rational(e, G.order // table.class_sizes[a])
                else:
                    assert s.is_zero(), (name, a, b)
    elapsed = time.monotonic() - t0
    report(1, elapsed < 30.0,
           "exact orthogonality for %d catalog groups in %.1fs (< 30s)"
           % (len(CATALOG), elapsed))


def test_criterion_2_worked_example_reproduction():
    """(D8, Z/4): the four linear characters with rho(a) = i, the swap
    rho <-> rho^3, the three orbits, and the shipped two-point bundle."""
    G, A = build_catalog_group("D8")
    Agrp = A.as_group()
    ta = character_table(Agrp)
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    idx = {}
    for i, row in enumerate(ta.rows):
        for k in range(4):
            if row(a_loc) == Cyclotomic.root_of_unity(4, k):
                idx[k] = i
    ok = len(ta.rows) == 4 and set(idx) == {0, 1, 2, 3}

    b = next(g for g in G.elements()
             if g not in A and G.element_order(g) == 2)
    ok = ok and irr_action(G, A, b, idx[1]) == idx[3]
    ok = ok and irr_action(G, A, b, idx[3]) == idx[1]

    recs = orbit_decomposition(G, A)
    orbits = {rec.orbit for rec in recs}
    ok = ok and orbits == {frozenset({idx[0]}), frozenset({idx[2]}),
                           frozenset({idx[1], idx[3]})}

    bundle, Gf, Af = load_bundle_file(os.path.join(DATA, "d8_rho_bundle.json"))
    check = verify_decomposition(bundle, Af)
    ok = ok and check.ok
    report(2, ok, "Irr(Z/4), the swap, the orbits, and the shipped bundle all match")


def test_criterion_3_rank_identity_both_routes():
    """|Irr(G)| = sum of twisted counts for every catalog pair, with the
    restriction-fiber count and the omega-regular count in exact agreement."""
    checked = []
    for name, G, A in catalog_pairs():
        rep = k_decomposition_report(G, A)
        assert rep.consistent, (name, rep.discrepancies)
        assert rep.total_irr_g == rep.sum_of_counts, name
        for rec in rep.records:
            assert rec.twisted_count == rec.omega_regular, name
        checked.append(name)
        if name == "D8":
            assert sorted(r.twisted_count for r in rep.records) == [1, 2, 2]
        if name == "Q8":
            assert sorted(r.twisted_count for r in rep.records) == [1, 4]
    report(3, True, "rank identity holds on both routes for %d pairs (%s)"
           % (len(checked), ", ".join(checked)))


def test_criterion_4_obstruction_consistency():
    """The exact character-level extension criterion agrees with the snapped
    cocycle data everywhere; the Q8-center case is nontrivial with exactly
    one omega-regular class on Z/2 x Z/2."""
    q8_seen = False
    for name, G, A in catalog_pairs():
        for rec in orbit_decomposition(G, A):
            regular_matches_classes = (
                rec.omega_regular == len(rec.obstruction.quotient.conjugacy_classes()))
            assert rec.obstruction.trivial == regular_matches_classes, (
                name, rec.representative)
        if name == "Q8":
            recs = orbit_decomposition(G, A)
            nontriv = [r for r in recs if not r.obstruction.trivial]
            assert len(nontriv) == 1
            rec = nontriv[0]
            Q = rec.obstruction.quotient
            assert Q.order == 4 and Q.is_abelian
            assert all(Q.element_order(x) == 2 for x in range(1, 4))
            assert rec.omega_regular == 1
            q8_seen = True
    report(4, q8_seen, "extension criterion consistent with cocycle data; "
                       "Q8 center yields 1 regular class on Z/2 x Z/2")


def _random_a_trivial_gset(G, A, rng, subs):
    parts = [GSet.cosets(G, rng.choice(subs)) for _ in range(rng.randrange(1, 3))]
    return GSet.disjoint_union(parts)


def test_criterion_5_bundle_property_suite():
    """100 randomized bundles per catalog pair over random A-trivial G-sets,
    exact fiberwise equality, under 60 seconds total."""
    t0 = time.monotonic()
    rng = random.Random(0x5EED)
    total = 0
    for name, G, A in catalog_pairs():
        subs = [s for s in G.all_subgroups() if set(A.members) <= set(s.members)]
        for _ in range(100):
            X = _random_a_trivial_gset(G, A, rng, subs)
            mults = {}
            for orb in X.orbits():
                rep = orb[0]
                sgrp = X.stabilizer(rep).as_group()
                nrows = len(character_table(sgrp).rows)
                ms = [rng.randrange(3) for _ in range(nrows)]
                if not any(ms):
                    ms[rng.randrange(nrows)] = 1
                mults[rep] = ms
            E = EquivariantBundle.from_multiplicities(X, mults)
            check = verify_decomposition(E, A)
            assert check.ok, (name, mults)
            total += 1
    elapsed = time.monotonic() - t0
    report(5, elapsed < 60.0,
           "%d random bundles decomposed exactly in %.1fs (< 60s)" % (total, elapsed))


def test_criterion_6_burnside_vs_bruteforce():
    """Adjacent-family series equals exhaustive orbit enumeration for
    (D2p, Z/p) with p in {3,5,7} and (Z/4, Z/2), all degrees up to 20."""
    cases = []
    for p in (3, 5, 7):
        G = dihedral(p)
        a = G.generators[0]
        A = G.subgroup([a])
        cases.append(("D%d" % (2 * p), G, A))
    Z4, A2 = build_catalog_group("Z4")
    cases.append(("Z4", Z4, A2))
    for label, G, A in cases:
        prof = rank_profile(G, A)
        series = adjacent_family_series(G, A, 20)
        brute = brute_label_orbit_counts(prof.dims, prof.perms, 20)
        assert list(series.coefficients) == brute, label
    report(6, True, "Burnside series equals brute-force orbit counts for "
                    "D6, D10, D14, and Z/4 up to degree 20")


def test_criterion_7_dihedral_certification():
    """d2p_certify for p in {3,5,7,11} to degree 40: zero odd coefficients,
    nonnegative even ones, and degree-0 equal to the 4 subgroup classes."""
    for p in (3, 5, 7, 11):
        rep = d2p_certify(p, 40)
        assert rep.odd_vanishing, p
        assert all(c >= 0 for c in rep.global_series.coefficients), p
        assert rep.degree_zero == 4, p
        assert rep.subgroup_class_count == 4, p
    report(7, True, "dihedral certification: odd vanishing and degree-0 = 4 "
                    "for p in {3, 5, 7, 11} up to degree 40")


def test_criterion_8_generating_function_oracles():
    """Array counts match the product generating function for k <= 30 on
    every catalog subgroup profile; coefficient ring ranks match the
    partition function up to degree 100 (k <= 50 partitions)."""
    profiles = {}
    for name, G, A in catalog_pairs():
        prof = rank_profile(G, A)
        profiles[tuple(sorted(prof.dims))] = prof
    for dims_key, prof in sorted(profiles.items()):
        series = PowerSeries.one(30)
        for d in prof.dims:
            series = series * PowerSeries([1 if n % d == 0 else 0 for n in range(31)])
        for k in range(31):
            assert len(enumerate_arrays(prof, k)) == series.coefficient(k), dims_key

    omega = omega_generator_series(100)
    for k in range(51):
        assert omega.coefficient(2 * k) == len(brute_partitions(k)), k
    for n in range(1, 100, 2):
        assert omega.coefficient(n) == 0
    report(8, True, "array counts match the product series (k <= 30) and "
                    "coefficient ranks match the partition function (degree <= 100)")
