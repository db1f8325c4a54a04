import json
import os
import random

import pytest

from isotypic.bundles import (EquivariantBundle, GSet, fiber_character,
                              induction_piece_character, verify_decomposition)
from isotypic.catalog import build_catalog_group
from isotypic.characters import ClassFunction, character_table
from isotypic.cli import main
from isotypic.cyclotomic import Cyclotomic, cyclotomic_to_jsonable
from isotypic.errors import NotATrivial
from isotypic.files import load_bundle_file
from isotypic.orbits import orbit_decomposition

from conftest import class_sum, conj, induced_bundle, point_gset, trivial_bundle


def rho_row(z4_pair, k):
    G, A = z4_pair
    Agrp, _ = A.as_group()
    ta = character_table(Agrp)
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    for i, row in enumerate(ta.rows):
        if row(a_loc) == Cyclotomic.root_of_unity(4, k):
            return i, row
    raise AssertionError


def test_gset_validation(d8):
    G, _ = d8
    with pytest.raises(ValueError):
        GSet(G, [[0, 1]] * (G.order - 1))
    bad = [[0, 1]] * G.order
    bad[0] = [1, 0]
    with pytest.raises(ValueError):
        GSet(G, bad)


@pytest.mark.parametrize("entry", [1.5, 1.0])
def test_gset_rejects_entries_that_are_not_integers(entry, d8):
    """A non-integer action entry is refused, not truncated to a point."""
    G, A = d8
    action = [list(row) for row in GSet.cosets(G, A).action]
    g, x = next((g, x) for g in G.elements() for x in range(2) if action[g][x] == 1)
    action[g][x] = entry
    with pytest.raises(ValueError):
        GSet(G, action)


def test_gset_cosets_and_orbits(d8):
    G, A = d8
    X = GSet.cosets(G, A)
    assert X.size == 2
    assert X.orbits() == [(0, 1)]
    assert X.stabilizer(0).members == A.members
    # stabilizers along an orbit are conjugate
    s1 = X.stabilizer(1)
    t = X.transporter_from(0, 1)
    assert s1.members == tuple(sorted(conj(G, t, h) for h in A.members))


def test_gset_point_and_union(d8):
    G, _ = d8
    X = GSet.disjoint_union([point_gset(G), GSet.cosets(G, G.subgroup([1]))])
    assert X.size == 3
    assert X.orbits() == [(0,), (1, 2)]


def test_a_triviality_predicate(d8):
    G, A = d8
    assert GSet.cosets(G, A).is_trivial_for(A)
    b = G.generators[1]
    Y = GSet.cosets(G, G.subgroup([b]))
    assert not Y.is_trivial_for(A)


def test_bundle_requires_genuine_character(d8, tmp_path, capsys):
    """A value fiber that is not a character is an input error when the file
    is loaded: bundle-verify exits 2 on the class function that is 1 on the
    identity class and 0 elsewhere (multiplicities 1/4), on chi_a - chi_b
    (a multiplicity -1) and on the one that is zeta_4 on the identity class
    and 0 elsewhere (multiplicities zeta_4/4, not rational), at the
    stabilizer Z4 of point 0."""
    data_dir = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data")
    with open(os.path.join(data_dir, "d8_rho_bundle.json")) as fh:
        data = json.load(fh)
    data["group"] = os.path.abspath(os.path.join(data_dir, "d8.json"))
    G, A = d8
    sgrp, _ = GSet.cosets(G, A).stabilizer(0).as_group()
    rows = character_table(sgrp).rows
    delta = [Cyclotomic.from_rational(sgrp.exponent, 1 if cls == (0,) else 0)
             for cls in sgrp.conjugacy_classes()]
    difference = [u + v * -1 for u, v in zip(rows[1].values, rows[2].values)]
    irrational = [Cyclotomic.root_of_unity(sgrp.exponent, 1)] + \
        [Cyclotomic.zero(sgrp.exponent)] * (len(delta) - 1)
    for values in (delta, difference, irrational):
        data["fibers"][0]["character"] = [cyclotomic_to_jsonable(v) for v in values]
        path = tmp_path / "not_a_character.json"
        path.write_text(json.dumps(data))
        assert main(["bundle-verify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert "not a genuine character" in err and "verified" not in out


def test_fiber_characters_of_induced_bundle(d8):
    G, A = d8
    _, rho = rho_row((G, A), 1)
    E = induced_bundle(G, A, rho)
    Agrp, _ = A.as_group()
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    f0 = fiber_character(E, 0)
    f1 = fiber_character(E, 1)
    # the two fibers realize rho and rho^3
    assert f0.values[f0.group.class_index(a_loc)].equals_value(Cyclotomic.root_of_unity(4, 1))
    assert f1.values[f1.group.class_index(a_loc)].equals_value(Cyclotomic.root_of_unity(4, 3))


def test_trivial_bundle_fiber_is_restriction(d8):
    G, A = d8
    t = character_table(G)
    chi = t.rows[t.degrees.index(2)]
    X = GSet.cosets(G, A)
    E = trivial_bundle(X, chi)
    for x in (0, 1):
        fib = fiber_character(E, x)
        stab = X.stabilizer(x)
        sgrp, embed = stab.as_group()
        for cls in sgrp.conjugacy_classes():
            assert fib.values[sgrp.class_index(cls[0])].equals_value(
                chi.values[G.class_index(embed[cls[0]])])


def test_not_a_trivial_raises(d8):
    G, A = d8
    b = G.generators[1]
    Y = GSet.cosets(G, G.subgroup([b]))
    sgrp, _ = Y.stabilizer(0).as_group()
    ts = character_table(sgrp)
    E = EquivariantBundle.from_multiplicities(Y, {0: [1] * len(ts.rows)})
    with pytest.raises(NotATrivial):
        verify_decomposition(E, A)


def test_example_bundle_decomposition(d8):
    G, A = d8
    _, rho = rho_row((G, A), 1)
    E = induced_bundle(G, A, rho)
    check = verify_decomposition(E, A)
    assert check.ok
    assert check.per_point == {0: [], 1: []}


def test_trivial_rank_n_bundle_decomposes(pairs):
    for name, G, A in pairs[:5]:
        X = point_gset(G)
        t = character_table(G)
        chi = class_sum([t.rows[t.trivial_index()]] * 3)
        E = trivial_bundle(X, chi)
        assert verify_decomposition(E, A).ok, name


def test_single_coset_piece_equals_isotypic_part(d8):
    """When the stabilizer is all of G the piece is V_rho (x) Hom(V_rho, E)."""
    G, A = d8
    idx2, rho2 = rho_row((G, A), 2)
    recs = orbit_decomposition(G, A)
    rec = next(r for r in recs if r.representative == idx2)
    assert rec.stabilizer.order == G.order
    t = character_table(G)
    X = point_gset(G)
    E = trivial_bundle(X, t.rows[t.degrees.index(2)])
    piece = induction_piece_character(E, A, [rec], 0)
    # rho^2 does not appear in the 2-dim irreducible's restriction, piece = 0
    assert all(v.is_zero() for v in piece.values)
    E2 = induced_bundle(G, A, rho2)
    piece2 = induction_piece_character(E2, A, [rec], 0)
    fib2 = fiber_character(E2, 0)
    assert all(a.equals_value(b) for a, b in zip(piece2.values, fib2.values))


def test_verify_decomposition_g_invariant_along_orbits(d8):
    G, A = d8
    _, rho = rho_row((G, A), 1)
    E = induced_bundle(G, A, rho)
    check = verify_decomposition(E, A)
    assert check.ok
    assert sorted(check.per_point) == list(range(E.base.size))


def test_transversal_choice_independence(d8):
    """The induced piece does not depend on which coset representatives are
    chosen: compare against a variant built from a shifted transversal."""
    G, A = d8
    idx, rho = rho_row((G, A), 1)
    E = induced_bundle(G, A, rho)
    recs = orbit_decomposition(G, A)
    rec = next(r for r in recs if r.representative == idx)
    piece = induction_piece_character(E, A, [rec], 0)

    # independent evaluation with every possible representative per coset
    from fractions import Fraction
    Agrp, aembed = A.as_group()
    ta = character_table(Agrp)
    rho_vals = ta.rows[idx].values
    d = ta.degrees[idx]
    stab_m = set(rec.stabilizer.members)
    cosets = {}
    for g in G.elements():
        key = tuple(sorted(G.mul(g, h) for h in rec.stabilizer.members))
        cosets.setdefault(key, []).append(g)
    stab0 = E.base.stabilizer(0)
    sxg, xembed = stab0.as_group()
    for choice in range(2):
        vals = []
        for cls in sxg.conjugacy_classes():
            k = xembed[cls[0]]
            total = Cyclotomic.zero(G.exponent)
            for reps in cosets.values():
                g = reps[min(choice, len(reps) - 1)]
                h = G.mul(G.mul(G.inv(g), k), g)
                if h not in stab_m:
                    continue
                y = E.base.act(G.inv(g), 0)
                fib = fiber_character(E, y)
                stab_y = E.base.stabilizer(y)
                sy_grp, _ = stab_y.as_group()
                acc = Cyclotomic.zero(G.exponent)
                for acls, rval in zip(Agrp.conjugacy_classes(), rho_vals):
                    for aa in acls:
                        a = aembed[aa]
                        acc = acc + rval.conjugate() * \
                            fib.values[sy_grp.class_index(stab_y.retract(G.mul(h, a)))]
                total = total + acc * Fraction(d, Agrp.order)
            vals.append(total)
        assert all(a.equals_value(b) for a, b in zip(vals, piece.values))


def _random_a_trivial_gset(G, A, rng):
    subs = [s for s in G.all_subgroups() if set(A.members) <= set(s.members)]
    parts = [GSet.cosets(G, rng.choice(subs)) for _ in range(rng.randrange(1, 3))]
    return GSet.disjoint_union(parts)


def _random_bundle(G, A, rng):
    X = _random_a_trivial_gset(G, A, rng)
    mults = {}
    for orb in X.orbits():
        rep = orb[0]
        sgrp, _ = X.stabilizer(rep).as_group()
        ts = character_table(sgrp)
        ms = [rng.randrange(3) for _ in ts.rows]
        if not any(ms):
            ms[rng.randrange(len(ms))] = 1
        mults[rep] = ms
    return EquivariantBundle.from_multiplicities(X, mults)


def test_redundant_fiber_storage_consistent(d8):
    """Storing the correctly transported fiber at the second point must
    verify; storing the wrong one must be flagged there."""
    G, A = d8
    idx_rho, rho = rho_row((G, A), 1)
    _, rho3 = rho_row((G, A), 3)
    base = GSet.cosets(G, A)
    good = EquivariantBundle(base, {0: rho, 1: rho3})
    assert good.anchor(1) == 1
    assert verify_decomposition(good, A).ok
    bad = EquivariantBundle(base, {0: rho, 1: rho})
    check = verify_decomposition(bad, A)
    assert not check.ok
    assert check.per_point[1]


@pytest.mark.parametrize("name", ["Q8", "D8"])
def test_redundant_fiber_checked_over_central_subgroup(name):
    """Over a central A every piece at x reads only the fiber at x, so a
    stored fiber that disagrees with the rest of its orbit is caught by
    comparing the stored data, and reported at its own point."""
    G, _ = build_catalog_group(name)
    Z = G.center()
    base = GSet.cosets(G, Z)
    sgrp, _ = base.stabilizer(0).as_group()
    table = character_table(sgrp)
    triv = table.rows[table.trivial_index()]
    sign = next(row for row in table.rows if row is not triv)
    good = EquivariantBundle(base, {0: sign, 1: sign})
    assert verify_decomposition(good, Z).ok
    bad = EquivariantBundle(base, {0: sign, 1: triv})
    check = verify_decomposition(bad, Z)
    assert not check.ok
    assert {x for x, classes in check.per_point.items() if classes} == {1}


def test_stabilizer_cached_per_point():
    """Each point's stabilizer is computed once and shared; the shipped
    bundle verifies the same with the cache cold and warm."""
    path = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data",
                        "d8_rho_bundle.json")
    bundle, _, A = load_bundle_file(path)
    base = bundle.base
    cold = verify_decomposition(bundle, A).to_jsonable()
    assert cold == {"ok": True, "per_point": {"0": [], "1": []}}
    for x in range(base.size):
        assert base.stabilizer(x) is base.stabilizer(x)
        assert base.stabilizer(x).members == tuple(
            g for g in base.group.elements() if base.act(g, x) == x)
    assert verify_decomposition(bundle, A).to_jsonable() == cold


def test_random_bundles_decompose(pairs):
    rng = random.Random(20240817)
    for name, G, A in pairs:
        if G.order > 24:
            continue
        for _ in range(10):
            E = _random_bundle(G, A, rng)
            assert verify_decomposition(E, A).ok, name


def _reference_per_point(E, A):
    """per_point of verify_decomposition computed point by point: at every
    point the pieces of every orbit on Irr(A), each from its own
    single-orbit call, summed against the fiber, then
    each redundantly stored fiber compared with its transport from the first
    stored point of its orbit."""
    from isotypic import bundles
    from isotypic.orbits import irr_orbits

    def mismatches(a, b):
        return [i for i, (u, v) in enumerate(zip(a.values, b.values)) if not u.equals_value(v)]

    records = irr_orbits(E.base.group, A)
    per_point = {}
    for x in range(E.base.size):
        fib = fiber_character(E, x)
        total = class_sum([bundles.induction_piece_character(E, A, [rec], x)
                           for rec in records])
        per_point[x] = mismatches(total, fib)
    for orb in E.base.orbits():
        stored = [x for x in orb if x in E.fibers]
        # the bundle storing only the first fiber of this orbit transports it
        first = EquivariantBundle(E.base, {y: chi for y, chi in E.fibers.items()
                                           if y not in stored[1:]})
        for x in stored[1:]:
            bad = mismatches(fiber_character(first, x), E.fibers[x])
            if bad:
                per_point[x] = sorted(set(per_point[x]) | set(bad))
    return per_point


def _sweep_bundles(G, A, rng):
    """Bundles over G/A and over G/A + G/<A, g> + a point (g the last of
    G's minimal generators): the fiber of each orbit comes from multiplicities
    at its last point and is stored again, transported, at its second point
    (its first for two points), which is then the orbit's anchor.  Yields
    (shape, bundle) for the consistent bundle and for the bundle whose last
    point of the first orbit stores one more copy of the last irreducible,
    off the anchor, as (shape, corrupted, bundle)."""
    from isotypic.groups import minimal_generators
    g = minimal_generators(G, G.elements())[-1]
    shapes = [GSet.cosets(G, A),
              GSet.disjoint_union([GSet.cosets(G, A),
                                   GSet.cosets(G, G.subgroup(list(A.members) + [g])),
                                   point_gset(G)])]
    for shape, base in enumerate(shapes):
        mults = {}
        for orb in base.orbits():
            rows = len(character_table(base.stabilizer(orb[-1]).as_group()[0]).rows)
            mults[orb[-1]] = [rng.randrange(3) for _ in range(rows)]
            mults[orb[-1]][0] += 1
        E = EquivariantBundle.from_multiplicities(base, mults)
        fibers = dict(E.fibers)
        for orb in base.orbits():
            if len(orb) > 1:
                y = orb[1] if len(orb) > 2 else orb[0]
                fibers[y] = fiber_character(E, y)
        yield shape, False, EquivariantBundle(base, fibers)
        x = base.orbits()[0][-1]
        table = character_table(base.stabilizer(x).as_group()[0])
        fibers[x] = class_sum([fibers[x], table.rows[-1]])
        yield shape, True, EquivariantBundle(base, fibers)


def _sweep_pairs():
    """Every catalog group with a distinguished normal subgroup, the other
    catalog pairs, and S4 over V4 after a relabelling of its points."""
    from isotypic.catalog import CATALOG, catalog_pairs

    from conftest import S4_GENS, relabelled_group
    pairs = [(name, *build_catalog_group(name)) for name in sorted(CATALOG)]
    pairs = [p for p in pairs if p[2] is not None]
    pairs += [p for p in catalog_pairs() if "/" in p[0]]
    S4 = relabelled_group("S4", 4, S4_GENS, random.Random(5))
    V4 = next(H for H in S4.all_subgroups() if H.order == 4 and S4.is_normal(H))
    return pairs + [("S4 relabelled", S4, V4)]


def test_orbit_anchored_verification_matches_the_point_by_point_reference():
    """verify_decomposition checks a consistent orbit at its anchor only; its
    per_point equals the point by point reference on both base shapes of every pair, for consistent
    bundles and for bundles with one disagreeing stored fiber (on orbits of
    2 to 8 points, off the anchor)."""
    rng = random.Random(23)
    large = 0
    for name, G, A in _sweep_pairs():
        for shape, corrupted, E in _sweep_bundles(G, A, rng):
            check = verify_decomposition(E, A)
            assert check.per_point == _reference_per_point(E, A), (name, shape)
            assert check.ok is not corrupted, (name, shape)
            large += corrupted and len(E.base.orbits()[0]) >= 3
    assert large


def test_an_anchor_mismatch_on_a_consistent_orbit_is_an_internal_fault(monkeypatch, capsys):
    """On a consistent orbit the pieces sum to the fiber for any input
    (column orthogonality), so a failing sum at its anchor is the package's
    own fault.  With every induction_piece_character call made one too large
    on one conjugacy class C of G, verify_decomposition raises AssertionError exactly on the
    consistent bundles where the point by point sums fail somewhere (some
    stabilizer meets C), and bundle-verify exits 5, not the exit 1 that
    blames the input."""
    from isotypic import bundles
    real = bundles.induction_piece_character
    rng = random.Random(7)
    raised = 0
    for name in ("A4", "F20", "S4"):
        G, A = build_catalog_group(name)
        for c in range(len(G.conjugacy_classes())):
            def piece(E, A, orbits, x, c=c):
                sxg, embed = E.base.stabilizer(x).as_group()
                return ClassFunction(sxg, [
                    v + 1 if G.class_index(embed[cls[0]]) == c else v
                    for cls, v in zip(sxg.conjugacy_classes(), real(E, A, orbits, x).values)])

            monkeypatch.setattr(bundles, "induction_piece_character", piece)
            for shape, corrupted, E in _sweep_bundles(G, A, rng):
                if corrupted:
                    continue
                if any(_reference_per_point(E, A).values()):
                    with pytest.raises(AssertionError, match="do not sum to it"):
                        verify_decomposition(E, A)
                    raised += 1
                else:
                    assert not any(verify_decomposition(E, A).per_point.values())
    assert raised
    path = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data",
                        "d8_rho_bundle.json")
    monkeypatch.setattr(bundles, "induction_piece_character", lambda E, A, orbits, x: ClassFunction(
        E.base.stabilizer(x).as_group()[0], [v + 1 for v in real(E, A, orbits, x).values]))
    assert main(["bundle-verify", path]) == 5
    assert capsys.readouterr().err.startswith("internal inconsistency: the isotypic pieces")


def _count_piece_calls(monkeypatch, E, A):
    """One verification of E with the piece and fiber calls counted: returns
    (the check, the point of every induction_piece_character call, the
    fiber_character calls per (piece call, point))."""
    from collections import Counter

    from isotypic import bundles
    points = []
    current = [None]  # number of the running piece call
    inside = Counter()  # (piece call, point) -> fiber_character calls
    real_fiber = bundles.fiber_character
    real_piece = bundles.induction_piece_character

    def fiber(E, y):
        if current[0] is not None:
            inside[(current[0], y)] += 1
        return real_fiber(E, y)

    def piece(E, A, orbits, x):
        points.append(x)
        current[0] = len(points)
        try:
            return real_piece(E, A, orbits, x)
        finally:
            current[0] = None

    monkeypatch.setattr(bundles, "fiber_character", fiber)
    monkeypatch.setattr(bundles, "induction_piece_character", piece)
    check = verify_decomposition(E, A)
    monkeypatch.undo()
    return check, points, inside


def test_induction_piece_transports_each_fiber_once(monkeypatch):
    """One verification of the shipped bundle calls induction_piece_character
    once per base orbit, at its anchor, with every orbit on Irr(A), and calls
    fiber_character at most once per (point, induction_piece_character
    call): the transported fiber is shared by every orbit and every class of
    Stab(x) fixing its coset."""
    path = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data",
                        "d8_rho_bundle.json")
    bundle, G, A = load_bundle_file(path)
    check, points, inside = _count_piece_calls(monkeypatch, bundle, A)
    assert check.ok
    assert sorted(points) == [next(x for x in orb if x in bundle.fibers)
                              for orb in bundle.base.orbits()]
    assert inside and max(inside.values()) == 1


def test_induction_pieces_per_point_only_on_a_disagreeing_orbit(d8, monkeypatch):
    """Over two copies of G/A, the first orbit storing one fiber and the
    second the same rho at both points (its transport is rho^3): the pieces
    are summed, in one induction_piece_character call per point, at the
    anchor of the first orbit only and at every point of the second, where
    the stored fibers disagree."""
    G, A = d8
    _, rho = rho_row((G, A), 1)
    base = GSet.disjoint_union([GSet.cosets(G, A), GSet.cosets(G, A)])
    assert base.orbits() == [(0, 1), (2, 3)]
    E = EquivariantBundle(base, {0: rho, 2: rho, 3: rho})
    check, points, inside = _count_piece_calls(monkeypatch, E, A)
    assert not check.ok and not check.per_point[0] and not check.per_point[1]
    assert sorted(points) == [0, 2, 3]
    assert max(inside.values()) == 1


def test_all_orbit_pieces_equal_the_sum_of_single_orbit_pieces():
    """On every sweep bundle and every point, induction_piece_character with
    every orbit on Irr(A), in either order, equals the ClassFunction sum of
    its single-orbit calls."""
    from isotypic.orbits import irr_orbits
    rng = random.Random(28)
    points = 0
    for name, G, A in _sweep_pairs():
        records = irr_orbits(G, A)
        for shape, corrupted, E in _sweep_bundles(G, A, rng):
            for x in range(E.base.size):
                total = class_sum([induction_piece_character(E, A, [rec], x)
                                   for rec in records])
                for order in (records, records[::-1]):
                    joint = induction_piece_character(E, A, order, x)
                    assert joint.group is total.group, (name, shape, x)
                    assert all(u.equals_value(v) for u, v in zip(joint.values, total.values)), \
                        (name, shape, corrupted, x)
                points += 1
    assert points


def test_verification_makes_one_dot_per_class_of_each_checked_point(monkeypatch):
    """Loading and verifying the shipped bundle makes exactly one exact sum
    (cyclotomic.dot) per class of each stored fiber's stabilizer, in
    from_multiplicities, and one per class of each checked point's
    stabilizer: the anchor of each base orbit, where every orbit on Irr(A)
    is summed at once."""
    from isotypic import bundles
    path = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data",
                        "d8_rho_bundle.json")
    calls = {"dot": 0}
    real_dot = bundles.dot

    def dot(*args, **kwargs):
        calls["dot"] += 1
        return real_dot(*args, **kwargs)

    monkeypatch.setattr(bundles, "dot", dot)
    bundle, G, A = load_bundle_file(path)
    loaded = calls["dot"]
    assert verify_decomposition(bundle, A).ok

    def classes(x):
        return len(bundle.base.stabilizer(x).as_group()[0].conjugacy_classes())

    anchors = [next(x for x in orb if x in bundle.fibers) for orb in bundle.base.orbits()]
    assert len(orbit_decomposition(G, A)) > 1
    assert loaded == sum(classes(x) for x in bundle.fibers)
    assert calls["dot"] - loaded == sum(classes(x) for x in anchors)


def test_verification_scans_cosets_once_per_member_set(monkeypatch):
    """Every transversal of one verification of the shipped bundle is read
    off the cached coset table of conjugation_action: each member set is
    scanned at most once, and the induced pieces ask for the table of each
    orbit's stabilizer."""
    from collections import Counter

    from isotypic.groups import FiniteGroup
    path = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data",
                        "d8_rho_bundle.json")
    bundle, G, A = load_bundle_file(path)
    scans, asked = Counter(), set()
    real = FiniteGroup.conjugation_action

    def counted(self, H):
        if H.members not in self._conjugation:
            scans[(id(self), H.members)] += 1
        asked.add((id(self), H.members))
        return real(self, H)

    monkeypatch.setattr(FiniteGroup, "conjugation_action", counted)
    assert verify_decomposition(bundle, A).ok
    assert verify_decomposition(bundle, A).ok
    assert scans and max(scans.values()) == 1
    from isotypic.orbits import irr_orbits
    assert {(id(G), orbit.stabilizer.members) for orbit in irr_orbits(G, A)} <= asked


def test_bundle_verification_runs_no_float_code(pairs, monkeypatch, capsys):
    """Bundle verification needs only the orbits and their stabilizers: with
    the float layer made to raise, every catalog pair and the shipped bundle
    still verify, and bundle-verify prints the same JSON."""
    from isotypic import cli, orbits, repmatrices
    path = os.path.join(os.path.dirname(__file__), "..", "src", "isotypic", "data",
                        "d8_rho_bundle.json")
    assert cli.main(["--format", "json", "bundle-verify", path]) == 0
    expected = capsys.readouterr().out

    def float_layer(*args, **kwargs):
        raise AssertionError("bundle verification reached the float layer")

    for module in (repmatrices, orbits):
        for name in ("matrix_irreps", "intertwiner", "obstruction_cocycle"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, float_layer)
    rng = random.Random(8)
    for name, G, A in pairs:
        E = _random_bundle(G, A, rng)
        assert verify_decomposition(E, A).ok, name
    bundle, G, A = load_bundle_file(path)
    assert verify_decomposition(bundle, A).ok
    assert cli.main(["--format", "json", "bundle-verify", path]) == 0
    assert capsys.readouterr().out == expected


# -- the action law is checked on generators only ----------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import dihedral  # noqa: E402

_GSET_GROUPS = [dihedral(3), build_catalog_group("D8")[0], build_catalog_group("Q8")[0],
                build_catalog_group("A4")[0]]


def _reference_is_action(G, action):
    """Whether a table is a G-action, by the full |G|^2 check of the law."""
    size = len(action[0])
    if any(len(row) != size or any(not 0 <= y < size for y in row) for row in action):
        return False
    if list(action[0]) != list(range(size)):
        return False
    return all(action[G.mul(g, h)][x] == action[g][action[h][x]]
               for g in G.elements() for h in G.elements() for x in range(size))


@settings(max_examples=150)
@given(st.data())
def test_gset_accepts_exactly_the_group_actions(data):
    """GSet checks the action law for the generators only; it must accept a
    table iff the full check over every pair of elements does."""
    G = data.draw(st.sampled_from(_GSET_GROUPS))
    subs = G.all_subgroups()
    parts = [GSet.cosets(G, data.draw(st.sampled_from(subs)))
             for _ in range(data.draw(st.integers(1, 2)))]
    action = [list(row) for row in GSet.disjoint_union(parts).action]
    size = len(action[0])
    for _ in range(data.draw(st.integers(0, 2))):
        kind = data.draw(st.sampled_from(["entry", "relabel points", "conjugate rows",
                                          "permute rows", "move cosets of <c>",
                                          "swap points in a row"]))
        if kind == "entry":
            g = data.draw(st.integers(0, G.order - 1))
            action[g][data.draw(st.integers(0, size - 1))] = data.draw(st.integers(-1, size))
        elif kind == "relabel points":  # sigma o action[g] o sigma^-1: still an action
            sigma = data.draw(st.permutations(range(size)))
            new = [[0] * size for _ in action]
            for g, row in enumerate(action):
                for x in range(size):
                    new[g][sigma[x]] = sigma[row[x]] if 0 <= row[x] < size else row[x]
            action = new
        elif kind == "conjugate rows":  # action[t g t^-1]: still an action
            t = data.draw(st.integers(0, G.order - 1))
            action = [action[conj(G, t, g)] for g in G.elements()]
        elif kind == "permute rows":  # identity row kept, the rest shuffled
            rest = data.draw(st.permutations(range(1, G.order)))
            action = [action[0]] + [action[g] for g in rest]
        elif kind == "move cosets of <c>":
            # action[phi(g)] with phi(g c) = phi(g) c and phi(c) = c keeps the
            # law for c and for no generator outside <c>, as a rule
            c = data.draw(st.integers(1, G.order - 1))
            coset_of, reps, _ = G.conjugation_action(G.subgroup([c]))
            pi = [0] + data.draw(st.permutations(range(1, len(reps))))
            action = [action[G.mul(reps[pi[coset_of[g]]], G.mul(G.inv(reps[coset_of[g]]), g))]
                      for g in G.elements()]
        else:
            g = data.draw(st.integers(0, G.order - 1))
            x, y = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
            action[g][x], action[g][y] = action[g][y], action[g][x]
    try:
        X = GSet(G, action)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _reference_is_action(G, action)
    if accepted:
        _check_origin_table(G, X)


def _check_origin_table(G, X):
    """Orbits and transporters of an accepted G-set against brute force."""
    orbits = sorted({tuple(sorted({X.act(g, x) for g in G.elements()}))
                     for x in range(X.size)})
    assert X.orbits() == orbits
    for orb in orbits:
        for x in orb:
            assert X.transporter_from(orb[0], x) == min(g for g in G.elements() if X.act(g, orb[0]) == x)
            for y in orb:
                assert X.act(X.transporter_from(x, y), x) == y
