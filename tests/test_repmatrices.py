import cmath
import dataclasses
import math
import random
import time
import tracemalloc
from math import lcm

import numpy as np
import pytest

from isotypic.catalog import build_catalog_group
from isotypic.characters import character_table, determinant_character_value
from isotypic.cyclotomic import Cyclotomic
from isotypic.errors import (CapExceeded, NonScalar, NotStabilized,
                             NumericalDegeneracy, SnapFailure, SplitFailure)
from isotypic.groups import FiniteGroup, group_from_generators
from isotypic import repmatrices
from isotypic.orbits import irr_orbits, k_decomposition_report, orbit_decomposition
from isotypic.repmatrices import (SNAP_TOL, TOL, _check_rep, _det_normalize, _within,
                                  check_cocycle, intertwiner, matrix_irreps,
                                  obstruction_cocycle, stabilizer_of_character)

from conftest import S3_GENS, S4_GENS, dihedral, direct_product, relabelled_group


def _all_irreps(G):
    """matrix_irreps of every row of G's character table, in row order."""
    return matrix_irreps(G, range(len(character_table(G))))


def test_z4_matrix_irreps_are_fourth_roots(z4):
    G, _ = z4
    reps = _all_irreps(G)
    assert [r.dimension for r in reps] == [1, 1, 1, 1]
    a = G.perm_index((1, 2, 3, 0))
    images = [complex(r.images[a][0, 0]) for r in reps]
    expected = {1, 1j, -1, -1j}
    assert all(min(abs(v - w) for w in expected) < 1e-9 for v in images)
    assert len({round(v.real, 6) + 1j * round(v.imag, 6) for v in images}) == 4


def test_trivial_group_single_rep():
    G = group_from_generators(1, [[0]])
    reps = _all_irreps(G)
    assert len(reps) == 1 and reps[0].dimension == 1
    assert reps[0].images[0][0, 0] == pytest.approx(1)


def test_q8_rep_dimensions(q8):
    G, _ = q8
    reps = _all_irreps(G)
    assert sorted(r.dimension for r in reps) == [1, 1, 1, 1, 2]
    assert sum(r.dimension ** 2 for r in reps) == 8


def test_rep_invariants_homomorphism_unitarity_trace(d8):
    G, _ = d8
    for rep in _all_irreps(G):
        d = rep.dimension
        for g in G.elements():
            M = rep.images[g]
            assert np.linalg.norm(M @ M.conj().T - np.eye(d), 2) <= 1e-8
            for h in G.elements():
                assert np.linalg.norm(M @ rep.images[h] - rep.images[G.mul(g, h)], 2) <= 1e-8
            assert abs(np.trace(M) - rep.character(g).to_complex()) <= 1e-6


def _faithful_irrep(G):
    """An irrep of largest degree: faithful for D8 (degree 2), S4 (3) and
    S5 (6)."""
    return max(_all_irreps(G), key=lambda r: r.dimension)


def _s5():
    return group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], name="S5")


def _check_rep_case(name):
    """G and its faithful irrep.  D8's and S4's models fit in one block of
    _check_rep; the residuals of all pairs of S5's degree-6 model exceed
    the buffer of one block, so it spans more than one."""
    G = _s5() if name == "S5" else build_catalog_group(name)[0]
    rep = _faithful_irrep(G)
    if name == "S5":
        assert G.order ** 2 * rep.images[0].nbytes > repmatrices._CHECK_BYTES
    return G, rep


CHECK_REP_GROUPS = ["D8", "S4", "S5"]


@pytest.mark.parametrize("name", CHECK_REP_GROUPS)
def test_check_rep_passes_a_genuine_irrep(name):
    G, rep = _check_rep_case(name)
    _check_rep(rep, np.array(G._rows))


@pytest.mark.parametrize("name", CHECK_REP_GROUPS)
def test_check_rep_rejects_a_scaled_image(name):
    G, rep = _check_rep_case(name)
    images = rep.images.copy()
    images[G.order // 2] *= 1.001
    with pytest.raises(SplitFailure, match="not unitary"):
        _check_rep(dataclasses.replace(rep, images=images), np.array(G._rows))


@pytest.mark.parametrize("name", CHECK_REP_GROUPS)
def test_check_rep_rejects_swapped_images(name):
    """Swapping the images of the two highest-index elements keeps every
    image unitary; only pairs involving them see the fault, so a check that
    samples pairs can miss it.  S5's model spans several blocks of g (one g
    each at 2^17 bytes); its first block holds only the identity, against
    which every pair passes, so a check that stops after its first block
    misses the fault."""
    G, rep = _check_rep_case(name)
    last = G.order - 1
    images = rep.images.copy()
    images[[last - 1, last]] = images[[last, last - 1]]
    assert not np.array_equal(images, rep.images)
    with pytest.raises(SplitFailure, match="homomorphism residual"):
        _check_rep(dataclasses.replace(rep, images=images), np.array(G._rows))


@pytest.mark.parametrize("name", CHECK_REP_GROUPS)
def test_a_non_finite_residual_is_a_typed_failure(name):
    """A NaN or infinite entry never reaches the SVD: _within rejects the
    stack, _check_rep raises SplitFailure and intertwiner, whose averaging
    projection is then not finite, NumericalDegeneracy."""
    assert not _within(np.full((2, 2, 2), np.nan, dtype=complex))
    assert not _within(np.full((1, 2, 2), np.inf, dtype=complex))
    G, rep = _check_rep_case(name)
    images = rep.images.copy()
    images[G.order // 2] = np.nan
    broken = dataclasses.replace(rep, images=images)
    with pytest.raises(SplitFailure):
        _check_rep(broken, np.array(G._rows))
    with pytest.raises(NumericalDegeneracy):
        intertwiner(broken, broken)


def _dense_reference_images(G):
    """The images matrix_irreps builds, from the dense left regular
    representation: |G| matrices of size |G| x |G|, the regular matrix of
    e_chi summed matrix by matrix and applied to e_lambda, each y e taken as
    reg[y] e, and each image as W^H reg[g] W.  lambda comes from the search
    matrix_irreps makes, which reads no regular matrix."""
    n = G.order
    reg = []
    for g in range(n):
        M = np.zeros((n, n), dtype=complex)
        for h in range(n):
            M[G.mul(g, h), h] = 1.0
        reg.append(M)
    table = character_table(G)
    out = []
    for row, d in zip(table.rows, table.degrees):
        values = np.array([row(g).to_complex() for g in G.elements()])
        if d == 1:
            out.append(values.reshape(n, 1, 1))
            continue
        P = np.zeros((n, n), dtype=complex)
        for g in G.elements():
            P += values[g].conjugate() * reg[g]
        P *= d / n
        e = P @ repmatrices._multiplicity_one_idempotent(G, values, np.array(G._rows))
        W = np.zeros((n, 0), dtype=complex)
        for y in G.elements():
            v = reg[y] @ e
            v -= W @ (W.conj().T @ v)
            norm = np.linalg.norm(v)
            if norm * norm > 0.5 / n:
                W = np.column_stack([W, v / norm])
                if W.shape[1] == d:
                    break
        else:
            pytest.fail("reference ideal of a degree-%d character is too small" % d)
        out.append(np.array([W.conj().T @ reg[g] @ W for g in G.elements()]))
    return out


@pytest.mark.parametrize("name", ["D8", "Q8", "S4", "F21", "S3xS3-relabelled"])
def test_images_equal_the_dense_regular_construction(name):
    """Gathering over the group table gives bit-identical images to the
    construction from dense regular matrices."""
    if name == "S3xS3-relabelled":
        G = relabelled_group("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3),
                             random.Random(11))
    else:
        G, _ = build_catalog_group(name)
    reps = _all_irreps(G)
    reference = _dense_reference_images(G)
    assert len(reps) == len(reference)
    for rep, ref in zip(reps, reference):
        assert rep.images.shape == (G.order, rep.dimension, rep.dimension)
        assert np.array_equal(rep.images, ref)


def test_matrix_irreps_memory_below_cubic_s5():
    """matrix_irreps(S5) peaks below 8 |G|^3 bytes, half of what |G| dense
    complex |G| x |G| regular matrices alone would take."""
    G = _s5()
    character_table(G)
    tracemalloc.start()
    try:
        reps = _all_irreps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(r.dimension for r in reps) == [1, 1, 4, 4, 5, 5, 6]
    assert peak < 8 * G.order ** 3


def test_matrix_irreps_time_and_memory_at_order_256():
    """At the order cap, D8xD8xZ2xZ2 splits into its 100 irreps in bounded
    time, and the traced peak stays below 16 MiB, a sixteenth of what |G|
    dense complex |G| x |G| regular matrices alone would take (the peak,
    about 4 MB, is matrix_irreps' |G| x |G| gathers)."""
    D8 = [[1, 2, 3, 0], [3, 2, 1, 0]]
    gens = direct_product(direct_product(D8, 4, D8, 4), 8, [[1, 0]], 2)
    G = group_from_generators(12, direct_product(gens, 10, [[1, 0]], 2), name="D8xD8xZ2xZ2")
    assert G.order == repmatrices.MATRIX_IRREPS_CAP == 256
    character_table(G)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        reps = _all_irreps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert len(reps) == 100
    assert sum(r.dimension ** 2 for r in reps) == G.order
    assert elapsed < 30, elapsed
    assert peak < 16 * 2 ** 20, peak


def test_matrix_irreps_cap(monkeypatch):
    G = dihedral(5)
    monkeypatch.setattr(repmatrices, "MATRIX_IRREPS_CAP", 5)
    with pytest.raises(CapExceeded):
        matrix_irreps(G, [0])


def test_intertwiner_self_is_scalar(d8):
    G, _ = d8
    reps = _all_irreps(G)
    two = next(r for r in reps if r.dimension == 2)
    U = intertwiner(two, two)
    # Schur: any self-intertwiner is a unitary scalar
    offdiag = U - U[0, 0] * np.eye(2)
    assert np.linalg.norm(offdiag, 2) < 1e-8
    assert abs(abs(U[0, 0]) - 1) < 1e-8


def test_intertwiner_between_conjugate_linear_reps(d8):
    G, A = d8
    Agrp, embed = A.as_group()
    reps = _all_irreps(Agrp)
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rho = next(r for r in reps if r.character(a_loc) == Cyclotomic.root_of_unity(4, 1))
    rho3 = next(r for r in reps if r.character(a_loc) == Cyclotomic.root_of_unity(4, 3))
    b = G.perm_index((0, 3, 2, 1))
    binv = G.inv(b)
    conj_map = [A.retract(G.mul(G.mul(binv, embed[x]), b)) for x in Agrp.elements()]
    b_rho = rho.conjugated(conj_map)
    # b . rho is isomorphic to rho^3 (1x1: equality of characters)
    assert intertwiner(b_rho, rho3) is not None
    assert intertwiner(rho, rho3) is None  # distinct characters


def test_stabilizer_of_character(d8):
    G, A = d8
    Agrp, _ = A.as_group()
    ta = character_table(Agrp)
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rho = next(r for r in ta.rows if r(a_loc) == Cyclotomic.root_of_unity(4, 1))
    rho2 = next(r for r in ta.rows if r(a_loc) == Cyclotomic.from_rational(4, -1))
    assert stabilizer_of_character(G, A, rho).members == A.members
    assert stabilizer_of_character(G, A, rho2).members == tuple(G.elements())


def _conjugated_values(G, A, chi, g):
    """Values of (g . chi)(a) = chi(g^-1 a g) in A-class order."""
    Agrp, embed = A.as_group()
    ginv = G.inv(g)
    vals = []
    for cls in Agrp.conjugacy_classes():
        x = G.mul(G.mul(ginv, embed[cls[0]]), g)
        vals.append(chi.values[Agrp.class_index(A.retract(x))])
    return tuple(vals)


def test_stabilizer_of_character_equals_full_scan(pairs):
    """One test per coset of A gives the stabilizer a scan of all of G gives."""
    for name, G, A in pairs:
        Agrp, _ = A.as_group()
        for chi in character_table(Agrp).rows:
            full = tuple(g for g in G.elements()
                         if _conjugated_values(G, A, chi, g) == chi.values)
            assert stabilizer_of_character(G, A, chi).members == full, name


def _obstruction_for(G, A, predicate):
    """The obstruction record of the first row of A's table that predicate
    accepts."""
    rows = character_table(A.as_group()[0]).rows
    rho = next(i for i, chi in enumerate(rows) if predicate(chi))
    return obstruction_cocycle(stabilizer_of_character(G, A, rows[rho]), A, rho)


def test_d8_rho2_extends(d8):
    G, A = d8
    Agrp, _ = A.as_group()
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rec = _obstruction_for(G, A, lambda chi: chi(a_loc) == Cyclotomic.from_rational(4, -1))
    assert rec.stabilizer.order == 8
    assert rec.quotient.order == 2
    assert rec.trivial, "rho^2 extends: a -> -1, b -> 1 is an extension"


def test_d8_rho_has_trivial_quotient(d8):
    G, A = d8
    Agrp, _ = A.as_group()
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rec = _obstruction_for(G, A, lambda chi: chi(a_loc) == Cyclotomic.root_of_unity(4, 1))
    assert rec.stabilizer.members == A.members
    assert rec.quotient.order == 1
    assert rec.omega == ((0,),)
    assert rec.trivial


def test_q8_center_obstruction_nontrivial(q8):
    G, Z = q8
    Zgrp, _ = Z.as_group()
    rec = _obstruction_for(G, Z, lambda chi: chi.values[1].rational() == -1)
    assert rec.quotient.order == 4
    assert not rec.trivial
    assert rec.modulus == 2
    # the klein four quotient with this cocycle has exactly one regular class
    from isotypic.orbits import omega_regular_count
    assert omega_regular_count(rec.quotient, rec.omega, rec.modulus) == 1


def test_cocycle_identity_and_normalization_exact(pairs):
    from isotypic.orbits import orbit_decomposition
    for name, G, A in pairs:
        if G.order > 24:
            continue
        for rec in orbit_decomposition(G, A):
            obs = rec.obstruction
            Q = obs.quotient
            m = Q.order
            for q in range(m):
                assert obs.omega[0][q] == 0 and obs.omega[q][0] == 0
            for q1 in range(m):
                for q2 in range(m):
                    for q3 in range(m):
                        lhs = (obs.omega[q1][q2] + obs.omega[Q.mul(q1, q2)][q3]) % obs.modulus
                        rhs = (obs.omega[q1][Q.mul(q2, q3)] + obs.omega[q2][q3]) % obs.modulus
                        assert lhs == rhs, name


def test_determinant_one_intertwiners(pairs):
    """On every orbit that needs a matrix model, the intertwiner of each
    coset representative of Q_rho, rescaled as obstruction_cocycle does, has
    determinant 1."""
    checked = 0
    for name, G, A in pairs:
        if G.order > 24:
            continue
        coset_of, _, maps = G.conjugation_action(A)
        for rho, stab, rep in _float_orbits(G, A):
            section = obstruction_cocycle(stab, A, rho).section
            for g in section[1:]:
                U = _det_normalize(intertwiner(rep.conjugated(maps[coset_of[g]]), rep))
                assert abs(np.linalg.det(U) - 1) <= 1e-8, name
                checked += 1
    assert checked


def test_omega_reproducible_bit_identical(q8):
    G, Z = q8

    def run():
        return _obstruction_for(G, Z, lambda chi: chi.values[1].rational() == -1).omega

    assert run() == run()


def _float_orbits(G, A):
    """(row, stabilizer, matrix model) of every orbit of G on Irr(A) with
    rho(1) >= 2 and G_rho/A nontrivial, the models built before the call
    returns."""
    Agrp, _ = A.as_group()
    degrees = character_table(Agrp).degrees
    return [(rho, stab, matrix_irreps(Agrp, [rho])[0]) for rho, _, stab in irr_orbits(G, A)
            if degrees[rho] > 1 and stab.order > A.order]


def test_obstruction_makes_no_random_draw(monkeypatch):
    """The decomposition, matrix_irreps included, asks for no random
    generator on S4xS3 over S4 (Q_rho = S3 on three float orbits) and S5 over
    A5 (Q_rho of order 2 on two); two intertwiner calls on the same pair
    return bit-identical matrices, and two freshly built S5 give the same
    omega tables over A5."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was requested")

    monkeypatch.setattr(np.random, "default_rng", no_draw)

    def s5_over_a5():
        S5 = _s5()
        return S5, S5.subgroup([S5.perm_index(p) for p in ([1, 2, 0, 3, 4], [0, 1, 3, 4, 2])])

    S4xS3 = group_from_generators(7, direct_product(S4_GENS, 4, S3_GENS, 3), name="S4xS3")
    S4 = S4xS3.subgroup([S4xS3.perm_index(p) for p in direct_product(S4_GENS, 4, [], 3)])
    S5, A5 = s5_over_a5()
    for G, A in [(S4xS3, S4), (S5, A5)]:
        assert k_decomposition_report(G, A).consistent
    cases = [(S4, orbit) for orbit in _float_orbits(S4xS3, S4)]
    cases += [(A5, orbit) for orbit in _float_orbits(S5, A5)]
    assert sorted(stab.order // A.order for A, (_, stab, _) in cases) == [2, 2, 6, 6, 6]
    for A, (rho, stab, rep) in cases:
        rec = obstruction_cocycle(stab, A, rho)
        coset_of, _, maps = stab.parent.conjugation_action(A)
        rho_g = rep.conjugated(maps[coset_of[rec.section[1]]])
        U = intertwiner(rho_g, rep)
        assert np.array_equal(U, intertwiner(rho_g, rep))
        assert _within(U @ rho_g.images @ U.conj().T - rep.images)
    omegas = [[rec.obstruction.omega for rec in orbit_decomposition(*s5_over_a5())]
              for _ in range(2)]
    assert omegas[0] == omegas[1]


def test_pair_subgroup_models_the_degree_four_irrep_of_d8xd8():
    """No cyclic subgroup of D8xD8 carries a linear character of multiplicity
    one in the degree-4 irreducible chi = rho2 x rho2 (chi vanishes off the
    center, where it is +-4), so its model is cut out on a subgroup <h, k>
    that is not cyclic, and passes _check_rep."""
    D8 = [[1, 2, 3, 0], [3, 2, 1, 0]]
    G = group_from_generators(8, direct_product(D8, 4, D8, 4), name="D8xD8")
    table = character_table(G)
    chi = table.rows[table.degrees.index(4)]
    for h in G.elements():
        powers = [0]
        while G.mul(powers[-1], h) != 0:
            powers.append(G.mul(powers[-1], h))
        m = len(powers)
        for j in range(m):
            inner = sum(chi(x).to_complex() * cmath.exp(-2j * math.pi * i * j / m)
                        for i, x in enumerate(powers)) / m
            assert round(inner.real) != 1, (h, j)
    values = np.array([chi(g).to_complex() for g in G.elements()])
    H = np.flatnonzero(repmatrices._multiplicity_one_idempotent(G, values, np.array(G._rows)))
    assert all(G.element_order(int(x)) < len(H) for x in H)
    rep = next(r for r in _all_irreps(G) if r.character == chi)
    _check_rep(rep, np.array(G._rows))


def _extraspecial_2_1_6():
    """2^{1+6}_+ = D8 o D8 o D8: element z * 64 + v for z in Z2 and v in
    F2^6, with (z, v)(w, u) = (z + w + beta(v, u), v + u) and beta(v, u) =
    v0 u1 + v2 u3 + v4 u5.  The basis vectors square to 1, and e0, e1 (and
    e2, e3 and e4, e5) commute to the central z = 64."""
    def beta(v, u):
        return sum((v >> 2 * i) & (u >> (2 * i + 1)) & 1 for i in range(3)) % 2
    return FiniteGroup([[((z + w + beta(v, u)) % 2) * 64 + (v ^ u)
                         for w in (0, 1) for u in range(64)]
                        for z in (0, 1) for v in range(64)], name="2^(1+6)+")


def test_maximal_abelian_subgroup_models_the_degree_eight_irrep_of_2_1_6():
    """The degree-8 irreducible chi of 2^{1+6}_+ is 8 at 1, -8 at z and 0
    elsewhere, and every square is 1 or z.  So an abelian <h, k> has order
    at most 8, with <Res chi, lambda> = 16/|H| if z is in H and 8/|H| if not
    (|H| <= 4), never 1: no pair carries a multiplicity-one lambda.  The
    model is cut out on a maximal abelian subgroup, of order 16, and passes
    _check_rep."""
    G = _extraspecial_2_1_6()
    z = 64
    assert G.center().members == (0, z)
    assert {G.mul(g, g) for g in G.elements()} == {0, z}
    table = character_table(G)
    chi = table.rows[table.degrees.index(8)]
    values = np.array([chi(g).to_complex() for g in G.elements()])
    assert (values[0], values[z], np.count_nonzero(values)) == (8, -8, 2)
    lam = repmatrices._multiplicity_one_idempotent(G, values, np.array(G._rows))
    assert len(np.flatnonzero(lam)) == 16
    rep = next(r for r in _all_irreps(G) if r.character == chi)
    _check_rep(rep, np.array(G._rows))


def test_check_rep_memory_on_the_degree_eight_irrep_of_2_1_6():
    """_check_rep holds one residual buffer of at most _CHECK_BYTES per block
    of g, not a stack of products: on the degree-8 model of 2^{1+6}_+ (|G|
    d^2 = 8192 complex entries per image array) its traced peak stays below
    1 MiB."""
    G = _extraspecial_2_1_6()
    table = character_table(G)
    rep = matrix_irreps(G, [table.degrees.index(8)])[0]
    cayley = np.array(G._rows)
    tracemalloc.start()
    try:
        _check_rep(rep, cayley)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_obstruction_rejects_a_non_stabilizer_before_float_work(q8, monkeypatch):
    """A G_rho that is not rho's stabilizer raises NotStabilized before any
    matrix model or intertwiner is computed: Q8 over its center with G_rho
    the center or a cyclic subgroup of order 4 (every character of the
    center is fixed by all of Q8), and V4 over one factor with G_rho the
    other factor."""
    def float_layer(*args, **kwargs):
        raise AssertionError("float layer called")

    monkeypatch.setattr(repmatrices, "matrix_irreps", float_layer)
    monkeypatch.setattr(repmatrices, "intertwiner", float_layer)
    G, Z = q8
    i4 = G.subgroup([next(g for g in G.elements() if G.element_order(g) == 4)])
    V4, X = build_catalog_group("V4")
    Y = next(H for H in V4.all_subgroups() if H.order == 2 and H.members != X.members)
    for G_rho, A in [(Z, Z), (i4, Z), (Y, X)]:
        for rho in range(len(character_table(A.as_group()[0]))):
            with pytest.raises(NotStabilized):
                obstruction_cocycle(G_rho, A, rho)


def test_obstruction_record_fields(q8):
    G, Z = q8
    rec = _obstruction_for(G, Z, lambda chi: chi.values[1].rational() == -1)
    assert rec.quotient.order == 4
    assert rec.trivial is False
    assert len(rec.omega) == 4


def test_spectral_check_accepts_what_only_the_frobenius_norm_exceeds():
    """The Frobenius prefilter only skips SVDs: diag(0.8 TOL, 0.8 TOL) has
    spectral norm 0.8 TOL and Frobenius norm about 1.13 TOL, and is accepted,
    alone and as a residual of _check_rep."""
    assert _within(np.diag([0.8 * TOL, 0.8 * TOL])[None].astype(complex))
    assert not _within(np.diag([1.2 * TOL, 0.0])[None].astype(complex))
    try:  # a NaN residual reaches the SVD, which accepts nothing or raises
        accepted = _within(np.full((1, 2, 2), np.nan, dtype=complex))
    except np.linalg.LinAlgError:
        accepted = False
    assert not accepted
    assert _within(np.zeros((0, 2, 2), dtype=complex))
    # scaling one image by 1 + 0.4 TOL leaves every residual of spectral norm
    # at most 0.8 TOL (+ rounding), while the unitarity residual of that
    # image, (0.8 TOL) times the identity of degree 3, has Frobenius norm
    # about 1.39 TOL
    G, _ = build_catalog_group("S4")
    rep = _faithful_irrep(G)
    images = rep.images.copy()
    images[G.order // 2] *= 1 + 0.4 * TOL
    _check_rep(dataclasses.replace(rep, images=images), np.array(G._rows))


def _float_obstruction_reference(G_rho, A, rho):
    """(omega, modulus) by the float route obstruction_cocycle once took on
    every orbit: intertwiners, det normalisation and snapping, with Q built
    as a quotient of the materialized G_rho.  Kept as written then."""
    Agrp, _ = A.as_group()
    G = G_rho.parent
    d = rho.dimension

    Sgrp, sembed = G_rho.as_group()
    A_in_s = Sgrp.subgroup_from_members([G_rho.retract(a) for a in A.members])
    Q, qsection = Sgrp.quotient(A_in_s)
    m = Q.order

    det_vals = [determinant_character_value(rho.character, cls[0])
                for cls in Agrp.conjugacy_classes()]
    modulus = d * lcm(*(mm for _, mm in det_vals))
    det_exp = [(k * (modulus // mm)) % modulus for k, mm in det_vals]

    reps_g = [sembed[qsection[q]] for q in range(m)]
    coset_of, _, maps = G.conjugation_action(A)
    eye = np.eye(d)
    units = []
    for q in range(m):
        g = reps_g[q]
        if g == 0:
            units.append(eye.copy())
            continue
        rho_g = rho.conjugated(maps[coset_of[g]])
        U = intertwiner(rho_g, rho)
        assert U is not None, "coset representative does not stabilize rho"
        units.append(_det_normalize(U))

    omega = [[0] * m for _ in range(m)]
    for q1 in range(m):
        for q2 in range(m):
            q12 = Q.mul(q1, q2)
            g1, g2, g3 = reps_g[q1], reps_g[q2], reps_g[q12]
            a0 = G.mul(G.mul(g1, g2), G.inv(g3))
            a0_local = A.retract(a0)  # raises if not in A
            M = rho.images[a0_local].conj().T @ units[q1] @ units[q2] @ units[q12].conj().T
            c = np.trace(M) / d
            if np.max(np.abs(M - c * eye)) > SNAP_TOL:
                raise NonScalar("cocycle matrix is not scalar at (%d, %d)" % (q1, q2))
            k = round(modulus * (cmath.phase(c) / (2 * math.pi))) % modulus
            if abs(c - cmath.exp(2j * math.pi * k / modulus)) > SNAP_TOL:
                raise SnapFailure("scalar %r too far from mu_%d" % (c, modulus))
            if (k * d) % modulus != (-det_exp[Agrp.class_index(a0_local)]) % modulus:
                raise SnapFailure("snapped scalar disagrees with the determinant character")
            omega[q1][q2] = k

    check_cocycle(Q, omega, modulus)
    return tuple(tuple(row) for row in omega), modulus


def _linear_cocycle_pairs(pairs):
    """The catalog pairs, each of their groups over its center, and S4xZ2,
    S3xS3 and S4xS3 over each factor and over the center; a trivial center
    is left out, as its cocycles are all 0."""
    out = [(name, G, A) for name, G, A in pairs]
    out += [(name + "/Z", G, G.center()) for name, G, _ in pairs]
    for name, gens1, deg1, gens2, deg2 in [("S4xZ2", S4_GENS, 4, [[1, 0]], 2),
                                           ("S3xS3", S3_GENS, 3, S3_GENS, 3),
                                           ("S4xS3", S4_GENS, 4, S3_GENS, 3)]:
        G = group_from_generators(deg1 + deg2, direct_product(gens1, deg1, gens2, deg2),
                                  name=name)
        first = G.subgroup([G.perm_index(p) for p in direct_product(gens1, deg1, [], deg2)])
        second = G.subgroup([G.perm_index(p) for p in direct_product([], deg1, gens2, deg2)])
        out += [(name + "/1", G, first), (name + "/2", G, second), (name + "/Z", G, G.center())]
    return [(name, G, A) for name, G, A in out if A.order > 1]


def test_exact_linear_cocycle_equals_the_float_snapped_one(pairs):
    """On every orbit with rho(1) = 1 and G_rho/A nontrivial, the cocycle read
    off the determinant character equals the one the float route snapped,
    entry by entry.  Q8 over its center, a nontrivial class, is among
    them."""
    compared = set()
    for name, G, A in _linear_cocycle_pairs(pairs):
        Agrp, _ = A.as_group()
        table_a = character_table(Agrp)
        orbits = [(rep, stab) for rep, _, stab in irr_orbits(G, A)
                  if table_a.degrees[rep] == 1 and stab.order > A.order]
        for rep, stab in orbits:
            rec = obstruction_cocycle(stab, A, rep)
            expected = _float_obstruction_reference(stab, A, matrix_irreps(Agrp, [rep])[0])
            assert (rec.omega, rec.modulus) == expected, (name, rep)
            compared.add((name, rep, rec.trivial))
    assert ("Q8", 1, False) in compared
    assert len(compared) == 49


def _relabelled_elements(G, A, rng):
    """G with the element indices 1..|G|-1 shuffled (0 stays the identity),
    and the image of A."""
    pi = [0] + rng.sample(range(1, G.order), G.order - 1)
    table = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            table[pi[a]][pi[b]] = pi[G.mul(a, b)]
    H = FiniteGroup(table, name=G.name)
    return H, H.subgroup_from_members(pi[a] for a in A.members)


def test_stabilizer_quotients_are_the_part_of_g_mod_a_in_the_stabilizer(pairs):
    """G.quotient(A) and each orbit's Q_rho = G_rho/A come from one builder:
    Q_rho's lifts are the lifts of G/A that lie in G_rho, its quotient map
    (g -> the element whose lift shares g's coset of A, read off
    conjugation_action(A).coset_of) is that of G/A read through them and is
    defined on G_rho only, and it multiplies as G/A does on them.
    Over the catalog pairs, S4xZ2, S3xS3 and S4xS3 over each factor, and one
    relabelling of the elements of each."""
    cases = list(pairs)
    for name, gens1, deg1, gens2, deg2 in [("S4xZ2", S4_GENS, 4, [[1, 0]], 2),
                                           ("S3xS3", S3_GENS, 3, S3_GENS, 3),
                                           ("S4xS3", S4_GENS, 4, S3_GENS, 3)]:
        G = group_from_generators(deg1 + deg2, direct_product(gens1, deg1, gens2, deg2),
                                  name=name)
        first = G.subgroup([G.perm_index(p) for p in direct_product(gens1, deg1, [], deg2)])
        second = G.subgroup([G.perm_index(p) for p in direct_product([], deg1, gens2, deg2)])
        cases += [(name + "/1", G, first), (name + "/2", G, second)]
    rng = random.Random(14)
    cases += [(name + "~", *_relabelled_elements(G, A, rng)) for name, G, A in cases]
    checked = 0
    for name, G, A in cases:
        GA, ga_section = G.quotient(A)
        coset_of = G.conjugation_action(A).coset_of
        in_ga_of = {coset_of[g]: q for q, g in enumerate(ga_section)}
        for rec in orbit_decomposition(G, A):
            Q, section, stab = rec.obstruction.quotient, rec.obstruction.section, rec.stabilizer
            if Q.order == 1:
                continue
            assert section == tuple(g for g in ga_section if g in stab), name
            in_q_of = {coset_of[g]: q for q, g in enumerate(section)}
            in_ga = [in_ga_of[coset_of[g]] for g in section]
            assert [in_q_of.get(coset_of[g], -1) for g in G.elements()] == \
                [in_ga.index(in_ga_of[coset_of[g]]) if g in stab else -1
                 for g in G.elements()], name
            for i in range(Q.order):
                for j in range(Q.order):
                    assert in_ga[Q.mul(i, j)] == GA.mul(in_ga[i], in_ga[j]), name
            checked += 1
    assert checked == 94


def test_obstruction_models_only_the_row_it_reads(pairs, monkeypatch):
    """Each obstruction builds the matrix model of its own row, and only
    where rho(1) >= 2 and G_rho/A is nontrivial.  S5 over A5 (degrees 1, 3,
    3, 4, 5) calls matrix_irreps once with the degree-4 row and once with
    the degree-5 row, and never models the degree-3 pair, whose stabilizer
    is A5.  S4 over A4: the linear rows extend with no model, and the
    degree-3 row has G_rho/A of order 2 and extends."""
    from isotypic import orbits
    calls = []
    original = repmatrices.matrix_irreps

    def recording(*args):
        calls.append(args)
        return original(*args)

    for module in (repmatrices, orbits):
        if hasattr(module, "matrix_irreps"):
            monkeypatch.setattr(module, "matrix_irreps", recording)
    S5 = _s5()
    A5 = S5.subgroup([S5.perm_index(p) for p in ([1, 2, 0, 3, 4], [0, 1, 3, 4, 2])])
    A5grp, _ = A5.as_group()
    degrees = character_table(A5grp).degrees
    assert degrees == (1, 3, 3, 4, 5)
    orbit_decomposition(S5, A5)
    assert calls == [(A5grp, [degrees.index(4)]), (A5grp, [degrees.index(5)])]

    del calls[:]
    _, G, A = next(p for p in pairs if p[0] == "S4/A4")
    Agrp, _ = A.as_group()
    table_a = character_table(Agrp)
    for rho, _, stab in irr_orbits(G, A):
        rec = obstruction_cocycle(stab, A, rho)
        if table_a.degrees[rho] == 1:
            assert rec.trivial and not calls
            continue
        assert rec.quotient.order == 2 and rec.trivial
        assert calls == [(Agrp, [rho])]
