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
from isotypic.orbits import irr_orbits, orbit_decomposition
from isotypic.repmatrices import (DEFAULT_SEED, DEFAULT_SNAP_TOL, DEFAULT_TOL,
                                  _check_rep, _cluster, _det_normalize, _within,
                                  check_cocycle, intertwiner, matrix_irreps,
                                  obstruction_cocycle, stabilizer_of_character)

from conftest import S3_GENS, S4_GENS, dihedral, direct_product, relabelled_group


def test_z4_matrix_irreps_are_fourth_roots(z4):
    G, _ = z4
    reps = matrix_irreps(G)
    assert [r.dimension for r in reps] == [1, 1, 1, 1]
    a = G.perm_index((1, 2, 3, 0))
    images = [complex(r.images[a][0, 0]) for r in reps]
    expected = {1, 1j, -1, -1j}
    assert all(min(abs(v - w) for w in expected) < 1e-9 for v in images)
    assert len({round(v.real, 6) + 1j * round(v.imag, 6) for v in images}) == 4


def test_trivial_group_single_rep():
    G = group_from_generators(1, [[0]])
    reps = matrix_irreps(G)
    assert len(reps) == 1 and reps[0].dimension == 1
    assert reps[0].images[0][0, 0] == pytest.approx(1)


def test_q8_rep_dimensions(q8):
    G, _ = q8
    reps = matrix_irreps(G)
    assert sorted(r.dimension for r in reps) == [1, 1, 1, 1, 2]
    assert sum(r.dimension ** 2 for r in reps) == 8


def test_rep_invariants_homomorphism_unitarity_trace(d8):
    G, _ = d8
    for rep in matrix_irreps(G):
        d = rep.dimension
        for g in G.elements():
            M = rep.images[g]
            assert np.linalg.norm(M @ M.conj().T - np.eye(d), 2) <= 1e-8
            for h in G.elements():
                assert np.linalg.norm(M @ rep.images[h] - rep.images[G.mul(g, h)], 2) <= 1e-8
            assert abs(np.trace(M) - rep.character(g).to_complex()) <= 1e-6


def _faithful_irrep(G):
    """An irrep of largest degree: faithful for D8 (degree 2) and S4 (3)."""
    return max(matrix_irreps(G), key=lambda r: r.dimension)


@pytest.mark.parametrize("name", ["D8", "S4"])
def test_check_rep_passes_a_genuine_irrep(name):
    G, _ = build_catalog_group(name)
    _check_rep(_faithful_irrep(G), 1e-8)


@pytest.mark.parametrize("name", ["D8", "S4"])
def test_check_rep_rejects_a_scaled_image(name):
    G, _ = build_catalog_group(name)
    rep = _faithful_irrep(G)
    images = rep.images.copy()
    images[G.order // 2] *= 1.001
    with pytest.raises(SplitFailure, match="not unitary"):
        _check_rep(dataclasses.replace(rep, images=images), 1e-8)


@pytest.mark.parametrize("name", ["D8", "S4"])
def test_check_rep_rejects_swapped_images(name):
    """Swapping the images of the two highest-index elements keeps every
    image unitary; only pairs involving them see the fault, so a check that
    stops before them or samples pairs can miss it."""
    G, _ = build_catalog_group(name)
    rep = _faithful_irrep(G)
    last = G.order - 1
    images = rep.images.copy()
    images[[last - 1, last]] = images[[last, last - 1]]
    assert not np.array_equal(images, rep.images)
    with pytest.raises(SplitFailure, match="homomorphism residual"):
        _check_rep(dataclasses.replace(rep, images=images), 1e-8)


@pytest.mark.parametrize("name", ["D8", "S4"])
def test_a_non_finite_residual_is_a_typed_failure(name):
    """A NaN or infinite entry never reaches the SVD: _within rejects the
    stack, _check_rep raises SplitFailure and intertwiner, after its retries,
    NumericalDegeneracy."""
    assert not _within(np.full((2, 2, 2), np.nan, dtype=complex), DEFAULT_TOL)
    assert not _within(np.full((1, 2, 2), np.inf, dtype=complex), DEFAULT_TOL)
    G, _ = build_catalog_group(name)
    rep = _faithful_irrep(G)
    images = rep.images.copy()
    images[G.order // 2] = np.nan
    broken = dataclasses.replace(rep, images=images)
    with pytest.raises(SplitFailure):
        _check_rep(broken, DEFAULT_TOL)
    with pytest.raises(NumericalDegeneracy):
        intertwiner(broken, broken)


def _dense_reference_images(G, seed=DEFAULT_SEED):
    """The images matrix_irreps built from the dense left regular
    representation: |G| matrices of size |G| x |G|, the projector summed
    matrix by matrix and each block taken as B0^H reg[g] B0."""
    n = G.order
    reg = []
    for g in range(n):
        M = np.zeros((n, n), dtype=complex)
        for h in range(n):
            M[G.mul(g, h), h] = 1.0
        reg.append(M)
    table = character_table(G)
    rng = np.random.default_rng(seed)
    out = []
    for row, d in zip(table.rows, table.degrees):
        if d == 1:
            out.append(np.array([[[row(g).to_complex()]] for g in G.elements()]))
            continue
        P = np.zeros((n, n), dtype=complex)
        for cls, val in zip(table.classes, row.values):
            coeff = val.conjugate().to_complex()
            if coeff != 0:
                for g in cls:
                    P += coeff * reg[g]
        P *= d / n
        evals, evecs = np.linalg.eigh(P)
        B0 = evecs[:, np.nonzero(evals > 0.5)[0]]
        block = [B0.conj().T @ reg[g] @ B0 for g in G.elements()]
        for _ in range(20):
            X = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            K = (X + X.conj().T) / 2
            S = sum(Bg @ K @ Bg.conj().T for Bg in block) / n
            vals, vecs = np.linalg.eigh(S)
            groups = _cluster(vals, 1e-6 * max(1.0, np.max(np.abs(vals))))
            if len(groups) == d and all(len(g) == d for g in groups):
                break
        else:
            pytest.fail("reference split did not separate a degree-%d block" % d)
        W = vecs[:, groups[0]]
        out.append(np.array([W.conj().T @ Bg @ W for Bg in block]))
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
    reps = matrix_irreps(G)
    reference = _dense_reference_images(G)
    assert len(reps) == len(reference)
    for rep, ref in zip(reps, reference):
        assert rep.images.shape == (G.order, rep.dimension, rep.dimension)
        assert np.array_equal(rep.images, ref)


def test_matrix_irreps_memory_below_cubic_s5():
    """matrix_irreps(S5) peaks below 8 |G|^3 bytes, half of what |G| dense
    complex |G| x |G| regular matrices alone would take."""
    G = group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], name="S5")
    character_table(G)
    tracemalloc.start()
    try:
        reps = matrix_irreps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(r.dimension for r in reps) == [1, 1, 4, 4, 5, 5, 6]
    assert peak < 8 * G.order ** 3


def test_matrix_irreps_time_and_memory_at_order_256():
    """At the order cap, D8xD8xZ2xZ2 splits into its 100 irreps in bounded
    time, and the traced peak stays below the 268 MB that |G| dense complex
    |G| x |G| regular matrices alone would take."""
    D8 = [[1, 2, 3, 0], [3, 2, 1, 0]]
    gens = direct_product(direct_product(D8, 4, D8, 4), 8, [[1, 0]], 2)
    G = group_from_generators(12, direct_product(gens, 10, [[1, 0]], 2), name="D8xD8xZ2xZ2")
    assert G.order == repmatrices.MATRIX_IRREPS_CAP == 256
    character_table(G)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        reps = matrix_irreps(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    assert len(reps) == 100
    assert sum(r.dimension ** 2 for r in reps) == G.order
    assert elapsed < 30, elapsed
    assert peak < 256 * 2 ** 20, peak


def test_matrix_irreps_cap(monkeypatch):
    G = dihedral(5)
    monkeypatch.setattr(repmatrices, "MATRIX_IRREPS_CAP", 5)
    with pytest.raises(CapExceeded):
        matrix_irreps(G)


def test_intertwiner_self_is_scalar(d8):
    G, _ = d8
    reps = matrix_irreps(G)
    two = next(r for r in reps if r.dimension == 2)
    U = intertwiner(two, two)
    # Schur: any self-intertwiner is a unitary scalar
    offdiag = U - U[0, 0] * np.eye(2)
    assert np.linalg.norm(offdiag, 2) < 1e-8
    assert abs(abs(U[0, 0]) - 1) < 1e-8


def test_intertwiner_between_conjugate_linear_reps(d8):
    G, A = d8
    Agrp, embed = A.as_group()
    reps = matrix_irreps(Agrp)
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


def _obstruction_for(G, A, predicate, seed=0x5EED):
    Agrp, _ = A.as_group()
    reps = matrix_irreps(Agrp, seed=seed)
    rho = next(r for r in reps if predicate(r))
    return obstruction_cocycle(stabilizer_of_character(G, A, rho.character), A, rho.character,
                               rho, seed=seed)


def test_d8_rho2_extends(d8):
    G, A = d8
    Agrp, _ = A.as_group()
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rec = _obstruction_for(G, A, lambda r: r.character(a_loc) == Cyclotomic.from_rational(4, -1))
    assert rec.stabilizer.order == 8
    assert rec.quotient.order == 2
    assert rec.trivial, "rho^2 extends: a -> -1, b -> 1 is an extension"


def test_d8_rho_has_trivial_quotient(d8):
    G, A = d8
    Agrp, _ = A.as_group()
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rec = _obstruction_for(G, A, lambda r: r.character(a_loc) == Cyclotomic.root_of_unity(4, 1))
    assert rec.stabilizer.members == A.members
    assert rec.quotient.order == 1
    assert rec.omega == ((0,),)
    assert rec.trivial


def test_q8_center_obstruction_nontrivial(q8):
    G, Z = q8
    Zgrp, _ = Z.as_group()
    rec = _obstruction_for(G, Z, lambda r: r.character.values[1].rational() == -1)
    assert rec.quotient.order == 4
    assert not rec.trivial
    assert rec.modulus == 2
    # the klein four quotient with this cocycle has exactly one regular class
    from isotypic.orbits import omega_regular_count
    assert omega_regular_count(rec.quotient.group, rec.omega, rec.modulus) == 1


def test_cocycle_identity_and_normalization_exact(pairs):
    from isotypic.orbits import orbit_decomposition
    for name, G, A in pairs:
        if G.order > 24:
            continue
        for rec in orbit_decomposition(G, A):
            obs = rec.obstruction
            m = obs.quotient.order
            Q = obs.quotient.group
            for q in range(m):
                assert obs.omega[0][q] == 0 and obs.omega[q][0] == 0
            for q1 in range(m):
                for q2 in range(m):
                    for q3 in range(m):
                        lhs = (obs.omega[q1][q2] + obs.omega[Q.mul(q1, q2)][q3]) % obs.modulus
                        rhs = (obs.omega[q1][Q.mul(q2, q3)] + obs.omega[q2][q3]) % obs.modulus
                        assert lhs == rhs, name


def test_determinant_one_intertwiners(pairs):
    from isotypic.orbits import orbit_decomposition
    for name, G, A in pairs:
        if G.order > 24:
            continue
        for rec in orbit_decomposition(G, A):
            for U in rec.obstruction.intertwiners:
                assert abs(np.linalg.det(U) - 1) <= 1e-8, name


def test_omega_reproducible_bit_identical(q8):
    G, Z = q8
    Zgrp, _ = Z.as_group()

    def run():
        reps = matrix_irreps(Zgrp, seed=0x5EED)
        rho = next(r for r in reps if r.character.values[1].rational() == -1)
        return obstruction_cocycle(stabilizer_of_character(G, Z, rho.character), Z,
                                   rho.character, rho, seed=0x5EED).omega

    assert run() == run()


def test_obstruction_rejects_a_non_stabilizer_before_float_work(q8, monkeypatch):
    """A G_rho that is not rho's stabilizer raises NotStabilized before any
    intertwiner is computed: Q8 over its center with G_rho the center or a
    cyclic subgroup of order 4 (every character of the center is fixed by all
    of Q8), and V4 over one factor with G_rho the other factor."""
    def no_intertwiner(*args, **kwargs):
        raise AssertionError("intertwiner called")

    monkeypatch.setattr(repmatrices, "intertwiner", no_intertwiner)
    G, Z = q8
    i4 = G.subgroup([next(g for g in G.elements() if G.element_order(g) == 4)])
    V4, X = build_catalog_group("V4")
    Y = next(H for H in V4.all_subgroups() if H.order == 2 and H.members != X.members)
    for G_rho, A in [(Z, Z), (i4, Z), (Y, X)]:
        for rho in matrix_irreps(A.as_group()[0]):
            with pytest.raises(NotStabilized):
                obstruction_cocycle(G_rho, A, rho.character, rho)


def test_obstruction_record_fields(q8):
    G, Z = q8
    rec = _obstruction_for(G, Z, lambda r: r.character.values[1].rational() == -1)
    assert rec.quotient.order == 4
    assert rec.trivial is False
    assert len(rec.omega) == 4


def test_spectral_check_accepts_what_only_the_frobenius_norm_exceeds():
    """The Frobenius prefilter only skips SVDs: diag(0.8 tol, 0.8 tol) has
    spectral norm 0.8 tol and Frobenius norm about 1.13 tol, and is accepted,
    alone and as a residual of _check_rep."""
    tol = DEFAULT_TOL
    assert _within(np.diag([0.8 * tol, 0.8 * tol])[None].astype(complex), tol)
    assert not _within(np.diag([1.2 * tol, 0.0])[None].astype(complex), tol)
    try:  # a NaN residual reaches the SVD, which accepts nothing or raises
        accepted = _within(np.full((1, 2, 2), np.nan, dtype=complex), tol)
    except np.linalg.LinAlgError:
        accepted = False
    assert not accepted
    assert _within(np.zeros((0, 2, 2), dtype=complex), tol)
    # scaling one image by 1 + 0.4 tol leaves every residual of spectral norm
    # at most 0.8 tol (+ rounding), while the unitarity residual of that
    # image, (0.8 tol) times the identity of degree 3, has Frobenius norm
    # about 1.39 tol
    G, _ = build_catalog_group("S4")
    rep = _faithful_irrep(G)
    images = rep.images.copy()
    images[G.order // 2] *= 1 + 0.4 * tol
    _check_rep(dataclasses.replace(rep, images=images), tol)


def _float_obstruction_reference(G_rho, A, rho, seed, tol=DEFAULT_TOL):
    """(omega, modulus) by the float route obstruction_cocycle once took on
    every orbit: intertwiners, det normalisation and snapping, with Q built
    as a quotient of the materialized G_rho.  Kept as written then."""
    Agrp, _ = A.as_group()
    G = G_rho.parent
    d = rho.dimension
    snap_tol = max(DEFAULT_SNAP_TOL, 100 * tol)

    Sgrp, sembed = G_rho.as_group()
    A_in_s = Sgrp.subgroup_from_members([G_rho.retract(a) for a in A.members])
    Q = Sgrp.quotient(A_in_s)
    m = Q.order

    det_vals = [determinant_character_value(rho.character, cls[0])
                for cls in Agrp.conjugacy_classes()]
    modulus = d * lcm(*(mm for _, mm in det_vals))
    det_exp = [(k * (modulus // mm)) % modulus for k, mm in det_vals]

    rng = np.random.default_rng(seed)
    reps_g = [sembed[Q.section[q]] for q in range(m)]
    coset_of, _, maps = G.conjugation_action(A)
    eye = np.eye(d)
    units = []
    for q in range(m):
        g = reps_g[q]
        if g == 0:
            units.append(eye.copy())
            continue
        rho_g = rho.conjugated(maps[coset_of[g]])
        U = intertwiner(rho_g, rho, rng=rng, tol=tol)
        assert U is not None, "coset representative does not stabilize rho"
        units.append(_det_normalize(U))

    omega = [[0] * m for _ in range(m)]
    for q1 in range(m):
        for q2 in range(m):
            q12 = Q.group.mul(q1, q2)
            g1, g2, g3 = reps_g[q1], reps_g[q2], reps_g[q12]
            a0 = G.mul(G.mul(g1, g2), G.inv(g3))
            a0_local = A.retract(a0)  # raises if not in A
            M = rho.images[a0_local].conj().T @ units[q1] @ units[q2] @ units[q12].conj().T
            c = np.trace(M) / d
            if np.max(np.abs(M - c * eye)) > snap_tol:
                raise NonScalar("cocycle matrix is not scalar at (%d, %d)" % (q1, q2))
            k = round(modulus * (cmath.phase(c) / (2 * math.pi))) % modulus
            if abs(c - cmath.exp(2j * math.pi * k / modulus)) > snap_tol:
                raise SnapFailure("scalar %r too far from mu_%d" % (c, modulus))
            if (k * d) % modulus != (-det_exp[Agrp.class_index(a0_local)]) % modulus:
                raise SnapFailure("snapped scalar disagrees with the determinant character")
            omega[q1][q2] = k

    check_cocycle(Q.group, omega, modulus)
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
    entry by entry, at seeds 0, 1 and 0x5EED.  Q8 over its center, a
    nontrivial class, is among them."""
    compared = set()
    for name, G, A in _linear_cocycle_pairs(pairs):
        Agrp, _ = A.as_group()
        table_a = character_table(Agrp)
        orbits = [(rep, stab) for rep, _, stab in irr_orbits(G, A)
                  if table_a.degrees[rep] == 1 and stab.order > A.order]
        for seed in (0, 1, 0x5EED):
            reps = matrix_irreps(Agrp, seed=seed)
            for rep, stab in orbits:
                rec = obstruction_cocycle(stab, A, table_a.rows[rep], seed=seed)
                expected = _float_obstruction_reference(stab, A, reps[rep], seed)
                assert (rec.omega, rec.modulus) == expected, (name, rep, seed)
                assert all(np.array_equal(U, np.eye(1)) for U in rec.intertwiners)
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
    Q_rho's lifts are the lifts of G/A that lie in G_rho, its projection is
    that of G/A read through them, and it multiplies as G/A does on them.
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
        GA = G.quotient(A)
        for rec in orbit_decomposition(G, A):
            Q, stab = rec.quotient, rec.stabilizer
            if Q.order == 1:
                continue
            assert Q.section == tuple(g for g in GA.section if g in stab), name
            in_ga = [GA.projection[g] for g in Q.section]
            assert [Q.projection[g] for g in G.elements()] == \
                [in_ga.index(GA.projection[g]) if g in stab else -1
                 for g in G.elements()], name
            for i in range(Q.order):
                for j in range(Q.order):
                    assert in_ga[Q.group.mul(i, j)] == GA.group.mul(in_ga[i], in_ga[j]), name
            checked += 1
    assert checked == 94


def test_obstruction_needs_a_matrix_model_only_where_it_uses_one(pairs):
    """S4 over A4: the degree-3 row has G_rho/A of order 2 and needs a
    MatrixRep of its character; the linear rows need none."""
    _, G, A = next(p for p in pairs if p[0] == "S4/A4")
    Agrp, _ = A.as_group()
    table_a = character_table(Agrp)
    reps = matrix_irreps(Agrp)
    for rep, _, stab in irr_orbits(G, A):
        chi = table_a.rows[rep]
        if table_a.degrees[rep] == 1:
            assert obstruction_cocycle(stab, A, chi).trivial
            continue
        with pytest.raises(ValueError):
            obstruction_cocycle(stab, A, chi)
        with pytest.raises(ValueError):
            obstruction_cocycle(stab, A, chi, reps[0])
        rec = obstruction_cocycle(stab, A, chi, reps[rep])
        assert rec.quotient.order == 2 and rec.trivial
        assert len(rec.intertwiners) == 2 and rec.intertwiners[1].shape == (3, 3)
