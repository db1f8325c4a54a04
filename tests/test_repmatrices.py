import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from isotypic.catalog import build_catalog_group
from isotypic.characters import character_table
from isotypic.cyclotomic import Cyclotomic
from isotypic.errors import CapExceeded, NotStabilized, SplitFailure
from isotypic.groups import group_from_generators
from isotypic import repmatrices
from isotypic.repmatrices import (DEFAULT_SEED, _check_rep, _cluster,
                                  intertwiner, matrix_irreps,
                                  obstruction_cocycle, stabilizer_of_character)

from conftest import S3_GENS, dihedral, direct_product, relabelled_group


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


def test_matrix_irreps_cap():
    G = dihedral(5)
    with pytest.raises(CapExceeded):
        matrix_irreps(G, cap=5)


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
    return obstruction_cocycle(stabilizer_of_character(G, A, rho.character), A, rho, seed=seed)


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
        return obstruction_cocycle(stabilizer_of_character(G, Z, rho.character), Z, rho,
                                   seed=0x5EED).omega

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
                obstruction_cocycle(G_rho, A, rho)


def test_obstruction_record_fields(q8):
    G, Z = q8
    rec = _obstruction_for(G, Z, lambda r: r.character.values[1].rational() == -1)
    assert rec.quotient.order == 4
    assert rec.trivial is False
    assert len(rec.omega) == 4
