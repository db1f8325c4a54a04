"""Unitary matrix models of the irreducible representations.

The regular representation is split into explicit unitary irreducibles with
a seeded random commutant element per isotypic block.  Intertwiners between
conjugate representations yield the obstruction 2-cocycle that measures
whether an irreducible representation of a normal subgroup extends to its
stabilizer; the cocycle is snapped to exact roots of unity and all identity
checks downstream are exact integer arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .characters import (ClassFunction, character_table,
                         determinant_character_value)
from .errors import (CapExceeded, InvalidCocycle, NonScalar,
                     NumericalDegeneracy, SnapFailure, SplitFailure)
from .groups import FiniteGroup, QuotientGroup, Subgroup

DEFAULT_SEED = 0x5EED
DEFAULT_TOL = 1e-8
DEFAULT_SNAP_TOL = 1e-6
MATRIX_IRREPS_CAP = 256
_MAX_RETRIES = 20


@dataclass(frozen=True)
class MatrixRep:
    """A unitary matrix representation with its exact character attached.

    images is one complex (|G|, d, d) array: images[g] is the matrix of the
    element with index g.
    """

    group: FiniteGroup
    dimension: int
    images: np.ndarray
    character: ClassFunction

    def conjugated(self, conj_map: Sequence[int]) -> "MatrixRep":
        """The representation a -> rho(conj_map[a]), e.g. a -> rho(g^-1 a g)."""
        return MatrixRep(self.group, self.dimension, self.images[list(conj_map)],
                         self.character.pullback(conj_map))


def matrix_irreps(G: FiniteGroup, seed: int = DEFAULT_SEED,
                  tol: float = DEFAULT_TOL, cap: int = MATRIX_IRREPS_CAP) -> list[MatrixRep]:
    """One unitary MatrixRep per irreducible character, in table row order.

    Deterministic for a fixed seed: the random commutant elements are drawn
    from a freshly seeded generator in a fixed order.  The left regular
    representation reg[g] is the permutation h -> g h, so it is read off the
    group table and never built as |G| dense |G| x |G| matrices.
    """
    if G.order > cap:
        raise CapExceeded("order %d exceeds matrix_irreps cap %d" % (G.order, cap))
    table = character_table(G)
    rng = np.random.default_rng(seed)
    n = G.order
    rows = G._rows
    # x h^-1 for every (x, h): the element g with reg[g][x, h] == 1
    quotients = np.array(rows)[:, G._inv]
    cls_of = [G.class_index(g) for g in G.elements()]
    reps = []
    for row, d in zip(table.rows, table.degrees):
        if d == 1:
            values = np.array([v.to_complex() for v in row.values])[cls_of]
            reps.append(MatrixRep(G, 1, values.reshape(n, 1, 1), row))
            continue
        # isotypic projector sum_g conj(chi(g)) reg[g] * d/|G|, entry by entry
        P = np.array([v.conjugate().to_complex() for v in row.values])[cls_of][quotients]
        P *= d / G.order
        evals, evecs = np.linalg.eigh(P)
        keep = np.nonzero(evals > 0.5)[0]
        if len(keep) != d * d:
            raise SplitFailure("isotypic block has dimension %d, expected %d"
                               % (len(keep), d * d))
        B0 = evecs[:, keep]
        # B0^H reg[g] B0, with B0^H reg[g] gathered as a column permutation
        block = [B0[rows[g]].conj().T @ B0 for g in G.elements()]
        rep = None
        for _ in range(_MAX_RETRIES):
            X = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            K = (X + X.conj().T) / 2
            S = sum(Bg @ K @ Bg.conj().T for Bg in block) / G.order
            vals, vecs = np.linalg.eigh(S)
            groups = _cluster(vals, 1e-6 * max(1.0, np.max(np.abs(vals))))
            if len(groups) != d or any(len(g) != d for g in groups):
                continue
            W = vecs[:, groups[0]]
            images = np.array([W.conj().T @ Bg @ W for Bg in block])
            rep = MatrixRep(G, d, images, row)
            break
        if rep is None:
            raise SplitFailure("could not separate eigenvalues for a degree-%d block" % d)
        _check_rep(rep, tol)
        reps.append(rep)
    return reps


def _cluster(sorted_vals: np.ndarray, gap: float) -> list[list[int]]:
    groups: list[list[int]] = [[0]]
    for i in range(1, len(sorted_vals)):
        if sorted_vals[i] - sorted_vals[i - 1] < gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _check_rep(rep: MatrixRep, tol: float) -> None:
    """Raise SplitFailure unless every image is unitary, rho(g) rho(h) =
    rho(gh) for every pair (g, h), both within tol in the spectral norm, and
    the traces match the exact character."""
    G = rep.group
    M = rep.images
    if not np.all(_norms(M @ M.conj().transpose(0, 2, 1) - np.eye(rep.dimension)) <= tol):
        raise SplitFailure("representation image is not unitary")
    for Mg, row in zip(M, G._rows):
        if not np.all(_norms(Mg @ M - M[row]) <= tol):
            raise SplitFailure("homomorphism residual above tolerance")
    for cls, val in zip(G.conjugacy_classes(), rep.character.values):
        if abs(np.trace(M[cls[0]]) - val.to_complex()) > 1e-6:
            raise SplitFailure("trace does not match the exact character")


def _norms(stack: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix in a (n, d, d) stack."""
    return np.linalg.norm(stack, 2, axis=(1, 2))


def intertwiner(rho1: MatrixRep, rho2: MatrixRep,
                rng: Optional[np.random.Generator] = None,
                tol: float = DEFAULT_TOL) -> Optional[np.ndarray]:
    """A unitary U with U rho1(g) U^-1 = rho2(g), or None if not isomorphic.

    Averages rho2(g) R rho1(g)^-1 over the group for a random R and
    unitarizes by polar decomposition.
    """
    if rho1.group is not rho2.group or rho1.dimension != rho2.dimension:
        return None
    if rho1.character != rho2.character:
        return None
    G = rho1.group
    d = rho1.dimension
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    for _ in range(_MAX_RETRIES):
        R = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        T = sum(M2 @ R @ M1.conj().T for M1, M2 in zip(rho1.images, rho2.images)) / G.order
        u, s, vh = np.linalg.svd(T)
        if s[-1] < 1e-8 * max(1.0, s[0]):
            continue
        U = u @ vh
        if np.all(_norms(U @ rho1.images @ U.conj().T - rho2.images) <= tol):
            return U
    raise NumericalDegeneracy("averaged intertwiner stayed singular after retries")


@dataclass(frozen=True)
class ObstructionRecord:
    """The obstruction cocycle of an irreducible rho of a normal subgroup.

    omega is a |Q| x |Q| table of exponents k meaning the root of unity
    exp(2*pi*i*k/modulus); modulus = dim(rho) * order(det o rho), which makes
    every snapped scalar an exact root of unity.  trivial is decided by the
    exact character-level extension criterion, never numerically.
    """

    rho: MatrixRep
    stabilizer: Subgroup
    quotient: QuotientGroup
    omega: tuple  # tuple of tuples of ints
    modulus: int
    trivial: bool
    intertwiners: tuple  # one unitary per coset representative

    def to_jsonable(self) -> dict:
        return {
            "stabilizer_order": self.stabilizer.order,
            "quotient_order": self.quotient.order,
            "dimension": self.rho.dimension,
            "modulus": self.modulus,
            "omega": [list(row) for row in self.omega],
            "trivial": self.trivial,
        }


def stabilizer_of_character(G: FiniteGroup, A: Subgroup, chi: ClassFunction) -> Subgroup:
    """G_chi = {g : the class function a -> chi(g^-1 a g) equals chi}.

    A acts trivially on its own characters, so G_chi is the union of the left
    cosets of A whose conjugation map fixes chi: one test per coset.
    """
    if chi.group is not A.as_group()[0]:
        raise ValueError("character does not live on the subgroup")
    coset_of, maps = G.conjugation_action(A)
    fixed = {c for c, conj_map in maps.items() if chi.pullback(conj_map) == chi}
    return G.subgroup_from_members((g for g in G.elements() if coset_of[g] in fixed),
                                   name="Stab")


def _det_normalize(U: np.ndarray) -> np.ndarray:
    d = U.shape[0]
    det = np.linalg.det(U)
    return U * cmath.exp(-cmath.log(det) / d)


def obstruction_cocycle(G: FiniteGroup, A: Subgroup, rho: MatrixRep,
                        seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL,
                        snap_tol: float = DEFAULT_SNAP_TOL) -> ObstructionRecord:
    """Obstruction data for extending rho from the normal subgroup A to its
    stabilizer G_rho.

    For each coset representative g of A in G_rho a unitary U_g with
    U_g rho(g^-1 a g) U_g^-1 = rho(a) is computed and rescaled to det 1;
    the cocycle entry at (q1, q2) is the Schur scalar of
    rho(a0)^-1 U_{g1} U_{g2} U_{g3}^-1 with g1 g2 = a0 g3, snapped to an
    exact root of unity and cross-checked against the exact determinant
    character of rho.  The cocycle identity is then verified exactly.
    """
    Agrp, _ = A.as_group()
    if rho.group is not Agrp:
        raise ValueError("rho must be a representation of the materialized subgroup")
    if not G.is_normal(A):
        raise InvalidCocycle("A must be normal in G")
    d = rho.dimension

    G_rho = stabilizer_of_character(G, A, rho.character)
    Sgrp, sembed = G_rho.as_group()
    A_in_s = Sgrp.subgroup_from_members([G_rho.retract(a) for a in A.members], name=A.name)
    Q = Sgrp.quotient(A_in_s)
    m = Q.order

    # det o rho is a class function: one exact value (k, m), meaning
    # zeta_m^k, per class of A; modulus is d times its order
    det_vals = [determinant_character_value(rho.character, cls[0])
                for cls in Agrp.conjugacy_classes()]
    modulus = d * lcm(*(mm for _, mm in det_vals))
    # det rho(a) = zeta_modulus^det_exp[class of a]
    det_exp = [(k * (modulus // mm)) % modulus for k, mm in det_vals]

    rng = np.random.default_rng(seed)
    # coset reps as G-elements, each minimal in its coset of A (Sgrp indices
    # follow G_rho.members), so maps[coset_of[g]] is exactly a -> g^-1 a g
    reps_g = [sembed[Q.lift(q)] for q in range(m)]
    coset_of, maps = G.conjugation_action(A)
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
            # exact cross-check: omega^d must equal det(rho(a0))^-1
            if (k * d) % modulus != (-det_exp[Agrp.class_index(a0_local)]) % modulus:
                raise SnapFailure("snapped scalar disagrees with the determinant character")
            omega[q1][q2] = k

    check_cocycle(Q.group, omega, modulus)

    from .orbits import extension_exists  # deferred: orbits depends on this module
    table_a = character_table(Agrp)
    rho_index = table_a.row_index(rho.character.values)
    trivial = extension_exists(G_rho, A, rho_index)

    return ObstructionRecord(rho=rho, stabilizer=G_rho, quotient=Q,
                             omega=tuple(tuple(row) for row in omega),
                             modulus=modulus, trivial=trivial,
                             intertwiners=tuple(units))


def check_cocycle(Q: FiniteGroup, omega, modulus: int) -> None:
    """Raise InvalidCocycle unless omega, a |Q| x |Q| table of exponents mod
    modulus, is a normalized 2-cocycle: 0 where an argument is the identity,
    and omega(a, b) + omega(ab, c) = omega(a, bc) + omega(b, c)."""
    n = Q.order
    if len(omega) != n or any(len(row) != n for row in omega):
        raise InvalidCocycle("cocycle table has the wrong shape")
    for a in range(n):
        if omega[0][a] != 0 or omega[a][0] != 0:
            raise InvalidCocycle("cocycle is not normalized")
    for a in range(n):
        for b in range(n):
            ab = Q.mul(a, b)
            for c in range(n):
                lhs = (omega[a][b] + omega[ab][c]) % modulus
                rhs = (omega[a][Q.mul(b, c)] + omega[b][c]) % modulus
                if lhs != rhs:
                    raise InvalidCocycle("cocycle identity fails at (%d,%d,%d)" % (a, b, c))
