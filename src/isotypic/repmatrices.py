"""Unitary matrix models of the irreducible representations, and the
obstruction cocycle, built with floats only where it needs them.

The regular representation is split into explicit unitary irreducibles with
a seeded random commutant element per isotypic block.  The obstruction
2-cocycle measures whether an irreducible rho of a normal subgroup A extends
to its stabilizer G_rho; it lives on Q = G_rho/A.  It is read exactly off
the determinant character of rho when Q is trivial (the 1 x 1 zero table) or
rho is linear (rho is its own determinant).  Only for rho(1) >= 2 and Q
nontrivial is it computed from intertwiners between conjugate matrix models
and snapped to exact roots of unity within a tolerance derived from tol;
all identity checks downstream are exact integer arithmetic.  The stabilizer
is the caller's (orbits.irr_orbits builds one per orbit) and is checked
before any float work.  Whether the class is trivial is never read off the
floats: orbits.extension_exists decides it on the characters of the group.
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
from .groups import FiniteGroup, QuotientGroup, Subgroup, coset_quotient

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
                  tol: float = DEFAULT_TOL) -> list[MatrixRep]:
    """One unitary MatrixRep per irreducible character, in table row order;
    CapExceeded above order MATRIX_IRREPS_CAP.

    Deterministic for a fixed seed: the random commutant elements are drawn
    from a freshly seeded generator in a fixed order.  The left regular
    representation reg[g] is the permutation h -> g h, so it is read off the
    group table and never built as |G| dense |G| x |G| matrices.
    """
    if G.order > MATRIX_IRREPS_CAP:
        raise CapExceeded("order %d exceeds matrix_irreps cap %d"
                          % (G.order, MATRIX_IRREPS_CAP))
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
    if not _within(M @ M.conj().transpose(0, 2, 1) - np.eye(rep.dimension), tol):
        raise SplitFailure("representation image is not unitary")
    for Mg, row in zip(M, G._rows):
        if not _within(Mg @ M - M[row], tol):
            raise SplitFailure("homomorphism residual above tolerance")
    for cls, val in zip(G.conjugacy_classes(), rep.character.values):
        if abs(np.trace(M[cls[0]]) - val.to_complex()) > 1e-6:
            raise SplitFailure("trace does not match the exact character")


def _within(stack: np.ndarray, tol: float) -> bool:
    """Whether every matrix of a (n, d, d) stack has spectral norm <= tol.

    As ||X||_2 <= ||X||_F, a matrix whose Frobenius norm is within tol
    passes; all Frobenius norms come from one einsum, and only the rest are
    sent to the SVD behind the spectral norm.  A non-finite stack fails.
    """
    frobenius_sq = np.einsum("nij,nij->n", stack, stack.conj()).real
    if not np.isfinite(frobenius_sq).all():
        return False
    # negated, so a NaN tol accepts nothing
    suspects = stack[~(frobenius_sq <= tol * tol)]
    return not len(suspects) or bool(np.all(np.linalg.norm(suspects, 2, axis=(1, 2)) <= tol))


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
        if not np.isfinite(T).all():
            continue
        u, s, vh = np.linalg.svd(T)
        if s[-1] < 1e-8 * max(1.0, s[0]):
            continue
        U = u @ vh
        if _within(U @ rho1.images @ U.conj().T - rho2.images, tol):
            return U
    raise NumericalDegeneracy("averaged intertwiner stayed singular after retries")


@dataclass(frozen=True)
class ObstructionRecord:
    """The obstruction cocycle of an irreducible rho of a normal subgroup.

    character is rho's exact character.  omega is a |Q| x |Q| table of
    exponents k meaning the root of unity exp(2*pi*i*k/modulus);
    modulus = rho(1) * order(det o rho), which makes every snapped scalar an
    exact root of unity.  intertwiners holds one det-1 unitary U_g per coset
    representative g (identities where no matrix model was needed).  trivial
    is decided by the exact character-level extension criterion, never
    numerically.
    """

    character: ClassFunction
    stabilizer: Subgroup
    quotient: QuotientGroup
    omega: tuple  # tuple of tuples of ints
    modulus: int
    trivial: bool
    intertwiners: tuple  # one unitary per coset representative


def stabilizer_of_character(G: FiniteGroup, A: Subgroup, chi: ClassFunction) -> Subgroup:
    """G_chi = {g : the class function a -> chi(g^-1 a g) equals chi}, for chi
    a row of A's character table: orbits.irr_stabilizer of that row.

    No src caller: kept because the benchmark's span list wraps it."""
    from .orbits import irr_stabilizer  # deferred: orbits depends on this module
    if chi.group is not A.as_group()[0]:
        raise ValueError("character does not live on the subgroup")
    return irr_stabilizer(G, A, character_table(chi.group).row_index(chi.values))


def _det_normalize(U: np.ndarray) -> np.ndarray:
    d = U.shape[0]
    det = np.linalg.det(U)
    return U * cmath.exp(-cmath.log(det) / d)


def needs_matrix_model(G_rho: Subgroup, A: Subgroup, degree: int) -> bool:
    """Whether obstruction_cocycle needs a matrix model of an irreducible of
    A of this degree with stabilizer G_rho: rho(1) >= 2 and G_rho/A
    nontrivial.  Otherwise the cocycle is exact without matrices."""
    return degree > 1 and G_rho.order > A.order


def obstruction_cocycle(G_rho: Subgroup, A: Subgroup, chi: ClassFunction,
                        rep: Optional[MatrixRep] = None, seed: int = DEFAULT_SEED,
                        tol: float = DEFAULT_TOL) -> ObstructionRecord:
    """Obstruction data for extending the irreducible rho, with exact
    character chi, from the normal subgroup A of G = G_rho.parent to its
    stabilizer G_rho, which the caller has built (orbits.irr_orbits does,
    once per orbit).

    Whether rho extends is read off Irr(G) by orbits.extension_exists before
    anything else; it raises NotNormal unless A is normal in G and
    NotStabilized unless G_rho is exactly rho's stabilizer.  Q = G_rho/A is
    groups.coset_quotient(G_rho, A), the builder G.quotient(A) uses too:
    the cosets of A in G_rho, each lifted to its minimal element g.
    With g1 g2 = a0 g3 for the lifts of q1, q2 and q1 q2:

    * if Q is trivial, omega is the 1 x 1 zero table;
    * if rho is linear, omega(q1, q2) is the exponent of rho(a0)^-1, read
      exactly off the determinant character, and every U_g is 1;
    * otherwise (needs_matrix_model) rep must be a MatrixRep with
      character chi, else ValueError.  For each lift g a unitary U_g with
      U_g rho(g^-1 a g) U_g^-1 = rho(a) is computed and rescaled to det 1,
      and omega(q1, q2) is the Schur scalar of
      rho(a0)^-1 U_{g1} U_{g2} U_{g3}^-1, snapped to an exact root of unity
      within max(DEFAULT_SNAP_TOL, 100 * tol) and cross-checked against
      the determinant character: omega^rho(1) = det rho(a0)^-1.

    The cocycle identity is then verified exactly on every route.
    """
    from .orbits import extension_exists  # deferred: orbits depends on this module
    Agrp, _ = A.as_group()
    if chi.group is not Agrp:
        raise ValueError("chi must be a character of the materialized subgroup")
    table_a = character_table(Agrp)
    row = table_a.row_index(chi.values)
    trivial = extension_exists(G_rho, A, row)
    G = G_rho.parent
    d = table_a.degrees[row]
    Q = coset_quotient(G_rho, A)
    m = Q.order

    # det o rho is a class function: one exact value (k, m), meaning
    # zeta_m^k, per class of A; modulus is d times its order
    det_vals = [determinant_character_value(chi, cls[0])
                for cls in Agrp.conjugacy_classes()]
    modulus = d * lcm(*(mm for _, mm in det_vals))
    # det rho(a) = zeta_modulus^det_exp[class of a]
    det_exp = [(k * (modulus // mm)) % modulus for k, mm in det_vals]

    reps_g = Q.section
    eye = np.eye(d)
    exact = not needs_matrix_model(G_rho, A, d)
    if exact:
        units = [eye] * m
    else:
        if rep is None or rep.character != chi:
            raise ValueError("rho(1) >= 2 and G_rho/A is nontrivial: rep must be a "
                             "matrix model of chi")
        snap_tol = max(DEFAULT_SNAP_TOL, 100 * tol)
        rng = np.random.default_rng(seed)
        # lifts are minimal in their coset of A, so maps[coset_of[g]] is
        # exactly a -> g^-1 a g
        coset_of, _, maps = G.conjugation_action(A)
        units = [eye.copy()]
        for g in reps_g[1:]:
            U = intertwiner(rep.conjugated(maps[coset_of[g]]), rep, rng=rng, tol=tol)
            if U is None:
                raise AssertionError("coset representative does not stabilize rho")
            units.append(_det_normalize(U))

    omega = [[0] * m for _ in range(m)]
    for q1 in range(m):
        for q2 in range(m):
            q12 = Q.group.mul(q1, q2)
            g1, g2, g3 = reps_g[q1], reps_g[q2], reps_g[q12]
            a0 = A.retract(G.mul(G.mul(g1, g2), G.inv(g3)))  # raises if not in A
            det_inv = (-det_exp[Agrp.class_index(a0)]) % modulus
            if exact:  # d == 1, or m == 1 and a0 == 1
                omega[q1][q2] = det_inv
                continue
            M = rep.images[a0].conj().T @ units[q1] @ units[q2] @ units[q12].conj().T
            c = np.trace(M) / d
            if np.max(np.abs(M - c * eye)) > snap_tol:
                raise NonScalar("cocycle matrix is not scalar at (%d, %d)" % (q1, q2))
            k = round(modulus * (cmath.phase(c) / (2 * math.pi))) % modulus
            if abs(c - cmath.exp(2j * math.pi * k / modulus)) > snap_tol:
                raise SnapFailure("scalar %r too far from mu_%d" % (c, modulus))
            # exact cross-check: omega^d must equal det(rho(a0))^-1
            if (k * d) % modulus != det_inv:
                raise SnapFailure("snapped scalar disagrees with the determinant character")
            omega[q1][q2] = k

    check_cocycle(Q.group, omega, modulus)
    return ObstructionRecord(character=chi, stabilizer=G_rho, quotient=Q,
                             omega=tuple(map(tuple, omega)),
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
