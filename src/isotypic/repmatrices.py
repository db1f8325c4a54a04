"""Unitary matrix models of the irreducible representations, and the
obstruction cocycle, built with floats only where it needs them.

Each irreducible is the left ideal of one primitive idempotent of the group
algebra and each intertwiner is one projection: nothing is drawn at random,
so every matrix depends only on the group table.  The obstruction 2-cocycle
of an irreducible rho of a normal subgroup A lives on Q = G_rho/A, read
as the stabilizer of rho in G.quotient(A), so no G_rho is built.  It is
exact when Q is trivial or rho is linear; otherwise it is snapped from
intertwiners between conjugate matrix models to exact roots of unity, and
every identity check downstream is exact integer arithmetic.  Whether its
class is trivial is decided on the characters of the group
(orbits.extension_exists), never on the floats.  Residuals are checked
against TOL; Schur scalars are snapped, and the traces of a matrix model
compared with its exact character, within SNAP_TOL.  Neither is a
parameter.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .characters import ClassFunction, character_table
from .errors import (CapExceeded, InvalidCocycle, NonScalar,
                     NumericalDegeneracy, SnapFailure, SplitFailure)
from .groups import FiniteGroup, Subgroup

TOL = 1e-8
SNAP_TOL = 1e-6
MATRIX_IRREPS_CAP = 256
# bytes of the residual buffer of one block of g in _check_rep
_CHECK_BYTES = 2 ** 17


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
                         self.character.pullback(self.group, conj_map.__getitem__))


def matrix_irreps(G: FiniteGroup, rows: Sequence[int]) -> list[MatrixRep]:
    """One unitary MatrixRep per row index of G's character table in rows,
    in that order; CapExceeded above order MATRIX_IRREPS_CAP.

    A non-linear chi of degree d is modelled on the left ideal C[G] e of the
    self-adjoint primitive idempotent e = e_chi e_lambda (Serre, Linear
    Representations of Finite Groups, 2.6-2.7; lambda from
    _multiplicity_one_idempotent).  Greedy Gram-Schmidt over the y e, y in
    element order, gives an orthonormal basis W of it, and rho(g) =
    W^H reg[g] W, reg[g] being the permutation h -> g h of the group table.
    SplitFailure if no lambda is found or the ideal is not d-dimensional.
    """
    if G.order > MATRIX_IRREPS_CAP:
        raise CapExceeded("order %d exceeds matrix_irreps cap %d"
                          % (G.order, MATRIX_IRREPS_CAP))
    table = character_table(G)
    n = G.order
    cayley = G._rows
    table_array = np.array(cayley)
    # x h^-1 for every (x, h), the g with reg[g][x, h] == 1, C-ordered
    quotients = np.take(table_array, G._inv, axis=1)
    reps = []
    for row, d in ((table.rows[i], table.degrees[i]) for i in rows):
        values = np.array([v.to_complex() for v in row.values])[G.class_of]
        if d == 1:
            reps.append(MatrixRep(G, 1, values.reshape(n, 1, 1), row))
            continue
        # the regular matrix of e_chi = sum_g conj(chi(g)) g * d/|G|
        P = values.conj()[quotients] * (d / n)
        e = P @ _multiplicity_one_idempotent(G, values, table_array)
        W = np.zeros((n, 0), dtype=complex)
        for y in G.elements():
            v = e[cayley[G._inv[y]]]  # (y e)(z) = e(y^-1 z)
            v -= W @ (W.conj().T @ v)
            norm = np.linalg.norm(v)
            # the y e are a tight frame of the ideal: with k < d kept, the
            # squared residuals sum to d - k, so some y exceeds 1/(2|G|)
            if norm * norm > 0.5 / n:
                W = np.column_stack([W, v / norm])
                if W.shape[1] == d:
                    break
        else:
            raise SplitFailure("ideal has dimension %d, expected %d" % (W.shape[1], d))
        # W^H reg[g] W, with W^H reg[g] gathered as a column permutation
        rep = MatrixRep(G, d, np.array([W[cayley[g]].conj().T @ W for g in G.elements()]), row)
        _check_rep(rep, table_array)
        reps.append(rep)
    return reps


def _multiplicity_one_idempotent(G: FiniteGroup, chi: np.ndarray,
                                 table: np.ndarray) -> np.ndarray:
    """e_lambda = sum_{x in H} conj(lambda(x)) x / |H| over G, for the first
    abelian H with a linear lambda of multiplicity one in Res_H chi (chi[g]
    is chi's value at g, table is G's table as an array).  H = <h, k> comes
    first, h a class representative and k in its centralizer, k = 1 first:
    every cyclic subgroup up to conjugacy, then every pair.  Multiplicity
    one passes to abelian overgroups, so if no pair has it, each h is grown
    to a maximal abelian subgroup.  The DFT of chi(h_1^i_1 ... h_r^i_r) over Z_o1 x ... x Z_or
    gives <Res chi, mu> for every linear mu of it, nonzero only through H.
    """
    rows = G._rows
    heads = [cls[0] for cls in G.conjugacy_classes()]
    pairs = ([h, k] for k in G.elements() for h in heads if rows[h][k] == rows[k][h])
    for gens in itertools.chain(pairs, (_maximal_abelian(G, h) for h in heads)):
        x = np.zeros((), dtype=int)
        for g in gens:
            x = table[x[..., None], G.powers(g)]
        ones = np.argwhere(np.rint(np.fft.fftn(chi[x]).real / x.size) == 1)
        if len(ones):
            lam = np.zeros(G.order, dtype=complex)
            # every element of H is hit |x| / |H| times, each with its value
            phase = sum(a * i / o for a, i, o in zip(ones[0], np.indices(x.shape), x.shape))
            np.add.at(lam, x, np.exp(-2j * np.pi * phase) / x.size)
            return lam
    raise SplitFailure("no abelian subgroup has a linear character of multiplicity one")


def _maximal_abelian(G: FiniteGroup, h: int) -> list[int]:
    """Generators of a maximal abelian subgroup through h: after h, each is
    the least element that commutes with the subgroup so far, outside it."""
    gens = [h]
    for y in G.elements():
        if all(G.mul(y, g) == G.mul(g, y) for g in gens) and y not in G.subgroup(gens):
            gens.append(y)
    return gens


def _check_rep(rep: MatrixRep, table: np.ndarray) -> None:
    """Raise SplitFailure unless every image is unitary, rho(g) rho(h) =
    rho(gh) for every pair (g, h), both within TOL in the spectral norm, and
    the traces match the exact character within SNAP_TOL; table is the group
    table as an array.  The pair residuals are checked a block of g at a
    time, in one buffer of at most _CHECK_BYTES (or one g) per block."""
    G = rep.group
    M = rep.images
    residual = M @ M.conj().transpose(0, 2, 1)
    residual -= np.eye(rep.dimension)
    if not _within(residual):
        raise SplitFailure("representation image is not unitary")
    n, d = M.shape[:2]
    # column (h, j) of right is column j of rho(h): a block of rho(g) times
    # right is every rho(g) rho(h) of the block, as one matrix product
    right = M.transpose(1, 0, 2).reshape(d, n * d)
    block = max(1, _CHECK_BYTES // (n * M[0].nbytes))
    for start in range(0, n, block):
        blk = slice(start, start + block)
        products = (M[blk].reshape(-1, d) @ right).reshape(-1, d, n, d).transpose(0, 2, 1, 3)
        # the gathered rho(gh), contiguous, is the block's one residual buffer
        residual = M[table[blk]]
        np.subtract(products, residual, out=residual)
        if not _within(residual):
            raise SplitFailure("homomorphism residual above tolerance")
    for cls, val in zip(G.conjugacy_classes(), rep.character.values):
        if abs(np.trace(M[cls[0]]) - val.to_complex()) > SNAP_TOL:
            raise SplitFailure("trace does not match the exact character")


def _within(stack: np.ndarray) -> bool:
    """Whether every matrix of a (..., d, d) stack has spectral norm <= TOL.

    As ||X||_2 <= ||X||_F, a matrix whose Frobenius norm is within TOL
    passes; all Frobenius norms come from two einsums over the real and
    imaginary views, which copy nothing of the stack (no conjugate, no
    reshape), and only the rest are sent to the SVD behind the spectral
    norm.  A non-finite stack fails.
    """
    re, im = stack.real, stack.imag
    frobenius_sq = np.einsum("...ij,...ij->...", re, re) + np.einsum("...ij,...ij->...", im, im)
    if not np.isfinite(frobenius_sq).all():
        return False
    suspects = stack[frobenius_sq > TOL * TOL]
    return not len(suspects) or bool(np.all(np.linalg.norm(suspects, 2, axis=(1, 2)) <= TOL))


def intertwiner(rho1: MatrixRep, rho2: MatrixRep) -> Optional[np.ndarray]:
    """A unitary U with U rho1(g) U^-1 = rho2(g), or None if not isomorphic.

    Averaging X -> rho2(g) X rho1(g)^-1 over the group is the orthogonal
    projection onto the line spanned by an intertwining unitary U0 (Schur),
    and sends the matrix unit E_ij to conj(U0[i, j]) U0 / d.  All d^2 images
    come from one einsum; the largest, of squared Frobenius norm at least
    1/d^2, is rescaled to Frobenius norm sqrt(d).  NumericalDegeneracy if
    the images are not finite or the largest is below half that bound
    (the projection vanishes), or if the residual exceeds TOL.
    """
    if rho1.group is not rho2.group or rho1.dimension != rho2.dimension:
        return None
    if rho1.character != rho2.character:
        return None
    d = rho1.dimension
    # proj[i, j] is the average of rho2(g) E_ij rho1(g)^H
    proj = np.einsum("gai,gbj->ijab", rho2.images, rho1.images.conj()) / rho1.group.order
    norms_sq = np.einsum("ijab,ijab->ij", proj, proj.conj()).real
    i, j = np.unravel_index(np.argmax(norms_sq), norms_sq.shape)
    if not np.isfinite(norms_sq).all() or norms_sq[i, j] < 0.5 / d ** 2:
        raise NumericalDegeneracy("averaging projection is not finite or vanishes")
    U = proj[i, j] * math.sqrt(d / norms_sq[i, j])
    residual = U @ rho1.images @ U.conj().T
    residual -= rho2.images
    if not _within(residual):
        raise NumericalDegeneracy("averaged intertwiner has a residual above tolerance")
    return U


@dataclass(frozen=True)
class ObstructionRecord:
    """The obstruction cocycle of an irreducible rho of a normal subgroup A.

    quotient is Q = G_rho/A, the stabilizer of rho in G/A as a group of
    its own, and section the lifts in G of its elements, in order.  omega
    is a |Q| x |Q| table of exponents k meaning the root of unity
    exp(2*pi*i*k/modulus); modulus = rho(1) * order(det o rho), which makes
    every snapped scalar an exact root of unity.  trivial is decided by the
    exact character-level extension criterion, never numerically.
    """

    quotient: FiniteGroup
    section: tuple[int, ...]
    omega: tuple  # tuple of tuples of ints
    modulus: int
    trivial: bool


def stabilizer_of_character(G: FiniteGroup, A: Subgroup, chi: ClassFunction) -> Subgroup:
    """G_chi = {g : the class function a -> chi(g^-1 a g) equals chi}, for chi
    a row of A's character table: orbits.irr_stabilizer of that row.

    No src caller: kept because the benchmark's span list wraps it."""
    from .orbits import irr_stabilizer  # deferred: orbits depends on this module
    if chi.group is not A.as_group():
        raise ValueError("character does not live on the subgroup")
    return irr_stabilizer(G, A, character_table(chi.group).rows.index(chi))


def _det_normalize(U: np.ndarray) -> np.ndarray:
    d = U.shape[0]
    det = np.linalg.det(U)
    return U * cmath.exp(-cmath.log(det) / d)


def obstruction_cocycle(G: FiniteGroup, A: Subgroup, rho: int) -> ObstructionRecord:
    """Obstruction data for extending the irreducible rho, a row index of
    A's character table, from the normal subgroup A of G to its stabilizer
    G_rho.

    Whether rho extends is read off Irr(G) by orbits.extension_exists before
    anything else; it raises NotNormal unless A is normal in G.
    Q = G_rho/A is the stabilizer of rho in G/A = G.quotient(A): the cosets
    of A whose permutation of Irr(A) (orbits.irr_permutations) fixes rho,
    as a subgroup of G/A, each lifted to its minimal element g.
    With g1 g2 = a0 g3 for the lifts of q1, q2 and q1 q2:

    * if Q is trivial, omega is the 1 x 1 zero table;
    * if rho is linear, omega(q1, q2) is the exponent of rho(a0)^-1, read
      exactly off the determinant character, and every U_g is 1;
    * otherwise, and only then, matrix_irreps(A, [rho]) builds rho's one
      matrix model.  For each lift g a unitary U_g with
      U_g rho(g^-1 a g) U_g^-1 = rho(a) is computed and rescaled to det 1,
      and omega(q1, q2) is the Schur scalar of
      rho(a0)^-1 U_{g1} U_{g2} U_{g3}^-1, snapped to an exact root of unity
      within SNAP_TOL and cross-checked against the determinant character:
      omega^rho(1) = det rho(a0)^-1.

    The cocycle identity is then verified exactly on every route.
    """
    from .orbits import extension_exists, irr_permutations  # deferred: orbits imports this module
    trivial = extension_exists(G, A, rho)
    GA, lifts = G.quotient(A)
    Q_rho = GA.subgroup_from_members(
        c for c, perm in irr_permutations(G, A).items() if perm[rho] == rho)
    Q = Q_rho.as_group()
    section = tuple([lifts[c] for c in Q_rho.members])
    Agrp = A.as_group()
    table_a = character_table(Agrp)
    d = table_a.degrees[rho]
    m = Q.order

    # det o rho is a class function: one exact value (k, m), meaning
    # zeta_m^k, per class of A, read off rho's row of determinants in A's
    # class order; modulus is d times its order
    det_vals = table_a.determinants[rho]
    modulus = d * math.lcm(*(mm for _, mm in det_vals))
    # det rho(a) = zeta_modulus^det_exp[class of a]
    det_exp = [(k * (modulus // mm)) % modulus for k, mm in det_vals]

    eye = np.eye(d)
    exact = d == 1 or m == 1
    if not exact:
        rep = matrix_irreps(Agrp, [rho])[0]
        # lifts are minimal in their coset of A, so maps[c] is exactly
        # a -> g^-1 a g for the lift g of coset c
        maps = G.conjugation_action(A).maps
        units = [eye.copy()]
        for c in Q_rho.members[1:]:
            U = intertwiner(rep.conjugated(maps[c]), rep)
            if U is None:
                raise AssertionError("coset representative does not stabilize rho")
            units.append(_det_normalize(U))

    omega = [[0] * m for _ in range(m)]
    for q1 in range(m):
        for q2 in range(m):
            q12 = Q.mul(q1, q2)
            g1, g2, g3 = section[q1], section[q2], section[q12]
            a0 = A.retract(G.mul(G.mul(g1, g2), G.inv(g3)))  # raises if not in A
            det_inv = (-det_exp[Agrp.class_index(a0)]) % modulus
            if exact:  # d == 1, or m == 1 and a0 == 1
                omega[q1][q2] = det_inv
                continue
            M = rep.images[a0].conj().T @ units[q1] @ units[q2] @ units[q12].conj().T
            c = np.trace(M) / d
            if np.max(np.abs(M - c * eye)) > SNAP_TOL:
                raise NonScalar("cocycle matrix is not scalar at (%d, %d)" % (q1, q2))
            k = round(modulus * (cmath.phase(c) / (2 * math.pi))) % modulus
            if abs(c - cmath.exp(2j * math.pi * k / modulus)) > SNAP_TOL:
                raise SnapFailure("scalar %r too far from mu_%d" % (c, modulus))
            # exact cross-check: omega^d must equal det(rho(a0))^-1
            if (k * d) % modulus != det_inv:
                raise SnapFailure("snapped scalar disagrees with the determinant character")
            omega[q1][q2] = k

    check_cocycle(Q, omega, modulus)
    return ObstructionRecord(quotient=Q, section=section,
                             omega=tuple(map(tuple, omega)),
                             modulus=modulus, trivial=trivial)


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
