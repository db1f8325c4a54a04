"""Exact irreducible character tables and class-function arithmetic.

The table of an abelian group is Hom(G, mu_e), e the exponent: its
characters are built as exponent vectors mod e along a generating sequence,
with values zeta_e^k, and each is its own determinant character.  Any other
table is computed with the Dixon-Schneider method: the class matrices are
simultaneously diagonalized over a prime field F_q with q = 1 (mod exponent)
and q > 2*sqrt(|G|), and the resulting mod-q character values are lifted to
exact cyclotomics by recovering the eigenvalue multiplicities of each class
representative through a discrete Fourier inversion mod q.  The same
multiplicities give the determinant character det o chi of every row, which
the table keeps.  No floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .cyclotomic import Cyclotomic, _factorize, dot
from .errors import CapExceeded, GroupMismatch, NotSubgroup
from .groups import FiniteGroup, Subgroup

DEFAULT_CHARTABLE_CAP = 256


# -- class functions ------------------------------------------------------------


class ClassFunction:
    """A class function on a finite group: one exact value per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Sequence[Cyclotomic]):
        if len(values) != len(group.conjugacy_classes()):
            raise ValueError("value count does not match class count")
        self.group = group
        self.values = tuple(values)

    def __call__(self, g: int) -> Cyclotomic:
        return self.values[self.group.class_index(g)]

    def degree(self) -> Cyclotomic:
        return self.values[self.group.class_index(0)]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._check(other)
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __mul__(self, other) -> "ClassFunction":
        if isinstance(other, ClassFunction):
            self._check(other)
            return ClassFunction(self.group, [a * b for a, b in zip(self.values, other.values)])
        return ClassFunction(self.group, [v * other for v in self.values])

    __rmul__ = __mul__

    def pullback(self, conj_map: Sequence[int]) -> "ClassFunction":
        """a -> self(conj_map[a]) for an automorphism conj_map of the group,
        e.g. a map of ``FiniteGroup.conjugation_action``."""
        return ClassFunction(self.group, [self(conj_map[cls[0]])
                                          for cls in self.group.conjugacy_classes()])

    def _check(self, other: "ClassFunction") -> None:
        if other.group is not self.group:
            raise GroupMismatch("class functions live on different groups")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction) and other.group is self.group
                and other.values == self.values)

    def __hash__(self) -> int:
        return hash((id(self.group), self.values))

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def __repr__(self) -> str:
        return "ClassFunction(%s, %s)" % (self.group.name, list(self.values))


class CharacterTable:
    """All irreducible characters of a group, in a deterministic row order.

    determinants[i][c] = (k, m) means that a representation with character
    rows[i] has determinant zeta_m^k on class c, with gcd(k, m) = 1 or
    (k, m) = (0, 1).
    """

    def __init__(self, group: FiniteGroup, rows: Sequence[ClassFunction],
                 determinants: Sequence[Sequence[tuple[int, int]]]):
        self.group = group
        self.rows = tuple(rows)
        self.determinants = tuple(tuple(d) for d in determinants)
        self.degrees = tuple(int(r.degree().integer()) for r in self.rows)
        self.classes = group.conjugacy_classes()
        self.class_reps = tuple(c[0] for c in self.classes)
        self.class_sizes = tuple(len(c) for c in self.classes)
        self._row_lookup = {r.values: i for i, r in enumerate(self.rows)}

    def __len__(self) -> int:
        return len(self.rows)

    def row_index(self, values: Sequence[Cyclotomic]) -> int:
        """Index of the row with exactly these values; KeyError if absent."""
        return self._row_lookup[tuple(values)]

    def trivial_index(self) -> int:
        one = Cyclotomic.one(self.rows[0].values[0].e)
        return self.row_index([one] * len(self.classes))

    def to_jsonable(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "exponent": self.group.exponent,
            "classes": [{"representative": int(r), "size": int(s)}
                        for r, s in zip(self.class_reps, self.class_sizes)],
            "rows": [{"degree": d, "values": [cyclotomic_to_jsonable(v) for v in row.values]}
                     for d, row in zip(self.degrees, self.rows)],
        }


def cyclotomic_to_jsonable(v: Cyclotomic) -> dict:
    return {"e": v.e, "coeffs": {str(k): [c.numerator, c.denominator]
                                 for k, c in sorted(v.coeffs.items())}}


def cyclotomic_from_jsonable(obj: dict) -> Cyclotomic:
    return Cyclotomic(int(obj["e"]),
                      {int(k): Fraction(c[0], c[1]) for k, c in obj["coeffs"].items()})


# -- class function operations --------------------------------------------------


def inner_product(x1: ClassFunction, x2: ClassFunction) -> Cyclotomic:
    """(1/|G|) sum_g x1(g) conj(x2(g)), computed classwise, at the lcm of the
    value orders."""
    if x1.group is not x2.group:
        raise GroupMismatch("inner product needs class functions on the same group")
    G = x1.group
    sizes = [len(c) for c in G.conjugacy_classes()]
    e = lcm(*{v.e for v in x1.values + x2.values})
    return dot(e, zip(sizes, x1.values, x2.values), Fraction(1, G.order), conjugate=True)


def restrict(chi: ClassFunction, H: Subgroup) -> ClassFunction:
    """Restriction to a subgroup, as a class function on H.as_group()[0].

    Values keep the parent's cyclotomic order.
    """
    if chi.group is not H.parent:
        raise NotSubgroup("class function does not live on the subgroup's parent")
    Hgrp, embed = H.as_group()
    vals = [chi.values[chi.group.class_index(embed[c[0]])]
            for c in Hgrp.conjugacy_classes()]
    return ClassFunction(Hgrp, vals)


def determinant_character_value(chi: ClassFunction, g: int) -> tuple[int, int]:
    """det of the representation with irreducible character chi at g, as
    (k, m): zeta_m^k.

    Read off the character table of chi's group; ValueError unless chi is
    one of its rows.
    """
    table = character_table(chi.group)
    try:
        row = table.row_index(chi.values)
    except KeyError:
        raise ValueError("determinant needs an irreducible character") from None
    return table.determinants[row][chi.group.class_index(g)]


# -- modular linear algebra -------------------------------------------------------


def _mm(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    return (A @ B) % q


def _rref(M: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    R = M.copy() % q
    rows, cols = R.shape
    pivots = []
    rr = 0
    for c in range(cols):
        piv = None
        for i in range(rr, rows):
            if R[i, c] % q:
                piv = i
                break
        if piv is None:
            continue
        if piv != rr:
            R[[rr, piv]] = R[[piv, rr]]
        R[rr] = (R[rr] * pow(int(R[rr, c]), -1, q)) % q
        for i in range(rows):
            if i != rr and R[i, c]:
                R[i] = (R[i] - R[i, c] * R[rr]) % q
        pivots.append(c)
        rr += 1
        if rr == rows:
            break
    return R, pivots


def _solve(B: np.ndarray, C: np.ndarray, q: int) -> np.ndarray:
    """Solve B X = C mod q for B with full column rank."""
    m = B.shape[1]
    R, pivots = _rref(np.concatenate([B, C], axis=1), q)
    if pivots[:m] != list(range(m)):
        raise ValueError("basis matrix is column-rank deficient mod %d" % q)
    if any(p < m for p in pivots[m:]):
        raise AssertionError("unreachable")
    for i in range(m, R.shape[0]):
        if np.any(R[i, m:] % q):
            raise ValueError("inconsistent system: subspace not invariant")
    return R[:m, m:] % q


def _kernel(M: np.ndarray, q: int) -> np.ndarray:
    """Columns spanning ker(M) mod q."""
    n = M.shape[1]
    R, pivots = _rref(M, q)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(pivots):
            basis[pc, k] = (-int(R[i, fc])) % q
    return basis


def _hessenberg(S: np.ndarray, q: int) -> np.ndarray:
    H = S.copy() % q
    m = H.shape[0]
    for k in range(m - 2):
        piv = None
        for i in range(k + 1, m):
            if H[i, k] % q:
                piv = i
                break
        if piv is None:
            continue
        if piv != k + 1:
            H[[k + 1, piv]] = H[[piv, k + 1]]
            H[:, [k + 1, piv]] = H[:, [piv, k + 1]]
        inv = pow(int(H[k + 1, k]), -1, q)
        for i in range(k + 2, m):
            f = int(H[i, k]) * inv % q
            if f:
                H[i] = (H[i] - f * H[k + 1]) % q
                H[:, k + 1] = (H[:, k + 1] + f * H[:, i]) % q
    return H


def _charpoly(H: np.ndarray, q: int) -> list[int]:
    """Characteristic polynomial of an upper Hessenberg matrix mod q.

    Returned as coefficient list, constant term first.
    """
    m = H.shape[0]
    polys: list[list[int]] = [[1]]
    for k in range(1, m + 1):
        # (lambda - H[k-1,k-1]) * p_{k-1}
        prev = polys[k - 1]
        diag = int(H[k - 1, k - 1])
        cur = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % q
            cur[i] = (cur[i] - diag * c) % q
        # subdiagonal correction terms
        prod = 1
        for i in range(1, k):
            prod = prod * int(H[k - i, k - i - 1]) % q
            if prod == 0:
                break
            coefv = prod * int(H[k - 1 - i, k - 1]) % q
            if coefv:
                pi = polys[k - 1 - i]
                for t, c in enumerate(pi):
                    cur[t] = (cur[t] - coefv * c) % q
        polys.append([c % q for c in cur])
    return polys[m]


def _poly_roots(coeffs: list[int], q: int) -> list[int]:
    lam = np.arange(q, dtype=np.int64)
    acc = np.zeros(q, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * lam + c) % q
    return [int(x) for x in np.nonzero(acc == 0)[0]]


# -- Dixon-Schneider ------------------------------------------------------------


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime q with q = 1 (mod exponent) and q > 2*sqrt(order)."""
    q = exponent + 1
    while True:
        if q * q > 4 * order and _factorize(q) == [(q, 1)]:
            return q
        q += exponent


def _primitive_root(q: int) -> int:
    fac = [p for p, _ in _factorize(q - 1)]
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in fac):
            return g
    raise AssertionError("no primitive root found")


def _class_matrix(G: FiniteGroup, classes, i: int) -> np.ndarray:
    """(A_i)[j][k] = #{x in C_i : x^-1 z_k in C_j} for a fixed z_k in C_k."""
    r = len(classes)
    A = np.zeros((r, r), dtype=np.int64)
    for k in range(r):
        z = classes[k][0]
        for x in classes[i]:
            j = G.class_index(G.mul(G.inv(x), z))
            A[j, k] += 1
    return A


def character_table(G: FiniteGroup) -> CharacterTable:
    """All irreducible characters of G with exact cyclotomic values.

    An abelian G takes the route of ``_linear_table`` (Irr(G) = Hom(G, mu_e),
    no prime field); any other G that of ``_dixon_schneider``.  Rows are
    sorted by (degree, lexicographic value order); the result is cached on
    the group instance.  CapExceeded above order DEFAULT_CHARTABLE_CAP.
    """
    if G._char_table is not None:
        return G._char_table
    if G.order > DEFAULT_CHARTABLE_CAP:
        raise CapExceeded("group order %d exceeds character table cap %d"
                          % (G.order, DEFAULT_CHARTABLE_CAP))
    rows = _linear_table(G) if G.is_abelian else _dixon_schneider(G)
    if sum(int(row.degree().integer()) ** 2 for row, _ in rows) != G.order:
        raise AssertionError("sum of squared degrees does not match group order")
    rows.sort(key=lambda pair: (pair[0].degree().integer(), pair[0].sort_key()))
    table = CharacterTable(G, [row for row, _ in rows], [dets for _, dets in rows])
    G._char_table = table
    return table


def _linear_table(G: FiniteGroup) -> list[tuple[ClassFunction, list[tuple[int, int]]]]:
    """(row, determinants) for every character of an abelian G, unsorted.

    Irr(G) = Hom(G, mu_e), e the exponent, built along a generating
    sequence: g is the least element outside the subgroup H built so far
    and m the least exponent with g^m in H.  A character chi of H with
    chi(h) = zeta_e^k(h) extends to <H, g> in the m ways
    chi(g^i h) = zeta_e^(i*lam + k(h)) with m*lam = k(g^m) (mod e).  Every
    character is linear, so det o chi = chi.
    """
    n, e = G.order, G.exponent
    inside = [False] * n
    inside[0] = True
    members = [0]
    chars = [[0] * n]  # chars[c][h] = k with chi_c(h) = zeta_e^k, for h in H
    for g in G.elements():
        if inside[g]:
            continue
        cosets = []  # cosets[i - 1] = g^i H, aligned with members
        gi, m = g, 1
        while not inside[gi]:
            cosets.append([G.mul(gi, h) for h in members])
            gi = G.mul(gi, g)
            m += 1
        extended = []
        for k in chars:
            a = k[gi]
            if a % m:
                raise AssertionError("%d does not divide the exponent %d of chi(g^%d)"
                                     % (m, a, m))
            for j in range(m):
                lam = a // m + j * (e // m)
                ext = k[:]
                for i, coset in enumerate(cosets, 1):
                    off = i * lam
                    for h, x in zip(members, coset):
                        ext[x] = (k[h] + off) % e
                extended.append(ext)
        chars = extended
        for coset in cosets:
            members += coset
            for x in coset:
                inside[x] = True
    roots = [Cyclotomic.root_of_unity(e, k) for k in range(e)]
    dets = [(k // gcd(k, e), e // gcd(k, e)) for k in range(e)]
    reps = [c[0] for c in G.conjugacy_classes()]
    return [(ClassFunction(G, [roots[k[g]] for g in reps]), [dets[k[g]] for g in reps])
            for k in chars]


def _dixon_schneider(G: FiniteGroup) -> list[tuple[ClassFunction, list[tuple[int, int]]]]:
    """(row, determinants) for every irreducible character of G, unsorted,
    by the Dixon-Schneider split of the class matrices over F_q and the
    cyclotomic lift of the module docstring."""
    classes = G.conjugacy_classes()
    r = len(classes)
    n = G.order
    e = G.exponent
    q = dixon_prime(n, e)

    # simultaneous eigenspaces of the class matrices over F_q
    subspaces = [np.eye(r, dtype=np.int64)]
    for i in range(1, r):
        if all(B.shape[1] == 1 for B in subspaces):
            break
        A = _class_matrix(G, classes, i)
        refined = []
        for B in subspaces:
            m = B.shape[1]
            if m == 1:
                refined.append(B)
                continue
            S = _solve(B, _mm(A, B, q), q)
            roots = _poly_roots(_charpoly(_hessenberg(S, q), q), q)
            for lam in roots:
                K = _kernel((S - lam * np.eye(m, dtype=np.int64)) % q, q)
                if K.shape[1]:
                    refined.append(_mm(B, K, q))
        subspaces = refined
    if any(B.shape[1] != 1 for B in subspaces) or len(subspaces) != r:
        raise AssertionError("class algebra failed to split into %d lines" % r)

    sizes = [len(c) for c in classes]
    inv_class = [G.class_index(G.inv(c[0])) for c in classes]
    w = pow(_primitive_root(q), (q - 1) // e, q)

    # power maps, needed for the cyclotomic lift
    orders = [G.element_order(c[0]) for c in classes]
    power_classes = []
    for c in classes:
        g = c[0]
        pcs = []
        x = 0
        for _ in range(orders[G.class_index(g)]):
            pcs.append(G.class_index(x))
            x = G.mul(x, g)
        power_classes.append(pcs)

    rows = []
    for B in subspaces:
        v = B[:, 0] % q
        if v[0] == 0:
            raise AssertionError("eigenvector has zero identity coordinate")
        v = (v * pow(int(v[0]), -1, q)) % q
        s = 0
        for i in range(r):
            s = (s + int(v[i]) * int(v[inv_class[i]]) * pow(sizes[i], -1, q)) % q
        d2 = n * pow(s, -1, q) % q
        d = None
        for x in range(1, (q - 1) // 2 + 1):
            if x * x % q == d2:
                d = x
                break
        if d is None:
            raise AssertionError("degree is not a square mod q")
        chi_q = [(d * int(v[i]) * pow(sizes[i], -1, q)) % q for i in range(r)]

        values = []
        dets = []  # det o chi = zeta_m^k with k = sum_j j*c_j
        for i in range(r):
            m = orders[i]
            z = pow(w, e // m, q)
            zp = [pow(z, t, q) for t in range(m)]
            minv = pow(m, -1, q)
            coeffs = {}
            k = 0
            for j in range(m):
                acc = 0
                for t in range(m):
                    acc = (acc + chi_q[power_classes[i][t]] * zp[(-j * t) % m]) % q
                cj = acc * minv % q
                if cj > d:
                    raise AssertionError("eigenvalue multiplicity out of range")
                if cj:
                    coeffs[(e // m) * j] = cj
                    k += j * cj
            values.append(Cyclotomic(e, coeffs))
            k %= m
            dets.append((k // gcd(k, m), m // gcd(k, m)))
        rows.append((ClassFunction(G, values), dets))
    return rows
