"""Exact irreducible character tables and class-function arithmetic.

The table of an abelian group is Hom(G, mu_e), e the exponent: its
characters are built as exponent vectors mod e along a generating sequence,
with values zeta_e^k, and each is its own determinant character.  Any other
table is computed with the Dixon-Schneider method over a prime field F_q with
q = 1 (mod exponent) and q > 2*sqrt(|G|): the class matrices are
simultaneously diagonalized on eigenspaces kept as reduced echelon bases of
Python ints, in which coordinates are read off at the pivot columns, and the
mod-q character values are lifted to exact cyclotomics by recovering the
eigenvalue multiplicities of each class representative through a discrete
Fourier inversion mod q, one product for all rows and classes.  The same
multiplicities give the determinant character det o chi of every row, which
the table keeps.  A table lists its distinct values once and codes every
entry by its position in that list, so rows are permuted, looked up and
written out as tuples of ints.  No floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .cyclotomic import Cyclotomic, _factorize, cyclotomic_to_jsonable, dot, from_exponent_counts
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

    def pullback(self, conj_map: Sequence[int]) -> "ClassFunction":
        """a -> self(conj_map[a]) for an automorphism conj_map of the group,
        e.g. a map of ``FiniteGroup.conjugation_action``."""
        return ClassFunction(self.group, [self.values[k] for k in
                                          self.group.class_permutation(conj_map)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassFunction) and other.group is self.group
                and other.values == self.values)

    def __repr__(self) -> str:
        return "ClassFunction(%s, %s)" % (self.group.name, list(self.values))


class CharacterTable:
    """All irreducible characters of a group, in a deterministic row order,
    coded by their distinct values.

    values holds each distinct value of the table once, in ascending
    ``sort_key`` order, and codes[i][c] is the position in values of the
    value of rows[i] on class c: equal values share one code, and the rows
    hold the objects of values.  Rows are looked up by their code tuples,
    so permuting, restricting and comparing rows handles ints, and each
    distinct value is converted or printed once.

    determinants[i][c] = (k, m) means that a representation with character
    rows[i] has determinant zeta_m^k on class c, with gcd(k, m) = 1 or
    (k, m) = (0, 1).
    """

    def __init__(self, group: FiniteGroup, values: Sequence[Cyclotomic],
                 codes: Sequence[Sequence[int]],
                 determinants: Sequence[Sequence[tuple[int, int]]]):
        self.group = group
        self.values = tuple(values)
        self.codes = tuple(map(tuple, codes))
        self.rows = tuple(ClassFunction(group, [self.values[c] for c in row])
                          for row in self.codes)
        self.determinants = tuple(tuple(d) for d in determinants)
        self.degrees = tuple(int(self.values[row[0]].integer()) for row in self.codes)
        self.classes = group.conjugacy_classes()
        self.class_reps = tuple(c[0] for c in self.classes)
        self.class_sizes = tuple(len(c) for c in self.classes)
        self._row_of = {row: i for i, row in enumerate(self.codes)}

    def __len__(self) -> int:
        return len(self.rows)

    def row_permutation(self, class_perm: Sequence[int]) -> tuple[int, ...]:
        """For each row i, the row whose value on every class c is row i's
        value on class class_perm[c]; KeyError if one is no row."""
        row_of = self._row_of
        return tuple([row_of[tuple([row[k] for k in class_perm])] for row in self.codes])

    def trivial_index(self) -> int:
        """The row of the trivial character: the one irreducible character
        constant on G, as a constant chi = d has <chi, chi> = d^2."""
        return next(i for i, row in enumerate(self.codes) if row.count(row[0]) == len(row))

    def to_jsonable(self) -> dict:
        """The table as JSON, one object per distinct value shared by every
        entry that holds it."""
        values = [cyclotomic_to_jsonable(v) for v in self.values]
        return {
            "group": self.group.name,
            "order": self.group.order,
            "exponent": self.group.exponent,
            "classes": [{"representative": int(r), "size": int(s)}
                        for r, s in zip(self.class_reps, self.class_sizes)],
            "rows": [{"degree": d, "values": [values[c] for c in row]}
                     for d, row in zip(self.degrees, self.codes)],
        }


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
    class_of = chi.group._class_of  # set: chi's group has its classes
    vals = [chi.values[class_of[embed[c[0]]]] for c in Hgrp.conjugacy_classes()]
    return ClassFunction(Hgrp, vals)


def determinant_character_value(chi: ClassFunction, g: int) -> tuple[int, int]:
    """det of the representation with irreducible character chi at g, as
    (k, m): zeta_m^k.

    Read off the character table of chi's group; ValueError unless chi is
    one of its rows.
    """
    table = character_table(chi.group)
    try:
        row = table.rows.index(chi)
    except ValueError:
        raise ValueError("determinant needs an irreducible character") from None
    return table.determinants[row][chi.group.class_index(g)]


# -- modular linear algebra on Python int lists ---------------------------------


def _echelon(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon basis mod q of the span of rows (entries in
    [0, q)) and its pivot columns, in increasing pivot order."""
    rows = list(rows)
    height = len(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        for piv in range(top, height):
            if rows[piv][c]:
                break
        else:
            continue
        inv = pow(rows[piv][c], -1, q)
        pivot_row = [x * inv % q for x in rows[piv]]
        rows[piv] = rows[top]
        rows[top] = pivot_row
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != top:
                rows[i] = [(x - f * y) % q for x, y in zip(row, pivot_row)]
        pivots.append(c)
        if top + 1 == height:
            break
    return rows[:len(pivots)], pivots


def _hessenberg(S: list[list[int]], q: int) -> list[list[int]]:
    """An upper Hessenberg matrix similar to S mod q; S is left unchanged.

    Step k applies the row operations that clear column k below row k + 1,
    then all their inverse column operations at once (the two commute).
    """
    H = [row[:] for row in S]
    m = len(H)
    for k in range(m - 2):
        k1 = k + 1
        piv = next((i for i in range(k1, m) if H[i][k]), None)
        if piv is None:
            continue
        if piv != k1:
            H[k1], H[piv] = H[piv], H[k1]
            for h in H:
                h[k1], h[piv] = h[piv], h[k1]
        inv = pow(H[k1][k], -1, q)
        top = H[k1]
        factors = []
        for i in range(k + 2, m):
            f = H[i][k] * inv % q
            if f:
                H[i] = [(a - f * b) % q for a, b in zip(H[i], top)]
                factors.append((i, f))
        if factors:
            for h in H:
                h[k1] = (h[k1] + sum(f * h[i] for i, f in factors)) % q
    return H


def _eigenvalues(S: list[list[int]], q: int) -> list[int]:
    """The distinct eigenvalues of S in F_q, ascending: the roots of the
    characteristic polynomial of an upper Hessenberg form H of S."""
    H = _hessenberg(S, q)
    m = len(H)
    polys: list[list[int]] = [[1]]  # charpolys of the leading blocks, constant term first
    for k in range(1, m + 1):
        # (lambda - H[k-1][k-1]) * p_{k-1}
        prev = polys[k - 1]
        diag = H[k - 1][k - 1]
        cur = [0] + prev
        for i, c in enumerate(prev):
            cur[i] -= diag * c
        # subdiagonal correction terms
        prod = 1
        for i in range(1, k):
            prod = prod * H[k - i][k - i - 1] % q
            if prod == 0:
                break
            coefv = prod * H[k - 1 - i][k - 1] % q
            if coefv:
                for t, c in enumerate(polys[k - 1 - i]):
                    cur[t] -= coefv * c
        polys.append([c % q for c in cur])
    poly, roots = polys[m][::-1], []
    for x in range(q):
        acc = 0
        for c in poly:
            acc = (acc * x + c) % q
        if not acc:
            roots.append(x)
    return roots


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
    rows, class_of = G._rows, G._class_of
    inverses = [G._inv[x] for x in classes[i]]
    columns = []
    for cls in classes:
        column = [0] * len(classes)
        for x in inverses:
            column[class_of[rows[x][cls[0]]]] += 1
        columns.append(column)
    return np.array(columns, dtype=np.int64).T


def character_table(G: FiniteGroup) -> CharacterTable:
    """All irreducible characters of G with exact cyclotomic values.

    An abelian G takes the route of ``_linear_table`` (Irr(G) = Hom(G, mu_e),
    no prime field); any other G that of ``_dixon_schneider``.  Rows are
    sorted by (degree, lexicographic value order) and coded by the table's
    distinct values; the result is cached on the group instance.
    CapExceeded above order DEFAULT_CHARTABLE_CAP.
    """
    if G._char_table is not None:
        return G._char_table
    if G.order > DEFAULT_CHARTABLE_CAP:
        raise CapExceeded("group order %d exceeds character table cap %d"
                          % (G.order, DEFAULT_CHARTABLE_CAP))
    rows = _linear_table(G) if G.is_abelian else _dixon_schneider(G)
    # codes are found per value object, as the routes build each distinct
    # value once.  All values share the order e, at which sort_key is
    # canonical: objects of one value sort next to each other and share a
    # code, and as codes follow sort_key, rows sort by their code tuples.
    objects = {id(v): v for row, _ in rows for v in row}
    values: list[Cyclotomic] = []
    code_of, last = {}, None
    for key, i in sorted([(v.sort_key(), i) for i, v in objects.items()]):
        if key != last:
            values.append(objects[i])
            last = key
        code_of[i] = len(values) - 1
    coded = sorted(((tuple([code_of[id(v)] for v in row]), dets) for row, dets in rows),
                   key=lambda pair: (values[pair[0][0]].integer(), pair[0]))
    table = CharacterTable(G, values, [row for row, _ in coded], [dets for _, dets in coded])
    if sum(d * d for d in table.degrees) != G.order:
        raise AssertionError("sum of squared degrees does not match group order")
    G._char_table = table
    return table


def _linear_table(G: FiniteGroup) -> list[tuple[list[Cyclotomic], list[tuple[int, int]]]]:
    """(values, determinants) per class for every character of an abelian G,
    unsorted.

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
    return [([roots[k[g]] for g in reps], [dets[k[g]] for g in reps]) for k in chars]


def _dixon_schneider(G: FiniteGroup) -> list[tuple[list[Cyclotomic], list[tuple[int, int]]]]:
    """(values, determinants) per class for every irreducible character of G,
    unsorted, by the Dixon-Schneider split over F_q and the lift of the
    module docstring.

    Each common eigenspace is a row basis B in reduced echelon form with
    pivot columns P.  If a class matrix A leaves it invariant, the
    coordinates of A.b on B are the entries of A.b at P, so S = (A.B^T)[P];
    the invariance B^T.S = A.B^T (mod q) is checked.  The eigenspace of each
    eigenvalue lam of S is K.B, K spanning ker(S - lam), re-based by
    ``_echelon``.  The lift multiplies chi mod q on the first e powers of
    every class representative, all rows at once, by the inverse Fourier
    matrix of Z/e, and makes each distinct multiplicity vector a value once.
    """
    classes = G.conjugacy_classes()
    r, n, e = len(classes), G.order, G.exponent
    q = dixon_prime(n, e)  # each int64 product below sums <= n terms < max(n, q)**2

    # simultaneous eigenspaces of the class matrices over F_q
    subspaces = [([[int(j == k) for k in range(r)] for j in range(r)], list(range(r)))]
    for i in range(1, r):
        if all(len(B) == 1 for B, _ in subspaces):
            break
        A = _class_matrix(G, classes, i)
        refined = []
        for B, pivots in subspaces:
            m = len(B)
            if m == 1:
                refined.append((B, pivots))
                continue
            Bq = np.array(B, dtype=np.int64)
            AB = A @ Bq.T % q
            S = AB[pivots]
            if (Bq.T @ S % q != AB).any():
                raise AssertionError("class matrix %d does not leave an eigenspace "
                                     "invariant mod %d" % (i, q))
            S = S.tolist()
            K, ends = [], []  # kernels of S - lam, stacked in ascending lam
            for lam in _eigenvalues(S, q):
                M = [row[:] for row in S]
                for j, row in enumerate(M):
                    row[j] = (row[j] - lam) % q
                R, kernel_pivots = _echelon(M, q)
                for f in range(m):
                    if f not in kernel_pivots:
                        x = [0] * m
                        x[f] = 1
                        for row, p in zip(R, kernel_pivots):
                            x[p] = -row[f] % q
                        K.append(x)
                ends.append(len(K))
            if len(K) != m:
                raise AssertionError("class matrix %d is not diagonal mod %d on an "
                                     "eigenspace" % (i, q))
            KB = (np.array(K, dtype=np.int64) @ Bq % q).tolist()
            refined += [_echelon(KB[a:b], q) for a, b in zip([0] + ends, ends)]
        subspaces = refined
    if any(len(B) != 1 for B, _ in subspaces) or len(subspaces) != r:
        raise AssertionError("class algebra failed to split into %d lines" % r)
    # each line is (v), scaled to v[p] = 1 at its first nonzero coordinate p
    if any(pivots != [0] for _, pivots in subspaces):
        raise AssertionError("eigenvector has zero identity coordinate")

    # v = |C_i| chi(g_i) / d: d^2 * sum_i v_i v_(i^-1) / |C_i| = |G|
    inv_sizes = np.array([pow(len(c), -1, q) for c in classes], dtype=np.int64)
    class_of = G._class_of
    inv_class = [class_of[G.inv(c[0])] for c in classes]
    V = np.array([B[0] for B, _ in subspaces], dtype=np.int64)
    degrees = []
    for s in ((V * V[:, inv_class] % q) * inv_sizes % q).sum(axis=1).tolist():
        d = next((x for x in range(1, (q - 1) // 2 + 1) if x * x * s % q == n % q), None)
        if d is None:
            raise AssertionError("degree is not a square mod q")
        degrees.append(d)
    d = np.array(degrees, dtype=np.int64)[:, None]
    X = d * V % q * inv_sizes % q  # chi mod q, one row per character

    # multiplicities c_j of the eigenvalues zeta_e^j of every class at once: the
    # inverse Fourier transform of chi on the first e powers of its representative
    w = pow(_primitive_root(q), (q - 1) // e, q)
    roots = [1] * e
    for k in range(1, e):
        roots[k] = roots[k - 1] * w % q
    t = np.arange(e)
    F = np.array(roots, dtype=np.int64)[np.outer(t, -t) % e] * pow(e, -1, q) % q
    powers = []
    for c in classes:
        cycle = [class_of[x] for x in G.powers(c[0])]
        powers += cycle * (e // len(cycle))
    C = X[:, powers].reshape(r * r, e) @ F % q
    if (C.reshape(r, r, e) > d[:, :, None]).any():
        raise AssertionError("eigenvalue multiplicity out of range")
    # each distinct value once; det o chi = zeta_e^k with k = sum_j j*c_j
    lifted: dict[tuple[int, ...], tuple[Cyclotomic, tuple[int, int]]] = {}
    entries = []
    for acc, k in zip(C.tolist(), (C @ t % e).tolist()):
        key = tuple(acc)
        entry = lifted.get(key)
        if entry is None:
            entry = lifted[key] = (from_exponent_counts(e, acc),
                                   (k // gcd(k, e), e // gcd(k, e)))
        entries.append(entry)
    return [([v for v, _ in entries[i:i + r]], [det for _, det in entries[i:i + r]])
            for i in range(0, r * r, r)]
