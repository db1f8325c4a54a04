import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from isotypic import characters
from isotypic.characters import (DEFAULT_CHARTABLE_CAP, CharacterTable, ClassFunction,
                                 character_table, determinant_character_value,
                                 inner_product, restrict)
from isotypic.cyclotomic import Cyclotomic
from isotypic.errors import CapExceeded, GroupMismatch, NotSubgroup
from isotypic.groups import group_from_generators

from conftest import (S3_GENS, S4_GENS, all_catalog_groups, dihedral, direct_product,
                      relabelled_group)


def one(e):
    return Cyclotomic.one(e)


def zero(e):
    return Cyclotomic.zero(e)


def test_trivial_group_table():
    G = group_from_generators(1, [[0]], name="1")
    t = character_table(G)
    assert len(t.rows) == 1
    assert t.degrees == (1,)


def test_z4_table_matches_worked_example(z4):
    G, _ = z4
    t = character_table(G)
    assert t.degrees == (1, 1, 1, 1)
    a = G.perm_index((1, 2, 3, 0))
    gen_values = sorted(str(row(a)) for row in t.rows)
    # the four linear characters send the generator to the fourth roots of unity
    assert gen_values == sorted(["1", "-1", "z4^1", "-1*z4^1"])
    i_row = next(row for row in t.rows if row(a) == Cyclotomic.root_of_unity(4, 1))
    assert i_row(G.mul(a, a)) == Cyclotomic.from_rational(4, -1)


def test_d8_degrees(d8):
    G, _ = d8
    t = character_table(G)
    assert t.degrees == (1, 1, 1, 1, 2)
    assert sum(d * d for d in t.degrees) == 8


def test_row_sorted_trivial_first(pairs):
    for name, G, A in pairs:
        t = character_table(G)
        assert t.trivial_index() == 0, name


def test_table_cap(monkeypatch):
    G = dihedral(7)
    monkeypatch.setattr(characters, "DEFAULT_CHARTABLE_CAP", 5)
    with pytest.raises(CapExceeded):
        character_table(G)


def test_row_and_column_orthogonality_exact(pairs):
    for name, G, A in pairs:
        t = character_table(G)
        e = G.exponent
        for i, ri in enumerate(t.rows):
            for j, rj in enumerate(t.rows):
                expected = one(e) if i == j else zero(e)
                assert inner_product(ri, rj) == expected, (name, i, j)
        # column orthogonality: sum_i chi_i(g) conj(chi_i(h)) = |C(g)| [g ~ h]
        r = len(t.rows)
        for a in range(r):
            for b in range(r):
                s = zero(e)
                for row in t.rows:
                    s = s + row.values[a] * row.values[b].conjugate()
                if a == b:
                    centralizer = G.order // t.class_sizes[a]
                    assert s == Cyclotomic.from_rational(e, centralizer)
                else:
                    assert s.is_zero()


def test_inner_product_orthonormality_and_regular(d8):
    G, _ = d8
    t = character_table(G)
    e = G.exponent
    # regular character: |G| at identity, 0 elsewhere
    reg_values = [Cyclotomic.from_rational(e, G.order if cls == (0,) else 0)
                  for cls in G.conjugacy_classes()]
    reg = ClassFunction(G, reg_values)
    two_dim = t.rows[t.degrees.index(2)]
    assert inner_product(reg, two_dim) == Cyclotomic.from_rational(e, 2)
    for d, row in zip(t.degrees, t.rows):
        assert inner_product(reg, row) == Cyclotomic.from_rational(e, d)


def test_inner_product_rho_rho3_zero(z4):
    G, _ = z4
    t = character_table(G)
    a = G.perm_index((1, 2, 3, 0))
    rho = next(r for r in t.rows if r(a) == Cyclotomic.root_of_unity(4, 1))
    rho3 = next(r for r in t.rows if r(a) == Cyclotomic.root_of_unity(4, 3))
    assert inner_product(rho, rho3).is_zero()


def test_inner_product_group_mismatch(z4, d8):
    t1 = character_table(z4[0])
    t2 = character_table(d8[0])
    with pytest.raises(GroupMismatch):
        inner_product(t1.rows[0], t2.rows[0])


def test_restrict_two_dim_of_d8(d8):
    G, A = d8
    t = character_table(G)
    two_dim = t.rows[t.degrees.index(2)]
    res = restrict(two_dim, A)
    Agrp, _ = A.as_group()
    ta = character_table(Agrp)
    a_loc = next(x for x in Agrp.elements() if Agrp.element_order(x) == 4)
    rho = next(r for r in ta.rows if r(a_loc) == Cyclotomic.root_of_unity(4, 1))
    rho3 = next(r for r in ta.rows if r(a_loc) == Cyclotomic.root_of_unity(4, 3))
    want = rho + rho3
    assert all(x.equals_value(y) for x, y in zip(res.values, want.values))


def test_restrict_trivial_is_trivial(pairs):
    for name, G, A in pairs:
        t = character_table(G)
        res = restrict(t.rows[t.trivial_index()], A)
        assert all(v.equals_value(Cyclotomic.one(1).promote(v.e)) or v.rational() == 1
                   for v in res.values)


def test_restrict_sign_character_of_d2p():
    G = dihedral(5)
    a = G.perm_index(tuple((i + 1) % 5 for i in range(5)))
    A = G.subgroup([a])
    t = character_table(G)
    sign = next(r for i, r in enumerate(t.rows)
                if t.degrees[i] == 1 and not all(v.rational() == 1 for v in r.values))
    res = restrict(sign, A)
    assert all(v.rational() == 1 for v in res.values)


def test_restrict_requires_subgroup_of_same_group(z4, d8):
    t = character_table(z4[0])
    _, A = d8
    with pytest.raises(NotSubgroup):
        restrict(t.rows[0], A)


def test_clifford_restriction_law(pairs):
    from isotypic.orbits import irr_action
    for name, G, A in pairs:
        t = character_table(G)
        Agrp, _ = A.as_group()
        ta = character_table(Agrp)
        e = G.exponent
        for chi in t.rows:
            res = restrict(chi, A)
            mults = []
            for row in ta.rows:
                row_p = ClassFunction(Agrp, [v.promote(e) for v in row.values])
                mults.append(inner_product(res, row_p).rational())
            nonzero = sorted({m for m in mults if m != 0})
            assert len(nonzero) <= 1, (name, mults)  # single multiplicity e
            support = frozenset(i for i, m in enumerate(mults) if m != 0)
            if support:
                # the support is exactly one G-orbit
                rep = min(support)
                orbit = {irr_action(G, A, g, rep) for g in G.elements()}
                assert support == frozenset(orbit), name


def reference_eigenvalue_multiplicities(chi: ClassFunction, g: int) -> list[int]:
    """Multiplicities (c_0..c_{m-1}) with chi(g) = sum_j c_j zeta_m^j, m = ord(g),
    by exact cyclotomic Fourier inversion on the cyclic group generated by g:
    a derivation from the lifted table values alone, independent of the mod-q
    multiplicities the table keeps."""
    G = chi.group
    m = G.element_order(g)
    e = chi.values[0].e
    ee = lcm(e, m)
    powers = []
    x = 0
    for _ in range(m):
        powers.append(chi.values[G.class_index(x)].promote(ee))
        x = G.mul(x, g)
    out = []
    for j in range(m):
        acc = Cyclotomic.zero(ee)
        for t in range(m):
            acc = acc + powers[t] * Cyclotomic.root_of_unity(ee, (-j * t * (ee // m)) % ee)
        c = (acc * Fraction(1, m)).rational()
        if c.denominator != 1:
            raise ValueError("eigenvalue multiplicity is not an integer")
        out.append(int(c))
    return out


def _determinant_groups():
    rng = random.Random(6)
    S5 = group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], name="S5")
    S4xZ2 = relabelled_group("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2), rng)
    S3xS3 = relabelled_group("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3), rng)
    return all_catalog_groups() + [S5, S4xZ2, S3xS3]


def test_determinant_matches_reference_inversion():
    """det o chi read off the lift equals zeta_m^k with k = sum_j j*c_j from
    the exact cyclotomic inversion, for every row at every element."""
    checked = 0
    for G in _determinant_groups():
        for chi in character_table(G).rows:
            for g in G.elements():
                m = G.element_order(g)
                mult = reference_eigenvalue_multiplicities(chi, g)
                k = sum(j * c for j, c in enumerate(mult)) % m
                expected = (k // gcd(k, m), m // gcd(k, m))
                assert determinant_character_value(chi, g) == expected, (G.name, chi, g)
                checked += 1
    assert checked == 3253 + 7 * 120 + 10 * 48 + 9 * 36


@pytest.mark.parametrize("which", ["twice-irreducible", "regular"])
def test_determinant_rejects_reducible_class_function(which, d8):
    G, _ = d8
    t = character_table(G)
    e = G.exponent
    if which == "twice-irreducible":
        chi = 2 * t.rows[t.degrees.index(2)]
    else:
        chi = ClassFunction(G, [Cyclotomic.from_rational(e, G.order)]
                            + [zero(e)] * (len(t.classes) - 1))
    with pytest.raises(ValueError, match="irreducible"):
        determinant_character_value(chi, 1)


def test_eigenvalue_multiplicities_and_determinant(d8):
    G, _ = d8
    t = character_table(G)
    two_dim = t.rows[t.degrees.index(2)]
    a = G.perm_index((1, 2, 3, 0))
    mult = reference_eigenvalue_multiplicities(two_dim, a)
    # rotation acts on C^2 with eigenvalues i and -i
    assert mult == [0, 1, 0, 1]
    k, m = determinant_character_value(two_dim, a)
    assert (k, m) == (0, 1)  # det = i * (-i) = 1
    b = G.perm_index((0, 3, 2, 1))
    kb, mb = determinant_character_value(two_dim, b)
    assert (kb, mb) == (1, 2)  # reflection has det -1


def test_tensor_product_of_characters_is_character(d8):
    G, _ = d8
    t = character_table(G)
    two = t.rows[t.degrees.index(2)]
    prod = two * two
    assert prod.degree().integer() == 4
    for row in t.rows:
        m = inner_product(prod, row).rational()
        assert m.denominator == 1 and m >= 0
    total = sum(inner_product(prod, row).rational() * d
                for row, d in zip(t.rows, t.degrees))
    assert total == 4


def test_export_roundtrip(z4):
    from isotypic.characters import cyclotomic_from_jsonable
    G, _ = z4
    t = character_table(G)
    data = t.to_jsonable()
    assert data["order"] == 4
    for row, exported in zip(t.rows, data["rows"]):
        back = [cyclotomic_from_jsonable(v) for v in exported["values"]]
        assert list(row.values) == back


# -- abelian tables: Hom(A, mu_e) against the Dixon-Schneider reference -----------

from math import prod  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from isotypic.catalog import CATALOG  # noqa: E402


def cyclic_product_generators(ns):
    """Degree and generators of Z_n1 x ... x Z_nk, one cycle of the points
    start..start+n-1 per factor."""
    degree = sum(ns)
    gens, start = [], 0
    for n in ns:
        gens.append([start + (i - start + 1) % n if start <= i < start + n else i
                     for i in range(degree)])
        start += n
    return degree, gens


def assert_table_is_dixon_schneider(G):
    """character_table(G) has the rows, row order and determinants of the
    Dixon-Schneider split sorted as the table sorts."""
    reference = characters._dixon_schneider(G)
    reference.sort(key=lambda pair: (pair[0].degree().integer(), pair[0].sort_key()))
    t = character_table(G)
    assert [row.values for row in t.rows] == [row.values for row, _ in reference], G.name
    assert t.determinants == tuple(tuple(dets) for _, dets in reference), G.name


_CYCLIC_PRODUCTS = ([[n] for n in range(1, 17)]
                    + [[2, 2], [2] * 6, [4, 4], [3, 9], [4, 8], [2, 2, 2, 2, 4]])


def test_abelian_tables_match_dixon_schneider():
    """A representative of every abelian subgroup class of every catalog
    group, and the products of cyclic groups above, each as built and
    relabelled."""
    rng = random.Random(18)
    checked = 0
    for _, entry in sorted(CATALOG.items()):
        name, degree, gens = entry.name, entry.degree, entry.generators
        for G in (group_from_generators(degree, gens, name=name),
                  relabelled_group(name, degree, gens, rng)):
            for cls in G.subgroup_conjugacy_classes():
                A = cls[0].as_group()[0]
                if A.is_abelian:
                    assert_table_is_dixon_schneider(A)
                    checked += 1
    for ns in _CYCLIC_PRODUCTS:
        name = "x".join("Z%d" % n for n in ns)
        degree, gens = cyclic_product_generators(ns)
        for G in (group_from_generators(degree, gens, name=name),
                  relabelled_group(name, degree, gens, rng)):
            assert G.is_abelian and G.order == prod(ns)
            assert_table_is_dixon_schneider(G)
            checked += 1
    assert checked == 334


@settings(max_examples=30)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(lambda ns: prod(ns) <= 48),
       st.integers(0, 2 ** 32))
def test_abelian_tables_match_dixon_schneider_on_relabelled_cyclic_products(ns, seed):
    degree, gens = cyclic_product_generators(ns)
    G = relabelled_group("x".join("Z%d" % n for n in ns), degree, gens, random.Random(seed))
    assert_table_is_dixon_schneider(G)


def test_abelian_tables_build_no_class_matrix(monkeypatch):
    """An abelian table never reaches the Dixon-Schneider split; a non-abelian
    one does."""
    calls = []
    real = characters._class_matrix

    def counted(G, classes, i):
        calls.append(G.name)
        return real(G, classes, i)

    monkeypatch.setattr(characters, "_class_matrix", counted)
    for ns in ([1], [12], [4, 4], [2, 2, 2]):
        degree, gens = cyclic_product_generators(ns)
        character_table(group_from_generators(degree, gens, name=str(ns)))
    assert calls == []
    character_table(dihedral(3))
    assert calls and set(calls) == {"D6"}


def test_abelian_table_cap():
    degree, gens = cyclic_product_generators([2] * 9)
    G = group_from_generators(degree, gens, name="Z2^9")
    assert G.is_abelian and G.order == 2 * DEFAULT_CHARTABLE_CAP
    with pytest.raises(CapExceeded):
        character_table(G)


def test_table_shape_matches_sympy():
    """An independent oracle: Irr(G) has one row per conjugacy class and
    |G/G'| linear rows, with the classes and G' from sympy.combinatorics."""
    from sympy.combinatorics import Permutation, PermutationGroup

    specs = [(e.name, e.degree, e.generators) for _, e in sorted(CATALOG.items())]
    specs += [("S4xZ2", 6, direct_product(S4_GENS, 4, [[1, 0]], 2)),
              ("S3xS3", 6, direct_product(S3_GENS, 3, S3_GENS, 3)),
              ("S5", 5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])]
    for name, degree, gens in specs:
        G = group_from_generators(degree, gens, name=name)
        P = PermutationGroup([Permutation(list(g), size=degree) for g in gens])
        t = character_table(G)
        assert P.order() == G.order, name
        assert len(t.rows) == len(P.conjugacy_classes()), name
        assert t.degrees.count(1) == G.order // P.derived_subgroup().order(), name
