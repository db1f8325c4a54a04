import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from isotypic import characters
from isotypic.catalog import CATALOG, build_catalog_group
from isotypic.characters import (DEFAULT_CHARTABLE_CAP, ClassFunction, character_table,
                                 determinant_character_value, inner_product, restrict)
from isotypic.cli import main
from isotypic.cyclotomic import Cyclotomic
from isotypic.errors import CapExceeded, GroupMismatch, NotSubgroup
from isotypic.groups import group_from_generators

from conftest import (S3_GENS, S4_GENS, all_catalog_groups, class_sum, dihedral,
                      direct_product, relabel, relabelled_group)


def test_catalog_entries_match_their_documented_invariants():
    """Every catalog entry's ``expected`` values (order, class count, class
    sizes, character degrees, abelian) hold for the group it builds."""
    assert len(CATALOG) == 35
    wrong = {}
    for name, entry in sorted(CATALOG.items()):
        G, _ = build_catalog_group(name)
        found = {"order": G.order, "classes": len(G.conjugacy_classes()),
                 "class_sizes": tuple(sorted(map(len, G.conjugacy_classes()))),
                 "degrees": tuple(sorted(character_table(G).degrees)),
                 "abelian": G.is_abelian}
        assert set(entry.expected) <= set(found), name
        if {key: found[key] for key in entry.expected} != entry.expected:
            wrong[name] = found
    assert not wrong


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
    a = G.generators[0]
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
    a = G.generators[0]
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
    want = class_sum([rho, rho3])
    assert all(x.equals_value(y) for x, y in zip(res.values, want.values))


def test_restrict_trivial_is_trivial(pairs):
    for name, G, A in pairs:
        t = character_table(G)
        res = restrict(t.rows[t.trivial_index()], A)
        assert all(v.equals_value(Cyclotomic.one(1).promote(v.e)) or v.rational() == 1
                   for v in res.values)


def test_restrict_sign_character_of_d2p():
    G = dihedral(5)
    a = G.generators[0]
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
        chi = class_sum([t.rows[t.degrees.index(2)]] * 2)
    else:
        chi = ClassFunction(G, [Cyclotomic.from_rational(e, G.order)]
                            + [zero(e)] * (len(t.classes) - 1))
    with pytest.raises(ValueError, match="irreducible"):
        determinant_character_value(chi, 1)


def test_eigenvalue_multiplicities_and_determinant(d8):
    G, _ = d8
    t = character_table(G)
    two_dim = t.rows[t.degrees.index(2)]
    a = G.generators[0]
    mult = reference_eigenvalue_multiplicities(two_dim, a)
    # rotation acts on C^2 with eigenvalues i and -i
    assert mult == [0, 1, 0, 1]
    k, m = determinant_character_value(two_dim, a)
    assert (k, m) == (0, 1)  # det = i * (-i) = 1
    b = G.generators[1]
    kb, mb = determinant_character_value(two_dim, b)
    assert (kb, mb) == (1, 2)  # reflection has det -1


def test_tensor_product_of_characters_is_character(d8):
    G, _ = d8
    t = character_table(G)
    two = t.rows[t.degrees.index(2)]
    prod = ClassFunction(G, [v * v for v in two.values])
    assert prod.values[0].integer() == 4
    for row in t.rows:
        m = inner_product(prod, row).rational()
        assert m.denominator == 1 and m >= 0
    total = sum(inner_product(prod, row).rational() * d
                for row, d in zip(t.rows, t.degrees))
    assert total == 4


def test_export_roundtrip(z4):
    from isotypic.cyclotomic import cyclotomic_from_jsonable
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
    reference.sort(key=lambda pair: (pair[0][0].integer(),
                                     tuple(v.sort_key() for v in pair[0])))
    t = character_table(G)
    assert [row.values for row in t.rows] == [tuple(row) for row, _ in reference], G.name
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


# -- the Dixon-Schneider split: pinned output, relabelling, failed checks ----------

D8_GENS = [[1, 2, 3, 0], [3, 2, 1, 0]]
_SPLIT_GROUPS = {
    "S3xS3": (6, direct_product(S3_GENS, 3, S3_GENS, 3)),
    "S4xZ2": (6, direct_product(S4_GENS, 4, [[1, 0]], 2)),
    "S4xS3": (7, direct_product(S4_GENS, 4, S3_GENS, 3)),
    "S5": (5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]),
    "D8xD8xZ2": (10, direct_product(direct_product(D8_GENS, 4, D8_GENS, 4), 8, [[1, 0]], 2)),
}


def test_d8xd8xz2_table_is_pinned():
    """Order 128 with 50 classes, so the split runs over several class
    matrices; the table and its determinants are the recorded ones."""
    G = group_from_generators(*_SPLIT_GROUPS["D8xD8xZ2"], name="D8xD8xZ2")
    t = character_table(G)
    assert (G.order, len(t.rows)) == (128, 50)
    digest = hashlib.sha256(json.dumps(t.to_jsonable(), sort_keys=True).encode()).hexdigest()
    assert digest == "ffa01073416b9c2483eedb5753e2d6ecaba8d6678055f8833d168ce9269432e1"
    assert hashlib.sha256(repr(t.determinants).encode()).hexdigest() == \
        "491626b56c9240fa12f11f0236ba93d9f68993af2089087e189a780339925d2a"


def _value_key(v):
    """A hashable key that is equal for two values iff they are equal:
    values are not hashable."""
    return v.e, v.sort_key()


@pytest.mark.parametrize("name", sorted(_SPLIT_GROUPS))
def test_split_is_invariant_under_relabelling(name):
    """Renaming the elements renames the classes and leaves every row and its
    determinants unchanged: the split depends on the group alone."""
    G = group_from_generators(*_SPLIT_GROUPS[name], name=name)
    t = character_table(G)
    expected = {(tuple(map(_value_key, row.values)), dets)
                for row, dets in zip(t.rows, t.determinants)}
    rng = random.Random(name)
    for _ in range(3):
        H, pi = relabel(G, rng)
        u = character_table(H)
        image = [H.class_index(pi[c[0]]) for c in G.conjugacy_classes()]
        assert sorted(image) == list(range(len(image)))
        assert {(tuple(_value_key(row.values[c]) for c in image), tuple(dets[c] for c in image))
                for row, dets in zip(u.rows, u.determinants)} == expected


def _coded_groups():
    """Every catalog group, and S5 and S4xS3 with their points relabelled."""
    rng = random.Random(33)
    return all_catalog_groups() + [
        relabelled_group("S5", 5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]], rng),
        relabelled_group("S4xS3", 7, direct_product(S4_GENS, 4, S3_GENS, 3), rng)]


def _assert_coded(t):
    """values[codes[i][c]] is the value of row i on class c, each distinct
    value is listed once in sort_key order, and equal values share a code."""
    assert len(t.codes) == len(t.rows)
    code_of_value = {}
    for row, codes in zip(t.rows, t.codes):
        assert len(codes) == len(t.classes)
        assert all(t.values[c] is v for c, v in zip(codes, row.values))
        for c, v in zip(codes, row.values):
            assert code_of_value.setdefault(_value_key(v), c) == c
    assert len(code_of_value) == len(t.values) == len(set(map(_value_key, t.values)))
    assert sorted(t.values, key=Cyclotomic.sort_key) == list(t.values)


def test_codes_give_each_distinct_value_one_code():
    for G in _coded_groups():
        t = character_table(G)
        _assert_coded(t)
        assert [t.rows.index(row) for row in t.rows] == list(range(len(t)))
        identity = list(range(len(t.classes)))
        assert t.row_permutation(identity) == tuple(range(len(t))), G.name


@pytest.mark.parametrize("name", ["S4", "S5"])
def test_codes_join_equal_values_built_as_separate_objects(name, monkeypatch):
    """The routes build each distinct value once, but the codes do not rely
    on it: with every entry a separate object the table, its codes and its
    row order are the same."""
    gens = {"S4": S4_GENS, "S5": [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]}[name]
    G = group_from_generators(len(gens[0]), gens, name=name)
    expected = character_table(G)
    route = characters._dixon_schneider

    def copied(H):
        return [([Cyclotomic(v.e, v.coeffs) for v in row], dets) for row, dets in route(H)]

    monkeypatch.setattr(characters, "_dixon_schneider", copied)
    H = group_from_generators(len(gens[0]), gens, name=name)
    t = character_table(H)
    _assert_coded(t)
    assert (t.values, t.codes, t.determinants) == \
        (expected.values, expected.codes, expected.determinants)


@pytest.mark.parametrize("name", ["D8", "Q8", "D10", "Q16", "F20", "F21"])
def test_a_failed_split_check_is_an_internal_fault(name, monkeypatch, capsys):
    """A class matrix that is not the group's (A_2 with one entry raised by
    one) fails the split's invariance check: exit 5 and no table."""
    real = characters._class_matrix

    def perturbed(G, classes, i):
        A = real(G, classes, i)
        if i == 2:
            A[0, 0] += 1
        return A

    monkeypatch.setattr(characters, "_class_matrix", perturbed)
    assert main(["irr", "catalog:" + name]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal inconsistency" in err and "invariant" in err


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
