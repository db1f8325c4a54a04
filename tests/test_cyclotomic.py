import random
from fractions import Fraction
from math import gcd

import pytest

from isotypic.cyclotomic import Cyclotomic


def random_value(rng, e, terms=3):
    coeffs = {rng.randrange(e): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
              for _ in range(terms)}
    return Cyclotomic(e, coeffs)


def test_basis_has_phi_e_exponents():
    from isotypic.cyclotomic import _nonbasis
    for e in [1, 2, 3, 4, 6, 8, 9, 12, 16, 20, 24, 26]:
        phi = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
        assert e - len(_nonbasis(e)) == phi
    for e in (0, -4):
        with pytest.raises(ValueError, match="order must be positive"):
            Cyclotomic(e, {})


def test_full_prime_relation_reduces_to_zero():
    for e in [2, 3, 5, 7, 12, 30]:
        for p in {f for f in range(2, e + 1) if e % f == 0 and all(f % d for d in range(2, f))}:
            for k in range(e):
                s = Cyclotomic.zero(e)
                for j in range(p):
                    s = s + Cyclotomic.root_of_unity(e, (k + j * e // p) % e)
                assert s.is_zero()


def test_minus_one_and_i():
    i = Cyclotomic.root_of_unity(4, 1)
    assert (i * i).rational() == -1
    assert (i * i * i * i).rational() == 1
    m = Cyclotomic.root_of_unity(2, 1)
    assert m.rational() == -1


def test_conjugation_is_involution_and_fixes_rationals():
    rng = random.Random(7)
    for e in [4, 6, 8, 12, 20]:
        for _ in range(25):
            v = random_value(rng, e)
            assert v.conjugate().conjugate() == v
        r = Cyclotomic.from_rational(e, Fraction(3, 7))
        assert r.conjugate() == r


def test_conjugation_on_roots():
    for e in [4, 5, 8, 12]:
        for k in range(e):
            z = Cyclotomic.root_of_unity(e, k)
            assert z.conjugate() == Cyclotomic.root_of_unity(e, (e - k) % e)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for e in [4, 6, 9, 12]:
        for _ in range(30):
            a, b, c = (random_value(rng, e) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + a * -1 == Cyclotomic.zero(e)
            assert a * Cyclotomic.one(e) == a


def test_norm_positive_definite():
    rng = random.Random(13)
    for e in [4, 8, 12]:
        for _ in range(20):
            v = random_value(rng, e)
            # v * conj(v) has nonnegative rational trace; zero only at zero
            prod = v * v.conjugate()
            approx = prod.to_complex()
            assert approx.real >= -1e-9
            if not v.is_zero():
                assert approx.real > 0


def test_canonical_equality_detects_hidden_zero():
    # zeta_5 + zeta_5^2 + zeta_5^3 + zeta_5^4 + 1 = 0, assembled indirectly
    total = Cyclotomic.from_rational(5, 1)
    for k in range(1, 5):
        total = total + Cyclotomic.root_of_unity(5, k)
    assert total.is_zero()
    assert total == Cyclotomic.zero(5)


def test_equality_compares_cyclotomics_only():
    """A value equals a Cyclotomic of the same order and value; an int or
    Fraction operand is not coerced, so it compares unequal."""
    assert Cyclotomic.one(4) == Cyclotomic.from_rational(4, 1)
    assert Cyclotomic.one(4) != 1
    assert Cyclotomic.zero(4) != Fraction(0)


def test_promote_preserves_value():
    rng = random.Random(17)
    for e, ee in [(2, 4), (4, 8), (4, 12), (6, 12), (3, 12)]:
        for _ in range(10):
            v = random_value(rng, e)
            w = v.promote(ee)
            assert abs(v.to_complex() - w.to_complex()) < 1e-9
            assert v.equals_value(w)


def test_promote_requires_divisibility():
    v = Cyclotomic.root_of_unity(4, 1)
    with pytest.raises(ValueError):
        v.promote(6)


def test_rational_detection():
    v = Cyclotomic(6, {1: 1})  # zeta_6 = 1 + zeta_6^2 in the stored basis
    assert not v.is_rational()
    w = v + v.conjugate()  # 2*cos(pi/3) = 1
    assert w.is_rational() and w.rational() == 1
    assert w.integer() == 1


def test_sort_key_total_order_is_stable():
    vals = [Cyclotomic.root_of_unity(4, k) for k in range(4)]
    vals += [Cyclotomic.from_rational(4, 2), Cyclotomic.zero(4)]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(vals)
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable without error


# -- equivalence with the Fraction-per-coefficient kernel ------------------------
#
# RefCyclotomic is the earlier implementation, kept verbatim apart from its
# names: one Fraction per basis coefficient, reduced one prime at a time after
# every operation.  The integer kernel must agree with it on every view.

from functools import lru_cache  # noqa: E402

from hypothesis import given, strategies as st  # noqa: E402

from isotypic.cyclotomic import _factorize, dot  # noqa: E402


@lru_cache(maxsize=None)
def _ref_primes(e):
    out = []
    for p, v in _factorize(e):
        pv = p ** v
        out.append((p, pv, p ** (v - 1), pow(e // pv, -1, pv)))
    return out


def _ref_layer(k, prime_entry):
    p, pv, pv1, inv = prime_entry
    return ((k * inv) % pv) // pv1


def _ref_reduce(e, coeffs):
    cur = {k % e: v for k, v in coeffs.items() if v != 0}
    for pe in _ref_primes(e):
        p = pe[0]
        shift = e // p
        nxt = {}
        for k, c in cur.items():
            if _ref_layer(k, pe) == p - 1:
                for j in range(1, p):
                    kk = (k - j * shift) % e
                    nxt[kk] = nxt.get(kk, Fraction(0)) - c
            else:
                nxt[k] = nxt.get(k, Fraction(0)) + c
        cur = {k: v for k, v in nxt.items() if v != 0}
    return cur


class RefCyclotomic:
    __slots__ = ("e", "_coeffs")

    def __init__(self, e, coeffs):
        self.e = int(e)
        reduced = _ref_reduce(self.e, {int(k): Fraction(v) for k, v in coeffs.items()})
        self._coeffs = tuple(sorted(reduced.items()))

    @staticmethod
    def zero(e):
        return RefCyclotomic(e, {})

    @property
    def coeffs(self):
        return dict(self._coeffs)

    def is_rational(self):
        return all(k == 0 for k, _ in self._coeffs)

    def rational(self):
        if not self._coeffs:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("value is not rational: %r" % (self,))
        return self._coeffs[0][1]

    def to_complex(self):
        import cmath
        tau = 2.0 * cmath.pi / self.e
        return sum(float(c) * cmath.exp(1j * tau * k) for k, c in self._coeffs) + 0j

    def sort_key(self):
        return tuple((k, -c) for k, c in self._coeffs)

    def _binop_coeffs(self, other):
        if self.e == other.e:
            return self.e, dict(self._coeffs), dict(other._coeffs)
        e = self.e * other.e // gcd(self.e, other.e)
        a = {k * (e // self.e): v for k, v in self._coeffs}
        b = {k * (e // other.e): v for k, v in other._coeffs}
        return e, a, b

    def __add__(self, other):
        e, a, b = self._binop_coeffs(other)
        for k, v in b.items():
            a[k] = a.get(k, Fraction(0)) + v
        return RefCyclotomic(e, a)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefCyclotomic(self.e, {k: v * other for k, v in self._coeffs})
        e, a, b = self._binop_coeffs(other)
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = (k1 + k2) % e
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return RefCyclotomic(e, out)

    def conjugate(self):
        return RefCyclotomic(self.e, {(self.e - k) % self.e: v for k, v in self._coeffs})

    def promote(self, e):
        if e % self.e != 0:
            raise ValueError("cannot promote order %d to %d" % (self.e, e))
        scale = e // self.e
        return RefCyclotomic(e, {k * scale: v for k, v in self._coeffs})

    def __eq__(self, other):
        return self.e == other.e and self._coeffs == other._coeffs

    def equals_value(self, other):
        e = self.e * other.e // gcd(self.e, other.e)
        return self.promote(e) == other.promote(e)

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in self._coeffs:
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("z%d^%d" % (self.e, k))
            else:
                parts.append("%s*z%d^%d" % (c, self.e, k))
        return " + ".join(parts)


ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 21, 25, 27, 60]

rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)))


@st.composite
def value_pairs(draw, orders=st.sampled_from(ORDERS)):
    """(new, reference) built from one coefficient map at one order."""
    e = draw(orders)
    coeffs = draw(st.dictionaries(st.integers(0, e - 1), rationals, max_size=5))
    return Cyclotomic(e, coeffs), RefCyclotomic(e, coeffs)


def assert_same(new, ref):
    assert new.e == ref.e
    coeffs = new.coeffs
    assert coeffs == ref.coeffs
    assert all(type(c) is Fraction for c in coeffs.values())
    assert new.sort_key() == ref.sort_key()
    assert repr(new) == repr(ref)
    assert new.to_complex() == ref.to_complex()
    if ref.is_rational():
        assert new.is_rational() and new.rational() == ref.rational()
        assert type(new.rational()) is Fraction
    else:
        with pytest.raises(ValueError):
            new.rational()


@given(value_pairs())
def test_construction_matches_reference(x):
    assert_same(*x)


@given(value_pairs(), value_pairs())
def test_binary_operations_match_reference(x, y):
    (a, ra), (b, rb) = x, y
    assert_same(a + b, ra + rb)
    assert_same(a * b, ra * rb)
    assert a.equals_value(b) == ra.equals_value(rb)
    assert (a == b) == (ra == rb)


@given(value_pairs(), rationals, st.sampled_from([1, 2, 3, 5]))
def test_unary_operations_match_reference(x, r, m):
    a, ra = x
    assert_same(a * r, ra * r)
    assert_same(a.conjugate(), ra.conjugate())
    assert_same(a.promote(a.e * m), ra.promote(ra.e * m))
    assert a.equals_value(a.promote(a.e * m))
    assert (a + a.conjugate()) == (a.conjugate() + a)
    rr = RefCyclotomic(a.e, {0: r})
    assert_same(a + r, ra + rr)
    if a.e > 1:
        bad = a.e * m + 1  # coprime to a.e, so not a multiple of it
        message = "cannot promote order %d to %d" % (a.e, bad)
        for value in (a, ra):
            with pytest.raises(ValueError) as err:
                value.promote(bad)
            assert str(err.value) == message


@given(value_pairs())
def test_jsonable_pairs_are_the_lowest_terms_coefficients(x):
    """cyclotomic_to_jsonable reads the basis numerators and the common
    denominator; each pair is the coefficient's Fraction in lowest terms,
    keys in basis order, and the value reads back unchanged."""
    from isotypic.cyclotomic import cyclotomic_from_jsonable, cyclotomic_to_jsonable
    a, _ = x
    out = cyclotomic_to_jsonable(a)
    assert out == {"e": a.e, "coeffs": {str(k): [c.numerator, c.denominator]
                                        for k, c in sorted(a.coeffs.items())}}
    assert list(out["coeffs"]) == [str(k) for k in sorted(a.coeffs)]
    assert cyclotomic_from_jsonable(out) == a


@given(st.sampled_from([1, 2, 4, 12, 21, 60]), st.data(), rationals, st.booleans())
def test_dot_matches_term_by_term_sum(e, data, scale, conjugate):
    divisors = st.sampled_from([d for d in range(1, e + 1) if e % d == 0])
    terms, ref = [], RefCyclotomic.zero(e)
    for _ in range(data.draw(st.integers(0, 6))):
        w = data.draw(st.integers(-3, 3))
        a, ra = data.draw(value_pairs(divisors))
        b, rb = data.draw(value_pairs(divisors))
        terms.append((w, a, b))
        ref = ref + (ra * (rb.conjugate() if conjugate else rb)) * w
    assert_same(dot(e, terms, scale, conjugate=conjugate), ref * scale)


def test_exponents_are_read_mod_e_and_summed():
    # the reference kept only one of two keys that agree mod e
    assert Cyclotomic(4, {1: 1, 5: 2, -3: Fraction(1, 2)}) == Cyclotomic(4, {1: Fraction(7, 2)})
    assert Cyclotomic(1, {0: 1, 1: 1}).rational() == 2


def test_dot_rejects_an_order_that_does_not_divide():
    with pytest.raises(ValueError):
        dot(6, [(1, Cyclotomic.root_of_unity(4, 1), Cyclotomic.one(1))])


def test_inner_product_of_mixed_orders_matches_lcm(pairs):
    """<Res_A chi, rho> with chi at e_G and rho at e_A equals the product taken
    after promoting both to their lcm, and lives there."""
    from math import lcm

    from isotypic.characters import ClassFunction, character_table, inner_product, restrict

    checked = 0
    for name, G, A in pairs:
        Agrp, _ = A.as_group()
        table_a = character_table(Agrp)
        for chi in character_table(G).rows:
            res = restrict(chi, A)
            for row in table_a.rows:
                L = lcm(res.values[0].e, row.values[0].e)
                got = inner_product(res, row)
                want = inner_product(
                    ClassFunction(Agrp, [v.promote(L) for v in res.values]),
                    ClassFunction(Agrp, [v.promote(L) for v in row.values]))
                assert got.e == L and got == want, name
                assert got.rational().denominator == 1
                checked += G.exponent != Agrp.exponent
    assert checked
