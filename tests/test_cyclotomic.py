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
    from isotypic.cyclotomic import _basis_data
    for e in [1, 2, 3, 4, 6, 8, 9, 12, 16, 20, 24, 26]:
        data = _basis_data(e)
        # basis exponents avoid the top layer of every prime
        count = sum(1 for k in range(e)
                    if all(data.layer(k, pe) != pe[0] - 1 for pe in data.primes))
        phi = sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)
        assert count == phi


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
            assert a - a == Cyclotomic.zero(e)
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
