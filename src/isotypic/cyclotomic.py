"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is stored as integer numerators over a fixed integral basis of
Q(zeta_e) and one positive common denominator, in lowest terms.  The basis
consists of roots of unity: an exponent k is a basis exponent iff for every
prime power p^v || e the p-part of k avoids the top layer (digit p-1).
A non-basis root is rewritten with the relations

    sum_{j mod p} zeta_e^(k + j*e/p) = 0,

for every prime whose top layer it hits; the resulting expansion of each
non-basis root over the basis (all coefficients +-1) is tabulated per order
on first use (``_nonbasis``).  Every operation (sum, product, rational
scaling, conjugation, promotion and sums of products) is one call of
``dot``, which accumulates numerators in one dense list of length e and
reduces them once per result, so arithmetic costs O(e) memory.  The
representation is canonical: equality of values is equality of stored
numerators and denominator (at a common order e), and a value never equals
an int or a ``Fraction``.  Values are not hashable.  ``Fraction`` appears
only where values enter or leave: coefficient maps, ``coeffs``,
``rational()``, rational operands and the JSON form
``{"e": e, "coeffs": {k: [numerator, denominator]}}``, which only this
module reads or writes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Union

import cmath

Rat = Union[int, Fraction]


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            v = 0
            while n % d == 0:
                n //= d
                v += 1
            out.append((d, v))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def _nonbasis(e: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """(k, zeta_e^k over the basis as (basis exponent, +-1) pairs) for every
    exponent k outside the basis, in increasing k; ValueError unless e > 0.

    k is outside the basis iff its p-part hits the top layer for some
    prime p | e.  Shifting k by a multiple of e/p changes only its p-part,
    so the relation for each top-layer prime is applied once, independently.
    """
    if e <= 0:
        raise ValueError("order must be positive")
    primes = []
    for p, v in _factorize(e):
        pv = p ** v
        # the p-layer of k is the top digit of its p-part (k * inv) % pv
        primes.append((p, pv, p ** (v - 1), pow(e // pv, -1, pv)))
    out = []
    for k in range(e):
        terms = [(k, 1)]
        for p, pv, pv1, inv in primes:
            if (k * inv) % pv // pv1 == p - 1:
                shift = e // p
                terms = [((t - j * shift) % e, -s) for t, s in terms for j in range(1, p)]
        if terms != [(k, 1)]:
            out.append((k, tuple(terms)))
    return out


def _reduce(e: int, acc: list[int]) -> tuple[tuple[int, int], ...]:
    """The nonzero basis numerators of a dense numerator list at order e.

    acc is consumed: every non-basis entry is rewritten onto the basis in one
    pass.
    """
    for k, terms in _nonbasis(e):
        c = acc[k]
        if c:
            acc[k] = 0
            for t, s in terms:
                acc[t] += s * c
    return tuple([(k, c) for k, c in enumerate(acc) if c])


def _lowest(num: tuple[tuple[int, int], ...], den: int):
    """num/den with the common factor of numerators and denominator removed."""
    if den != 1:
        g = gcd(den, *[n for _, n in num])
        if g != 1:
            num = tuple([(k, n // g) for k, n in num])
            den //= g
    return num, den


def _make(e: int, num: tuple[tuple[int, int], ...], den: int) -> "Cyclotomic":
    """The value num/den at order e, num nonzero numerators over the basis."""
    num, den = _lowest(num, den)
    v = object.__new__(Cyclotomic)
    v.e = e
    v._num = num
    v._den = den
    return v


class Cyclotomic:
    """An exact element of Q(zeta_e), canonicalized on construction.

    Equality is structural at a fixed order; use equals_value() to compare
    values living at different orders.  A value holds its order, basis
    numerators and denominator and nothing else, and is not hashable.
    """

    __slots__ = ("e", "_num", "_den")

    def __init__(self, e: int, coeffs: Mapping[int, Rat]):
        e = int(e)
        _nonbasis(e)  # rejects e <= 0
        items = [(int(k), v if isinstance(v, int) else Fraction(v))
                 for k, v in coeffs.items()]
        den = 1
        for _, v in items:
            if not isinstance(v, int):
                den = lcm(den, v.denominator)
        acc = [0] * e
        for k, v in items:
            acc[k % e] += v * den if isinstance(v, int) else v.numerator * (den // v.denominator)
        self.e = e
        self._num, self._den = _lowest(_reduce(e, acc), den)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(e: int) -> "Cyclotomic":
        return Cyclotomic(e, {})

    @staticmethod
    def one(e: int) -> "Cyclotomic":
        return Cyclotomic(e, {0: 1})

    @staticmethod
    def from_rational(e: int, r: Rat) -> "Cyclotomic":
        return Cyclotomic(e, {0: Fraction(r)})

    @staticmethod
    def root_of_unity(e: int, k: int) -> "Cyclotomic":
        return Cyclotomic(e, {k % e: 1})

    # -- views ---------------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return {k: Fraction(n, self._den) for k, n in self._num}

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return all(k == 0 for k, _ in self._num)

    def rational(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("value is not rational: %r" % (self,))
        return Fraction(self._num[0][1], self._den)

    def integer(self) -> int:
        if not self._num:
            return 0
        if not self.is_rational() or self._den != 1:
            raise ValueError("value is not a rational integer: %r" % (self,))
        return self._num[0][1]

    def to_complex(self) -> complex:
        tau = 2.0 * cmath.pi / self.e
        return sum(n / self._den * cmath.exp(1j * tau * k) for k, n in self._num) + 0j

    def _coefficients(self):
        """(k, c) pairs with c an int when the denominator is 1."""
        if self._den == 1:
            return self._num
        return tuple((k, Fraction(n, self._den)) for k, n in self._num)

    def sort_key(self):
        """Total order used for deterministic row sorting.

        Coefficients are negated so that 1 sorts before -1 and before any
        non-rational value with the same support start; this puts the trivial
        character first in practice.
        """
        return tuple((k, -c) for k, c in self._coefficients())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.e, other)
        return dot(lcm(self.e, other.e), ((1, self, _ONE), (1, other, _ONE)))

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return dot(self.e, ((1, self, _ONE),), other)
        return dot(lcm(self.e, other.e), ((1, self, other),))

    def conjugate(self) -> "Cyclotomic":
        return dot(self.e, ((1, _ONE, self),), conjugate=True)

    def promote(self, e: int) -> "Cyclotomic":
        """Re-express at a larger order (current order must divide e)."""
        return dot(e, ((1, self, _ONE),))

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return (self.e == other.e and self._num == other._num
                and self._den == other._den)

    def equals_value(self, other: "Cyclotomic") -> bool:
        """Mathematical equality across different stored orders."""
        if self.e == other.e:
            return self == other
        e = lcm(self.e, other.e)
        return self.promote(e) == other.promote(e)

    def __repr__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for k, c in self._coefficients():
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("z%d^%d" % (self.e, k))
            else:
                parts.append("%s*z%d^%d" % (c, self.e, k))
        return " + ".join(parts)


def dot(e: int, terms: Iterable[tuple[int, Cyclotomic, Cyclotomic]],
        scale: Rat = 1, conjugate: bool = False) -> Cyclotomic:
    """scale * sum(w * a * b for w, a, b in terms) as one value at order e.

    With conjugate=True each b enters as its complex conjugate.  Every
    operand's order must divide e.  Numerators are accumulated in one dense
    list over a common denominator and reduced once; scale is applied by one
    exact division at the end.
    """
    acc = [0] * e
    den = 1
    sign = -1 if conjugate else 1
    for w, a, b in terms:
        if not w:
            continue
        if e % a.e or e % b.e:
            raise ValueError("cannot promote order %d to %d"
                             % (a.e if e % a.e else b.e, e))
        d = a._den * b._den
        if d != 1 or den != 1:
            common = lcm(den, d)
            if common != den:
                acc = [c * (common // den) for c in acc]
                den = common
            w *= den // d
        sa = e // a.e
        sb = sign * (e // b.e)
        for ka, na in a._num:
            base = ka * sa
            c = w * na
            for kb, nb in b._num:
                acc[(base + kb * sb) % e] += c * nb
    num = _reduce(e, acc)
    if not num or not scale:
        return _make(e, (), 1)
    if scale != 1:
        s = scale.numerator
        num = tuple([(k, n * s) for k, n in num])
        den *= scale.denominator
    return _make(e, num, den)


_ONE = _make(1, ((0, 1),), 1)  # the unit factor of one-operand dot terms


def from_exponent_counts(e: int, counts: list[int]) -> Cyclotomic:
    """sum(counts[k] * zeta_e^k for k in range(e)) for a list of e integer
    counts, which is consumed."""
    return _make(e, _reduce(e, counts), 1)


def cyclotomic_to_jsonable(v: Cyclotomic) -> dict:
    """{"e": e, "coeffs": {k: [numerator, denominator]}}, each coefficient
    n/den in lowest terms, read off the basis numerators."""
    den = v._den
    coeffs = {}
    for k, n in v._num:
        g = gcd(n, den)
        coeffs[str(k)] = [n // g, den // g]
    return {"e": v.e, "coeffs": coeffs}


def cyclotomic_from_jsonable(obj: dict) -> Cyclotomic:
    """The value of a cyclotomic_to_jsonable form; ValueError unless every
    coefficient is a list of two integers with a nonzero denominator."""
    coeffs = {}
    for k, c in obj["coeffs"].items():
        if type(c) is not list or list(map(type, c)) != [int, int] or not c[1]:
            raise ValueError("coefficient %r must be two integers [numerator, nonzero "
                             "denominator]" % (c,))
        coeffs[int(k)] = Fraction(*c)
    return Cyclotomic(int(obj["e"]), coeffs)
