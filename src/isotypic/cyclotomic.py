"""Exact arithmetic in cyclotomic fields Q(zeta_e).

Values are stored as rational coefficient maps over a fixed integral basis
of Q(zeta_e) consisting of basis roots of unity: an exponent k is a basis
exponent iff for every prime power p^v || e the p-part of k avoids the top
layer (digit p-1).  Non-basis exponents are eliminated with the relations

    sum_{j mod p} zeta_e^(k + j*e/p) = 0,

one prime at a time; the result is canonical, so equality of values is
equality of stored coefficient maps (at a common order e).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping, Union

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


class _BasisData:
    """Per-order reduction data; obtain through _basis_data."""

    def __init__(self, e: int):
        if e <= 0:
            raise ValueError("order must be positive")
        self.e = e
        self.primes = []
        for p, v in _factorize(e):
            pv = p ** v
            cofactor = e // pv
            inv = pow(cofactor, -1, pv)
            self.primes.append((p, pv, p ** (v - 1), inv))

    def layer(self, k: int, prime_entry) -> int:
        p, pv, pv1, inv = prime_entry
        return ((k * inv) % pv) // pv1


@lru_cache(maxsize=None)
def _basis_data(e: int) -> _BasisData:
    return _BasisData(e)


def _reduce(e: int, coeffs: dict[int, Fraction]) -> dict[int, Fraction]:
    data = _basis_data(e)
    cur = {k % e: v for k, v in coeffs.items() if v != 0}
    for pe in data.primes:
        p = pe[0]
        shift = e // p
        nxt: dict[int, Fraction] = {}
        for k, c in cur.items():
            if data.layer(k, pe) == p - 1:
                for j in range(1, p):
                    kk = (k - j * shift) % e
                    nxt[kk] = nxt.get(kk, Fraction(0)) - c
            else:
                nxt[k] = nxt.get(k, Fraction(0)) + c
        cur = {k: v for k, v in nxt.items() if v != 0}
    return cur


class Cyclotomic:
    """An exact element of Q(zeta_e), canonicalized on construction.

    Equality and hashing are structural at a fixed order; use promote() to
    compare values living at different orders.
    """

    __slots__ = ("e", "_coeffs", "_hash")

    def __init__(self, e: int, coeffs: Mapping[int, Rat]):
        self.e = int(e)
        reduced = _reduce(self.e, {int(k): Fraction(v) for k, v in coeffs.items()})
        self._coeffs = tuple(sorted(reduced.items()))
        self._hash = None

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
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_rational(self) -> bool:
        return all(k == 0 for k, _ in self._coeffs)

    def rational(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("value is not rational: %r" % (self,))
        return self._coeffs[0][1]

    def integer(self) -> int:
        r = self.rational()
        if r.denominator != 1:
            raise ValueError("value is not a rational integer: %r" % (self,))
        return r.numerator

    def to_complex(self) -> complex:
        tau = 2.0 * cmath.pi / self.e
        return sum(float(c) * cmath.exp(1j * tau * k) for k, c in self._coeffs) + 0j

    def sort_key(self):
        """Total order used for deterministic row sorting.

        Coefficients are negated so that 1 sorts before -1 and before any
        non-rational value with the same support start; this puts the trivial
        character first in practice.
        """
        return tuple((k, -c) for k, c in self._coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _binop_coeffs(self, other: "Cyclotomic"):
        if self.e == other.e:
            return self.e, dict(self._coeffs), dict(other._coeffs)
        e = self.e * other.e // gcd(self.e, other.e)
        a = {k * (e // self.e): v for k, v in self._coeffs}
        b = {k * (e // other.e): v for k, v in other._coeffs}
        return e, a, b

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other, self.e)
        e, a, b = self._binop_coeffs(other)
        for k, v in b.items():
            a[k] = a.get(k, Fraction(0)) + v
        return Cyclotomic(e, a)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.e, {k: -v for k, v in self._coeffs})

    def __sub__(self, other) -> "Cyclotomic":
        return self + (-_coerce(other, self.e))

    def __rsub__(self, other) -> "Cyclotomic":
        return _coerce(other, self.e) + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.e, {k: v * other for k, v in self._coeffs})
        other = _coerce(other, self.e)
        e, a, b = self._binop_coeffs(other)
        out: dict[int, Fraction] = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                k = (k1 + k2) % e
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return Cyclotomic(e, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        return Cyclotomic(self.e, {(self.e - k) % self.e: v for k, v in self._coeffs})

    def promote(self, e: int) -> "Cyclotomic":
        """Re-express at a larger order (current order must divide e)."""
        if e % self.e != 0:
            raise ValueError("cannot promote order %d to %d" % (self.e, e))
        scale = e // self.e
        return Cyclotomic(e, {k * scale: v for k, v in self._coeffs})

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.e, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.e == other.e and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.e, self._coeffs))
        return self._hash

    def equals_value(self, other: "Cyclotomic") -> bool:
        """Mathematical equality across different stored orders."""
        e = self.e * other.e // gcd(self.e, other.e)
        return self.promote(e) == other.promote(e)

    def __repr__(self) -> str:
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


def _coerce(x, e: int) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(e, x)
    raise TypeError("cannot coerce %r to Cyclotomic" % (x,))

