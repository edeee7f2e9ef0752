"""Exact arithmetic for the scalar domain of all operator matrix entries.

Every coefficient produced by this package is a monomial

    xi^k * i^a * c*sqrt(s)

with k an integer exponent of the formal unit-modulus parameter ``xi``,
a an exponent of the imaginary unit modulo 4, c a nonnegative rational and
s a squarefree positive integer.  :class:`Radical` stores that normal form
as five integers, with c = num/den in lowest terms; two values are equal iff
all five agree, so equality is decidable without any floating point.

``xi`` is never evaluated during exact computation.  Because it is assumed
to lie on the unit circle, conjugation maps ``xi -> xi^-1`` (and ``i -> -i``).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple


@lru_cache(maxsize=None)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n >= 1 as g*g*s with s squarefree.  Returns (g, s)."""
    if n <= 0:
        raise ValueError(f"positive integer required, got {n}")
    g, s = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            g *= p ** (e // 2)
            if e % 2:
                s *= p
        p += 1 if p == 2 else 2
    # leftover n is 1 or prime, hence squarefree
    return g, s * n


class Radical(NamedTuple):
    """Normal form xi^xi_exp * i^phase * (num/den) * sqrt(root), all integers.

    num >= 0, den >= 1, gcd(num, den) = 1, root squarefree >= 1 and phase in
    {0,1,2,3}; the zero value is canonically (0, 0, 0, 1, 1).  The normal
    form makes equality plain tuple equality, so the raw constructor must
    be given a value already in it; the classmethods and products are.
    """

    xi_exp: int
    phase: int
    num: int
    den: int
    root: int

    @classmethod
    def zero(cls) -> "Radical":
        return ZERO

    @classmethod
    def from_rational(cls, q) -> "Radical":
        """The int or Fraction q."""
        num, den = q.numerator, q.denominator
        if num == 0:
            return ZERO
        return cls(0, 0 if num > 0 else 2, abs(num), den, 1)

    @classmethod
    def xi_power(cls, k: int) -> "Radical":
        return cls(k, 0, 1, 1, 1)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def __mul__(self, other: "Radical") -> "Radical":
        if not isinstance(other, Radical):
            return NotImplemented
        k, a, n, d, s = self
        k2, a2, n2, d2, s2 = other
        if not n or not n2:
            return ZERO
        g = gcd(s, s2)
        n, d = n * n2 * g, d * d2
        h = gcd(n, d)
        return Radical(k + k2, (a + a2) % 4, n // h, d // h, (s // g) * (s2 // g))

    def conjugate(self) -> "Radical":
        """Complex conjugate under the unit-circle rule xi -> xi^-1."""
        if self.is_zero:
            return self
        return Radical(-self.xi_exp, -self.phase % 4, self.num, self.den, self.root)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.xi_exp:
            parts.append(f"xi^{self.xi_exp}")
        if self.phase:
            parts.append(f"i^{self.phase}")
        coeff = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        if self.root == 1:
            parts.append(coeff)
        elif self.num == self.den == 1:
            parts.append(f"sqrt({self.root})")
        else:
            parts.append(f"{coeff}*sqrt({self.root})")
        return " * ".join(parts)


ZERO = Radical(0, 0, 0, 1, 1)
