"""Exact arithmetic for the scalar domain of all operator matrix entries.

Every coefficient produced by this package is a monomial

    xi^k * i^a * c*sqrt(s)

with k an integer exponent of the formal unit-modulus parameter ``xi``,
a an exponent of the imaginary unit modulo 4, c a nonnegative rational and
s a squarefree positive integer.  :class:`Radical` stores that normal form;
two values are equal iff all four components agree, so equality is decidable
without any floating point.

``xi`` is never evaluated during exact computation.  Because it is assumed
to lie on the unit circle, conjugation maps ``xi -> xi^-1`` (and ``i -> -i``).
Optional numeric evaluation at a concrete complex ``xi`` is provided for
cross-checking against floating arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


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


@dataclass(frozen=True, slots=True)
class Radical:
    """Normal form xi^xi_exp * i^phase * coeff * sqrt(root).

    coeff >= 0, root squarefree >= 1, phase in {0,1,2,3}; the zero value is
    canonically (0, 0, 0, 1).  Use :meth:`make` (or the classmethod
    constructors) rather than the raw constructor so the normal form holds.
    """

    xi_exp: int = 0
    phase: int = 0
    coeff: Fraction = Fraction(1)
    root: int = 1

    @staticmethod
    def make(xi_exp: int = 0, phase: int = 0, coeff=Fraction(1), root: int = 1) -> "Radical":
        coeff = Fraction(coeff)
        if coeff < 0:
            coeff, phase = -coeff, phase + 2
        if coeff == 0:
            return Radical(0, 0, Fraction(0), 1)
        g, s = squarefree_decompose(root)
        return Radical(xi_exp, phase % 4, coeff * g, s)

    @classmethod
    def zero(cls) -> "Radical":
        return cls(0, 0, Fraction(0), 1)

    @classmethod
    def one(cls) -> "Radical":
        return cls(0, 0, Fraction(1), 1)

    @classmethod
    def from_rational(cls, q) -> "Radical":
        q = Fraction(q)
        if q == 0:
            return cls.zero()
        return cls(0, 0 if q > 0 else 2, abs(q), 1)

    @classmethod
    def xi_power(cls, k: int) -> "Radical":
        return cls(k, 0, Fraction(1), 1)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __mul__(self, other: "Radical") -> "Radical":
        if not isinstance(other, Radical):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Radical.zero()
        g = gcd(self.root, other.root)
        return Radical(
            self.xi_exp + other.xi_exp,
            (self.phase + other.phase) % 4,
            self.coeff * other.coeff * g,
            (self.root // g) * (other.root // g),
        )

    def conjugate(self) -> "Radical":
        """Complex conjugate under the unit-circle rule xi -> xi^-1."""
        if self.is_zero:
            return self
        return Radical(-self.xi_exp, (-self.phase) % 4, self.coeff, self.root)

    def value(self, xi: complex = 1.0) -> complex:
        """Numeric evaluation at a concrete nonzero xi."""
        if self.is_zero:
            return 0j
        if xi == 0:
            raise ValueError("xi must be nonzero")
        return (xi ** self.xi_exp) * (1j ** self.phase) * float(self.coeff) * (self.root ** 0.5)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.xi_exp:
            parts.append(f"xi^{self.xi_exp}")
        if self.phase:
            parts.append(f"i^{self.phase}")
        if self.root == 1:
            parts.append(str(self.coeff))
        elif self.coeff == 1:
            parts.append(f"sqrt({self.root})")
        else:
            parts.append(f"{self.coeff}*sqrt({self.root})")
        return " * ".join(parts) if parts else "1"
