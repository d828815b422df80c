"""Exact cyclotomic numbers with rational coefficients: the oracle for tables.

A value is stored in the power basis 1, z, ..., z^(phi(e)-1) of Q(z) with z a
primitive e-th root of unity, reduced modulo the e-th cyclotomic polynomial.
Reduction to this basis is canonical and idempotent, so two values of the
same conductor are equal iff their coefficient tuples are equal.  Values of
different conductors are compared after lifting to the lcm conductor.

The program keeps character values as integer power-basis arrays; the tests
read them as ``Cyclo`` values through :func:`entry` and :func:`row` and redo
orthogonality, linking and central characters in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from pblocks.blocks import omega_int_vectors
from pblocks.cyclotomic import _power_reductions, euler_phi
from pblocks.errors import InputError, InternalError


def _reduce_exponent_map(e: int, expmap: dict) -> tuple:
    """Reduce a sparse {exponent: Fraction} polynomial in z_e to the basis."""
    phi = euler_phi(e)
    rows = _power_reductions(e)
    out = [Fraction(0)] * phi
    for s, c in expmap.items():
        if not c:
            continue
        row = rows[s % e]
        for j in range(phi):
            if row[j]:
                out[j] += c * row[j]
    return tuple(out)


@dataclass(frozen=True)
class Cyclo:
    """An element of the cyclotomic field of the given conductor."""

    conductor: int
    coeffs: tuple  # tuple[Fraction], length euler_phi(conductor)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(value) -> "Cyclo":
        return Cyclo(1, (Fraction(value),))

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo(1, (Fraction(0),))

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo(1, (Fraction(1),))

    @staticmethod
    def root_of_unity(e: int, k: int = 1) -> "Cyclo":
        """z_e^k as an element of conductor e."""
        if e < 1:
            raise InputError("conductor must be positive")
        return Cyclo(e, _reduce_exponent_map(e, {k % e: Fraction(1)}))

    @staticmethod
    def from_exponents(e: int, expmap: dict) -> "Cyclo":
        """Build sum of c * z_e^s from a sparse exponent map."""
        return Cyclo(e, _reduce_exponent_map(e, {s: Fraction(c) for s, c in expmap.items()}))

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.conductor):
            raise InternalError("coefficient vector has wrong length for conductor")

    # -- structure ----------------------------------------------------------

    def lift(self, m: int) -> "Cyclo":
        """The same value written at conductor m (requires conductor | m)."""
        if m % self.conductor:
            raise InputError("can only lift to a multiple of the conductor")
        if m == self.conductor:
            return self
        step = m // self.conductor
        return Cyclo(m, _reduce_exponent_map(
            m, {i * step: c for i, c in enumerate(self.coeffs)}))

    def _pair(self, other: "Cyclo"):
        m = lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_integral(self) -> bool:
        """Whether all basis coefficients are integers.

        The power basis is a Z-basis of the ring of integers of a cyclotomic
        field, so this tests being an algebraic integer.
        """
        return all(c.denominator == 1 for c in self.coeffs)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise InputError("value is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = self._pair(other)
        return Cyclo(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self):
        return Cyclo(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        a, b = self._pair(other)
        phi = len(a.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        rows = _power_reductions(a.conductor)
        out = [Fraction(0)] * phi
        for s, c in enumerate(conv):
            if not c:
                continue
            row = rows[s]
            for j in range(phi):
                if row[j]:
                    out[j] += c * row[j]
        return Cyclo(a.conductor, tuple(out))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def __truediv__(self, other):
        if isinstance(other, Cyclo):
            if not other.is_rational():
                raise InputError("division is only supported by rational values")
            other = other.as_fraction()
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero")
        return Cyclo(self.conductor, tuple(c / q for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Hash through the value at its minimal "content": rationals must
        # collide with equal Fractions regardless of stored conductor.
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.conductor, self.coeffs))

    # -- Galois action --------------------------------------------------------

    def galois(self, k: int) -> "Cyclo":
        """Apply z -> z^k; requires gcd(k, conductor) = 1."""
        if gcd(k, self.conductor) != 1:
            raise InputError("Galois exponent must be coprime to the conductor")
        return Cyclo(self.conductor, _reduce_exponent_map(
            self.conductor, {(i * k) % self.conductor: c
                             for i, c in enumerate(self.coeffs) if c}))

    def conjugate(self) -> "Cyclo":
        return self.galois(self.conductor - 1 if self.conductor > 1 else 1)

    # -- presentation ---------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyclo({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.conductor}^{i}")
        return "Cyclo(" + " + ".join(terms) + ")"

    def to_pair(self) -> tuple:
        """(conductor, coefficient strings) for exact serialization."""
        return (self.conductor, [str(c) for c in self.coeffs])

    @staticmethod
    def from_pair(pair) -> "Cyclo":
        e, coeffs = pair
        return Cyclo(int(e), tuple(Fraction(c) for c in coeffs))

    def complex_value(self) -> complex:
        """Floating-point image; for diagnostics only, never for decisions."""
        from cmath import exp, pi

        z = exp(2j * pi / self.conductor)
        return sum(complex(c) * z**i for i, c in enumerate(self.coeffs))


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.from_rational(x)
    raise InputError(f"cannot interpret {x!r} as a cyclotomic value")


# -- character tables as Cyclo values ------------------------------------------


def entry(table, i: int, k: int) -> Cyclo:
    """chi_i on class k."""
    return Cyclo(table.conductor,
                 tuple(Fraction(int(c)) for c in table.values[i, k]))


def row(table, i: int) -> tuple:
    return tuple(entry(table, i, k) for k in range(table.r))


def inner_product(table, f, g) -> Cyclo:
    """<f, g> = |G|^-1 sum |K| f(K) conj(g(K)), exact."""
    f = list(f)
    g = list(g)
    if len(f) != table.r or len(g) != table.r:
        raise InputError("class function has wrong length")
    total = Cyclo.zero()
    for k, c in enumerate(table.classes):
        fk = f[k] if isinstance(f[k], Cyclo) else Cyclo.from_rational(f[k])
        gk = g[k] if isinstance(g[k], Cyclo) else Cyclo.from_rational(g[k])
        total = total + fk * gk.conjugate() * c.size
    return total / table.group.order


def central_character(table, index: int) -> tuple:
    """Exact omega values: omega(K) = |K| chi(g_K) / chi(1), per class."""
    vec = omega_int_vectors(table)[index]
    return tuple(
        Cyclo(table.conductor, tuple(Fraction(int(c)) for c in vec[k]))
        for k in range(table.r)
    )
