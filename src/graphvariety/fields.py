"""Exact scalar arithmetic over the rationals and prime fields.

All computations in this package are exact: rationals are represented by
`fractions.Fraction` and prime-field elements by `FpElement`.  Floats are
rejected at the boundary so rounding error can never leak into a rank
computation or a certificate check.
"""

from fractions import Fraction

from .errors import FieldMismatchError


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases 2..41 is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_WITNESS_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; moduli at or above the bound are refused."""
    if p >= _WITNESS_BOUND:
        raise ValueError(f"modulus {p} is too large to be proved prime (limit {_WITNESS_BOUND})")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of the field with p elements, stored as a reduced residue."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix F_{self.p} and F_{other.p} elements"
                )
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FpElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.value * pow(o.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"


class RationalField:
    """The field of rational numbers, with Fraction as the element type."""

    name = "Q"
    characteristic = 0

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into the rational field")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def contains(self, value):
        return isinstance(value, Fraction)

    def elements(self):
        raise TypeError("the rational field is not finite")

    @property
    def order(self):
        raise TypeError("the rational field is not finite")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field with p elements for a prime p."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"Fp:{p}"
        self.characteristic = p

    def __call__(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise FieldMismatchError(
                    f"cannot coerce an F_{value.p} element into F_{self.p}"
                )
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, str):
            return FpElement(int(value), self.p)
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def contains(self, value):
        return isinstance(value, FpElement) and value.p == self.p

    def elements(self):
        return [FpElement(v, self.p) for v in range(self.p)]

    @property
    def order(self):
        return self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = RationalField()


def field_from_spec(label):
    """Build a field from a label: "Q" or "Fp:<prime>"."""
    if label == "Q":
        return RATIONALS
    if label.startswith("Fp:"):
        return PrimeField(int(label[3:]))
    raise ValueError(f"unknown field label {label!r}")
