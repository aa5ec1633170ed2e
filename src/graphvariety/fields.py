"""Exact scalars: the rationals and the prime fields.

A rational is a `fractions.Fraction`; an element of F_p is a plain `int` in
[0, p).  Calling a field object is the one place a scalar is made or
reduced: `field(x)` coerces an int or a decimal string (zero is `field(0)`),
and over F_p it is also how raw int arithmetic is brought back into [0, p),
which must happen before a result is compared or stored.  Floats are
rejected at the boundary so rounding error can never leak into a rank
computation or a certificate check.
"""

from fractions import Fraction


# A decimal string's exponent is capped at Python's default limit on the
# digits of an int string, so "1e100000000" cannot build a huge power of 10.
MAX_EXPONENT = 4300

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


class RationalField:
    """The field of rational numbers, with Fraction as the element type."""

    name = "Q"
    p = None

    def __call__(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            _, e, exponent = value.lower().partition("e")
            try:
                too_big = e and abs(int(exponent)) > MAX_EXPONENT
            except ValueError:  # not an exponent; Fraction names the whole input
                too_big = False
            if too_big:
                raise ValueError(f"decimal exponent of {value!r} exceeds {MAX_EXPONENT}")
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"{value!r} has a zero denominator") from None
        raise TypeError(f"cannot coerce {value!r} into the rational field")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The field with p elements for a prime p, on ints in [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"Fp:{p}"

    def __call__(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            return int(value) % self.p
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

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
    if isinstance(label, str) and label.startswith("Fp:"):
        return PrimeField(int(label[3:]))
    raise ValueError(f"unknown field label {label!r}")
