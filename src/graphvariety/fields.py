"""Exact scalars: the rationals and the prime fields.

A rational is a `fractions.Fraction`; an element of F_p is a plain `int` in
[0, p).  Calling a field object is the one place a scalar is made or
reduced: `field(x)` coerces an int or a decimal string (zero is `field(0)`),
and over F_p it is also how raw int arithmetic is brought back into [0, p),
which must happen before a result is compared or stored.  Floats are
rejected at the boundary so rounding error can never leak into a rank
computation or a certificate check.

Exact work runs on integers, and `_integer_form` is the one place a vector
of scalars becomes them: integers a over the least d > 0 with a / d the
vector, residues over d = 1 in F_p.  Over Q an int, or an ASCII string
`[-]digits[/digits]` with a nonzero denominator, is split by `int`; any
other scalar goes through `RATIONALS`, which gives its value or its error.
The vector goes over the lcm D of its denominators, and `_lowest_terms`
divides D and the numerators D x by their gcd.  That leaves L, the lcm of
the reduced denominators: D = k L with k dividing every D x, and no prime
divides L and every L x, as it divides some reduced denominator q to its
full power in L and so not the numerator of x_i = p / q times L / q.
For reduced `Fraction`s D is L already.
"""

from fractions import Fraction
from math import gcd, lcm


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


def _rational(x):
    """A numerator and a denominator > 0 of the scalar x over Q: an int, a
    decimal string or a `Fraction` (module docstring)."""
    if type(x) is int:
        return x, 1
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        # ASCII, so isdigit() means [0-9]+: the plain [-]digits[/digits]
        if x.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            try:
                num, den = int(num), int(den) if den else 1
            except ValueError:  # past the digit limit: RATIONALS raises its error
                den = 0
            if den:
                return num, den
    x = RATIONALS(x)
    return x.numerator, x.denominator


def _lowest_terms(a, d):
    """The integer vector a over d > 0 in lowest terms: (a / g as a tuple,
    d / g) for g = gcd(d, *a)."""
    g = gcd(d, *a)
    if g > 1:
        return tuple(x // g for x in a), d // g
    return tuple(a), d


def _integer_form(field, vec):
    """The integer form (a, d) of the vector of scalars `vec`: a tuple of
    ints and the least d > 0 with a / d == vec, d = 1 over F_p (module
    docstring)."""
    if field.p is not None:
        return tuple(map(field, vec)), 1
    pairs = [_rational(x) for x in vec]
    d = lcm(*(e for _, e in pairs))
    return _lowest_terms([x * (d // e) for x, e in pairs], d)


def field_from_spec(label):
    """Build a field from a label: "Q" or "Fp:<prime>"."""
    if label == "Q":
        return RATIONALS
    if isinstance(label, str) and label.startswith("Fp:"):
        return PrimeField(int(label[3:]))
    raise ValueError(f"unknown field label {label!r}")
