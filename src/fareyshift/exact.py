"""Exact arithmetic on the compactified half-line [0, infinity].

The dynamics iterate phi(x) = |1 - 1/x|, extended by phi(0) = infinity
and phi(infinity) = 1.  Everything here is integer arithmetic: points
are nonnegative rationals stored projectively (infinity is 1/0), real
irrational quadratic surds (p + q*sqrt(d))/r for the periodic-itinerary
points, and 2x2 integer matrices (a, b, c, d) acting as Mobius maps.
All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering


class NoFixedPointError(ValueError):
    """A Mobius map has no fixed point on [0, infinity]."""


class AmbiguousFixedPointError(ValueError):
    """More than one fixed point survives the membership filter."""


# Distance to the point at infinity; exact, as Fraction compares with inf without float().
INFINITE_DISTANCE = math.inf


@total_ordering
class ExtendedRational:
    """num/den in lowest terms, a point of [0, infinity]; infinity is 1/0."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        num, den = int(num), int(den)
        if num < 0 or den < 0:
            raise ValueError("value outside [0, infinity]: %d/%d" % (num, den))
        if num == 0 and den == 0:
            raise ValueError("0/0 is not a point")
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def from_projective(cls, num: int, den: int) -> "ExtendedRational":
        """Build from a projective integer pair, normalising the common sign."""
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        return cls(num, den)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "ExtendedRational":
        return cls(f.numerator, f.denominator)

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        text = text.strip()
        if "/" in text:
            n, d = text.split("/", 1)
            return cls(int(n), int(d))
        return cls.from_fraction(Fraction(text))

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinity has no Fraction value")
        return Fraction(self.num, self.den)

    def reciprocal(self) -> "ExtendedRational":
        return ExtendedRational(self.den, self.num)

    def mediant(self, other: "ExtendedRational") -> "ExtendedRational":
        return ExtendedRational(self.num + other.num, self.den + other.den)

    def __float__(self):
        return math.inf if self.den == 0 else self.num / self.den

    def __eq__(self, other):
        if isinstance(other, int):
            other = ExtendedRational(other)
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        if isinstance(other, int):
            other = ExtendedRational(other)
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        # a/b < c/d iff a*d < c*b; valid with infinity = 1/0 as maximum
        return self.num * other.den < other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return "%d/%d" % (self.num, self.den)

    def __repr__(self):
        return "ExtendedRational(%d, %d)" % (self.num, self.den)


ZERO = ExtendedRational(0, 1)
ONE = ExtendedRational(1, 1)
INF = ExtendedRational(1, 0)


def phi_rat(x: ExtendedRational) -> ExtendedRational:
    """Apply phi(x) = |1 - 1/x| exactly; phi(0) = infinity, phi(infinity) = 1.

    For canonical p/q the image is |p - q|/p, which is already in lowest
    terms, so no extra reduction happens off the special points.
    """
    if x.is_zero:
        return INF
    if x.is_infinite:
        return ONE
    return ExtendedRational(abs(x.num - x.den), x.num)


def _cf_digits(num: int, den: int) -> list[int]:
    out = []
    while den:
        q, r = divmod(num, den)
        out.append(q)
        num, den = den, r
    return out


def _escape_runs(x: ExtendedRational) -> list[tuple[int, str]]:
    """The orbit of a finite x up to its first visit to 0, as (passes, tail) runs.

    Read off the continued fraction x = [b; a1, ..., an]: each 2 taken
    off b is one pass x -> (x - 1)/x -> 1/(x - 1) -> x - 2, read 100.
    A 1 left over with digits to come is x in (1, 2), read 10, going to
    [a1; a2, ...]; a 0 left over is x < 1, read 0, going to
    [a1 - 1; a2, ...]; a 1 left over after the last digit is x = 1,
    read 0.  Each digit gives one run: its passes, then that tail.
    """
    digits = _cf_digits(x.num, x.den)
    b, runs = digits[0], []
    for a in digits[1:]:
        runs.append((b >> 1, "10" if b & 1 else "0"))
        b = a if b & 1 else a - 1
    runs.append((b >> 1, "0" * (b & 1)))
    return runs


def _escape_word(x: ExtendedRational, tie_high: bool = False, limit: float = math.inf) -> str:
    """Symbols of the orbit of a finite x up to its first visit to 0.

    The last symbol is always the visit to 1, which tie_high reads as 1.
    Each run of passes is cut at `limit` passes, so the word is exact on
    its first `limit` symbols.
    """
    word = "".join(["100" * min(passes, limit) + tail for passes, tail in _escape_runs(x)])
    return word[:-1] + "1" if tie_high and word else word


def escape_time(x: ExtendedRational) -> int:
    """Smallest n >= 0 with phi^n(x) = 0: the length of x's escape word.

    Total on finite rationals: every continued-fraction digit is used up
    by finitely many symbols, so the orbit reaches 0.  Summed off the
    runs, so it costs O(digits) whatever the escape time.
    """
    if x.is_infinite:
        raise ValueError("escape_time is defined for finite rationals only")
    return sum(3 * passes + len(tail) for passes, tail in _escape_runs(x))


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s*s*d0 with d0 squarefree; returns (s, d0)."""
    s, d0, f = 1, 1, 2
    while f * f <= d:
        e = 0
        while d % f == 0:
            d //= f
            e += 1
        s *= f ** (e // 2)
        if e % 2:
            d0 *= f
        f += 1
    return s, d0 * d


def _comb_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), d >= 0, decided by integer comparisons."""
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


class QuadraticSurd:
    """(p + q*sqrt(d))/r in canonical form, an irrational point of (0, infinity).

    Canonical means: r > 0, gcd(p, q, r) = 1, q != 0 and d squarefree
    with d > 1.  A rational value (q = 0, or a square radicand) raises
    ValueError: rationals are ExtendedRationals.  Values are validated to
    be nonnegative; equality is structural equality of canonical forms.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int, r: int, d: int):
        p, q, r, d = int(p), int(q), int(r), int(d)
        if r == 0:
            raise ValueError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if q == 0:
            raise ValueError("q = 0 makes a rational, not a surd")
        s, d = _squarefree_split(d)
        if d <= 1:
            raise ValueError("square radicand makes a rational, not a surd")
        q *= s
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        self.p, self.q, self.r, self.d = p // g, q // g, r // g, d
        if _comb_sign(self.p, self.q, self.d) < 0:
            raise ValueError("value outside [0, infinity)")

    def _cmp(self, other) -> int:
        """Certified sign of self - other."""
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, ExtendedRational):
            if other.is_infinite:
                return -1
            other = other.as_fraction()
        if isinstance(other, Fraction):
            u, v = other.numerator, other.denominator
            return _comb_sign(self.p * v - u * self.r, self.q * v, self.d)
        if isinstance(other, QuadraticSurd):
            if self.d != other.d:
                raise TypeError("cannot compare surds over different radicands")
            return _comb_sign(
                self.p * other.r - other.p * self.r,
                self.q * other.r - other.q * self.r,
                self.d,
            )
        raise TypeError("unsupported comparison")

    def __eq__(self, other):
        if not isinstance(other, QuadraticSurd):
            return NotImplemented  # an irrational never equals a rational
        return (self.p, self.q, self.r, self.d) == (other.p, other.q, other.r, other.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.p, self.q, self.r, self.d))

    def __float__(self):
        return (self.p + self.q * math.sqrt(self.d)) / self.r

    def __str__(self):
        return "(%d%+d*sqrt(%d))/%d" % (self.p, self.q, self.d, self.r)

    def __repr__(self):
        return "QuadraticSurd(%d, %d, %d, %d)" % (self.p, self.q, self.r, self.d)


GOLDEN_FIXED_POINT = QuadraticSurd(-1, 1, 2, 5)  # (sqrt(5) - 1)/2, the fixed point of phi


def phi_surd(x: QuadraticSurd) -> QuadraticSurd:
    """Apply phi to an exact surd; the image is irrational over the same radicand."""
    p, q, r, d = x.p, x.q, x.r, x.d
    n = p * p - q * q * d  # nonzero: x is irrational
    # 1 - 1/x = (n - r*p + r*q*sqrt(d)) / n, then take the absolute value
    pp, qq, rr = n - r * p, r * q, n
    if _comb_sign(pp, qq, d) * ((rr > 0) - (rr < 0)) < 0:
        pp, qq = -pp, -qq
    return QuadraticSurd(pp, qq, rr, d)


def mobius_apply(m: tuple[int, int, int, int], x):
    """x -> (a*x + b)/(c*x + d) for the matrix m = (a, b, c, d).

    Exact projective action on an ExtendedRational (infinity maps to a/c)
    or a QuadraticSurd, whichever x is.  Raises ValueError when the image
    leaves [0, infinity], or is rational for a surd x (m singular); the
    branch maps used by the dynamics do neither.
    """
    a, b, c, d = m
    if not isinstance(x, QuadraticSurd):
        return ExtendedRational.from_projective(a * x.num + b * x.den, c * x.num + d * x.den)
    p, q, r, rad = x.p, x.q, x.r, x.d
    na, nb = a * p + b * r, a * q
    dc, dd = c * p + d * r, c * q
    denom = dc * dc - dd * dd * rad
    if denom == 0:
        raise ZeroDivisionError("pole of the map")
    return QuadraticSurd(na * dc - nb * dd * rad, nb * dc - na * dd, denom, rad)


def _fixed_point_candidates(m: tuple[int, int, int, int]) -> list:
    a, b, c, d = m
    out = []
    if c == 0:
        out.append(INF)
        if d != a:
            num, den = b, d - a
            if den < 0:
                num, den = -num, -den
            if num >= 0:
                out.append(ExtendedRational(num, den))
        return out
    disc = (d - a) ** 2 + 4 * b * c
    if disc < 0:
        return out
    s = math.isqrt(disc)
    if s * s == disc:
        for root in {Fraction((a - d) + s, 2 * c), Fraction((a - d) - s, 2 * c)}:
            if root >= 0:
                out.append(ExtendedRational.from_fraction(root))
    else:
        for qsign in (1, -1):
            try:
                out.append(QuadraticSurd(a - d, qsign, 2 * c, disc))
            except ValueError:
                pass  # negative root, outside [0, infinity)
    return out


def mobius_fixed_point(m: tuple[int, int, int, int], within=None):
    """The fixed point of m on [0, infinity], solving c*x^2 + (d-a)*x - b = 0.

    Rational when the discriminant is a perfect square, a QuadraticSurd
    otherwise.  When both roots land in [0, infinity] the caller must
    disambiguate by passing `within` (anything with a contains() method,
    e.g. a cylinder interval).
    """
    a, b, c, d = m
    if b == c == 0 and a == d:
        raise ValueError("identity map fixes everything")
    candidates = _fixed_point_candidates(m)
    if within is not None:
        candidates = [x for x in candidates if within.contains(x)]
    if not candidates:
        raise NoFixedPointError("no fixed point in the requested region")
    if len(candidates) > 1:
        raise AmbiguousFixedPointError("fixed point not unique; filter with `within`")
    return candidates[0]
