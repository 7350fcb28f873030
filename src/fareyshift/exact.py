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
    """A Mobius map has no attracting fixed point on [0, infinity]."""


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

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinity has no Fraction value")
        return Fraction(self.num, self.den)

    def __float__(self):
        try:
            return self.num / self.den
        except (ZeroDivisionError, OverflowError):  # 1/0, or a quotient past the float range
            return math.inf

    def __eq__(self, other):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
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


def _canonical(num: int, den: int) -> ExtendedRational:
    """num/den known to be in lowest terms already: no gcd, no checks."""
    x = object.__new__(ExtendedRational)
    x.num, x.den = num, den
    return x


ZERO = ExtendedRational(0, 1)
ONE = ExtendedRational(1, 1)
INF = ExtendedRational(1, 0)


def _phi_pair(num: int, den: int) -> tuple[int, int]:
    """phi on a projective pair, |num - den|/num: 1/0 at 0/1 and 1/1 at 1/0, with no branch."""
    return abs(num - den), num  # in lowest terms, as gcd(|num - den|, num) = gcd(den, num)


def phi_rat(x: ExtendedRational) -> ExtendedRational:
    """Apply phi(x) = |1 - 1/x| exactly: the pair rule _phi_pair, with no gcd."""
    return _canonical(*_phi_pair(x.num, x.den))


def _cf_digits(num: int, den: int):
    while den:
        q, r = divmod(num, den)
        yield q
        num, den = den, r


def _surd_digits(x: "QuadraticSurd"):
    """Endless continued-fraction digits of a surd, as (P + sqrt(D))/Q with Q | D - P*P."""
    P, Q = (x.p * x.r, x.r * x.r) if x.q > 0 else (-x.p * x.r, -x.r * x.r)
    D = x.q * x.q * x.d * x.r * x.r
    root = math.isqrt(D)
    while True:
        a = (P + root + (Q < 0)) // Q
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q


def _escape_runs(x, tie_high: bool = False):
    """The orbit of x up to its first visit to 0 (never, for a surd) as (passes, tail) runs.

    Read off the continued fraction x = [b; a1, a2, ...]: each 2 taken
    off b is one pass x -> (x - 1)/x -> 1/(x - 1) -> x - 2, read 100.
    A 1 left over with digits to come is x in (1, 2), read 10, going to
    [a1; a2, ...]; a 0 left over is x < 1, read 0, going to
    [a1 - 1; a2, ...]; a 1 left over after the last digit is x = 1,
    read 0.  Each digit gives one run: its passes, then that tail.
    The last symbol is the visit to 1, which tie_high reads as 1: the
    last run's final 0 becomes 1, so (passes, "") becomes (passes - 1, "101").
    """
    digits = _surd_digits(x) if isinstance(x, QuadraticSurd) else _cf_digits(x.num, x.den)
    b = next(digits)
    for a in digits:
        yield b >> 1, "10" if b & 1 else "0"
        b = a if b & 1 else a - 1
    passes, tail = b >> 1, "0" * (b & 1)
    if tie_high and b:  # b = 0 only for x = 0, whose word is empty
        passes, tail = (passes, "1") if tail else (passes - 1, "101")
    yield passes, tail


def escape_time(x: ExtendedRational) -> int:
    """Smallest n >= 0 with phi^n(x) = 0: the length of x's escape word.

    Total on finite rationals: every continued-fraction digit is used up
    by finitely many symbols, so the orbit reaches 0.  Summed off the
    runs, so it costs O(digits) whatever the escape time.
    """
    if x.is_infinite:
        raise ValueError("escape_time is defined for finite rationals only")
    return sum(3 * passes + len(tail) for passes, tail in _escape_runs(x))


_STRIP_BOUND = 1 << 10  # bounded: a full squarefree split is as hard as factoring


def _strip_small_squares(d: int) -> tuple[int, int]:
    """Write d = s*s*d0, taking out each square factor f*f with f < _STRIP_BOUND."""
    s, d0, f = 1, 1, 2
    while f * f <= d and f < _STRIP_BOUND:
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

    Canonical means: r > 0, gcd(p, q, r) = 1, q != 0, d not a square and
    no square factor f*f with f < _STRIP_BOUND in d.  A rational value
    (q = 0, or a square radicand) raises ValueError: rationals are
    ExtendedRationals.  Values are validated to be nonnegative; equality
    and hash read the value, as a larger square factor can stay in d.
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
        s, d = _strip_small_squares(d)
        if math.isqrt(d) ** 2 == d:
            raise ValueError("square radicand makes a rational, not a surd")
        self._reduce(p, q * s, r, d)

    def _reduce(self, p: int, q: int, r: int, d: int):
        """Set the fields from p, q != 0, r != 0 and a canonical radicand d: sign and gcd fixed."""
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        self.p, self.q, self.r, self.d = p // g, q // g, r // g, d
        if _comb_sign(self.p, self.q, self.d) < 0:
            raise ValueError("value outside [0, infinity)")

    def _cmp(self, other) -> int:
        """Certified sign of self - other, with other read as (p + q*sqrt(d))/r, r > 0."""
        if isinstance(other, QuadraticSurd):
            p, q, r = other.p, other.q, other.r
            if other.d != self.d:
                s = math.isqrt(self.d * other.d)
                if s * s != self.d * other.d:
                    raise TypeError("cannot compare surds over different radicands")
                p, q, r = p * self.d, q * s, r * self.d  # sqrt(d') = s*sqrt(d)/d
        elif isinstance(other, ExtendedRational):
            if other.is_infinite:
                return -1
            p, q, r = other.num, 0, other.den
        elif isinstance(other, (int, Fraction)):
            p, q, r = other.numerator, 0, other.denominator
        else:
            raise TypeError("unsupported comparison")
        return _comb_sign(self.p * r - p * self.r, self.q * r - q * self.r, self.d)

    def _key(self) -> tuple[Fraction, Fraction]:
        """The value as (p/r, sign(q)*q*q*d/(r*r)), free of the radicand's form."""
        return Fraction(self.p, self.r), Fraction(self.q * abs(self.q) * self.d, self.r * self.r)

    def __eq__(self, other):
        if not isinstance(other, QuadraticSurd):
            return NotImplemented  # an irrational never equals a rational
        return self._key() == other._key()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self._key())

    def __float__(self):
        try:
            x = (self.p + self.q * math.sqrt(self.d)) / self.r
        except OverflowError:  # an integer past the float range
            x = math.inf
        if math.isfinite(x):
            return x
        # past the float range: the numerator in units of 2^-64 by one integer
        # square root, then int / int, which rounds once
        root = math.isqrt(self.q * self.q * self.d << 128)
        return ((self.p << 64) + (root if self.q > 0 else -root)) / (self.r << 64)

    def __str__(self):
        return "(%d%+d*sqrt(%d))/%d" % (self.p, self.q, self.d, self.r)

    def __repr__(self):
        return "QuadraticSurd(%d, %d, %d, %d)" % (self.p, self.q, self.r, self.d)


GOLDEN_FIXED_POINT = QuadraticSurd(-1, 1, 2, 5)  # (sqrt(5) - 1)/2, the fixed point of phi


def phi_surd(x: QuadraticSurd) -> QuadraticSurd:
    """Apply phi to an exact surd: the branch map (s*x - s)/x, s the sign of x - 1."""
    s = _comb_sign(x.p - x.r, x.q, x.d)  # nonzero: x is irrational
    return mobius_apply((s, -s, 1, 0), x)


def mobius_apply(m: tuple[int, int, int, int], x):
    """x -> (a*x + b)/(c*x + d) for the matrix m = (a, b, c, d).

    Exact projective action on an ExtendedRational (infinity maps to a/c)
    or a QuadraticSurd, whichever x is.  Raises ValueError when the image
    leaves [0, infinity], or is rational for a surd x (m singular); the
    branch maps used by the dynamics do neither.
    """
    a, b, c, d = m
    if not isinstance(x, QuadraticSurd):
        num, den = a * x.num + b * x.den, c * x.num + d * x.den
        if den < 0 or (den == 0 and num < 0):  # the projective pair's common sign
            num, den = -num, -den
        return ExtendedRational(num, den)
    p, q, r, rad = x.p, x.q, x.r, x.d
    na, nb = a * p + b * r, a * q
    dc, dd = c * p + d * r, c * q
    denom = dc * dc - dd * dd * rad
    if denom == 0:
        raise ZeroDivisionError("pole of the map")
    nq = nb * dc - na * dd  # q * r * det(m)
    if nq == 0:
        raise ValueError("q = 0 makes a rational, not a surd")
    y = object.__new__(QuadraticSurd)  # x's radicand is canonical: no square strip
    y._reduce(na * dc - nb * dd * rad, nq, denom, rad)
    return y


def mobius_fixed_point(m: tuple[int, int, int, int]):
    """The attracting fixed point of m on [0, infinity].

    The fixed points solve c*x^2 + (d-a)*x - b = 0, that is
    x = ((a - d) +- sqrt(disc))/(2c) with disc = (a + d)^2 - 4*det(m).
    At either root c*x + d = ((a + d) +- sqrt(disc))/2, and m's
    derivative there is det(m)/(c*x + d)^2, so the root taken with the
    sign of the trace a + d attracts and the other repels.  That is the
    root a periodic code's point is: the period's matrix W maps its base,
    [0, infinity] or [0, 1], into cylinder(period), which lies inside that
    base, so W's fixed point there attracts.  The root is rational when
    disc is a square (disc = 0 gives the one parabolic root), a
    QuadraticSurd otherwise; with c = 0 and a = d the fixed point is
    infinity, the point of the 3-cycle code (100).  No real root, trace 0
    or a negative attracting root raise NoFixedPointError, as does c = 0
    with a != d, which for det(m) = +-1, as every word's matrix has,
    means trace 0.
    """
    a, b, c, d = m
    if b == c == 0 and a == d:
        raise ValueError("identity map fixes everything")
    if c == 0 and a == d:
        return INF
    trace = a + d
    disc = trace * trace - 4 * (a * d - b * c)
    sigma = 1 if trace > 0 else -1
    if c == 0 or trace == 0 or disc < 0 or _comb_sign(a - d, sigma, disc) * c < 0:
        raise NoFixedPointError("no attracting fixed point on [0, infinity]")
    s = math.isqrt(disc)
    if s * s == disc:  # num and den share c's sign, or num = 0
        return ExtendedRational(abs(a - d + sigma * s), abs(2 * c))
    return QuadraticSurd(a - d, sigma, 2 * c, disc)
