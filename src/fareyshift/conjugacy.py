"""Mediant-refined Farey levels on [0, infinity], the piecewise-linear
model f, and the order homeomorphism h that conjugates the two maps.

h sends the level-n node with index i to the dyadic i/2^n; its binary
digits are the continued-fraction digits of x read as runs of 1s and 0s
(a batched form of the mediant walk down the Stern-Brocot tree of
[0, infinity]).  The level-n approximation and enclosure build no level.
The exact checks run on integers: a built level is two lists, nums and dens,
made by mediant steps; h(p/q) and the conjugacy check read a node's (p, q).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import (INF, ZERO, ExtendedRational, QuadraticSurd, _canonical, _cf_digits,
                    _phi_pair, _surd_digits)


class DyadicRational:
    """mantissa / 2**exponent in [0, 1]; mantissa odd unless it is zero."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        m, e = int(mantissa), int(exponent)
        if m < 0 or e < 0:
            raise ValueError("negative dyadic data")
        while e > 0 and m and m % 2 == 0:
            m //= 2
            e -= 1
        if m == 0:
            e = 0
        if m > 2 ** e:
            raise ValueError("dyadic value above 1")
        self.mantissa, self.exponent = m, e

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 2 ** self.exponent)

    def __eq__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return (self.mantissa, self.exponent) == (other.mantissa, other.exponent)

    def __lt__(self, other):
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.mantissa << other.exponent < other.mantissa << self.exponent

    def __str__(self):
        return "%d/2^%d" % (self.mantissa, self.exponent)

    def __repr__(self):
        return "DyadicRational(%d, %d)" % (self.mantissa, self.exponent)


class FareyLevel(namedtuple("FareyLevel", "n nums dens")):
    """Level n of the mediant refinement of {0/1, 1/0}: 2^n + 1 entries as num/den lists."""

    __slots__ = ()

    @property
    def entries(self) -> tuple:
        """The nodes as points, built on each read; the library reads nums and dens."""
        return tuple(map(_canonical, self.nums, self.dens))  # unimodular neighbours: no gcd


_MAX_LEVEL = 24  # 2^24 + 1 entries: the memory guard of farey_level


def _mediants(xs: list) -> list:
    """xs with the sum of each adjacent pair put between the two."""
    out = [0] * (2 * len(xs) - 1)
    out[::2], out[1::2] = xs, [a + b for a, b in zip(xs, xs[1:])]
    return out


def farey_level(n: int) -> FareyLevel:
    """Exact level-n sequence; level n+1 interleaves level n with mediants."""
    if n < 0:
        raise ValueError("negative level")
    if n > _MAX_LEVEL:
        raise ValueError("level %d above the memory guard %d" % (n, _MAX_LEVEL))
    nums, dens = [0, 1], [1, 0]
    for _ in range(n):
        nums, dens = _mediants(nums), _mediants(dens)
    return FareyLevel(n, nums, dens)


def f_map(x: Fraction) -> Fraction:
    """The piecewise-linear model on [0, 1]: 1 - 2x then x - 1/2."""
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError("f is defined on [0, 1]")
    if x <= Fraction(1, 2):
        return 1 - 2 * x
    return x - Fraction(1, 2)


def _run_bits(digits, n: int) -> int:
    """The first n bits of h: continued-fraction digits read as runs of 1s, 0s, 1s, ..."""
    m = 0
    for k, a in enumerate(digits):
        if a >= n:
            return m << n if k % 2 else ((m + 1) << n) - 1
        m = m << a if k % 2 else ((m + 1) << a) - 1
        n -= a
    return m << n  # zeros past the last digit


def _h_bits(num: int, den: int) -> tuple[int, int]:
    """h(num/den) as (mantissa, exponent) in lowest terms, by h_rational's walk."""
    if not den:
        return 1, 0
    m = e = 0
    while den:
        a, num = divmod(num, den)  # a run of a 1s
        m, e = ((m + 1) << a) - 1, e + a
        if not num:
            break
        a, den = divmod(den, num)  # a run of a 0s
        m, e = m << a, e + a
    return (m | 1 if e else 0), e  # the closing 1; e = 0 only at x = 0


def h_rational(x: ExtendedRational) -> DyadicRational:
    """Exact dyadic value of the conjugating homeomorphism at a rational.

    The binary digits are the continued-fraction quotients of x read as
    alternating runs of 1s and 0s (last run shortened by one, then a
    closing 1) - exactly the left/right record of the mediant walk from
    [0/1, 1/0] down to x.  h(0) = 0 and h(infinity) = 1.
    """
    return DyadicRational(*_h_bits(x.num, x.den))


def h_inverse(d) -> ExtendedRational:
    """The unique rational with h_rational(result) = d; exact round trip.

    The runs of the whole mantissa, closing 1 included, are continued-
    fraction digits of the result: [.., a - 1, 1] is [.., a].
    """
    if isinstance(d, DyadicRational):
        f = d.as_fraction()
    else:
        f = Fraction(d)
        if f.denominator & (f.denominator - 1):
            raise ValueError("h_inverse needs a dyadic rational")
    if f < 0 or f > 1:
        raise ValueError("value outside [0, 1]")
    if f == 0:
        return ZERO
    if f == 1:
        return INF
    m, n = f.numerator, f.denominator.bit_length() - 1  # n-bit mantissa
    digits = []
    while n:
        m ^= (1 << n) - 1  # the leading run of 1s becomes 0s, the next run 1s
        digits.append(n - m.bit_length())
        n = m.bit_length()
    num, den = digits[-1], 1
    for a in reversed(digits[:-1]):
        num, den = a * num + den, num
    return ExtendedRational(num, den)


def h_level(n: int, x: ExtendedRational) -> Fraction:
    """Piecewise-linear level-n approximation of h, with no level built.

    Interpolates the level-n nodes (node i maps to i/2^n); everything at
    or beyond the last finite node takes the flat value (2^n - 1)/2^n,
    which is also the level value assigned to infinity.  The mediant walk
    takes each continued-fraction digit of x as one run of n bits at most,
    moving one node of the cell by a whole run at once.
    """
    if n < 1:
        raise ValueError("level must be positive")
    digits = list(_cf_digits(x.num, x.den)) or [n]  # infinity: n steps right
    if len(digits) % 2 == 0:  # x closes a run of 0s: [.., a] = [.., a - 1, 1]
        digits[-1:] = [digits[-1] - 1, 1]
    i, p, q, r, s, left = 0, 0, 1, 1, 0, n  # cell index i, nodes p/q < r/s
    for k, a in enumerate(digits + [n]):  # runs of 1s and 0s, then 0s past x
        a = min(a, left)
        left -= a
        i, p, q, r, s = ((i << a, p, q, r + a * p, s + a * q) if k % 2 else
                         (((i + 1) << a) - 1, p + a * r, q + a * s, r, s))
    if not s:  # r/s = 1/0: the flat region past the last finite node
        return Fraction(i, 1 << n)
    # (i + (x - p/q)/(r/s - p/q)) / 2^n, where r/s - p/q = 1/(q*s)
    return Fraction(i * x.den + (x.num * q - x.den * p) * s, x.den << n)


def h_enclosure(x: QuadraticSurd, n: int) -> tuple[Fraction, Fraction]:
    """Dyadic bracket [i/2^n, (i+1)/2^n] of h at an irrational point.

    i, the index of the level-n cell holding x, is the first n bits of
    h(x), read off the first digits of x's continued fraction.
    """
    if n < 0:
        raise ValueError("negative level")
    i = _run_bits(_surd_digits(x), n)
    return Fraction(i, 2 ** n), Fraction(i + 1, 2 ** n)


def conjugacy_check(num: int, den: int) -> bool:
    """Exact test of h(phi(x)) = f(h(x)) at the point x = num/den, on integers.

    h(phi(x)) is walked off _phi_pair(num, den); f is applied to h(x) = m/2^e
    as (2^e - 2m)/2^e when 2m <= 2^e and (2m - 2^e)/2^(e+1) otherwise."""
    ym, ye = _h_bits(*_phi_pair(num, den))
    m, e = _h_bits(num, den)
    full = 1 << e
    fm, fe = (full - 2 * m, e) if 2 * m <= full else (2 * m - full, e + 1)
    return ym << fe == fm << ye


class IdentityResult(namedtuple("IdentityResult", "holds checked counterexample")):
    __slots__ = ()


class FareyPropertyReport(namedtuple("FareyPropertyReport", [
        "n", "reciprocal",  # reciprocal: entry i is the reciprocal of entry 2^n - i
        "unit_sum",         # entries i and 2^(n-1) - i sum to 1
        "phi_fold",         # phi maps entry 2^(n-1) + i to entry i
        "phi_refine",       # phi maps level-(n+1) entry i to entry 2^n - i
        "index_note"])):
    """Pass/fail record of the four level-n symmetry identities."""

    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(r.holds for r in
                   (self.reciprocal, self.unit_sum, self.phi_fold, self.phi_refine))


def _identity(name: str, holds: list) -> IdentityResult:
    """The verdict on holds[i] for i = 0, 1, ...: checked up to the first failure."""
    if all(holds):
        return IdentityResult(True, len(holds), None)
    i = holds.index(False)
    return IdentityResult(False, i + 1, "%s fails at i=%d" % (name, i))


def farey_properties_report(level: FareyLevel) -> FareyPropertyReport:
    """Verify the four symmetry identities of a built level n, exactly.

    The fold identity is checked on the index window 2^(n-1) + i,
    0 <= i <= 2^(n-1): the largest window in which every referenced
    entry exists, and the one forced by combining the reciprocal and
    unit-sum identities (a window starting at 2^n would leave the
    sequence for every i > 0).
    """
    n, nums, dens = level
    if n < 1:
        raise ValueError("n must be positive")
    half = 2 ** (n - 1)
    lo_nums, lo_dens = nums[:half + 1], dens[:half + 1]
    nxt_nums, nxt_dens = _mediants(lo_nums), _mediants(lo_dens)  # level n+1 up to index 2^n
    rev_nums, rev_dens = nums[::-1], dens[::-1]  # entry 2^n - i at index i
    rec = _identity("reciprocal", [a == d and b == c for a, b, c, d in
                                   zip(lo_nums, lo_dens, rev_nums, rev_dens)])
    uni = _identity("unit_sum", [a * d + c * b == b * d for a, b, c, d in  # a/b + c/d = 1
                                 zip(lo_nums, lo_dens, nums[half::-1], dens[half::-1])])
    # phi(p/q) = |p - q|/p, the pair rule _phi_pair, holds at 0/1 and 1/0 too
    fold = _identity("phi_fold", [abs(p - q) == a and p == b for p, q, a, b in
                                  zip(nums[half:], dens[half:], nums, dens)])
    ref = _identity("phi_refine", [abs(p - q) == a and p == b for p, q, a, b in
                                   zip(nxt_nums, nxt_dens, rev_nums, rev_dens)])
    note = ("fold identity checked on indices 2^(n-1)+i, 0 <= i <= 2^(n-1); "
            "the nominal window 2^n+i exceeds the level's index range")
    return FareyPropertyReport(n, rec, uni, fold, ref, note)
