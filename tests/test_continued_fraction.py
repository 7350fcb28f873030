"""Rational codes, escape times and h values read off the continued
fraction, against the per-step walks and the string-built h they replaced."""

import random

import pytest

from fareyshift import (
    ONE,
    ZERO,
    DyadicRational,
    ExtendedRational,
    code_of_rational,
    escape_time,
    h_inverse,
    h_rational,
    itinerary,
    phi_rat,
)

# The replaced functions, kept verbatim as references.


def escape_time_reference(x: ExtendedRational) -> int:
    if x.is_infinite:
        raise ValueError("escape_time is defined for finite rationals only")
    n = 0
    while not x.is_zero:
        x = phi_rat(x)
        n += 1
    return n


def itinerary_reference(x, n: int, tie_high: bool = False) -> str:
    """The rational branch of the per-step itinerary."""
    out = []
    tie_pending = tie_high
    for _ in range(n):
        if x == ONE and tie_pending:
            out.append("1")
            tie_pending = False
        else:
            out.append("1" if x > ONE else "0")
        x = phi_rat(x)
    return "".join(out)


def _cf_digits(num: int, den: int) -> list[int]:
    out = []
    while den:
        q, r = divmod(num, den)
        out.append(q)
        num, den = den, r
    return out


def h_rational_reference(x: ExtendedRational) -> DyadicRational:
    if x.is_zero:
        return DyadicRational(0, 0)
    if x.is_infinite:
        return DyadicRational(1, 0)
    digits = _cf_digits(x.num, x.den)
    bits = []
    last = len(digits) - 1
    for idx, a in enumerate(digits):
        run = a - 1 if idx == last else a
        bits.append(("1" if idx % 2 == 0 else "0") * run)
    bits.append("1")
    s = "".join(bits)
    return DyadicRational(int(s, 2), len(s))


def _fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _points():
    """The grid 0..200 over 1..60, 1/9999 and 9999, ratios of consecutive
    Fibonacci numbers (all partial quotients 1) and random 30-digit
    rationals."""
    pts = [ExtendedRational(p, q) for p in range(201) for q in range(1, 61)]
    pts += [ExtendedRational(1, 9999), ExtendedRational(9999)]
    pts += [ExtendedRational(_fib(n + 1), _fib(n)) for n in range(1, 61)]
    rng = random.Random(30)
    pts += [ExtendedRational(rng.randrange(10 ** 29, 10 ** 30), rng.randrange(10 ** 29, 10 ** 30))
            for _ in range(300)]
    return list(dict.fromkeys(pts))


POINTS = _points()


@pytest.fixture(scope="module")
def escape_times():
    return {x: escape_time_reference(x) for x in POINTS}


def test_escape_time_matches_per_step_walk(escape_times):
    for x in POINTS:
        assert escape_time(x) == escape_times[x], x
    assert escape_times[ExtendedRational(1, 9999)] == 14998


@pytest.mark.parametrize("tie_high", [False, True])
def test_codes_and_itineraries_match_per_step_walk(escape_times, tie_high):
    for x in POINTS:
        if tie_high and x == ZERO:
            continue  # the reference's tie at 0 gives an inadmissible word
        e = escape_times[x]
        want = itinerary_reference(x, e + 6, tie_high)
        assert itinerary(x, e + 6, tie_high) == want, x
        code = code_of_rational(x, tie_high)
        assert (code.pre, code.per) == (want[:e], "010"), x


def test_h_matches_string_built_reference():
    for x in POINTS:
        assert h_rational(x) == h_rational_reference(x), x


def test_h_inverse_round_trip():
    for x in POINTS:
        assert h_inverse(h_rational(x)) == x, x


def test_itinerary_reads_only_what_it_returns():
    # one partial quotient of 10^12: the escape word has 1.5 * 10^12 symbols
    x = ExtendedRational(1, 10 ** 12)
    assert itinerary(x, 8) == itinerary_reference(x, 8) == "01001001"
