"""Codes, escape times and h values read off the continued fraction,
against the per-step walks, the string-built h and the mediant descent
they replaced."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import escape_word, pre_and_period

from fareyshift.exact import (INF, ONE, ZERO, ExtendedRational, QuadraticSurd, _cf_digits,
                              _surd_digits, escape_time, phi_rat, phi_surd)
from fareyshift.coding import code_of_rational, itinerary
from fareyshift.conjugacy import (DyadicRational, _run_bits, farey_level, h_enclosure, h_inverse,
                                  h_level, h_rational)

# The replaced functions, kept verbatim as references.


def escape_time_reference(x: ExtendedRational) -> int:
    if x.is_infinite:
        raise ValueError("escape_time is defined for finite rationals only")
    n = 0
    while x != ZERO:
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
    if x == ZERO:
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


def _descend(x, n: int) -> tuple[int, ExtendedRational, ExtendedRational]:
    """Level-n cell of x, found by n mediant steps down from [0/1, 1/0].

    Each step goes right (index bit 1) when x is at or above the mediant
    and left (bit 0) otherwise.  Returns (i, lo, hi): the level-n nodes i
    and i + 1, with lo <= x < hi unless x is infinity (then hi = 1/0 too).
    x is an ExtendedRational or a QuadraticSurd.
    """
    i, lo, hi = 0, ZERO, INF
    for _ in range(n):
        mid = ExtendedRational(lo.num + hi.num, lo.den + hi.den)
        if x < mid:
            i, hi = 2 * i, mid
        else:
            i, lo = 2 * i + 1, mid
    return i, lo, hi


def h_level_reference(n: int, x: ExtendedRational) -> Fraction:
    if n < 1:
        raise ValueError("level must be positive")
    i, lo, hi = _descend(x, n)
    if lo == x or hi.is_infinite:
        return Fraction(i, 2 ** n)
    t = (x.as_fraction() - lo.as_fraction()) / (hi.as_fraction() - lo.as_fraction())
    return (i + t) / 2 ** n


def h_level_by_inverse(n: int, x: ExtendedRational) -> Fraction:
    """h_level as it took its two nodes from h_inverse of the cell's ends."""
    if n < 1:
        raise ValueError("level must be positive")
    digits = list(_cf_digits(x.num, x.den))  # h(x) to n bits, as in h_rational
    e = sum(digits)
    i = min(_run_bits(digits, n) | (1 << n - e if x.num and e <= n else 0), 2 ** n - 1)
    lo, hi = h_inverse(Fraction(i, 1 << n)), h_inverse(Fraction(i + 1, 1 << n))
    if lo == x or hi.is_infinite:
        return Fraction(i, 2 ** n)
    t = (x.as_fraction() - lo.as_fraction()) / (hi.as_fraction() - lo.as_fraction())
    return (i + t) / 2 ** n


def h_enclosure_reference(x: QuadraticSurd, n: int) -> tuple[Fraction, Fraction]:
    if n < 0:
        raise ValueError("negative level")
    i = _descend(x, n)[0]
    return Fraction(i, 2 ** n), Fraction(i + 1, 2 ** n)


def surd_itinerary_reference(x, n: int) -> str:
    """The surd branch of the per-step itinerary."""
    out = []
    for _ in range(n):
        out.append("1" if x > 1 else "0")
        x = phi_surd(x)
    return "".join(out)


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
        assert len(escape_word(x)) == escape_times[x], x
    assert escape_times[ExtendedRational(1, 9999)] == 14998


def test_escape_time_memory_does_not_grow_with_the_escape_time():
    # one partial quotient of 10^9: the escape word would take about 3 GB
    tracemalloc.start()
    try:
        assert escape_time(ExtendedRational(1, 10 ** 9)) == 1_499_999_999
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("tie_high", [False, True])
def test_codes_and_itineraries_match_per_step_walk(escape_times, tie_high):
    for x in POINTS:
        if tie_high and x == ZERO:
            continue  # the reference's tie at 0 gives an inadmissible word
        e = escape_times[x]
        want = itinerary_reference(x, e + 6, tie_high)
        assert itinerary(x, e + 6, tie_high) == want, x
        code = code_of_rational(x, tie_high)
        assert pre_and_period(code) == (want[:e], "010"), x


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


def test_surd_itinerary_word_grows_with_its_length_only():
    # sqrt(10^18 + 1) = [10^9; 2 * 10^9, ...]: each run of passes is cut at n,
    # and reading n + 1 such runs built 3n^2 symbols (3 * 10^8 at n = 10^4),
    # where the word of at most 4n + 2 symbols is held a few times over
    for d in (10 ** 18 + 1, 10 ** 12 + 1):
        x = QuadraticSurd(0, 1, 1, d)
        for n in (1, 2, 3, 10, 1000, 10 ** 4):
            tracemalloc.start()
            try:
                assert len(itinerary(x, n)) == n
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20 * n + 4096, (d, n, peak)
        for n in (1, 2, 3, 7, 20):
            assert itinerary(x, n) == itinerary(x, n, tie_high=True) == \
                surd_itinerary_reference(x, n), (d, n)


def _random_surds(count, seed):
    """Surds of both signs of q over radicands up to 10^18 + 3 (a prime),
    with values from just above 0 to past 10^6, so first digits range
    from 0 to past 10^6: long runs of passes and long h runs are met."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = 10 ** 18 + 3 if rng.random() < 0.1 else rng.randrange(2, 2 ** rng.randint(2, 60))
        q = rng.choice((1, -1)) * rng.randint(1, 1000)
        s = math.isqrt(q * q * d)  # below |q| sqrt(d) unless d is a square
        reach = 10 ** rng.randint(0, 8)
        p = rng.randint(s + 1, s + reach) if q < 0 else rng.randint(-s, reach)
        try:
            out.append(QuadraticSurd(p, q, rng.randint(1, 10 ** rng.randint(0, 6)), d))
        except ValueError:  # a square radicand: a rational
            continue
    return out


SURDS = _random_surds(2000, 43)


def test_random_surds_cover_both_signs_and_large_radicands():
    assert any(z.q < 0 for z in SURDS) and any(z.q > 0 for z in SURDS)
    assert sum(z.d == 10 ** 18 + 3 for z in SURDS) > 100
    assert any(float(z) < 1e-3 for z in SURDS) and any(float(z) > 1e6 for z in SURDS)


def test_surd_digit_convergents_bracket_the_point_alternately():
    # convergents h/k of the first j digits: below x for odd j, above for
    # even j, under exact comparisons; every digit after the first is >= 1
    for z in SURDS[:500] + [QuadraticSurd(0, 1, 1, 2), QuadraticSurd(-1, 1, 2, 5)]:
        h0, k0, h1, k1 = 1, 0, 0, 1
        for j, a in enumerate(_surd_digits(z)):
            if j == 12:
                break
            assert a >= (1 if j else 0), (z, j)
            h0, k0, h1, k1 = a * h0 + h1, a * k0 + k1, h0, k0
            conv = ExtendedRational(h0, k0)
            assert (z > conv) if j % 2 == 0 else (z < conv), (z, j)


def test_surd_digits_of_known_points():
    digits = _surd_digits(QuadraticSurd(0, 1, 1, 2))  # sqrt(2) = [1; 2, 2, ...]
    assert [next(digits) for _ in range(6)] == [1, 2, 2, 2, 2, 2]
    digits = _surd_digits(QuadraticSurd(-1, 1, 2, 5))  # the golden fixed point [0; 1, 1, ...]
    assert [next(digits) for _ in range(6)] == [0, 1, 1, 1, 1, 1]


def test_surd_itinerary_and_h_enclosure_match_the_per_step_walks():
    rng = random.Random(47)
    for z in SURDS:
        n = rng.randint(1, 30)
        want = surd_itinerary_reference(z, n)
        assert itinerary(z, n) == itinerary(z, n, tie_high=True) == want, (z, n)
        m = rng.randint(0, 40)
        assert h_enclosure(z, m) == h_enclosure_reference(z, m), (z, m)


def test_h_level_matches_the_mediant_descent():
    rng = random.Random(53)
    points = [ZERO, INF, ONE] + [ExtendedRational(rng.randrange(10 ** rng.randint(0, 12)),
                                                  rng.randrange(1, 10 ** rng.randint(1, 12)))
                                 for _ in range(2000)]
    for x in points:
        for n in (1, rng.randint(2, 12), rng.randint(13, 60)):
            assert h_level(n, x) == h_level_reference(n, x), (n, x)
    for n in range(1, 9):  # every node of levels n and n + 1
        for x in farey_level(n + 1).entries:
            assert h_level(n, x) == h_level_reference(n, x), (n, x)


def test_h_level_reads_only_n_bits_of_a_long_digit():
    # one partial quotient of 10^12: h(x) has 10^12 bits, the reference descent 40 steps
    for x in (ExtendedRational(1, 10 ** 12), ExtendedRational(10 ** 12),
              ExtendedRational(10 ** 12 + 1, 10 ** 12)):
        assert h_level(40, x) == h_level_reference(40, x), x


def test_h_level_walks_to_the_nodes_h_inverse_gives():
    points = {ExtendedRational(p, q) for p in range(61) for q in range(1, 61)} | {INF}
    node, flat = 0, 0
    for n in range(1, 15):
        for x in points:
            want = h_level_by_inverse(n, x)
            assert h_level(n, x) == want, (n, x)
            if x.is_infinite or x.as_fraction() >= n:  # at or past the last finite node
                flat += 1
                assert want == 1 - Fraction(1, 2 ** n), (n, x)
            elif h_rational(x).exponent <= n:  # a level-n node: lo == x
                node += 1
                assert want == h_rational(x).as_fraction(), (n, x)
    assert node > 7000 and flat > 3000, (node, flat)  # both cases are reached often
