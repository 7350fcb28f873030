import bisect
import random
from fractions import Fraction

import pytest

from fareyshift.exact import (
    GOLDEN_FIXED_POINT,
    INF,
    ONE,
    ZERO,
    ExtendedRational,
    QuadraticSurd,
    phi_rat,
)
from fareyshift.conjugacy import (
    DyadicRational,
    conjugacy_check,
    f_map,
    farey_level,
    farey_properties_report,
    h_enclosure,
    h_inverse,
    h_level,
    h_rational,
)


def xr(n, d=1):
    return ExtendedRational(n, d)


def h_oracle(x: ExtendedRational) -> Fraction:
    """Independent mediant walk from [0/1, 1/0] down to x, halving as it goes."""
    if x.is_zero:
        return Fraction(0)
    if x.is_infinite:
        return Fraction(1)
    lo, hi = ZERO, INF
    h_lo, h_hi = Fraction(0), Fraction(1)
    while True:
        mid = lo.mediant(hi)
        h_mid = (h_lo + h_hi) / 2
        if x == mid:
            return h_mid
        if x < mid:
            hi, h_hi = mid, h_mid
        else:
            lo, h_lo = mid, h_mid


def level_cell_reference(level, x) -> int:
    """Index of the level cell holding x: a bisect over the built level."""
    return bisect.bisect_right(level.entries, x) - 1


def h_level_reference(level, x: ExtendedRational) -> Fraction:
    """h_level recomputed from the built level node list."""
    n, entries = level.n, level.entries
    i = level_cell_reference(level, x)
    if i >= 2 ** n - 1:
        return Fraction(2 ** n - 1, 2 ** n)
    lo, hi = entries[i].as_fraction(), entries[i + 1].as_fraction()
    return (i + (x.as_fraction() - lo) / (hi - lo)) / 2 ** n


class TestDyadicRational:
    def test_canonical(self):
        assert DyadicRational(2, 2) == DyadicRational(1, 1)
        assert DyadicRational(0, 9) == DyadicRational(0, 0)
        assert str(DyadicRational(3, 3)) == "3/2^3"

    def test_bounds(self):
        with pytest.raises(ValueError):
            DyadicRational(5, 2)  # 5/4 > 1
        with pytest.raises(ValueError):
            DyadicRational.from_fraction(Fraction(1, 3))


class TestFareyLevel:
    def test_first_levels(self):
        assert [str(e) for e in farey_level(0).entries] == ["0/1", "1/0"]
        assert [str(e) for e in farey_level(1).entries] == ["0/1", "1/1", "1/0"]
        assert [str(e) for e in farey_level(2).entries] == \
            ["0/1", "1/2", "1/1", "2/1", "1/0"]
        assert [str(e) for e in farey_level(3).entries] == \
            ["0/1", "1/3", "1/2", "2/3", "1/1", "3/2", "2/1", "3/1", "1/0"]

    def test_shape_and_neighbours(self):
        for n in range(0, 9):
            entries = farey_level(n).entries
            assert len(entries) == 2 ** n + 1
            for left, right in zip(entries, entries[1:]):
                assert left < right
                # unimodular neighbours: d*a - b*c = 1 for b/a then d/c
                assert right.num * left.den - left.num * right.den == 1

    def test_interleaving(self):
        for n in range(0, 8):
            cur = farey_level(n).entries
            nxt = farey_level(n + 1).entries
            assert nxt[::2] == cur
            for i, (left, right) in enumerate(zip(cur, cur[1:])):
                assert nxt[2 * i + 1] == left.mediant(right)

    def test_memory_guard(self):
        with pytest.raises(ValueError):
            farey_level(25)


class TestFMap:
    def test_period_three_orbit(self):
        assert f_map(Fraction(0)) == 1
        assert f_map(Fraction(1)) == Fraction(1, 2)
        assert f_map(Fraction(1, 2)) == 0

    def test_branches(self):
        assert f_map(Fraction(1, 4)) == Fraction(1, 2)
        assert f_map(Fraction(3, 4)) == Fraction(1, 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_map(Fraction(3, 2))


class TestH:
    def test_endpoints(self):
        assert h_rational(ZERO) == DyadicRational(0)
        assert h_rational(INF) == DyadicRational(1)

    def test_known_values(self):
        assert h_rational(ONE).as_fraction() == Fraction(1, 2)
        assert h_rational(xr(2)).as_fraction() == Fraction(3, 4)
        assert h_rational(xr(1, 2)).as_fraction() == Fraction(1, 4)
        assert h_rational(xr(3, 5)).as_fraction() == Fraction(5, 16)

    def test_matches_mediant_walk_oracle(self):
        rng = random.Random(13)
        for _ in range(500):
            x = xr(rng.randrange(0, 120), rng.randrange(1, 120))
            assert h_rational(x).as_fraction() == h_oracle(x)

    def test_level_nodes_hit_dyadics(self):
        for n in range(1, 9):
            entries = farey_level(n).entries
            for i, x in enumerate(entries[:-1]):
                assert h_rational(x).as_fraction() == Fraction(i, 2 ** n)

    def test_monotone_on_rationals(self):
        rng = random.Random(17)
        pts = []
        for _ in range(10 ** 4 + 1):
            pts.append(xr(rng.randrange(0, 500), rng.randrange(1, 500)))
        for a, b in zip(pts, pts[1:]):
            if a == b:
                continue
            if b < a:
                a, b = b, a
            assert h_rational(a) < h_rational(b)

    def test_inverse_round_trip(self):
        rng = random.Random(23)
        for _ in range(300):
            x = xr(rng.randrange(0, 200), rng.randrange(1, 200))
            assert h_inverse(h_rational(x)) == x
        for e in range(1, 12):
            for m in range(1, 2 ** e, 2):
                d = DyadicRational(m, e)
                assert h_rational(h_inverse(d)) == d

    def test_inverse_examples(self):
        assert h_inverse(Fraction(1, 2)) == ONE
        assert h_inverse(Fraction(1, 4)) == xr(1, 2)
        assert h_inverse(Fraction(0)) == ZERO
        assert h_inverse(Fraction(1)) == INF

    def test_surd_enclosure(self):
        z = QuadraticSurd(-1, 1, 2, 5)  # in (1/2, 1), so h lands inside [1/4, 1/2]
        lo, hi = h_enclosure(z, 10)
        assert hi - lo == Fraction(1, 2 ** 10)
        assert Fraction(1, 4) <= lo < hi <= Fraction(1, 2)


class TestHLevel:
    def test_left_endpoint(self):
        for n in range(1, 7):
            assert h_level(n, ZERO) == 0

    def test_node_value(self):
        assert h_level(2, xr(1, 2)) == Fraction(1, 4)

    def test_interpolated_value(self):
        assert h_level(2, xr(3, 4)) == Fraction(3, 8)

    def test_tail_is_flat(self):
        for n in range(1, 7):
            flat = Fraction(2 ** n - 1, 2 ** n)
            assert h_level(n, INF) == flat
            assert h_level(n, xr(n)) == flat
            assert h_level(n, xr(100 * n)) == flat

    def test_uniform_approximation(self):
        rng = random.Random(29)
        for _ in range(300):
            n = rng.randrange(2, 9)
            x = xr(rng.randrange(0, 60), rng.randrange(1, 60))
            err = abs(h_level(n, x) - h_rational(x).as_fraction())
            assert err <= Fraction(1, 2 ** n)


class TestDescentMatchesLevelSearch:
    """The O(n) mediant descent against a search over the built level."""

    def test_h_level_on_next_level_nodes(self):
        for n in range(1, 11):
            level = farey_level(n)
            for x in farey_level(n + 1).entries:
                assert h_level(n, x) == h_level_reference(level, x), (n, x)

    def test_h_level_random_rationals(self):
        levels = [farey_level(n) for n in range(13)]
        rng = random.Random(37)
        for _ in range(400):
            n = rng.randrange(1, 13)
            x = xr(rng.randrange(0, 400), rng.randrange(1, 400))
            assert h_level(n, x) == h_level_reference(levels[n], x), (n, x)
        for n in range(1, 13):
            assert h_level(n, INF) == h_level_reference(levels[n], INF)
            assert h_level(n, ZERO) == h_level_reference(levels[n], ZERO) == 0

    def test_h_enclosure_random_surds(self):
        levels = [farey_level(n) for n in range(13)]
        rng = random.Random(41)
        checked = 0
        while checked < 300:
            try:
                z = QuadraticSurd(rng.randint(-6, 9), rng.randint(1, 5),
                                  rng.randint(1, 9), rng.choice((2, 3, 5, 7, 13)))
            except ValueError:  # negative value
                continue
            n = rng.randrange(0, 13)
            i = level_cell_reference(levels[n], z)
            assert h_enclosure(z, n) == (Fraction(i, 2 ** n), Fraction(i + 1, 2 ** n))
            checked += 1

    def test_levels_beyond_the_level_memory_guard(self):
        for x in (xr(1, 9999), xr(355, 113), xr(10 ** 6 + 1, 10 ** 6), xr(7, 3)):
            err = abs(h_level(40, x) - h_rational(x).as_fraction())
            assert err <= Fraction(1, 2 ** 40), x
        lo, hi = h_enclosure(GOLDEN_FIXED_POINT, 40)
        assert hi - lo == Fraction(1, 2 ** 40)
        left, right = h_inverse(lo), h_inverse(hi)
        assert right.num * left.den - left.num * right.den == 1  # neighbouring nodes
        assert left < GOLDEN_FIXED_POINT < right


class TestConjugacy:
    def test_examples(self):
        assert conjugacy_check(xr(2))      # h(phi(2)) = 1/4 = f(3/4)
        assert conjugacy_check(ONE)
        assert conjugacy_check(INF)

    def test_exhaustive_level_8(self):
        for x in farey_level(8).entries:
            assert conjugacy_check(x)

    def test_random_rationals(self):
        rng = random.Random(31)
        for _ in range(400):
            assert conjugacy_check(xr(rng.randrange(0, 300), rng.randrange(1, 300)))


class TestFareyProperties:
    def test_single_identities_level_2(self):
        entries = farey_level(2).entries
        assert entries[1] == entries[3].reciprocal()                      # 1/2 vs 2/1
        assert entries[0].as_fraction() + entries[2].as_fraction() == 1   # 0 + 1
        assert phi_rat(entries[2 + 1]) == entries[1]                      # fold

    def test_full_reports(self):
        for n in range(1, 9):
            rep = farey_properties_report(n)
            assert rep.all_pass, "identity failure at level %d" % n
            assert rep.reciprocal.checked == 2 ** (n - 1) + 1
            assert rep.phi_refine.checked == 2 ** n + 1

    def test_report_note_mentions_window(self):
        assert "2^(n-1)" in farey_properties_report(3).index_note

    def test_next_level_even_entries_are_the_level(self):
        # the report reads level n off level n+1 this way
        for n in range(13):
            assert farey_level(n + 1).entries[::2] == farey_level(n).entries
