import bisect
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fareyshift import conjugacy
from fareyshift.exact import (
    GOLDEN_FIXED_POINT,
    INF,
    ONE,
    ZERO,
    ExtendedRational,
    QuadraticSurd,
    _canonical,
    _cf_digits,
    _phi_pair,
    phi_rat,
)
from fareyshift.conjugacy import (
    DyadicRational,
    FareyPropertyReport,
    IdentityResult,
    _h_bits,
    _run_bits,
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
    if x == ZERO:
        return Fraction(0)
    if x.is_infinite:
        return Fraction(1)
    lo, hi = ZERO, INF
    h_lo, h_hi = Fraction(0), Fraction(1)
    while True:
        mid = ExtendedRational(lo.num + hi.num, lo.den + hi.den)
        h_mid = (h_lo + h_hi) / 2
        if x == mid:
            return h_mid
        if x < mid:
            hi, h_hi = mid, h_mid
        else:
            lo, h_lo = mid, h_mid


def level_cell_reference(entries, x) -> int:
    """Index of the level cell holding x: a bisect over a built level's entries."""
    return bisect.bisect_right(entries, x) - 1


def h_level_reference(n: int, entries, x: ExtendedRational) -> Fraction:
    """h_level recomputed from the built level-n node list."""
    i = level_cell_reference(entries, x)
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


def farey_level_by_objects(n: int) -> tuple:
    """farey_level's entries as it built them before the integer lists: one
    object per node, each mediant appended between its two neighbours (and
    reduced by ExtendedRational, so a node out of lowest terms would show)."""
    entries = [ZERO, INF]
    for _ in range(n):
        nxt = []
        for left, right in zip(entries, entries[1:]):
            nxt.append(left)
            nxt.append(ExtendedRational(left.num + right.num, left.den + right.den))
        nxt.append(entries[-1])
        entries = nxt
    return tuple(entries)


class TestFareyLevel:
    def test_integer_lists_match_the_object_loop(self):
        for n in range(15):
            level, ref = farey_level(n), farey_level_by_objects(n)
            assert level.nums == [x.num for x in ref], n
            assert level.dens == [x.den for x in ref], n
            assert level.entries == ref, n

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
                assert nxt[2 * i + 1] == ExtendedRational(left.num + right.num, left.den + right.den)

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
    """h_level and h_enclosure, which build no level, against a search over the built level."""

    def test_h_level_on_next_level_nodes(self):
        for n in range(1, 11):
            entries = farey_level(n).entries
            for x in farey_level(n + 1).entries:
                assert h_level(n, x) == h_level_reference(n, entries, x), (n, x)

    def test_h_level_random_rationals(self):
        levels = [farey_level(n).entries for n in range(13)]
        rng = random.Random(37)
        for _ in range(400):
            n = rng.randrange(1, 13)
            x = xr(rng.randrange(0, 400), rng.randrange(1, 400))
            assert h_level(n, x) == h_level_reference(n, levels[n], x), (n, x)
        for n in range(1, 13):
            assert h_level(n, INF) == h_level_reference(n, levels[n], INF)
            assert h_level(n, ZERO) == h_level_reference(n, levels[n], ZERO) == 0

    def test_h_enclosure_random_surds(self):
        levels = [farey_level(n).entries for n in range(13)]
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
        assert conjugacy_check(2, 1)  # h(phi(2)) = 1/4 = f(3/4)
        assert conjugacy_check(1, 1)
        assert conjugacy_check(1, 0)
        assert conjugacy_check(0, 1)

    def test_exhaustive_level_8(self):
        _, nums, dens = farey_level(8)
        for p, q in zip(nums, dens):
            assert conjugacy_check(p, q), (p, q)

    def test_random_rationals(self):
        rng = random.Random(31)
        for _ in range(400):
            x = xr(rng.randrange(0, 300), rng.randrange(1, 300))
            assert conjugacy_check(x.num, x.den), x


def fraction_conjugacy_check(num, den):
    """The check on Fractions through f_map and points, as it read before the
    dyadic form; phi is the map conjugacy_check reads, so a test can swap it."""
    lhs = h_rational(xr(*conjugacy._phi_pair(num, den))).as_fraction()
    rhs = f_map(h_rational(xr(num, den)).as_fraction())
    return lhs == rhs


def phi_rat_with_branches(x: ExtendedRational) -> ExtendedRational:
    """phi_rat as it read before the pair rule: 0 and infinity taken apart."""
    if x == ZERO:
        return INF
    if x.is_infinite:
        return ONE
    return _canonical(abs(x.num - x.den), x.num)


def _seeded_pairs():
    """500 seeded points in lowest terms as (num, den), 0/1 and 1/0 among them."""
    rng = random.Random(37)
    points = [xr(rng.randrange(0, 10 ** 4), rng.randrange(1, 10 ** 4)) for _ in range(498)]
    return [(0, 1), (1, 0)] + [(x.num, x.den) for x in points]


def _check_points():
    _, nums, dens = farey_level(12)
    return list(zip(nums, dens)) + _seeded_pairs()


class TestDyadicConjugacyCheck:
    def test_matches_fraction_oracle(self):
        levels = [farey_level(n) for n in range(15)]
        points = [pair for level in levels for pair in zip(level.nums, level.dens)]
        for p, q in points + _seeded_pairs():
            assert conjugacy_check(p, q) == fraction_conjugacy_check(p, q), (p, q)

    @pytest.mark.parametrize("wrong_phi", [
        lambda p, q: (p, q),
        lambda p, q: _phi_pair(*_phi_pair(p, q)),
        lambda p, q: _phi_pair(p, q)[::-1],
        lambda p, q: (p + q, q) if q else (p, q),
    ])
    def test_wrong_phi_fails_where_the_oracle_fails(self, monkeypatch, wrong_phi):
        # mutation check: with a wrong map the integer form must say False
        # exactly where the Fraction form does, and that must happen
        monkeypatch.setattr(conjugacy, "_phi_pair", wrong_phi)
        verdicts = [(conjugacy_check(p, q), fraction_conjugacy_check(p, q))
                    for p, q in _check_points()]
        assert all(new == old for new, old in verdicts)
        assert any(not old for _, old in verdicts)


class TestPhiPair:
    def test_phi_rat_matches_the_branchy_form(self):
        _, nums, dens = farey_level(12)
        for x in [ZERO, INF] + [xr(p, q) for p, q in zip(nums, dens)]:
            assert str(phi_rat(x)) == str(phi_rat_with_branches(x)), x


class TestFareyProperties:
    def test_single_identities_level_2(self):
        entries = farey_level(2).entries
        assert entries[1] == ExtendedRational(entries[3].den, entries[3].num)  # 1/2 vs 2/1
        assert entries[0].as_fraction() + entries[2].as_fraction() == 1   # 0 + 1
        assert phi_rat(entries[2 + 1]) == entries[1]                      # fold

    def test_full_reports(self):
        for n in range(1, 9):
            rep = farey_properties_report(farey_level(n))
            assert rep.all_pass, "identity failure at level %d" % n
            assert rep.reciprocal.checked == 2 ** (n - 1) + 1
            assert rep.phi_refine.checked == 2 ** n + 1

    def test_swapped_entries_fail_with_a_counterexample(self):
        _, nums, dens = farey_level(3)
        nums[1], nums[2] = nums[2], nums[1]  # 1/2 before 1/3
        dens[1], dens[2] = dens[2], dens[1]
        rep = farey_properties_report(conjugacy.FareyLevel(3, nums, dens))
        assert rep.reciprocal == (False, 2, "reciprocal fails at i=1")
        assert not rep.all_pass

    def test_report_note_mentions_window(self):
        assert "2^(n-1)" in farey_properties_report(farey_level(3)).index_note

    def test_next_level_even_entries_are_the_level(self):
        # the report forms the part of level n+1 it reads this way
        for n in range(13):
            assert farey_level(n + 1).entries[::2] == farey_level(n).entries


def h_rational_by_digit_list(x: ExtendedRational) -> DyadicRational:
    """h_rational as it read before the integer walk: a digit list, then _run_bits."""
    if x.is_infinite:
        return DyadicRational(1, 0)
    digits = list(_cf_digits(x.num, x.den))
    e = sum(digits)  # the closing 1 replaces the last bit, unless x = 0 has none
    return DyadicRational(_run_bits(digits, e) | (x.num > 0), e)


def farey_properties_report_by_objects(level) -> FareyPropertyReport:
    """farey_properties_report as it read before the num/den lists: one
    lambda per identity over the level's ExtendedRational entries."""
    n, entries = level.n, level.entries
    if n < 1:
        raise ValueError("n must be positive")
    half = 2 ** (n - 1)
    full = 2 ** n
    nxt = [ZERO] * (full + 1)  # level n+1 up to index 2^n, all that phi_refine reads
    nxt[::2] = entries[:half + 1]
    nxt[1::2] = [_canonical(left.num + right.num, left.den + right.den)
                 for left, right in zip(entries[:half], entries[1:half + 1])]

    def run(indices, check, name):
        checked = 0
        for i in indices:
            checked += 1
            if not check(i):
                return IdentityResult(False, checked, "%s fails at i=%d" % (name, i))
        return IdentityResult(True, checked, None)

    rec = run(range(half + 1),
              lambda i: (entries[i].num, entries[i].den) ==
              (entries[full - i].den, entries[full - i].num),
              "reciprocal")
    uni = run(range(half + 1),  # a/b + c/d = 1 with b, d > 0
              lambda i: entries[i].num * entries[half - i].den +
              entries[half - i].num * entries[i].den == entries[i].den * entries[half - i].den,
              "unit_sum")
    fold = run(range(half + 1),
               lambda i: phi_rat(entries[half + i]) == entries[i],
               "phi_fold")
    ref = run(range(full + 1),
              lambda i: phi_rat(nxt[i]) == entries[full - i],
              "phi_refine")
    note = ("fold identity checked on indices 2^(n-1)+i, 0 <= i <= 2^(n-1); "
            "the nominal window 2^n+i exceeds the level's index range")
    return FareyPropertyReport(n, rec, uni, fold, ref, note)


def _level_of(n: int, entries) -> conjugacy.FareyLevel:
    """The level record holding these entries' numerators and denominators."""
    return conjugacy.FareyLevel(n, [x.num for x in entries], [x.den for x in entries])


def _corrupted_levels(n: int, rng: random.Random):
    """Level n with one entry swapped with another, or one entry replaced.

    Each corruption touches one place, so the level keeps a single 0/1 and a
    single 1/0 entry; the replacements include phi's image of the entry, its
    reciprocal, its neighbours and random rationals, so phi identities break.
    """
    entries = farey_level(n).entries
    size = len(entries)
    pairs = ([(i, j) for i in range(size) for j in range(i + 1, size)] if size <= 33 else
             [tuple(sorted(rng.sample(range(size), 2))) for _ in range(300)])
    for i, j in pairs:
        swapped = list(entries)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield _level_of(n, swapped)
    for k in (range(size) if size <= 33 else rng.sample(range(size), 40)):
        x = entries[k]
        for wrong in (phi_rat(x), ExtendedRational(x.den, x.num), entries[k - 1],
                      entries[(k + 1) % size], ExtendedRational(x.num + 1, x.den or 1),
                      xr(rng.randrange(0, 50), rng.randrange(1, 50))):
            if wrong != x:
                replaced = list(entries)
                replaced[k] = wrong
                yield _level_of(n, replaced)


class TestIntegerLevelTables:
    """The integer h walk and num/den identity report against the object code they replace."""

    def test_h_bits_matches_the_digit_list_walk(self):
        rng = random.Random(43)
        points = list(farey_level(12).entries) + \
            [xr(rng.randrange(0, 10 ** 6), rng.randrange(1, 10 ** 6)) for _ in range(500)]
        for x in points:
            ref = h_rational_by_digit_list(x)
            assert h_rational(x) == ref, x
            assert _h_bits(x.num, x.den) == (ref.mantissa, ref.exponent), x

    @given(st.integers(0, 40), st.lists(st.integers(1, 40), max_size=40))
    def test_run_bits_with_the_closing_one_is_h_bits(self, head, tail):
        num, den = 1, 0
        for a in reversed([head] + tail):  # [head; tail...] as a fraction
            num, den = a * num + den, num
        digits = list(_cf_digits(num, den))
        e = sum(digits)
        assert _h_bits(num, den) == (_run_bits(digits, e) | (num > 0), e)

    def test_report_matches_the_object_report(self):
        for n in range(1, 13):
            level = farey_level(n)
            assert farey_properties_report(level) == farey_properties_report_by_objects(level), n

    def test_report_matches_the_object_report_on_corrupted_levels(self):
        rng = random.Random(47)
        failed = dict.fromkeys(("reciprocal", "unit_sum", "phi_fold", "phi_refine"), 0)
        for n in range(1, 9):
            for level in _corrupted_levels(n, rng):
                new = farey_properties_report(level)
                assert new == farey_properties_report_by_objects(level), (n, level.entries)
                for name in failed:
                    failed[name] += not getattr(new, name).holds
        assert all(failed.values()), failed  # every identity is caught failing
