import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyshift.exact import (
    GOLDEN_FIXED_POINT,
    INF,
    ONE,
    ZERO,
    ExtendedRational,
    QuadraticSurd,
    escape_time,
    mobius_apply,
    phi_rat,
    phi_surd,
)
from fareyshift.coding import (
    FULL_LINE,
    CodeStream,
    FareyInterval,
    InadmissibleWordError,
    PointEnclosure,
    _advance,
    _interval_of,
    admissible_words,
    code_of_rational,
    cylinder,
    is_admissible,
    itinerary,
    periodic_point,
    phi_interval_image,
    point_of_code,
    sigma_metric,
)
from fareyshift.scrambled import (
    BlockLayout,
    alpha_transitive,
    mu_code,
    rational_vs_tau,
    schedule_events,
    tau_code,
    verify_scrambling,
)


def xr(n, d=1):
    return ExtendedRational(n, d)


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


admissible_word = st.text(alphabet="01", min_size=1, max_size=14).filter(is_admissible)


def _point_of_code_reference(s, max_prefix, width_goal):
    """The per-symbol FareyInterval loop that point_of_code replaced."""
    if max_prefix < 1:
        raise ValueError("max_prefix must be positive")
    goal = Fraction(width_goal)
    if goal <= 0:
        raise ValueError("width_goal must be positive")
    m = (1, 0, 0, 1)
    prev = 0
    iv = FULL_LINE
    for i in range(max_prefix):
        sym = s[i]
        if prev == 1 and sym == 1:
            raise InadmissibleWordError("stream prefix contains '11' at index %d" % i)
        m = _advance(m, sym)
        iv = _interval_of(m, sym)
        w = iv.width()
        if w is not None and w < goal:
            return PointEnclosure(iv, i + 1, True)
        prev = sym
    return PointEnclosure(iv, max_prefix, False)


_TRACKED = [code_of_rational(ONE), code_of_rational(xr(3, 5))]
_PROCEDURAL = [mu_code("011010"), mu_code("1"),
               tau_code("011010", alpha_transitive(), _TRACKED)]

periodic_codes = st.builds(
    CodeStream.periodic,
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=8),
)
admissible_periodic_codes = periodic_codes.filter(lambda c: c.check_admissible())
rational_and_unbounded_codes = st.sampled_from(
    [CodeStream.periodic("", per) for per in ("100", "010", "001")])
procedural_codes = st.builds(
    CodeStream.shifted,
    st.sampled_from(_PROCEDURAL),
    st.one_of(st.integers(0, 6000), st.sampled_from([118, 119, 120, 239, 719, 720, 5039])),
)
width_goals = st.one_of(
    st.integers(0, 60).map(lambda k: Fraction(1, 10 ** k)),
    st.sampled_from([Fraction(3, 7), Fraction(5), 5, Fraction(22, 7), Fraction(1, 3 ** 40)]),
    st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 9)),
)


class TestWords:
    def test_admissibility(self):
        assert is_admissible("0100100")
        assert not is_admissible("0110")
        assert not is_admissible("01a0")

    def test_enumeration_counts(self):
        # brute-force oracle: filter all bit strings
        for n in range(1, 12):
            brute = [format(v, "0%db" % n) for v in range(2 ** n)]
            brute = sorted(w for w in brute if "11" not in w)
            assert admissible_words(n) == brute


class TestCodeStream:
    def test_periodic_indexing(self):
        s = CodeStream.periodic("0", "010")
        assert s.prefix(8) == "00100100"
        assert [s[i] for i in range(5)] == [0, 0, 1, 0, 0]

    def test_shift_renormalises(self):
        zero = CodeStream.zeros()
        assert zero.shifted(5).prefix(6) == "000000"
        s = CodeStream.periodic("0", "010")
        assert s.shifted(1).pre == "" and s.shifted(1).per == "010"
        t = CodeStream.periodic("", "100")
        assert t.shifted(3).per == "100"
        assert t.shifted(4).prefix(6) == "001001"

    def test_procedural_shift_and_cache(self):
        s = CodeStream.procedural(lambda n: 1 if n % 5 == 0 else 0)
        assert s.prefix(11) == "10000100001"
        assert s.shifted(3).prefix(4) == "0010"

    def test_admissibility_checks(self):
        assert CodeStream.periodic("", "1").check_admissible() is False
        assert CodeStream.periodic("010", "011").check_admissible() is False
        assert CodeStream.periodic("", "10").check_admissible() is True  # wraps to 1010...
        assert CodeStream.periodic("0", "010").check_admissible() is True
        assert CodeStream.periodic("01", "0").admissible_prefix(40)


class TestSigmaMetric:
    def test_identical(self):
        z = CodeStream.zeros()
        assert sigma_metric(z, z, 1e-9) == 0.0

    def test_single_difference(self):
        # 1 0bar vs 0bar differ at index 0 only: distance exactly 1/2
        a = CodeStream.periodic("1", "0")
        assert abs(sigma_metric(a, CodeStream.zeros(), 1e-9) - 0.5) <= 1e-9

    def test_full_difference_geometric(self):
        ones = CodeStream.periodic("", "1")
        assert abs(sigma_metric(CodeStream.zeros(), ones, 1e-6) - 1.0) <= 1e-6

    def test_exact_truncation_matches_log2_rule(self):
        # zeros vs ones sums 1 - 2^-n over the n terms kept, so the exact
        # result exposes n; it must be the rule max(1, ceil(log2(1/tol)) + 1)
        ones = CodeStream.periodic("", "1")
        tols = [Fraction(1, 10 ** k) for k in range(13)] + \
            [Fraction(1, 2 ** k) for k in range(40)] + [Fraction(3, 7), Fraction(5), 1e-9]
        for tol in tols:
            n = max(1, math.ceil(math.log2(1 / float(tol))) + 1)
            got = sigma_metric(CodeStream.zeros(), ones, tol)
            assert isinstance(got, Fraction)
            assert got == 1 - Fraction(1, 2 ** n)


class TestCylinder:
    def test_depth_one_and_two(self):
        assert cylinder("0") == FareyInterval(ZERO, ONE)
        assert cylinder("1") == FareyInterval(ONE, INF)
        assert cylinder("00") == FareyInterval(xr(1, 2), ONE)
        assert cylinder("01") == FareyInterval(ZERO, xr(1, 2))

    def test_bounded_union_pieces(self):
        assert cylinder("000") == FareyInterval(xr(1, 2), xr(2, 3))
        assert cylinder("001") == FareyInterval(xr(2, 3), ONE)
        assert cylinder("0100") == FareyInterval(ZERO, xr(1, 3))
        assert cylinder("1000") == FareyInterval(xr(2), xr(3))

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleWordError):
            cylinder("0110")
        with pytest.raises(InadmissibleWordError):
            cylinder("")

    def test_against_recursive_oracle(self):
        # independent route: intersect-and-map right to left with the
        # branch inverses applied endpoint by endpoint
        psi0, psi1 = (0, 1, 1, 1), (0, 1, -1, 1)  # y -> 1/(1+y), y -> 1/(1-y)

        def oracle(word):
            lo, hi = ZERO, INF
            for ch in reversed(word):
                if ch == "0":
                    lo, hi = mobius_apply(psi0, hi), mobius_apply(psi0, lo)
                else:
                    hi = min(hi, ONE)
                    lo, hi = mobius_apply(psi1, lo), mobius_apply(psi1, hi)
            return FareyInterval(lo, hi)

        for n in range(1, 11):
            for w in admissible_words(n):
                assert cylinder(w) == oracle(w)

    def test_unimodular_exhaustive_to_18(self):
        for n in range(1, 19):
            for w in admissible_words(n):
                iv = cylinder(w)  # endpoints b/a, d/c with |b*c - a*d| = 1
                assert abs(iv.lo.num * iv.hi.den - iv.lo.den * iv.hi.num) == 1

    def test_nesting_exhaustive_to_12(self):
        for n in range(2, 13):
            for w in admissible_words(n):
                assert cylinder(w[:-1]).contains_interval(cylinder(w))

    def test_image_equals_tail_to_10(self):
        for n in range(2, 11):
            for w in admissible_words(n):
                pieces = phi_interval_image(cylinder(w))
                lo = min(p.lo for p in pieces)
                hi = max(p.hi for p in pieces)
                assert FareyInterval(lo, hi) == cylinder(w[1:])

    def test_mediant_split_to_12(self):
        # a parent ending in 0 has two children split exactly at its mediant;
        # after a trailing 1 the only extension is by 0 and nothing splits
        for n in range(1, 13):
            for w in admissible_words(n):
                parent = cylinder(w)
                if w.endswith("0"):
                    left, right = cylinder(w + "1"), cylinder(w + "0")
                    if left.lo > right.lo:
                        left, right = right, left
                    med = parent.lo.mediant(parent.hi)
                    assert left.hi == med and right.lo == med
                    assert left.lo == parent.lo and right.hi == parent.hi
                else:
                    assert cylinder(w + "0") == parent

    @settings(max_examples=150, deadline=None)
    @given(admissible_word)
    def test_width_law_when_bounded(self, w):
        iv = cylinder(w)
        if iv.is_bounded:
            assert iv.width() == Fraction(1, iv.lo.den * iv.hi.den)


class TestItinerary:
    def test_boundary_tie_rule(self):
        assert itinerary(ONE, 7) == "0010010"
        assert itinerary(ONE, 7, tie_high=True) == "1010010"

    def test_golden_point_all_zero(self):
        assert itinerary(GOLDEN_FIXED_POINT, 5) == "00000"

    def test_rational_example(self):
        assert itinerary(xr(5, 2), 3) == "100"

    def test_special_points(self):
        assert itinerary(ZERO, 6) == "010010"
        assert itinerary(INF, 6) == "100100"
        # one code each, so the tie rule leaves them alone
        assert itinerary(ZERO, 9, tie_high=True) == "010010010"
        assert itinerary(INF, 9, tie_high=True) == "100100100"

    @pytest.mark.parametrize("tie_high", [False, True])
    def test_every_rational_itinerary_is_admissible(self, tie_high):
        points = {ZERO, INF} | {xr(p, q) for p in range(1, 41) for q in range(1, 41)}
        for x in points:
            word = itinerary(x, escape_time(x) + 6 if x != INF else 9, tie_high)
            assert is_admissible(word), (x, word)

    def test_round_trip_periodic_points(self):
        rng = random.Random(20)
        words = set()
        while len(words) < 500:
            n = rng.randrange(1, 15)
            words.add(rng.choice(admissible_words(n)))
        for w in sorted(words):
            x = periodic_point("", w + "00")
            assert itinerary(x, len(w)) == w


class TestPointOfCode:
    def test_golden_enclosures_are_fibonacci(self):
        enc = point_of_code(CodeStream.zeros(), 16, Fraction(1, 200))
        assert enc.width_ok and enc.prefix_len == 7
        assert enc.interval == FareyInterval(xr(8, 13), xr(13, 21))
        assert enc.interval.contains(GOLDEN_FIXED_POINT)
        assert cylinder("0" * 7).contains(GOLDEN_FIXED_POINT)

    def test_width_law_for_zero_runs(self):
        for k in range(2, 20):
            assert cylinder("0" * k).width() == Fraction(1, fib(k) * fib(k + 1))

    def test_shrinks_to_zero(self):
        # the code of 0 approaches its point only linearly: [0, 1/(2m+1)]
        # after m repetitions of the period plus one symbol
        enc = point_of_code(CodeStream.periodic("", "010"), 64, Fraction(1, 40))
        assert enc.width_ok
        assert enc.interval.lo == ZERO
        assert enc.interval.hi.as_fraction() < Fraction(1, 40)

    def test_shrinks_to_one(self):
        enc = point_of_code(CodeStream.periodic("", "001"), 64, Fraction(1, 40))
        assert enc.width_ok
        assert enc.interval.contains(ONE)
        assert enc.interval.width() < Fraction(1, 40)

    def test_two_codes_of_one(self):
        for pre in ("0", "1"):
            enc = point_of_code(CodeStream.periodic(pre, "010"), 48, Fraction(1, 10 ** 6))
            assert enc.interval.contains(ONE)

    def test_width_goal_not_reached_reported(self):
        enc = point_of_code(CodeStream.periodic("", "100"), 30, Fraction(1, 10))
        assert not enc.width_ok
        assert enc.interval.hi.is_infinite  # nested enclosures of the infinity code

    def test_nesting_in_prefix_length(self):
        s = CodeStream.periodic("0", "01000")
        prev = None
        for n in range(1, 30):
            enc = point_of_code(s, n, Fraction(1, 10 ** 30)).interval
            if prev is not None:
                assert prev.contains_interval(enc)
            prev = enc

    def test_rejects_inadmissible_stream(self):
        with pytest.raises(InadmissibleWordError):
            point_of_code(CodeStream.periodic("", "110"), 10, Fraction(1, 10))

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(admissible_periodic_codes, periodic_codes,
                  rational_and_unbounded_codes, procedural_codes),
        st.integers(1, 400),
        width_goals,
    )
    def test_matches_per_symbol_reference(self, s, max_prefix, goal):
        try:
            want = _point_of_code_reference(s, max_prefix, goal)
        except InadmissibleWordError as exc:
            with pytest.raises(InadmissibleWordError) as got:
                point_of_code(s, max_prefix, goal)
            assert str(got.value) == str(exc)
            return
        enc = point_of_code(s, max_prefix, goal)
        assert enc == want
        iv = enc.interval
        if iv.is_bounded:
            assert iv.width() == Fraction(1, iv.lo.den * iv.hi.den)

    def test_goals_at_each_cylinder_width(self):
        # goals at and just above the width 1/(d*q) of a cylinder: the
        # sharpest cases for the stopping compare
        for n in range(1, 10):
            for w in admissible_words(n):
                iv = cylinder(w)
                if not iv.is_bounded:
                    continue
                p = iv.lo.den * iv.hi.den
                s = CodeStream.periodic(w, "0")
                goals = [Fraction(1, p)] + [Fraction(k, k * p - 1) for k in range(1, 9) if k * p > 1]
                for goal in goals:
                    assert point_of_code(s, n, goal) == _point_of_code_reference(s, n, goal)

    def test_deep_golden_enclosure_is_zero_run_cylinder(self):
        goal = Fraction(1, 10 ** 1000)
        n, fn, fn1 = 1, 1, 1  # fn, fn1 = fib(n), fib(n + 1)
        while fn * fn1 <= 10 ** 1000:
            n, fn, fn1 = n + 1, fn1, fn + fn1
        enc = point_of_code(CodeStream.zeros(), 10 ** 4, goal)
        assert enc == PointEnclosure(cylinder("0" * n), n, True)
        iv = enc.interval
        assert iv.width() == Fraction(1, iv.lo.den * iv.hi.den) < goal


def _assert_matches_reference(s, max_prefix, goal):
    """point_of_code equals the per-symbol reference, errors included."""
    try:
        want = _point_of_code_reference(s, max_prefix, goal)
    except InadmissibleWordError as exc:
        with pytest.raises(InadmissibleWordError) as got:
            point_of_code(s, max_prefix, goal)
        assert str(got.value) == str(exc)  # the message carries the index
        return
    assert point_of_code(s, max_prefix, goal) == want


def _pieces_stream(pieces):
    """Segmented stream: each word repeated reps times (reps None: forever)."""
    table, start = [], 0
    for word, reps in pieces:
        end = None if reps is None else start + reps * len(word)
        table.append((start, end, word))
        if end is None:
            break
        start = end
    else:
        table.append((start, None, "0"))

    def runs(n):
        for start, end, word in table:
            if end is None or n < end:
                j = (n - start) % len(word)
                return word[j:] + word[:j], end

    return CodeStream.segmented(runs, label="pieces")


EPS = Fraction(1, 100)


def _schedule_cases(k):
    """(s, t, events, m_big) for every schedule family at block size k; s is
    None for rational_vs_tau, whose first point is an exact orbit point."""
    alpha = alpha_transitive()
    tracked = [code_of_rational(xr(3, 5))]
    x_code = CodeStream.periodic("1", "00100")
    mu_s, mu_t = mu_code("0110"), mu_code("1010")
    tau_s, tau_t = tau_code("0110", alpha, tracked), tau_code("1001", alpha, tracked)
    big = Fraction(1000)
    return [
        (mu_s, mu_t, schedule_events("theorem1", (k, k), diff_indices=[0, 1]), Fraction(3, 2)),
        (mu_s, mu_s.shifted(2), schedule_events("theorem1", (k, k), shift=2), Fraction(3, 2)),
        (tau_s, tau_t, schedule_events("theorem2", (k, k), diff_index=0), big),
        (tau_s, tau_t.shifted(1), schedule_events("theorem2", (k, k), shift=1), big),
        (x_code, tau_code("01", alpha, [x_code]),
         schedule_events("theorem2_tracked", (k, k), track_index=1, x_code=x_code), big),
        (None, tau_s, schedule_events("rational_vs_tau", (k, k), escape=3, eps=EPS), big),
    ]


def _rewrap(s):
    """The same symbols as a plain procedural stream: the per-symbol loop."""
    return CodeStream.procedural(s.symbol_at, label=s.label)


class TestSegmentWalk:
    """The segment walk against the per-symbol reference, on segmented streams."""

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_schedule_events_match_reference(self, k):
        for s, t, events, _ in _schedule_cases(k):
            assert t._runs is not None
            for ev in events:
                budget = min(10 ** 5, ev.prefix_cap) if ev.prefix_cap else 10 ** 5
                if s is not None:
                    _assert_matches_reference(s.shifted(ev.index), budget, EPS / 8)
                _assert_matches_reference(t.shifted(ev.index + ev.t_offset), budget, EPS / 8)

    def test_budgets_ending_mid_period(self):
        tau = tau_code("0110", alpha_transitive(), [CodeStream.periodic("1", "00100")])
        goals = (Fraction(1, 10 ** 12), Fraction(1, 800), Fraction(1, 90), Fraction(1, 7))
        for k in (5, 6):
            lay = BlockLayout.for_k(k)
            anchors = [lay.run_start(w) + t for w in range(3) for t in range(3)]
            anchors += [lay.encode_cell(1) + 1, lay.tracking_start(1) + 1,
                        lay.separation_source(1, 1) + 2]
            for n in anchors:
                for budget in (2, 4, 5, 31, 32, 151, 152, lay.quarter - 1):
                    for goal in goals:
                        _assert_matches_reference(tau.shifted(n), budget, goal)

    @pytest.mark.parametrize("pieces, index", [
        ([("00", 3), ("0110", 4)], 8),                  # '11' inside a word
        ([("0", 4), ("1001", 5)], 8),                   # 1|1 between repetitions
        ([("0", 4), ("0001", 3), ("100", None)], 16),   # 1|1 between segments
    ])
    def test_inadmissible_segments(self, pieces, index):
        s = _pieces_stream(pieces)
        with pytest.raises(InadmissibleWordError, match="at index %d$" % index):
            point_of_code(s, 100, Fraction(1, 10 ** 30))
        _assert_matches_reference(s, 100, Fraction(1, 10 ** 30))
        _assert_matches_reference(s, index, Fraction(1, 10 ** 30))  # budget ends before it

    def test_empty_segment_rejected(self):
        # a segment function that makes no progress is an error, not a hang
        s = CodeStream.segmented(lambda n: ("0", n if n >= 3 else 3))
        with pytest.raises(ValueError, match="empty segment at index 3"):
            point_of_code(s, 10, Fraction(1, 10 ** 9))
        with pytest.raises(ValueError, match="empty segment at index 1"):
            s.shifted(2).prefix(5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.one_of(admissible_word, st.text(alphabet="01", min_size=1, max_size=5)),
                           st.integers(1, 60)), min_size=1, max_size=6),
        st.one_of(st.none(), st.sampled_from(["0", "100", "010", "001", "00100"])),
        st.integers(1, 700),
        width_goals,
    )
    def test_random_segmented_streams(self, pieces, tail, max_prefix, goal):
        if tail is not None:
            pieces = pieces + [(tail, None)]
        _assert_matches_reference(_pieces_stream(pieces), max_prefix, goal)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_reports_unchanged_on_the_per_symbol_loop(self, k):
        for s, t, events, m_big in _schedule_cases(k):
            if s is None:
                r = xr(22, 7)
                want = rational_vs_tau(r, t, (k, k), eps=EPS, m_big=m_big).to_dict()
                got = rational_vs_tau(r, _rewrap(t), (k, k), eps=EPS, m_big=m_big).to_dict()
            else:
                want = verify_scrambling(s, t, events, eps=EPS, m_big=m_big, pair="p").to_dict()
                got = verify_scrambling(_rewrap(s), _rewrap(t), events, eps=EPS,
                                        m_big=m_big, pair="p").to_dict()
            assert got == want


class TestPeriodicPoint:
    def test_paper_values(self):
        assert periodic_point("", "0") == GOLDEN_FIXED_POINT
        assert periodic_point("1", "0") == QuadraticSurd(3, 1, 2, 5)
        assert periodic_point("", "100") == INF
        assert periodic_point("", "010") == ZERO
        assert periodic_point("", "001") == ONE

    def test_exact_periodicity(self):
        for per in ("0", "01", "00100", "10010"):
            x = periodic_point("", per)
            y = x
            for _ in range(len(per)):
                y = phi_surd(y) if isinstance(y, QuadraticSurd) else phi_rat(y)
            assert y == x

    def test_point_lies_in_every_cylinder_prefix(self):
        per = "01000"
        x = periodic_point("", per)
        for reps in range(1, 5):
            assert cylinder(per * reps).contains(x)

    def test_preperiod_push_matches_per_symbol_branches(self):
        def push_reference(preperiod, x):
            for ch in reversed(preperiod):
                x = mobius_apply((0, 1, 1, 1) if ch == "0" else (0, 1, -1, 1), x)
            return x

        rng = random.Random(41)
        checked = 0
        while checked < 300:
            pre = rng.choice(admissible_words(rng.randrange(0, 13)))
            per = rng.choice(admissible_words(rng.randrange(1, 7)))
            if not is_admissible(pre + per + per):
                continue
            fixed = periodic_point("", per)
            assert periodic_point(pre, per) == push_reference(pre, fixed), (pre, per)
            checked += 1

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleWordError):
            periodic_point("", "11")
        with pytest.raises(InadmissibleWordError):
            periodic_point("01", "10")  # wraps to ...1 1 0...


class TestPhiIntervalImage:
    def test_monotone_pieces(self):
        assert phi_interval_image(FareyInterval(xr(1, 2), ONE)) == [FareyInterval(ZERO, ONE)]
        assert phi_interval_image(FareyInterval(ONE, INF)) == [FareyInterval(ZERO, ONE)]
        assert phi_interval_image(FareyInterval(ZERO, ONE)) == [FULL_LINE]

    def test_straddling_interval_splits(self):
        pieces = phi_interval_image(FareyInterval(xr(1, 2), xr(2)))
        assert pieces == [FareyInterval(ZERO, ONE), FareyInterval(ZERO, xr(1, 2))]

    def test_forward_invariance_of_point_enclosures(self):
        # phi of an n-symbol enclosure is exactly the (n-1)-symbol enclosure
        # of the shifted stream
        rng = random.Random(5)
        for trial in range(100):
            bits = "".join(rng.choice("01") for _ in range(10))
            s = CodeStream.procedural(
                (lambda b: lambda n: int(b[n % 10]) if n % 2 == 0 else 0)(bits),
                label="t%d" % trial)
            e0 = point_of_code(s, 12, Fraction(1, 10 ** 40)).interval
            e1 = point_of_code(s.shifted(1), 11, Fraction(1, 10 ** 40)).interval
            pieces = phi_interval_image(e0)
            lo = min(p.lo for p in pieces)
            hi = max(p.hi for p in pieces)
            assert FareyInterval(lo, hi) == e1


class TestCodeOfRational:
    def test_orbit_members(self):
        assert code_of_rational(ZERO).per == "010"
        assert code_of_rational(INF).prefix(6) == "100100"
        assert code_of_rational(ONE).prefix(7) == "0010010"
        assert code_of_rational(ONE, tie_high=True).prefix(7) == "1010010"

    def test_matches_itinerary(self):
        for num, den in [(3, 5), (7, 3), (22, 7), (1, 9)]:
            x = xr(num, den)
            s = code_of_rational(x)
            assert s.prefix(20) == itinerary(x, 20)
            assert s.check_admissible()
