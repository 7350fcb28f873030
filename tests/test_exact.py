import math
import random
import time
from fractions import Fraction

import pytest

from fareyshift.exact import (
    GOLDEN_FIXED_POINT,
    INF,
    INFINITE_DISTANCE,
    ONE,
    ZERO,
    ExtendedRational,
    NoFixedPointError,
    QuadraticSurd,
    _comb_sign,
    escape_time,
    mobius_apply,
    mobius_fixed_point,
    phi_rat,
    phi_surd,
)
from fareyshift.coding import (
    _mul,
    _steps,
    _word_matrix,
    admissible_words,
    cylinder,
    is_admissible,
    periodic_point,
)
from fareyshift.conjugacy import farey_level
from fareyshift.entropy import dense_periodic_witness


def xr(n, d=1):
    return ExtendedRational(n, d)


def _trial_division_form(p, q, r, d):
    """Reference canonical form with d made squarefree by trial division up to sqrt(d)."""
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
    q, d = q * s, d0 * d
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    return p // g, q // g, r // g, d


IDENT = (1, 0, 0, 1)
PSI0 = (0, 1, 1, 1)       # y -> 1/(1+y), the branch matrix of symbol 0
PSI1 = (0, 1, -1, 1)      # y -> 1/(1-y), the branch matrix of symbol 1
TRANSLATE = (1, 1, 0, 1)  # y -> y + 1


class TestExtendedRational:
    def test_canonicalisation(self):
        assert xr(6, 4) == xr(3, 2)
        assert xr(0, 7) == ZERO
        assert xr(5, 0) == INF  # 5/0 reduces to the canonical 1/0

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            ExtendedRational(0, 0)
        with pytest.raises(ValueError):
            ExtendedRational(-1, 2)

    def test_total_order_with_infinity(self):
        pts = [INF, ZERO, xr(1, 2), xr(7, 3), ONE]
        assert sorted(pts) == [ZERO, xr(1, 2), ONE, xr(7, 3), INF]
        assert INF <= INF and not (INF < INF)


def test_infinite_distance_compares_exactly():
    # float(huge) would overflow; the comparison must not convert it
    huge = Fraction(10 ** 400, 3)
    with pytest.raises(OverflowError):
        float(huge)
    assert huge < INFINITE_DISTANCE and INFINITE_DISTANCE > huge
    assert huge <= INFINITE_DISTANCE and not huge >= INFINITE_DISTANCE
    assert huge != INFINITE_DISTANCE and INFINITE_DISTANCE == INFINITE_DISTANCE
    assert max(huge, INFINITE_DISTANCE) == INFINITE_DISTANCE
    assert min(huge, INFINITE_DISTANCE) == huge


class TestRationalFloat:
    TOP = (2 ** 53 - 1) << 971  # the largest finite double

    def test_quotient_past_the_float_range_is_inf(self):
        assert float(xr(10 ** 400 - 1)) == math.inf
        assert float(xr(10 ** 400, 3)) == math.inf
        assert float(xr(self.TOP + (1 << 970))) == math.inf  # rounds up past the range
        assert float(INF) == math.inf

    def test_floats_in_range_are_the_int_quotient(self):
        # the quotient num / den rounds once; only an overflow becomes inf
        top = self.TOP
        cases = [xr(1, 10 ** 400), xr(top), xr(2 * top + 1, 2), xr(top + (1 << 970) - 1),
                 xr(7, 3), ZERO, ONE]
        for x in cases:
            assert float(x).hex() == (x.num / x.den).hex(), x


class TestPhiRational:
    def test_special_points(self):
        assert phi_rat(ZERO) == INF
        assert phi_rat(INF) == ONE
        assert phi_rat(ONE) == ZERO

    def test_direct_evaluation(self):
        assert phi_rat(xr(2, 3)) == xr(1, 2)
        assert phi_rat(xr(5, 2)) == xr(3, 5)

    def test_matches_float_evaluation(self):
        # combined tolerance: pure doubles cannot do better near 1 (the
        # cancellation) or near 10^6 (the ulp size)
        rng = random.Random(7)
        for _ in range(500):
            num = rng.randrange(1, 10 ** 6)
            den = rng.randrange(1, 10 ** 6)
            x = xr(num, den)
            expect = abs(1.0 - den / num)
            assert math.isclose(float(phi_rat(x)), expect,
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_result_always_canonical(self):
        rng = random.Random(11)
        for _ in range(200):
            x = xr(rng.randrange(0, 50), rng.randrange(1, 50))
            y = phi_rat(x)
            assert math.gcd(y.num, y.den) == 1

    def test_matches_gcd_reducing_reference(self):
        # phi_rat builds |p - q|/p without a gcd; the reference reduces
        def reference(x):
            if x.den == 0:
                return (1, 1)
            if x.num == 0:
                return (1, 0)
            f = Fraction(abs(x.num - x.den), x.num)
            return (f.numerator, f.denominator)

        rng = random.Random(13)
        points = [ZERO, ONE, INF] + [xr(rng.randrange(0, 10 ** 6), rng.randrange(1, 10 ** 6))
                                     for _ in range(2000)]
        for x in points:
            y = phi_rat(x)
            assert (y.num, y.den) == reference(x), x


class TestCanonicalMediants:
    def test_farey_levels_are_reduced_and_unimodular(self):
        # farey_level builds its mediants without a gcd
        for n in range(15):
            entries = farey_level(n).entries
            for x in entries:
                assert math.gcd(x.num, x.den) == 1
                assert x == ExtendedRational(x.num, x.den)
            for left, right in zip(entries, entries[1:]):
                assert right.num * left.den - left.num * right.den == 1


class TestEscapeTime:
    def test_examples(self):
        assert escape_time(ZERO) == 0
        assert escape_time(ONE) == 1
        # exact orbit 3/5 -> 2/3 -> 1/2 -> 1 -> 0
        assert escape_time(xr(3, 5)) == 4

    def test_definition_holds(self):
        for num, den in [(7, 3), (13, 8), (1, 17), (22, 7)]:
            x = xr(num, den)
            e = escape_time(x)
            y = x
            for step in range(e):
                assert y != ZERO
                y = phi_rat(y)
            assert y == ZERO

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            escape_time(INF)


class TestQuadraticSurd:
    def test_canonical_form(self):
        # square factor of the radicand moves into q
        assert QuadraticSurd(0, 1, 1, 8) == QuadraticSurd(0, 2, 1, 2)
        # common factor removed, sign of r fixed
        assert QuadraticSurd(-2, 2, 4, 5) == QuadraticSurd(-1, 1, 2, 5)

    @pytest.mark.parametrize("pqrd", [
        (1, 3, 2, 4),  # square radicand: 7/2
        (1, 0, 2, 5),  # q = 0: 1/2
        (3, 2, 1, 0),  # zero radicand: 3
        (0, 1, 1, 1),  # square radicand: 1
        (0, 0, 1, 0),  # zero, which phi would send to infinity
        (0, 1, 1, 1031 ** 2),  # square of a prime above the strip bound: 1031
    ])
    def test_rejects_rational_values(self, pqrd):
        # a rational is only ever an ExtendedRational
        with pytest.raises(ValueError):
            QuadraticSurd(*pqrd)

    def test_equality_and_hash_match_trial_division(self):
        rng = random.Random(17)
        surds = []
        while len(surds) < 300:
            k, m, t = rng.randint(1, 12), rng.randint(2, 60), rng.choice([-3, -2, -1, 1, 2, 3])
            p, q, r = rng.randint(-6, 9), rng.randint(-4, 4), rng.randint(1, 6)
            # one value in two forms, the second with a square factor in d < 10^4
            for pqrd in ((p, q * k, r, m), (t * p, t * q, t * r, k * k * m)):
                try:
                    x = QuadraticSurd(*pqrd)
                except ValueError:
                    continue
                form = _trial_division_form(*pqrd)
                assert (x.p, x.q, x.r, x.d) == form  # small radicands keep the old form
                surds.append((x, form))
        for x, fx in surds:
            for y, fy in surds:
                assert (x == y) == (fx == fy)
                assert fx != fy or hash(x) == hash(y)

    def test_square_factor_above_strip_bound(self):
        big, small = QuadraticSurd(0, 1, 1, 2 * 1031 ** 2), QuadraticSurd(0, 1031, 1, 2)
        assert QuadraticSurd(0, 1, 1, 2 * 1021 ** 2).d == 2  # 1021 is below the bound
        assert big.d != small.d  # 1031 is not, so 1031**2 stays in the radicand
        assert big == small and hash(big) == hash(small)
        assert big <= small and big >= small and not big < small and not big > small
        assert QuadraticSurd(3000, -1, 1, 2 * 1031 ** 2) == QuadraticSurd(3000, -1031, 1, 2)
        assert QuadraticSurd(1, 1, 1, 2 * 1031 ** 2) > small > QuadraticSurd(-1, 1, 1, 2 * 1031 ** 2)
        assert small < QuadraticSurd(1, 1, 1, 2 * 1031 ** 2)
        with pytest.raises(TypeError):
            QuadraticSurd(0, 1, 1, 2) < QuadraticSurd(0, 1, 1, 3)  # 6 is not a square

    @pytest.mark.parametrize("build, printed", [
        (lambda: periodic_point("", "01010010000010100101001010101001010000010000010101000000"),
         "(-9113203+1*sqrt(257922475801229))/15407266"),
        (lambda: dense_periodic_witness("01001010101000101010010101000000001001000100"),
         "(-559185+1*sqrt(547261132445))/828430"),
    ], ids=["period-56", "witness-44"])
    def test_deep_periodic_points_in_time(self, build, printed):
        # period 56 and a witness 44 symbols deep: factoring the discriminant
        # by trial division took seconds on each
        start = time.perf_counter()
        x = build()
        assert time.perf_counter() - start < 1.0
        assert str(x) == printed

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            QuadraticSurd(-3, 1, 1, 5)  # -3 + sqrt(5) < 0

    def test_comparisons_certified(self):
        z = GOLDEN_FIXED_POINT
        assert z < 1 and z > Fraction(1, 2) and z < INF
        assert QuadraticSurd(3, 1, 2, 5) > 1
        assert z < QuadraticSurd(3, 1, 2, 5)
        assert z == QuadraticSurd(-1, 1, 2, 5)
        assert z != xr(1, 2) and z != 1 and z != Fraction(1, 2) and z != INF

    def test_float_value(self):
        assert math.isclose(float(GOLDEN_FIXED_POINT), (math.sqrt(5) - 1) / 2)

    def test_float_in_range_is_the_plain_formula(self):
        # printed floats read (p + q*sqrt(d))/r in float arithmetic, byte for byte
        for w in admissible_words(10):
            x = dense_periodic_witness(w)
            assert float(x).hex() == ((x.p + x.q * math.sqrt(x.d)) / x.r).hex(), w

    @pytest.mark.parametrize("build, want", [
        (lambda: QuadraticSurd(0, 1, 1, 10 ** 400 + 1), 1e200),  # d past the float range
        (lambda: QuadraticSurd(0, 10 ** 200, 10 ** 300, 3 * 10 ** 300),
         1e50 * math.sqrt(3)),  # float q*sqrt(d) is inf
        (lambda: dense_periodic_witness("0" * 800), (math.sqrt(5) - 1) / 2),  # p, q, r, d past it
    ], ids=["radicand", "radical-part", "witness-803"])
    def test_float_past_the_float_range(self, build, want):
        assert math.isclose(float(build()), want, rel_tol=1e-15)


class TestPhiSurd:
    def test_golden_fixed_point(self):
        assert phi_surd(GOLDEN_FIXED_POINT) == GOLDEN_FIXED_POINT

    def test_preimage_of_fixed_point(self):
        x = QuadraticSurd(3, 1, 2, 5)  # (3 + sqrt(5))/2, in (1, infinity)
        assert phi_surd(x) == GOLDEN_FIXED_POINT

    def test_sqrt_two(self):
        # 1 - 1/sqrt(2) = (2 - sqrt(2))/2
        assert phi_surd(QuadraticSurd(0, 1, 1, 2)) == QuadraticSurd(2, -1, 2, 2)

    def test_rejects_zero(self):
        # zero, which phi sends to infinity, is refused before phi_surd
        # sees it: a surd is irrational by construction
        with pytest.raises(ValueError):
            phi_surd(QuadraticSurd(0, 0, 1, 0))

    def test_radicand_preserved(self):
        x = QuadraticSurd(0, 1, 1, 7)
        for _ in range(12):
            x = phi_surd(x)
            assert x.d == 7

    def test_matches_the_hand_written_formula(self):
        # the formula phi_surd had before it became the branch Mobius map
        def reference(x):
            p, q, r, d = x.p, x.q, x.r, x.d
            n = p * p - q * q * d  # nonzero: x is irrational
            # 1 - 1/x = (n - r*p + r*q*sqrt(d)) / n, then take the absolute value
            pp, qq, rr = n - r * p, r * q, n
            if _comb_sign(pp, qq, d) * ((rr > 0) - (rr < 0)) < 0:
                pp, qq = -pp, -qq
            return QuadraticSurd(pp, qq, rr, d)

        surds = []
        for n in range(1, 13):
            for w in admissible_words(n):
                if "11" not in w[-1] + w[0]:
                    x = periodic_point("", w)
                    if isinstance(x, QuadraticSurd):
                        surds.append(x)
        rng = random.Random(41)
        while len(surds) < 2200:
            d = rng.choice((2, 5, 10 ** 18 + 3, rng.randrange(2, 10 ** 18 + 4)))
            p, q = rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-10 ** 6, 10 ** 6)
            if q and math.isqrt(d) ** 2 != d and _comb_sign(p, q, d) > 0:
                surds.append(QuadraticSurd(p, q, rng.randrange(1, 10 ** 6), d))
        for x in surds:
            assert repr(phi_surd(x)) == repr(reference(x)), x


class TestMobiusMap:
    def test_apply_examples(self):
        assert mobius_apply(IDENT, xr(2, 3)) == xr(2, 3)
        assert mobius_apply(PSI0, INF) == ZERO
        assert mobius_apply(PSI1, xr(1, 2)) == xr(2, 1)

    def test_apply_surd(self):
        z = GOLDEN_FIXED_POINT
        assert mobius_apply(PSI1, z) == QuadraticSurd(3, 1, 2, 5)
        assert mobius_apply(PSI0, z) == z  # z is the fixed point of psi0 too

    def test_surd_image_matches_the_constructor(self):
        # mobius_apply builds a surd's image on x's radicand, already stripped;
        # the constructor, which strips it again, is the reference
        def reference(m, x):
            a, b, c, d = m
            p, q, r, rad = x.p, x.q, x.r, x.d
            na, nb = a * p + b * r, a * q
            dc, dd = c * p + d * r, c * q
            denom = dc * dc - dd * dd * rad
            if denom == 0:
                raise ZeroDivisionError("pole of the map")
            return QuadraticSurd(na * dc - nb * dd * rad, nb * dc - na * dd, denom, rad)

        def outcome(apply, m, x):
            try:
                y = apply(m, x)
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc), str(exc)
            return type(y), (y.p, y.q, y.r, y.d)

        rng = random.Random(43)
        seen = set()
        for _ in range(3000):
            d = rng.choice((2, 5, 12, 18 * 49, 10 ** 18 + 3, rng.randrange(2, 10 ** 12)))
            p, q = rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(-10 ** 4, 10 ** 4)
            if not q or math.isqrt(d) ** 2 == d or _comb_sign(p, q, d) < 0:
                continue
            x = QuadraticSurd(p, q, rng.randrange(1, 10 ** 4), d)
            if rng.random() < 0.7:
                m = _word_matrix("".join(rng.choice("01") for _ in range(rng.randrange(25))))
            else:  # any integer matrix: singular ones, poles and negative images too
                m = tuple(rng.randrange(-3, 4) for _ in range(4))
            want = outcome(reference, m, x)
            assert outcome(mobius_apply, m, x) == want, (m, x)
            seen.add(want[0] if want[0] is not QuadraticSurd else "surd")
        assert seen == {"surd", ValueError, ZeroDivisionError}

    def test_compose_against_pointwise(self):
        rng = random.Random(3)
        gens = [TRANSLATE, (1, 0, 1, 1), PSI0, PSI1]
        for _ in range(1000):
            m1 = rng.choice(gens)
            m2 = rng.choice(gens)
            for _ in range(rng.randrange(3)):
                m1 = _mul(m1, rng.choice(gens))
            x = xr(rng.randrange(0, 30), rng.randrange(1, 30))
            try:
                lhs = mobius_apply(_mul(m1, m2), x)
                rhs = mobius_apply(m1, mobius_apply(m2, x))
            except ValueError:
                continue  # image left [0, infinity]; not part of the contract
            assert lhs == rhs

    def test_steps_is_right_multiplication(self):
        rng = random.Random(5)
        for _ in range(500):
            m = IDENT
            for _ in range(rng.randrange(12)):
                m = _mul(m, rng.choice((TRANSLATE, PSI0, PSI1)))
            assert _steps(m, b"\x00") == _mul(m, PSI0)
            assert _steps(m, b"\x01") == _mul(m, PSI1)
            syms = bytes(rng.randrange(2) for _ in range(rng.randrange(12)))
            want = m
            for sym in syms:
                want = _mul(want, PSI1 if sym else PSI0)
            assert _steps(m, syms) == want

    def test_word_matrix_is_the_branch_product(self):
        rng = random.Random(6)
        for _ in range(500):
            word = "".join(rng.choice("01") for _ in range(rng.randrange(30)))
            want = IDENT
            for ch in word:
                want = _mul(want, PSI1 if ch == "1" else PSI0)
            assert _word_matrix(word) == want, word


def _fixed_point_by_filter(m, within):
    """Reference solver: every root of c*x^2 + (d-a)*x - b = 0 on [0, infinity], kept if within."""
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
    else:
        disc = (d - a) ** 2 + 4 * b * c
        if disc >= 0:
            s = math.isqrt(disc)
            if s * s == disc:
                for root in {Fraction((a - d) + s, 2 * c), Fraction((a - d) - s, 2 * c)}:
                    if root >= 0:
                        out.append(ExtendedRational(root.numerator, root.denominator))
            else:
                for qsign in (1, -1):
                    try:
                        out.append(QuadraticSurd(a - d, qsign, 2 * c, disc))
                    except ValueError:
                        pass  # negative root, outside [0, infinity)
    (x,) = [x for x in out if within.contains(x)]  # exactly one root inside
    return x


class TestMobiusFixedPoint:
    def test_psi0_gives_golden_point(self):
        assert mobius_fixed_point(PSI0) == GOLDEN_FIXED_POINT

    def test_translation_fixes_infinity(self):
        assert mobius_fixed_point(TRANSLATE) == INF

    def test_cylinder_disambiguation(self):
        # the 3-cycle code 100: c = 0 and a = d, so the fixed point is infinity
        m = _word_matrix("100")
        assert m[2] == 0 and m[0] == m[3]
        assert mobius_fixed_point(m) == INF

    def test_two_roots_need_a_filter(self):
        m = _mul(PSI0, PSI1)  # x_(01bar) and x_(10bar) both fixed
        repelling = QuadraticSurd(3, 1, 2, 5)  # x_(10bar), in cylinder("10")
        assert m == _word_matrix("01") and cylinder("10").contains(repelling)
        assert mobius_apply(m, repelling) == repelling
        assert mobius_fixed_point(m) == QuadraticSurd(3, -1, 2, 5)

    def test_no_fixed_point_reported(self):
        with pytest.raises(NoFixedPointError):
            mobius_fixed_point((1, -1, 1, 0))  # x -> 1 - 1/x: disc = -3, no real root
        # x -> 1/x - 3 and x -> (1 - 3x)/(2x - 2): attracting roots (-3 - sqrt(13))/2
        # and -1 are negative, repelling roots (-3 + sqrt(13))/2 and 1/2 are not
        for m in ((-3, 1, 1, 0), (-3, 1, 2, -2)):
            with pytest.raises(NoFixedPointError):
                mobius_fixed_point(m)
        with pytest.raises(NoFixedPointError):
            mobius_fixed_point((0, 1, 1, 0))  # x -> 1/x: trace 0, roots 1 and -1 both neutral

    def test_matches_filtered_solver_on_every_period(self):
        checked = 0
        for n in range(1, 15):
            for w in admissible_words(n):
                if not is_admissible(w + w):
                    continue
                got = mobius_fixed_point(_word_matrix(w))
                want = _fixed_point_by_filter(_word_matrix(w), cylinder(w))
                assert (type(got), str(got)) == (type(want), str(want)), w
                checked += 1
        assert checked == 2204

    def test_matches_filtered_solver_after_a_preperiod(self):
        rng = random.Random(30)
        checked = 0
        while checked < 300:
            pre = rng.choice(admissible_words(rng.randrange(0, 13)))
            per = rng.choice(admissible_words(rng.randrange(1, 11)))
            if not is_admissible(pre + per + per):
                continue
            fixed = _fixed_point_by_filter(_word_matrix(per), cylinder(per))
            want = mobius_apply(_word_matrix(pre), fixed)
            got = periodic_point(pre, per)
            assert (type(got), str(got)) == (type(want), str(want)), (pre, per)
            checked += 1

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            mobius_fixed_point(IDENT)
