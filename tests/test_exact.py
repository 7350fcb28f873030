import math
import random
from fractions import Fraction

import pytest

from fareyshift.exact import (
    GOLDEN_FIXED_POINT,
    INF,
    INFINITE_DISTANCE,
    ONE,
    ZERO,
    AmbiguousFixedPointError,
    ExtendedRational,
    NoFixedPointError,
    QuadraticSurd,
    escape_time,
    mobius_apply,
    mobius_fixed_point,
    phi_rat,
    phi_surd,
)
from fareyshift.coding import _advance, _mul, cylinder


def xr(n, d=1):
    return ExtendedRational(n, d)


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

    def test_mediant(self):
        assert xr(1, 2).mediant(ONE) == xr(2, 3)
        assert ZERO.mediant(INF) == ONE


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
                assert not y.is_zero
                y = phi_rat(y)
            assert y.is_zero

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
    ])
    def test_rejects_rational_values(self, pqrd):
        # a rational is only ever an ExtendedRational
        with pytest.raises(ValueError):
            QuadraticSurd(*pqrd)

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


class TestMobiusMap:
    def test_apply_examples(self):
        assert mobius_apply(IDENT, xr(2, 3)) == xr(2, 3)
        assert mobius_apply(PSI0, INF) == ZERO
        assert mobius_apply(PSI1, xr(1, 2)) == xr(2, 1)

    def test_apply_surd(self):
        z = GOLDEN_FIXED_POINT
        assert mobius_apply(PSI1, z) == QuadraticSurd(3, 1, 2, 5)
        assert mobius_apply(PSI0, z) == z  # z is the fixed point of psi0 too

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

    def test_advance_is_right_multiplication(self):
        rng = random.Random(5)
        for _ in range(500):
            m = IDENT
            for _ in range(rng.randrange(12)):
                m = _mul(m, rng.choice((TRANSLATE, PSI0, PSI1)))
            assert _advance(m, 0) == _mul(m, PSI0)
            assert _advance(m, 1) == _mul(m, PSI1)


class TestMobiusFixedPoint:
    def test_psi0_gives_golden_point(self):
        assert mobius_fixed_point(PSI0) == GOLDEN_FIXED_POINT

    def test_translation_fixes_infinity(self):
        assert mobius_fixed_point(TRANSLATE) == INF

    def test_cylinder_disambiguation(self):
        m = _mul(_mul(PSI1, PSI0), PSI0)
        assert mobius_fixed_point(m, within=cylinder("100")) == INF

    def test_two_roots_need_a_filter(self):
        m = _mul(PSI0, PSI1)  # x_(01bar) and x_(10bar) both fixed
        with pytest.raises(AmbiguousFixedPointError):
            mobius_fixed_point(m)
        assert mobius_fixed_point(m, within=cylinder("01")) == QuadraticSurd(3, -1, 2, 5)

    def test_no_fixed_point_reported(self):
        with pytest.raises(NoFixedPointError):
            # x -> x + 1 has no fixed point inside [0, 1]
            mobius_fixed_point(TRANSLATE, within=cylinder("0"))

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            mobius_fixed_point(IDENT)
