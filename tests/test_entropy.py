import math
import random
from fractions import Fraction

import pytest

from fareyshift.exact import QuadraticSurd, phi_surd
from fareyshift.coding import (
    FULL_LINE,
    CodeStream,
    admissible_words,
    cylinder,
    phi_interval_image,
)
from fareyshift.conjugacy import f_map
from fareyshift.entropy import (
    EntropyEstimate,
    count_admissible_words,
    dense_periodic_witness,
    entropy_lap,
    entropy_polynomial_root,
    entropy_word_growth,
    lap_count,
    mixing_certificate,
    transition_spectral_radius,
    transitivity_check,
    verify_cubic_factorization,
)
from fareyshift.scrambled import alpha_transitive

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def brute_count(n):
    return sum(1 for v in range(2 ** n) if "11" not in format(v, "0%db" % n))


class TestWordCounts:
    def test_small_values(self):
        assert count_admissible_words(1) == 2
        assert count_admissible_words(3) == 5
        assert count_admissible_words(10) == 144

    def test_against_brute_force(self):
        for n in range(1, 17):
            assert count_admissible_words(n) == brute_count(n)

    def test_fibonacci_recurrence(self):
        for n in range(3, 61):
            assert count_admissible_words(n) == \
                count_admissible_words(n - 1) + count_admissible_words(n - 2)


class TestWordGrowth:
    def test_first_ratios(self):
        assert entropy_word_growth(2).value == pytest.approx(math.log(Fraction(3, 2)))
        assert entropy_word_growth(3).value == pytest.approx(math.log(Fraction(5, 3)))

    def test_converges(self):
        assert abs(entropy_word_growth(40).value - LOG_GOLDEN) < 1e-8


class TestPolynomialRoot:
    def test_bracket_is_valid(self):
        p = lambda x: x ** 3 - 2 * x - 1
        assert p(1) < 0 < p(2)

    def test_root_is_golden_ratio(self):
        est = entropy_polynomial_root(1e-12)
        assert abs(est.rate - (1 + math.sqrt(5)) / 2) < 2e-12
        assert abs(est.value - LOG_GOLDEN) < 2e-12

    def test_factorization_exact(self):
        assert verify_cubic_factorization()

    @pytest.mark.parametrize("tol", [2, 1, 0.5, 1e-3, 3e-7, 1e-12, 1e-30, 1e308])
    def test_matches_fraction_bisection(self, tol):
        # the bisection on Fractions that the dyadic integer form replaced
        lo, hi, steps = Fraction(1), Fraction(2), 0
        while hi - lo >= Fraction(tol):
            mid = (lo + hi) / 2
            if mid ** 3 - 2 * mid - 1 < 0:
                lo = mid
            else:
                hi = mid
            steps += 1
        root = (lo + hi) / 2
        expect = EntropyEstimate("polynomial-root", math.log(float(root)), float(root),
                                 steps, float(hi - lo))
        assert entropy_polynomial_root(tol) == expect

    @pytest.mark.parametrize("tol", [0, -1.0, -math.inf, math.inf, math.nan])
    def test_rejects_tol_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            entropy_polynomial_root(tol)


def spectral_radius_by_fractions(iterations):
    """transition_spectral_radius as it was: a Fraction at every step."""
    v = (1, 1)
    prev_ratio = None
    ratio = None
    for _ in range(iterations):
        nxt = (v[0] + v[1], v[0])
        prev_ratio, ratio = ratio, Fraction(nxt[0] + nxt[1], v[0] + v[1])
        v = nxt
    bound = abs(float(ratio - prev_ratio)) if prev_ratio is not None else None
    return EntropyEstimate("spectral", math.log(float(ratio)), float(ratio),
                           iterations, bound)


class TestSpectral:
    def test_matches_the_fraction_per_step_reference(self):
        for iterations in range(1, 201):
            assert transition_spectral_radius(iterations) == \
                spectral_radius_by_fractions(iterations), iterations

    def test_first_iteration_ratio(self):
        est = transition_spectral_radius(1)
        assert est.rate == 1.5

    def test_converges(self):
        est = transition_spectral_radius(50)
        assert abs(est.rate - (1 + math.sqrt(5)) / 2) < 1e-9

    def test_agrees_with_polynomial_root(self):
        spectral = transition_spectral_radius(60)
        root = entropy_polynomial_root(1e-12)
        assert abs(spectral.value - root.value) < 1e-8


class TestEntropyTransport:
    def test_lap_route_agrees_with_symbolic_routes(self):
        # the lap counts live on the piecewise-linear side of the conjugacy,
        # word growth on the symbolic side; their limits must coincide
        lap = entropy_lap(20)
        growth = entropy_word_growth(40)
        assert abs(lap.value - growth.value) < 2e-2
        assert abs(entropy_lap(24).value - growth.value) < \
            abs(lap.value - growth.value)


def laps_by_grid(n, grid=4096):
    """Independent oracle: count direction changes of f^n on a fine grid."""
    vals = []
    for j in range(grid + 1):
        x = Fraction(j, grid)
        for _ in range(n):
            x = f_map(x)
        vals.append(x)
    dirs = [1 if b > a else -1 for a, b in zip(vals, vals[1:])]
    return 1 + sum(1 for d1, d2 in zip(dirs, dirs[1:]) if d1 != d2)


def _f_preimages(y: Fraction) -> list[Fraction]:
    out = [(1 - y) / 2]
    if y <= Fraction(1, 2):
        out.append(y + Fraction(1, 2))
    return out


_MAX_LAP_DEPTH = 32


def _lap_count_reference(n: int) -> int:
    """The Fraction pull-back that lap_count replaced, kept as an oracle."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > _MAX_LAP_DEPTH:
        raise ValueError("depth %d above the guard %d" % (n, _MAX_LAP_DEPTH))
    level = {Fraction(1, 2)}
    breaks = set(level)
    for _ in range(n - 1):
        level = {x for y in level for x in _f_preimages(y)}
        breaks |= level
    interior = [x for x in breaks if 0 < x < 1]
    return 1 + len(interior)


class TestLapCountMatchesReference:
    def test_counts_agree(self):
        for n in range(1, 23):
            assert lap_count(n) == _lap_count_reference(n)

    @pytest.mark.parametrize("n, message", [
        (0, "n must be positive"),
        (33, "depth 33 above the guard 32"),
        (40, "depth 40 above the guard 32"),
    ])
    def test_guard_messages_agree(self, n, message):
        with pytest.raises(ValueError) as ref:
            _lap_count_reference(n)
        with pytest.raises(ValueError) as got:
            lap_count(n)
        assert str(got.value) == str(ref.value) == message


class TestLapCounts:
    def test_small_values(self):
        assert lap_count(1) == 2
        assert lap_count(2) == 3

    def test_against_grid_oracle(self):
        for n in range(1, 7):
            assert lap_count(n) == laps_by_grid(n)

    def test_matches_word_counts(self):
        # the model realises exactly one monotone piece per admissible word
        for n in range(1, 15):
            assert lap_count(n) == count_admissible_words(n)

    def test_estimator_tolerance_and_monotone_improvement(self):
        values = [entropy_lap(n).value for n in range(2, 21)]
        assert abs(values[-1] - LOG_GOLDEN) < 2e-2
        for a, b in zip(values, values[1:]):
            assert b < a  # strictly decreasing toward the limit

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            lap_count(40)


class TestMixing:
    def test_examples(self):
        assert mixing_certificate("0").n_cover == 1
        assert mixing_certificate("00").n_cover == 2
        cert = mixing_certificate("1000")
        assert cert.n_cover <= 6
        assert cert.steps[-1] == [FULL_LINE]

    def test_random_words_cover_within_bound(self):
        rng = random.Random(37)
        seen = set()
        while len(seen) < 200:
            n = rng.randrange(1, 11)
            seen.add(rng.choice(admissible_words(n)))
        for w in sorted(seen):
            cert = mixing_certificate(w)
            assert cert.n_cover <= len(w) + 2

    def test_steps_are_image_consistent(self):
        for w in ("0", "1", "1000", "010010", "10100100"):
            cert = mixing_certificate(w)
            assert cert.steps[0] == [cylinder(w)]
            for cur, nxt in zip(cert.steps, cert.steps[1:]):
                pieces = []
                for iv in cur:
                    pieces.extend(phi_interval_image(iv))
                # re-merge independently of the library order
                pieces.sort(key=lambda iv: (iv.lo, iv.hi))
                merged = [pieces[0]]
                for iv in pieces[1:]:
                    if iv.lo <= merged[-1].hi:
                        if iv.hi > merged[-1].hi:
                            merged[-1] = type(iv)(merged[-1].lo, iv.hi)
                    else:
                        merged.append(iv)
                assert merged == nxt

    def test_every_step_is_the_cylinder_of_a_suffix(self):
        # phi maps cylinder(w) onto cylinder(w[1:]); a word ending in 1
        # reaches [1, infinity], then [0, 1], then the full line
        for n in range(1, 11):
            for w in admissible_words(n):
                want = [[cylinder(w[i:])] for i in range(len(w))]
                if w.endswith("1"):
                    want.append([cylinder("0")])
                want.append([FULL_LINE])
                cert = mixing_certificate(w)
                assert cert.steps == want, w
                assert cert.n_cover == len(want) - 1


class TestDensePeriodicWitness:
    def test_examples(self):
        w = dense_periodic_witness("00")
        assert cylinder("00").contains(w)
        y = w
        for _ in range(5):
            y = phi_surd(y)
        assert y == w

        assert dense_periodic_witness("0") == QuadraticSurd(-1, 1, 2, 5)

        w = dense_periodic_witness("0100")
        assert cylinder("0100").contains(w)
        y = w
        for _ in range(7):
            y = phi_surd(y)
        assert y == w

    def test_always_irrational_with_exact_period(self):
        for n in range(1, 7):
            for w in admissible_words(n):
                x = dense_periodic_witness(w)
                assert isinstance(x, QuadraticSurd) and x.q != 0 and x.d > 1
                assert cylinder(w).contains(x)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dense_periodic_witness("11")
        with pytest.raises(ValueError):
            dense_periodic_witness("")


class TestTransitivity:
    def test_constant_stream_fails(self):
        rep = transitivity_check(CodeStream.periodic("", "0"), 1, 1, 1000)
        assert not rep.passed
        assert rep.missing == ["1"]
        assert rep.found["0"] == 0

    def test_alpha_finds_all_short_words(self):
        rep = transitivity_check(alpha_transitive(), 3, 1, 10 ** 6)
        assert rep.passed
        assert len(rep.found) == 5

    def test_stride_report_shape(self):
        rep = transitivity_check(alpha_transitive(), 4, 3, 10 ** 6)
        assert set(rep.found) == set(admissible_words(4))
        for w, idx in rep.found.items():
            if idx is not None:
                assert idx % 3 == 0

    def test_guards(self):
        with pytest.raises(ValueError):
            transitivity_check(CodeStream.periodic("", "0"), 9, 1, 100)
        with pytest.raises(ValueError):
            transitivity_check(CodeStream.periodic("", "0"), 2, 4, 100)
