"""Topological entropy estimators and exact mixing certificates.

The subshift behind the dynamics is the golden-mean shift (no "11"),
so every route below converges on log((1+sqrt(5))/2): admissible word
growth, the positive root of x^3 - 2x - 1 (which factors through the
golden quadratic), the transition-matrix spectral radius, and the lap
counts of the conjugate piecewise-linear model.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import namedtuple

from .coding import (
    FULL_LINE,
    CodeStream,
    admissible_words,
    cylinder,
    is_admissible,
    periodic_point,
    phi_interval_image,
)
from .exact import QuadraticSurd, phi_surd


class EntropyEstimate(namedtuple("EntropyEstimate", [
        "method", "value",  # value: the estimated log growth rate
        "rate",             # the growth constant itself
        "depth", "error_bound"], defaults=(None,))):
    __slots__ = ()


def count_admissible_words(n: int) -> int:
    """Number of length-n words with no "11" factor (two-state recurrence)."""
    if n < 1:
        raise ValueError("n must be positive")
    a, b = 2, 3  # counts for lengths 1 and 2
    if n == 1:
        return a
    for _ in range(n - 2):
        a, b = b, a + b
    return b


def entropy_word_growth(n: int) -> EntropyEstimate:
    """log of the ratio of consecutive admissible-word counts."""
    if n < 2:
        raise ValueError("need n >= 2")
    cur, prev = count_admissible_words(n), count_admissible_words(n - 1)
    value = math.log(cur) - math.log(prev)
    bound = None
    if n >= 3:
        older = count_admissible_words(n - 2)
        bound = abs(value - (math.log(prev) - math.log(older)))
    return EntropyEstimate("word-growth", value, cur / prev, n, bound)


def entropy_polynomial_root(tol: float) -> EntropyEstimate:
    """Bisection for the positive zero of x^3 - 2x - 1 on [1, 2], on integers:
    after k steps the bracket is [lo, lo + 1]/2^k, and the cubic at mid/2^k
    has the sign of mid^3 - 2*mid*4^k - 8^k."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not tol < math.inf:  # inf or nan
        raise ValueError("tol must be finite")
    goal = Fraction(tol)
    lo, k = 1, 0
    while goal.denominator >= goal.numerator << k:  # width 1/2^k >= tol
        mid, k = 2 * lo + 1, k + 1
        lo = mid if mid ** 3 < (mid << (2 * k + 1)) + (1 << (3 * k)) else 2 * lo
    rate = (2 * lo + 1) / (1 << (k + 1))  # int / int rounds correctly, like float(Fraction)
    return EntropyEstimate("polynomial-root", math.log(rate), rate, k, 1 / (1 << k))


def verify_cubic_factorization() -> bool:
    """Exact expansion check: x^3 - 2x - 1 = (x + 1)(x^2 - x - 1)."""
    left = [1, 1]          # x + 1, ascending coefficients
    right = [-1, -1, 1]    # x^2 - x - 1
    prod = [0] * (len(left) + len(right) - 1)
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            prod[i + j] += u * v
    return prod == [-1, -2, 0, 1]


def transition_spectral_radius(iterations: int) -> EntropyEstimate:
    """Power iteration on the transition matrix [[1, 1], [1, 0]].

    Exact integer vectors; the ratio of consecutive coordinate sums
    estimates the dominant eigenvalue, with the spread of successive
    ratios as the error bound.  Only the last two ratios are formed.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    x, y = 1, 1
    for _ in range(iterations - 1):
        x, y = x + y, x
    # (x, y) is the vector before the last step, (x + y, x) after it, and
    # x is the coordinate sum of the vector before (x, y)
    ratio = Fraction(2 * x + y, x + y)
    bound = abs(float(ratio - Fraction(x + y, x))) if iterations > 1 else None
    return EntropyEstimate("spectral", math.log(float(ratio)), float(ratio),
                           iterations, bound)


_MAX_LAP_DEPTH = 32


def lap_count(n: int) -> int:
    """Number of maximal monotone pieces of the n-th iterate of f.

    Computed exactly: the interior breakpoints of f^n are the points
    whose first n-1 iterates hit 1/2, accumulated by pulling 1/2 back
    through the two linear branches.  Every such point is a dyadic
    a/2^n, so only the integer numerators a are kept: y = a/2^n pulls
    back to (1 - y)/2 = ((2^n - a)/2)/2^n and, when y <= 1/2, to
    y + 1/2 = (a + 2^(n-1))/2^n.  Breakpoint count grows like the golden
    ratio to the n, hence the depth guard.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > _MAX_LAP_DEPTH:
        raise ValueError("depth %d above the guard %d" % (n, _MAX_LAP_DEPTH))
    full = 1 << n
    half = full >> 1
    level = {half}
    breaks = set(level)
    for _ in range(n - 1):
        # before the last step every point has denominator <= 2^(n-1): a is even
        level = {(full - a) >> 1 for a in level} | \
            {a + half for a in level if a <= half}
        breaks |= level
    interior = [a for a in breaks if 0 < a < full]
    return 1 + len(interior)


def entropy_lap(n: int) -> EntropyEstimate:
    """log(lap_count(n))/n; converges (from above) to the entropy."""
    laps = lap_count(n)
    value = math.log(laps) / n
    return EntropyEstimate("lap-count", value, math.exp(value), n, None)


class MixingCertificate(namedtuple("MixingCertificate", "word steps n_cover")):
    """Exact forward-image trajectory of a cylinder until it covers [0, infinity]."""

    __slots__ = ()  # steps[0] is the cylinder itself

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "n_cover": self.n_cover,
            "steps": [[str(iv) for iv in union] for union in self.steps],
        }


def mixing_certificate(word: str) -> MixingCertificate:
    """Iterate exact images of cylinder(word) until they cover [0, infinity].

    phi maps the cylinder of a word onto the cylinder of the word with its
    first symbol dropped, [1, infinity] onto [0, 1] and [0, 1] onto
    [0, infinity], so every step is one interval and the only one that
    straddles 1 is [0, infinity] itself.  The cover takes |word| steps
    when the word ends in 0 and |word| + 1 when it ends in 1.
    """
    iv = cylinder(word)
    steps = [[iv]]
    while iv != FULL_LINE:
        (iv,) = phi_interval_image(iv)
        steps.append([iv])
    return MixingCertificate(word, steps, len(steps) - 1)


def dense_periodic_witness(w: str) -> QuadraticSurd:
    """Irrational periodic point inside cylinder(w).

    The point of the purely periodic code (w + "000") repeated: the 000
    pad keeps the wrapped word admissible and rules out the rational
    codes (the period-3 cycle codes have no 000 factor), so the witness
    always carries a nonzero radical part.  Verified before returning:
    cylinder membership and exact fixedness under |w| + 3 steps.
    """
    if not is_admissible(w) or not w:
        raise ValueError("need a nonempty admissible word")
    x = periodic_point("", w + "000")
    if not isinstance(x, QuadraticSurd):
        raise RuntimeError("witness for %r degenerated to a rational" % w)
    if not cylinder(w).contains(x):
        raise RuntimeError("witness for %r escaped its cylinder" % w)
    y = x
    for _ in range(len(w) + 3):
        y = phi_surd(y)
    if y != x:
        raise RuntimeError("witness for %r is not exactly periodic" % w)
    return x


class TransitivityReport(namedtuple("TransitivityReport", "word_len stride horizon found")):
    __slots__ = ()  # found: word -> first index == 0 (mod stride), or None

    @property
    def passed(self) -> bool:
        return all(v is not None for v in self.found.values())

    @property
    def missing(self) -> list[str]:
        return sorted(w for w, v in self.found.items() if v is None)


def transitivity_check(s: CodeStream, word_len: int, stride: int,
                       horizon: int) -> TransitivityReport:
    """Scan for every admissible word at indices divisible by the stride.

    A full pass is the finite proxy for total transitivity: each word of
    the given length occurs in s at some index below the horizon that is
    congruent to 0 modulo the stride.
    """
    if not 1 <= word_len <= 8:
        raise ValueError("word_len capped at 8 (desk-scale guard)")
    if not 1 <= stride <= 3:
        raise ValueError("stride capped at 3 (desk-scale guard)")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    text = s.prefix(horizon + word_len)
    found = {}
    for w in admissible_words(word_len):
        hit = None
        idx = text.find(w)
        while 0 <= idx < horizon:
            if idx % stride == 0:
                hit = idx
                break
            idx = text.find(w, idx + 1)
        found[w] = hit
    return TransitivityReport(word_len, stride, horizon, found)
