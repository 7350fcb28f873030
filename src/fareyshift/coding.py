"""Symbolic coding for the map x -> |1 - 1/x|.

Words are plain 0/1 strings; a word is admissible when it has no "11"
factor (after a 1 the orbit sits in [0, 1], so the next symbol is 0).
Cylinders are the exact Farey intervals obtained by composing the two
inverse branches

    psi0: y -> 1/(1 + y)   (into I0 = [0, 1]),
    psi1: y -> 1/(1 - y)   (into I1 = [1, infinity], defined on [0, 1]),

right to left over the word.  Infinite codes are CodeStream objects:
eventually periodic data or a pure index -> symbol procedure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact import (
    INF,
    ONE,
    ZERO,
    ExtendedRational,
    QuadraticSurd,
    _escape_word,
    mobius_apply,
    mobius_fixed_point,
    phi_rat,
    phi_surd,
)

class InadmissibleWordError(ValueError):
    """Word contains the forbidden factor "11" (or a bad character)."""


def is_admissible(word: str) -> bool:
    return all(ch in "01" for ch in word) and "11" not in word


def _require_admissible(word: str) -> None:
    if not is_admissible(word):
        raise InadmissibleWordError("not an admissible 0/1 word: %r" % word)


def admissible_words(n: int) -> list[str]:
    """All admissible words of length n, in lexicographic order."""
    if n < 0:
        raise ValueError("negative length")
    out = [""]
    for _ in range(n):
        out = [w + ch for w in out for ch in ("0", "1") if not (w.endswith("1") and ch == "1")]
    return sorted(out)


def iter_admissible_words(min_len: int = 1):
    """Admissible words in length-lexicographic order, smallest length first."""
    n = min_len
    while True:
        yield from admissible_words(n)
        n += 1


class FareyInterval:
    """Closed subinterval of [0, infinity] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: ExtendedRational, hi: ExtendedRational):
        if hi < lo:
            raise ValueError("reversed interval %s..%s" % (lo, hi))
        self.lo = lo
        self.hi = hi

    @property
    def is_bounded(self) -> bool:
        return not self.hi.is_infinite

    def width(self) -> Fraction | None:
        """Exact width, or None when the interval reaches infinity."""
        if not self.is_bounded:
            return None
        return self.hi.as_fraction() - self.lo.as_fraction()

    def contains(self, x) -> bool:
        """Exact membership of an ExtendedRational or a QuadraticSurd."""
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "FareyInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __eq__(self, other):
        if not isinstance(other, FareyInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __str__(self):
        return "%s..%s" % (self.lo, self.hi)

    def __repr__(self):
        return "FareyInterval(%s, %s)" % (self.lo, self.hi)


FULL_LINE = FareyInterval(ZERO, INF)


class CodeStream:
    """An infinite 0/1 sequence addressed by nonnegative index.

    Two kinds: eventually periodic (preperiod + repeating period) and
    procedural (a pure index -> symbol function).  A procedural stream
    may instead be defined by a segment function runs(n) -> (word, end):
    symbols n..end-1 read word repeated (end None: forever); its symbols
    and prefixes are then read off the segments.  Evaluation is pure
    given the index; the prefix cache is an idempotent memo only.
    Streams are general points of the full 2-shift; admissibility (no
    "11") is a property checked where an operation requires it.
    """

    __slots__ = ("kind", "pre", "per", "_fn", "_runs", "_offset", "label", "_prefix_cache")

    def __init__(self, kind, pre=None, per=None, fn=None, runs=None, offset=0, label=""):
        self.kind = kind
        self.pre = pre
        self.per = per
        self._fn = fn
        self._runs = runs
        self._offset = offset
        self.label = label
        self._prefix_cache = ""

    @classmethod
    def periodic(cls, pre: str, per: str, label: str = "") -> "CodeStream":
        if not per:
            raise ValueError("period must be nonempty")
        for ch in pre + per:
            if ch not in "01":
                raise ValueError("symbols must be 0/1")
        return cls("periodic", pre=pre, per=per,
                   label=label or "%s(%s)" % (pre, per))

    @classmethod
    def procedural(cls, fn: Callable[[int], int], label: str = "procedural") -> "CodeStream":
        return cls("procedural", fn=fn, label=label)

    @classmethod
    def segmented(cls, runs: Callable[[int], tuple[str, int | None]],
                  label: str = "segmented") -> "CodeStream":
        """Procedural stream given by its segment function (see the class)."""
        return cls("procedural", fn=lambda n: int(runs(n)[0][0]), runs=runs, label=label)

    @classmethod
    def zeros(cls) -> "CodeStream":
        return cls.periodic("", "0")

    def symbol_at(self, n: int) -> int:
        if n < 0:
            raise IndexError("negative index")
        if self.kind == "periodic":
            if n < len(self.pre):
                return int(self.pre[n])
            return int(self.per[(n - len(self.pre)) % len(self.per)])
        return self._fn(n + self._offset)

    __getitem__ = symbol_at

    def run_at(self, n: int) -> tuple[str, int | None]:
        """(word, end): symbols n..end-1 read word repeated; end None is forever.

        Periodic streams give the rest of the preperiod, then the rotated
        period forever; plain procedural streams give one symbol.
        """
        if n < 0:
            raise IndexError("negative index")
        if self.kind == "periodic":
            p = len(self.pre)
            if n < p:
                return self.pre[n:], p
            j = (n - p) % len(self.per)
            return self.per[j:] + self.per[:j], None
        off = self._offset
        if self._runs is None:
            return ("1" if self._fn(n + off) else "0"), n + 1
        word, end = self._runs(n + off)
        if end is None:
            return word, None
        if end <= n + off:
            raise ValueError("empty segment at index %d" % n)
        return word, end - off

    def prefix(self, n: int) -> str:
        if self.kind == "periodic":
            if n <= len(self.pre):
                return self.pre[:n]
            reps = (n - len(self.pre)) // len(self.per) + 1
            return (self.pre + self.per * reps)[:n]
        i = len(self._prefix_cache)
        if i < n:
            parts = []
            while i < n:
                word, end = self.run_at(i)
                stop = n if end is None else min(end, n)
                parts.append((word * -(-(stop - i) // len(word)))[:stop - i])
                i = stop
            self._prefix_cache += "".join(parts)
        return self._prefix_cache[:n]

    def shifted(self, k: int) -> "CodeStream":
        """Drop the first k symbols; periodic streams are renormalised."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0:
            return self
        if self.kind == "periodic":
            if k <= len(self.pre):
                return CodeStream.periodic(self.pre[k:], self.per,
                                           label="shift(%s,%d)" % (self.label, k))
            j = (k - len(self.pre)) % len(self.per)
            return CodeStream.periodic("", self.per[j:] + self.per[:j],
                                       label="shift(%s,%d)" % (self.label, k))
        return CodeStream("procedural", fn=self._fn, runs=self._runs, offset=self._offset + k,
                          label="shift(%s,%d)" % (self.label, k))

    def admissible_prefix(self, n: int) -> bool:
        return "11" not in self.prefix(n)

    def check_admissible(self) -> bool:
        """Exhaustive admissibility for periodic streams (seams included)."""
        if self.kind != "periodic":
            raise ValueError("exhaustive check needs a periodic stream")
        return "11" not in self.pre + self.per + self.per

    def __repr__(self):
        return "CodeStream(%s)" % (self.label or self.kind)


def sigma_metric(s: CodeStream, t: CodeStream, tol) -> Fraction:
    """Sum of |s_i - t_i| / 2^(i+1), truncated so the tail is below tol.

    Exact: the first n = k + 1 terms are summed, where k >= 0 is the
    least integer with 2^k >= 1/tol (n = 1 when tol >= 1).
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    ceil_inv = -(-tol.denominator // tol.numerator)  # ceil(1/tol)
    n = (ceil_inv - 1).bit_length() + 1
    total = Fraction(0)
    for i in range(n):
        if s[i] != t[i]:
            total += Fraction(1, 2 ** (i + 1))
    return total


# Right-multiplication by the inverse-branch matrices, (0, 1, 1, 1) for
# psi0 and (0, 1, -1, 1) for psi1; a matrix is the tuple (a, b, c, d)
# of x -> (a*x + b)/(c*x + d), acted on by mobius_apply.  The running
# product M satisfies enclosure = M(base), base = [0, infinity] after a
# trailing 0 and [0, 1] after a trailing 1 (the next symbol after a 1 is
# forced to 0, so psi1 is only ever applied inside [0, 1]).

def _advance(m: tuple[int, int, int, int], sym: int) -> tuple[int, int, int, int]:
    a, b, c, d = m
    if sym == 0:
        return (b, a + b, d, c + d)
    return (-b, a + b, -d, c + d)


def _interval_of(m: tuple[int, int, int, int], last_sym: int) -> FareyInterval:
    p1 = mobius_apply(m, ZERO)
    p2 = mobius_apply(m, ONE if last_sym else INF)
    return FareyInterval(p1, p2) if p1 <= p2 else FareyInterval(p2, p1)


def _mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _word_matrix(word: str) -> tuple[int, int, int, int]:
    m = (1, 0, 0, 1)
    for ch in word:
        m = _advance(m, int(ch))
    return m


def cylinder(word: str) -> FareyInterval:
    """Exact cylinder interval of an admissible word.

    This is the set of x whose first |word| itinerary symbols equal the
    word; its endpoints are always a unimodular Farey pair.
    """
    _require_admissible(word)
    if not word:
        raise InadmissibleWordError("empty word has no cylinder")
    return _interval_of(_word_matrix(word), int(word[-1]))


@dataclass(frozen=True)
class PointEnclosure:
    """Certified enclosure of the point coded by a stream prefix."""

    interval: FareyInterval
    prefix_len: int
    width_ok: bool


def point_of_code(s: CodeStream, max_prefix: int, width_goal) -> PointEnclosure:
    """Nested cylinder enclosure of x_s from the shortest sufficient prefix.

    Grows the consumed prefix one symbol at a time until the cylinder is
    narrower than width_goal, or max_prefix symbols are consumed; in the
    second case the returned enclosure has width_ok = False ("width goal
    not reached").  The prefix read must be admissible.

    Each symbol costs one matrix step and one integer compare.  The
    cylinder's endpoints b/d and p/q form a unimodular pair, so a bounded
    cylinder has width exactly 1/|d*q| (an unbounded one has d*q = 0),
    and width < goal iff goal.denominator < goal.numerator * |d*q|.  The
    compare is made on bit lengths until they show that it can pass, so
    the product is formed only on the last few symbols.  The
    FareyInterval is built once, for the prefix that is returned.

    A stream with a segment function is read segment by segment instead,
    with the same result (see _walk_segments).
    """
    if max_prefix < 1:
        raise ValueError("max_prefix must be positive")
    goal = Fraction(width_goal)
    if goal <= 0:
        raise ValueError("width_goal must be positive")
    goal_num, goal_den = goal.numerator, goal.denominator
    # goal_num * |d*q| has at most goal_num's bits + d's bits + q's bits;
    # while d's + q's are at most this, it is below goal_den
    short_bits = goal_den.bit_length() - goal_num.bit_length() - 1
    if s._runs is not None:
        return _walk_segments(s, max_prefix, goal_num, goal_den, short_bits)
    m = (1, 0, 0, 1)
    prev = 0
    for i in range(max_prefix):
        sym = s[i]
        if prev == 1 and sym == 1:
            raise InadmissibleWordError("stream prefix contains '11' at index %d" % i)
        m = _advance(m, sym)
        d = m[3]  # denominator of the image of 0
        q = m[2] + d if sym else m[2]  # denominator of the image of 1 or infinity
        if d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * abs(d * q):
            return PointEnclosure(_interval_of(m, sym), i + 1, True)
        prev = sym
    return PointEnclosure(_interval_of(m, prev), max_prefix, False)


def _walk_segments(s: CodeStream, max_prefix: int, goal_num: int, goal_den: int,
                   short_bits: int) -> PointEnclosure:
    """point_of_code on a segmented stream, in O(segments * log run) multiplies.

    A run of r >= 2 whole periods of a word w (no "11" in w, across the
    seam between repetitions, or at the join with the symbol before) is
    consumed by galloping over W, W^2, W^4, ... (W the matrix of w) and
    then descending: this finds the most periods after which the width
    goal is still unmet, which is exact because cylinders are nested, so
    "goal met" is monotone in the prefix length.  At most one more period
    is then read symbol by symbol, as is every other segment.  Galloping
    only forms powers up to about the size the goal needs.
    """

    def met(m, sym):
        d = m[3]
        q = m[2] + d if sym else m[2]
        return d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * abs(d * q)

    m = (1, 0, 0, 1)
    prev = 0
    i = 0
    while i < max_prefix:
        word, end = s.run_at(i)
        count = (max_prefix if end is None else min(end, max_prefix)) - i
        size = len(word)
        reps = count // size
        done = 0
        if reps >= 2 and "11" not in word + word and not (prev and word[0] == "1"):
            last = int(word[-1])
            powers = [_word_matrix(word)]  # powers[j] = W^(2^j)
            t, j = 0, 0
            while t + (1 << j) <= reps:
                if j == len(powers):
                    powers.append(_mul(powers[-1], powers[-1]))
                nxt = _mul(m, powers[j])
                if met(nxt, last):
                    break
                m, t, j = nxt, t + (1 << j), j + 1
            while j:
                j -= 1
                if t + (1 << j) <= reps:
                    nxt = _mul(m, powers[j])
                    if not met(nxt, last):
                        m, t = nxt, t + (1 << j)
            if t:
                prev, done = last, t * size
        for p in range(done, count):
            sym = 1 if word[p % size] == "1" else 0
            if prev == 1 and sym == 1:
                raise InadmissibleWordError(
                    "stream prefix contains '11' at index %d" % (i + p))
            m = _advance(m, sym)
            if met(m, sym):
                return PointEnclosure(_interval_of(m, sym), i + p + 1, True)
            prev = sym
        i += count
    return PointEnclosure(_interval_of(m, prev), max_prefix, False)


def itinerary(x, n: int, tie_high: bool = False) -> str:
    """First n itinerary symbols of x: 1 on (1, infinity], else 0.

    At the boundary point 1 the symbol 0 is emitted; with tie_high the
    first visit to 1 emits 1 instead, which selects the other of the two
    codes a positive rational has (0 and infinity have one code each).
    A rational's symbols are read off its continued fraction.
    """
    if n < 1:
        raise ValueError("need at least one symbol")
    if isinstance(x, QuadraticSurd):
        out = []
        for _ in range(n):
            out.append("1" if x > 1 else "0")
            x = phi_surd(x)
        return "".join(out)
    if x.is_infinite:
        return code_of_rational(x).prefix(n)
    # only n symbols are read, so no run of the escape word need be longer
    return (_escape_word(x, tie_high, n) + "010" * n)[:n]


def periodic_point(preperiod: str, period: str):
    """Exact point whose code is preperiod followed by the repeating period.

    Solves the fixed point of the period's inverse-branch composition,
    picks the root inside cylinder(period), then pushes it through the
    preperiod's inverse branches.  Returns an ExtendedRational for the
    orbit of {0, 1, infinity} and a QuadraticSurd otherwise.
    """
    if not period:
        raise InadmissibleWordError("period must be nonempty")
    _require_admissible(preperiod + period + period)
    x = mobius_fixed_point(_word_matrix(period), within=cylinder(period))
    return mobius_apply(_word_matrix(preperiod), x)


def phi_interval_image(iv: FareyInterval) -> list[FareyInterval]:
    """Exact forward image of an interval, split at 1 when it straddles it."""
    lo, hi = iv.lo, iv.hi
    if hi <= ONE:
        return [FareyInterval(phi_rat(hi), phi_rat(lo))]
    if lo >= ONE:
        return [FareyInterval(phi_rat(lo), phi_rat(hi))]
    return [
        FareyInterval(ZERO, phi_rat(lo)),
        FareyInterval(ZERO, phi_rat(hi)),
    ]


def code_of_rational(x: ExtendedRational, tie_high: bool = False) -> CodeStream:
    """Eventually periodic code of a rational point of [0, infinity].

    The preperiod is x's escape word, read off its continued fraction;
    after the escape to 0 the code is the period-3 cycle code
    010 010 ...  tie_high reads the visit to 1 as 1, which picks the
    other of the two codes a positive rational has.
    """
    if x.is_infinite:
        return CodeStream.periodic("", "100", label="code(1/0)")
    return CodeStream.periodic(_escape_word(x, tie_high), "010", label="code(%s)" % x)
