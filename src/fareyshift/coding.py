"""Symbolic coding for the map x -> |1 - 1/x|.

Words are plain 0/1 strings; a word is admissible when it has no "11"
factor (after a 1 the orbit sits in [0, 1], so the next symbol is 0).
Cylinders are the exact Farey intervals obtained by composing the two
inverse branches

    psi0: y -> 1/(1 + y)   (into I0 = [0, 1]),
    psi1: y -> 1/(1 - y)   (into I1 = [1, infinity], defined on [0, 1]),

right to left over the word.  Infinite codes are CodeStream objects:
a chain of periodic runs, read from an offset.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from collections import namedtuple

from .exact import (
    INF,
    ONE,
    ZERO,
    ExtendedRational,
    _canonical,
    _escape_runs,
    mobius_apply,
    mobius_fixed_point,
    phi_rat,
)

class InadmissibleWordError(ValueError):
    """Word contains the forbidden factor "11" (or a bad character)."""


def is_admissible(word: str) -> bool:
    return not word.encode().translate(None, b"01") and "11" not in word


def _require_admissible(word: str) -> None:
    if not is_admissible(word):
        raise InadmissibleWordError("not an admissible 0/1 word: %r" % word)


def admissible_words(n: int) -> list[str]:
    """All admissible words of length n, in lexicographic order.

    Each round extends a lexicographically ordered list word by word, with
    "0" before "1", so the order holds without a sort.
    """
    if n < 0:
        raise ValueError("negative length")
    out = [""]
    for _ in range(n):
        out = [w + ch for w in out for ch in ("0", "1") if not (w.endswith("1") and ch == "1")]
    return out


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

    def __eq__(self, other):
        if not isinstance(other, FareyInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __str__(self):
        return "%s..%s" % (self.lo, self.hi)

    def __repr__(self):
        return "FareyInterval(%s, %s)" % (self.lo, self.hi)


FULL_LINE = FareyInterval(ZERO, INF)


_SYMBOL = {"0": 0, "1": 1}
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_CYCLE_CODE = ("010", "100", "001")  # phi's 3-cycle 0 -> infinity -> 1 read from each phase
_PRE_RUN = 64  # symbols: the longest run a typed PRE(PER) code's preperiod is read in
_GALLOP_MIN = 26  # symbols the bit bound must rule out before a run is galloped, not stepped


class CodeStream:
    """An infinite 0/1 sequence addressed by nonnegative index.

    Every stream is a segment function runs(n) -> (word, end) plus an
    offset: symbols n..end-1 of the runs read word repeated (end None:
    forever), and symbol n of the stream is symbol n + offset of the
    runs.  A shift adds to the offset and shares the rest.
    CodeStream.periodic builds the runs of a preperiod and a period (kind
    "periodic"); CodeStream.segmented takes any runs (kind "procedural").
    Evaluation is pure given the index.  A periodic stream holds its
    preperiod once, as the string its runs read (_pre, which symbol_at
    indexes and prefix slices), and its period as a list
    of ints in phase p, the preperiod left after the offset: entry n % q
    is symbol n for every n >= p (q = |per|).  A segmented stream has no
    period list (q = 1).  A shifted stream's label, shift(label,k), is
    formatted only when it is read.
    Streams are general points of the full 2-shift; admissibility (no
    "11") is a property checked where an operation requires it.
    """

    __slots__ = ("kind", "_runs", "_offset", "_pre", "_cycle", "_p", "_q", "_label")

    def __init__(self, kind, runs, offset=0, label=""):
        self.kind, self._runs, self._offset = kind, runs, offset
        self._pre, self._cycle, self._p, self._q = None, None, 0, 1  # no period list
        self._label = label  # a str, or (parent's _label, k) for a shifted stream

    @property
    def label(self) -> str:
        return _label_text(self._label)

    @classmethod
    def periodic(cls, pre: str, per: str, label: str = "") -> "CodeStream":
        """pre, then per forever; the runs read pre (only a typed PRE(PER) code
        is long) in pieces of at most _PRE_RUN, then per rotated to phase."""
        if not per:
            raise ValueError("period must be nonempty")
        if pre.encode().translate(None, b"01") or per.encode().translate(None, b"01"):
            raise ValueError("symbols must be 0/1")
        p, q = len(pre), len(per)

        def runs(n):
            if n < p:
                end = n + _PRE_RUN if n + _PRE_RUN < p else p
                return pre[n:end], end
            j = (n - p) % q
            return per[j:] + per[:j], None

        s = cls("periodic", runs, label=label or "%s(%s)" % (pre, per))
        s._pre = pre  # the string runs reads, not a copy: symbol n + _offset for n < _p
        s._p, s._q, j = p, q, -p % q  # _cycle[n % q] is symbol n for every n >= p
        s._cycle = list((per[j:] + per[:j]).encode().translate(_TO_BITS))
        return s

    @classmethod
    def segmented(cls, runs, label: str = "segmented") -> "CodeStream":
        """Stream given by its segment function (see the class)."""
        return cls("procedural", runs, label=label)

    def symbol_at(self, n: int) -> int:
        """Symbol n: past the preperiod, an index into the period list (CPython
        specializes a list subscript by an int, not a bytes one); inside it, a
        character of the preperiod; on a segmented stream, its run's first."""
        cycle = self._cycle
        if cycle is not None and n >= self._p:
            return cycle[n % self._q]
        if n < 0:
            raise IndexError("negative index")
        if cycle is not None:
            return _SYMBOL[self._pre[n + self._offset]]
        return _SYMBOL[self._runs(n + self._offset)[0][0]]

    __getitem__ = symbol_at

    def run_at(self, n: int) -> tuple[str, int | None]:
        """(word, end): symbols n..end-1 read word repeated; end None is forever.

        The segment holding symbol n + offset, read from there on and
        moved back by the offset.
        """
        if n < 0:
            raise IndexError("negative index")
        off = self._offset
        word, end = self._runs(n + off)
        if end is None:
            return word, None
        if end <= n + off:
            raise ValueError("empty segment at index %d" % n)
        return word, end - off

    def prefix(self, n: int) -> str:
        """The first n symbols: a periodic stream's preperiod sliced, the rest
        read run by run through run_at."""
        parts = []
        i = 0
        if self._p:
            i, off = min(n, self._p), self._offset
            parts.append(self._pre[off:off + i])
        while i < n:
            word, end = self.run_at(i)
            stop = n if end is None else min(end, n)
            parts.append((word * -(-(stop - i) // len(word)))[:stop - i])
            i = stop
        return "".join(parts)

    def shifted(self, k: int) -> "CodeStream":
        """Drop the first k symbols: the same runs, read k further on.

        The new stream shares this one's runs, adds k to the offset, and
        holds its period list rotated by k, so a shift costs O(q) however
        long the preperiod.
        """
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k == 0:
            return self
        s = object.__new__(CodeStream)
        s.kind, s._runs, s._pre, s._label = self.kind, self._runs, self._pre, (self._label, k)
        p, q, cycle = self._p - k, self._q, self._cycle
        r = k % q  # 0 for whole periods, so always 0 without a period list (q = 1)
        s._offset, s._p, s._q = self._offset + k, p if p > 0 else 0, q
        s._cycle = cycle[r:] + cycle[:r] if r else cycle
        return s

    def __repr__(self):
        return "CodeStream(%s)" % (self.label or self.kind)


def _label_text(label) -> str:
    """A CodeStream's _label as its text (see CodeStream.label)."""
    tail = []  # outermost shift first
    while not isinstance(label, str):
        label, k = label
        tail.append(",%d)" % k)
    tail.reverse()
    return "shift(" * len(tail) + label + "".join(tail)


# Right-multiplication by the inverse-branch matrices, (0, 1, 1, 1) for
# psi0 and (0, 1, -1, 1) for psi1; a matrix is the tuple (a, b, c, d)
# of x -> (a*x + b)/(c*x + d), acted on by mobius_apply.  The running
# product M satisfies enclosure = M(base), base = [0, infinity] after a
# trailing 0 and [0, 1] after a trailing 1 (the next symbol after a 1 is
# forced to 0, so psi1 is only ever applied inside [0, 1]).

def _steps(m: tuple[int, int, int, int], syms: bytes) -> tuple[int, int, int, int]:
    """M times the matrices of the 0/1 bytes syms, one symbol at a time."""
    a, b, c, d = m
    for sym in syms:
        if sym:
            a, b, c, d = -b, a + b, -d, c + d
        else:
            a, b, c, d = b, a + b, d, c + d
    return a, b, c, d


def _endpoints(m: tuple[int, int, int, int], last_sym: int) -> tuple[int, int, int, int]:
    """The enclosure M(base) as its ordered endpoints (lo_num, lo_den, hi_num, hi_den).

    They are read off the columns of M = (a, b, c, d): M(0) = b/d and
    M(infinity) = a/c after a trailing 0, M(1) = (a + b)/(c + d) after
    a 1.  det M = +-1 makes each pair coprime, so no gcd is needed.  No
    sign needs fixing: on vectors (x, y), psi0 maps the cone x, y >= 0
    into the cone 0 <= x <= y and psi1 maps the latter into the former,
    so along an admissible word M maps the base's cone to nonnegative
    vectors, and infinity is (1, 0).  The sign of det orders the two:
    M is a product of step matrices of det +-1, and the column sum after
    a 1 leaves det = ad - bc as it is, so det = +1 exactly when bc < ad,
    that is b/d < a/c.  det mod 4 is 1 for +1 and 3 for -1, read off the
    entries' low two bits (& gives the residue of a negative entry too),
    so no product of the full-size entries is formed.
    """
    a, b, c, d = m
    if last_sym:
        a, c = a + b, c + d
    return (b, d, a, c) if ((a & 3) * (d & 3) - (b & 3) * (c & 3)) & 3 == 1 else (a, c, b, d)


def _interval_of(m: tuple[int, int, int, int], last_sym: int) -> FareyInterval:
    """The enclosure M(base) as a FareyInterval of its _endpoints, built as they stand."""
    lo_num, lo_den, hi_num, hi_den = _endpoints(m, last_sym)
    iv = object.__new__(FareyInterval)  # ordered already, so __init__'s check is skipped
    iv.lo, iv.hi = _canonical(lo_num, lo_den), _canonical(hi_num, hi_den)
    return iv


def _mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _word_matrix(word: str) -> tuple[int, int, int, int]:
    return _steps((1, 0, 0, 1), word.encode().translate(_TO_BITS))


def cylinder(word: str) -> FareyInterval:
    """Exact cylinder interval of an admissible word.

    This is the set of x whose first |word| itinerary symbols equal the
    word; its endpoints are always a unimodular Farey pair.
    """
    _require_admissible(word)
    if not word:
        raise InadmissibleWordError("empty word has no cylinder")
    return _interval_of(_word_matrix(word), int(word[-1]))


class PointEnclosure(namedtuple("PointEnclosure", "interval prefix_len width_ok")):
    """Certified enclosure of the point coded by a stream prefix."""

    __slots__ = ()


def point_of_code(s: CodeStream, max_prefix: int, width_goal) -> PointEnclosure:
    """Nested cylinder enclosure of x_s from the shortest sufficient prefix.

    Grows the consumed prefix one symbol at a time until the cylinder is
    narrower than width_goal, or max_prefix symbols are consumed; in the
    second case the returned enclosure has width_ok = False ("width goal
    not reached").  The prefix read must be admissible.  The walk is
    _enclose's from index 0; this wrapper checks the arguments and builds
    the record, which the scramble checks never need (they read
    _enclose's matrix as the four integers of its _endpoints).
    """
    if max_prefix < 1:
        raise ValueError("max_prefix must be positive")
    goal = width_goal if isinstance(width_goal, Fraction) else Fraction(width_goal)
    if goal.numerator <= 0:
        raise ValueError("width_goal must be positive")
    m, last, n, ok = _enclose(s, 0, max_prefix, goal.numerator, goal.denominator)
    return PointEnclosure(_interval_of(m, last), n, ok)


def _enclose(s: CodeStream, k: int, max_prefix: int, goal_num: int, goal_den: int):
    """point_of_code of s.shifted(k), read from s itself at index k on.

    Returns (matrix, last_symbol, prefix_len, width_ok): the matrix of
    the consumed prefix and its last symbol, whose _endpoints are the
    enclosure.  The goal goal_num/goal_den must be positive and
    max_prefix at least 1 (unchecked); no shifted stream or record is
    built, and an InadmissibleWordError names the index of the "11"
    counted from k.  A cylinder's endpoints b/d and p/q are a unimodular
    pair, so its width is 1/|d*q| (d*q = 0: unbounded), below the goal
    iff goal_den < goal_num * |d*q|.  A periodic stream at a goal the
    bit bound below does not rule out for _GALLOP_MIN symbols is stepped
    here on all four entries, one symbol_at call a symbol; any other
    stream is read run by run by _walk_segments, with the same result."""
    # goal_num * |d*q| has at most goal_num's bits + d's bits + q's bits;
    # while d's + q's are at most this, it is below goal_den
    short_bits = goal_den.bit_length() - goal_num.bit_length() - 1
    # A step maps the bottom row (c, d) to (d, c + d) after a 0 and to
    # (-d, c + d) after a 1, so row = max(bits(c), bits(d)) grows by at
    # most 1 per symbol.  q is an entry of the previous row: its d, which
    # is now +-c, after a 0, or its c, which is now c + d, after a 1.  So
    # bits(q) <= row + 1 and bits(d) + bits(q) <= 2*row + 1, while the
    # test needs that sum above short_bits: from a row of r bits, the
    # next half - r symbols cannot pass it.
    half = (short_bits - 1) // 2
    if s._cycle is None or half >= _GALLOP_MIN:
        return _walk_segments(s, k, max_prefix, goal_num, goal_den, short_bits)
    symbol_at = s.symbol_at  # shallow: _walk_segments' tail over symbol_at (d, q >= 0: no abs)
    a, b, c, d = 1, 0, 0, 1
    prev = 0
    for i in range(k, k + max_prefix):
        if symbol_at(i):
            if prev:
                raise InadmissibleWordError(
                    "stream prefix contains '11' at index %d" % (i - k))
            a, b, c, d = -b, a + b, -d, c + d
            q, prev = c + d, 1
        else:
            a, b, c, d = b, a + b, d, c + d
            q, prev = c, 0
        if d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * d * q:
            return (a, b, c, d), prev, i + 1 - k, True
    return (a, b, c, d), prev, max_prefix, False


def _walk_segments(s: CodeStream, k: int, max_prefix: int, goal_num: int, goal_den: int,
                   short_bits: int):
    """_enclose run by run: each run stepped, or read in whole periods at once.

    Reads s's runs from index k on, counting the prefix from k: a segmented
    stream's segments, or a periodic stream's preperiod in pieces of at most
    _PRE_RUN symbols and then its period in phase forever.  A run of r >= 2
    periods of a word with no "11" (inside, across its seam or at its join)
    first takes whole periods that leave the goal unmet (exact: cylinders
    nest): the most such in closed form for the neutral 3-cycle's powers
    (_neutral_periods), else one predicted power, stepped down while it meets
    the goal (_whole_periods), where the bit bound (see _enclose) proves the
    next _GALLOP_MIN symbols cannot meet the goal.  The rest of the run, the
    period that meets the goal or any the prediction fell short of, is
    stepped with _enclose's width test (no abs: d, q >= 0 along an
    admissible word, see _endpoints)."""
    half = (short_bits - 1) // 2  # see _enclose: the next half - row symbols fail the test
    m = (1, 0, 0, 1)
    prev = 0
    i = 0
    while i < max_prefix:
        word, end = s.run_at(k + i)
        count = (max_prefix if end is None else min(end - k, max_prefix)) - i
        size = len(word)
        reps = count // size
        done = 0
        if reps >= 2 and not (prev and word[0] == "1"):
            t, last = 0, int(word[-1])
            if word[:3] in _CYCLE_CODE and word == word[:3] * (size // 3):  # neutral, no "11"
                m, t = _neutral_periods(m, _word_matrix(word), last, reps, goal_den // goal_num, i)
            elif (half - max(m[2].bit_length(), m[3].bit_length()) >= _GALLOP_MIN
                    and "11" not in word + word):
                m, t = _whole_periods(m, _word_matrix(word), last, reps, goal_num, goal_den,
                                      short_bits, i)
            if t:
                prev, done = last, t * size
        a, b, c, d = m
        for p in range(done, count):
            if word[p % size] == "1":
                if prev:
                    raise InadmissibleWordError(
                        "stream prefix contains '11' at index %d" % (i + p))
                a, b, c, d = -b, a + b, -d, c + d
                q, prev = c + d, 1
            else:
                a, b, c, d = b, a + b, d, c + d
                q, prev = c, 0
            if d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * d * q:
                return (a, b, c, d), prev, i + p + 1, True
        m = (a, b, c, d)
        i += count
    return m, prev, max_prefix, False


def _whole_periods(m, w, last, reps, goal_num, goal_den, short_bits, i):
    """(m * W^t, t) for whole periods t <= reps of a word that is not neutral,
    the goal unmet after each; i is 0 when m is the identity.

    W^t = U_t*W - det*U_(t-1)*I (Cayley-Hamilton; det*U_(t-1) = (p*U_t - V_t)/2,
    U and V from _lucas), at a t predicted from d*q after one period and W's
    spectral radius rho > 1 (logs of ints: a long period's trace overflows a
    float), then stepped down by W^-1 = det*adj(W) while the goal is met.  A t
    short of the most such periods is not stepped up: the caller's tail steps
    the rest of the run symbol by symbol, with the same exact test."""
    mw = _mul(m, w) if i else w
    a, b, c, d = w
    p, det = a + d, a * d - b * c
    log_rho = math.log2(abs(p)) + math.log2((1 + math.sqrt(1 - 4 * det / (p * p))) / 2)
    dq = mw[3] * (mw[2] + mw[3] if last else mw[2]) or 1  # d = 0 while unbounded
    t = 1 + math.floor((math.log2(goal_den) - math.log2(goal_num * dq)) / (2 * log_rho))
    t = min(max(t, 1), reps)
    u, v = _lucas(p, det, t)  # U_t, V_t
    du = (p * u - v) // 2  # det*U_(t-1)
    x = (u * mw[0] - du * m[0], u * mw[1] - du * m[1], u * mw[2] - du * m[2],
         u * mw[3] - du * m[3])
    while t:  # down, to t = 0 and x = m at the least (one period meets the goal)
        xd, q = x[3], (x[2] + x[3] if last else x[2])
        if xd.bit_length() + q.bit_length() <= short_bits or goal_den >= goal_num * xd * q:
            break
        x, t = _mul(x, (det * d, -det * b, -det * c, det * a)), t - 1  # W^-1 = det*adj(W)
    return x, t


def _lucas(p: int, det: int, n: int) -> tuple[int, int]:
    """(U_n, V_n) of x^2 - p*x + det, det = +-1: U_0, U_1 = 0, 1 and V_0, V_1 = 2, p,
    each with X_(j+1) = p*X_j - det*X_(j-1).  Per binary digit of n >= 0, from
    the top (bin(n), so n = 0 gives U_0, V_0), U_2k = U_k*V_k and
    V_2k = V_k^2 - 2*det^k, then for a 1 U_(k+1) = (p*U_k + V_k)/2 and
    V_(k+1) = (D*U_k + p*V_k)/2, D = p^2 - 4*det (both halves exact)."""
    u, v, power, disc = 0, 2, 1, p * p - 4 * det  # power = det^k
    for digit in bin(n)[2:]:
        u, v, power = u * v, v * v - 2 * power, 1
        if digit == "1":
            u, v, power = (p * u + v) // 2, (disc * u + p * v) // 2, det
    return u, v


def _neutral_periods(m, w, last: int, reps: int, g: int, i: int):
    """_whole_periods for a neutral word w, the goal unmet while d*q <= g.

    W = I + N with N^2 = 0 (trace 2, det 1), so m * W^t = m + t * (m * N).
    W's one fixed point is rational and periodic, so it is infinity, 0 or
    1 and w is a power of 100, 010 or 001: the fixed point is the base
    endpoint w's last symbol gives, whose column of m * W^t is m's.  So
    with d, q the denominators after one period and d1, q1 their growth
    per period (all >= 0: d, q >= 0 after every period, see _endpoints),
    one of d1, q1 is 0, and s more periods leave d*q + s*(d*q1 + q*d1):
    linear in s, solved by one floor division.
    """
    n = (w[0] - 1, w[1], w[2], w[3] - 1)
    na, nb, nc, nd = _mul(m, n) if i else n  # m * N
    ma, mb, mc, md = m
    d1, q1 = nd, (nc + nd if last else nc)
    d, q = md + d1, (mc + md if last else mc) + q1
    if d * q > g:  # the first period meets the goal
        return m, 0
    slope = d * q1 + q * d1
    t = min(1 + (g - d * q) // slope, reps) if slope else reps
    return (ma + t * na, mb + t * nb, mc + t * nc, md + t * nd), t


def itinerary(x, n: int, tie_high: bool = False) -> str:
    """First n itinerary symbols of x: 1 on (1, infinity], else 0.

    At the boundary point 1 the symbol 0 is emitted; with tie_high the
    first visit to 1 emits 1 instead, which selects the other of the two
    codes a positive rational has (0 and infinity have one code each).
    Symbols are read off the continued fraction, a surd's never ending.
    """
    if n < 1:
        raise ValueError("need at least one symbol")
    if x == INF:
        return code_of_rational(x).prefix(n)
    # no run is read past n symbols, and each is cut at n passes: at most 4n + 2 symbols
    parts, size = [], 0
    for passes, tail in _escape_runs(x, tie_high):
        if size > n:
            break
        parts.append("100" * min(passes, n) + tail)
        size += len(parts[-1])
    return ("".join(parts) + "010" * (n // 3 + 1))[:n]


def periodic_point(preperiod: str, period: str):
    """Exact point whose code is preperiod followed by the repeating period.

    Solves the attracting fixed point of the period's inverse-branch
    composition, which is the one inside cylinder(period) (see
    mobius_fixed_point), then pushes it through the preperiod's inverse
    branches.  Returns an ExtendedRational for the orbit of
    {0, 1, infinity} and a QuadraticSurd otherwise.
    """
    if not period:
        raise InadmissibleWordError("period must be nonempty")
    _require_admissible(preperiod + period + period)
    x = mobius_fixed_point(_word_matrix(period))
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


# each run word _escape_runs yields, read from each of its phases
_ROTATIONS = {w: tuple(w[r:] + w[:r] for r in range(len(w)))
              for w in ("100", "10", "0", "1", "101")}


def code_of_rational(x: ExtendedRational, tie_high: bool = False) -> CodeStream:
    """Eventually periodic code of a rational point of [0, infinity]: a segmented
    stream of its escape runs (exact._escape_runs), a run of passes as ("100", end)
    and its tail, then the 3-cycle code 010 forever.  A run is found by bisecting
    the run starts, O(digits) of them whatever the escape time.  tie_high reads the
    visit to 1 as 1, which picks the other of the two codes a positive rational has.
    """
    if x.is_infinite:
        return CodeStream.periodic("", "100", label="code(1/0)")
    starts, rotations, e = [], [], 0  # each run's start, and its word read from each phase
    for passes, tail in _escape_runs(x, tie_high):
        for word, size in (("100", 3 * passes), (tail, len(tail))):
            if size:
                starts.append(e)
                rotations.append(_ROTATIONS[word])
                e += size
    ends = starts[1:] + [e]

    def runs(n):
        if n >= e:  # escaped: the 3-cycle from 0, in phase
            return _CYCLE_CODE[(n - e) % 3], None
        j = bisect_right(starts, n) - 1
        words = rotations[j]
        return words[(n - starts[j]) % len(words)], ends[j]

    return CodeStream.segmented(runs, label="code(%s)" % x)
