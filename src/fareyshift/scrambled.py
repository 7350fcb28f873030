"""Factorial-block code families and finite-horizon scrambling checks.

Two lazy stream families are built here.  The bounded family packs a
free 0/1 parameter stream beta into isolated cells of factorial-sized
blocks, so every shifted point stays inside a fixed union of four
cylinders while scheduled shifts bring pairs together (long 0 runs,
both points near the fixed point) or apart (a 1-cell against a 0 run).
The unbounded family interleaves, block by block: a prefix of a
transitive stream, a separation string 0^(k!/4) (100)^... (001)^...
(010)^..., a (beta_j 0 0) encoding of beta, and copy-windows that track
a supplied list of target codes.

Verification is finite and certified: scheduled events are checked with
exact cylinder enclosures, and every event resolves to pass, fail, or
an explicit "inconclusive" (never a silent pass).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .coding import _CYCLE_CODE, CodeStream, _enclose, _endpoints
from .exact import INFINITE_DISTANCE, ExtendedRational, escape_time

# Phase j of phi's 3-cycle 0 -> infinity -> 1 is phi^j(0), coded _CYCLE_CODE[j]:
# a run from phase j reads _CYCLE_CODE[(j + m) % 3] after m symbols, and
# _CYCLE_POINTS[j] is that point as enclosure endpoints (lo_num, lo_den, hi_num, hi_den).
_CYCLE_NAMES = ("zero", "inf", "one")
_CYCLE_POINTS = ((0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1))
_NO_GAP = Fraction(0)  # the lower bound of two enclosures that meet, built once
_SCHEDULE_MAX_K = 9  # largest block schedule_events will schedule
_SCHEDULE_PARAMS = {  # the params of each schedule_events kind: (required, optional)
    "theorem1": ((), ("shift", "diff_indices")),          # int >= 0, ints >= 0
    "theorem2": ((), ("shift", "diff_index")),            # int >= 0, int >= 0 | None
    "theorem2_tracked": (("track_index", "x_code"), ()),  # int >= 1, CodeStream
    "rational_vs_tau": (("escape",), ("eps",)),           # int >= 0, Fraction > 0
}


def _int_param(name: str, value, least: int) -> int:
    """A schedule param as an int (operator.index: a float or any other
    non-integer is refused, not truncated), at least least; else ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError("schedule param %r must be an integer, got %r" % (name, value)) from None
    if value < least:
        raise ValueError("schedule param %r must be >= %d, got %d" % (name, least, value))
    return value


def _as_stream(bits) -> CodeStream:
    if isinstance(bits, CodeStream):
        return bits
    return CodeStream.periodic("", str(bits))  # the finite word repeated forever


class BlockLayout(namedtuple("BlockLayout", [
        "k", "start",  # start: k!
        "string_len",  # k!, one constituent string
        "quarter",     # k!/4, zero-run prefix of the separation string
        "encode_sub",  # (k-1)!, one parameter cell of the encoding string
        "window"])):   # (k-1)!/2, one tracking window
    """Exact index arithmetic of the factorial block spanning [k!, (k+1)!).

    Both stream families tile this block with k strings of length k!;
    the derived offsets below are the ones the event schedules address.
    All sub-lengths divide evenly for k >= 5.  The streams' runs and
    schedule_events read the fields and inline these offsets on them; the
    methods state the arithmetic, and the tests hold the inlined copies to it.
    """

    __slots__ = ()

    @classmethod
    def for_k(cls, k: int) -> "BlockLayout":
        if k < 5:
            raise ValueError("blocks start at k = 5")
        fk = math.factorial(k)
        return cls(k, fk, fk, fk // 4, fk // k, fk // k // 2)

    def part_start(self, part: int) -> int:
        """Absolute index of string `part` (0-based) within this block."""
        if not 0 <= part < self.k:
            raise ValueError("block has %d strings" % self.k)
        return self.start + part * self.string_len

    def run_start(self, which: int) -> int:
        """Absolute start of the (100)/(001)/(010) run, which = 0, 1, 2."""
        return self.part_start(1) + (1 + which) * self.quarter

    def encode_cell(self, j: int) -> int:
        """Absolute index holding the j-th encoded parameter symbol."""
        return self.part_start(2) + j * self.encode_sub

    def tracking_start(self, i: int) -> int:
        """Absolute start of the tracking strings for target i (1-based)."""
        if not 1 <= i <= self.k - 3:
            raise ValueError("block tracks %d targets" % (self.k - 3))
        return self.part_start(2 + i)

    def copy_source(self, i: int, j: int) -> int:
        """Source index copied by tracking window j (1-based) of target i."""
        return self.tracking_start(i) + (j - 1) * (self.window - 1)

    def separation_source(self, i: int, j: int) -> int:
        """Source index keyed by separation window j (1-based) of target i."""
        return self.tracking_start(i) + self.string_len // 2 + (j - 1) * (self.window - 1)


@functools.cache
def _layout(k: int) -> BlockLayout:
    return BlockLayout.for_k(k)


_FACTORIALS = [1, 1, 2, 6]  # k! at index k; _factorial_floor extends it on demand
_FACTORIALS_GROW = threading.Lock()  # one writer: each entry is its predecessor times its index


def _factorial_floor(n: int) -> int:
    """The k with k! <= n < (k+1)!, for n >= 3!; _FACTORIALS then reaches (k+1)!."""
    facts = _FACTORIALS
    if facts[-1] <= n:
        with _FACTORIALS_GROW:
            while facts[-1] <= n:
                facts.append(facts[-1] * len(facts))
    return bisect_right(facts, n) - 1


def mu_code(beta) -> CodeStream:
    """Bounded-family stream for the parameter beta (stream or recycled word).

    Index layout: 0^(5!) then blocks spanning [k!, (k+1)!) for k = 5, 6, ...
    Each block is k strings of length k!: the head string 01 0^(k!-2),
    then 0 b 0^(k!-2) with b running through beta.  No block is ever
    materialised: the stream is its segments, the cells and the zero
    runs between them.
    """
    beta = _as_stream(beta)

    def runs(n: int):
        if n < 120:
            return "0", 121
        fk = _FACTORIALS[_factorial_floor(n)]
        j, off = divmod(n - fk, fk)
        cell = n - off + 1  # string j's cell
        if off == 1:
            return ("1" if j == 0 else str(beta[j - 1])), cell + 1
        return "0", cell if off == 0 else cell + fk  # to the next cell

    return CodeStream.segmented(runs, label="mu(%s)" % beta.label)


def _alpha_word(i: int) -> str:
    """Word i of the admissible words from length 5, length-lexicographic.

    There are F(m + 2) admissible words of length m (Fibonacci counts),
    so word i's length is found by subtracting whole lengths, and its
    symbols by greedy Zeckendorf: with m symbols still to come, a 1 skips
    the F(m + 2) words that have a 0 there.  A 1 leaves fewer than
    F(m + 1) words, so the next symbol is a 0 and no "11" occurs.
    """
    counts = [1, 2, 3, 5, 8, 13]  # counts[m] = F(m + 2), the admissible words of length m
    while i >= counts[-1]:  # word i is longer: skip the words of this length
        i -= counts[-1]
        counts.append(counts[-1] + counts[-2])
    word = []
    for m in range(len(counts) - 2, -1, -1):  # m symbols still to come
        if i >= counts[m]:
            word.append("1")
            i -= counts[m]
        else:
            word.append("0")
    return "".join(word)


def alpha_transitive() -> CodeStream:
    """Stream with admissible word i (from length 5) at (i + 3)!, zeros elsewhere.

    Word i is _alpha_word(i), and every admissible word of length >= 5
    is one of them, so every admissible word occurs: a shorter one as
    the start of its extension by zeros to length 5.  Word i has at most
    i + 5 symbols, and (i + 4)! - (i + 3)! >= i + 7, so at least two
    zeros follow every word and the stream is admissible.

    Coverage: every admissible word u of length <= 4 occurs at a multiple
    of 6 by 15!.  If u contains a 1, the length-5 word u 0^(5-|u|) is
    word r >= 1 and is written at (r+3)!; the last of them, 10101, sits
    at 15!.
    Strides 2 and 3 are not covered below 10^6: only the words up to 9!
    fit there, and 101 occurs there only at 5042.
    """

    def runs(n: int):
        if n < 6:
            return "0", 6
        k = _factorial_floor(n)
        start, word = _FACTORIALS[k], _alpha_word(k - 3)
        if n < start + len(word):
            return word[n - start:], start + len(word)
        return "0", start * (k + 1)

    return CodeStream.segmented(runs, label="alpha")


def tau_code(beta, alpha: CodeStream, x_codes) -> CodeStream:
    """Unbounded-family stream: transitive, beta-separated, target-tracking.

    Block k spans [k!, (k+1)!) and is k strings of length k!:

      1. the first k! symbols of alpha;
      2. 0^(k!/4) (100)^(k!/12) (001)^(k!/12) (010)^(k!/12);
      3. (b_0 0 0)^((k-1)!/3) ... (b_{k-1} 0 0)^((k-1)!/3);
      4. for each tracked code i = 1..k-3, 2k windows of length
         (k-1)!/2: k copy windows whose content is the tracked code read
         at the same stream indices, then k separation windows.

    Before the first block: alpha's first 5!-1 symbols and a forced 0.
    Tracked codes are recycled cyclically when fewer than k-3 are given
    (none at all, an empty iterable too, raises ValueError).
    The stream is its segments: alpha's runs, the zero and separation
    runs, the cells, and the tracked codes' runs clipped to each window.
    The separation runs, the cells and the separation windows read the
    3-cycle's codes, so each is an entry of _CYCLE_CODE, or "000".
    """
    beta = _as_stream(beta)
    x_codes = list(x_codes)
    if not x_codes:
        raise ValueError("need at least one tracked code")

    def clipped(code: CodeStream, a: int, n: int, stop: int):
        """code's run at a, placed at stream index n and cut at stop."""
        word, end = code.run_at(a)
        return word, stop if end is None else min(stop, n + end - a)

    def runs(n: int):
        if n < 119:
            return clipped(alpha, n, n, 119)
        if n == 119:
            return "0", 120
        k, fk, _, quarter, encode_sub, window = _layout(_factorial_floor(n))
        part, off = divmod(n - fk, fk)  # string part starts at n - off
        if part == 0:
            return clipped(alpha, off, n, n - off + fk)
        if part == 1:
            if off < quarter:
                return "0", n - off + quarter
            which, po = divmod(off - quarter, quarter)
            return _CYCLE_CODE[(which + 1 + po) % 3], n - po + quarter  # to run which's end
        if part == 2:
            j, po = divmod(off, encode_sub)
            return (_CYCLE_CODE[(1 + po) % 3] if beta[j] else "000"), n - po + encode_sub
        i = part - 2  # tracked code index, 1-based
        code = x_codes[(i - 1) % len(x_codes)]
        j, so = divmod(off, window)
        window_end = n - so + window
        src = n - off + (j % k) * (window - 1)  # copy_source(i, j % k + 1)
        if j < k:  # copy window j+1: the code's symbols, then a 0
            if so == window - 1:
                return "0", window_end
            return clipped(code, src + so, n, window_end - 1)
        # (100)^m, or 0 (100)^m 10 (the cycle from phase 0) where the code reads 1
        bit = code[src + fk // 2]  # separation_source(i, j - k + 1)
        return _CYCLE_CODE[(1 - bit + so) % 3], window_end

    return CodeStream.segmented(runs, label="tau(%s)" % beta.label)


class ScheduleEvent(namedtuple("ScheduleEvent", [
        "kind", "index", "source",  # kind: "close" | "far"
        "threshold",   # a Fraction, or None for the verification's eps or m_big
        "prefix_cap",  # an int, or None
        "t_offset"], defaults=(None, None, 0))):
    """One scheduled closeness or separation check.

    index is the shift applied to the first stream; t_offset is the
    extra shift of the second stream (used by the tracking windows,
    where the copy drifts by one symbol per window).  prefix_cap, when
    set, keeps the enclosure inside a separation run so that it reaches
    infinity on purpose.
    """

    __slots__ = ()


# A record from all of its fields in order, built by tuple.__new__: a
# namedtuple's generated __new__ would only pass them through, one Python
# call more per record.
_event = functools.partial(tuple.__new__, ScheduleEvent)


def schedule_events(kind: str, k_range, **params) -> list[ScheduleEvent]:
    """Exact event indices predicted by the block constructions.

    kind is a key of _SCHEDULE_PARAMS, params are its names and k_range is a
    (lo, hi) pair with 5 <= lo <= hi <= 9; a foreign name, a missing required
    one, a value out of its range (see _SCHEDULE_PARAMS; an int param must be
    an integer, not a float to truncate) or no events at all (no verdict can
    rest on none) raise ValueError.  rational_vs_tau matches
    the rational's 3-cycle phase at index n, (n - escape) % 3, with tau's.
    """
    if kind not in _SCHEDULE_PARAMS:
        raise ValueError("unknown schedule kind %r" % kind)
    required, optional = _SCHEDULE_PARAMS[kind]
    for name in params:
        if name not in required + optional:
            raise ValueError("schedule kind %r takes no param %r" % (kind, name))
    for name in required:
        if name not in params:
            raise ValueError("schedule kind %r needs the param %r" % (kind, name))
    lo, hi = k_range[0], k_range[-1]
    if not 5 <= lo <= hi <= _SCHEDULE_MAX_K:
        raise ValueError("k_range must be increasing within 5..%d" % _SCHEDULE_MAX_K)
    layouts = [_layout(k) for k in range(lo, hi + 1)]
    events: list[ScheduleEvent] = []
    # Each block's fields are read once, and BlockLayout's index methods are
    # inlined on them: part_start(p) = fk + p*fk, run_start(w) = 2*fk + (1 + w)*quarter,
    # encode_cell(j) = 3*fk + j*encode_sub, tracking_start(i) = fk + (2 + i)*fk.
    sh = _int_param("shift", params.get("shift", 0), 0)
    if kind == "theorem1":
        diffs = [_int_param("diff_indices", m, 0) for m in params.get("diff_indices", ())]
        for k, fk, _, _, _, _ in layouts:
            events.append(_event(("close", fk + 2, "zero-run k=%d" % k, None, None, 0)))
            if sh >= 1:
                events.append(_event(("far", fk + 1, "head-cell k=%d" % k, None, None, 0)))
            else:
                for m in diffs:
                    if m <= k - 2:
                        events.append(_event(("far", (m + 2) * fk + 1,
                                              "beta-cell m=%d k=%d" % (m, k), None, None, 0)))
    elif kind == "theorem2":
        diff = params.get("diff_index")
        if diff is not None:
            diff = _int_param("diff_index", diff, 0)
        for k, fk, _, quarter, encode_sub, _ in layouts:
            events.append(_event(("close", 2 * fk, "zero-run k=%d" % k, None, None, 0)))
            if sh >= 1:
                if quarter - sh - 3 < 3:
                    continue  # shift crosses the whole run at this block size
                events.append(_event(("far", 2 * fk + quarter - sh,
                                      "inf-run k=%d shift=%d" % (k, sh),
                                      None, quarter - sh - 3, 0)))
            elif diff is not None and diff <= k - 1:
                events.append(_event(("far", 3 * fk + diff * encode_sub,
                                      "beta-sub j=%d k=%d" % (diff, k),
                                      None, 3 * (encode_sub // 3) - 3, 0)))
    elif kind == "theorem2_tracked":
        i = _int_param("track_index", params["track_index"], 1)
        code = params["x_code"]
        if not isinstance(code, CodeStream):  # a str would be read as characters, never 1
            raise ValueError("schedule param 'x_code' must be a CodeStream, got %s"
                             % type(code).__name__)
        for k, fk, _, _, _, window in layouts:
            if i > k - 3:
                continue
            base, cap, half = fk + (2 + i) * fk, window - 1, fk // 2
            for j in range(1, k + 1):
                events.append(_event(("close", base, "copy-window i=%d j=%d k=%d" % (i, j, k),
                                      None, cap, j - 1)))
                delta = 1 if code[base + half] == 1 else 0  # the separation source's symbol
                events.append(_event(("far", base + half + delta,
                                      "sep-window i=%d j=%d k=%d" % (i, j, k),
                                      None, cap - delta - 1, j - 1)))
                base += cap  # windows j and j + 1 read sources window - 1 apart
    else:  # rational_vs_tau
        e = _int_param("escape", params["escape"], 0)
        eps = params.get("eps", Fraction(1, 100))
        eps = eps if isinstance(eps, Fraction) else Fraction(eps)
        en, ed = eps.numerator, eps.denominator
        if en <= 0:
            raise ValueError("eps must be positive, got %s" % eps)
        for k, fk, _, quarter, _, _ in layouts:
            # parabolic approach: the true gap scales like 1/(2*reps), reps =
            # quarter // 3; close only when 1/(2*reps) < eps * 7/8
            close_ok = 8 * ed < 14 * (quarter // 3) * en
            for which in range(3):
                run = 2 * fk + (1 + which) * quarter
                for t in range(3):
                    n = run + t
                    if n < e:
                        continue  # orbit still escaping; phase undefined
                    # run `which` starts at phase which + 1; phase 1 is infinity
                    r_ph, lim = (n - e) % 3, (which + 1 + t) % 3
                    tag = "phase k=%d run@%d t=%d (%s vs %s)" % (
                        k, run, t, _CYCLE_NAMES[r_ph], _CYCLE_NAMES[lim])
                    if r_ph == lim != 1:
                        if close_ok:
                            events.append(_event(("close", n, tag, None, None, 0)))
                    elif r_ph == 1:
                        events.append(_event(("far", n, tag, None, None, 0)))
                    elif lim == 1:
                        events.append(_event(("far", n, tag, None, quarter - t - 3, 0)))
    if not events:
        raise ValueError("no %s events in k_range %d..%d" % (kind, lo, hi))
    return events


def _distance_bounds(e1, e2):
    """Certified (lower, upper) bounds of |x - y| over the two enclosures.

    Each enclosure is its ordered endpoints (lo_num, lo_den, hi_num,
    hi_den), as coding._endpoints gives them: dens >= 0 and infinity
    (1, 0).  Each bound is an integer pair (num, den) with den >= 0, not
    necessarily in lowest terms; infinity is (1, 0).  Endpoints are
    compared by cross-multiplying num/den, with infinity 1/0 the maximum
    (as ExtendedRational compares them), and each finite bound is one
    difference of integer cross-products.
    """
    if e2[2] * e1[1] < e1[0] * e2[3]:  # e2 lies below e1: |x - y| is symmetric
        e1, e2 = e2, e1
    l1n, l1d, h1n, h1d = e1
    l2n, l2d, h2n, h2d = e2
    if h1n * l2d < l2n * h1d:  # a gap from h1 up to l2; h1 is finite
        lower = (1, 0) if not l2d else (l2n * h1d - h1n * l2d, l2d * h1d)
    else:
        lower = (0, 1)
    if not (h1d and h2d):
        return lower, (1, 0)
    # the larger of h2 - l1 and h1 - l2
    n1, d1 = h2n * l1d - l1n * h2d, h2d * l1d
    n2, d2 = h1n * l2d - l2n * h1d, h1d * l2d
    return lower, ((n1, d1) if n1 * d2 >= n2 * d1 else (n2, d2))


class EventOutcome(namedtuple("EventOutcome", [
        "event", "status",   # status: "pass" | "fail" | "inconclusive"
        "lower", "upper"])):  # each a Fraction or INFINITE_DISTANCE
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.event.kind,
            "index": str(self.event.index),
            "source": self.event.source,
            "status": self.status,
            "lower": _dist_str(self.lower),
            "upper": _dist_str(self.upper),
        }


_outcome = functools.partial(tuple.__new__, EventOutcome)  # as _event


def _dist_str(v) -> str:
    return "inf" if v == INFINITE_DISTANCE else "%d/%d" % (v.numerator, v.denominator)


def _decide(ev: ScheduleEvent, e1, e2, tn: int, td: int) -> EventOutcome:
    """Decide an event from the distance bounds of its two enclosures'
    endpoint quadruples (either bound may be infinite) at the threshold
    tn/td (td > 0) its kind reads.

    Each rule cross-multiplies a bound (num, den) with tn and td; since
    den >= 0 and td > 0, infinity (1, 0) compares above every threshold.
    The record's Fractions are built once the status is known.
    """
    (ln, ld), (un, ud) = _distance_bounds(e1, e2)
    if ev.kind == "close":
        status = "pass" if un * td < tn * ud else "fail" if ln * td >= tn * ld else "inconclusive"
    else:
        # a positive gap with an infinite upper bound certifies an excursion
        # on the unbounded side (two unbounded enclosures never have a gap)
        if ln * td > tn * ld or (ln > 0 and not ud):
            status = "pass"
        else:
            status = "fail" if un * td <= tn * ud else "inconclusive"
    return _outcome((
        ev, status, (Fraction(ln, ld) if ln else _NO_GAP) if ld else INFINITE_DISTANCE,
        Fraction(un, ud) if ud else INFINITE_DISTANCE))


def _decide_shared(ev: ScheduleEvent, e, tn: int, td: int) -> EventOutcome:
    """_decide for a close event whose two sides are the one enclosure e,
    on its width alone.

    e = (lo_num, lo_den, hi_num, hi_den) is a unimodular pair,
    hi_num*lo_den - lo_num*hi_den = 1 (see coding._endpoints), so the
    distance lies in [0, 1/w] with w = lo_den*hi_den, and w = 0 (hi
    infinite) leaves it in [0, inf]: the event passes iff td < tn*w
    (never when w = 0), and a zero lower bound never fails it.
    """
    w = e[1] * e[3]
    return _outcome((ev, "pass" if td < tn * w else "inconclusive", _NO_GAP,
                     Fraction(1, w) if w else INFINITE_DISTANCE))


def _classify(ev: ScheduleEvent, e1, e2, eps: Fraction, m_big: Fraction) -> EventOutcome:
    """_decide at the event's own threshold, else eps (close) or m_big (far)."""
    thr = ev.threshold
    if thr is None:
        thr = eps if ev.kind == "close" else m_big
    return _decide(ev, e1, e2, thr.numerator, thr.denominator)


class ScrambleReport(namedtuple("ScrambleReport", "pair outcomes")):
    """Per-event certificates plus finite limsup/liminf proxies."""

    __slots__ = ()

    def _count(self, status: str) -> int:
        return sum(o.status == status for o in self.outcomes)

    @property
    def n_pass(self) -> int:
        return self._count("pass")

    @property
    def n_fail(self) -> int:
        return self._count("fail")

    @property
    def n_inconclusive(self) -> int:
        return self._count("inconclusive")

    @property
    def decided_fraction(self) -> float:
        if not self.outcomes:
            return 1.0
        return 1.0 - self.n_inconclusive / len(self.outcomes)

    @property
    def passed(self) -> bool:
        return self.n_fail == 0 and self.n_inconclusive == 0

    @property
    def max_certified_distance(self):
        """Largest distance proved to occur (limsup proxy)."""
        return max((o.lower for o in self.outcomes), default=Fraction(0))

    @property
    def min_certified_distance(self):
        """Smallest distance proved to occur (liminf proxy)."""
        return min((o.upper for o in self.outcomes), default=INFINITE_DISTANCE)

    def to_dict(self) -> dict:
        return {
            "pair": self.pair,
            "events": [o.to_dict() for o in self.outcomes],
            "summary": {
                "pass": self.n_pass,
                "fail": self.n_fail,
                "inconclusive": self.n_inconclusive,
                "decided_fraction": self.decided_fraction,
                "max_certified_distance": _dist_str(self.max_certified_distance),
                "min_certified_distance": _dist_str(self.min_certified_distance),
            },
        }


def _thresholds(eps, m_big, budget_name: str, budget: int) -> tuple[Fraction, Fraction]:
    """eps and m_big as Fractions, rejected unless both and the prefix budget are positive."""
    eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    m_big = m_big if isinstance(m_big, Fraction) else Fraction(m_big)
    for name, value in (("eps", eps), ("m_big", m_big), (budget_name, budget)):
        if value.numerator <= 0:
            raise ValueError("%s must be positive, got %s" % (name, value))
    return eps, m_big


def _verify(first, t: CodeStream, events, eps: Fraction, m_big: Fraction,
            prefix_len: int, pair: str) -> ScrambleReport:
    """Decide each event on its two enclosures' endpoint quadruples.

    first is the first stream, enclosed from the event's index, or a
    rational's function n -> its orbit point's endpoints at n.  An
    event's enclosures share a prefix cap, prefix_len or the event's own
    cap when smaller, and a width goal, an eighth of a close event's own
    threshold, else eps / 8 (formed once).  Each side is an endpoint
    quadruple (lo_num, lo_den, hi_num, hi_den); t's is enclosed from its
    own index n + t_offset by coding._enclose, with no shifted stream
    and no record.  eps's and m_big's integers are read once, and each
    event is decided at its threshold's integers (_decide).

    A periodic first stream is enclosed past its preperiod once per key,
    and the key's enclosure serves every later event with that key.
    From an index n >= p (its preperiod) it reads its period from phase
    n mod q on, so two such indices of one phase read the same symbols,
    and the walk, a function of the symbols, the cap and the goal, stops
    at the same matrix under the same cap and goal.  A walk that met its
    goal after `used` symbols stopped at the first prefix that meets it
    (cylinders nest, so their widths only shrink), which any cap >= used
    reaches too: its key is (phase, goal).  A walk that stopped at its
    cap read exactly cap symbols: its key is (phase, goal, cap).

    At a close event, where the constructions make both codes read one
    long block, the first stream's enclosure stands for t's too when
    both opening runs (run_at) read the same word for at least the
    symbols it consumed: t then reads the same prefix under the same cap
    and goal, so its walk stops at the same matrix, and the event is
    decided on that enclosure's width (_decide_shared).  An event's cap
    or threshold that is not positive is refused (ValueError) before any
    enclosure, and so is no events at all, as no verdict can rest on it.
    """
    s = first if isinstance(first, CodeStream) else None
    q = s._q if s is not None and s._cycle is not None else 0  # 0: no period list
    known = {}  # a periodic first stream's enclosures past its preperiod, by key
    close_n, close_d = eps.numerator, eps.denominator
    far_n, far_d = m_big.numerator, m_big.denominator
    g = math.gcd(close_n, 8)  # eps / 8 in lowest terms
    eps_num, eps_den = close_n // g, close_d * (8 // g)
    outcomes = []
    for ev in events:
        kind, index, _, thr, cap, t_offset = ev
        if cap is not None and cap < 1 or thr is not None and thr <= 0:
            raise ValueError("prefix_cap and threshold must be positive: %s" % (ev,))
        if cap is None or cap > prefix_len:
            cap = prefix_len
        num, den = eps_num, eps_den
        if thr is None:
            tn, td = (close_n, close_d) if kind == "close" else (far_n, far_d)
        else:
            tn, td = thr.numerator, thr.denominator
            if kind == "close":
                g = math.gcd(tn, 8)  # thr / 8 in lowest terms
                num, den = tn // g, td * (8 // g)
        t_index = index + t_offset
        if s is None:
            e1 = first(index)
        else:
            if q and index >= s._p:
                met = (index % q, num, den)  # a met walk serves every cap >= its used
                hit = known.get(met)
                if hit is None or cap < hit[1]:
                    bound = met + (cap,)  # a walk its cap stopped serves that cap alone
                    hit = known.get(bound)
                    if hit is None:
                        m, last, used, ok = _enclose(s, index, cap, num, den)
                        hit = known[met if ok else bound] = _endpoints(m, last), used
                e1, used = hit
            else:
                m, last, used, _ = _enclose(s, index, cap, num, den)
                e1 = _endpoints(m, last)
            if kind == "close":
                word1, end1 = s.run_at(index)
                word2, end2 = t.run_at(t_index)
                if (word1 == word2 and (end1 is None or end1 - index >= used)
                        and (end2 is None or end2 - t_index >= used)):
                    outcomes.append(_decide_shared(ev, e1, tn, td))
                    continue
        m, last, _, _ = _enclose(t, t_index, cap, num, den)
        outcomes.append(_decide(ev, e1, _endpoints(m, last), tn, td))
    if not outcomes:
        raise ValueError("no events to verify")
    return ScrambleReport(pair, outcomes)


def verify_scrambling(s: CodeStream, t: CodeStream, events,
                      eps=Fraction(1, 100), m_big=Fraction(3, 2),
                      prefix_len: int = 10 ** 5,
                      pair: str = "") -> ScrambleReport:
    """Check each scheduled event with certified cylinder enclosures.

    Close events pass when the enclosures force |x - y| < eps, far
    events when they force a gap above m_big or a positive gap with an
    infinite upper bound (an enclosure reaching infinity).  An enclosure
    too wide to decide yields "inconclusive", never a silent pass.  eps,
    m_big and prefix_len must be positive (ValueError, raised before any
    enclosure); no events at all is refused (ValueError), as no verdict
    can rest on it.
    """
    eps, m_big = _thresholds(eps, m_big, "prefix_len", prefix_len)
    return _verify(s, t, events, eps, m_big, prefix_len, pair or "%s vs %s" % (s.label, t.label))


def rational_vs_tau(r: ExtendedRational, t: CodeStream, k_range,
                    eps=Fraction(1, 100), m_big=Fraction(1000),
                    prefix_budget: int = 10 ** 6) -> ScrambleReport:
    """Period-3 phase alignment of a rational orbit against a tau-point.

    After its finite escape the rational cycles 0 -> infinity -> 1; the
    tau stream's separation runs park its point near infinity, 1 and 0
    in rotation at indices divisible by 3.  Matching finite phases give
    certified close events; the infinity phases give certified far
    events (an exactly-infinite orbit point against a bounded enclosure,
    or an enclosure pushed past every bound while the orbit sits at a
    finite cycle point).  eps, m_big and prefix_budget must be positive
    (ValueError, raised before any enclosure).
    """
    if r.is_infinite:
        raise ValueError("r must be a finite rational")
    eps, m_big = _thresholds(eps, m_big, "prefix_budget", prefix_budget)
    e = escape_time(r)
    events = schedule_events("rational_vs_tau", k_range, escape=e, eps=eps)
    # the exact orbit point; the schedule skips n < e
    return _verify(lambda n: _CYCLE_POINTS[(n - e) % 3], t, events, eps, m_big, prefix_budget,
                   "rational %s vs %s" % (r, t.label))


_G_NODES = (
    (Fraction(0), Fraction(1)),
    (Fraction(1, 6), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1), Fraction(1, 2)),
)


def g_map(x) -> Fraction:
    """Piecewise-linear map on [0, 1] with a period-3 orbit {0, 1/2, 1}
    but no invariant scrambled set: 1/4 is its unique fixed point and
    everything in (1/6, 1/4) and (1/4, 1/3) has period 2."""
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError("g is defined on [0, 1]")
    for (x0, y0), (x1, y1) in zip(_G_NODES, _G_NODES[1:]):
        if x <= x1:
            return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    raise AssertionError("unreachable")
