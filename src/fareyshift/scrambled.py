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

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .coding import (
    CodeStream,
    FareyInterval,
    iter_admissible_words,
    point_of_code,
)
from .exact import (
    INF,
    INFINITE_DISTANCE,
    ONE,
    ZERO,
    ExtendedRational,
    escape_time,
    phi_rat,
)

_RUNS = ("100", "001", "010")
_TAU_MAX_K = 16  # largest block tau_code will index
_SCHEDULE_MAX_K = 9  # largest block schedule_events will schedule


def _as_stream(bits) -> CodeStream:
    if isinstance(bits, CodeStream):
        return bits
    return CodeStream.periodic("", str(bits))  # the finite word repeated forever


def _rotate(word: str, j: int) -> str:
    """word read from position j on, cyclically."""
    j %= len(word)
    return word[j:] + word[:j]


@dataclass(frozen=True)
class BlockLayout:
    """Exact index arithmetic of the factorial block spanning [k!, (k+1)!).

    Both stream families tile this block with k strings of length k!;
    the derived offsets below are the ones the event schedules address.
    All sub-lengths divide evenly for k >= 5.
    """

    k: int
    start: int       # k!
    length: int      # k * k!, the whole block
    string_len: int  # k!, one constituent string
    quarter: int     # k!/4, zero-run prefix of the separation string
    encode_sub: int  # (k-1)!, one parameter cell of the encoding string
    window: int      # (k-1)!/2, one tracking window

    @classmethod
    def for_k(cls, k: int) -> "BlockLayout":
        if k < 5:
            raise ValueError("blocks start at k = 5")
        fk = math.factorial(k)
        return cls(k, fk, k * fk, fk, fk // 4, fk // k, fk // k // 2)

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


def _block_at(n: int) -> BlockLayout:
    """Layout of the block [k!, (k+1)!) holding the index n >= 5!."""
    k, fk = 5, 120
    while fk * (k + 1) <= n:
        k += 1
        fk *= k
    return _layout(k)


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
        lay = _block_at(n)
        j, off = divmod(n - lay.start, lay.string_len)
        cell = lay.part_start(j) + 1
        if off == 1:
            return ("1" if j == 0 else str(beta[j - 1])), cell + 1
        return "0", cell if off == 0 else cell + lay.string_len  # to the next cell

    return CodeStream.segmented(runs, label="mu(%s)" % beta.label)


def _build_alpha_blocks():
    """Resolved (start, word) table for the transitive stream.

    Words come in length-lexicographic order from length 5 up; block i
    sits at (m_i)! for the minimal increasing schedule satisfying
    (m_i)! > (m_{i-1})! + |B_{i-1}| + 1, up to 10^18.
    """
    blocks = []
    m, end = 0, -1  # end: one past the previous block
    for word in iter_admissible_words(5):
        m += 1
        while math.factorial(m) <= end + 1:
            m += 1
        start = math.factorial(m)
        if start > 10 ** 18:
            break
        blocks.append((start, word))
        end = start + len(word)
    return tuple(blocks)


def alpha_transitive() -> CodeStream:
    """Stream with the i-th admissible word written at (m_i)!, zeros elsewhere.

    Admissible as a whole because consecutive blocks are separated by at
    least two zeros (the schedule constraint).

    Coverage: every admissible word u of length <= 4 occurs at a multiple
    of 6 by 15!.  If u contains a 1, the length-5 word u 0^(5-|u|) has
    rank r >= 1 among the 13 of its length and is written at (r+3)!; the
    last of them, 10101, sits at 15!.
    Strides 2 and 3 are not covered below 10^6: only the blocks up to 9!
    fit there, and 101 occurs there only at 5042.
    """
    blocks = _build_alpha_blocks()
    starts = [s for s, _ in blocks]

    def runs(n: int):
        i = bisect.bisect_right(starts, n) - 1
        if i >= 0:
            start, word = blocks[i]
            if n < start + len(word):
                return word[n - start:], start + len(word)
        return "0", starts[i + 1] if i + 1 < len(starts) else None

    return CodeStream.segmented(runs, label="alpha")


def tau_code(beta, alpha: CodeStream | None = None, x_codes=None) -> CodeStream:
    """Unbounded-family stream: transitive, beta-separated, target-tracking.

    Block k spans [k!, (k+1)!) and is k strings of length k!:

      1. the first k! symbols of alpha;
      2. 0^(k!/4) (100)^(k!/12) (001)^(k!/12) (010)^(k!/12);
      3. (b_0 0 0)^((k-1)!/3) ... (b_{k-1} 0 0)^((k-1)!/3);
      4. for each tracked code i = 1..k-3, 2k windows of length
         (k-1)!/2: k copy windows whose content is the tracked code read
         at the same stream indices, then k separation windows.

    Before the first block: alpha's first 5!-1 symbols and a forced 0.
    Tracked codes are recycled cyclically when fewer than k-3 are given.
    The stream is its segments: alpha's runs, the zero and separation
    runs, the cells, and the tracked codes' runs clipped to each window.
    """
    beta = _as_stream(beta)
    if alpha is None:
        alpha = alpha_transitive()
    if not x_codes:
        raise ValueError("need at least one tracked code")
    x_codes = list(x_codes)

    def clipped(code: CodeStream, a: int, n: int, stop: int):
        """code's run at a, placed at stream index n and cut at stop."""
        word, end = code.run_at(a)
        return word, stop if end is None else min(stop, n + end - a)

    def runs(n: int):
        if n < 119:
            return clipped(alpha, n, n, 119)
        if n == 119:
            return "0", 120
        lay = _block_at(n)
        if lay.k > _TAU_MAX_K:
            raise ValueError("index beyond the configured max block size k=%d" % _TAU_MAX_K)
        part, off = divmod(n - lay.start, lay.string_len)
        if part == 0:
            return clipped(alpha, off, n, lay.part_start(1))
        if part == 1:
            if off < lay.quarter:
                return "0", lay.run_start(0)
            which, po = divmod(off - lay.quarter, lay.quarter)
            return _rotate(_RUNS[which], po), lay.run_start(which) + lay.quarter
        if part == 2:
            j, po = divmod(off, lay.encode_sub)
            return _rotate(str(beta[j]) + "00", po), lay.encode_cell(j) + lay.encode_sub
        i = part - 2  # tracked code index, 1-based
        code = x_codes[(i - 1) % len(x_codes)]
        j, so = divmod(off, lay.window)
        window_end = n - so + lay.window
        if j < lay.k:  # copy window j+1: the code's symbols, then a 0
            if so == lay.window - 1:
                return "0", window_end
            return clipped(code, lay.copy_source(i, j + 1) + so, n, window_end - 1)
        if code[lay.separation_source(i, j - lay.k + 1)] == 1:  # 0 (100)^m 10
            if so == 0:
                return "0", n + 1
            so -= 1
        return _rotate("100", so), window_end

    return CodeStream.segmented(runs, label="tau(%s)" % beta.label)


@dataclass(frozen=True)
class ScheduleEvent:
    """One scheduled closeness or separation check.

    index is the shift applied to the first stream; t_offset is the
    extra shift of the second stream (used by the tracking windows,
    where the copy drifts by one symbol per window).  prefix_cap, when
    set, keeps the enclosure inside a separation run so that it reaches
    infinity on purpose.
    """

    kind: str                 # "close" | "far"
    index: int
    source: str
    threshold: Fraction | None = None
    prefix_cap: int | None = None
    t_offset: int = 0


def schedule_events(kind: str, k_range, **params) -> list[ScheduleEvent]:
    """Exact event indices predicted by the block constructions.

    kinds:
      "theorem1"         params: shift (int >= 0), diff_indices (iterable)
      "theorem2"         params: shift (int >= 0), diff_index (int | None)
      "theorem2_tracked" params: track_index (int >= 1), x_code (CodeStream)
      "rational_vs_tau"  params: escape (int), eps (Fraction)

    k_range must lie within 5..9.
    """
    lo, hi = (k_range[0], k_range[-1]) if not isinstance(k_range, int) else (k_range, k_range)
    if lo < 5 or hi > _SCHEDULE_MAX_K:
        raise ValueError("k_range must lie within 5..%d" % _SCHEDULE_MAX_K)
    layouts = [BlockLayout.for_k(k) for k in range(lo, hi + 1)]
    events: list[ScheduleEvent] = []
    if kind == "theorem1":
        sh = int(params.get("shift", 0))
        diffs = tuple(params.get("diff_indices", ()))
        for lay in layouts:
            events.append(ScheduleEvent("close", lay.start + 2, "zero-run k=%d" % lay.k))
            if sh >= 1:
                events.append(ScheduleEvent("far", lay.start + 1, "head-cell k=%d" % lay.k))
            else:
                for m in diffs:
                    if m <= lay.k - 2:
                        events.append(ScheduleEvent(
                            "far", lay.part_start(m + 1) + 1,
                            "beta-cell m=%d k=%d" % (m, lay.k)))
    elif kind == "theorem2":
        sh = int(params.get("shift", 0))
        diff = params.get("diff_index")
        for lay in layouts:
            events.append(ScheduleEvent("close", lay.part_start(1), "zero-run k=%d" % lay.k))
            if sh >= 1:
                if lay.quarter - sh - 3 < 3:
                    continue  # shift crosses the whole run at this block size
                events.append(ScheduleEvent(
                    "far", lay.run_start(0) - sh, "inf-run k=%d shift=%d" % (lay.k, sh),
                    prefix_cap=lay.quarter - sh - 3))
            elif diff is not None and diff <= lay.k - 1:
                events.append(ScheduleEvent(
                    "far", lay.encode_cell(diff), "beta-sub j=%d k=%d" % (diff, lay.k),
                    prefix_cap=3 * (lay.encode_sub // 3) - 3))
    elif kind == "theorem2_tracked":
        i = int(params["track_index"])
        code = params["x_code"]
        for lay in layouts:
            if i > lay.k - 3:
                continue
            for j in range(1, lay.k + 1):
                events.append(ScheduleEvent(
                    "close", lay.copy_source(i, j),
                    "copy-window i=%d j=%d k=%d" % (i, j, lay.k),
                    prefix_cap=lay.window - 1, t_offset=j - 1))
                a_star = lay.separation_source(i, j)
                delta = 1 if code[a_star] == 1 else 0
                events.append(ScheduleEvent(
                    "far", a_star + delta,
                    "sep-window i=%d j=%d k=%d" % (i, j, lay.k),
                    prefix_cap=lay.window - delta - 2, t_offset=j - 1))
    elif kind == "rational_vs_tau":
        e = int(params["escape"])
        eps = Fraction(params.get("eps", Fraction(1, 100)))
        cycle = ("zero", "inf", "one")
        rotations = (("inf", "one", "zero"), ("one", "zero", "inf"), ("zero", "inf", "one"))
        for lay in layouts:
            reps = lay.quarter // 3
            for which, limits in enumerate(rotations):
                run = lay.run_start(which)
                for t in range(3):
                    n = run + t
                    if n < e:
                        continue  # orbit still escaping; phase undefined
                    r_ph = cycle[(n - e) % 3]
                    lim = limits[t]
                    tag = "phase k=%d run@%d t=%d (%s vs %s)" % (lay.k, run, t, r_ph, lim)
                    if r_ph == lim and r_ph in ("zero", "one"):
                        # parabolic approach: the true gap scales like 1/(2*reps)
                        if Fraction(1, 2 * reps) < eps * Fraction(7, 8):
                            events.append(ScheduleEvent("close", n, tag))
                    elif r_ph == "inf":
                        events.append(ScheduleEvent("far", n, tag))
                    elif lim == "inf":
                        events.append(ScheduleEvent(
                            "far", n, tag, prefix_cap=lay.quarter - t - 3))
    else:
        raise ValueError("unknown schedule kind %r" % kind)
    return events


def _distance_bounds(e1: FareyInterval, e2: FareyInterval):
    """Certified (lower, upper) bounds of |x - y| over the two enclosures."""
    if e1.hi < e2.lo:
        lower = INFINITE_DISTANCE if e2.lo.is_infinite else \
            e2.lo.as_fraction() - e1.hi.as_fraction()
    elif e2.hi < e1.lo:
        lower = INFINITE_DISTANCE if e1.lo.is_infinite else \
            e1.lo.as_fraction() - e2.hi.as_fraction()
    else:
        lower = Fraction(0)
    if not (e1.is_bounded and e2.is_bounded):
        upper = INFINITE_DISTANCE
    else:
        upper = max(e2.hi.as_fraction() - e1.lo.as_fraction(),
                    e1.hi.as_fraction() - e2.lo.as_fraction())
    return lower, upper


@dataclass(frozen=True)
class EventOutcome:
    event: ScheduleEvent
    status: str  # "pass" | "fail" | "inconclusive"
    lower: Fraction | float  # a Fraction or INFINITE_DISTANCE
    upper: Fraction | float

    def to_dict(self) -> dict:
        return {
            "kind": self.event.kind,
            "index": str(self.event.index),
            "source": self.event.source,
            "status": self.status,
            "lower": _dist_str(self.lower),
            "upper": _dist_str(self.upper),
        }


def _dist_str(v) -> str:
    return "inf" if v == INFINITE_DISTANCE else "%d/%d" % (v.numerator, v.denominator)


def _classify(ev: ScheduleEvent, e1: FareyInterval, e2: FareyInterval,
              eps: Fraction, m_big: Fraction) -> EventOutcome:
    """Decide an event from its distance bounds (either may be infinite)."""
    lower, upper = _distance_bounds(e1, e2)
    if ev.kind == "close":
        thr = eps if ev.threshold is None else ev.threshold
        status = "pass" if upper < thr else "fail" if lower >= thr else "inconclusive"
    else:
        thr = m_big if ev.threshold is None else ev.threshold
        # a positive gap with an infinite upper bound certifies an excursion
        # on the unbounded side (two unbounded enclosures never have a gap)
        if lower > thr or (lower > 0 and upper == INFINITE_DISTANCE):
            status = "pass"
        else:
            status = "fail" if upper <= thr else "inconclusive"
    return EventOutcome(ev, status, lower, upper)


@dataclass
class ScrambleReport:
    """Per-event certificates plus finite limsup/liminf proxies."""

    pair: str
    outcomes: list

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


def _thresholds(eps, m_big) -> tuple[Fraction, Fraction]:
    """eps and m_big as Fractions, rejected unless both are positive."""
    eps, m_big = Fraction(eps), Fraction(m_big)
    for name, value in (("eps", eps), ("m_big", m_big)):
        if value <= 0:
            raise ValueError("%s must be positive, got %s" % (name, value))
    return eps, m_big


def _enclosure_rule(ev: ScheduleEvent, prefix_len: int, eps: Fraction):
    """(prefix cap, width goal) shared by an event's enclosures.

    The cap is prefix_len, or the event's own cap when smaller; the goal
    is an eighth of the close threshold (eps unless the event sets one).
    """
    cap = min(prefix_len, ev.prefix_cap) if ev.prefix_cap else prefix_len
    if ev.kind == "close" and ev.threshold:
        return cap, Fraction(ev.threshold) / 8
    return cap, eps / 8


def verify_scrambling(s: CodeStream, t: CodeStream, events,
                      eps=Fraction(1, 100), m_big=Fraction(3, 2),
                      prefix_len: int = 10 ** 5,
                      pair: str = "") -> ScrambleReport:
    """Check each scheduled event with certified cylinder enclosures.

    Close events pass when the enclosures force |x - y| < eps, far
    events when they force a gap above m_big or a positive gap with an
    infinite upper bound (an enclosure reaching infinity).  An enclosure
    too wide to decide yields "inconclusive", never a silent pass.  eps
    and m_big must be positive (ValueError, raised before any enclosure).
    """
    eps, m_big = _thresholds(eps, m_big)
    outcomes = []
    for ev in events:
        cap, goal = _enclosure_rule(ev, prefix_len, eps)
        e1 = point_of_code(s.shifted(ev.index), cap, goal).interval
        e2 = point_of_code(t.shifted(ev.index + ev.t_offset), cap, goal).interval
        outcomes.append(_classify(ev, e1, e2, eps, m_big))
    return ScrambleReport(pair or "%s vs %s" % (s.label, t.label), outcomes)


def _orbit_point(r: ExtendedRational, e: int, n: int) -> ExtendedRational:
    if n >= e:
        return (ZERO, INF, ONE)[(n - e) % 3]
    y = r
    for _ in range(n):
        y = phi_rat(y)
    return y


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
    finite cycle point).
    """
    if r.is_infinite:
        raise ValueError("r must be a finite rational")
    eps, m_big = _thresholds(eps, m_big)
    e = escape_time(r)
    events = schedule_events("rational_vs_tau", k_range, escape=e, eps=eps)
    outcomes = []
    for ev in events:
        rp = _orbit_point(r, e, ev.index)
        e1 = FareyInterval(rp, rp)
        e2 = point_of_code(t.shifted(ev.index), *_enclosure_rule(ev, prefix_budget, eps)).interval
        outcomes.append(_classify(ev, e1, e2, eps, m_big))
    return ScrambleReport("rational %s vs %s" % (r, t.label), outcomes)


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
