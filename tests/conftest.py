import os
from fractions import Fraction

from hypothesis import settings

from fareyshift.coding import _CYCLE_CODE, CodeStream, _enclose, _endpoints
from fareyshift.exact import _escape_runs
from fareyshift.scrambled import _CYCLE_NAMES, ScheduleEvent, _as_stream, _classify, _layout

# HYPOTHESIS_PROFILE=ci runs every property test on a fixed example
# sequence with no deadline, so a CI run cannot flake; locally the
# default profile applies.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def per_symbol_stream(fn, label="procedural"):
    """A stream given symbol by symbol: fn(n) is symbol n, each a one-symbol segment."""
    return CodeStream.segmented(lambda n: ("1" if fn(n) else "0", n + 1), label=label)


def pre_and_period(s):
    """An eventually periodic stream's preperiod and its period from there on:
    the join of its runs from index 0, each read up to its end, up to the run
    whose end is None, and that run."""
    words, i = [], 0
    while True:
        word, end = s.run_at(i)
        if end is None:
            return "".join(words), word
        words.append((word * -(-(end - i) // len(word)))[:end - i])
        i = end


def escape_word(x, tie_high=False):
    """The escape word of a rational x as one string, the way the library built
    it before a code was its runs: the runs joined, then the tie rule applied to
    the joined word's last symbol."""
    word = "".join("100" * passes + tail for passes, tail in _escape_runs(x))
    return word[:-1] + "1" if tie_high and word else word


def _verify_both_sides(s, t, events, eps, m_big, prefix_len):
    """verify_scrambling's outcomes the slow way, for positive eps, m_big and
    prefix_len: both sides of every event enclosed, s from the event's index
    and t from index + t_offset, at the shared cap (prefix_len, or the
    event's own cap when smaller) and goal (an eighth of a close event's own
    threshold, else eps / 8), and classified on the two enclosures."""
    eps, m_big = Fraction(eps), Fraction(m_big)
    outcomes = []
    for ev in events:
        cap = prefix_len if ev.prefix_cap is None else min(prefix_len, ev.prefix_cap)
        goal = Fraction(ev.threshold) / 8 if ev.kind == "close" and ev.threshold is not None \
            else eps / 8
        num, den = goal.numerator, goal.denominator
        e1 = _endpoints(*_enclose(s, ev.index, cap, num, den)[:2])
        e2 = _endpoints(*_enclose(t, ev.index + ev.t_offset, cap, num, den)[:2])
        outcomes.append(_classify(ev, e1, e2, eps, m_big))
    return outcomes


# The scramble layer as it read each block through BlockLayout's methods,
# before its runs and schedule inlined the offsets on the block's fields.

def _factorial_floor_by_loop(n):
    """The k with k! <= n < (k+1)!, for n >= 3!, by one k! multiply a step."""
    k, fk = 3, 6
    while fk * (k + 1) <= n:
        k += 1
        fk *= k
    return k


def _mu_code_by_layout(beta):
    """mu_code with each run's offsets from BlockLayout's methods."""
    beta = _as_stream(beta)

    def runs(n):
        if n < 120:
            return "0", 121
        lay = _layout(_factorial_floor_by_loop(n))
        j, off = divmod(n - lay.start, lay.string_len)
        cell = lay.part_start(j) + 1
        if off == 1:
            return ("1" if j == 0 else str(beta[j - 1])), cell + 1
        return "0", cell if off == 0 else cell + lay.string_len

    return CodeStream.segmented(runs, label="mu(%s)" % beta.label)


def _tau_code_by_layout(beta, alpha, x_codes):
    """tau_code with each run's offsets from BlockLayout's methods."""
    beta = _as_stream(beta)
    x_codes = list(x_codes)

    def clipped(code, a, n, stop):
        word, end = code.run_at(a)
        return word, stop if end is None else min(stop, n + end - a)

    def runs(n):
        if n < 119:
            return clipped(alpha, n, n, 119)
        if n == 119:
            return "0", 120
        lay = _layout(_factorial_floor_by_loop(n))
        part, off = divmod(n - lay.start, lay.string_len)
        if part == 0:
            return clipped(alpha, off, n, lay.part_start(1))
        if part == 1:
            if off < lay.quarter:
                return "0", lay.run_start(0)
            which, po = divmod(off - lay.quarter, lay.quarter)
            return _CYCLE_CODE[(which + 1 + po) % 3], lay.run_start(which) + lay.quarter
        if part == 2:
            j, po = divmod(off, lay.encode_sub)
            return (_CYCLE_CODE[(1 + po) % 3] if beta[j] else "000"), n - po + lay.encode_sub
        i = part - 2
        code = x_codes[(i - 1) % len(x_codes)]
        j, so = divmod(off, lay.window)
        window_end = n - so + lay.window
        if j < lay.k:
            if so == lay.window - 1:
                return "0", window_end
            return clipped(code, lay.copy_source(i, j + 1) + so, n, window_end - 1)
        bit = code[lay.separation_source(i, j - lay.k + 1)]
        return _CYCLE_CODE[(1 - bit + so) % 3], window_end

    return CodeStream.segmented(runs, label="tau(%s)" % beta.label)


def _schedule_events_by_layout(kind, k_range, **params):
    """schedule_events' events for valid params, each index from BlockLayout's
    methods; no events at all raise ValueError with schedule_events' message."""
    lo, hi = k_range[0], k_range[-1]
    layouts = [_layout(k) for k in range(lo, hi + 1)]
    events = []
    sh = params.get("shift", 0)
    if kind == "theorem1":
        for lay in layouts:
            events.append(ScheduleEvent("close", lay.start + 2, "zero-run k=%d" % lay.k))
            if sh >= 1:
                events.append(ScheduleEvent("far", lay.start + 1, "head-cell k=%d" % lay.k))
            else:
                for m in params.get("diff_indices", ()):
                    if m <= lay.k - 2:
                        events.append(ScheduleEvent(
                            "far", lay.part_start(m + 1) + 1,
                            "beta-cell m=%d k=%d" % (m, lay.k)))
    elif kind == "theorem2":
        diff = params.get("diff_index")
        for lay in layouts:
            events.append(ScheduleEvent("close", lay.part_start(1), "zero-run k=%d" % lay.k))
            if sh >= 1:
                if lay.quarter - sh - 3 < 3:
                    continue
                events.append(ScheduleEvent(
                    "far", lay.run_start(0) - sh, "inf-run k=%d shift=%d" % (lay.k, sh),
                    prefix_cap=lay.quarter - sh - 3))
            elif diff is not None and diff <= lay.k - 1:
                events.append(ScheduleEvent(
                    "far", lay.encode_cell(diff), "beta-sub j=%d k=%d" % (diff, lay.k),
                    prefix_cap=3 * (lay.encode_sub // 3) - 3))
    elif kind == "theorem2_tracked":
        i, code = params["track_index"], params["x_code"]
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
    else:  # rational_vs_tau
        e = params["escape"]
        eps = Fraction(params.get("eps", Fraction(1, 100)))
        for lay in layouts:
            reps = lay.quarter // 3
            for which in range(3):
                run = lay.run_start(which)
                for t in range(3):
                    n = run + t
                    if n < e:
                        continue
                    r_ph, lim = (n - e) % 3, (which + 1 + t) % 3
                    tag = "phase k=%d run@%d t=%d (%s vs %s)" % (
                        lay.k, run, t, _CYCLE_NAMES[r_ph], _CYCLE_NAMES[lim])
                    if r_ph == lim != 1:
                        if 8 * eps.denominator < 14 * reps * eps.numerator:
                            events.append(ScheduleEvent("close", n, tag))
                    elif r_ph == 1:
                        events.append(ScheduleEvent("far", n, tag))
                    elif lim == 1:
                        events.append(ScheduleEvent(
                            "far", n, tag, prefix_cap=lay.quarter - t - 3))
    if not events:
        raise ValueError("no %s events in k_range %d..%d" % (kind, lo, hi))
    return events
