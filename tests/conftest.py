import os
from fractions import Fraction

from hypothesis import settings

from fareyshift.coding import CodeStream, _enclose, _endpoints
from fareyshift.exact import _escape_runs
from fareyshift.scrambled import _classify

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
