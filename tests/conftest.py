import os

from hypothesis import settings

from fareyshift.coding import CodeStream
from fareyshift.exact import _escape_runs

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
