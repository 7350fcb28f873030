import os

from hypothesis import settings

from fareyshift.coding import CodeStream

# HYPOTHESIS_PROFILE=ci runs every property test on a fixed example
# sequence with no deadline, so a CI run cannot flake; locally the
# default profile applies.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def per_symbol_stream(fn, label="procedural"):
    """A stream given symbol by symbol: fn(n) is symbol n, each a one-symbol segment."""
    return CodeStream.segmented(lambda n: ("1" if fn(n) else "0", n + 1), label=label)


def pre_and_period(s):
    """A periodic stream's preperiod and its period from there on, read off
    run_at(0) and, after a preperiod of length p, run_at(p)."""
    word, p = s.run_at(0)
    return ("", word) if p is None else (word, s.run_at(p)[0])
