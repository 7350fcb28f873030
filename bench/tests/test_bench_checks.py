"""The benchmark's checkers: planted wrong results must count as failed."""

import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from fareyshift import (  # noqa: E402
    INFINITE_DISTANCE,
    CodeStream,
    EventOutcome,
    ScheduleEvent,
    admissible_words,
    cylinder,
    periodic_point,
    point_of_code,
)


def _pair(x):
    return (x.num, x.den)


def _enclose_case(digits=40):
    pre, per = "10", "0010"
    op = (CodeStream.periodic(pre, per), pre, per, Fraction(1, 10 ** digits))
    enc = point_of_code(op[0], workloads.EncloseDeep.MAX_PREFIX, op[3])
    x = periodic_point(pre, per)
    return op, enc, (x.p, x.q, x.r, x.d)


def _check(op, point, lo, hi, prefix_len, width_ok):
    _, pre, per, goal = op
    return checks.check_enclosure(point, workloads._word_of(pre, per), goal,
                                  workloads.EncloseDeep.MAX_PREFIX, lo, hi, prefix_len, width_ok)


def test_cylinder_walk_matches_library():
    for n in range(1, 9):
        for word in admissible_words(n):
            iv = cylinder(word)
            assert checks.cylinder_pair(word) == (_pair(iv.lo), _pair(iv.hi)), word


def test_true_enclosure_passes():
    op, enc, point = _enclose_case()
    assert _check(op, point, _pair(enc.interval.lo), _pair(enc.interval.hi),
                  enc.prefix_len, enc.width_ok) == []


def test_enclosure_moved_off_the_point_fails():
    op, enc, point = _enclose_case()
    lo, hi = _pair(enc.interval.lo), _pair(enc.interval.hi)
    width = Fraction(*hi) - Fraction(*lo)
    moved = Fraction(*hi) + width
    problems = _check(op, point, hi, (moved.numerator, moved.denominator),
                      enc.prefix_len, enc.width_ok)
    assert any("misses the exact point" in p for p in problems)


def test_non_minimal_prefix_fails():
    op, _, point = _enclose_case()
    deeper = point_of_code(op[0], 10 ** 4, op[3] / 10 ** 6)
    problems = _check(op, point, _pair(deeper.interval.lo), _pair(deeper.interval.hi),
                      deeper.prefix_len, True)
    assert any("prefix not minimal" in p for p in problems)


def test_claimed_width_goal_fails_when_too_wide():
    op, enc, point = _enclose_case()
    shallow = point_of_code(op[0], enc.prefix_len - 5, op[3])
    problems = _check(op, point, _pair(shallow.interval.lo), _pair(shallow.interval.hi),
                      shallow.prefix_len, True)
    assert any("width is not below the goal" in p for p in problems)


def test_close_pass_needs_upper_below_eps():
    eps = Fraction(1, 100)
    ev = ScheduleEvent("close", 120, "planted")
    bad = EventOutcome(ev, "pass", Fraction(0), eps)
    good = EventOutcome(ev, "pass", Fraction(0), eps / 2)
    assert any("close pass" in p for p in checks.check_outcomes([ev], [bad], eps))
    assert checks.check_outcomes([ev], [good], eps) == []


def test_far_pass_needs_positive_lower_bound():
    eps = Fraction(1, 100)
    ev = ScheduleEvent("far", 121, "planted")
    bad = EventOutcome(ev, "pass", Fraction(0), INFINITE_DISTANCE)
    good = EventOutcome(ev, "pass", Fraction(1, 7), INFINITE_DISTANCE)
    assert any("far pass" in p for p in checks.check_outcomes([ev], [bad], eps))
    assert checks.check_outcomes([ev], [good], eps) == []


def test_missing_outcome_fails():
    eps = Fraction(1, 100)
    events = [ScheduleEvent("close", 120, "a"), ScheduleEvent("far", 121, "b")]
    outcomes = [EventOutcome(events[0], "inconclusive", Fraction(0), Fraction(1))]
    assert checks.check_outcomes(events, outcomes, eps)


def test_real_scramble_reports_pass_their_checks():
    wl = workloads.ScrambleVerify(7, tiny=True)
    for op in wl.ops:
        problems, undecided, units = wl.check(op, wl.run(op))
        assert problems == [], op[0]
        assert 0 <= undecided <= units


def test_cli_checks_catch_bad_exit_and_wrong_rows():
    assert checks.check_cli(["interval", "0100"], 1, "", "") == ["exit code 1"]
    rows = "index,fraction,h\n0,0/1,0/2^0\n1,2/1,1/2^1\n2,1/0,1/2^0\n"
    summary = '{"reciprocal": true, "unit_sum": true, "phi_fold": true, "phi_refine": true}'
    assert checks.check_cli(["farey", "--level", "1", "--report"], 0, rows, summary)
    good = rows.replace("2/1", "1/1")
    assert checks.check_cli(["farey", "--level", "1", "--report"], 0, good, summary) == []


def test_real_conjugacy_cli_ops_pass_their_checks(tmp_path):
    wl = workloads.ConjugacyCli(7, tiny=True, out_dir=str(tmp_path))
    for op in wl.ops:
        result = wl.collect(op, wl.run(op))
        problems, _, _ = wl.check(op, result)
        assert problems == [], op
