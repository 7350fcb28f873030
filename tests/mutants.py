"""Replayable mutation checks: each hand-made fault must fail the tests named for it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the mutants with these names

Each row of MUTANTS is one fault: a file under src/, a text that occurs in
it exactly once, the text that replaces it, and the test ids that must
catch it.  For each row the runner copies src/ to a temporary directory,
applies the mutant to the copy, and runs pytest on the named tests with
the copy first on the import path.  A row passes when pytest reports
failing tests (exit status 1); passing tests, a collection error or a run
past TIMEOUT_S fail it.  An old text that no longer occurs exactly once
is an error, so a row cannot go stale unseen.  Exits 0 when every mutant
is caught, 1 otherwise.  Standard library only, besides the pytest the
tests need.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300  # one mutant's pytest run

Mutant = namedtuple("Mutant", "name file old new tests")

CODING = "fareyshift/coding.py"
CLI = "fareyshift/cli.py"
SCRAMBLED = "fareyshift/scrambled.py"
T = "tests/test_coding.py::"
C = "tests/test_cli.py::"
ONE_PARSE = C + "test_one_parse_matches_the_top_level_parse"
PLAIN = C + "test_plain_parse_matches_argparse"
WHOLE = T + "TestWholePeriods::"
STEP_DOWN = """\
    while t:  # down, to t = 0 and x = m at the least (one period meets the goal)
        xd, q = x[3], (x[2] + x[3] if last else x[2])
        if xd.bit_length() + q.bit_length() <= short_bits or goal_den >= goal_num * xd * q:
            break
        x, t = _mul(x, (det * d, -det * b, -det * c, det * a)), t - 1  # W^-1 = det*adj(W)
"""
LUCAS = WHOLE + "test_lucas_pair_is_the_recurrence_and_the_power"
ORDER = T + "TestEndpointOrder::"
SHARE = "tests/test_scrambled.py::TestShareRule::"

MUTANTS = [
    # the whole-periods power, its Lucas pair and its step down
    Mutant("power det sign flipped", CODING, "_lucas(p, det, t)", "_lucas(p, -det, t)",
           [WHOLE + "test_enclose_deep_draw", WHOLE + "test_words_of_either_determinant"]),
    Mutant("Lucas pair one index off", CODING, "_lucas(p, det, t)", "_lucas(p, det, t - 1)",
           [WHOLE + "test_enclose_deep_draw", WHOLE + "test_runs_ending_before_the_goal"]),
    Mutant("sign of (p*U_t - V_t)/2 flipped", CODING,
           "du = (p * u - v) // 2", "du = (v - p * u) // 2",
           [WHOLE + "test_enclose_deep_draw", WHOLE + "test_words_of_either_determinant"]),
    Mutant("odd-bit halving dropped", CODING,
           "(p * u + v) // 2, (disc * u + p * v) // 2", "p * u + v, disc * u + p * v",
           [LUCAS, WHOLE + "test_enclose_deep_draw"]),
    Mutant("det^k not reset after an even bit", CODING,
           "v * v - 2 * power, 1", "v * v - 2 * power, power",
           [LUCAS, WHOLE + "test_words_of_either_determinant"]),
    Mutant("step-down loop removed", CODING, STEP_DOWN, "",
           [WHOLE + "test_enclose_deep_draw", WHOLE + "test_budgets_around_the_predicted_periods",
            WHOLE + "test_lopsided_leads"]),
    Mutant("inverse step without det", CODING,
           "_mul(x, (det * d, -det * b, -det * c, det * a))", "_mul(x, (d, -b, -c, a))",
           [WHOLE + "test_enclose_deep_draw", WHOLE + "test_words_of_either_determinant"]),
    Mutant("lead's matrix dropped from the power", CODING,
           "mw = _mul(m, w) if i else w", "mw = w",
           [WHOLE + "test_enclose_deep_draw", WHOLE + "test_budgets_around_the_predicted_periods"]),
    Mutant("Lucas digit test inverted", CODING, 'if digit == "1":', 'if digit == "0":',
           [LUCAS, WHOLE + "test_enclose_deep_draw"]),
    # the endpoint order read off det mod 4
    Mutant("endpoint order flipped", CODING, "& 3 == 1 else", "& 3 == 3 else",
           [ORDER + "test_admissible_words_to_14_on_either_base", ORDER + "test_enclose_deep_draw",
            T + "TestIntervalOf::test_exhaustive_to_12"]),
    Mutant("det residue taken mod 2", CODING, ") & 3 == 1 else", ") & 1 == 1 else",
           [ORDER + "test_admissible_words_to_14_on_either_base", ORDER + "test_enclose_deep_draw",
            ORDER + "test_unbounded_enclosures"]),
    # the gates between stepping and reading whole periods
    Mutant("gallop gate constant 0", CODING, "_GALLOP_MIN = 26", "_GALLOP_MIN = 0",
           [T + "TestGallopGate::test_walk_at_the_gate"]),
    Mutant("walk gate inverted", CODING,
           ">= _GALLOP_MIN\n                    and", "< _GALLOP_MIN\n                    and",
           [T + "TestGallopGate::test_walk_at_the_gate"]),
    Mutant("walk gate > for >=", CODING,
           ">= _GALLOP_MIN\n                    and", "> _GALLOP_MIN\n                    and",
           [T + "TestGallopGate::test_walk_at_the_gate"]),
    Mutant("periodic gate inverted", CODING,
           "or half >= _GALLOP_MIN:", "or half < _GALLOP_MIN:",
           [T + "TestPeriodicGate::test_enclosures_at_the_gate"]),
    Mutant("periodic gate > for >=", CODING,
           "or half >= _GALLOP_MIN:", "or half > _GALLOP_MIN:",
           [T + "TestPeriodicGate::test_enclosures_at_the_gate"]),
    # the per-symbol loops and the neutral closed form
    Mutant("shallow loop's raise index off by one", CODING,
           "at index %d\" % (i - k))", "at index %d\" % (i - k + 1))",
           [T + "TestPointOfCode::test_first_11_found_up_front"]),
    Mutant("shallow loop's prev not cleared after a 0", CODING,
           "            q, prev = c, 0\n        if", "            q = c\n        if",
           [T + "TestPointOfCode::test_shrinks_to_zero"]),
    Mutant("walk tail's 11 check dropped", CODING,
           "                if prev:\n                    raise",
           "                if False:\n                    raise",
           [T + "TestSegmentWalk::test_inadmissible_segments"]),
    Mutant("neutral q without + d", CODING,
           "q = md + d1, (mc + md if last else mc) + q1", "q = md + d1, mc + q1",
           [T + "TestNeutralRuns::test_closed_form_against_a_scan"]),
    # a close event decided on one enclosure when both sides open on one run
    Mutant("share without t's run length", SCRAMBLED,
           "\n                        and (end2 is None or end2 - t_index >= used)", "",
           [SHARE + "test_hand_cases", SHARE + "test_events_near_run_ends"]),
    Mutant("share without the word comparison", SCRAMBLED, "word1 == word2 and ", "",
           [SHARE + "test_hand_cases", SHARE + "test_events_near_run_ends"]),
    Mutant("share reads end1 - index as end1", SCRAMBLED, "end1 - index >= used", "end1 >= used",
           [SHARE + "test_hand_cases", SHARE + "test_events_near_run_ends"]),
    Mutant("share reads t's run at index", SCRAMBLED,
           "t.run_at(t_index)", "t.run_at(index)",
           [SHARE + "test_hand_cases", SHARE + "test_events_near_run_ends"]),
    # the plain command-line reader, against argparse
    Mutant("plain reader skips choices", CLI,
           'if value not in kw.get("choices", (value,)):', "if False:",
           [ONE_PARSE, C + "TestCommands::test_flags_a_command_does_not_read_are_rejected",
            PLAIN]),
    Mutant("plain reader takes a -leading value", CLI,
           'if value.startswith("-"):', 'if value == "-":', [ONE_PARSE, PLAIN]),
    Mutant("plain reader ignores the positional count", CLI,
           "if len(positionals) != len(names):", "if False:",
           [ONE_PARSE, C + "TestCommands::test_usage_error_exit_code", PLAIN]),
    Mutant("plain reader's flag takes the next token", CLI,
           'if "action" in kw:', "if False:",
           [ONE_PARSE, C + "test_a_plain_command_line_builds_no_parser"]),
]


def apply(mutant: Mutant, src: str) -> None:
    """Apply the mutant to the copy of src/ at src; its old text must occur once."""
    path = os.path.join(src, mutant.file)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit("error: mutant %r: its old text occurs %d times in %s, not once"
                         % (mutant.name, found, mutant.file))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))


def caught(mutant: Mutant) -> tuple[bool, str]:
    """Whether the mutant's tests fail on a mutated copy of src/, and how they ended."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        where = "import fareyshift; print(fareyshift.__file__)"
        probe = subprocess.run([sys.executable, "-c", where], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True)
        if not probe.stdout.startswith(src):
            raise SystemExit("error: the mutated copy is not the one imported: %s" % probe.stdout)
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            run = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, "still running after %d s" % TIMEOUT_S
    tail = run.stdout.strip().splitlines()[-1:] or ["(no output)"]
    return run.returncode == 1, "pytest exit %d: %s" % (run.returncode, tail[0])


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit("error: no mutant named %s" % ", ".join(sorted(unknown)))
    chosen = [m for m in MUTANTS if not names or m.name in names]
    missed = 0
    for mutant in chosen:
        start = time.perf_counter()
        ok, how = caught(mutant)
        missed += not ok
        print("%-8s %-45s %5.1f s  %s" % ("caught" if ok else "MISSED", mutant.name,
                                          time.perf_counter() - start, how), flush=True)
    print("%d of %d mutants caught" % (len(chosen) - missed, len(chosen)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
