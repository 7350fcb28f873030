"""Output checkers for the benchmark workloads.

Every checker works from the op's inputs and its returned result, with
its own integer arithmetic wherever that is short to write: its own
cylinder walk, its own surd comparison, its own Farey levels, its own
phi.  A checker returns a list of problems; an empty list means the
result is consistent.  A "fail" or "inconclusive" verdict is a result,
not a problem; only a result that contradicts a check is.

Points of [0, infinity] are (num, den) integer pairs here, with
infinity as (1, 0); surds are (p, q, r, d) for (p + q*sqrt(d))/r.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

INF = (1, 0)
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


# -- independent exact helpers -------------------------------------------

def _sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for d >= 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or d == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    diff = a * a - b * b * d  # a and b of opposite signs: compare magnitudes
    return sa * ((diff > 0) - (diff < 0))


def surd_cmp(x, pair) -> int:
    """Sign of x - num/den for x = (p, q, r, d) with r > 0; infinity is above."""
    p, q, r, d = x
    num, den = pair
    if den == 0:
        return -1
    return _sign_surd(p * den - num * r, q * den, d)


def pair_cmp(a, b) -> int:
    """Sign of a - b for two (num, den) points, infinity included."""
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return (lhs > rhs) - (lhs < rhs)


def reduce_pair(num: int, den: int):
    if den < 0 or (den == 0 and num < 0):
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def parse_pair(text: str):
    num, den = text.strip().split("/")
    return int(num), int(den)


def phi_pair(x):
    """phi(x) = |1 - 1/x| on (num, den) pairs; phi(0) = inf, phi(inf) = 1."""
    num, den = x
    if num == 0:
        return INF
    if den == 0:
        return (1, 1)
    return reduce_pair(abs(num - den), num)


def cylinder_pair(word: str):
    """Cylinder of an admissible word as ((num, den), (num, den)), low end first.

    Composes the inverse branches y -> 1/(1+y) and y -> 1/(1-y) on the
    endpoints, right to left; the base is [0, inf] after a final 0 and
    [0, 1] after a final 1.
    """
    lo, hi = ((0, 1), (1, 0)) if word[-1] == "0" else ((0, 1), (1, 1))
    for ch in reversed(word):
        if ch == "0":  # y -> 1/(1+y), orientation reversing
            lo, hi = (hi[1], hi[0] + hi[1]), (lo[1], lo[0] + lo[1])
        else:  # y -> 1/(1-y) on [0, 1], orientation preserving
            lo, hi = (lo[1], lo[1] - lo[0]), (hi[1], hi[1] - hi[0])
    return reduce_pair(*lo), reduce_pair(*hi)


def level_nodes(n: int):
    """Level-n mediant refinement of {0/1, 1/0} as (num, den) pairs."""
    nodes = [(0, 1), (1, 0)]
    for _ in range(n):
        nxt = []
        for a, b in zip(nodes, nodes[1:]):
            nxt.append(a)
            nxt.append((a[0] + b[0], a[1] + b[1]))
        nxt.append(nodes[-1])
        nodes = nxt
    return nodes


def itinerary_pair(x, length: int) -> str:
    """First symbols of x: 1 on (1, inf], else 0."""
    out = []
    for _ in range(length):
        out.append("1" if pair_cmp(x, (1, 1)) > 0 else "0")
        x = phi_pair(x)
    return "".join(out)


def parse_dyadic(text: str) -> Fraction:
    """The CLI's dyadic format "m/2^e"."""
    m, e = text.split("/2^")
    return Fraction(int(m), 2 ** int(e))


# -- enclosures -----------------------------------------------------------

def check_enclosure(point, word_of, goal: Fraction, max_prefix: int,
                    lo, hi, prefix_len: int, width_ok: bool) -> list[str]:
    """Enclosure of the exact point from the minimal prefix.

    point is the exact surd (p, q, r, d); word_of(n) gives the first n
    code symbols; lo and hi are (num, den) endpoints as returned.
    """
    problems = []
    if not 1 <= prefix_len <= max_prefix:
        return ["prefix_len %d outside 1..%d" % (prefix_len, max_prefix)]
    if (lo, hi) != cylinder_pair(word_of(prefix_len)):
        problems.append("enclosure is not the cylinder of the consumed prefix")
    if surd_cmp(point, lo) < 0 or surd_cmp(point, hi) > 0:
        problems.append("enclosure misses the exact point")
    bounded = hi[1] != 0
    width = Fraction(*hi) - Fraction(*lo) if bounded else None
    if width_ok and (width is None or width >= goal):
        problems.append("width_ok but width is not below the goal")
    if not width_ok and prefix_len != max_prefix:
        problems.append("goal missed before the prefix cap")
    if width_ok and prefix_len > 1:
        plo, phi_ = cylinder_pair(word_of(prefix_len - 1))
        if phi_[1] != 0 and Fraction(*phi_) - Fraction(*plo) < goal:
            problems.append("prefix not minimal: %d symbols already meet the goal"
                            % (prefix_len - 1))
    return problems


# -- scrambling reports ---------------------------------------------------

def check_outcomes(events, outcomes, eps: Fraction) -> list[str]:
    """One outcome per scheduled event; every pass backed by its own bounds.

    A close pass needs a finite upper bound below its threshold; a far
    pass needs a positive lower bound.  The far threshold rule itself is
    not re-derived here, so verdict policy can change without reading as
    a failure.
    """
    problems = []
    if len(outcomes) != len(events):
        return ["%d outcomes for %d scheduled events" % (len(outcomes), len(events))]
    for ev, out in zip(events, outcomes):
        where = "%s event at %d" % (ev.kind, ev.index)
        if out.event != ev:
            problems.append("%s: outcome is for another event" % where)
        if out.status not in ("pass", "fail", "inconclusive"):
            problems.append("%s: unknown status %r" % (where, out.status))
        lower = out.lower if isinstance(out.lower, Fraction) else None
        upper = out.upper if isinstance(out.upper, Fraction) else None
        if lower is not None and lower < 0:
            problems.append("%s: negative lower bound" % where)
        if lower is not None and upper is not None and lower > upper:
            problems.append("%s: lower bound above upper bound" % where)
        if out.status != "pass":
            continue
        if ev.kind == "close":
            thr = ev.threshold if ev.threshold is not None else eps
            if upper is None or upper >= thr:
                problems.append("%s: close pass without upper < %s" % (where, thr))
        elif lower is not None and lower <= 0:
            problems.append("%s: far pass without a positive lower bound" % where)
    return problems


# -- CLI outputs ----------------------------------------------------------

def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_level_rows(rows, n: int) -> list[str]:
    nodes = level_nodes(n)
    if len(rows) != len(nodes):
        return ["level %d has %d rows, expected %d" % (n, len(rows), len(nodes))]
    for i, (row, node) in enumerate(zip(rows, nodes)):
        if parse_pair(row["fraction"]) != node:
            return ["row %d is not level-%d node %d/%d" % (i, n, *node)]
        if parse_dyadic(row["h"]) != Fraction(i, 2 ** n):
            return ["h of node %d is %s, expected %d/2^%d" % (i, row["h"], i, n)]
    return []


def check_cli(argv, code: int, out_text: str, stdout: str, point=None) -> list[str]:
    """Exit code 0, parseable output, true check columns, exact content.

    `point` is the exact surd (p, q, r, d) of the code a `point` command
    encloses.
    """
    if code != 0:
        return ["exit code %d" % code]
    cmd = argv[0]
    try:
        if cmd == "conjugacy":
            rows = _csv_rows(out_text)
            problems = _check_level_rows(rows, int(argv[argv.index("--level") + 1]))
            if any(row["check"] != "true" for row in rows):
                problems.append("a conjugacy check column is not true")
            return problems
        if cmd == "farey":
            problems = _check_level_rows(_csv_rows(out_text), int(argv[argv.index("--level") + 1]))
            summary = json.loads(stdout)
            for key in ("reciprocal", "unit_sum", "phi_fold", "phi_refine"):
                if summary.get(key) is not True:
                    problems.append("farey identity %s is not true" % key)
            return problems
        if cmd == "mixing":
            cert = json.loads(out_text)
            word = argv[1]
            first = cert["steps"][0]
            lo, hi = cylinder_pair(word)
            problems = []
            if first != ["%d/%d..%d/%d" % (*lo, *hi)]:
                problems.append("mixing certificate does not start at the cylinder")
            if cert["steps"][-1] != ["0/1..1/0"] or cert["n_cover"] != len(cert["steps"]) - 1:
                problems.append("mixing certificate does not end at the cover")
            if cert["n_cover"] > len(word) + 2:
                problems.append("cover took more than |word| + 2 steps")
            return problems
        if cmd == "periodic":
            rec = json.loads(out_text)
            word = argv[1]
            lo, hi = cylinder_pair(word)
            problems = []
            if rec["inside_cylinder"] is not True or rec["period"] != len(word) + 3:
                problems.append("periodic witness check column is not true")
            if rec["cylinder"] != "%d/%d..%d/%d" % (*lo, *hi):
                problems.append("periodic witness reports the wrong cylinder")
            x = rec["float"]
            if not (lo[0] / lo[1] - 1e-9 <= x <= (hi[0] / hi[1] if hi[1] else math.inf) + 1e-9):
                problems.append("periodic witness lies outside its cylinder")
            return problems
        if cmd == "entropy":
            rec = json.loads(out_text)
            problems = [] if rec["factorization_verified"] is True else ["factorization not verified"]
            for est in rec["estimates"]:
                limit = 2e-2 if est["method"] == "lap-count" else 1e-6
                if abs(est["value"] - LOG_GOLDEN) > limit:
                    problems.append("%s estimate off by more than %g" % (est["method"], limit))
            return problems
        if cmd == "interval":
            lo, hi = (parse_pair(t) for t in out_text.strip().split(".."))
            if (lo, hi) != cylinder_pair(argv[1]):
                return ["interval is not the cylinder of %s" % argv[1]]
            return []
        if cmd == "code":
            length = int(argv[argv.index("--length") + 1])
            if out_text.strip() != itinerary_pair(parse_pair(argv[1]), length):
                return ["itinerary differs from the exact orbit"]
            return []
        if cmd == "iterate":
            rows = _csv_rows(out_text)
            x = parse_pair(argv[1])
            for row in rows:
                if parse_pair(row["value"]) != x:
                    return ["orbit step %s is not phi of the previous value" % row["step"]]
                x = phi_pair(x)
            steps = int(argv[argv.index("--steps") + 1])
            return [] if len(rows) == steps + 1 else ["orbit has %d rows" % len(rows)]
        if cmd == "point":
            rec = json.loads(out_text)
            pre, per = argv[1][:-1].split("(")
            lo, hi = (parse_pair(t) for t in rec["enclosure"].split(".."))
            goal = Fraction(argv[argv.index("--precision") + 1])
            max_prefix = int(argv[argv.index("--max-prefix") + 1])
            return check_enclosure(point, lambda n: (pre + per * (n // len(per) + 1))[:n],
                                   goal, max_prefix, lo, hi, rec["prefix_used"],
                                   rec["width_goal_met"])
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return ["output does not parse: %s: %s" % (type(exc).__name__, exc)]
    return ["no checker for command %r" % cmd]
