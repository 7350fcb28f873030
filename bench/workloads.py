"""The benchmark's three workloads: seeded inputs, the timed op, its output.

A workload is built from a seed.  Its constructor makes every input and
stream (that is set-up time); `run(op)` is the one timed library call;
`collect(op, raw)` gathers what the call left behind (a CLI output file)
into the result; `output(op, result)` turns the result into canonical
text for the digest; `check(op, result)` returns (problems, undecided,
units) from the checkers in checks.py.  Inputs are stratified: the sizes that set an op's cost
(digits, block size, level) follow a fixed composition, and the seed
draws the rest and the order, so every seed asks for about the same
amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import checks
from fareyshift import cli, coding, conjugacy, exact, scrambled

EPS = Fraction(1, 100)


def _admissible_word(rng: random.Random, length: int) -> str:
    out = []
    for _ in range(length):
        out.append("0" if out and out[-1] == "1" else rng.choice("01"))
    return "".join(out)


def _period_matrix(word: str):
    a, b, c, d = 1, 0, 0, 1
    for ch in word:  # right-multiply by the inverse-branch matrix of ch
        a, b, c, d = (b, a + b, d, c + d) if ch == "0" else (-b, a + b, -d, c + d)
    return a, b, c, d


def irrational_code(rng: random.Random, max_pre: int = 5, max_per: int = 8):
    """Admissible eventually periodic code whose point is an irrational surd.

    Returns (pre, per, symbols per decimal digit).  The point of PRE(PER)
    is rational exactly when the period map's fixed point equation
    c*x^2 + (d-a)*x - b = 0 has a square discriminant (or c = 0); such
    codes, the 010/100/001 cycle among them, are redrawn.  Cylinder
    widths shrink by the square of the period map's spectral radius per
    period, which gives the symbols one digit of width costs.
    """
    while True:
        pre = _admissible_word(rng, rng.randint(0, max_pre))
        per = _admissible_word(rng, rng.randint(1, max_per))
        if "11" in pre + per + per:
            continue
        a, b, c, d = _period_matrix(per)
        disc = (d - a) ** 2 + 4 * b * c
        if c != 0 and math.isqrt(disc) ** 2 != disc:
            tr, det = a + d, a * d - b * c
            rho = (abs(tr) + math.sqrt(tr * tr - 4 * det)) / 2
            return pre, per, len(per) * math.log(10) / (2 * math.log(rho))


def _rational(rng: random.Random, hi: int):
    while True:
        p, q = rng.randint(0, hi), rng.randint(1, hi)
        if math.gcd(p, q) == 1:
            return p, q


def _word_of(pre: str, per: str):
    return lambda n: (pre + per * (n // len(per) + 1))[:n]


def _surd_tuple(x):
    return (x.p, x.q, x.r, x.d)


def _pair(x):
    return (x.num, x.den)


class Workload:
    """Base of the workloads: by default the raw result is the result."""

    def collect(self, op, raw):
        return raw


class EncloseDeep(Workload):
    """One op is one point_of_code call at a deep width goal 10^-d.

    An enclosure's cost grows like symbols x digits = s*d^2, where s is
    the symbols one digit costs for that code (from 2.4 for the golden
    code to about 6).  So each op draws a code, then a log-stratified
    target for s*d^2 over [4e4, 1.2e6], and d follows from both: prefixes
    run from about 300 to 2500 symbols.  Codes with rational points are
    excluded because their widths shrink only like 1/n^2.
    """

    name = "enclose-deep"
    MAX_PREFIX = 50_000

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        count, work_lo, work_hi = (4, 2e3, 1e4) if tiny else (150, 4e4, 1.2e6)
        self.ops = []
        for i in range(count):
            pre, per, per_digit = irrational_code(rng)
            work = work_lo * (work_hi / work_lo) ** ((i + rng.random()) / count)
            d = max(1, round(math.sqrt(work / per_digit)))
            stream = coding.CodeStream.periodic(pre, per)
            self.ops.append((stream, pre, per, Fraction(1, 10 ** d)))
        rng.shuffle(self.ops)

    def run(self, op):
        stream, _, _, goal = op
        return coding.point_of_code(stream, self.MAX_PREFIX, goal)

    def output(self, op, enc) -> str:
        return "%s %d %s" % (enc.interval, enc.prefix_len, enc.width_ok)

    def check(self, op, enc):
        _, pre, per, goal = op
        point = _surd_tuple(coding.periodic_point(pre, per))
        problems = checks.check_enclosure(
            point, _word_of(pre, per), goal, self.MAX_PREFIX,
            _pair(enc.interval.lo), _pair(enc.interval.hi), enc.prefix_len, enc.width_ok)
        return problems, 0 if enc.width_ok else 1, 1


FORMS = ("theorem1-diff", "theorem1-shift", "theorem2-diff", "theorem2-shift",
         "theorem2-tracked", "rational-vs-tau")


class ScrambleVerify(Workload):
    """One op is one verification call for one schedule family at one k.

    Every form runs at every block size k = 5..9 with seeded parameter
    words, shifts, tracked codes and rationals.  Undecided outcomes are
    counted per event.
    """

    name = "scramble-verify"

    # Ops per form at each block size.  Cost grows about tenfold per k, so
    # the smaller blocks repeat with fresh parameters: a pass then has about
    # 200 ops while the k = 9 ops still take most of its time.  With these
    # counts the median op falls among the many k <= 6 ops and p90 among
    # the k = 7 tracked and shift ops, whose costs vary little with the
    # seed, rather than on the edge between two groups of ops.
    PER_FORM = {5: 16, 6: 10, 7: 4, 8: 2, 9: 1}

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        alpha = scrambled.alpha_transitive()
        self.ops = []
        for k, count in ({5: 1} if tiny else self.PER_FORM).items():
            for form in FORMS:
                for _ in range(count):
                    self.ops.append(self._build(rng, alpha, form, k))
        rng.shuffle(self.ops)

    @staticmethod
    def _build(rng, alpha, form, k):
        beta = "".join(rng.choice("01") for _ in range(16))
        # The second parameter differs from beta at exactly two of its first
        # four symbols, so every theorem1 pair has the same number of events.
        diffs = sorted(rng.sample(range(4), 2))
        other = "".join("10"[int(b)] if i in diffs else b for i, b in enumerate(beta))
        tracked = [coding.code_of_rational(exact.ExtendedRational(*_rational(rng, 30)))]
        shift = rng.randint(1, 3)
        if form == "theorem1-diff":
            return (form, k, dict(kind="theorem1", diff_indices=diffs),
                    scrambled.mu_code(beta), scrambled.mu_code(other), Fraction(3, 2))
        if form == "theorem1-shift":
            return (form, k, dict(kind="theorem1", shift=shift), scrambled.mu_code(beta),
                    scrambled.mu_code(other).shifted(shift), Fraction(3, 2))
        if form == "theorem2-diff":
            return (form, k, dict(kind="theorem2", diff_index=diffs[0]),
                    scrambled.tau_code(beta, alpha, tracked),
                    scrambled.tau_code(other, alpha, tracked), Fraction(1000))
        if form == "theorem2-shift":
            return (form, k, dict(kind="theorem2", shift=shift),
                    scrambled.tau_code(beta, alpha, tracked),
                    scrambled.tau_code(other, alpha, tracked).shifted(shift), Fraction(1000))
        if form == "theorem2-tracked":
            x_code = coding.CodeStream.periodic(*irrational_code(rng, 4, 6)[:2])
            spare = coding.CodeStream.periodic(*irrational_code(rng, 4, 6)[:2])
            i = rng.choice((1, 2))
            targets = [x_code, spare] if i == 1 else [spare, x_code]
            return (form, k, dict(kind="theorem2_tracked", track_index=i, x_code=x_code),
                    x_code, scrambled.tau_code(beta, alpha, targets), Fraction(1000))
        r = exact.ExtendedRational(*_rational(rng, 40))
        return (form, k, r, None, scrambled.tau_code(beta, alpha, tracked), Fraction(1000))

    def run(self, op):
        form, k, params, s, t, m_big = op
        if form == "rational-vs-tau":
            return None, scrambled.rational_vs_tau(params, t, (k, k), eps=EPS, m_big=m_big)
        params = dict(params)
        events = scrambled.schedule_events(params.pop("kind"), (k, k), **params)
        return events, scrambled.verify_scrambling(s, t, events, eps=EPS, m_big=m_big)

    def output(self, op, raw) -> str:
        return json.dumps(raw[1].to_dict(), sort_keys=True)

    def check(self, op, raw):
        form, k, params, _, _, _ = op
        events, report = raw
        if events is None:
            events = scrambled.schedule_events(
                "rational_vs_tau", (k, k), escape=exact.escape_time(params), eps=EPS)
        problems = checks.check_outcomes(events, report.outcomes, EPS)
        return problems, report.n_inconclusive, len(report.outcomes)


class ConjugacyCli(Workload):
    """Many short calls: in-process CLI commands and conjugacy library calls.

    Each CLI command writes to an output file inside the benchmark's own
    directory; stdout and stderr are captured around every call, because
    `farey --report` prints its summary to stdout even when --out is set.
    """

    name = "conjugacy-cli"
    CLI_KINDS = ("conjugacy", "farey", "mixing", "periodic", "entropy",
                 "interval", "code", "iterate", "point")
    LIB_KINDS = ("h_level", "h_enclosure", "roundtrip")
    RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)

    def __init__(self, seed: int, tiny: bool = False, out_dir: str = "."):
        rng = random.Random(seed)
        self.out_path = os.path.join(out_dir, "cli-%d.out" % os.getpid())
        self.output_bytes = 0
        self._levels = {}
        self.ops = []
        for kind in self.CLI_KINDS:
            for i in range(1 if tiny else 10):
                self.ops.append(("cli", self._argv(rng, kind, i)))
        for kind in self.LIB_KINDS:
            for i in range(1 if tiny else 20):
                self.ops.append(self._lib_op(rng, kind, i))
        rng.shuffle(self.ops)

    @staticmethod
    def _argv(rng, kind, i):
        if kind == "conjugacy":
            return ["conjugacy", "--level", str(3 + i % 7)]
        if kind == "farey":
            return ["farey", "--level", str(3 + i % 8), "--report"]
        if kind == "mixing":
            return ["mixing", _admissible_word(rng, rng.randint(3, 12))]
        if kind == "periodic":
            return ["periodic", _admissible_word(rng, rng.randint(2, 10))]
        if kind == "entropy":
            return ["entropy", "--lap-depth", str(8 + i % 8)]
        if kind == "interval":
            return ["interval", _admissible_word(rng, rng.randint(4, 30))]
        if kind == "code":
            return ["code", "%d/%d" % _rational(rng, 99), "--length", str(rng.randint(10, 40))]
        if kind == "iterate":
            return ["iterate", "%d/%d" % _rational(rng, 99), "--steps",
                    str(rng.randint(5, 30)), "--format", "csv"]
        pre, per, _ = irrational_code(rng)
        return ["point", "%s(%s)" % (pre, per), "--precision", "1/%d" % 10 ** (3 + i % 10),
                "--max-prefix", "5000", "--format", "json"]

    def _lib_op(self, rng, kind, i):
        n = 6 + i % 7
        if kind == "h_level":
            if i % 2 == 0:
                index = rng.randrange(2 ** n)
                return ("h_level", n, exact.ExtendedRational(*self._level(n)[index]), index)
            return ("h_level", n, exact.ExtendedRational(*_rational(rng, 50)), None)
        if kind == "h_enclosure":
            while True:  # h_enclosure scans the level up to x: keep x in the middle half
                x = exact.QuadraticSurd(rng.randint(0, 8), rng.randint(1, 4),
                                        rng.randint(1, 9), rng.choice(self.RADICANDS))
                if 0.5 < float(x) < 2:
                    return ("h_enclosure", n, x)
        return ("roundtrip", exact.ExtendedRational(*_rational(rng, 10 ** 4)))

    def _level(self, n):
        if n not in self._levels:
            self._levels[n] = checks.level_nodes(n)
        return self._levels[n]

    def run(self, op):
        kind = op[0]
        if kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(op[1] + ["--out", self.out_path])
            return code, buf.getvalue()
        if kind == "h_level":
            return conjugacy.h_level(op[1], op[2])
        if kind == "h_enclosure":
            return conjugacy.h_enclosure(op[2], op[1])
        d = conjugacy.h_rational(op[1])
        return d, conjugacy.h_inverse(d)

    def collect(self, op, raw):
        if op[0] != "cli":
            return raw
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out_path)
        except FileNotFoundError:
            text = ""
        code, captured = raw
        self.output_bytes += len(text.encode()) + len(captured.encode())
        return code, captured, text

    def output(self, op, result) -> str:
        if op[0] == "cli":
            return "exit %d\n%s\x00%s" % result
        if op[0] in ("roundtrip", "h_enclosure"):
            return "%s %s" % result
        return str(result)

    def check(self, op, result):
        kind = op[0]
        if kind == "cli":
            code, captured, text = result
            point = None
            if op[1][0] == "point":
                pre, per = op[1][1][:-1].split("(")
                point = _surd_tuple(coding.periodic_point(pre, per))
            return checks.check_cli(op[1], code, text, captured, point), int(code == 3), 1
        if kind == "h_level":
            return self._check_h_level(op[1], op[2], op[3], result), 0, 1
        if kind == "h_enclosure":
            return self._check_h_enclosure(op[1], op[2], result), 0, 1
        x = op[1]
        d, y = result
        problems = [] if y == x else ["h_inverse(h_rational(%s)) = %s" % (x, y)]
        if not 0 <= d.as_fraction() <= 1:
            problems.append("h_rational(%s) outside [0, 1]" % x)
        return problems, 0, 1

    def _check_h_level(self, n, x, index, value):
        unit = Fraction(1, 2 ** n)
        if index is not None:
            return [] if value == index * unit else ["h_level(%d, node %d) = %s" % (n, index, value)]
        nodes = self._level(n)
        if checks.pair_cmp(_pair(x), nodes[-2]) >= 0:
            expect_ok = value == 1 - unit
        else:
            j = max(i for i, node in enumerate(nodes) if checks.pair_cmp(node, _pair(x)) <= 0)
            if nodes[j] == _pair(x):
                expect_ok = value == j * unit
            else:
                expect_ok = j * unit < value < (j + 1) * unit
        return [] if expect_ok else ["h_level(%d, %s) = %s outside its node bracket" % (n, x, value)]

    def _check_h_enclosure(self, n, x, bracket):
        lo, hi = bracket
        unit = Fraction(1, 2 ** n)
        if hi - lo != unit or (lo / unit).denominator != 1:
            return ["h_enclosure(%s, %d) = %s is not a level-%d cell" % (x, n, bracket, n)]
        i = int(lo / unit)
        nodes = self._level(n)
        left, right = nodes[i], nodes[i + 1]
        problems = []
        if _pair(conjugacy.h_inverse(lo)) != left or _pair(conjugacy.h_inverse(hi)) != right:
            problems.append("h_enclosure bracket does not map back to level-%d nodes" % n)
        surd = _surd_tuple(x)
        if checks.surd_cmp(surd, left) < 0 or checks.surd_cmp(surd, right) > 0:
            problems.append("x = %s lies outside the nodes of its bracket" % x)
        return problems


WORKLOADS = {w.name: w for w in (EncloseDeep, ScrambleVerify, ConjugacyCli)}
