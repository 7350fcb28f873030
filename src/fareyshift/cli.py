"""Command-line surface: every library capability with reproducible,
machine-readable output.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or parse
error or input out of range, 3 inconclusive events present, 141 the
reader closed stdout early (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from . import __version__
from .coding import (
    CodeStream,
    code_of_rational,
    cylinder,
    is_admissible,
    itinerary,
    point_of_code,
)
from .conjugacy import (
    conjugacy_check,
    farey_level,
    farey_properties_report,
    h_rational,
)
from .entropy import (
    dense_periodic_witness,
    entropy_lap,
    entropy_polynomial_root,
    entropy_word_growth,
    mixing_certificate,
    transition_spectral_radius,
    verify_cubic_factorization,
)
from .exact import ExtendedRational, QuadraticSurd, phi_rat, phi_surd
from .scrambled import (
    alpha_transitive,
    g_map,
    mu_code,
    rational_vs_tau,
    schedule_events,
    tau_code,
    verify_scrambling,
)

USAGE_ERROR = 2
PIPE_CLOSED = 141  # 128 + SIGPIPE


class CliError(Exception):
    def __init__(self, message, code=USAGE_ERROR):
        super().__init__(message)
        self.code = code


_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*(?:√|\*?sqrt\(?)\s*(\d+)\)?\s*\)\s*/\s*(\d+)$"
)


def parse_point(text: str):
    """Fraction "p/q" (with 1/0 for infinity), decimal, or surd "(p+q√d)/r".

    A surd with q = 0 or a square radicand is the fraction it equals.
    """
    text = text.strip().replace("−", "-")
    m = _SURD_RE.match(text)
    if m:
        p, sign, q, d, r = m.groups()
        p, q, r, d = int(p), int(q) if sign == "+" else -int(q), int(r), int(d)
        s = math.isqrt(d)
        try:
            if r and (q == 0 or s * s == d):  # rational; r = 0 is a bad surd
                return ExtendedRational(p + q * s, r)
            return QuadraticSurd(p, q, r, d)
        except ValueError as exc:
            raise CliError("bad surd %r: %s" % (text, exc))
    try:
        return ExtendedRational.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("cannot parse point %r: %s" % (text, exc))


_CODE_RE = re.compile(r"^([01]*)\(([01]+)\)$")


def parse_code(text: str) -> CodeStream:
    """Eventually periodic code "PRE(PER)", e.g. "(0)" or "0(010)"."""
    m = _CODE_RE.match(text.strip())
    if not m:
        raise CliError("code must look like PRE(PER), e.g. 0(010); got %r" % text)
    return CodeStream.periodic(m.group(1), m.group(2))


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError("cannot parse fraction %r: %s" % (text, exc))


def parse_krange(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)\.\.(\d+)$", text.strip())
    if not m:
        raise CliError("k-range must look like 5..7; got %r" % text)
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi or lo < 5:
        raise CliError("k-range must be increasing and start at 5 or above")
    return lo, hi


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _emit_json(obj, out_path):
    _emit(json.dumps(obj, indent=2, sort_keys=True), out_path)


def _emit_rows(rows, header, fmt, out_path):
    if fmt == "json":
        _emit_json([dict(zip(header, row)) for row in rows], out_path)
        return
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
        _emit("\n".join(lines), out_path)
        return
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    _emit("\n".join(lines), out_path)


def cmd_iterate(args) -> int:
    x = parse_point(args.point)
    rows = []
    cycle = {"0/1", "1/1", "1/0"}
    for step in range(args.steps + 1):
        val = str(x)
        rows.append((step, val, "%.12g" % float(x),
                     "cycle" if val in cycle else ""))
        x = phi_surd(x) if isinstance(x, QuadraticSurd) else phi_rat(x)
    _emit_rows(rows, ("step", "value", "float", "orbit"), args.format, args.out)
    return 0


def cmd_code(args) -> int:
    x = parse_point(args.point)
    word = itinerary(x, args.length, tie_high=args.tie_high)
    _emit(word, args.out)
    return 0


def cmd_interval(args) -> int:
    if not is_admissible(args.word) or not args.word:
        raise CliError("inadmissible word %r" % args.word)
    _emit(str(cylinder(args.word)), args.out)
    return 0


def cmd_point(args) -> int:
    stream = parse_code(args.code)
    enc = point_of_code(stream, args.max_prefix, args.precision)
    width = enc.interval.width()
    payload = {
        "code": args.code,
        "enclosure": str(enc.interval),
        "prefix_used": enc.prefix_len,
        "width": "inf" if width is None else str(width),
        "width_goal_met": enc.width_ok,
    }
    if args.format == "table":
        lines = ["%s: %s" % (k, v) for k, v in payload.items()]
        if not enc.width_ok:
            lines.append("note: width goal not reached within the prefix budget")
        _emit("\n".join(lines), args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def cmd_conjugacy(args) -> int:
    rows = []
    ok = True
    level = farey_level(args.level)
    for x in level.entries:
        h = h_rational(x)
        good = conjugacy_check(x)
        ok &= good
        rows.append((str(x), str(h), "%.12g" % float(x) if not x.is_infinite else "inf",
                     "%.12g" % float(h), "true" if good else "false"))
    if args.phi_grid:
        for j in range(args.phi_grid + 1):  # grid over [0, 4]
            x = ExtendedRational(4 * j, args.phi_grid)
            rows.append((str(x), "", "%.12g" % float(x),
                         "%.12g" % float(phi_rat(x)), "phi-grid"))
    _emit_rows(rows, ("fraction", "h", "x_float", "y_float", "check"),
               args.format, args.out)
    return 0 if ok else 1


def cmd_farey(args) -> int:
    level = farey_level(args.level)
    rows = [(i, str(x), str(h_rational(x)))
            for i, x in enumerate(level.entries)]
    _emit_rows(rows, ("index", "fraction", "h"), args.format, args.out)
    if args.report:
        rep = farey_properties_report(args.level)
        summary = {
            "n": rep.n,
            "reciprocal": rep.reciprocal.holds,
            "unit_sum": rep.unit_sum.holds,
            "phi_fold": rep.phi_fold.holds,
            "phi_refine": rep.phi_refine.holds,
            "note": rep.index_note,
        }
        _emit_json(summary, None)
        return 0 if rep.all_pass else 1
    return 0


def cmd_entropy(args) -> int:
    wanted = args.methods.split(",") if args.methods != "all" else \
        ["polynomial-root", "word-growth", "spectral", "lap-count"]
    estimates = []
    for name in wanted:
        if name == "polynomial-root":
            estimates.append(entropy_polynomial_root(args.tol))
        elif name == "word-growth":
            estimates.append(entropy_word_growth(args.depth))
        elif name == "spectral":
            estimates.append(transition_spectral_radius(args.depth))
        elif name == "lap-count":
            estimates.append(entropy_lap(args.lap_depth))
        else:
            raise CliError("unknown entropy method %r" % name)
    payload = {
        "estimates": [dataclasses.asdict(e) for e in estimates],
        "factorization_verified": verify_cubic_factorization(),
    }
    _emit_json(payload, args.out)
    tight = [e.value for e in estimates if e.method != "lap-count"]
    if len(tight) > 1 and max(tight) - min(tight) > 1e-6:
        return 1
    target = math.log((1 + math.sqrt(5)) / 2)
    for e in estimates:
        limit = 2e-2 if e.method == "lap-count" else 1e-6
        if abs(e.value - target) > limit:
            return 1
    return 0


def cmd_mixing(args) -> int:
    if not is_admissible(args.word) or not args.word:
        raise CliError("inadmissible word %r" % args.word)
    cert = mixing_certificate(args.word)
    _emit_json(cert.to_dict(), args.out)
    return 0


def cmd_periodic(args) -> int:
    x = dense_periodic_witness(args.word)
    payload = {
        "word": args.word,
        "witness": str(x),
        "float": float(x),
        "period": len(args.word) + 3,
        "cylinder": str(cylinder(args.word)),
        "inside_cylinder": cylinder(args.word).contains(x),
    }
    _emit_json(payload, args.out)
    return 0


def _random_bits(rng, n=16) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def cmd_scramble(args) -> int:
    rng = random.Random(args.seed)
    k_range = parse_krange(args.k_range)
    eps = parse_fraction(args.eps)
    m_big = parse_fraction(args.m_big)
    if args.which == "theorem1":
        beta = args.beta or _random_bits(rng)
        xi = args.xi or _random_bits(rng)
        s, t = mu_code(beta), mu_code(xi)
        if args.shift:
            events = schedule_events("theorem1", k_range, shift=args.shift)
            t = t.shifted(args.shift)
        else:
            diffs = [m for m in range(min(len(beta), len(xi))) if beta[m] != xi[m]]
            if not diffs:
                raise CliError("theorem1 with shift 0 needs beta and xi to differ")
            events = schedule_events("theorem1", k_range, diff_indices=diffs)
        report = verify_scrambling(s, t, events, eps=eps, m_big=m_big,
                                   prefix_len=args.prefix_budget,
                                   pair="mu(%s) vs mu(%s) shift=%d" % (beta, xi, args.shift))
    elif args.which == "theorem2":
        beta = args.beta or _random_bits(rng)
        eta = args.eta or _random_bits(rng)
        alpha = alpha_transitive()
        tracked = [code_of_rational(ExtendedRational.parse(args.tracked))]
        s = tau_code(beta, alpha, tracked)
        t = tau_code(eta, alpha, tracked)
        if args.shift:
            events = schedule_events("theorem2", k_range, shift=args.shift)
            t = t.shifted(args.shift)
        else:
            diffs = [m for m in range(min(len(beta), len(eta))) if beta[m] != eta[m]]
            if not diffs:
                raise CliError("theorem2 with shift 0 needs beta and eta to differ")
            events = schedule_events("theorem2", k_range, diff_index=diffs[0])
        report = verify_scrambling(s, t, events, eps=eps, m_big=m_big,
                                   prefix_len=args.prefix_budget,
                                   pair="tau(%s) vs tau(%s) shift=%d" % (beta, eta, args.shift))
    else:  # rational
        beta = args.beta or _random_bits(rng)
        r = ExtendedRational.parse(args.rational)
        tracked = [code_of_rational(ExtendedRational.parse(args.tracked))]
        t = tau_code(beta, alpha_transitive(), tracked)
        report = rational_vs_tau(r, t, k_range, eps=eps, m_big=m_big,
                                 prefix_budget=args.prefix_budget)
    _emit_json(report.to_dict(), args.out)
    if report.n_fail:
        return 1
    if report.n_inconclusive:
        return 3
    return 0


def cmd_gdemo(args) -> int:
    nodes = [(Fraction(0), 1), (Fraction(1, 6), Fraction(1, 3)),
             (Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 2), 0),
             (Fraction(1), Fraction(1, 2))]
    checks = {"nodes": all(g_map(x) == y for x, y in nodes),
              "fixed_point": g_map(Fraction(1, 4)) == Fraction(1, 4)}
    rng = random.Random(args.seed)
    period2 = True
    for _ in range(args.samples):
        den = rng.randrange(30, 400)
        num = rng.randrange(den // 6 + 1, den // 3)
        x = Fraction(num, den)
        if not (Fraction(1, 6) < x < Fraction(1, 3)) or x == Fraction(1, 4):
            continue
        period2 &= g_map(g_map(x)) == x
    checks["period2_band"] = period2
    orbit3 = Fraction(0)
    for _ in range(3):
        orbit3 = g_map(orbit3)
    checks["period3_orbit"] = orbit3 == 0
    _emit_json(checks, args.out)
    return 0 if all(checks.values()) else 1


def _add_common(p, fmt_default=None, formats=("json", "csv", "table"), seed=False):
    """--out on every command; --format and --seed only where the command reads them."""
    if fmt_default:
        p.add_argument("--format", choices=formats, default=fmt_default)
    p.add_argument("--out", default=None, help="write output to a file")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="seed for any sampling")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built on first use and shared by every later call.

    Sharing is safe because parsing leaves the parser unchanged and every
    default is immutable (str, int, float, bool, None or Fraction);
    callers must not add to the returned parser.
    """
    ap = argparse.ArgumentParser(
        prog="fareyshift",
        description="Exact symbolic dynamics for the map x -> |1 - 1/x| on [0, infinity].",
    )
    ap.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("iterate", help="exact orbit of a point")
    p.add_argument("point")
    p.add_argument("--steps", type=int, default=10)
    _add_common(p, "table")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("code", help="itinerary word of a point")
    p.add_argument("point")
    p.add_argument("--length", type=int, default=12)
    p.add_argument("--tie-high", action="store_true",
                   help="emit 1 at the first visit to 1 (the other rational code)")
    _add_common(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("interval", help="exact cylinder of an admissible word")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("point", help="certified enclosure of a coded point")
    p.add_argument("code", help='eventually periodic code "PRE(PER)", e.g. 0(010)')
    p.add_argument("--max-prefix", type=int, default=64)
    p.add_argument("--precision", type=parse_fraction, default=Fraction(1, 1000),
                   help="enclosure width goal, a fraction like 1/1000")
    _add_common(p, "table", formats=("json", "table"))
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("conjugacy", help="level table with exact h values and checks")
    p.add_argument("--level", type=int, default=6)
    p.add_argument("--phi-grid", type=int, default=0,
                   help="append x,phi(x) sample rows for plotting")
    _add_common(p, "csv")
    p.set_defaults(func=cmd_conjugacy)

    p = sub.add_parser("farey", help="mediant level listing and identity report")
    p.add_argument("--level", type=int, default=5)
    p.add_argument("--report", action="store_true")
    _add_common(p, "csv")
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("entropy", help="entropy estimates from several routes")
    p.add_argument("--methods", default="all",
                   help="all or comma list: polynomial-root,word-growth,spectral,lap-count")
    p.add_argument("--depth", type=int, default=50)
    p.add_argument("--lap-depth", type=int, default=18)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_common(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("mixing", help="exact covering certificate of a cylinder")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("periodic", help="irrational periodic witness inside a cylinder")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("scramble", help="scheduled close/far event verification")
    p.set_defaults(func=cmd_scramble)
    families = p.add_subparsers(dest="which", required=True)
    family_flags = {
        "--xi": dict(help="second parameter of the pair"),
        "--eta": dict(help="second parameter of the pair"),
        "--shift": dict(type=int, default=0),
        "--rational": dict(default="1/1"),
        "--tracked": dict(default="1/1", help="rational whose code the tau stream tracks"),
    }
    for which, help_, flags in (
            ("theorem1", "bounded-family pair mu(beta), mu(xi)", ("--xi", "--shift")),
            ("theorem2", "unbounded-family pair tau(beta), tau(eta)",
             ("--eta", "--shift", "--tracked")),
            ("rational", "rational orbit against tau(beta)", ("--rational", "--tracked"))):
        f = families.add_parser(which, help=help_)
        f.add_argument("--beta", help="0/1 word recycled as the first parameter")
        for flag in flags:
            f.add_argument(flag, **family_flags[flag])
        f.add_argument("--k-range", default="5..8")
        f.add_argument("--eps", default="1/100")
        f.add_argument("--m-big", default="3/2")
        f.add_argument("--prefix-budget", type=int, default=10 ** 5)
        _add_common(f, seed=True)

    p = sub.add_parser("gdemo", help="counterexample map sanity demonstration")
    p.add_argument("--samples", type=int, default=50)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_gdemo)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left early, e.g. `| head -1`
        # what is still buffered goes to devnull, so the flush at
        # interpreter exit cannot fail again and print to stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PIPE_CLOSED
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except ValueError as exc:  # a library guard rejected the input
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
