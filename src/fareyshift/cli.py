"""Command-line surface: every library capability with reproducible,
machine-readable output.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or parse
error or input out of range, 3 inconclusive events present, 141 the
reader closed stdout early (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
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
    itinerary,
    point_of_code,
)
from .conjugacy import (
    conjugacy_check,
    farey_level,
    farey_properties_report,
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
    _G_NODES,
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


# q's digits may be left out (q = 1); a "*" before sqrt only follows them
_SURD_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)?\s*(?:√|(?(3)\*?)sqrt\(?)\s*(\d+)\)?\s*\)\s*/\s*(\d+)$"
)


def parse_point(text: str):
    """Fraction "p/q" (with 1/0 for infinity), decimal, or surd "(p+q√d)/r",
    where "(p+√d)/r" and "(p+sqrt(d))/r" have q = 1.

    A surd with q = 0 or a square radicand is the fraction it equals.
    """
    text = text.strip().replace("−", "-")
    m = _SURD_RE.match(text)
    if m:
        p, sign, q, d, r = m.groups()
        p, q, r, d = int(p), int(sign + (q or "1")), int(r), int(d)
        s = math.isqrt(d)
        try:
            if r and (q == 0 or s * s == d):  # rational; r = 0 is a bad surd
                return ExtendedRational(p + q * s, r)
            return QuadraticSurd(p, q, r, d)
        except ValueError as exc:
            raise ValueError("bad surd %r: %s" % (text, exc))
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return ExtendedRational(int(num), int(den))
        f = Fraction(text)
        return ExtendedRational(f.numerator, f.denominator)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot parse point %r: %s" % (text, exc))


_CODE_RE = re.compile(r"^([01]*)\(([01]+)\)$")


def parse_code(text: str) -> CodeStream:
    """Eventually periodic code "PRE(PER)", e.g. "(0)" or "0(010)"."""
    m = _CODE_RE.match(text.strip())
    if not m:
        raise ValueError("code must look like PRE(PER), e.g. 0(010); got %r" % text)
    return CodeStream.periodic(m.group(1), m.group(2))


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot parse fraction %r: %s" % (text, exc))


def parse_krange(text: str) -> tuple[int, int]:
    """The pair of "lo..hi"; schedule_events decides which pairs it schedules."""
    m = re.match(r"^(\d+)\.\.(\d+)$", text.strip())
    if not m:
        raise ValueError("k-range must look like 5..7; got %r" % text)
    return int(m.group(1)), int(m.group(2))


_CHUNK_LINES = 1 << 14  # lines (json: rows) formatted per write


def _batches(items):
    """The items in lists of _CHUNK_LINES, the last one shorter."""
    items = iter(items)
    while batch := list(itertools.islice(items, _CHUNK_LINES)):
        yield batch


def _write(chunks, out_path):
    """Write the text chunks, one write each, and a newline to the --out file or stdout.

    The newline goes out on its own, as print writes it: a large write to a
    pipe can end short without an error when the reader leaves, and the
    next write is the one that raises."""
    with open(out_path, "w", encoding="utf-8") if out_path \
            else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.write("\n")


def _emit(text: str, out_path):
    _write((text,), out_path)


def _emit_json(obj, out_path):
    _emit(json.dumps(obj, indent=2, sort_keys=True), out_path)


def _json_rows(rows, header):
    """json.dumps of the rows as a list of objects, one dumps call per _CHUNK_LINES rows.

    A batch's list text is cut to what lies between its "[" and its closing
    newline and "]"; those parts joined by "," and bracketed are the text of
    the whole list."""
    sep = "["
    for batch in _batches(rows):
        text = json.dumps([dict(zip(header, row)) for row in batch], indent=2, sort_keys=True)
        yield sep + text[1:-2]
        sep = ","
    yield "[]" if sep == "[" else "\n]"


def _emit_rows(rows, header, fmt, out_path):
    """Write the rows as JSON objects, CSV or an aligned table, formatted as
    they are written; only the table holds its cells, for the column widths."""
    if fmt == "json":
        _write(_json_rows(rows, header), out_path)
        return
    if fmt == "csv":
        template = ",".join(["%s"] * len(header))
    else:
        rows = list(rows)
        widths = [max(map(len, map(str, column))) for column in zip(header, *rows)]
        template = "  ".join(["%%-%ds" % w for w in widths])
    lines = itertools.chain([template % header], map(("\n" + template).__mod__, rows))
    _write(map("".join, _batches(lines)), out_path)


def _count(value: int, flag: str) -> int:
    if value < 0:
        raise ValueError("%s must be nonnegative; got %d" % (flag, value))
    return value


def _positive(value, flag: str):
    """value (an int or a Fraction), refused by its flag's name unless above 0."""
    if value <= 0:
        raise ValueError("%s must be positive; got %s" % (flag, value))
    return value


def cmd_iterate(args) -> int:
    x = parse_point(args.point)
    rows = []
    cycle = {"0/1", "1/1", "1/0"}
    for step in range(_count(args.steps, "--steps") + 1):
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
    _emit(str(cylinder(args.word)), args.out)
    return 0


def cmd_point(args) -> int:
    max_prefix = _positive(args.max_prefix, "--max-prefix")
    goal = _positive(parse_fraction(args.precision), "--precision")
    enc = point_of_code(parse_code(args.code), max_prefix, goal)
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


def _level_h(n: int) -> list[str]:
    """h of each level-n node, i/2^n in lowest terms: level k's odd nodes are
    new, i/2^k, and its even nodes keep level k-1's labels."""
    labels = ["0/2^0", "1/2^0"]
    for k in range(1, n + 1):
        finer = [""] * ((1 << k) + 1)
        finer[::2] = labels
        finer[1::2] = map(("%%d/2^%d" % k).__mod__, range(1, 1 << k, 2))
        labels = finer
    return labels


def _fractions(level):
    """The level's nodes as "p/q" cells."""
    return ("%d/%d" % pq for pq in zip(level.nums, level.dens))


def cmd_conjugacy(args) -> int:
    _count(args.phi_grid, "--phi-grid")
    level = farey_level(args.level)
    full = 1 << args.level
    checks = list(map(conjugacy_check, level.nums, level.dens))
    rows = zip(_fractions(level), _level_h(args.level),
               ("%.12g" % (p / q if q else math.inf) for p, q in zip(level.nums, level.dens)),
               ("%.12g" % (i / full) for i in range(full + 1)),
               map(("false", "true").__getitem__, checks))
    if args.phi_grid:  # x, phi(x) samples over [0, 4]
        grid = (ExtendedRational(4 * j, args.phi_grid) for j in range(args.phi_grid + 1))
        rows = itertools.chain(rows, ((str(x), "", "%.12g" % float(x),
                                       "%.12g" % float(phi_rat(x)), "phi-grid") for x in grid))
    _emit_rows(rows, ("fraction", "h", "x_float", "y_float", "check"),
               args.format, args.out)
    return 0 if all(checks) else 1


def cmd_farey(args) -> int:
    level = farey_level(args.level)
    # the report validates the level, so a rejected level prints nothing
    rep = farey_properties_report(level) if args.report else None
    rows = zip(itertools.count(), _fractions(level), _level_h(args.level))
    _emit_rows(rows, ("index", "fraction", "h"), args.format, args.out)
    if rep is not None:
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


_ENTROPY_ROUTES = {
    "polynomial-root": lambda args: entropy_polynomial_root(args.tol),
    "word-growth": lambda args: entropy_word_growth(args.depth),
    "spectral": lambda args: transition_spectral_radius(args.depth),
    "lap-count": lambda args: entropy_lap(args.lap_depth),
}


def cmd_entropy(args) -> int:
    wanted = list(_ENTROPY_ROUTES) if args.methods == "all" else args.methods.split(",")
    estimates = []
    for name in wanted:
        if name not in _ENTROPY_ROUTES:
            raise ValueError("unknown entropy method %r" % name)
        estimates.append(_ENTROPY_ROUTES[name](args))
    payload = {
        "estimates": [e._asdict() for e in estimates],
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
    cert = mixing_certificate(args.word)
    _emit_json(cert.to_dict(), args.out)
    return 0


def cmd_periodic(args) -> int:
    x = dense_periodic_witness(args.word)
    cyl = cylinder(args.word)
    payload = {
        "word": args.word,
        "witness": str(x),
        "float": float(x),
        "period": len(args.word) + 3,
        "cylinder": str(cyl),
        "inside_cylinder": cyl.contains(x),
    }
    _emit_json(payload, args.out)
    return 0


def _random_bits(rng) -> str:
    return "".join(rng.choice("01") for _ in range(16))


def _rational_point(text: str, flag: str) -> ExtendedRational:
    """A point option that must be rational: the point syntax, a surd refused."""
    x = parse_point(text)
    if isinstance(x, QuadraticSurd):
        raise ValueError("%s must be rational; got the surd %s" % (flag, x))
    return x


def cmd_scramble(args) -> int:
    budget = _positive(args.prefix_budget, "--prefix-budget")
    rng = random.Random(args.seed)
    k_range = parse_krange(args.k_range)
    eps = _positive(parse_fraction(args.eps), "--eps")
    m_big = _positive(parse_fraction(args.m_big), "--m-big")
    beta = args.beta
    if beta is None:  # only an absent word is drawn: an empty one is refused below
        beta = _random_bits(rng)
    if args.which != "theorem1":  # the tau families track one rational
        alpha = alpha_transitive()
        tracked = [code_of_rational(_rational_point(args.tracked, "--tracked"))]
    if args.which == "rational":
        r = _rational_point(args.rational, "--rational")
        report = rational_vs_tau(r, tau_code(beta, alpha, tracked), k_range, eps=eps,
                                 m_big=m_big, prefix_budget=budget)
    else:
        other = args.xi if args.which == "theorem1" else args.eta
        if other is None:
            other = _random_bits(rng)
        # the streams read both words recycled, so the pair's cells repeat with
        # period lcm(|beta|, |other|); cells from k_range[1] on are never scheduled
        b, o = CodeStream.periodic("", beta), CodeStream.periodic("", other)
        reach = min(k_range[1], math.lcm(len(beta), len(other)))
        diffs = [m for m in range(reach) if b[m] != o[m]]
        if args.which == "theorem1":
            name, s, t = "mu", mu_code(b), mu_code(o)
            events = schedule_events("theorem1", k_range, shift=args.shift, diff_indices=diffs)
        else:
            name, s, t = "tau", tau_code(b, alpha, tracked), tau_code(o, alpha, tracked)
            events = schedule_events("theorem2", k_range, shift=args.shift,
                                     diff_index=diffs[0] if diffs else None)
        report = verify_scrambling(s, t.shifted(args.shift), events, eps=eps, m_big=m_big,
                                   prefix_len=budget,
                                   pair="%s(%s) vs %s(%s) shift=%d"
                                   % (name, beta, name, other, args.shift))
    # a scrambled pair has liminf = 0 and limsup > 0: a verdict needs both kinds
    for kind, claim in (("close", "liminf = 0"), ("far", "limsup > 0")):
        if all(o.event.kind != kind for o in report.outcomes):
            raise ValueError("no %s event in k-range %d..%d, so the run cannot certify %s"
                             % (kind, *k_range, claim))
    _emit_json(report.to_dict(), args.out)
    if report.n_fail:
        return 1
    if report.n_inconclusive:
        return 3
    return 0


def cmd_gdemo(args) -> int:
    # no node strictly inside [1/6, 1/3] makes g affine there, and an affine
    # map swapping the ends is its own inverse: g(g(x)) = x on the whole band
    sixth, quarter, third = Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)
    orbit3 = Fraction(0)
    for _ in range(3):
        orbit3 = g_map(orbit3)
    checks = {"nodes": all(g_map(x) == y for x, y in _G_NODES),
              "fixed_point": g_map(quarter) == quarter,
              "period2_band": (not any(sixth < x < third for x, _ in _G_NODES)
                               and g_map(sixth) == third and g_map(third) == sixth),
              "period3_orbit": orbit3 == 0}
    _emit_json(checks, args.out)
    return 0 if all(checks.values()) else 1


def _common(fmt_default=None, formats=("json", "csv", "table")):
    """--out on every command; --format only where the output has formats."""
    fmt = {"--format": dict(choices=formats, default=fmt_default)} if fmt_default else {}
    return {**fmt, "--out": dict(default=None, help="write output to a file")}


def _family(help_, flags):
    """A scramble family's entry: its own flags among those every family takes."""
    return help_, {"--beta": dict(help="0/1 word recycled as the first parameter"), **flags,
                   "--k-range": dict(default="5..8"), "--eps": dict(default="1/100"),
                   "--m-big": dict(default="3/2"),
                   "--prefix-budget": dict(type=int, default=10 ** 5), **_common(),
                   "--seed": dict(type=int, default=0,
                                  help="seed for the parameter words left out")}


_PAIR = dict(help="second parameter of the pair")
_SHIFT = dict(type=int, default=0)
_TRACKED = dict(default="1/1", help="rational whose code the tau stream tracks; no theorem2 "
                "or rational event reads a tracking window, so it changes no printed byte")

# Each command's arguments, as add_argument reads them, in order: a name
# without "-" is a positional, and a store_true flag states its default.
# scramble's arguments are its families', by family name.
_COMMANDS = {
    "iterate": ("exact orbit of a point", cmd_iterate, {
        "point": {}, "--steps": dict(type=int, default=10), **_common("table")}),
    "code": ("itinerary word of a point", cmd_code, {
        "point": {}, "--length": dict(type=int, default=12),
        "--tie-high": dict(action="store_true", default=False,
                           help="emit 1 at the first visit to 1 (the other rational code)"),
        **_common()}),
    "interval": ("exact cylinder of an admissible word", cmd_interval,
                 {"word": {}, **_common()}),
    "point": ("certified enclosure of a coded point", cmd_point, {
        "code": dict(help='eventually periodic code "PRE(PER)", e.g. 0(010)'),
        "--max-prefix": dict(type=int, default=64),
        "--precision": dict(default="1/1000", help="enclosure width goal, a fraction like 1/1000"),
        **_common("table", formats=("json", "table"))}),
    "conjugacy": ("level table with exact h values and checks", cmd_conjugacy, {
        "--level": dict(type=int, default=6),
        "--phi-grid": dict(type=int, default=0, help="append x,phi(x) sample rows for plotting"),
        **_common("csv")}),
    "farey": ("mediant level listing and identity report", cmd_farey, {
        "--level": dict(type=int, default=5),
        "--report": dict(action="store_true", default=False), **_common("csv")}),
    "entropy": ("entropy estimates from several routes", cmd_entropy, {
        "--methods": dict(default="all", help="all or comma list: "
                          "polynomial-root,word-growth,spectral,lap-count"),
        "--depth": dict(type=int, default=50), "--lap-depth": dict(type=int, default=18),
        "--tol": dict(type=float, default=1e-12), **_common()}),
    "mixing": ("exact covering certificate of a cylinder", cmd_mixing,
               {"word": {}, **_common()}),
    "periodic": ("irrational periodic witness inside a cylinder", cmd_periodic,
                 {"word": {}, **_common()}),
    "scramble": ("scheduled close/far event verification", cmd_scramble, {
        "theorem1": _family("bounded-family pair mu(beta), mu(xi)",
                            {"--xi": _PAIR, "--shift": _SHIFT}),
        "theorem2": _family("unbounded-family pair tau(beta), tau(eta)",
                            {"--eta": _PAIR, "--shift": _SHIFT, "--tracked": _TRACKED}),
        "rational": _family("rational orbit against tau(beta)",
                            {"--rational": dict(default="1/1"), "--tracked": _TRACKED})}),
    "gdemo": ("counterexample map sanity demonstration", cmd_gdemo, _common()),
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, built from _COMMANDS, and each command's own, by
    command name, built on first use and shared by every later call.

    Sharing is safe because parsing leaves the parsers unchanged and every
    default is immutable (str, int, float, bool, None or Fraction);
    callers must not add to the returned parsers.
    """
    ap = argparse.ArgumentParser(
        prog="fareyshift",
        description="Exact symbolic dynamics for the map x -> |1 - 1/x| on [0, infinity].",
    )
    ap.add_argument("--version", action="version", version="%(prog)s " + __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, func, args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        readers = [(p, args)]
        if name == "scramble":
            families = p.add_subparsers(dest="which", required=True)
            readers = [(families.add_parser(which, help=help_), flags)
                       for which, (help_, flags) in args.items()]
        for reader, args in readers:
            for arg, kw in args.items():
                reader.add_argument(arg, **kw)
    return ap, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The shared top-level parser (see _parsers)."""
    return _parsers()[0]


@functools.cache
def _reader(command, family=None):
    """A command's (or scramble family's) arguments as _plain reads them, built
    once: each option's dest and keywords by flag, the defaults a namespace
    starts from, and the positionals' names in order."""
    args = _COMMANDS[command][2]
    if family is not None:
        args = args[family][1]
    options = {arg: (arg[2:].replace("-", "_"), kw) for arg, kw in args.items()
               if arg.startswith("-")}
    defaults = {dest: kw.get("default") for dest, kw in options.values()}
    return options, defaults, tuple(arg for arg in args if not arg.startswith("-"))


def _plain(argv):
    """argv's namespace read from _COMMANDS as argparse reads it, or None where
    argparse must read argv: read here are a command (and scramble's family)
    followed by exact options of its own, each with a value that does not
    start with "-" and passes its type and choices, store_true flags, and
    exactly as many positionals as it takes, none starting with "-"."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    family, tokens = None, argv[1:]
    if argv[0] == "scramble":  # the family's arguments read the rest
        if not tokens or tokens[0] not in entry[2]:
            return None
        family, tokens = tokens[0], tokens[1:]
    options, defaults, names = _reader(argv[0], family)
    args = argparse.Namespace(func=entry[1])
    ns = vars(args)  # filled in place: no keyword call per argument
    if family is not None:
        ns["which"] = family
    ns.update(defaults)
    positionals = []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        option = options.get(token)
        if option is None:
            return None
        dest, kw = option
        if "action" in kw:  # store_true: it takes no value
            ns[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):  # missing, or one argparse may read as an option
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        ns[dest] = value
    if len(positionals) != len(names):
        return None
    ns.update(zip(names, positionals))
    return args


def _parse_args(argv):
    """The namespace of argv, without "command": a plain command line (see
    _plain) is read from _COMMANDS and builds no parser; any other argv gets
    one parser pass, as argparse's parse_args reads it: a known command's own
    parser reads the rest of argv, and the top-level parser reads the argv
    that names no command (--version, -h, nothing or an unknown command).

    Usage errors exit as the top-level parser's parse_args does.
    """
    plain = _plain(argv)
    if plain is not None:
        return plain
    ap, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return ap.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        ap.error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7+: exact output is never refused
        sys.set_int_max_str_digits(0)
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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
    except (ValueError, OverflowError, OSError) as exc:  # input, float or --out rejected
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
