"""Span tracer for the benchmark's traced passes.

The tracer wraps public library functions from the outside: every name
a function is bound to (its own module, the package namespace, and any
module that imported it by name) is pointed at one wrapper, so calls
are seen whichever binding the caller used.  Nothing inside the library
changes, and `uninstall` puts every original back.

Each wrapped call is a span (name, start, end, parent).  Spans live in
flat arrays in memory and are written out once, at the end of a pass.
Symbol lookups are far too many to keep one span each (hundreds of
thousands per pass), so they are aggregate spans: they are counted and
timed, and their time is subtracted from the caller's self time, but
they are not stored.  Self time is a span's duration minus the time its
child spans cover, accumulated per name as the spans close.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

_clock = time.perf_counter

# (module, function name) pairs wrapped as stored spans, named
# "<module>.<function>".  These are the layer boundaries the per-layer
# metrics are read from.
SPANS = (
    ("exact", "phi_surd"),
    ("exact", "mobius_fixed_point"),
    ("coding", "point_of_code"),
    ("coding", "cylinder"),
    ("coding", "periodic_point"),
    ("coding", "itinerary"),
    ("coding", "code_of_rational"),
    ("conjugacy", "farey_level"),
    ("conjugacy", "h_level"),
    ("conjugacy", "h_enclosure"),
    ("conjugacy", "h_rational"),
    ("conjugacy", "h_inverse"),
    ("conjugacy", "conjugacy_check"),
    ("conjugacy", "farey_properties_report"),
    ("entropy", "lap_count"),
    ("entropy", "entropy_lap"),
    ("entropy", "entropy_word_growth"),
    ("entropy", "entropy_polynomial_root"),
    ("entropy", "transition_spectral_radius"),
    ("entropy", "verify_cubic_factorization"),
    ("entropy", "mixing_certificate"),
    ("entropy", "dense_periodic_witness"),
    ("scrambled", "mu_code"),
    ("scrambled", "tau_code"),
    ("scrambled", "alpha_transitive"),
    ("scrambled", "schedule_events"),
    ("scrambled", "verify_scrambling"),
    ("scrambled", "rational_vs_tau"),
    ("cli", "main"),
)

MODULES = ("exact", "coding", "conjugacy", "entropy", "scrambled", "cli")
LOOKUP = "scrambled.lookup"          # symbol read from a procedural stream
PERIODIC_LOOKUP = "coding.symbol_at"  # symbol read from a periodic stream


class Tracer:
    """Records spans and exact counters between `install` and `uninstall`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id for children, name, start, child time]
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset_stats()

    # -- statistics -----------------------------------------------------

    def reset_stats(self) -> None:
        """Start a new phase: aggregates restart, stored spans are kept."""
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counters: dict[str, int] = {
            "coding.symbols_consumed": 0,
            "coding.width_goal_met": 0,
            "coding.enclosure_den_bits_max": 0,
            "conjugacy.farey_nodes_built": 0,
            "exact.extended_rational.constructed": 0,
            "scrambled.symbol_lookups": 0,
            "scrambled.events": 0,
            "scrambled.events_decided": 0,
        }

    def _enter(self, name: str, stored: bool) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        self._depth[name] = self._depth.get(name, 0) + 1
        start = _clock()
        if stored:
            sid = len(self.span_start)
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(start)
            frame = [sid, name, start, 0.0]
        else:
            frame = [parent, name, start, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, stored: bool) -> None:
        end = _clock()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        if stored:
            self.span_end[sid] = end
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            self.incl_s[name] = self.incl_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name: str):
        """Context manager for a harness span (one per benchmark op)."""
        return _Span(self, name)

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, fn, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, True)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, True)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _symbol_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def symbol_at(stream, n):
            procedural = stream.kind == "procedural"
            if procedural:
                tracer.counters["scrambled.symbol_lookups"] += 1
            frame = tracer._enter(LOOKUP if procedural else PERIODIC_LOOKUP, False)
            try:
                return fn(stream, n)
            finally:
                tracer._exit(frame, False)

        return symbol_at

    def _count_wrapper(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def init(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return init

    def _bind(self, original, replacement, namespaces) -> None:
        """Point every binding of `original` in the namespaces at the replacement."""
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, key, original))
                    setattr(ns, key, replacement)

    def install(self, extra_namespaces=()) -> None:
        """Wrap the library's layer boundaries wherever they are bound."""
        pkg = sys.modules["fareyshift"]
        mods = {m: sys.modules["fareyshift." + m] for m in MODULES if "fareyshift." + m in sys.modules}
        namespaces = [pkg, *mods.values(), *extra_namespaces]
        hooks = {
            "coding.point_of_code": self._on_enclosure,
            "conjugacy.farey_level": self._on_level,
            "scrambled.verify_scrambling": self._on_report,
            "scrambled.rational_vs_tau": self._on_report,
        }
        for mod_name, fn_name in SPANS:
            mod = mods.get(mod_name)
            if mod is None:
                continue
            original = getattr(mod, fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            self._bind(original, self._wrapper(original, name, hooks.get(name)), namespaces)
        code_stream = mods["coding"].CodeStream
        original = code_stream.symbol_at
        self._bind(original, self._symbol_wrapper(original), [code_stream])
        ext = mods["exact"].ExtendedRational
        original = ext.__init__
        self._restore.append((ext, "__init__", original))
        ext.__init__ = self._count_wrapper(original, "exact.extended_rational.constructed")

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    def _on_enclosure(self, enc) -> None:
        c = self.counters
        c["coding.symbols_consumed"] += enc.prefix_len
        c["coding.width_goal_met"] += bool(enc.width_ok)
        bits = max(enc.interval.lo.den.bit_length(), enc.interval.hi.den.bit_length())
        if bits > c["coding.enclosure_den_bits_max"]:
            c["coding.enclosure_den_bits_max"] = bits

    def _on_level(self, level) -> None:
        self.counters["conjugacy.farey_nodes_built"] += len(level.entries)

    def _on_report(self, report) -> None:
        self.counters["scrambled.events"] += len(report.outcomes)
        self.counters["scrambled.events_decided"] += len(report.outcomes) - report.n_inconclusive

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every stored span as tab-separated id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i, self.span_parent[i], names[self.span_name[i]],
                    self.span_start[i], self.span_end[i]))


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name, True)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame, True)
        return False
