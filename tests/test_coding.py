import inspect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import escape_word, per_symbol_stream, pre_and_period
from fareyshift.exact import (
    GOLDEN_FIXED_POINT,
    INF,
    ONE,
    ZERO,
    ExtendedRational,
    QuadraticSurd,
    escape_time,
    mobius_apply,
    phi_rat,
    phi_surd,
)
from fareyshift import coding
from fareyshift.coding import (
    _CYCLE_CODE,
    _CYCLE_MATRIX,
    _GALLOP_MIN,
    FULL_LINE,
    CodeStream,
    FareyInterval,
    InadmissibleWordError,
    PointEnclosure,
    _enclose,
    _endpoints,
    _interval_of,
    _mul,
    _neutral_periods,
    _steps,
    _word_matrix,
    admissible_words,
    code_of_rational,
    cylinder,
    is_admissible,
    itinerary,
    periodic_point,
    phi_interval_image,
    point_of_code,
)
from fareyshift.cli import parse_code
from fareyshift.scrambled import (
    BlockLayout,
    alpha_transitive,
    mu_code,
    rational_vs_tau,
    schedule_events,
    tau_code,
    verify_scrambling,
)


def xr(n, d=1):
    return ExtendedRational(n, d)


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


admissible_word = st.text(alphabet="01", min_size=1, max_size=14).filter(is_admissible)


def _advance(m, sym):
    """The matrix m times psi0's (sym 0) or psi1's (sym 1): the reference stepper."""
    a, b, c, d = m
    if sym == 0:
        return (b, a + b, d, c + d)
    return (-b, a + b, -d, c + d)


def _interval_of_reference(m, last_sym):
    """The mobius_apply version of _interval_of: two gcds and an ordered compare."""
    p1 = mobius_apply(m, ZERO)
    p2 = mobius_apply(m, ONE if last_sym else INF)
    return FareyInterval(p1, p2) if p1 <= p2 else FareyInterval(p2, p1)


def _endpoints_by_cross(m, last_sym):
    """_endpoints ordered by cross-multiplying the full-size entries: the
    reference for the det-mod-4 order."""
    a, b, c, d = m
    if last_sym:
        a, c = a + b, c + d
    return (b, d, a, c) if b * c < a * d else (a, c, b, d)


def _point_of_code_reference(s, max_prefix, width_goal):
    """The per-symbol FareyInterval loop that point_of_code replaced."""
    if max_prefix < 1:
        raise ValueError("max_prefix must be positive")
    goal = Fraction(width_goal)
    if goal <= 0:
        raise ValueError("width_goal must be positive")
    m = (1, 0, 0, 1)
    prev = 0
    iv = FULL_LINE
    for i in range(max_prefix):
        sym = s[i]
        if prev == 1 and sym == 1:
            raise InadmissibleWordError("stream prefix contains '11' at index %d" % i)
        m = _advance(m, sym)
        iv = _interval_of(m, sym)
        w = iv.width()
        if w is not None and w < goal:
            return PointEnclosure(iv, i + 1, True)
        prev = sym
    return PointEnclosure(iv, max_prefix, False)


_TRACKED = [code_of_rational(ONE), code_of_rational(xr(3, 5))]
_PROCEDURAL = [mu_code("011010"), mu_code("1"),
               tau_code("011010", alpha_transitive(), _TRACKED)]

periodic_codes = st.builds(
    CodeStream.periodic,
    st.text(alphabet="01", max_size=6),
    st.text(alphabet="01", min_size=1, max_size=8),
)


def _seams(s):
    """A periodic stream's pre + per + per: a prefix holding each of its adjacent pairs."""
    pre, per = pre_and_period(s)
    return pre + per + per


admissible_periodic_codes = periodic_codes.filter(lambda c: is_admissible(_seams(c)))


def _rewrap(s):
    """The same symbols as one-symbol segments: the segment walk's per-symbol tail."""
    return per_symbol_stream(s.symbol_at, label=s.label)


class _ReadLimitedWord(str):
    """A run's word that refuses more symbol reads than a correct walk makes
    (at most two periods and a few symbols per segment, or the few hundred a
    run is stepped to a shallow goal), so that a walk reading a long run
    symbol by symbol fails at once instead of running on."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        assert self.reads <= 10 ** 4, "a run of %r read symbol by symbol" % str(self)
        return str.__getitem__(self, key)


def _read_limited(s):
    """A segmented stream's runs with each word read-limited (_ReadLimitedWord):
    the same symbols and segments, so a walk that reads a long run of a
    library-built stream symbol by symbol fails at once instead of running on."""
    assert s.kind == "procedural", s  # wrapping a periodic stream would make it segmented

    def runs(n):
        word, end = s.run_at(n)
        return _ReadLimitedWord(word), end

    return CodeStream.segmented(runs, label=s.label)


# one-symbol segments of periodic codes, admissible or not
rewrapped_periodic_codes = st.one_of(admissible_periodic_codes, periodic_codes).map(_rewrap)
rational_and_unbounded_codes = st.sampled_from(
    [CodeStream.periodic("", per) for per in ("100", "010", "001")])
procedural_codes = st.builds(
    CodeStream.shifted,
    st.sampled_from([_read_limited(s) for s in _PROCEDURAL]),
    st.one_of(st.integers(0, 6000), st.sampled_from([118, 119, 120, 239, 719, 720, 5039])),
)
width_goals = st.one_of(
    st.integers(0, 60).map(lambda k: Fraction(1, 10 ** k)),
    st.sampled_from([Fraction(3, 7), Fraction(5), 5, Fraction(22, 7), Fraction(1, 3 ** 40)]),
    st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 9)),
)


class TestWords:
    def test_admissibility(self):
        assert is_admissible("0100100")
        assert not is_admissible("0110")
        assert not is_admissible("01a0")

    @pytest.mark.parametrize("bad", ["2", " ", "O", "\u0661"])
    def test_symbols_other_than_0_1_are_not_admissible(self, bad):
        for word in (bad, "0" + bad, bad + "0", "010" + bad + "01"):
            assert not is_admissible(word), word

    def test_empty_word_is_admissible(self):
        assert is_admissible("")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01 2Oa\u0661\u00b9", max_size=12))
    def test_admissibility_by_definition(self, word):
        assert is_admissible(word) == (all(ch in "01" for ch in word) and "11" not in word)

    def test_enumeration_counts(self):
        # brute-force oracle: filter all bit strings
        for n in range(1, 12):
            brute = [format(v, "0%db" % n) for v in range(2 ** n)]
            brute = sorted(w for w in brute if "11" not in w)
            assert admissible_words(n) == brute


class TestCodeStream:
    def test_periodic_indexing(self):
        s = CodeStream.periodic("0", "010")
        assert s.prefix(8) == "00100100"
        assert [s[i] for i in range(5)] == [0, 0, 1, 0, 0]

    def test_shift_renormalises(self):
        zero = CodeStream.periodic("", "0")
        assert zero.shifted(5).prefix(6) == "000000"
        s = CodeStream.periodic("0", "010")
        assert pre_and_period(s.shifted(1)) == ("", "010")
        t = CodeStream.periodic("", "100")
        assert pre_and_period(t.shifted(3)) == ("", "100")
        assert t.shifted(4).prefix(6) == "001001"

    def test_periodic_symbols_are_ints(self):
        # preperiod, the seam into the period, the seam between periods,
        # and shifts that land in the preperiod, at a seam or mid-period
        s = CodeStream.periodic("0100", "00101")
        for t in (s, s.shifted(2), s.shifted(4), s.shifted(7), CodeStream.periodic("", "1")):
            want = t.prefix(20)
            for i in range(20):
                sym = t[i]
                assert type(sym) is int and sym in (0, 1)
                assert sym == (want[i] == "1")
            with pytest.raises(IndexError):
                t.symbol_at(-1)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="01", max_size=6), st.text(alphabet="01", min_size=1, max_size=8))
    @example("", "1")
    @example("0100", "0")
    def test_symbol_table_reads_the_plain_string(self, pre, per):
        # against pre + per * k itself, not against another read of the stream
        n = len(pre) + 3 * len(per)
        plain = pre + per * (2 * n + 2)
        s = CodeStream.periodic(pre, per)
        # shifts inside the preperiod, at its end and past it into the period
        for k in range(len(pre) + len(per) + 2):
            t = s.shifted(k)
            for i in range(n):
                sym = t.symbol_at(i)
                assert type(sym) is int and sym in (0, 1)
                assert sym == int(plain[k + i]), (pre, per, k, i)
            with pytest.raises(IndexError):
                t[-1]

    @staticmethod
    def _symbol_by_byte_table(s, n):
        """symbol_at as it once was: one index into the bytes of pre + per,
        here of the unshifted stream (s's runs read from 0), at n + offset."""
        pre, per = pre_and_period(CodeStream(s.kind, s._runs))
        syms, p, q, n = bytes(int(ch) for ch in pre + per), len(pre), len(per), n + s._offset
        return syms[p + (n - p) % q] if n >= p else syms[n]

    @settings(max_examples=200, deadline=None)
    @given(periodic_codes, st.integers(0, 3 * 10 ** 12), st.integers(1, 7))
    @example(CodeStream.periodic("0100", "00101"), 10 ** 12, 3)
    @example(CodeStream.periodic("", "1"), 0, 1)
    def test_period_list_matches_the_byte_table(self, s, k, m):
        # shifts inside the preperiod, at its end, mid-period and nested
        # (a shift of each), read at the seams and near 10^12
        p, q = s._p, s._q
        shifts = [s] + [s.shifted(j) for j in range(1, p + 2 * q + 1)] + [s.shifted(k)]
        shifts += [t.shifted(m) for t in shifts]
        for t in shifts:
            tp, tq = t._p, t._q
            seams = {0, tp, tp + tq, tp + 2 * tq + m}
            for base in (0, tp, 10 ** 12, 10 ** 12 + tp):
                seams.update(base + d for d in range(-1, tq + 2))
            for n in sorted(i for i in seams if i >= 0):
                sym = t.symbol_at(n)
                assert type(sym) is int and sym == self._symbol_by_byte_table(t, n), (t, n)

    @pytest.mark.parametrize("bad", ["2", " ", "O", "\u0661"])
    def test_symbols_other_than_0_1_rejected(self, bad):
        for pre, per in (("0" + bad, "01"), ("", "0" + bad), (bad, "0"), ("", bad)):
            with pytest.raises(ValueError, match="^symbols must be 0/1$"):
                CodeStream.periodic(pre, per)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(periodic_codes, st.sampled_from(
               _PROCEDURAL + [alpha_transitive(),
                              per_symbol_stream(lambda n: 1 if n % 5 == 0 else 0)])),
           st.integers(0, 6000), st.integers(0, 2000))
    def test_prefix_reads_the_symbols(self, s, k, n):
        # one run_at walk reads periodic, one-symbol-segment and segmented streams
        assert s.prefix(n) == "".join(str(s[i]) for i in range(n))
        assert s.shifted(k).prefix(n) == s.prefix(k + n)[k:]

    def test_every_built_stream_has_one_of_two_shapes(self):
        builders = [CodeStream.periodic("0100", "00101"), parse_code("1(00100)"),
                    code_of_rational(xr(22, 7)), code_of_rational(INF, tie_high=True),
                    mu_code("0110"), alpha_transitive(),
                    tau_code("0110", alpha_transitive(), _TRACKED)]
        for base in builders:
            for s in [base.shifted(k) for k in (0, 1, 119, 120, 721)]:
                # every stream is its runs plus an offset; a periodic one also
                # holds its period list and the preperiod left after the offset
                assert callable(s._runs) and type(s._offset) is int
                if s.kind == "periodic":
                    pre, per = pre_and_period(s)
                    assert type(s._cycle) is list and len(s._cycle) == s._q == len(per)
                    assert s._p == len(pre)
                    # the base's whole preperiod, shared: the part left starts at the offset
                    assert s._pre is base._pre and s._pre[s._offset:s._offset + s._p] == pre
                else:
                    # bench/tracing.py splits scrambled.lookup from coding.symbol_at on this kind
                    assert s.kind == "procedural"
                    assert (s._pre, s._cycle, s._p, s._q) == (None, None, 0, 1)
                # each segment's first, second and last symbol, up to index 6000
                indices, i = set(), 0
                while i < 6000:
                    word, end = s.run_at(i)
                    last = i + 2 * len(word) if end is None else end - 1
                    indices.update((i, min(i + 1, last), last))
                    if end is None:
                        break
                    i = end
                for i in sorted(indices):
                    sym = s[i]
                    assert type(sym) is int and sym == int(s.run_at(i)[0][0]), (s, i)

    def test_shifted_labels(self):
        # formatted when read, as shift(label,k), shift upon shift
        s = CodeStream.periodic("01", "001")
        t = s.shifted(3).shifted(2)
        assert t.label == "shift(shift(01(001),3),2)"
        assert repr(t) == "CodeStream(shift(shift(01(001),3),2))"
        assert s.shifted(0) is s and s.label == "01(001)"
        assert code_of_rational(xr(7, 3)).shifted(9).label == "shift(code(7/3),9)"
        assert mu_code("0110").shifted(120).label == "shift(mu((0110)),120)"
        assert repr(CodeStream.segmented(lambda n: ("0", None), label="").shifted(1)) == \
            "CodeStream(shift(,1))"

    @staticmethod
    def _assert_shift_has_the_built_shape(s, k, t, want):
        """t = s.shifted(k) against want, a dict of every slot's value: the
        runs shared with s (the same object), the label text, and the
        symbols, runs and prefix of s read from k on."""
        assert sorted(want) == sorted(CodeStream.__slots__)
        for name, exp in want.items():
            got = getattr(t, name)
            assert type(got) is type(exp) and got == exp, (s, k, name, got, exp)
        assert t._runs is s._runs and t._pre is s._pre
        assert t.label == "shift(%s,%d)" % (s.label, k)
        for i in range(3 * k + 40):
            assert t.symbol_at(i) == s.symbol_at(k + i), (s, k, i)
            word, end = s.run_at(k + i)
            assert t.run_at(i) == (word, None if end is None else end - k), (s, k, i)
        assert t.prefix(3 * k + 40) == s.prefix(4 * k + 40)[k:]

    @pytest.mark.parametrize("pre, per", [
        ("0100", "00101"), ("", "00101"), ("1", "0"), ("", "1"), ("00", "010")])
    def test_periodic_shift_has_the_built_shape(self, pre, per):
        # shifts inside the preperiod, at its end and 0..2q past it, then
        # each shifted once more
        p, q = len(pre), len(per)
        plain = pre + per * (p + 3 * q + 8)

        def built(n, label):
            """The slots of pre + per repeated, read from n on: the preperiod
            left, and the period list whose entry i % q is symbol i past it."""
            left = max(0, p - n)
            cycle = [int(plain[n + i + q * (left // q + 1)]) for i in range(q)]
            return {"kind": "periodic", "_runs": s._runs, "_offset": n, "_pre": pre,
                    "_cycle": cycle, "_p": left, "_q": q, "_label": label}

        s = CodeStream.periodic(pre, per)
        for k in range(1, len(pre) + 2 * len(per) + 1):
            once = s.shifted(k)
            self._assert_shift_has_the_built_shape(s, k, once, built(k, (s._label, k)))
            for m in (1, 2):
                want = built(k + m, ((s._label, k), m))
                self._assert_shift_has_the_built_shape(once, m, once.shifted(m), want)

    @pytest.mark.parametrize("base", [
        mu_code("0110"), tau_code("0110", alpha_transitive(), _TRACKED)],
        ids=["mu", "tau"])
    def test_segmented_shift_has_the_built_shape(self, base):
        # shifted once, then shifted again
        def built(n, label):
            """The slots CodeStream(...) gives base's runs read from n on."""
            want = CodeStream("procedural", base._runs, offset=n, label=label)
            return {name: getattr(want, name) for name in CodeStream.__slots__}

        for k in (1, 119, 120, 721):
            once = base.shifted(k)
            self._assert_shift_has_the_built_shape(base, k, once, built(k, (base._label, k)))
            for m in (1, 5):
                want = built(k + m, ((base._label, k), m))
                self._assert_shift_has_the_built_shape(once, m, once.shifted(m), want)

    def test_shift_shares_a_long_preperiod(self):
        # the 10^7-symbol escape word of 1/6666667 typed as a preperiod, and
        # the rational's own code (its runs), shifted inside the preperiod,
        # at its end and past it, then each shifted again: the runs are
        # shared, not copied, and the seams read the base from k on
        x = xr(1, 6666667)
        p = escape_time(x)
        for s in (CodeStream.periodic(escape_word(x), "010"), code_of_rational(x)):
            assert p > 9 * 10 ** 6 and s.run_at(p - 1)[1] == p and s.run_at(p)[1] is None
            assert s._p == (p if s.kind == "periodic" else 0)
            once = [s.shifted(k) for k in (1, 2, p // 2, p - 1, p, p + 1, p + 2, p + 100)]
            for t in once + [t.shifted(m) for t in once for m in (1, 3)]:
                k = t._offset
                assert t._runs is s._runs and t._pre is s._pre, k
                assert t._p == (max(p - k, 0) if s._p else 0), k
                seams = {0, 1, 2} | {i for i in range(p - k - 3, p - k + 8) if i >= 0}
                for i in sorted(seams):
                    assert t.symbol_at(i) == s.symbol_at(k + i), (k, i)
                    word, end = s.run_at(k + i)
                    assert t.run_at(i) == (word, None if end is None else end - k), (k, i)
                n = max(p - k, 0) + 8
                assert t.prefix(n) == s.prefix(k + n)[k:], k

    def test_preperiod_runs_are_short(self):
        # at the start, the middle and the last 70 indices of the 10^7-symbol
        # escape word of 1/6666667 typed as a preperiod, unshifted and shifted:
        # each run holds at most 64 symbols, read once, and ends at or before
        # the preperiod's end; the rational's own code reads the same symbols
        # in its two runs, 0 and (100)^3333333, each ending where the word's does
        x = xr(1, 6666667)
        p = escape_time(x)
        s, code = CodeStream.periodic(escape_word(x), "010"), code_of_rational(x)
        assert code.run_at(0) == ("0", 1) and code.run_at(1) == ("100", p)
        for k in (0, 1, p // 2 + 7):
            t, c, left = s.shifted(k), code.shifted(k), p - k
            for n in [*range(70), *range(left // 2 - 35, left // 2 + 35), *range(left - 70, left)]:
                word, end = t.run_at(n)
                assert 1 <= len(word) <= 64 and end == n + len(word) <= left, (k, n, end)
                assert word[0] == str(t.symbol_at(n)) == str(s.symbol_at(k + n)), (k, n)
                cword, cend = c.run_at(n)
                m = min(len(word), cend - n)
                assert cend == (1 if k + n == 0 else left) and (cword * 22)[:m] == word[:m], (k, n)
            assert t.run_at(left)[1] is c.run_at(left)[1] is None

    @staticmethod
    def _assert_runs_join(s, pre, per, k):
        """The runs of s.shifted(k) from 0, of s = pre(per), each read up to its
        end: runs up to the preperiod's end (of at most 64 symbols, read once,
        for a periodic s), then the period in phase."""
        t, p, q = s.shifted(k), len(pre), len(per)
        plain = pre + per * (k // q + 3)
        words, i = [], 0
        while True:
            word, end = t.run_at(i)
            if end is None:
                break
            assert i < end <= p - k, (k, i, end)
            if s.kind == "periodic":
                assert 1 <= len(word) <= 64 and end == i + len(word), (k, i, end)
            words.append((word * (end - i))[:end - i])
            i = end
        start = max(p, k)
        assert "".join(words) + word == plain[k:start + q], k
        for i in range(start - k + q + 2):
            assert t.symbol_at(i) == int(plain[k + i]), (k, i)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="01", max_size=300), st.text(alphabet="01", min_size=1, max_size=8),
           st.integers(0, 300), st.integers(0, 24))
    @example("01" * 150, "001", 150, 7)
    def test_runs_join_to_the_preperiod_and_period(self, pre, per, inside, past):
        # shifted inside the preperiod, at its end and past it
        s = CodeStream.periodic(pre, per)
        p = len(pre)
        shifts = {0, 1, 63, 64, 65, min(inside, p), p - 1, p, p + 1, p + past}
        for k in sorted(j for j in shifts if j >= 0):
            self._assert_runs_join(s, pre, per, k)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 200), st.booleans(), st.integers(0, 400))
    @example(1, 200, False, 150)  # escape time 299
    def test_rational_runs_join_to_the_escape_word(self, num, den, tie_high, inside):
        # the escape word read off the continued fraction, then the 3-cycle
        x = xr(num, den)
        s, pre = code_of_rational(x, tie_high), escape_word(x, tie_high)
        p = len(pre)
        for k in sorted(j for j in {0, 1, 64, min(inside, p), p - 1, p, p + 1, p + 4} if j >= 0):
            self._assert_runs_join(s, pre, "010", k)

    def test_procedural_shift_and_cache(self):
        s = per_symbol_stream(lambda n: 1 if n % 5 == 0 else 0)
        assert s.prefix(11) == "10000100001"
        assert s.shifted(3).prefix(4) == "0010"

    def test_admissibility_checks(self):
        def seams_admissible(s):
            return is_admissible(_seams(s))

        assert seams_admissible(CodeStream.periodic("", "1")) is False
        assert seams_admissible(CodeStream.periodic("010", "011")) is False
        assert seams_admissible(CodeStream.periodic("", "10")) is True  # wraps to 1010...
        assert seams_admissible(CodeStream.periodic("0", "010")) is True
        assert is_admissible(CodeStream.periodic("01", "0").prefix(40))


# every admissible word is a run of "0" and "10" pieces, then maybe a final "1"
long_admissible_word = st.builds(
    lambda pieces, tail: "".join(pieces) + tail,
    st.lists(st.sampled_from(["0", "10"]), max_size=100),
    st.sampled_from(["", "1"]),
).filter(bool)


class TestIntervalOf:
    """Endpoints read off the matrix against the mobius_apply reference."""

    @staticmethod
    def _assert_matches_reference(word):
        m, last = _word_matrix(word), int(word[-1])
        got = _interval_of(m, last)
        assert got == _interval_of_reference(m, last), word
        assert got.lo < got.hi, word
        for p in (got.lo, got.hi):
            assert math.gcd(p.num, p.den) == 1 and p.num >= 0 and p.den >= 0, (word, p)

    def test_exhaustive_to_12(self):
        for n in range(1, 13):
            for w in admissible_words(n):
                self._assert_matches_reference(w)

    @settings(max_examples=300, deadline=None)
    @given(long_admissible_word)
    def test_long_words(self, w):
        self._assert_matches_reference(w)


def _enclose_deep_ops(seed):
    """(pre, per, e) of the enclose-deep bench workload's 150 ops at seed,
    drawn as it draws them: admissible pre of up to 5 symbols and per of 1
    to 8 with an irrational periodic point, and the goal 10^-e from a
    log-stratified work target over the symbols one digit costs."""
    rng = random.Random(seed)

    def word(length):
        out = ""
        for _ in range(length):
            out += "0" if out[-1:] == "1" else rng.choice("01")
        return out

    ops = []
    for i in range(150):
        while True:
            pre, per = word(rng.randint(0, 5)), word(rng.randint(1, 8))
            if "11" in pre + per + per:
                continue
            a, b, c, d = _word_matrix(per)
            disc = (d - a) ** 2 + 4 * b * c
            if c != 0 and math.isqrt(disc) ** 2 != disc:
                break
        trace, det = a + d, a * d - b * c
        rho = (abs(trace) + math.sqrt(trace * trace - 4 * det)) / 2
        per_digit = len(per) * math.log(10) / (2 * math.log(rho))
        work = 4e4 * (1.2e6 / 4e4) ** ((i + rng.random()) / 150)
        ops.append((pre, per, max(1, round(math.sqrt(work / per_digit)))))
    return ops


class TestEndpointOrder:
    """_endpoints orders the endpoints by det mod 4 (det = +-1) against the
    cross-multiplication of the full-size entries (_endpoints_by_cross)."""

    @staticmethod
    def _assert_same_order(m, last):
        a, b, c, d = m
        det = a * d - b * c
        assert det in (-1, 1), (m, last)
        assert _endpoints(m, last) == _endpoints_by_cross(m, last), (m, last)
        return det

    def test_admissible_words_to_14_on_either_base(self):
        dets = set()
        for n in range(1, 15):
            for w in admissible_words(n):
                m = _word_matrix(w)
                dets |= {self._assert_same_order(m, last) for last in (0, 1)}
        assert dets == {-1, 1}

    def test_enclose_deep_draw(self):
        # seeds 1..10 of the bench's draw, at its prefix cap of 50000: every
        # goal is met, on matrices of up to about 1200 bits, with either det
        dets, bits = set(), 0
        for seed in range(1, 11):
            for pre, per, e in _enclose_deep_ops(seed):
                m, last, _, ok = _enclose(CodeStream.periodic(pre, per), 0, 50000, 1, 10 ** e)
                assert ok, (seed, pre, per, e)
                dets.add(self._assert_same_order(m, last))
                bits = max(bits, m[3].bit_length())
        assert dets == {-1, 1} and bits > 1000, (dets, bits)

    def test_mu_and_tau_streams(self):
        # the scramble checks' streams, at eps/8 for eps = 1/100 and at a
        # goal thousands of bits deep, from run starts and points inside runs
        streams = _PROCEDURAL + [mu_code("0")]
        starts = list(range(0, 130, 3)) + [239, 240, 719, 720, 5039, 5040, 5100]
        dets = set()
        for s in streams:
            for k in starts:
                for goal_den in (800, 10 ** 3000):
                    try:
                        m, last, _, _ = _enclose(s, k, 10 ** 5, 1, goal_den)
                    except InadmissibleWordError:
                        continue
                    dets.add(self._assert_same_order(m, last))
        assert dets == {-1, 1}

    def test_every_small_unimodular_matrix(self):
        # entries of -6..6 with det +-1, either sign of each, so the masks
        # are read on negative entries too
        dets = set()
        for m in itertools.product(range(-6, 7), repeat=4):
            if m[0] * m[3] - m[1] * m[2] in (-1, 1):
                dets |= {self._assert_same_order(m, last) for last in (0, 1)}
        assert dets == {-1, 1}

    def test_unbounded_enclosures(self):
        # c = 0 or d = 0 after the trailing symbol's column sum: an endpoint
        # at infinity, on the neutral cycle's codes and on 10 from nothing;
        # infinity is always the upper endpoint, so c = 0 comes with det +1
        # and d = 0 with det -1
        zeros = set()
        for pre, per in (("", "100"), ("", "010"), ("", "001"), ("", "10"), ("0", "10"),
                         ("1", "010"), ("01", "001")):
            s = CodeStream.periodic(pre, per)
            for max_prefix in list(range(1, 13)) + [1000, 10 ** 5]:
                for goal_den in (800, 10 ** 3000):
                    m, last, _, _ = _enclose(s, 0, max_prefix, 1, goal_den)
                    det = self._assert_same_order(m, last)
                    _, _, c, d = m
                    q = c + d if last else c
                    if not q or not d:
                        zeros.add(("c" if not q else "d", det))
        assert zeros == {("c", 1), ("d", -1)}, zeros

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(admissible_periodic_codes, rewrapped_periodic_codes, procedural_codes,
                     rational_and_unbounded_codes),
           st.integers(0, 40), st.integers(1, 3000), width_goals)
    def test_enclose_matrices_have_det_one_or_minus_one(self, s, k, max_prefix, goal):
        goal = Fraction(goal)
        try:
            m, last, _, _ = _enclose(s, k, max_prefix, goal.numerator, goal.denominator)
        except InadmissibleWordError:
            return
        self._assert_same_order(m, last)


class TestCylinder:
    def test_depth_one_and_two(self):
        assert cylinder("0") == FareyInterval(ZERO, ONE)
        assert cylinder("1") == FareyInterval(ONE, INF)
        assert cylinder("00") == FareyInterval(xr(1, 2), ONE)
        assert cylinder("01") == FareyInterval(ZERO, xr(1, 2))

    def test_bounded_union_pieces(self):
        assert cylinder("000") == FareyInterval(xr(1, 2), xr(2, 3))
        assert cylinder("001") == FareyInterval(xr(2, 3), ONE)
        assert cylinder("0100") == FareyInterval(ZERO, xr(1, 3))
        assert cylinder("1000") == FareyInterval(xr(2), xr(3))

    def test_rejects_inadmissible(self):
        with pytest.raises(InadmissibleWordError):
            cylinder("0110")
        with pytest.raises(InadmissibleWordError):
            cylinder("")

    def test_against_recursive_oracle(self):
        # independent route: intersect-and-map right to left with the
        # branch inverses applied endpoint by endpoint
        psi0, psi1 = (0, 1, 1, 1), (0, 1, -1, 1)  # y -> 1/(1+y), y -> 1/(1-y)

        def oracle(word):
            lo, hi = ZERO, INF
            for ch in reversed(word):
                if ch == "0":
                    lo, hi = mobius_apply(psi0, hi), mobius_apply(psi0, lo)
                else:
                    hi = min(hi, ONE)
                    lo, hi = mobius_apply(psi1, lo), mobius_apply(psi1, hi)
            return FareyInterval(lo, hi)

        for n in range(1, 11):
            for w in admissible_words(n):
                assert cylinder(w) == oracle(w)

    def test_unimodular_exhaustive_to_18(self):
        for n in range(1, 19):
            for w in admissible_words(n):
                iv = cylinder(w)  # endpoints b/a, d/c with |b*c - a*d| = 1
                assert abs(iv.lo.num * iv.hi.den - iv.lo.den * iv.hi.num) == 1

    def test_nesting_exhaustive_to_12(self):
        for n in range(2, 13):
            for w in admissible_words(n):
                parent, child = cylinder(w[:-1]), cylinder(w)
                assert parent.lo <= child.lo and child.hi <= parent.hi

    def test_image_equals_tail_to_10(self):
        for n in range(2, 11):
            for w in admissible_words(n):
                pieces = phi_interval_image(cylinder(w))
                lo = min(p.lo for p in pieces)
                hi = max(p.hi for p in pieces)
                assert FareyInterval(lo, hi) == cylinder(w[1:])

    def test_mediant_split_to_12(self):
        # a parent ending in 0 has two children split exactly at its mediant;
        # after a trailing 1 the only extension is by 0 and nothing splits
        for n in range(1, 13):
            for w in admissible_words(n):
                parent = cylinder(w)
                if w.endswith("0"):
                    left, right = cylinder(w + "1"), cylinder(w + "0")
                    if left.lo > right.lo:
                        left, right = right, left
                    lo, hi = parent.lo, parent.hi
                    med = ExtendedRational(lo.num + hi.num, lo.den + hi.den)
                    assert left.hi == med and right.lo == med
                    assert left.lo == parent.lo and right.hi == parent.hi
                else:
                    assert cylinder(w + "0") == parent

    @settings(max_examples=150, deadline=None)
    @given(admissible_word)
    def test_width_law_when_bounded(self, w):
        iv = cylinder(w)
        if iv.is_bounded:
            assert iv.width() == Fraction(1, iv.lo.den * iv.hi.den)


class TestItinerary:
    def test_boundary_tie_rule(self):
        assert itinerary(ONE, 7) == "0010010"
        assert itinerary(ONE, 7, tie_high=True) == "1010010"

    def test_golden_point_all_zero(self):
        assert itinerary(GOLDEN_FIXED_POINT, 5) == "00000"

    def test_rational_example(self):
        assert itinerary(xr(5, 2), 3) == "100"

    def test_special_points(self):
        assert itinerary(ZERO, 6) == "010010"
        assert itinerary(INF, 6) == "100100"
        # one code each, so the tie rule leaves them alone
        assert itinerary(ZERO, 9, tie_high=True) == "010010010"
        assert itinerary(INF, 9, tie_high=True) == "100100100"

    @pytest.mark.parametrize("tie_high", [False, True])
    def test_every_rational_itinerary_is_admissible(self, tie_high):
        points = {ZERO, INF} | {xr(p, q) for p in range(1, 41) for q in range(1, 41)}
        for x in points:
            word = itinerary(x, escape_time(x) + 6 if x != INF else 9, tie_high)
            assert is_admissible(word), (x, word)

    def test_round_trip_periodic_points(self):
        rng = random.Random(20)
        words = set()
        while len(words) < 500:
            n = rng.randrange(1, 15)
            words.add(rng.choice(admissible_words(n)))
        for w in sorted(words):
            x = periodic_point("", w + "00")
            assert itinerary(x, len(w)) == w


def _bits(word):
    return bytes(int(ch) for ch in word)


def _periodic_tables(s, k, n):
    """The preperiod of s shifted by k, cut at n, and its period from there on, as 0/1 bytes:
    the preperiod sliced from s's string, the period off _cycle rotated to index max(p, k)."""
    p, off = s._p, s._offset
    pre = s._pre[off + k:off + min(p, k + n)]  # empty when k >= p
    j, cycle = (p if p > k else k) % s._q, s._cycle
    return _bits(pre), bytes(cycle[j:] + cycle[:j])


def _prefix_matrix(pre, per, n):
    """The matrix of the first n symbols of pre + per + per + ... (0/1 bytes).

    With p = |pre|, q = |per| and k, r = divmod(n - p, q) it is
    Pre * W^k * R (W the period's matrix, R its first r symbols'), W^k
    formed by squaring when k >= 2, reading k's bits from the top so
    that every other multiply is by W itself; shorter prefixes are
    stepped symbol by symbol.
    """
    p = len(pre)
    k, r = divmod(n - p, len(per))
    if k < 2:
        return _steps((1, 0, 0, 1), (pre + per + per)[:n])
    w = power = _steps((1, 0, 0, 1), per)
    for bit in bin(k)[3:]:
        power = _mul(power, power)
        if bit == "1":
            power = _mul(power, w)
    m = _mul(_steps((1, 0, 0, 1), pre), power) if p else power
    return _steps(m, per[:r])


def _enclose_by_kernel(s, k, max_prefix, goal_num, goal_den):
    """_enclose on a periodic stream as the bottom-row kernel read it, at any goal.

    The first "11" is found before the walk, by one search of the shifted
    stream's byte tables; each symbol (one symbol_at call) steps only the
    bottom row (c, d), which the width test reads alone; the test runs
    only at the symbols where the bit bound on the row's growth lets it
    pass (see test_bit_growth_bound_exhaustive_to_16); and the full
    matrix of the prefix returned is built once, by _prefix_matrix.
    """
    short_bits = goal_den.bit_length() - goal_num.bit_length() - 1
    half = (short_bits - 1) // 2
    pre, per = _periodic_tables(s, k, max_prefix)
    # pre + per + per is a prefix of the shifted stream holding each of its
    # adjacent pairs, so its first "11" inside the first max_prefix symbols
    # is the stream's: bad is the index of that "11"'s second symbol counted
    # from k, 0 for none
    bad = (pre + per + per).find(b"\1\1", 0, max_prefix) + 1
    c, d = 0, 1
    test_at = k
    for i in range(k, k + (bad or max_prefix)):
        sym = s.symbol_at(i)
        if sym:
            c, d = -d, c + d
        else:
            c, d = d, c + d
        if i >= test_at:
            q = c + d if sym else c
            if d.bit_length() + q.bit_length() <= short_bits:
                test_at = i + 1 + half - max(c.bit_length(), d.bit_length())
            elif goal_den < goal_num * abs(d * q):
                n = i + 1 - k
                return _prefix_matrix(pre, per, n), sym, n, True
    if bad:
        raise InadmissibleWordError("stream prefix contains '11' at index %d" % bad)
    return _prefix_matrix(pre, per, max_prefix), sym, max_prefix, False


class TestPrefixMatrix:
    """_prefix_matrix, the bottom-row kernel's rebuild, against its definition,
    the matrix of the prefix's word."""

    @staticmethod
    def _assert_matches_the_word(s, k, n):
        """The matrix of s.shifted(k).prefix(n), from the shifted stream's
        preperiod and period as run_at reads them and from the tables
        _enclose reads off s itself at k; also with the shift split
        between the stream and k, and all of it in the stream."""
        t = s.shifted(k)
        pre, per = pre_and_period(t)
        want = _word_matrix(t.prefix(n))
        assert _prefix_matrix(_bits(pre), _bits(per), n) == want, (s, k, n)
        for base, j in ((s, k), (s.shifted(k // 2), k - k // 2), (t, 0)):
            tables = _periodic_tables(base, j, n)
            assert tables == (_bits(pre[:n]), _bits(per)), (s, k, j, n)
            assert _prefix_matrix(*tables, n) == want, (s, k, j, n)

    # k, r = divmod(n - p, q) on the shifted stream; both None for n < p
    @pytest.mark.parametrize("pre, per, shift, n, k, r", [
        ("01001", "001", 0, 3, None, None),  # inside the preperiod
        ("01001", "001", 0, 5, 0, 0),  # the whole preperiod
        ("01001", "001", 0, 7, 0, 2),  # inside the first period
        ("01001", "001", 0, 8, 1, 0),  # k = 1
        ("01001", "001", 0, 10, 1, 2),
        ("01001", "001", 0, 11, 2, 0),  # k = 2: the first squaring
        ("01001", "001", 0, 12, 2, 1),
        ("01001", "001", 0, 3005, 1000, 0),  # k >= 2, r = 0
        ("01001", "001", 0, 3007, 1000, 2),  # k >= 2, r > 0
        ("", "0", 0, 1, 1, 0),  # empty preperiod, one-symbol period
        ("", "0", 0, 2, 2, 0),
        ("", "0", 0, 777, 777, 0),
        ("", "01000", 0, 1234, 246, 4),
        ("010", "00101", 2, 40, 7, 4),  # shifted inside the preperiod
        ("010", "00101", 3, 40, 8, 0),  # shifted to the preperiod's end
        ("010", "00101", 5, 40, 8, 0),  # shifted into the period
        ("010", "00101", 3 + 5 * 9 + 1, 41, 8, 1),
    ])
    def test_cases(self, pre, per, shift, n, k, r):
        s = CodeStream.periodic(pre, per)
        p, q = map(len, pre_and_period(s.shifted(shift)))
        assert (k, r) == ((None, None) if n < p else divmod(n - p, q))
        self._assert_matches_the_word(s, shift, n)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01", max_size=6), st.text(alphabet="01", min_size=1, max_size=8),
           st.integers(0, 300))
    @example("", "1", 2)  # inadmissible words step alike
    def test_pure_function_of_the_bytes(self, pre, per, n):
        # the first n symbols of pre + per + per + ..., with no stream at all
        word = (pre + per * (n // len(per) + 1))[:n]
        assert _prefix_matrix(_bits(pre), _bits(per), n) == _word_matrix(word)

    @settings(max_examples=300, deadline=None)
    @given(periodic_codes, st.integers(0, 14), st.integers(0, 300))
    @example(CodeStream.periodic("", "1"), 0, 2)  # inadmissible words step alike
    def test_equals_the_word_matrix(self, s, shift, n):
        self._assert_matches_the_word(s, shift, n)

    def test_rational_code_with_a_long_preperiod(self):
        # the escape word of 1/200 typed as a preperiod; the rational's own
        # code is segmented, so its matrix is the segment walk's under a goal
        # no prefix meets
        x = xr(1, 200)
        p = escape_time(x)
        s, code = CodeStream.periodic(escape_word(x), "010"), code_of_rational(x)
        assert p == 299 == len(pre_and_period(s)[0]) == len(pre_and_period(code)[0])
        # unshifted, then shifted inside the preperiod, to its end and mid-period
        for shift in (0, 1, 150, p - 1, p, p + 1, p + 2):
            for n in (0, 1, 150, p - 1, p, p + 1, p + 3, p + 7, p + 3000):
                self._assert_matches_the_word(s, shift, n)
                if n:
                    m, _, got, ok = _enclose(code, shift, n, 1, 10 ** 40)
                    assert (got, ok) == (n, False), (shift, n)
                    assert m == _word_matrix(s.shifted(shift).prefix(n)), (shift, n)


class TestPointOfCode:
    def test_golden_enclosures_are_fibonacci(self):
        enc = point_of_code(CodeStream.periodic("", "0"), 16, Fraction(1, 200))
        assert enc.width_ok and enc.prefix_len == 7
        assert enc.interval == FareyInterval(xr(8, 13), xr(13, 21))
        assert enc.interval.contains(GOLDEN_FIXED_POINT)
        assert cylinder("0" * 7).contains(GOLDEN_FIXED_POINT)

    def test_width_law_for_zero_runs(self):
        for k in range(2, 20):
            assert cylinder("0" * k).width() == Fraction(1, fib(k) * fib(k + 1))

    def test_shrinks_to_zero(self):
        # the code of 0 approaches its point only linearly: [0, 1/(2m+1)]
        # after m repetitions of the period plus one symbol
        enc = point_of_code(CodeStream.periodic("", "010"), 64, Fraction(1, 40))
        assert enc.width_ok
        assert enc.interval.lo == ZERO
        assert enc.interval.hi.as_fraction() < Fraction(1, 40)

    def test_shrinks_to_one(self):
        enc = point_of_code(CodeStream.periodic("", "001"), 64, Fraction(1, 40))
        assert enc.width_ok
        assert enc.interval.contains(ONE)
        assert enc.interval.width() < Fraction(1, 40)

    def test_two_codes_of_one(self):
        for pre in ("0", "1"):
            enc = point_of_code(CodeStream.periodic(pre, "010"), 48, Fraction(1, 10 ** 6))
            assert enc.interval.contains(ONE)

    def test_width_goal_not_reached_reported(self):
        enc = point_of_code(CodeStream.periodic("", "100"), 30, Fraction(1, 10))
        assert not enc.width_ok
        assert enc.interval.hi.is_infinite  # nested enclosures of the infinity code

    def test_nesting_in_prefix_length(self):
        s = CodeStream.periodic("0", "01000")
        prev = None
        for n in range(1, 30):
            enc = point_of_code(s, n, Fraction(1, 10 ** 30)).interval
            if prev is not None:
                assert prev.lo <= enc.lo and enc.hi <= prev.hi
            prev = enc

    def test_rejects_inadmissible_stream(self):
        with pytest.raises(InadmissibleWordError):
            point_of_code(CodeStream.periodic("", "110"), 10, Fraction(1, 10))

    # the first "11" inside the preperiod, at its join with the period,
    # inside the period and across the seam between two periods; at a goal
    # of 1/800 the shallow loop meets it on a 1, at 10^-30 the segment walk
    @pytest.mark.parametrize("pre, per, bad", [
        ("0110", "0", 2), ("01", "10", 2), ("", "0110", 2), ("", "1001", 4)])
    def test_first_11_found_up_front(self, pre, per, bad):
        s = CodeStream.periodic(pre, per)
        for goal, max_prefix in itertools.product(
                (Fraction(1, 800), Fraction(1, 10 ** 30)), (bad - 1, bad, bad + 1, bad + 10)):
            _assert_matches_reference(s, max_prefix, goal)
            if max_prefix > bad:
                with pytest.raises(InadmissibleWordError, match="at index %d$" % bad):
                    point_of_code(s, max_prefix, goal)
            else:
                assert point_of_code(s, max_prefix, goal).prefix_len == max_prefix

    # "11" at the join of preperiod and period, inside the period and across
    # the seam between two periods, on every shift from inside the preperiod
    # to mid-period, at a shallow goal and a deep one
    @pytest.mark.parametrize("pre, per", [("0001", "1001"), ("01001", "0110"), ("0", "10001")])
    def test_first_11_of_a_shift_is_the_one_prefix_shows(self, pre, per):
        s = CodeStream.periodic(pre, per)
        for goal, k in itertools.product((Fraction(1, 800), Fraction(1, 10 ** 300)),
                                         range(len(pre) + 2 * len(per) + 1)):
            t = s.shifted(k)
            bad = t.prefix(60).find("11") + 1
            assert bad, (pre, per, k)
            with pytest.raises(InadmissibleWordError, match="at index %d$" % bad):
                point_of_code(t, 60, goal)
            _assert_matches_reference(t, 60, goal)

    def test_width_goal_met_before_the_first_11(self):
        s = CodeStream.periodic("0" * 30, "110")  # "11" ends at index 31
        enc = point_of_code(s, 100, Fraction(1, 100))
        assert enc.width_ok and enc.prefix_len < 31
        assert enc == _point_of_code_reference(s, 100, Fraction(1, 100))

    # a periodic stream's shallow loop and the segment walk read the goal apart
    GOAL_STREAMS = [CodeStream.periodic("1", "00100"), mu_code("0110").shifted(121)]

    @pytest.mark.parametrize("goals", [
        [3, 3.0, "3", "6/2", Fraction(3)],
        [Fraction(1, 2 ** 40), 2.0 ** -40, "1/%d" % 2 ** 40, "%.27e" % 2.0 ** -40],
    ])
    def test_goal_types_read_alike(self, goals):
        # a Fraction goal is read as it is, any other through Fraction()
        assert len({Fraction(g) for g in goals}) == 1
        for s in self.GOAL_STREAMS:
            want = _point_of_code_reference(s, 400, Fraction(goals[-1]))
            assert want.width_ok
            for goal in goals:
                assert point_of_code(s, 400, goal) == want, goal

    @pytest.mark.parametrize("goal", [0, Fraction(0), "-1/3", Fraction(-1, 3), "0", -0.5])
    def test_nonpositive_goals_rejected(self, goal):
        for s in self.GOAL_STREAMS:
            with pytest.raises(ValueError, match="^width_goal must be positive$"):
                point_of_code(s, 400, goal)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(admissible_periodic_codes, periodic_codes, rational_and_unbounded_codes,
                  procedural_codes, rewrapped_periodic_codes),
        st.integers(1, 400),
        width_goals,
    )
    def test_matches_per_symbol_reference(self, s, max_prefix, goal):
        try:
            want = _point_of_code_reference(s, max_prefix, goal)
        except InadmissibleWordError as exc:
            with pytest.raises(InadmissibleWordError) as got:
                point_of_code(s, max_prefix, goal)
            assert str(got.value) == str(exc)
            return
        enc = point_of_code(s, max_prefix, goal)
        assert enc == want
        iv = enc.interval
        if iv.is_bounded:
            assert iv.width() == Fraction(1, iv.lo.den * iv.hi.den)

    # each exit of a deep periodic enclosure: the goal met at some index,
    # and max_prefix reached with width_ok False, many whole periods in
    @pytest.mark.parametrize("pre, per, max_prefix, goal, width_ok", [
        ("1", "00100", 10 ** 4, Fraction(1, 10 ** 60), True),
        ("", "0", 10 ** 4, Fraction(1, 10 ** 300), True),
        ("0100", "0010", 10 ** 4, Fraction(3, 10 ** 100), True),
        ("1", "00100", 200, Fraction(1, 10 ** 300), False),
        ("", "01000", 97, Fraction(1, 10 ** 300), False),
        # a rational code: 1/2 is an endpoint of each of its cylinders, whose
        # width shrinks only like 1/n
        ("0", "001", 10 ** 4, Fraction(1, 10 ** 4), True),
        ("0", "001", 10 ** 4, Fraction(1, 10 ** 12), False),
    ])
    def test_periodic_exits_match_reference(self, pre, per, max_prefix, goal, width_ok):
        s = CodeStream.periodic(pre, per)
        want = _point_of_code_reference(s, max_prefix, goal)
        assert want.width_ok == width_ok
        assert (want.prefix_len - len(pre)) // len(per) >= 2
        assert point_of_code(s, max_prefix, goal) == want

    def test_goals_at_each_cylinder_width(self):
        # goals at and just above the width 1/(d*q) of a cylinder: the
        # sharpest cases for the stopping compare, of the shallow loop on
        # every short word and of the segment walk on drawn long ones
        rng = random.Random(12)
        long_words = []
        while len(long_words) < 12:
            w = ""
            while len(w) < 100:
                w += "0" if w.endswith("1") else rng.choice("01")
            long_words.append(w)
        deep = 0
        for w in [w for n in range(1, 10) for w in admissible_words(n)] + long_words:
            iv = cylinder(w)
            if not iv.is_bounded:
                continue
            p = iv.lo.den * iv.hi.den
            deep += _half(Fraction(1, p)) >= _GALLOP_MIN
            s = CodeStream.periodic(w, "0")
            goals = [Fraction(1, p)] + [Fraction(k, k * p - 1) for k in range(1, 9) if k * p > 1]
            for goal in goals:
                assert point_of_code(s, len(w), goal) == _point_of_code_reference(s, len(w), goal)
        assert deep >= 10, deep

    def test_deep_golden_enclosure_is_zero_run_cylinder(self):
        goal = Fraction(1, 10 ** 1000)
        n, fn, fn1 = 1, 1, 1  # fn, fn1 = fib(n), fib(n + 1)
        while fn * fn1 <= 10 ** 1000:
            n, fn, fn1 = n + 1, fn1, fn + fn1
        enc = point_of_code(CodeStream.periodic("", "0"), 10 ** 4, goal)
        assert enc == PointEnclosure(cylinder("0" * n), n, True)
        iv = enc.interval
        assert iv.width() == Fraction(1, iv.lo.den * iv.hi.den) < goal

    def test_bit_growth_bound_exhaustive_to_16(self):
        # the bound the gallop gate reads (and _enclose_by_kernel skips
        # width tests by): with row = max(bits(c), bits(d)),
        # bits(d) + bits(q) <= 2*row + 1, and row grows by at most 1 per symbol
        def row(m):
            return max(m[2].bit_length(), m[3].bit_length())

        stack = [((1, 0, 0, 1), 0, 0)]  # matrix, last symbol, length
        walked = 0
        while stack:
            m, prev, n = stack.pop()
            for sym in (0,) if prev else (0, 1):
                nxt = _advance(m, sym)
                c, d = nxt[2], nxt[3]
                q = c + d if sym else c
                iv = _interval_of(nxt, sym)
                assert sorted((abs(d), abs(q))) == sorted((iv.lo.den, iv.hi.den))
                assert d.bit_length() + q.bit_length() <= 2 * row(nxt) + 1
                assert row(nxt) <= row(m) + 1
                walked += 1
                if n + 1 < 16:
                    stack.append((nxt, sym, n + 1))
        assert walked == sum(len(admissible_words(n)) for n in range(1, 17))

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 40, 120, 400, 1000])
    def test_deep_goals_at_the_reference_stop_index(self, k):
        goal = Fraction(1, 10 ** k)
        for pre, per in (("1", "0"), ("", "01000"), ("0100", "0010"), ("10", "001001000")):
            s = CodeStream.periodic(pre, per)
            want = _point_of_code_reference(s, 10 ** 5, goal)
            stop = want.prefix_len
            assert want.width_ok
            # the reference stops at `stop` whenever max_prefix >= stop
            assert point_of_code(s, stop + 1, goal) == want
            assert point_of_code(s, stop, goal) == want
            if stop > 1:
                assert point_of_code(s, stop - 1, goal) == _point_of_code_reference(s, stop - 1, goal)


def _assert_matches_reference(s, max_prefix, goal):
    """point_of_code equals the per-symbol reference, errors included."""
    try:
        want = _point_of_code_reference(s, max_prefix, goal)
    except InadmissibleWordError as exc:
        with pytest.raises(InadmissibleWordError) as got:
            point_of_code(s, max_prefix, goal)
        assert str(got.value) == str(exc)  # the message carries the index
        return
    assert point_of_code(s, max_prefix, goal) == want


def _pieces_stream(pieces):
    """Segmented stream: each word repeated reps times (reps None: forever),
    each run's word read-limited (_ReadLimitedWord)."""
    table, start = [], 0
    for word, reps in pieces:
        end = None if reps is None else start + reps * len(word)
        table.append((start, end, word))
        if end is None:
            break
        start = end
    else:
        table.append((start, None, "0"))

    def runs(n):
        for start, end, word in table:
            if end is None or n < end:
                j = (n - start) % len(word)
                return _ReadLimitedWord(word[j:] + word[:j]), end

    return CodeStream.segmented(runs, label="pieces")


EPS = Fraction(1, 100)


def _schedule_cases(k):
    """(s, t, events, m_big) for every schedule family at block size k; s is
    None for rational_vs_tau, whose first point is an exact orbit point.
    Every segmented stream is read-limited (_read_limited)."""
    alpha = alpha_transitive()
    tracked = [code_of_rational(xr(3, 5))]
    x_code = CodeStream.periodic("1", "00100")
    mu_s, mu_t = _read_limited(mu_code("0110")), _read_limited(mu_code("1010"))
    tau_s = _read_limited(tau_code("0110", alpha, tracked))
    tau_t = _read_limited(tau_code("1001", alpha, tracked))
    big = Fraction(1000)
    return [
        (mu_s, mu_t, schedule_events("theorem1", (k, k), diff_indices=[0, 1]), Fraction(3, 2)),
        (mu_s, mu_s.shifted(2), schedule_events("theorem1", (k, k), shift=2), Fraction(3, 2)),
        (tau_s, tau_t, schedule_events("theorem2", (k, k), diff_index=0), big),
        (tau_s, tau_t.shifted(1), schedule_events("theorem2", (k, k), shift=1), big),
        (x_code, _read_limited(tau_code("01", alpha, [x_code])),
         schedule_events("theorem2_tracked", (k, k), track_index=1, x_code=x_code), big),
        (None, tau_s, schedule_events("rational_vs_tau", (k, k), escape=3, eps=EPS), big),
    ]


class TestSegmentWalk:
    """The segment walk against the per-symbol reference, on segmented streams."""

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_schedule_events_match_reference(self, k):
        for s, t, events, _ in _schedule_cases(k):
            assert t.kind == "procedural"  # read by the segment walk
            for ev in events:
                budget = min(10 ** 5, ev.prefix_cap) if ev.prefix_cap else 10 ** 5
                if s is not None:
                    _assert_matches_reference(s.shifted(ev.index), budget, EPS / 8)
                _assert_matches_reference(t.shifted(ev.index + ev.t_offset), budget, EPS / 8)

    @pytest.mark.parametrize("word", ["0", "100", "00101"])
    @pytest.mark.parametrize("lead", [[], [("0", 1)]])
    def test_long_first_run(self, word, lead):
        # a first run of over 2^10 periods: a shallow goal (10^-1 to 10^-12)
        # does not form a power of W, the run is stepped up to the goal; from
        # 10^-40 on the run's whole periods are one power, of W itself from
        # the empty prefix (no leading symbol) and of the lead times W behind
        # a leading symbol, clamped to the run where the goal outlasts it
        reps = 2 ** 10 + 37
        s = _pieces_stream(lead + [(word, reps), ("0", None)])
        for k in (1, 3, 12, 40, 100, 200, 300):
            for budget in (len(word) * 2 ** 10, len(word) * reps + 5):
                _assert_matches_reference(s, budget, Fraction(1, 10 ** k))

    def test_budgets_ending_mid_period(self):
        tau = _read_limited(tau_code("0110", alpha_transitive(), [CodeStream.periodic("1", "00100")]))
        goals = (Fraction(1, 10 ** 12), Fraction(1, 800), Fraction(1, 90), Fraction(1, 7))
        for k in (5, 6):
            lay = BlockLayout.for_k(k)
            anchors = [lay.run_start(w) + t for w in range(3) for t in range(3)]
            anchors += [lay.encode_cell(1) + 1, lay.tracking_start(1) + 1,
                        lay.separation_source(1, 1) + 2]
            for n in anchors:
                for budget in (2, 4, 5, 31, 32, 151, 152, lay.quarter - 1):
                    for goal in goals:
                        _assert_matches_reference(tau.shifted(n), budget, goal)

    @pytest.mark.parametrize("pieces, index", [
        ([("00", 3), ("0110", 4)], 8),                  # '11' inside a word
        ([("0", 4), ("1001", 5)], 8),                   # 1|1 between repetitions
        ([("0", 4), ("0001", 3), ("100", None)], 16),   # 1|1 between segments
    ])
    def test_inadmissible_segments(self, pieces, index):
        s = _pieces_stream(pieces)
        with pytest.raises(InadmissibleWordError, match="at index %d$" % index):
            point_of_code(s, 100, Fraction(1, 10 ** 30))
        _assert_matches_reference(s, 100, Fraction(1, 10 ** 30))
        _assert_matches_reference(s, index, Fraction(1, 10 ** 30))  # budget ends before it

    def test_empty_segment_rejected(self):
        # a segment function that makes no progress is an error, not a hang
        s = CodeStream.segmented(lambda n: ("0", n if n >= 3 else 3))
        with pytest.raises(ValueError, match="empty segment at index 3"):
            point_of_code(s, 10, Fraction(1, 10 ** 9))
        with pytest.raises(ValueError, match="empty segment at index 1"):
            s.shifted(2).prefix(5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.one_of(admissible_word, st.text(alphabet="01", min_size=1, max_size=5)),
                           st.integers(1, 60)), min_size=1, max_size=6),
        st.one_of(st.none(), st.sampled_from(["0", "100", "010", "001", "00100"])),
        st.integers(1, 700),
        width_goals,
    )
    def test_random_segmented_streams(self, pieces, tail, max_prefix, goal):
        if tail is not None:
            pieces = pieces + [(tail, None)]
        _assert_matches_reference(_pieces_stream(pieces), max_prefix, goal)

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_reports_unchanged_on_the_per_symbol_loop(self, k):
        """Every report is the same when the gallop reads the streams as one-symbol segments."""
        for s, t, events, m_big in _schedule_cases(k):
            if s is None:
                r = xr(22, 7)
                want = rational_vs_tau(r, t, (k, k), eps=EPS, m_big=m_big).to_dict()
                got = rational_vs_tau(r, _rewrap(t), (k, k), eps=EPS, m_big=m_big).to_dict()
            else:
                want = verify_scrambling(s, t, events, eps=EPS, m_big=m_big, pair="p").to_dict()
                got = verify_scrambling(_rewrap(s), _rewrap(t), events, eps=EPS,
                                        m_big=m_big, pair="p").to_dict()
            assert got == want


def _walk_segments_by_gallop(s, k, max_prefix, goal_num, goal_den, short_bits):
    """The segment walk before neutral runs were read in closed form: every
    run of r >= 2 whole periods galloped over W, W^2, W^4, ... and then
    descended, in O(log r) multiplies, the rest read symbol by symbol."""
    m = (1, 0, 0, 1)
    prev = 0
    i = 0
    while i < max_prefix:
        word, end = s.run_at(k + i)
        count = (max_prefix if end is None else min(end - k, max_prefix)) - i
        size = len(word)
        reps = count // size
        done = 0
        if reps >= 2 and "11" not in word + word and not (prev and word[0] == "1"):
            last = int(word[-1])
            powers = [_word_matrix(word)]  # powers[j] = W^(2^j)
            t, j = 0, 0
            while t + (1 << j) <= reps:
                if j == len(powers):
                    powers.append(_mul(powers[-1], powers[-1]))
                nxt = _mul(m, powers[j]) if i or t else powers[j]
                d, q = nxt[3], (nxt[2] + nxt[3] if last else nxt[2])
                if d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * d * q:
                    break
                m, t, j = nxt, t + (1 << j), j + 1
            while j:
                j -= 1
                if t + (1 << j) <= reps:
                    nxt = _mul(m, powers[j])
                    d, q = nxt[3], (nxt[2] + nxt[3] if last else nxt[2])
                    if (d.bit_length() + q.bit_length() <= short_bits
                            or goal_den >= goal_num * d * q):
                        m, t = nxt, t + (1 << j)
            if t:
                prev, done = last, t * size
        for p in range(done, count):
            sym = 1 if word[p % size] == "1" else 0
            if prev == 1 and sym == 1:
                raise InadmissibleWordError(
                    "stream prefix contains '11' at index %d" % (i + p))
            a, b, c, d = m
            m = (-b, a + b, -d, c + d) if sym else (b, a + b, d, c + d)
            d, q = m[3], (m[2] + m[3] if sym else m[2])
            if d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * d * q:
                return m, sym, i + p + 1, True
            prev = sym
        i += count
    return m, prev, max_prefix, False


def _assert_walk_matches_the_gallop(s, k, max_prefix, goal):
    """_enclose on a segmented stream returns the gallop's (matrix, last,
    prefix_len, width_ok), or raises its error with the same index."""
    num, den = goal.numerator, goal.denominator
    short_bits = den.bit_length() - num.bit_length() - 1
    try:
        want = _walk_segments_by_gallop(s, k, max_prefix, num, den, short_bits)
    except InadmissibleWordError as exc:
        with pytest.raises(InadmissibleWordError) as got:
            _enclose(s, k, max_prefix, num, den)
        assert str(got.value) == str(exc), (s, k, max_prefix, goal)
        return None
    got = _enclose(s, k, max_prefix, num, den)
    assert got == want, (s, k, max_prefix, goal)
    return got


# the powers of phi's neutral 3-cycle read from each phase, once and twice
NEUTRAL_WORDS = [word * j for j in (1, 2) for word in _CYCLE_CODE]
# no lead, a leading 0 and a leading 1 (whose join with a leading 1 of the run is refused)
leads = pytest.mark.parametrize("lead", ["", "0", "1"], ids=["none", "0", "1"])


def _neutral_stream(lead, word, reps):
    """lead, then word repeated reps times, then 0 forever."""
    return _pieces_stream(([(lead, 1)] if lead else []) + [(word, reps), ("0", None)])


def _denominator_product(word):
    """d*q of the cylinder of an admissible word: one over its width, 0 when unbounded."""
    m = _word_matrix(word)
    return m[3] * (m[2] + m[3] if word[-1] == "1" else m[2])


def _counting_calls(monkeypatch, name):
    """Count the calls of the library's function coding.<name>: a list whose
    last entry the calls add to."""
    counts, func = [0], getattr(coding, name)

    def counting(*args):
        counts[-1] += 1
        return func(*args)

    monkeypatch.setattr(coding, name, counting)
    return counts


def _recording_lucas(monkeypatch):
    """Wrap coding._lucas: a list of (n, doublings) per call, doublings being
    how many times its doubling line ran, counted by a line tracer on its frame."""
    func = coding._lucas
    lines, first = inspect.getsourcelines(func)
    doubling = first + next(j for j, line in enumerate(lines) if "v * v" in line)
    calls = []

    def recording(p, det, n):
        hits = [0]

        def trace(frame, event, arg):
            if frame.f_code is not func.__code__:
                return None
            if event == "line" and frame.f_lineno == doubling:
                hits[0] += 1
            return trace

        old = sys.gettrace()
        sys.settrace(trace)
        try:
            out = func(p, det, n)
        finally:
            sys.settrace(old)
        calls.append((n, hits[0]))
        return out

    monkeypatch.setattr(coding, "_lucas", recording)
    return calls


class TestNeutralRuns:
    """Runs of phi's neutral 3-cycle, read in closed form, against the gallop."""

    def test_neutral_words_are_the_powers_of_the_3_cycle(self):
        # trace 2 and det 1 among the cyclically admissible words (W = I + N,
        # N^2 = 0): W's one fixed point is rational and periodic, so it is on
        # phi's 3-cycle and the word is a power of one of its codes
        def neutral(word):
            a, b, c, d = _word_matrix(word)
            return a + d == 2 and a * d - b * c == 1

        words = [w for n in range(1, 16) for w in admissible_words(n) if "11" not in w + w]
        assert len(words) == 3568
        want = sorted(word * j for word in _CYCLE_CODE for j in range(1, 6))
        assert sorted(w for w in words if neutral(w)) == want and len(want) == 15

    def test_cycle_matrix_table(self):
        # the neutral branch reads a 3-cycle code's one-period matrix from the table
        assert _CYCLE_MATRIX == {word: _word_matrix(word) for word in _CYCLE_CODE}

    def test_walk_over_the_period_100100(self):
        # a power of a 3-cycle code is no key of the table, so its matrix is
        # stepped; from each rotation, with and without a lead, at goals deep
        # enough for a periodic stream to be walked, met (10^-20 within 10^12
        # symbols) and never met
        for pre in ("", "0"):
            s = CodeStream.periodic(pre, "100100")
            for k in range(7):
                for budget in (6, 13, 10 ** 4, 10 ** 12):
                    for e in (20, 300):
                        _assert_walk_matches_the_gallop(s, k, budget, Fraction(1, 10 ** e))

    def test_closed_form_against_a_scan(self):
        # every admissible lead of up to five symbols, each neutral word that
        # may follow it, reps 1 to 40 and each g at, above and below the d*q
        # after some number of periods: d*q grows by the same step each period
        # (W fixes one endpoint), and the most periods leaving d*q <= g match
        for lead in [w for n in range(6) for w in admissible_words(n)]:
            m = _word_matrix(lead)
            for word in _CYCLE_CODE:
                if "11" in lead[-1:] + word:
                    continue
                w, last = _word_matrix(word), int(word[-1])
                products = [_denominator_product(lead + word * t) for t in range(1, 41)]
                assert len({b - a for a, b in zip(products, products[1:])}) == 1, (lead, word)
                for g in sorted({-1, 0} | {p + e for p in products for e in (-1, 0, 1)}):
                    for reps in (1, 2, 7, 40):
                        t = max([t for t in range(1, reps + 1) if products[t - 1] <= g], default=0)
                        want = _word_matrix(lead + word * t) if t else m
                        assert _neutral_periods(m, w, last, reps, g, len(lead)) == (want, t), \
                            (lead, word, g, reps)

    @pytest.mark.parametrize("word", NEUTRAL_WORDS)
    @leads
    def test_rotations_leads_goals_and_budgets(self, word, lead):
        # reps from 2 to 2^60; budgets inside the first periods, mid-period
        # and at the run's end; goals from 10^-1 to 10^-300
        size = len(word)
        for reps in (2, 3, 7, 2 ** 10 + 37, 2 ** 60):
            s, start = _neutral_stream(lead, word, reps), len(lead)
            whole = start + size * reps
            budgets = {1, 2, start + size, start + 2 * size - 1, start + 2 * size,
                       start + 2 * size + 1, start + size * (reps // 2) + size // 2,
                       whole - 1, whole, whole + 1, whole + 5}
            for e in (1, 2, 5, 13, 40, 120, 300):
                for budget in sorted(budgets):
                    _assert_walk_matches_the_gallop(s, 0, budget, Fraction(1, 10 ** e))
            _assert_walk_matches_the_gallop(s, start + 1, size * reps, Fraction(1, 10 ** 9))
        if lead == "1" and word[0] == "1":  # the 1|1 join is refused, not read in closed form
            with pytest.raises(InadmissibleWordError, match="at index 1$"):
                _enclose(_neutral_stream(lead, word, 2 ** 60), 0, 10, 1, 10)

    @pytest.mark.parametrize("word", NEUTRAL_WORDS)
    @leads
    def test_goals_at_each_period_boundary(self, word, lead):
        # floor(goal_den / goal_num) exactly d*q after t periods, and one
        # either side of it, against the gallop and the per-symbol reference
        reps = 40
        if "11" in lead + word:
            return
        s = _neutral_stream(lead, word, reps)
        budget = len(lead) + len(word) * reps
        for t in (1, 2, 3, 10, 39, 40):
            p = _denominator_product(lead + word * t)
            goals = [Fraction(1, p + 1)] + [Fraction(k, k * p + k - 1) for k in (1, 2, 7) if p]
            if p > 1:
                goals.append(Fraction(1, p - 1))
            for goal in goals:
                _assert_walk_matches_the_gallop(s, 0, budget, goal)
                _assert_matches_reference(s, budget, goal)

    def test_unbounded_run_has_zero_slope(self):
        # (100)^t from the empty prefix encloses [2t, infinity]: d*q is 0 after
        # every period, so no goal stops the run
        for reps in (2, 3, 2 ** 10, 2 ** 60):
            s = _neutral_stream("", "100", reps)
            for goal in (Fraction(10 ** 6), Fraction(1, 10), Fraction(1, 10 ** 300)):
                m, last, n, ok = _assert_walk_matches_the_gallop(s, 0, 3 * reps, goal)
                assert (m, last, n, ok) == ((1, 2 * reps, 0, 1), 0, 3 * reps, False)
                assert _endpoints(m, last) == (2 * reps, 1, 1, 0)

    def test_a_neutral_run_costs_the_same_whatever_its_length(self, monkeypatch):
        # (100)^m behind a "0": the same number of multiplies for m = 2^10 and
        # 2^60, with a goal met mid-run and with one never met
        counts = _counting_calls(monkeypatch, "_mul")
        for goal, met in ((Fraction(1, 100), True), (Fraction(1, 10 ** 300), False)):
            for m in (2 ** 10, 2 ** 60):
                counts.append(0)
                _, _, n, ok = _enclose(_neutral_stream("0", "100", m), 0, 1 + 3 * m,
                                       goal.numerator, goal.denominator)
                assert ok == met and (n < 1 + 3 * 2 ** 10 if met else n == 1 + 3 * m), (goal, m)
            assert counts[-2] == counts[-1], (goal, counts)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.one_of(st.sampled_from(NEUTRAL_WORDS), admissible_word,
                                     st.text(alphabet="01", min_size=1, max_size=5)),
                           st.one_of(st.integers(1, 60), st.integers(1, 2 ** 62))),
                 min_size=1, max_size=6),
        st.one_of(st.none(), st.sampled_from(["0", "100", "010", "001", "00100"])),
        st.integers(0, 40),
        st.one_of(st.integers(1, 700), st.integers(1, 2 ** 64)),
        width_goals,
    )
    def test_streams_mixing_neutral_and_other_runs(self, pieces, tail, k, cap, goal):
        if tail is not None:
            pieces = pieces + [(tail, None)]
        _assert_walk_matches_the_gallop(_pieces_stream(pieces), k, cap, Fraction(goal))


def _half(goal):
    """(short_bits - 1) // 2 for the goal, the bound _enclose's periodic gate reads."""
    short_bits = goal.denominator.bit_length() - goal.numerator.bit_length() - 1
    return (short_bits - 1) // 2


def _gate_bound(m, goal):
    """The symbols the bit bound rules out from the matrix m on, for the goal:
    _half(goal) - max(bits(c), bits(d)), as the walk's gate reads it."""
    return _half(goal) - max(m[2].bit_length(), m[3].bit_length())


class TestGallopGate:
    """A run that is not neutral is read in whole periods only where the bit
    bound rules out _GALLOP_MIN symbols; a shallower goal steps it, with the
    same tuple."""

    @pytest.mark.parametrize("word", ["0", "000", "00101", "1000000"])
    @pytest.mark.parametrize("lead", ["", "0"], ids=["none", "0"])
    def test_walk_at_the_gate(self, word, lead, monkeypatch):
        # over 2^14 periods; goals whose bound is _GALLOP_MIN - 1 (stepped,
        # no power taken) and _GALLOP_MIN and _GALLOP_MIN + 1 (one power, one
        # _lucas call); budgets ending inside the stepped stretch, at the goal
        # and past the run
        counts = _counting_calls(monkeypatch, "_lucas")
        reps = 2 ** 14 + 37  # more symbols than _ReadLimitedWord lets a walk step
        s = _pieces_stream(([(lead, 1)] if lead else []) + [(word, reps), ("0", None)])
        whole = len(lead) + len(word) * reps
        m = _word_matrix(lead) if lead else (1, 0, 0, 1)
        goals = [Fraction(num, 2 ** e) for e in range(40, 80) for num in (1, 5)
                 if abs(_gate_bound(m, Fraction(num, 2 ** e)) - _GALLOP_MIN) <= 1]
        assert {_gate_bound(m, goal) - _GALLOP_MIN for goal in goals} == {-1, 0, 1}
        for goal in goals:
            counts.append(0)
            _, _, n, ok = _enclose(s, 0, whole, goal.numerator, goal.denominator)
            assert ok and n > len(lead) + 2 * len(word), (goal, n)
            assert counts[-1] == (_gate_bound(m, goal) >= _GALLOP_MIN), (goal, counts[-1])
            for budget in sorted({1, 2, len(lead) + 2 * len(word), n // 2, n - 1, n, n + 1,
                                  whole - 1, whole + 5}):
                _assert_walk_matches_the_gallop(s, 0, budget, goal)
                _assert_matches_reference(s, budget, goal)

    def test_mu_zero_run_multiplies(self, monkeypatch):
        # mu's zero run at 122 (up to 241): the scramble goal eps/8 = 1/800,
        # met after 9 symbols, is stepped with no multiply; a deep goal takes
        # one predicted power per run of 0 and a multiply per step down (the
        # power-table gallop made 15, 16 and 88): at 10^-20, 48 periods
        # predicted and 49 right, the 49th stepped by the tail; at 10^-40, 96
        # and right; at 10^-300 five runs of 119 periods, the power clamped
        # to the run (a multiply by the lead for each run but the first),
        # then 123 periods of the run from 600 on (and a multiply by its lead)
        counts = _counting_calls(monkeypatch, "_mul")
        calls = _recording_lucas(monkeypatch)
        mu = _read_limited(mu_code("011010"))
        assert mu.run_at(122) == ("0", 241)
        for goal, want, indices in ((Fraction(1, 800), 0, []),
                                    (Fraction(1, 10 ** 20), 0, [48]),
                                    (Fraction(1, 10 ** 40), 0, [96]),
                                    (Fraction(1, 10 ** 300), 5, [119] * 5 + [123])):
            counts.append(0)
            calls.clear()
            _enclose(mu, 122, 10 ** 5, goal.numerator, goal.denominator)
            assert counts[-1] == want, goal
            assert calls == [(n, n.bit_length()) for n in indices], (goal, calls)


class TestPeriodicGate:
    """A periodic stream whose goal's bound is below _GALLOP_MIN is stepped on
    the whole matrix by _enclose's shallow loop; a deeper goal is read by
    _walk_segments, which reads the period's whole periods in one power, with
    the same tuple as the bottom-row kernel (_enclose_by_kernel)."""

    @pytest.mark.parametrize("s, k", [
        (CodeStream.periodic("", "0"), 0),
        (CodeStream.periodic("", "01"), 0),
        (CodeStream.periodic("1", "00100"), 0),
        (CodeStream.periodic("0100100", "00101").shifted(3), 0),  # a shift into the preperiod
        (CodeStream.periodic("0100100", "00101"), 3),
    ], ids=repr)
    def test_enclosures_at_the_gate(self, s, k, monkeypatch):
        counts = _counting_calls(monkeypatch, "_walk_segments")
        powers = _counting_calls(monkeypatch, "_lucas")
        goals = [Fraction(num, 2 ** e) for e in range(40, 70) for num in (1, 5)
                 if abs(_half(Fraction(num, 2 ** e)) - _GALLOP_MIN) <= 1]
        assert {_half(goal) - _GALLOP_MIN for goal in goals} == {-1, 0, 1}
        t = s.shifted(k)
        for goal in goals:
            stop = _point_of_code_reference(t, 10 ** 3, goal).prefix_len
            for budget in sorted({1, 2, stop // 2, stop - 1, stop, stop + 1, 10 ** 3}):
                counts.append(0)
                powers.append(0)
                m, last, n, ok = _enclose(s, k, budget, goal.numerator, goal.denominator)
                want = _point_of_code_reference(t, budget, goal)
                assert PointEnclosure(_interval_of(m, last), n, ok) == want, (goal, budget)
                assert counts[-1] == (_half(goal) >= _GALLOP_MIN), (goal, budget, counts[-1])
                assert powers[-1] <= counts[-1], (goal, budget, powers[-1])  # below it, no power

    def test_a_deep_goal_costs_logarithmic_multiplies(self, monkeypatch):
        # (01) at 10^-2000 and 10^-20000 (9572 and 95700 symbols): the period
        # is read by no symbol_at call, in one power whose Lucas pair takes a
        # doubling per bit of the 4785 and 47849 periods predicted (13 and 16),
        # and no multiply: the tail steps the period that meets the goal (the
        # power-table gallop made 36 and 45 multiplies, the check of one more
        # period 1)
        muls = _counting_calls(monkeypatch, "_mul")
        calls = _recording_lucas(monkeypatch)
        reads = [0]

        def symbol_at(stream, n):
            reads[0] += 1
            return CodeStream.symbol_at(stream, n)

        s = CodeStream.periodic("", "01")
        monkeypatch.setattr(CodeStream, "symbol_at", symbol_at)
        monkeypatch.setattr(CodeStream, "__getitem__", symbol_at)
        for e in (2000, 20000):
            muls.append(0)
            _, _, n, ok = _enclose(s, 0, 10 ** 6, 1, 10 ** e)
            assert ok and n > 4 * e, (e, n)
        assert reads == [0]
        assert muls == [0, 0, 0]
        assert calls == [(4785, 13), (47849, 16)]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(admissible_periodic_codes, periodic_codes, rational_and_unbounded_codes),
           st.integers(0, 16), st.integers(0, 16),
           st.builds(lambda num, e: Fraction(num, 2 ** e), st.integers(1, 1000),
                     st.integers(40, 3000)),
           st.integers(0, 400))
    @example(CodeStream.periodic("0100100", "00101"), 3, 5, Fraction(1, 2 ** 500), 7)
    @example(CodeStream.periodic("0", "1001"), 0, 2, Fraction(1, 2 ** 200), 0)  # "11" at a seam
    def test_matches_the_bottom_row_kernel(self, s, shift, k, goal, extra):
        # shifts of the stream and offsets k inside and past its preperiod;
        # budgets around the kernel's stop (its "11" for an inadmissible one)
        t, num, den = s.shifted(shift), goal.numerator, goal.denominator
        try:
            stop = _enclose_by_kernel(t, k, 2000, num, den)[2]
        except InadmissibleWordError as exc:
            stop = int(str(exc).rsplit(" ", 1)[1])
        for budget in sorted({1, stop - 1, stop, stop + 1, stop + extra} - {0}):
            try:
                want = _enclose_by_kernel(t, k, budget, num, den)
            except InadmissibleWordError as exc:
                with pytest.raises(InadmissibleWordError) as got:
                    _enclose(t, k, budget, num, den)
                assert str(got.value) == str(exc), (t, k, budget, goal)
                continue
            assert _enclose(t, k, budget, num, den) == want, (t, k, budget, goal)


def _predicted_periods(m, w, last, reps, goal):
    """The whole periods _whole_periods predicts before it steps down:
    1 + floor(log2(goal's reciprocal / (d*q after one period)) / (2 log2 rho)),
    clamped to [1, reps] (d*q read as 1 while the cylinder is unbounded)."""
    mw = _mul(m, w)
    a, b, c, d = w
    p, det = a + d, a * d - b * c
    rho = (abs(p) + math.sqrt(p * p - 4 * det)) / 2  # a short word: p fits a float
    dq = mw[3] * (mw[2] + mw[3] if last else mw[2]) or 1
    gap = math.log2(goal.denominator) - math.log2(goal.numerator * dq)
    return min(max(1 + math.floor(gap / (2 * math.log2(rho))), 1), reps)


def _whole_periods_stepping_up(m, w, last, reps, goal_num, goal_den, short_bits, i):
    """(m * W^t, t) for the most whole periods t <= reps of a word that is not
    neutral after which the goal is unmet; i is 0 when m is the identity.

    W^t = U_t*W - det*U_(t-1)*I (Cayley-Hamilton; U from _lucas_u), at a t
    predicted from d*q after one period and W's spectral radius rho > 1 (logs
    of ints: a long period's trace overflows a float), corrected exactly: down
    by W^-1 = det*adj(W) while the goal is met, else up by W while unmet."""
    def met(x):
        d, q = x[3], (x[2] + x[3] if last else x[2])
        return d.bit_length() + q.bit_length() > short_bits and goal_den < goal_num * d * q

    mw = _mul(m, w) if i else w
    a, b, c, d = w
    p, det = a + d, a * d - b * c
    log_rho = math.log2(abs(p)) + math.log2((1 + math.sqrt(1 - 4 * det / (p * p))) / 2)
    dq = mw[3] * (mw[2] + mw[3] if last else mw[2]) or 1  # d = 0 while unbounded
    t = 1 + math.floor((math.log2(goal_den) - math.log2(goal_num * dq)) / (2 * log_rho))
    t = min(max(t, 1), reps)
    u, v = _lucas_u(p, det, t - 1)  # U_(t-1), U_t
    du = det * u
    x = (v * mw[0] - du * m[0], v * mw[1] - du * m[1], v * mw[2] - du * m[2],
         v * mw[3] - du * m[3])
    if met(x):  # down, to t = 0 and x = m at the least (one period meets the goal)
        while t and met(x):
            x, t = _mul(x, (det * d, -det * b, -det * c, det * a)), t - 1  # W^-1 = det*adj(W)
        return x, t
    while t < reps and not met(nxt := _mul(x, w)):
        x, t = nxt, t + 1
    return x, t


def _lucas_u(p: int, det: int, n: int) -> tuple[int, int]:
    """(U_n, U_(n+1)) of U_0 = 0, U_1 = 1, U_(j+1) = p*U_j - det*U_(j-1), doubling per bit of n."""
    u, v = 0, 1
    for j in range(n.bit_length() - 1, -1, -1):
        u, v = u * (2 * v - p * u), v * v - det * u * u
        if n >> j & 1:
            u, v = v, p * v - det * u
    return u, v


def _enclose_stepping_up(s, k, max_prefix, goal_num, goal_den):
    """_enclose with whole periods read as before the walk's tail finished
    each run (_whole_periods_stepping_up): the predicted power corrected up
    by W while one more period leaves the goal unmet, over (U_(t-1), U_t)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "_whole_periods", _whole_periods_stepping_up)
        return _enclose(s, k, max_prefix, goal_num, goal_den)


def _assert_matches_the_step_up(s, k, max_prefix, goal):
    """_enclose against _enclose_stepping_up and _walk_segments_by_gallop:
    the same tuple, or the same error and index."""
    got = _assert_walk_matches_the_gallop(s, k, max_prefix, goal)
    num, den = goal.numerator, goal.denominator
    if got is None:
        with pytest.raises(InadmissibleWordError) as want:
            _enclose_stepping_up(s, k, max_prefix, num, den)
        with pytest.raises(InadmissibleWordError) as again:
            _enclose(s, k, max_prefix, num, den)
        assert str(again.value) == str(want.value), (s, k, max_prefix, goal)
    else:
        assert _enclose_stepping_up(s, k, max_prefix, num, den) == got, (s, k, max_prefix, goal)
    return got


def _assert_matches_the_gallop_and_kernel(s, k, max_prefix, goal):
    """_enclose against _walk_segments_by_gallop and, on a periodic stream,
    _enclose_by_kernel: the same tuple, or the same error and index."""
    got = _assert_walk_matches_the_gallop(s, k, max_prefix, goal)
    if s._cycle is not None and got is not None:
        assert _enclose_by_kernel(s, k, max_prefix, goal.numerator, goal.denominator) == got, \
            (s, k, max_prefix, goal)
    return got


def _is_neutral(word):
    """A power of one of phi's 3-cycle codes, the words read in closed form."""
    return word[:3] in _CYCLE_CODE and word == word[:3] * (len(word) // 3)


def _enclose_deep_codes(rng, count):
    """(pre, per) drawn as enclose-deep draws them: pre of up to 5 symbols, per
    of 1 to 8, no "11" in pre + per + per, per not neutral (irrational point)."""
    codes = []
    while len(codes) < count:
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        if "11" not in pre + per + per and not _is_neutral(per):
            codes.append((pre, per))
    return codes


def _cyclic_word(rng, size):
    """A random word of size symbols with no "11", across its seam too, and
    not neutral: a period the walk reads by _whole_periods."""
    while True:
        word = ""
        while len(word) < size:  # blocks 0 and 10, then a rotation
            word += rng.choice(["0", "0", "10"])
        r = rng.randrange(size)
        word = word[r:size] + word[:r]
        if "11" not in word + word and not _is_neutral(word):
            return word


# neutral runs of 2^20 periods that leave a bottom row (c, d) of 21 to 23 bits
# and 1 or 2 bits, one way round or the other: (lead, word), each 0-ended
LOPSIDED_LEADS = [("", "010"), ("0", "100"), ("1", "010"), ("01", "010"), ("00", "100")]


class TestWholePeriods:
    """A run that is not neutral, read in whole periods by one predicted power
    W^t = U_t*W - det*U_(t-1)*I stepped down while it meets the goal, the rest
    of the run stepped, against the power-table gallop, the bottom-row kernel
    and the walk that stepped the power up by W (_enclose_stepping_up), at the
    edges of the prediction."""

    def test_lucas_pair_is_the_recurrence_and_the_power(self):
        for p in range(-6, 9):
            for det in (-1, 1):
                u, v = [0, 1], [2, p]
                for _ in range(70):
                    u.append(p * u[-1] - det * u[-2])
                    v.append(p * v[-1] - det * v[-2])
                for n in range(69):
                    assert coding._lucas(p, det, n) == (u[n], v[n]), (p, det, n)
                    assert _lucas_u(p, det, n) == (u[n], u[n + 1]), (p, det, n)
        for word in ("0", "01", "0001", "00100", "00101", "1000000", "10"):
            w = _word_matrix(word)
            p, det = w[0] + w[3], w[0] * w[3] - w[1] * w[2]
            power = w
            for t in range(2, 40):
                power = _mul(power, w)
                u, v = coding._lucas(p, det, t)
                du = (p * u - v) // 2  # det*U_(t-1), an exact half
                assert 2 * du == p * u - v and du == det * _lucas_u(p, det, t - 1)[0], (word, t)
                assert tuple(u * e - du * f for e, f in zip(w, (1, 0, 0, 1))) == power
        # n of 10 to 12 bits against W^n by repeated multiplication (n = 0,
        # one "0" digit, is in the recurrence check above)
        for word in ("0", "01", "00101", "1000000", "10"):
            w = _word_matrix(word)
            p, det = w[0] + w[3], w[0] * w[3] - w[1] * w[2]
            power, t = w, 1
            for n in (512, 683, 1000, 1365, 2047, 2730, 4095):
                while t < n:
                    power, t = _mul(power, w), t + 1
                u, v = coding._lucas(p, det, n)
                du = (p * u - v) // 2
                assert 2 * du == p * u - v, (word, n)
                assert tuple(u * e - du * f for e, f in zip(w, (1, 0, 0, 1))) == power, (word, n)

    def test_a_trace_that_overflows_a_float(self):
        # a 1602-symbol period: its trace has over 1100 bits, so a float
        # prediction from W's entries would raise OverflowError
        word = "0" * 1600 + "10"
        w = _word_matrix(word)
        with pytest.raises(OverflowError):
            float(w[0] + w[3])
        s = CodeStream.periodic("", word)
        goal = Fraction(1, 10 ** 3000)
        _, _, n, ok = _assert_matches_the_gallop_and_kernel(s, 0, 10 ** 5, goal)
        assert ok and n > 4 * len(word), n
        for budget in (n - 1, n + 1, 3 * len(word), 4 * len(word) + 1):
            _assert_matches_the_gallop_and_kernel(s, 0, budget, goal)
        _assert_matches_the_gallop_and_kernel(s, 5, 10 ** 5, goal)
        # at 10^-100 the first period meets the goal: no whole period is taken
        _, _, n, ok = _assert_matches_the_gallop_and_kernel(s, 0, 10 ** 5, Fraction(1, 10 ** 100))
        assert ok and n < len(word), n

    def test_words_of_either_determinant(self):
        # the inverse step and the power's identity term carry det's sign
        def det(word):
            a, b, c, d = _word_matrix(word)
            return a * d - b * c

        words = [w for n in range(1, 7) for w in admissible_words(n)
                 if "11" not in w + w and not _is_neutral(w)]
        assert {det(w) for w in words} == {-1, 1}
        for word in words:
            for lead in ("", "0", "1"):
                if "11" in lead + word[:1]:
                    continue
                for reps in (2, 3, 50, 2 ** 12):
                    s = _pieces_stream(([(lead, 1)] if lead else []) + [(word, reps), ("0", None)])
                    for e in (30, 100, 400):
                        _assert_matches_the_step_up(
                            s, 0, len(lead) + len(word) * reps + 3, Fraction(1, 10 ** e))

    def test_10_from_the_empty_prefix(self):
        # one period of 10 encloses [1, infinity]: d = 0, so d*q is read as 1
        w = _word_matrix("10")
        assert w[3] == 0
        s = CodeStream.periodic("", "10")
        for e in (20, 21, 40, 100, 1000):
            goal = Fraction(1, 10 ** e)
            _, _, n, _ = _assert_matches_the_gallop_and_kernel(s, 0, 10 ** 5, goal)
            for budget in (2, 3, 4, n - 2, n - 1, n, n + 1):
                _assert_matches_the_gallop_and_kernel(s, 0, budget, goal)
            for reps in (2, 3, n // 2 - 1, n // 2, n // 2 + 1):
                t = _pieces_stream([("10", reps), ("0", None)])
                _assert_walk_matches_the_gallop(t, 0, 2 * reps + 5, goal)

    def test_runs_ending_before_the_goal(self, monkeypatch):
        # a run of reps = 2, 3 or 40 periods the goal outlasts: the prediction
        # is clamped to reps, and the power taken is W^reps itself
        calls = _recording_lucas(monkeypatch)
        for word in ("0", "00101", "1000000", "01"):
            for reps in (2, 3, 40):
                s = _pieces_stream([("0", 1), (word, reps), ("1", 1), ("0", None)])
                calls.clear()
                _assert_walk_matches_the_gallop(s, 0, 1 + len(word) * reps, Fraction(1, 10 ** 600))
                assert calls[0][0] == reps, (word, reps, calls)

    def test_budgets_around_the_predicted_periods(self, monkeypatch):
        # budgets of t - 1, t and t + 1 whole periods (and a symbol either
        # side) around the prediction t, from an empty prefix and behind a lead
        calls = _recording_lucas(monkeypatch)
        for pre, per in (("", "0"), ("", "01"), ("1", "00100"), ("0100", "00101"), ("01", "0001")):
            s = CodeStream.periodic(pre, per)
            for e in (30, 300, 3000):
                goal = Fraction(1, 10 ** e)
                calls.clear()
                _enclose(s, 0, 10 ** 6, 1, 10 ** e)
                t = calls[-1][0]
                for periods in (t - 1, t, t + 1):
                    for extra in (-1, 0, 1):
                        budget = len(pre) + len(per) * periods + extra
                        if budget >= 1:
                            _assert_matches_the_gallop_and_kernel(s, 0, budget, goal)

    def test_deep_goals_on_mu_and_tau(self):
        # mu's zero run at 122 (up to 241) and the runs of a tau block, from
        # each run start and a few symbols into it
        mu = _read_limited(mu_code("011010"))
        for e in (20, 40, 300, 1000, 3000):
            for k in (122, 123, 125, 240):
                _assert_walk_matches_the_gallop(mu, k, 10 ** 5, Fraction(1, 10 ** e))
        tracked = [CodeStream.periodic("1", "00100")]
        tau = _read_limited(tau_code("0110", alpha_transitive(), tracked))
        lay = BlockLayout.for_k(6)
        anchors = [lay.run_start(w) + t for w in range(3) for t in range(3)]
        anchors += [lay.encode_cell(1) + 1, lay.tracking_start(1) + 1, lay.separation_source(1, 1)]
        for n in anchors:
            for e in (20, 100, 1000):
                _assert_walk_matches_the_gallop(tau, n, 10 ** 5, Fraction(1, 10 ** e))

    def test_enclose_deep_draw(self, monkeypatch):
        # codes and goals as enclose-deep draws them: the prediction takes
        # t.bit_length() doublings, misses by at most 3 periods, and one
        # multiply follows per period it overshoots, none where it is right or
        # short (the tail steps those); some predictions are over, some right,
        # some short
        rng = random.Random(46)
        muls = _counting_calls(monkeypatch, "_mul")
        calls = _recording_lucas(monkeypatch)
        ways = set()
        for pre, per in _enclose_deep_codes(rng, 60):
            s = CodeStream.periodic(pre, per)
            m, last = _word_matrix(pre), int(per[-1])
            w = _word_matrix(per)
            for e in (60, 300, 1500):
                goal = Fraction(1, 10 ** e)
                muls.append(0)
                calls.clear()
                got = _assert_matches_the_step_up(s, 0, 50000, goal)
                assert got[3], (pre, per, e)
                t_hat = _predicted_periods(m, w, last, (50000 - len(pre)) // len(per), goal)
                assert calls == [(t_hat, t_hat.bit_length())], (pre, per, e, calls)
                t = (got[2] - len(pre) - 1) // len(per)
                assert -3 <= t_hat - t <= 3, (pre, per, e, t_hat, t)
                assert muls[-1] - (1 if pre else 0) == max(t_hat - t, 0), (pre, per, e, muls[-1])
                ways.add((t > t_hat) - (t < t_hat))
        assert ways == {-1, 0, 1}, ways

    def test_long_periods(self):
        _check_long_periods()

    def test_the_tail_steps_a_period_the_prediction_left_out(self, monkeypatch):
        # no reachable input is known to make the prediction fall short, so
        # _whole_periods is made to return one period fewer than it found,
        # m*W^(t-1) with W^-1 = det*adj(W): the walk's tail steps that whole
        # long period symbol by symbol, to the same enclosures
        found = coding._whole_periods
        shortfalls = []

        def one_short(m, w, last, reps, goal_num, goal_den, short_bits, i):
            x, t = found(m, w, last, reps, goal_num, goal_den, short_bits, i)
            if not t:
                return x, t
            a, b, c, d = w
            det = a * d - b * c
            shortfalls.append(t)
            return _mul(x, (det * d, -det * b, -det * c, det * a)), t - 1

        monkeypatch.setattr(coding, "_whole_periods", one_short)
        _check_long_periods()
        word = "0" * 1600 + "10"
        _assert_matches_the_gallop_and_kernel(CodeStream.periodic("", word), 0, 10 ** 5,
                                              Fraction(1, 10 ** 3000))
        assert len(shortfalls) > 50 and max(shortfalls) > 10, shortfalls

    def test_lopsided_leads(self):
        # behind a neutral run of 2^20 periods the bottom row (c, d) is 21 to
        # 23 bits one way and 1 or 2 the other, so d*q after one period misjudges the
        # growth of the next (the prediction overshoots by up to 14 periods
        # on the word 0); runs of 2 to 2^12 periods of short words after it
        leads = []
        for lead, neutral in LOPSIDED_LEADS:
            pieces = ([(lead, 1)] if lead else []) + [(neutral, 2 ** 20)]
            size = len(lead) + 3 * 2 ** 20
            m = _enclose(_pieces_stream(pieces + [("0", None)]), 0, size, 1, 10 ** 9000)[0]
            small, large = sorted((m[2].bit_length(), m[3].bit_length()))
            assert small <= 2 and large >= 21, (lead, m)
            leads.append((pieces, size))
        for pieces, size in leads:
            for word in ("0", "01", "0001", "00101", "1000000", "10", "0010001"):
                for reps in (2, 50, 2 ** 12):
                    s = _pieces_stream(pieces + [(word, reps), ("0", None)])
                    for e in (30, 60, 300, 3000):
                        goal = Fraction(1, 10 ** e)
                        got = _assert_matches_the_step_up(s, size, len(word) * reps + 3, goal)
                        if got[3]:
                            _assert_matches_the_step_up(s, size, got[2] - 1, goal)
                        _assert_matches_the_step_up(s, 0, size + len(word) * reps + 3, goal)


def _check_long_periods():
    """Periods of 50 to 400 symbols, from each admissible lead of up to two
    symbols, goals one to about sixty periods deep, budgets around the stop,
    against the walk that stepped the power up and the gallop."""
    rng = random.Random(48)
    for size in (50, 97, 200, 400):
        word = _cyclic_word(rng, size)
        for pre in ("", "0", "1", "00", "01", "10"):
            if "11" in pre + word[:1] or "11" in pre:
                continue
            s = CodeStream.periodic(pre, word)
            for e in (60, 400, 3000, 8000):
                goal = Fraction(1, 10 ** e)
                got = _assert_matches_the_step_up(s, 0, 10 ** 6, goal)
                assert got[3], (size, pre, e)
                for budget in (got[2] - size, got[2] - 1, got[2] + 1):
                    _assert_matches_the_step_up(s, 0, budget, goal)


def _assert_enclose_matches(s, k, max_prefix, goal):
    """_enclose(s, k, ...) against point_of_code(s.shifted(k), ...): the same
    endpoints, prefix length and goal flag, or the same error and index."""
    goal = Fraction(goal)
    try:
        want = point_of_code(s.shifted(k), max_prefix, goal)
    except InadmissibleWordError as exc:
        with pytest.raises(InadmissibleWordError) as got:
            _enclose(s, k, max_prefix, goal.numerator, goal.denominator)
        assert str(got.value) == str(exc), (s, k, max_prefix)
        return
    m, last, n, ok = _enclose(s, k, max_prefix, goal.numerator, goal.denominator)
    lo, hi = want.interval.lo, want.interval.hi
    assert _endpoints(m, last) == (lo.num, lo.den, hi.num, hi.den), (s, k, max_prefix, goal)
    assert (n, ok) == (want.prefix_len, want.width_ok), (s, k, max_prefix, goal)


class TestEncloseKernel:
    """_enclose reads a stream from index k on, as point_of_code reads its shift by k."""

    GOALS = (Fraction(1, 800), Fraction(1, 10 ** 40))

    @pytest.mark.parametrize("s", [
        CodeStream.periodic("0100100", "00101"),
        CodeStream.periodic("0100100", "00101").shifted(3),  # a stream with an offset
        CodeStream.periodic("01", "0"),
        CodeStream.periodic("", "100"),
        CodeStream.periodic("0", "1001"),  # "11" across the seam between periods
        CodeStream.periodic("0110", "0"),  # "11" inside the preperiod
    ], ids=repr)
    def test_inside_at_the_end_of_and_past_the_preperiod(self, s):
        p, q = map(len, pre_and_period(s))
        for k in [*range(p + 2 * q + 3), 10 ** 6 + 3]:
            for cap in (1, 2, 7, 60, 500):
                for goal in self.GOALS:
                    _assert_enclose_matches(s, k, cap, goal)

    @classmethod
    def _assert_codes_enclose_alike(cls, x, shifts, caps):
        """x's escape word typed as a preperiod, and x's own code, a segmented
        stream: each _enclose matches point_of_code of the shift, and the
        segment walk over the code's runs returns the typed code's tuple."""
        s, code = CodeStream.periodic(escape_word(x), "010"), _read_limited(code_of_rational(x))
        for k in shifts:
            for cap in caps:
                for goal in cls.GOALS:
                    _assert_enclose_matches(s, k, cap, goal)
                    _assert_enclose_matches(code, k, cap, goal)
                    num, den = goal.numerator, goal.denominator
                    assert _enclose(code, k, cap, num, den) == _enclose(s, k, cap, num, den)

    def test_long_rational_preperiod(self):
        p = escape_time(xr(1, 200))
        assert p == 299 == len(escape_word(xr(1, 200)))
        self._assert_codes_enclose_alike(
            xr(1, 200), (0, 1, 150, 290, p - 1, p, p + 1, p + 2, p + 1000), (1, 9, 300, 3000))

    def test_shifted_inside_a_ten_million_symbol_preperiod(self):
        p = escape_time(xr(1, 6666667))
        assert p >= 10 ** 7 - 10
        self._assert_codes_enclose_alike(
            xr(1, 6666667), (1, 2, 12345, p // 2, p - 5, p - 1, p, p + 1, p + 2), (1, 50, 4000))

    def test_deep_inside_an_escape_of_one_and_a_half_times_ten_to_the_eighteen(self):
        # 1/10^18 reads 0 (100)^(5 * 10^17 - 1) 0, then 010 forever: index
        # 1 + 3 * 10^17 starts a pass deep inside the run, where the code
        # reads as (100) forever does up to the cap
        s = _read_limited(code_of_rational(xr(1, 10 ** 18)))
        for cap in (1, 9, 300, 3000):
            for goal in self.GOALS:
                num, den = goal.numerator, goal.denominator
                want = _enclose(CodeStream.periodic("", "100"), 0, cap, num, den)
                assert _enclose(s, 1 + 3 * 10 ** 17, cap, num, den) == want, (cap, goal)

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_every_scheduled_index(self, k):
        alpha = _read_limited(alpha_transitive())
        for s, t, events, _ in _schedule_cases(k):
            for ev in events:
                budget = min(10 ** 5, ev.prefix_cap) if ev.prefix_cap else 10 ** 5
                for n in {ev.index, ev.index + ev.t_offset}:
                    for stream in (s, t, alpha):
                        if stream is not None:
                            _assert_enclose_matches(stream, n, budget, EPS / 8)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(periodic_codes, procedural_codes, rewrapped_periodic_codes),
           st.integers(0, 3000), st.integers(1, 400), width_goals)
    @example(CodeStream.periodic("", "1"), 5, 2, Fraction(1, 10))  # "11" at once
    def test_drawn_index(self, s, k, cap, goal):
        _assert_enclose_matches(s, k, cap, goal)


class TestPeriodicPoint:
    def test_paper_values(self):
        assert periodic_point("", "0") == GOLDEN_FIXED_POINT
        assert periodic_point("1", "0") == QuadraticSurd(3, 1, 2, 5)
        assert periodic_point("", "100") == INF
        assert periodic_point("", "010") == ZERO
        assert periodic_point("", "001") == ONE

    def test_exact_periodicity(self):
        for per in ("0", "01", "00100", "10010"):
            x = periodic_point("", per)
            y = x
            for _ in range(len(per)):
                y = phi_surd(y) if isinstance(y, QuadraticSurd) else phi_rat(y)
            assert y == x

    def test_point_lies_in_every_cylinder_prefix(self):
        per = "01000"
        x = periodic_point("", per)
        for reps in range(1, 5):
            assert cylinder(per * reps).contains(x)

    def test_preperiod_push_matches_per_symbol_branches(self):
        def push_reference(preperiod, x):
            for ch in reversed(preperiod):
                x = mobius_apply((0, 1, 1, 1) if ch == "0" else (0, 1, -1, 1), x)
            return x

        rng = random.Random(41)
        checked = 0
        while checked < 300:
            pre = rng.choice(admissible_words(rng.randrange(0, 13)))
            per = rng.choice(admissible_words(rng.randrange(1, 7)))
            if not is_admissible(pre + per + per):
                continue
            fixed = periodic_point("", per)
            assert periodic_point(pre, per) == push_reference(pre, fixed), (pre, per)
            checked += 1

    def test_inadmissible_rejected(self):
        with pytest.raises(InadmissibleWordError):
            periodic_point("", "11")
        with pytest.raises(InadmissibleWordError):
            periodic_point("01", "10")  # wraps to ...1 1 0...


class TestPhiIntervalImage:
    def test_monotone_pieces(self):
        assert phi_interval_image(FareyInterval(xr(1, 2), ONE)) == [FareyInterval(ZERO, ONE)]
        assert phi_interval_image(FareyInterval(ONE, INF)) == [FareyInterval(ZERO, ONE)]
        assert phi_interval_image(FareyInterval(ZERO, ONE)) == [FULL_LINE]

    def test_straddling_interval_splits(self):
        pieces = phi_interval_image(FareyInterval(xr(1, 2), xr(2)))
        assert pieces == [FareyInterval(ZERO, ONE), FareyInterval(ZERO, xr(1, 2))]

    def test_forward_invariance_of_point_enclosures(self):
        # phi of an n-symbol enclosure is exactly the (n-1)-symbol enclosure
        # of the shifted stream
        rng = random.Random(5)
        for trial in range(100):
            bits = "".join(rng.choice("01") for _ in range(10))
            s = per_symbol_stream(
                (lambda b: lambda n: int(b[n % 10]) if n % 2 == 0 else 0)(bits),
                label="t%d" % trial)
            e0 = point_of_code(s, 12, Fraction(1, 10 ** 40)).interval
            e1 = point_of_code(s.shifted(1), 11, Fraction(1, 10 ** 40)).interval
            pieces = phi_interval_image(e0)
            lo = min(p.lo for p in pieces)
            hi = max(p.hi for p in pieces)
            assert FareyInterval(lo, hi) == e1


class TestCodeOfRational:
    def test_orbit_members(self):
        assert pre_and_period(code_of_rational(ZERO))[1] == "010"
        assert code_of_rational(INF).prefix(6) == "100100"
        assert code_of_rational(ONE).prefix(7) == "0010010"
        assert code_of_rational(ONE, tie_high=True).prefix(7) == "1010010"

    def test_matches_itinerary(self):
        for num, den in [(3, 5), (7, 3), (22, 7), (1, 9)]:
            x = xr(num, den)
            s = code_of_rational(x)
            assert s.prefix(20) == itinerary(x, 20)
            assert is_admissible(_seams(s))

    def test_code_of_any_escape_time(self):
        # no escape time is refused, and each code is its few runs: 1/9999
        # reads 0 (100)^4999, 1/10000 and 1/10^18 read 0 (100)^m 0, each
        # then 010 forever; tie_high reads the last symbol, the visit to 1, as 1
        for den, e, tail in ((9999, 14998, "0100"), (10000, 14999, "1000"),
                             (10 ** 18, 15 * 10 ** 17 - 1, "1000")):
            x = xr(1, den)
            assert escape_time(x) == e
            for tie_high in (False, True):
                s = code_of_rational(x, tie_high)
                assert s.run_at(e) == ("010", None), (den, tie_high)
                want = (tail[:-1] + "1" if tie_high else tail) + "010010"
                assert s.shifted(e - 4).prefix(10) == want, (den, tie_high)
                word, end = s.run_at(1)
                assert s.run_at(0) == ("0", 1) and word == "100" and end >= e - 3, den
                if den < 10 ** 6:
                    assert pre_and_period(s) == (escape_word(x, tie_high), "010"), den

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1200), st.integers(1, 400), st.booleans())
    @example(1, 200, True)
    @example(2, 1, True)  # the tie turns the last run (1, "") into (0, "101")
    @example(0, 1, True)  # the empty escape word: no tie to read
    def test_code_reads_the_escape_word(self, num, den, tie_high):
        # against the escape word built as one string, and shifted at its
        # start, inside it, at its last symbols and past it
        x = xr(num, den)
        e = escape_time(x)
        plain = escape_word(x, tie_high) + "010" * 10
        s = code_of_rational(x, tie_high)
        assert s.prefix(e + 12) == plain[:e + 12]
        for k in sorted({0, 1, e // 2, e - 1, e, e + 5} - {-1}):
            t = s.shifted(k)
            assert t.prefix(12) == plain[k:k + 12], k
            assert "".join(str(t[i]) for i in range(12)) == plain[k:k + 12], k
