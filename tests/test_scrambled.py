import bisect
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (_factorial_floor_by_loop, _mu_code_by_layout, _schedule_events_by_layout,
                      _tau_code_by_layout, _verify_both_sides, per_symbol_stream)
from fareyshift.exact import (INF, INFINITE_DISTANCE, ONE, ZERO, ExtendedRational,
                              escape_time, phi_rat)
from fareyshift.coding import (
    CodeStream,
    FareyInterval,
    _enclose,
    _endpoints,
    _word_matrix,
    admissible_words,
    code_of_rational,
    cylinder,
    itinerary,
    phi_interval_image,
    point_of_code,
)
from fareyshift.scrambled import (
    BlockLayout,
    EventOutcome,
    ScheduleEvent,
    ScrambleReport,
    _CYCLE_CODE,
    _CYCLE_NAMES,
    _CYCLE_POINTS,
    _alpha_word,
    _classify,
    _decide_shared,
    _distance_bounds,
    _factorial_floor,
    _layout,
    alpha_transitive,
    g_map,
    mu_code,
    rational_vs_tau,
    schedule_events,
    tau_code,
    verify_scrambling,
)


def xr(n, d=1):
    return ExtendedRational(n, d)


def _ends(iv):
    """A FareyInterval as the endpoint quadruple (lo_num, lo_den, hi_num, hi_den)
    the scramble checks decide on."""
    return iv.lo.num, iv.lo.den, iv.hi.num, iv.hi.den


# The per-index symbol functions the segment functions replaced, and the
# word table alpha's rule replaced, kept verbatim as the reference oracle.

_RUNS = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
_100 = (1, 0, 0)


def _factorial_block(n):
    """k and k! with k! <= n < (k+1)!, for n >= 5!."""
    k, fk = 5, 120
    while fk * (k + 1) <= n:
        k += 1
        fk *= k
    return k, fk


def _mu_symbol_reference(beta, n):
    if n < 120:
        return 0
    k, fk = _factorial_block(n)
    j, off = divmod(n - fk, fk)
    if off != 1:
        return 0
    return 1 if j == 0 else beta[j - 1]


def _build_alpha_blocks():
    """Resolved (start, word) table for the transitive stream.

    Words come in length-lexicographic order from length 5 up; block i
    sits at (m_i)! for the minimal increasing schedule satisfying
    (m_i)! > (m_{i-1})! + |B_{i-1}| + 1, up to 10^18.
    """
    blocks = []
    m, end = 0, -1  # end: one past the previous block
    for word in enumerate_admissible(18):
        m += 1
        while math.factorial(m) <= end + 1:
            m += 1
        start = math.factorial(m)
        if start > 10 ** 18:
            break
        blocks.append((start, word))
        end = start + len(word)
    return tuple(blocks)


def _alpha_symbol_reference(blocks, n):
    starts = [s for s, _ in blocks]
    i = bisect.bisect_right(starts, n) - 1
    if i >= 0:
        start, word = blocks[i]
        if n < start + len(word):
            return int(word[n - start])
    return 0


def _tau_symbol_reference(beta, alpha, x_codes, n):
    if n < 119:
        return alpha[n]
    if n == 119:
        return 0
    k, fk = _factorial_block(n)
    part, off = divmod(n - fk, fk)
    if part == 0:
        return alpha[off]
    if part == 1:
        quarter = fk // 4
        if off < quarter:
            return 0
        seg, po = divmod(off - quarter, quarter)
        return _RUNS[seg][po % 3]
    if part == 2:
        j, po = divmod(off, fk // k)
        return beta[j] if po % 3 == 0 else 0
    i = part - 2  # tracked code index, 1-based
    code = x_codes[(i - 1) % len(x_codes)]
    half = fk // k // 2  # (k-1)!/2, the window length
    j2, so = divmod(off, half)
    src = (3 + i) * fk
    if j2 < k:  # copy window j2+1
        a = src + j2 * (half - 1)
        return code[a + so] if so < half - 1 else 0
    a = src + fk // 2 + (j2 - k) * (half - 1)
    if code[a] == 1:
        return 0 if so == 0 else _100[(so - 1) % 3]
    return _100[so % 3]


BOUND_UNION = (
    FareyInterval(ZERO, xr(1, 3)),
    FareyInterval(xr(1, 2), ONE),
    FareyInterval(xr(2), xr(3)),
)


class TestMuCode:
    def test_zero_prefix(self):
        mu = mu_code("1")
        assert mu.prefix(120) == "0" * 120

    def test_head_and_parameter_cells(self):
        beta = CodeStream.periodic("", "01")
        mu = mu_code(beta)
        assert mu[120] == 0 and mu[121] == 1        # block head "01"
        assert mu[120 + 120 + 1] == beta[0]
        assert mu[120 + 2 * 120 + 1] == beta[1]
        assert mu[720 + 720 + 1] == beta[0]

    def test_block_against_literal_layout(self):
        beta = CodeStream.periodic("", "0110")
        mu = mu_code(beta)
        literal = "01" + "0" * 118
        for j in range(4):
            literal += "0" + str(beta[j]) + "0" * 118
        assert mu.prefix(240 + 4 * 120)[120:] == literal

    def test_admissible_windows(self):
        rng = random.Random(41)
        mu = mu_code("10")
        for _ in range(20):
            start = rng.randrange(0, math.factorial(10))
            window = "".join(str(mu[start + i]) for i in range(2000))
            assert "11" not in window

    def test_every_shift_lands_in_the_bounded_union(self):
        rng = random.Random(43)
        mu = mu_code("011010")
        for _ in range(100):
            n = rng.randrange(0, math.factorial(8))
            enc = point_of_code(mu.shifted(n), 24, Fraction(1, 10 ** 6)).interval
            assert any(piece.lo <= enc.lo and enc.hi <= piece.hi for piece in BOUND_UNION)

    def test_shift_by_one_commutes_with_phi(self):
        rng = random.Random(47)
        mu = mu_code("0101")
        for _ in range(100):
            n = rng.randrange(0, math.factorial(7))
            e0 = point_of_code(mu.shifted(n), 14, Fraction(1, 10 ** 40)).interval
            e1 = point_of_code(mu.shifted(n + 1), 13, Fraction(1, 10 ** 40)).interval
            pieces = phi_interval_image(e0)
            lo = min(p.lo for p in pieces)
            hi = max(p.hi for p in pieces)
            assert FareyInterval(lo, hi) == e1


class TestAlpha:
    def test_default_schedule_blocks(self):
        blocks = _build_alpha_blocks()
        assert blocks[0] == (1, "00000")
        assert blocks[1] == (24, "00001")
        assert blocks[2] == (120, "00010")
        starts = [s for s, _ in blocks]
        assert starts[:7] == [1, 24, 120, 720, 5040, 40320, 362880]

    def test_prefix_matches_literal(self):
        al = alpha_transitive()
        text = al.prefix(130)
        expect = list("0" * 130)
        expect[1:6] = "00000"
        expect[24:29] = "00001"
        expect[120:125] = "00010"
        assert text == "".join(expect)

    def test_admissible(self):
        al = alpha_transitive()
        assert "11" not in al.prefix(10 ** 5)

    def test_rule_matches_reference_below_20_factorial(self):
        # word 0, 00000, is at 1! in the table and at 3! by the rule: the same zeros
        blocks = _build_alpha_blocks()
        al = alpha_transitive()
        assert al.prefix(30) == "".join(str(_alpha_symbol_reference(blocks, n))
                                        for n in range(30))
        nexts = [s for s, _ in blocks[2:]] + [math.factorial(20)]
        for (start, word), nxt in zip(blocks[1:], nexts):
            end = start + len(word)
            for n in range(start - 3, end + 4):
                assert al[n] == _alpha_symbol_reference(blocks, n), n
            for n in range(start - 3, start):
                assert al.run_at(n) == ("0", start), n
            for n in range(start, end):
                assert al.run_at(n) == (word[n - start:], end), n
            for n in range(end, end + 4):
                assert al.run_at(n) == ("0", nxt), n

    def test_rule_goes_on_past_the_reference(self):
        blocks = _build_alpha_blocks()
        assert blocks[-1] == (math.factorial(19), "000100")
        f20 = math.factorial(20)
        al = alpha_transitive()
        assert _alpha_symbol_reference(blocks, f20 + 3) == 0 and al[f20 + 3] == 1
        assert al.run_at(math.factorial(19) + 6) == ("0", f20)
        assert al.run_at(10 ** 18 + 100) == ("0", f20)
        assert al.run_at(f20) == ("000101", f20 + 6)


def _zeckendorf_rank(word: str, counts) -> int:
    """Index of an admissible word among those from length 5, length-lexicographic.

    counts[m] is the number of admissible words of length m; a 1 with m
    symbols after it ranks the word above the counts[m] words with a 0 there.
    """
    shorter = sum(counts[length] for length in range(5, len(word)))
    return shorter + sum(counts[len(word) - 1 - p] for p, ch in enumerate(word) if ch == "1")


class TestAlphaWord:
    def test_unrank_matches_admissible_words(self):
        counts = [len(admissible_words(m)) for m in range(21)]
        i = 0
        for length in range(5, 21):
            for word in admissible_words(length):
                assert _alpha_word(i) == word, i
                assert _zeckendorf_rank(word, counts) == i, word
                i += 1
        assert i == 46347

    def test_gap_holds_each_word_and_two_zeros(self):
        for i in range(200):
            length = len(_alpha_word(i))
            assert length <= i + 5, i
            assert math.factorial(i + 4) - math.factorial(i + 3) >= length + 2, i


# Word and window builders with no library caller, kept as independent
# oracles for the stream layouts (tau_block_literal assembles tau blocks from them).

def enumerate_admissible(count: int) -> list[str]:
    """First `count` admissible words, length-lexicographic from length 5."""
    if count < 0:
        raise ValueError("negative count")
    words, length = [], 5
    while len(words) < count:
        words += admissible_words(length)
        length += 1
    return words[:count]


def c_block(code: CodeStream, i: int, j: int) -> str:
    """Copy symbols i..j-1 of the code and append a 0 (concatenation-safe)."""
    if not (j > i >= 5):
        raise ValueError("need j > i >= 5")
    if (j - i + 1) % 3:
        raise ValueError("window length must be a multiple of 3")
    return "".join(str(code[t]) for t in range(i, j)) + "0"


def c_star_block(code: CodeStream, i: int, j: int) -> str:
    """Separation window: 0 (100)^m 10 when the code reads 1 at i, else (100)^m.

    Same length as the matching copy window and 0-terminated, so the two
    kinds concatenate without ever producing "11".
    """
    if not (j > i >= 5):
        raise ValueError("need j > i >= 5")
    length = j - i + 1
    if length % 3:
        raise ValueError("window length must be a multiple of 3")
    if code[i] == 1:
        return "0" + "100" * ((length - 3) // 3) + "10"
    return "100" * (length // 3)


class TestEnumerateAdmissible:
    def test_first_entry_and_counts(self):
        words = enumerate_admissible(40)
        assert words[0] == "00000"
        assert sum(1 for w in words if len(w) == 5) == 13
        assert all("11" not in w for w in words)
        assert words == sorted(words, key=lambda w: (len(w), w))


class TestBlocks:
    def test_c_block_copies_and_terminates(self):
        zeros = CodeStream.periodic("", "0")
        assert c_block(zeros, 6, 11) == "000000"
        code = CodeStream.periodic("", "010")
        window = c_block(code, 6, 11)
        assert window == code.prefix(11)[6:11] + "0"
        assert len(window) == 6 and window.endswith("0")

    def test_c_star_block_two_shapes(self):
        zeros = CodeStream.periodic("", "0")
        assert c_star_block(zeros, 6, 14) == "100100100"
        ones_at_6 = per_symbol_stream(lambda n: 1 if n == 6 else 0)
        assert c_star_block(ones_at_6, 6, 14) == "010010010"
        for code in (zeros, ones_at_6):
            assert c_star_block(code, 6, 14).endswith("0")

    def test_preconditions(self):
        zeros = CodeStream.periodic("", "0")
        with pytest.raises(ValueError):
            c_block(zeros, 4, 9)      # i < 5
        with pytest.raises(ValueError):
            c_block(zeros, 6, 12)     # length 7 not a multiple of 3
        with pytest.raises(ValueError):
            c_star_block(zeros, 6, 12)


def tau_block_literal(k, beta, alpha, x_codes):
    """Independent assembly of block k as explicit strings."""
    fk = math.factorial(k)
    quarter = fk // 4
    sub = fk // k            # (k-1)!
    half = sub // 2          # window length
    parts = [alpha.prefix(fk)]
    parts.append("0" * quarter + "100" * (quarter // 3)
                 + "001" * (quarter // 3) + "010" * (quarter // 3))
    parts.append("".join((str(beta[j]) + "00") * (sub // 3) for j in range(k)))
    for i in range(1, k - 2):
        code = x_codes[(i - 1) % len(x_codes)]
        src = (3 + i) * fk
        windows = []
        for j in range(1, k + 1):
            windows.append(c_block(code, src + (j - 1) * (half - 1),
                                   src + j * (half - 1)))
        for j in range(1, k + 1):
            windows.append(c_star_block(code, src + fk // 2 + (j - 1) * (half - 1),
                                        src + fk // 2 + j * (half - 1)))
        parts.append("".join(windows))
    return "".join(parts)


def _cycle_point(j):
    """The point _CYCLE_POINTS[j] encloses, checked to be one point whose
    (num, den) is in lowest terms (infinity is (1, 0))."""
    lo_num, lo_den, hi_num, hi_den = _CYCLE_POINTS[j]
    assert (lo_num, lo_den) == (hi_num, hi_den), j
    x = xr(lo_num, lo_den)
    assert (x.num, x.den) == (lo_num, lo_den), j
    return x


class TestCycleTable:
    # phase j is phi^j(0); entry j of each table belongs to that point

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_phi_steps_the_phase(self, j):
        assert _cycle_point(0) == ZERO
        assert phi_rat(_cycle_point(j)) == _cycle_point((j + 1) % 3)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_codes_read_the_table(self, j):
        x = _cycle_point(j)
        assert code_of_rational(x).prefix(30) == _CYCLE_CODE[j] * 10
        assert itinerary(x, 30) == _CYCLE_CODE[j] * 10
        for m in range(6):  # read from symbol m on: the entry m phases later
            assert code_of_rational(x).prefix(m + 3)[m:] == _CYCLE_CODE[(j + m) % 3]

    def test_names_name_the_points(self):
        named = {"zero": ZERO, "inf": INF, "one": ONE}
        assert [named[name] for name in _CYCLE_NAMES] == [_cycle_point(j) for j in range(3)]


class TestTauCode:
    def setup_method(self):
        self.alpha = alpha_transitive()
        self.tracked = [code_of_rational(ONE), code_of_rational(xr(3, 5))]
        self.beta = CodeStream.periodic("", "0110")
        self.tau = tau_code(self.beta, self.alpha, self.tracked)

    @pytest.mark.parametrize("x_codes", [[], (), iter([])])
    def test_no_tracked_code_is_rejected(self, x_codes):
        # an empty iterator is truthy; its first tracking window divided by zero
        with pytest.raises(ValueError, match="at least one tracked code"):
            tau_code("01", self.alpha, x_codes)

    def test_segments_are_cycle_table_entries(self):
        # separation runs, (b 0 0) cells and separation windows of block 5
        lay = _layout(5)
        for n in range(lay.part_start(1) + lay.quarter, lay.part_start(3)):
            word, _ = self.tau.run_at(n)
            assert word in _CYCLE_CODE or word == "000", n
        for n in range(lay.tracking_start(1) + lay.k * lay.window, lay.tracking_start(2)):
            assert self.tau.run_at(n)[0] in _CYCLE_CODE, n

    def test_preamble(self):
        text = self.tau.prefix(120)
        assert text[:119] == self.alpha.prefix(119)
        assert text[119] == "0"

    def test_block_5_matches_literal_assembly(self):
        got = self.tau.prefix(720)[120:720]
        expect = tau_block_literal(5, self.beta, self.alpha, self.tracked)
        assert got == expect

    def test_block_6_matches_literal_assembly(self):
        got = self.tau.prefix(math.factorial(7))[720:]
        expect = tau_block_literal(6, self.beta, self.alpha, self.tracked)
        assert got == expect

    def test_block_7_matches_literal_assembly(self):
        # four tracking targets here, so the two supplied codes recycle
        got = self.tau.prefix(math.factorial(8))[5040:]
        expect = tau_block_literal(7, self.beta, self.alpha, self.tracked)
        assert got == expect

    def test_separation_run_position(self):
        k, fk = 5, 120
        start = fk + fk + fk // 4
        assert self.tau.prefix(start + 9)[start:] == "100100100"

    def test_beta_cells(self):
        for k in (5, 6):
            fk = math.factorial(k)
            sub = fk // k
            for j in range(k):
                assert self.tau[3 * fk + j * sub] == self.beta[j]

    def test_admissible_windows(self):
        rng = random.Random(53)
        for _ in range(10):
            start = rng.randrange(0, math.factorial(10))
            window = "".join(str(self.tau[start + i]) for i in range(2000))
            assert "11" not in window

    def test_admissible_full_size_window(self):
        # one window at the stated sampling scale for each stream family
        rng = random.Random(61)
        for stream in (self.tau, mu_code("0110"), alpha_transitive()):
            start = rng.randrange(0, math.factorial(10))
            assert "11" not in stream.shifted(start).prefix(10 ** 5)

    def test_needs_tracked_codes(self):
        with pytest.raises(ValueError):
            tau_code("01", self.alpha, [])


def _reference_alpha():
    blocks = _build_alpha_blocks()
    return per_symbol_stream(lambda n: _alpha_symbol_reference(blocks, n), label="alpha-ref")


def _reference_tau(beta, alpha, x_codes):
    beta = CodeStream.periodic("", beta) if isinstance(beta, str) else beta
    return per_symbol_stream(
        lambda n: _tau_symbol_reference(beta, alpha, x_codes, n), label="tau-ref")


def _random_bits(seed):
    return per_symbol_stream(
        lambda n: random.Random(seed * 1_000_003 + n).getrandbits(1), label="random")


# parameter streams: a recycled word or a random per-symbol stream
betas = st.one_of(st.text(alphabet="01", min_size=1, max_size=8),
                  st.integers(0, 2 ** 32).map(_random_bits))


@st.composite
def tracked_pairs(draw):
    """(code, its oracle): periodic, rational, per-symbol or segmented."""
    kind = draw(st.sampled_from(["periodic", "rational", "procedural", "segmented"]))
    if kind == "periodic":
        code = CodeStream.periodic(draw(st.text(alphabet="01", max_size=5)),
                                   draw(st.text(alphabet="01", min_size=1, max_size=7)))
    elif kind == "rational":
        code = code_of_rational(xr(draw(st.integers(0, 60)), draw(st.integers(1, 60))))
    elif kind == "procedural":
        mod = draw(st.integers(2, 9))
        res = draw(st.integers(0, mod - 1))
        code = per_symbol_stream(lambda n: 1 if n % mod == res else 0)
    else:  # a tau stream tracking a tau stream
        beta = draw(betas)
        inner = CodeStream.periodic("", draw(st.text(alphabet="01", min_size=1, max_size=7)))
        return (tau_code(beta, alpha_transitive(), [inner]),
                _reference_tau(beta, _reference_alpha(), [inner]))
    return code, code


def _boundaries(family):
    """Every block, part, quarter, cell and window boundary for k = 5..10."""
    if family == "alpha":
        return {b for start, word in _build_alpha_blocks() if start < math.factorial(11)
                for b in (start, start + len(word))}
    out = set()
    for k in range(5, 11):
        lay = BlockLayout.for_k(k)
        out.update(lay.part_start(p) for p in range(k))
        out.add(lay.start + lay.k * lay.string_len)
        if family == "tau":
            out.update(lay.run_start(w) for w in range(3))
            out.update(lay.encode_cell(j) for j in range(k))
            for i in range(1, k - 2):
                out.update(lay.tracking_start(i) + w * lay.window for w in range(2 * k))
    return out


def _assert_segments_match(stream, oracle, shift_by, starts, span=8):
    """From each start, run_at segments read the oracle's symbols.

    Reads span symbols across segments, and also checks each segment it
    visits at its last symbol and at one inside it, so a long run is
    checked beyond the window.
    """
    rng = random.Random(len(starts))
    for n in sorted(starts):
        if n < 0:
            continue
        assert stream[n] == oracle(n + shift_by), n
        i, got = n, ""
        while len(got) < span:
            word, end = stream.run_at(i)
            assert word and (end is None or end > i), (i, word, end)
            last = i + 10 ** 6 if end is None else end - 1
            for at in (last, rng.randint(i, last)):
                assert int(word[(at - i) % len(word)]) == oracle(at + shift_by), (i, at)
            take = span - len(got) if end is None else min(end - i, span - len(got))
            got += (word * (take // len(word) + 1))[:take]
            i += take
        assert got == "".join(str(oracle(n + shift_by + p)) for p in range(span)), n


def _starts(family, shift_by):
    return {b + delta - shift_by for b in _boundaries(family) for delta in range(-2, 3)} \
        | {119 - shift_by, 120 - shift_by}


class TestSegmentsMatchReference:
    """run_at segments against the per-index symbol functions they replaced."""

    @settings(max_examples=25, deadline=None)
    @given(betas, st.integers(0, 5), st.integers(0, math.factorial(11)))
    def test_mu(self, beta, shift_by, extra):
        ref = CodeStream.periodic("", beta) if isinstance(beta, str) else beta
        stream = mu_code(beta).shifted(shift_by)
        _assert_segments_match(stream, lambda n: _mu_symbol_reference(ref, n), shift_by,
                               _starts("mu", shift_by) | {extra})

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 5), st.integers(0, math.factorial(11)))
    def test_alpha(self, shift_by, extra):
        blocks = _build_alpha_blocks()
        stream = alpha_transitive().shifted(shift_by)
        _assert_segments_match(stream, lambda n: _alpha_symbol_reference(blocks, n), shift_by,
                               _starts("alpha", shift_by) | {extra})

    @settings(max_examples=25, deadline=None)
    @given(betas, st.lists(tracked_pairs(), min_size=1, max_size=2), st.integers(0, 5),
           st.integers(0, math.factorial(11) - 100))
    def test_tau(self, beta, tracked, shift_by, extra):
        stream = tau_code(beta, alpha_transitive(), [c for c, _ in tracked]).shifted(shift_by)
        ref = _reference_tau(beta, _reference_alpha(), [r for _, r in tracked])
        _assert_segments_match(stream, ref.symbol_at, shift_by, _starts("tau", shift_by) | {extra})

    def test_blocks_past_sixteen_read_the_rule(self):
        # no block is capped: part 0 of block k copies alpha's first k!
        # symbols, so alpha's word k - 4, written at (k - 1)!, sits at
        # k! + (k - 1)!; every string of the block reads as the reference
        # does from its start, and an enclosure from k! + 2 is read alike
        tracked = [code_of_rational(xr(7, 3))]
        tau = tau_code("01101", alpha_transitive(), tracked)
        ref = _reference_tau("01101", alpha_transitive(), tracked)
        words = []
        for k in (17, 20, 25):
            fk, word = math.factorial(k), _alpha_word(k - 4)
            at = fk + math.factorial(k - 1)
            assert tau.shifted(at).prefix(len(word) + 2) == word + "00", k
            words.append(word)
            lay = BlockLayout.for_k(k)
            for n in [at, *(lay.part_start(p) for p in range(k)), lay.run_start(0),
                      lay.run_start(2) + 1, lay.encode_cell(3), lay.separation_source(1, 2)]:
                assert tau.shifted(n).prefix(12) == "".join(
                    str(ref[n + i]) for i in range(12)), (k, n)
            enc = point_of_code(tau.shifted(fk + 2), 60, Fraction(1, 100))
            assert enc == point_of_code(ref.shifted(fk + 2), 60, Fraction(1, 100)), k
            assert enc.width_ok, k
        assert words == ["000000", "000100", "010000"]


class TestBlockBookkeeping:
    def test_part_lengths_tile_each_block(self):
        for k in range(5, 10):
            fk = math.factorial(k)
            assert fk + fk + fk + (k - 3) * fk == k * fk

    def test_sub_block_lengths_are_integers(self):
        for k in range(5, 10):
            fk = math.factorial(k)
            assert fk % 4 == 0 and fk % 12 == 0
            sub = math.factorial(k - 1)
            assert sub % 3 == 0 and sub % 2 == 0 and (sub // 2) % 3 == 0

    def test_layout_offsets(self):
        for k in range(5, 10):
            lay = BlockLayout.for_k(k)
            fk = math.factorial(k)
            assert (lay.start, lay.k * lay.string_len) == (fk, k * fk)
            assert lay.part_start(0) == fk
            assert lay.part_start(k - 1) + lay.string_len == math.factorial(k + 1)
            assert lay.run_start(0) == 2 * fk + fk // 4
            assert lay.encode_cell(0) == 3 * fk
            assert lay.tracking_start(1) == 4 * fk
            # 2k windows tile each tracking string exactly
            assert 2 * k * lay.window == lay.string_len
            with pytest.raises(ValueError):
                lay.tracking_start(k - 2)


# tracked codes: periodic and rational, each reading both 0 and 1 at the separation sources
_TRACKED = [CodeStream.periodic("0", "10100"), code_of_rational(xr(7, 3))]


class TestInlinedBlockArithmetic:
    """The runs and the schedule read each block's fields as integers; they are
    held to the same arithmetic through BlockLayout's methods (conftest)."""

    def test_factorial_floor_at_each_factorial(self):
        # k! - 1 for k = 3 is below the domain n >= 3!: held to the definition only
        for k in range(3, 41):
            fk = math.factorial(k)
            for n in (fk - 1, fk, fk + 1):
                want = k if n >= fk else k - 1
                assert _factorial_floor(n) == want, n
                if n >= 6:
                    assert _factorial_floor_by_loop(n) == want, n
        n = 10 ** 300
        k = _factorial_floor(n)
        assert math.factorial(k) <= n < math.factorial(k + 1)
        assert k == _factorial_floor_by_loop(n) == 166

    @pytest.mark.parametrize("beta", ["0110", "1"])
    def test_runs_at_every_segment_boundary(self, beta):
        # within 2 of every string, cell, run and window boundary for k = 5..10
        pairs = [(mu_code(beta), _mu_code_by_layout(beta)),
                 (tau_code(beta, alpha_transitive(), _TRACKED),
                  _tau_code_by_layout(beta, alpha_transitive(), _TRACKED)),
                 (tau_code(beta, alpha_transitive(), _TRACKED[::-1]),
                  _tau_code_by_layout(beta, alpha_transitive(), _TRACKED[::-1]))]
        starts = sorted(_starts("tau", 0))
        for stream, ref in pairs:
            for n in starts:
                assert stream.run_at(n) == ref.run_at(n), (stream.label, n)
        # both separation shapes occur: each tracked code reads 1 at some source, 0 at another
        for k in range(6, 11):
            lay = BlockLayout.for_k(k)
            for i in (1, 2):
                assert {_TRACKED[i - 1][lay.separation_source(i, j)]
                        for j in range(1, k + 1)} == {0, 1}, (k, i)

    @settings(max_examples=40, deadline=None)
    @given(betas, st.integers(0, math.factorial(11) - 1))
    def test_runs_at_drawn_indices(self, beta, n):
        assert mu_code(beta).run_at(n) == _mu_code_by_layout(beta).run_at(n)
        assert (tau_code(beta, alpha_transitive(), _TRACKED).run_at(n)
                == _tau_code_by_layout(beta, alpha_transitive(), _TRACKED).run_at(n))

    def test_schedule_on_a_grid(self):
        grid = [("theorem1", dict(shift=sh, diff_indices=d)) for sh in (0, 1, 3)
                for d in ((), (0,), (1, 3), (0, 7), (5, 5))]
        grid += [("theorem2", dict(shift=sh, diff_index=d)) for sh in (0, 1, 2, 26, 27, 400)
                 for d in (None, 0, 2, 8)]
        grid += [("theorem2_tracked", dict(track_index=i, x_code=x))
                 for i in range(1, 8) for x in _TRACKED]
        grid += [("rational_vs_tau", dict(escape=e, eps=eps))
                 for e in (0, 1, 2, 3, 5, 299, 300, 301, 14999, 10 ** 5, 10 ** 6)
                 for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 1000), Fraction(3))]

        def events_or_error(schedule, kind, k_range, params):
            try:
                return schedule(kind, k_range, **params)
            except ValueError as exc:
                return str(exc)

        empty = 0
        for lo in range(5, 10):
            for hi in range(lo, 10):
                for kind, params in grid:
                    got = events_or_error(schedule_events, kind, (lo, hi), params)
                    want = events_or_error(_schedule_events_by_layout, kind, (lo, hi), params)
                    assert got == want, (kind, lo, hi, params)
                    empty += isinstance(got, str)
        assert 0 < empty < 200  # the grid reaches empty schedules too, but mostly not


class TestScheduleEvents:
    def test_theorem1_indices(self):
        ev = schedule_events("theorem1", (6, 6), shift=1)
        assert [(e.kind, e.index) for e in ev] == [("close", 722), ("far", 721)]
        ev = schedule_events("theorem1", (6, 6), diff_indices=[0])
        assert ("far", 1441) in [(e.kind, e.index) for e in ev]

    def test_theorem1_skips_cells_beyond_block(self):
        ev = schedule_events("theorem1", (5, 5), diff_indices=[0, 7])
        far = [e for e in ev if e.kind == "far"]
        assert [e.index for e in far] == [241]  # m = 7 needs k >= 9

    def test_theorem2_run_event(self):
        ev = schedule_events("theorem2", (6, 6), shift=1)
        far = [e for e in ev if e.kind == "far"]
        assert far[0].index == 2 * 720 + 180 - 1
        assert far[0].prefix_cap == 180 - 1 - 3

    def test_rational_events_alignment(self):
        ev = schedule_events("rational_vs_tau", (6, 6), escape=1)
        assert all(e.kind in ("close", "far") for e in ev)
        closes = [e for e in ev if e.kind == "close"]
        assert len(closes) == 2  # one finite match per finite cycle point

    def test_rational_close_needs_enough_run_length(self):
        # at k = 5 the separation runs only pin the point to within ~1/20,
        # so no close event at the default 1/100 tolerance is scheduled
        ev = schedule_events("rational_vs_tau", (5, 5), escape=1)
        assert not [e for e in ev if e.kind == "close"]
        loose = schedule_events("rational_vs_tau", (5, 5), escape=1,
                                eps=Fraction(1, 10))
        assert [e for e in loose if e.kind == "close"]

    def test_k_range_guard(self):
        with pytest.raises(ValueError):
            schedule_events("theorem1", (5, 12))
        with pytest.raises(ValueError):
            schedule_events("theorem1", (4, 6))

    def test_reversed_k_range_is_rejected(self):
        # a reversed range scheduled no events, and a report of no
        # events passes
        with pytest.raises(ValueError, match="k_range"):
            schedule_events("theorem1", (7, 5), diff_indices=[0])
        with pytest.raises(ValueError, match="k_range"):
            schedule_events("rational_vs_tau", (9, 5), escape=3)
        tau = tau_code("0110", alpha_transitive(), [code_of_rational(ONE)])
        with pytest.raises(ValueError, match="k_range"):
            rational_vs_tau(xr(7, 3), tau, (9, 5))

    def test_empty_schedule_is_rejected(self):
        # the escape time of 1/10000, 14999, lies past every run of block 5,
        # and blocks 5 and 6 track fewer than four targets
        with pytest.raises(ValueError, match="no rational_vs_tau events"):
            schedule_events("rational_vs_tau", (5, 5), escape=escape_time(xr(1, 10000)))
        with pytest.raises(ValueError, match="no theorem2_tracked events"):
            schedule_events("theorem2_tracked", (5, 6), track_index=4,
                            x_code=code_of_rational(ONE))

    @pytest.mark.parametrize("kind, params, name", [
        ("theorem1", dict(diff_index=0), "diff_index"),  # would lose the beta-cell events
        ("theorem2", dict(shfit=1), "shfit"),  # would lose the inf-run far event
        ("theorem2_tracked", dict(track_index=1, x_code=code_of_rational(ONE), shift=1),
         "shift"),
        ("rational_vs_tau", dict(escape=1, diff_indices=[0]), "diff_indices"),
    ])
    def test_foreign_param_is_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match="schedule kind '%s' takes no param '%s'"
                           % (kind, name)):
            schedule_events(kind, (5, 5), **params)

    @pytest.mark.parametrize("kind, params, name", [
        ("theorem2_tracked", dict(x_code=code_of_rational(ONE)), "track_index"),
        ("theorem2_tracked", dict(track_index=1), "x_code"),
        ("rational_vs_tau", dict(eps=Fraction(1, 10)), "escape"),
    ])
    def test_missing_required_param_is_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match="schedule kind '%s' needs the param '%s'"
                           % (kind, name)):
            schedule_events(kind, (5, 5), **params)

    @pytest.mark.parametrize("kind, params, name", [
        ("theorem1", dict(shift=-3), "shift"),  # gave the close-only unshifted schedule
        ("theorem2", dict(shift=-3), "shift"),
        ("theorem1", dict(diff_indices=[0, -1]), "diff_indices"),  # the head cell, 121
        ("theorem2", dict(diff_index=-1), "diff_index"),  # index 336, in the separation string
        ("theorem2_tracked", dict(track_index=0, x_code=code_of_rational(ONE)), "track_index"),
        ("rational_vs_tau", dict(escape=-5), "escape"),  # phases of no orbit
    ])
    def test_out_of_range_param_is_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match="schedule param '%s' must be >= " % name):
            schedule_events(kind, (5, 9), **params)

    @pytest.mark.parametrize("kind, params, name", [
        ("theorem1", dict(shift=1.7), "shift"),  # int() read it as 1
        ("theorem2", dict(shift=-0.5), "shift"),  # int() read it as 0
        ("theorem1", dict(diff_indices=[0, 1.0]), "diff_indices"),
        ("theorem2", dict(diff_index=1.5), "diff_index"),  # a far event at index 396.0
        ("theorem2_tracked", dict(track_index=1.0, x_code=code_of_rational(ONE)),
         "track_index"),
        ("rational_vs_tau", dict(escape=Fraction(3)), "escape"),
    ])
    def test_non_integer_param_is_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match="schedule param '%s' must be an integer" % name):
            schedule_events(kind, (5, 9), **params)

    @pytest.mark.parametrize("x_code", [
        "1" * 2000,  # read as characters, never == 1: every window as if the code read 0
        "10",  # a bare IndexError
    ])
    def test_x_code_that_is_not_a_stream_is_rejected(self, x_code):
        with pytest.raises(ValueError, match="schedule param 'x_code' must be a CodeStream"):
            schedule_events("theorem2_tracked", (5, 5), track_index=1, x_code=x_code)

    @pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 100)])
    def test_nonpositive_eps_is_rejected(self, eps):
        # eps = -1 dropped every close event and left block 5's five far ones
        with pytest.raises(ValueError, match="eps must be positive"):
            schedule_events("rational_vs_tau", (5, 5), escape=1, eps=eps)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind 'theorem3'"):
            schedule_events("theorem3", (5, 5))

    def test_rational_phases_match_the_name_tables(self):
        # escapes of every residue mod 3, before, inside and after block 5's runs
        for eps in (Fraction(1, 100), Fraction(1, 10)):
            for e in [0, 1, 2, 3, 4, 5, 299, 300, 301] + list(range(500, 10 ** 5, 997)):
                ref = rational_events_by_name_tables(e, eps, 5, 9)
                assert schedule_events("rational_vs_tau", (5, 9), escape=e, eps=eps) == ref, e


def rational_events_by_name_tables(e: int, eps: Fraction, lo: int, hi: int) -> list:
    """The rational_vs_tau schedule as it read before the word-to-phase map:
    one name table for the rational's cycle and one of rotations for the runs."""
    cycle = ("zero", "inf", "one")
    rotations = (("inf", "one", "zero"), ("one", "zero", "inf"), ("zero", "inf", "one"))
    events = []
    for k in range(lo, hi + 1):
        lay = _layout(k)
        reps = lay.quarter // 3
        for which, limits in enumerate(rotations):
            run = lay.run_start(which)
            for t in range(3):
                n = run + t
                if n < e:
                    continue
                r_ph, lim = cycle[(n - e) % 3], limits[t]
                tag = "phase k=%d run@%d t=%d (%s vs %s)" % (lay.k, run, t, r_ph, lim)
                if r_ph == lim and r_ph in ("zero", "one"):
                    if 8 * eps.denominator < 14 * reps * eps.numerator:
                        events.append(ScheduleEvent("close", n, tag))
                elif r_ph == "inf":
                    events.append(ScheduleEvent("far", n, tag))
                elif lim == "inf":
                    events.append(ScheduleEvent("far", n, tag, prefix_cap=lay.quarter - t - 3))
    return events


def _record_enclosures(monkeypatch):
    """Record the (prefix cap, goal numerator, goal denominator) of each
    scrambled._enclose call."""
    calls = []

    def recording(stream, k, cap, num, den):
        calls.append((cap, num, den))
        return _enclose(stream, k, cap, num, den)

    monkeypatch.setattr("fareyshift.scrambled._enclose", recording)
    return calls


class TestVerifyScrambling:
    def test_no_events_is_rejected(self):
        mu = mu_code("01")
        for events in ([], iter(())):
            with pytest.raises(ValueError, match="no events"):
                verify_scrambling(mu, mu, events)

    def test_identical_streams_trivially_close(self):
        mu = mu_code("0")
        ev = [e for e in schedule_events("theorem1", (5, 6)) if e.kind == "close"]
        rep = verify_scrambling(mu, mu, ev)
        assert rep.n_pass == len(ev) and rep.n_fail == 0

    def test_theorem1_pair_margins(self):
        s, t = mu_code("01"), mu_code("10")
        ev = schedule_events("theorem1", (5, 7), diff_indices=[0, 1])
        rep = verify_scrambling(s, t, ev, eps=Fraction(1, 100), m_big=Fraction(3, 2))
        assert rep.passed
        far_lowers = [o.lower for o in rep.outcomes if o.event.kind == "far"]
        assert all(lo > Fraction(3, 2) for lo in far_lowers)
        assert max(far_lowers) > Fraction(199, 100)  # margins approach 2
        assert rep.min_certified_distance < Fraction(1, 100)

    def test_theorem1_shifted_pair(self):
        s, t = mu_code("0011"), mu_code("0011")
        for i in (1, 2, 3):
            ev = schedule_events("theorem1", (5, 6), shift=i)
            rep = verify_scrambling(s, t.shifted(i), ev)
            assert rep.passed, i

    def test_theorem2_shifted_pair_unbounded(self):
        tracked = [code_of_rational(ONE)]
        s = tau_code("0110", alpha_transitive(), tracked)
        t = tau_code("1001", alpha_transitive(), tracked)
        ev = schedule_events("theorem2", (5, 7), shift=2)
        rep = verify_scrambling(s, t.shifted(2), ev, m_big=Fraction(1000))
        assert rep.passed
        for o in rep.outcomes:
            if o.event.kind == "far":
                assert o.upper == INFINITE_DISTANCE  # enclosure reaches infinity

    def test_theorem2_beta_separation(self):
        tracked = [code_of_rational(ONE)]
        s = tau_code("0110", alpha_transitive(), tracked)
        t = tau_code("1001", alpha_transitive(), tracked)
        ev = schedule_events("theorem2", (5, 7), diff_index=0)
        rep = verify_scrambling(s, t, ev, m_big=Fraction(1000))
        assert rep.passed

    def test_tracked_windows(self):
        tracked_code = CodeStream.periodic("", "00100")
        s = tau_code("01", alpha_transitive(), [tracked_code])
        ev = schedule_events("theorem2_tracked", (6, 6), track_index=1,
                             x_code=tracked_code)
        rep = verify_scrambling(tracked_code, s, ev, eps=Fraction(1, 100),
                                m_big=Fraction(1000))
        assert rep.n_fail == 0
        statuses = {o.event.kind: set() for o in rep.outcomes}
        for o in rep.outcomes:
            statuses[o.event.kind].add(o.status)
        assert "pass" in statuses["far"]
        assert "pass" in statuses["close"]

    @pytest.mark.parametrize("thresholds, name", [
        (dict(m_big=-1), "m_big"), (dict(m_big=0), "m_big"),
        (dict(eps=0), "eps"), (dict(eps=Fraction(-1, 100)), "eps"),
    ])
    def test_nonpositive_thresholds_rejected(self, thresholds, name, monkeypatch):
        # a far event between a point and itself passed with m_big = -1
        def no_enclosure(*args):
            raise AssertionError("enclosure computed before the check")

        monkeypatch.setattr("fareyshift.scrambled._enclose", no_enclosure)
        s = mu_code("01")
        with pytest.raises(ValueError, match=name):
            verify_scrambling(s, s, [ScheduleEvent("far", 200, "same point")], **thresholds)
        tau = tau_code("0110", alpha_transitive(), [code_of_rational(ONE)])
        with pytest.raises(ValueError, match=name):
            rational_vs_tau(ONE, tau, (5, 5), **thresholds)

    @pytest.mark.parametrize("event, budget", [
        (ScheduleEvent("far", 200, "cap 0", prefix_cap=0), 10 ** 5),
        (ScheduleEvent("close", 200, "cap -3", prefix_cap=-3), 10 ** 5),
        (ScheduleEvent("close", 200, "threshold 0", threshold=Fraction(0)), 10 ** 5),
        (ScheduleEvent("close", 200, "threshold -1/2", threshold=Fraction(-1, 2)), 10 ** 5),
        (ScheduleEvent("far", 200, "threshold 0", threshold=Fraction(0)), 10 ** 5),
        (ScheduleEvent("close", 200, "budget 0"), 0),
        (ScheduleEvent("far", 200, "budget -5"), -5),
    ], ids=["event%d" % i for i in range(5)] + ["budget0", "budget-5"])
    def test_nonpositive_event_cap_or_threshold_rejected(self, event, budget, monkeypatch):
        # a cap of 0 read as "no cap" let the enclosure run the whole budget,
        # a close threshold of 0 was enclosed at eps/8 but judged against 0,
        # and a budget of 0 or less reported every event inconclusive on [0, inf]
        def no_enclosure(*args):
            raise AssertionError("enclosure computed before the check")

        monkeypatch.setattr("fareyshift.scrambled._enclose", no_enclosure)
        monkeypatch.setattr("fareyshift.scrambled.schedule_events", lambda *a, **kw: [event])
        s = mu_code("01")
        match = "prefix_cap and threshold must be positive"
        with pytest.raises(ValueError,
                           match=match if budget > 0 else "prefix_len must be positive"):
            verify_scrambling(s, s, [event], prefix_len=budget)
        tau = tau_code("0110", alpha_transitive(), [code_of_rational(ONE)])
        with pytest.raises(ValueError,
                           match=match if budget > 0 else "prefix_budget must be positive"):
            rational_vs_tau(ONE, tau, (5, 5), prefix_budget=budget)

    def test_enclosure_rule(self, monkeypatch):
        # the verification's goal eps / 8 is formed once and its numerator and
        # denominator passed through as they are (the same int objects); an
        # event's own cap binds when smaller, and a close event's own
        # threshold sets the goal; both enclosures of an event share them.
        # A far event, or a close event whose opening runs differ (mu's zero
        # run against 010), makes two calls; a close event whose sides share
        # an opening run (mu's 121-symbol zero run, read for at most 99) makes one
        calls = _record_enclosures(monkeypatch)
        events = [ScheduleEvent(kind, 0, "x") for kind in ("close", "far")]
        events += [ScheduleEvent(kind, 0, "x", threshold=Fraction(1, 10), prefix_cap=1)
                   for kind in ("close", "far")]
        events.append(ScheduleEvent("far", 0, "x", prefix_cap=500))
        s = mu_code("01")
        for t, shared in ((CodeStream.periodic("", "010"), False), (s, True)):
            calls.clear()
            verify_scrambling(s, t, events, eps=Fraction(1, 100), prefix_len=99)
            per_event = iter(calls)
            rules = []
            for ev in events:
                rules.append(next(per_event))
                if ev.kind == "far" or not shared:
                    assert next(per_event) == rules[-1], (ev, shared)
            assert next(per_event, None) is None, shared
            _, num, den = rules[0]
            assert (num, den) == (1, 800)
            for kind, (_, own_num, own_den), capped in zip(("close", "far"), rules, rules[2:]):
                assert own_num is num and own_den is den
                assert capped == ((1, 1, 80) if kind == "close" else (1, num, den))
            assert rules[-1][0] == 99 and rules[-1][1] is num and rules[-1][2] is den

    def test_deeply_shifted_streams_are_labelled(self):
        # the label was formatted by one recursive call per shift, so about
        # a thousand shifts raised RecursionError wherever it was read
        ks = [i % 7 + 1 for i in range(5000)]
        s, t = CodeStream.periodic("01", "001"), mu_code("01")
        want = s.label
        for k in ks:
            s, t, want = s.shifted(k), t.shifted(k), "shift(%s,%d)" % (want, k)
        assert s.label == want and repr(s) == "CodeStream(%s)" % want
        assert mu_code(s).label == "mu(%s)" % want
        ev = schedule_events("theorem1", (5, 5))
        assert verify_scrambling(t, t, ev).pair == "%s vs %s" % (t.label, t.label)

    def test_report_json_round_trip(self):
        import json
        s, t = mu_code("01"), mu_code("10")
        ev = schedule_events("theorem1", (5, 5), diff_indices=[0])
        rep = verify_scrambling(s, t, ev)
        payload = json.dumps(rep.to_dict(), sort_keys=True)
        assert '"pass"' in payload and '"index"' in payload


@st.composite
def admissible_periodic(draw, max_pre_blocks=0):
    """An admissible periodic code: a preperiod of up to 5 symbols (repeated
    up to max_pre_blocks times, so it can outlast a block's first tracking
    window) and a period of 1 to 7, no "11" in pre + per + per."""
    words = [w for n in range(8) for w in admissible_words(n)]
    pre = draw(st.sampled_from(words[:20])) * draw(st.integers(1, max(1, max_pre_blocks)))
    per = draw(st.sampled_from(words[1:]))
    assume("11" not in pre + per + per)
    return CodeStream.periodic(pre, per)


# the verification's thresholds and budget: shallow and deep goals, small caps
verify_settings = st.tuples(
    st.sampled_from([Fraction(1, 100), Fraction(1, 7), Fraction(1, 10 ** 6)]),
    st.sampled_from([Fraction(3, 2), Fraction(1000)]),
    st.sampled_from([1, 2, 7, 40, 10 ** 5]))
k_ranges = st.sampled_from([(5, 5), (6, 6), (5, 6)])


def _assert_matches_both_sides(s, t, events, eps=Fraction(1, 100), m_big=Fraction(1000),
                               prefix_len=10 ** 5):
    """verify_scrambling's outcomes against the both-sides loop."""
    got = verify_scrambling(s, t, events, eps=eps, m_big=m_big, prefix_len=prefix_len)
    want = _verify_both_sides(s, t, events, eps, m_big, prefix_len)
    assert got.outcomes == want, (s, t, eps, prefix_len)
    return want


def _zeros_then(end, tail):
    """0 up to index end, then tail forever."""
    return CodeStream.segmented(lambda n: ("0", end) if n < end else (tail, None))


_ZEROS = CodeStream.periodic("", "0")
_USED_AT_40 = _enclose(_ZEROS, 40, 10 ** 5, 1, 800)[2]  # symbols to width 1/800 from 40


class TestShareRule:
    """A close event whose two sides open on one run for at least the symbols
    the first side's enclosure consumed is decided on that enclosure alone;
    every outcome equals the loop that encloses both sides of every event."""

    @settings(max_examples=100, deadline=None)
    @given(betas, betas, st.integers(0, 3), st.sets(st.integers(0, 4)), k_ranges, verify_settings)
    def test_theorem1_pairs(self, beta, other, shift, diffs, k_range, setting):
        events = schedule_events("theorem1", k_range, shift=shift, diff_indices=sorted(diffs))
        _assert_matches_both_sides(mu_code(beta), mu_code(other).shifted(shift), events, *setting)

    @settings(max_examples=100, deadline=None)
    @given(betas, betas, st.lists(admissible_periodic(), min_size=1, max_size=2),
           st.integers(0, 3), st.one_of(st.none(), st.integers(0, 6)), k_ranges, verify_settings)
    def test_theorem2_pairs(self, beta, other, tracked, shift, diff, k_range, setting):
        alpha = alpha_transitive()
        events = schedule_events("theorem2", k_range, shift=shift, diff_index=diff)
        _assert_matches_both_sides(tau_code(beta, alpha, tracked),
                                   tau_code(other, alpha, tracked).shifted(shift), events,
                                   *setting)

    @settings(max_examples=100, deadline=None)
    @given(betas, admissible_periodic(max_pre_blocks=1200), admissible_periodic(),
           st.sampled_from([1, 2]), k_ranges, verify_settings)
    def test_theorem2_tracked_pairs(self, beta, x_code, spare, i, k_range, setting):
        # t_offset = j - 1 on window j; a preperiod of up to 6000 symbols is
        # read in 64-symbol runs, which can end before the enclosure does
        if i > k_range[1] - 3:
            i = 1
        targets = [x_code, spare] if i == 1 else [spare, x_code]
        events = schedule_events("theorem2_tracked", k_range, track_index=i, x_code=x_code)
        assert any(ev.t_offset for ev in events)
        _assert_matches_both_sides(x_code, tau_code(beta, alpha_transitive(), targets), events,
                                   *setting)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["mu", "tau"]), betas, betas, verify_settings)
    def test_events_near_run_ends(self, data, family, beta, other, setting):
        # events from 24 symbols before a block, part, cell or window boundary
        # below 8! to 2 after it, t read up to 3 symbols further on: runs that
        # end before, at and after the symbols the first side's enclosure consumes
        if family == "mu":
            s, t = mu_code(beta), mu_code(other)
        else:
            alpha, tracked = alpha_transitive(), [data.draw(admissible_periodic())]
            s, t = tau_code(beta, alpha, tracked), tau_code(other, alpha, tracked)
        bounds = sorted(b for b in _boundaries(family) if b < math.factorial(8))
        drawn = data.draw(st.lists(st.tuples(st.sampled_from(bounds), st.integers(0, 3),
                                             st.sampled_from(["close", "far"])),
                                   min_size=1, max_size=3))
        events = [ScheduleEvent(kind, max(0, b + d), "drawn", t_offset=offset)
                  for b, offset, kind in drawn for d in range(-24, 3)]
        _assert_matches_both_sides(s, t, events, *setting)

    @pytest.mark.parametrize("s, t, ev, shared", [
        # t's zero run ends one symbol before the enclosure would, then 10...
        (_ZEROS, _zeros_then(40 + _USED_AT_40 - 1, "10"), ScheduleEvent("close", 40, "t short"),
         False),
        # the same run one symbol longer: t reads the same prefix
        (_ZEROS, _zeros_then(40 + _USED_AT_40, "10"), ScheduleEvent("close", 40, "t exact"), True),
        # the first side's zero run ends 3 symbols in, at index 1000
        (_zeros_then(1003, "10"), _ZEROS, ScheduleEvent("close", 1000, "s short"), False),
        # long runs of different words
        (_ZEROS, CodeStream.periodic("", "010"), ScheduleEvent("close", 5, "words differ"), False),
        # 010 at the event's index, its rotation 100 at index + t_offset
        (CodeStream.periodic("", "010"), CodeStream.periodic("", "010"),
         ScheduleEvent("close", 3, "offset", t_offset=1), False),
        # equal words, 010, read at different offsets of different periods
        (CodeStream.periodic("", "001"), CodeStream.periodic("", "010"),
         ScheduleEvent("close", 1, "offsets", t_offset=2), True),
        (CodeStream.periodic("1", "00"), CodeStream.periodic("", "00"),
         ScheduleEvent("close", 7, "offsets", t_offset=93), True),
        # a far event never shares
        (_ZEROS, _ZEROS, ScheduleEvent("far", 3, "far"), False),
    ])
    def test_hand_cases(self, s, t, ev, shared, monkeypatch):
        calls = _record_enclosures(monkeypatch)
        want = _assert_matches_both_sides(s, t, [ev], prefix_len=300)
        assert len(calls) == (1 if shared else 2), calls
        if ev.kind == "close" and not shared:  # one side's enclosure alone would decide wrongly
            e1 = _endpoints(*_enclose(s, ev.index, 300, 1, 800)[:2])
            assert _classify(ev, e1, e1, Fraction(1, 100), Fraction(1000)) != want[0]


def _record_streams(monkeypatch):
    """Record the stream of each scrambled._enclose call."""
    streams = []

    def recording(stream, k, cap, num, den):
        streams.append(stream)
        return _enclose(stream, k, cap, num, den)

    monkeypatch.setattr("fareyshift.scrambled._enclose", recording)
    return streams


def _first_side_walks(s, events, eps, prefix_len):
    """The walks verify_scrambling needs on its periodic first stream s: one per
    event inside the preperiod, and past it one per distinct key, (phase, goal)
    for a walk that met its goal and (phase, goal, cap) for one its cap stopped."""
    inside, keys = 0, set()
    for ev in events:
        cap = prefix_len if ev.prefix_cap is None else min(prefix_len, ev.prefix_cap)
        goal = Fraction(ev.threshold) / 8 if ev.kind == "close" and ev.threshold is not None \
            else Fraction(eps) / 8
        if ev.index < s._p:
            inside += 1
            continue
        ok = _enclose(s, ev.index, cap, goal.numerator, goal.denominator)[3]
        keys.add((ev.index % s._q, goal) + (() if ok else (cap,)))
    return inside + len(keys)


@st.composite
def periodic_first_streams(draw):
    """(pre, per, shift): a preperiod of 0 to 6000 symbols (a word of up to 6
    repeated), a period of 1 to 12, and a shift that lands inside the
    preperiod, at its end or past it; no "11" in pre + per + per."""
    words = [w for n in range(13) for w in admissible_words(n)]
    piece = draw(st.sampled_from([w for w in words if len(w) <= 6]))
    pre = piece * draw(st.one_of(st.integers(0, 3), st.integers(0, 6000 // max(1, len(piece)))))
    per = draw(st.sampled_from(words[1:]))
    assume("11" not in pre + per + per)
    shift = draw(st.one_of(st.just(0), st.integers(0, len(pre) + 2 * len(per))))
    return pre, per, shift


class TestPeriodicPhases:
    """Past its preperiod a periodic first stream is enclosed once per key
    (see scrambled._verify); every outcome equals the loop that encloses both
    sides of every event, and its walks number the distinct keys."""

    @staticmethod
    def _check(pre, per, shift, t, events, eps, m_big, prefix_len):
        s = CodeStream.periodic(pre, per).shifted(shift)
        t = CodeStream.periodic(pre, per).shifted(shift) if t is None else t
        with pytest.MonkeyPatch.context() as mp:  # undone after each drawn example
            streams = _record_streams(mp)
            _assert_matches_both_sides(s, t, events, eps, m_big, prefix_len)
        assert sum(x is s for x in streams) == _first_side_walks(s, events, eps, prefix_len)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), periodic_first_streams(), verify_settings)
    def test_drawn_periodic_first_streams(self, data, code, setting):
        # events inside and past the preperiod (of the shifted stream, its _p),
        # with phases that repeat; t reads the same symbols (close events
        # share) or another periodic code
        pre, per, shift = code
        p, q = max(0, len(pre) - shift), len(per)
        index = st.one_of(st.integers(0, p + 40), st.integers(p, p + 4 * q + 40))
        event = st.builds(ScheduleEvent, st.sampled_from(["close", "far"]), index,
                          st.just("drawn"),
                          st.sampled_from([None, None, Fraction(1, 3), Fraction(1, 10 ** 4)]),
                          st.one_of(st.none(), st.integers(1, 60)), st.integers(0, 3))
        events = data.draw(st.lists(event, min_size=1, max_size=12))
        t = data.draw(st.one_of(st.none(), admissible_periodic()))
        self._check(pre, per, shift, t, events, *setting)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), periodic_first_streams(),
           st.sampled_from([Fraction(1, 100), Fraction(1, 7)]))
    def test_met_and_cap_bound_walks_at_one_phase(self, data, code, eps):
        # at one phase, a close event at the cap c its walk meets the goal in
        # and far events at caps c - 1 and c - 2 (as the tracked schedule
        # makes them), and a close event with its own threshold (a second
        # goal), in any order: the cap-bound walks must not stand for the met one
        pre, per, shift = code
        p, q = max(0, len(pre) - shift), len(per)
        s = CodeStream.periodic(pre, per).shifted(shift)
        n = p + data.draw(st.integers(0, q - 1))
        _, _, c, ok = _enclose(s, n, 10 ** 5, eps.numerator, 8 * eps.denominator)
        if not ok:  # an unbounded enclosure (100 repeated: infinity) never meets the goal
            c = 40
        events = [ScheduleEvent("close", n, "met", prefix_cap=c)]
        events += [ScheduleEvent("far", n + m * q, "capped", prefix_cap=c - m, t_offset=m)
                   for m in (1, 2) if c - m >= 1]
        events.append(ScheduleEvent("close", n + 3 * q, "own goal", threshold=eps / 3))
        events = data.draw(st.permutations(events))
        self._check(pre, per, shift, None, events + events[:2], eps, Fraction(1000), 10 ** 5)

    @pytest.mark.parametrize("pre, per, indices", [
        ("0" * 30, "010", [0, 30, 3, 33]),  # phase 0 read inside and past the preperiod
        ("10" * 40, "00", [1, 81, 2, 80]),
        ("0" * 64 + "1", "0", [64, 65, 0, 66]),  # the preperiod's last symbol, then past it
    ], ids=["zeros-then-010", "10s-then-00", "last-symbol"])
    def test_events_inside_and_past_a_preperiod(self, pre, per, indices):
        events = [ScheduleEvent(kind, n, "hand") for n in indices for kind in ("close", "far")]
        self._check(pre, per, 0, None, events, Fraction(1, 100), Fraction(1000), 10 ** 5)

    def test_seed_1_tracked_walks(self, monkeypatch):
        # the scramble-verify bench pass at seed 1: its 33 theorem2-tracked
        # ops are the only ones with a periodic first stream, which was
        # enclosed at each of its 386 events and is now enclosed 176 times
        # (t, a tau stream, 193 times: the other close events share)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        work = workloads.ScrambleVerify(1)
        streams = _record_streams(monkeypatch)
        tracked = [op for op in work.ops if op[0] == "theorem2-tracked"]
        for op in tracked:
            work.run(op)
        assert len(tracked) == 33
        assert (len(streams), sum(x._cycle is not None for x in streams)) == (369, 176)


def iv(lo, hi):
    """FareyInterval from two (num, den) pairs; (1, 0) is infinity."""
    return FareyInterval(xr(*lo), xr(*hi))


def _distance_bounds_reference(e1, e2):
    """The Fraction-subtracting version of _distance_bounds."""
    if e1.hi < e2.lo:
        lower = INFINITE_DISTANCE if e2.lo.is_infinite else \
            e2.lo.as_fraction() - e1.hi.as_fraction()
    elif e2.hi < e1.lo:
        lower = INFINITE_DISTANCE if e1.lo.is_infinite else \
            e1.lo.as_fraction() - e2.hi.as_fraction()
    else:
        lower = Fraction(0)
    if not (e1.is_bounded and e2.is_bounded):
        upper = INFINITE_DISTANCE
    else:
        upper = max(e2.hi.as_fraction() - e1.lo.as_fraction(),
                    e1.hi.as_fraction() - e2.lo.as_fraction())
    return lower, upper


def _classify_reference(ev, e1, e2, eps, m_big):
    """The Fraction-comparing version of _classify, on the reference bounds."""
    lower, upper = _distance_bounds_reference(e1, e2)
    if ev.kind == "close":
        thr = eps if ev.threshold is None else ev.threshold
        status = "pass" if upper < thr else "fail" if lower >= thr else "inconclusive"
    else:
        thr = m_big if ev.threshold is None else ev.threshold
        if lower > thr or (lower > 0 and upper == INFINITE_DISTANCE):
            status = "pass"
        else:
            status = "fail" if upper <= thr else "inconclusive"
    return EventOutcome(ev, status, lower, upper)


def _assert_pair_is(pair, value):
    """pair (num, den) is the bound value: infinity exactly (1, 0), else
    den > 0 and num/den == value (the pair need not be in lowest terms)."""
    num, den = pair
    assert type(num) is int and type(den) is int, pair
    if value == INFINITE_DISTANCE:
        assert pair == (1, 0)
    else:
        assert den > 0 and num * value.denominator == value.numerator * den, (pair, value)


# the point intervals rational_vs_tau builds for its cycle phases
_POINT_INTERVALS = [FareyInterval(p, p) for p in (ZERO, ONE, INF)]
# every cylinder of length <= 5, then the three point intervals
_SHORT_ENCLOSURES = [cylinder(w) for n in range(1, 6) for w in admissible_words(n)] \
    + _POINT_INTERVALS
# admissible words as runs of "0" and "10" pieces, then maybe a final "1";
# those starting with 1 have unbounded cylinders
_words = st.builds(
    lambda pieces, tail: "".join(pieces) + tail,
    st.lists(st.sampled_from(["0", "10"]), max_size=20),
    st.sampled_from(["", "1"]),
).filter(bool)
_enclosures = st.one_of(_words.map(cylinder), st.sampled_from(_POINT_INTERVALS))
# a cylinder and one of its ancestors overlap; siblings share an endpoint
_nested = _words.flatmap(lambda w: st.tuples(
    st.just(cylinder(w)), st.integers(1, len(w)).map(lambda j: cylinder(w[:j]))))
_siblings = _words.filter(lambda w: w[-1] == "0").map(
    lambda w: (cylinder(w + "0"), cylinder(w + "1")))
_pairs = st.one_of(st.tuples(_enclosures, _enclosures), _nested, _siblings)


def _assert_bounds_match_reference(e1, e2):
    for a, b in ((e1, e2), (e2, e1)):
        got, want = _distance_bounds(_ends(a), _ends(b)), _distance_bounds_reference(a, b)
        assert len(got) == 2, (a, b)
        for pair, value in zip(got, want):
            _assert_pair_is(pair, value)


class TestDistanceBoundsReference:
    """Integer pairs against the Fraction reference, both orders."""

    def test_short_cylinders_and_points_exhaustive(self):
        for e1 in _SHORT_ENCLOSURES:
            for e2 in _SHORT_ENCLOSURES:
                _assert_bounds_match_reference(e1, e2)

    @settings(max_examples=300, deadline=None)
    @given(_pairs)
    def test_random_pairs(self, pair):
        _assert_bounds_match_reference(*pair)


class TestClassifyReference:
    """Statuses decided on integers against the Fraction-comparing reference.

    Among the short cylinders, upper == thr and lower == thr each occur
    at thr = 1/3 and 3/2 (about 50 ordered pairs apiece), so swapping a
    strict for a non-strict comparison in either rule changes some
    status here; 7/2 lies above every finite bound of those pairs.
    """

    EPS, M_BIG = Fraction(1, 100), Fraction(3, 2)
    # None: the verification's eps (close) or m_big (far)
    THRESHOLDS = (None, EPS, M_BIG, Fraction(1, 3), Fraction(7, 2))

    def _assert_matches_reference(self, e1, e2):
        for kind in ("close", "far"):
            for thr in self.THRESHOLDS:
                ev = ScheduleEvent(kind, 0, "hand-built", threshold=thr)
                for a, b in ((e1, e2), (e2, e1)):
                    got = _classify(ev, _ends(a), _ends(b), self.EPS, self.M_BIG)
                    want = _classify_reference(ev, a, b, self.EPS, self.M_BIG)
                    assert got == want, (kind, thr, a, b)
                    assert [type(v) for v in got] == [type(v) for v in want], (kind, thr, a, b)

    def test_short_cylinders_and_points_exhaustive(self):
        for e1 in _SHORT_ENCLOSURES:
            for e2 in _SHORT_ENCLOSURES:
                self._assert_matches_reference(e1, e2)

    @settings(max_examples=300, deadline=None)
    @given(_pairs)
    def test_random_pairs(self, pair):
        self._assert_matches_reference(*pair)


# admissible words of 40 to 800 symbols: cylinders thousands of bits deep
_deep_words = st.builds(
    lambda pieces, tail: "".join(pieces) + tail,
    st.lists(st.sampled_from(["0", "10", "100"]), min_size=40, max_size=400),
    st.sampled_from(["", "1"]),
)


class TestSharedWidth:
    """A close event whose two sides are one enclosure e is decided on e's
    width (_decide_shared): e's ends are a unimodular pair, so the distance
    lies in [0, 1/w], w = lo_den * hi_den, and in [0, inf] when w = 0."""

    EPS, M_BIG = Fraction(1, 100), Fraction(3, 2)

    def _check(self, word):
        e = _endpoints(_word_matrix(word), int(word[-1]))
        w = e[1] * e[3]
        assert _distance_bounds(e, e) == ((0, 1), (1, w)), (word, e)
        ref = FareyInterval(xr(e[0], e[1]), xr(e[2], e[3]))
        # the thresholds around the width 1/w, or on either side of every
        # finite bound when the enclosure is unbounded
        if w:
            thresholds = [Fraction(1, v) for v in (w + 1, w, w - 1) if v]
        else:
            thresholds = [Fraction(1, 10 ** 6), Fraction(10 ** 6)]
        for thr in thresholds:
            for ev in (ScheduleEvent("close", 0, "shared", threshold=thr),
                       ScheduleEvent("close", 0, "shared")):
                t = ev.threshold or self.EPS
                got = _decide_shared(ev, e, t.numerator, t.denominator)
                want = _classify_reference(ev, ref, ref, self.EPS, self.M_BIG)
                assert got == want, (word, thr)
                assert [type(v) for v in got] == [type(v) for v in want], (word, thr)
                assert got == _classify(ev, e, e, self.EPS, self.M_BIG), (word, thr)
        return w

    def test_admissible_words_to_14(self):
        widths = [self._check(w) for n in range(1, 15) for w in admissible_words(n)]
        assert 0 in widths and 1 in widths and max(widths) > 10 ** 4

    @settings(max_examples=200, deadline=None)
    @given(_deep_words)
    def test_deep_words(self, word):
        self._check(word)


class TestVerdictRules:
    """_classify and _distance_bounds on hand-built enclosures."""

    EPS, M_BIG = Fraction(1, 100), Fraction(3, 2)

    @pytest.mark.parametrize("kind, e1, e2, threshold, status", [
        # close: pass if upper < thr, fail if lower >= thr, else inconclusive
        ("close", iv((1, 2), (1, 2)), iv((1, 2), (101, 200)), None, "pass"),
        ("close", iv((0, 1), (0, 1)), iv((1, 1), (1, 1)), None, "fail"),
        ("close", iv((0, 1), (1, 1)), iv((1, 0), (1, 0)), None, "fail"),
        ("close", iv((0, 1), (0, 1)), iv((1, 100), (1, 100)), None, "fail"),
        ("close", iv((0, 1), (0, 1)), iv((0, 1), (1, 100)), None, "inconclusive"),
        ("close", iv((0, 1), (1, 1)), iv((0, 1), (1, 1)), None, "inconclusive"),
        ("close", iv((2, 1), (1, 0)), iv((2, 1), (1, 0)), None, "inconclusive"),
        ("close", iv((0, 1), (0, 1)), iv((1, 1), (1, 1)), Fraction(2), "pass"),
        # far: pass if lower > thr or (lower > 0 and exactly one side
        # unbounded), fail if upper <= thr, else inconclusive
        ("far", iv((0, 1), (1, 1)), iv((1, 0), (1, 0)), None, "pass"),
        ("far", iv((0, 1), (0, 1)), iv((2, 1), (2, 1)), None, "pass"),
        ("far", iv((0, 1), (1, 2)), iv((1, 1), (1, 0)), None, "pass"),
        ("far", iv((0, 1), (0, 1)), iv((1, 1), (1, 1)), None, "fail"),
        ("far", iv((0, 1), (0, 1)), iv((3, 2), (3, 2)), None, "fail"),
        ("far", iv((0, 1), (0, 1)), iv((1, 1), (2, 1)), None, "inconclusive"),
        ("far", iv((0, 1), (1, 1)), iv((1, 1), (1, 0)), None, "inconclusive"),
        ("far", iv((1, 1), (1, 0)), iv((2, 1), (1, 0)), None, "inconclusive"),
        ("far", iv((0, 1), (0, 1)), iv((2, 1), (2, 1)), Fraction(3), "fail"),
    ])
    def test_classify_table(self, kind, e1, e2, threshold, status):
        ev = ScheduleEvent(kind, 0, "hand-built", threshold=threshold)
        for a, b in ((e1, e2), (e2, e1)):
            assert _classify(ev, _ends(a), _ends(b), self.EPS, self.M_BIG).status == status

    @pytest.mark.parametrize("e1, e2, lower, upper", [
        (iv((0, 1), (1, 3)), iv((1, 2), (1, 1)), Fraction(1, 6), Fraction(1)),
        (iv((0, 1), (1, 1)), iv((1, 2), (2, 1)), Fraction(0), Fraction(2)),
        (iv((0, 1), (1, 1)), iv((1, 1), (3, 1)), Fraction(0), Fraction(3)),
        (iv((0, 1), (1, 1)), iv((2, 1), (1, 0)), Fraction(1), INFINITE_DISTANCE),
        (iv((0, 1), (1, 1)), iv((1, 0), (1, 0)), INFINITE_DISTANCE, INFINITE_DISTANCE),
        (iv((2, 1), (1, 0)), iv((3, 1), (1, 0)), Fraction(0), INFINITE_DISTANCE),
    ])
    def test_distance_bounds(self, e1, e2, lower, upper):
        for a, b in ((e1, e2), (e2, e1)):
            got = _distance_bounds(_ends(a), _ends(b))
            assert len(got) == 2
            _assert_pair_is(got[0], lower)
            _assert_pair_is(got[1], upper)

    def test_empty_report(self):
        rep = ScrambleReport("none", [])
        assert rep.max_certified_distance == Fraction(0)
        assert rep.min_certified_distance == INFINITE_DISTANCE
        assert (rep.n_pass, rep.n_fail, rep.n_inconclusive) == (0, 0, 0)
        assert rep.passed and rep.decided_fraction == 1.0
        assert rep.to_dict()["summary"]["max_certified_distance"] == "0/1"
        assert rep.to_dict()["summary"]["min_certified_distance"] == "inf"

    def test_report_extremes(self):
        ev = ScheduleEvent("far", 0, "hand-built")
        finite = _classify(ev, (0, 1, 0, 1), (2, 1, 2, 1), self.EPS, self.M_BIG)
        infinite = _classify(ev, (0, 1, 1, 1), (1, 0, 1, 0), self.EPS, self.M_BIG)
        rep = ScrambleReport("two", [finite, infinite])
        assert rep.max_certified_distance == INFINITE_DISTANCE
        assert rep.min_certified_distance == Fraction(2)
        assert rep.n_pass == 2
        assert rep.to_dict()["events"][1]["lower"] == "inf"


class TestRationalVsTau:
    def setup_method(self):
        tracked = [code_of_rational(ONE)]
        self.tau = tau_code("011010", alpha_transitive(), tracked)

    @pytest.mark.parametrize("r", ["1/1", "0/1", "3/5", "7/3"])
    def test_alignment_certified(self, r):
        rep = rational_vs_tau(xr(*map(int, r.split("/"))), self.tau, (5, 7))
        assert rep.n_fail == 0
        assert rep.decided_fraction >= 0.9
        kinds = {o.event.kind for o in rep.outcomes}
        assert kinds == {"close", "far"}
        assert rep.max_certified_distance == INFINITE_DISTANCE
        assert rep.min_certified_distance < Fraction(1, 100)

    def test_rejects_infinite_input(self):
        with pytest.raises(ValueError):
            rational_vs_tau(INF, self.tau, (5, 6))

    @pytest.mark.parametrize("r", ["1/200", "7/3", "0/1"])
    def test_events_follow_the_exact_orbit(self, r, monkeypatch):
        # every event comes after the escape (1/200 escapes at 299, past
        # the first runs of block 5), and the verdicts match those
        # decided on the orbit point phi_rat gives at the event index
        r = xr(*map(int, r.split("/")))
        e = escape_time(r)
        eps, m_big = Fraction(1, 100), Fraction(1000)
        calls = _record_enclosures(monkeypatch)
        rep = rational_vs_tau(r, self.tau, (5, 7), eps=eps, m_big=m_big)
        events = schedule_events("rational_vs_tau", (5, 7), escape=e, eps=eps)
        assert [o.event for o in rep.outcomes] == events
        assert events and min(ev.index for ev in events) >= e
        # one enclosure per event, the tau side's, at the budget or the
        # event's own cap when smaller, to eps / 8
        goal = eps / 8
        rules = [(10 ** 6 if ev.prefix_cap is None else min(10 ** 6, ev.prefix_cap),
                  goal.numerator, goal.denominator) for ev in events]
        assert calls == rules
        y, n = r, 0
        for o, (cap, _, _) in zip(rep.outcomes, rules):
            ev = o.event
            while n < ev.index:
                y, n = phi_rat(y), n + 1
            assert y == (ZERO, INF, ONE)[(ev.index - e) % 3]
            e2 = point_of_code(self.tau.shifted(ev.index), cap, goal)
            assert o == _classify(ev, _ends(FareyInterval(y, y)), _ends(e2.interval),
                                  eps, m_big)


class TestGMap:
    def test_node_values(self):
        assert g_map(Fraction(0)) == 1
        assert g_map(Fraction(1)) == Fraction(1, 2)
        assert g_map(Fraction(1, 2)) == 0
        assert g_map(Fraction(1, 6)) == Fraction(1, 3)
        assert g_map(Fraction(1, 3)) == Fraction(1, 6)

    def test_unique_fixed_point(self):
        assert g_map(Fraction(1, 4)) == Fraction(1, 4)

    def test_period_two_band(self):
        rng = random.Random(59)
        count = 0
        while count < 50:
            den = rng.randrange(13, 600)
            num = rng.randrange(1, den)
            x = Fraction(num, den)
            if not (Fraction(1, 6) < x < Fraction(1, 3)) or x == Fraction(1, 4):
                continue
            assert g_map(g_map(x)) == x
            assert g_map(x) != x
            count += 1

    def test_period_three_orbit(self):
        for start in (Fraction(0), Fraction(1, 2), Fraction(1)):
            x = start
            for _ in range(3):
                x = g_map(x)
            assert x == start

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            g_map(Fraction(-1, 2))
