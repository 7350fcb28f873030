import bisect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyshift.exact import INF, INFINITE_DISTANCE, ONE, ZERO, ExtendedRational
from fareyshift.coding import (
    CodeStream,
    FareyInterval,
    code_of_rational,
    cylinder,
    iter_admissible_words,
    phi_interval_image,
    point_of_code,
)
from fareyshift.scrambled import (
    BlockLayout,
    ScheduleEvent,
    ScrambleReport,
    _build_alpha_blocks,
    _classify,
    _distance_bounds,
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


# The per-index symbol functions the segment functions replaced, kept
# verbatim as the reference oracle.

_RUNS = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
_100 = (1, 0, 0)
_TAU_MAX_K = 16


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
    if k > _TAU_MAX_K:
        raise ValueError("index beyond the configured max block size k=%d" % _TAU_MAX_K)
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
            assert any(piece.contains_interval(enc) for piece in BOUND_UNION)

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


# Word and window builders with no library caller, kept as independent
# oracles for the stream layouts (tau_block_literal assembles tau blocks from them).

def enumerate_admissible(count: int) -> list[str]:
    """First `count` admissible words, length-lexicographic from length 5."""
    if count < 0:
        raise ValueError("negative count")
    gen = iter_admissible_words(5)
    return [next(gen) for _ in range(count)]


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
        zeros = CodeStream.zeros()
        assert c_block(zeros, 6, 11) == "000000"
        code = CodeStream.periodic("", "010")
        window = c_block(code, 6, 11)
        assert window == code.prefix(11)[6:11] + "0"
        assert len(window) == 6 and window.endswith("0")

    def test_c_star_block_two_shapes(self):
        zeros = CodeStream.zeros()
        assert c_star_block(zeros, 6, 14) == "100100100"
        ones_at_6 = CodeStream.procedural(lambda n: 1 if n == 6 else 0)
        assert c_star_block(ones_at_6, 6, 14) == "010010010"
        for code in (zeros, ones_at_6):
            assert c_star_block(code, 6, 14).endswith("0")

    def test_preconditions(self):
        zeros = CodeStream.zeros()
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


class TestTauCode:
    def setup_method(self):
        self.alpha = alpha_transitive()
        self.tracked = [code_of_rational(ONE), code_of_rational(xr(3, 5))]
        self.beta = CodeStream.periodic("", "0110")
        self.tau = tau_code(self.beta, self.alpha, self.tracked)

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
    return CodeStream.procedural(lambda n: _alpha_symbol_reference(blocks, n), label="alpha-ref")


def _reference_tau(beta, alpha, x_codes):
    beta = CodeStream.periodic("", beta) if isinstance(beta, str) else beta
    return CodeStream.procedural(
        lambda n: _tau_symbol_reference(beta, alpha, x_codes, n), label="tau-ref")


def _random_bits(seed):
    return CodeStream.procedural(
        lambda n: random.Random(seed * 1_000_003 + n).getrandbits(1), label="random")


# parameter streams: a recycled word or a random procedural stream
betas = st.one_of(st.text(alphabet="01", min_size=1, max_size=8),
                  st.integers(0, 2 ** 32).map(_random_bits))


@st.composite
def tracked_pairs(draw):
    """(code, its oracle): periodic, rational, plain procedural or segmented."""
    kind = draw(st.sampled_from(["periodic", "rational", "procedural", "segmented"]))
    if kind == "periodic":
        code = CodeStream.periodic(draw(st.text(alphabet="01", max_size=5)),
                                   draw(st.text(alphabet="01", min_size=1, max_size=7)))
    elif kind == "rational":
        code = code_of_rational(xr(draw(st.integers(0, 60)), draw(st.integers(1, 60))))
    elif kind == "procedural":
        mod = draw(st.integers(2, 9))
        res = draw(st.integers(0, mod - 1))
        code = CodeStream.procedural(lambda n: 1 if n % mod == res else 0)
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
        out.add(lay.start + lay.length)
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

    def test_index_past_the_last_block_raises_alike(self):
        tau = tau_code("0110", alpha_transitive(), [code_of_rational(ONE)])
        f17 = math.factorial(17)
        message = "index beyond the configured max block size k=16"
        for n in (f17, f17 + 5, math.factorial(18)):
            with pytest.raises(ValueError) as by_symbol:
                tau.symbol_at(n)
            with pytest.raises(ValueError) as by_enclosure:
                point_of_code(tau.shifted(n), 10, Fraction(1, 100))
            assert str(by_symbol.value) == str(by_enclosure.value) == message
        # an enclosure that walks into 17! raises there, as the symbols do
        assert tau[f17 - 1] in (0, 1)
        with pytest.raises(ValueError, match=message):
            point_of_code(tau.shifted(f17 - 3), 10, Fraction(1, 10 ** 9))


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
            assert (lay.start, lay.length) == (fk, k * fk)
            assert lay.part_start(0) == fk
            assert lay.part_start(k - 1) + lay.string_len == math.factorial(k + 1)
            assert lay.run_start(0) == 2 * fk + fk // 4
            assert lay.encode_cell(0) == 3 * fk
            assert lay.tracking_start(1) == 4 * fk
            # 2k windows tile each tracking string exactly
            assert 2 * k * lay.window == lay.string_len
            with pytest.raises(ValueError):
                lay.tracking_start(k - 2)


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


class TestVerifyScrambling:
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

        monkeypatch.setattr("fareyshift.scrambled.point_of_code", no_enclosure)
        s = mu_code("01")
        with pytest.raises(ValueError, match=name):
            verify_scrambling(s, s, [ScheduleEvent("far", 200, "same point")], **thresholds)
        tau = tau_code("0110", alpha_transitive(), [code_of_rational(ONE)])
        with pytest.raises(ValueError, match=name):
            rational_vs_tau(ONE, tau, (5, 5), **thresholds)

    def test_report_json_round_trip(self):
        import json
        s, t = mu_code("01"), mu_code("10")
        ev = schedule_events("theorem1", (5, 5), diff_indices=[0])
        rep = verify_scrambling(s, t, ev)
        payload = json.dumps(rep.to_dict(), sort_keys=True)
        assert '"pass"' in payload and '"index"' in payload


def iv(lo, hi):
    """FareyInterval from two (num, den) pairs; (1, 0) is infinity."""
    return FareyInterval(xr(*lo), xr(*hi))


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
            assert _classify(ev, a, b, self.EPS, self.M_BIG).status == status

    @pytest.mark.parametrize("e1, e2, lower, upper", [
        (iv((0, 1), (1, 3)), iv((1, 2), (1, 1)), Fraction(1, 6), Fraction(1)),
        (iv((0, 1), (1, 1)), iv((1, 2), (2, 1)), Fraction(0), Fraction(2)),
        (iv((0, 1), (1, 1)), iv((1, 1), (3, 1)), Fraction(0), Fraction(3)),
        (iv((0, 1), (1, 1)), iv((2, 1), (1, 0)), Fraction(1), INFINITE_DISTANCE),
        (iv((0, 1), (1, 1)), iv((1, 0), (1, 0)), INFINITE_DISTANCE, INFINITE_DISTANCE),
        (iv((2, 1), (1, 0)), iv((3, 1), (1, 0)), Fraction(0), INFINITE_DISTANCE),
    ])
    def test_distance_bounds(self, e1, e2, lower, upper):
        assert _distance_bounds(e1, e2) == (lower, upper)
        assert _distance_bounds(e2, e1) == (lower, upper)

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
        finite = _classify(ev, iv((0, 1), (0, 1)), iv((2, 1), (2, 1)), self.EPS, self.M_BIG)
        infinite = _classify(ev, iv((0, 1), (1, 1)), iv((1, 0), (1, 0)), self.EPS, self.M_BIG)
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
        rep = rational_vs_tau(ExtendedRational.parse(r), self.tau, (5, 7))
        assert rep.n_fail == 0
        assert rep.decided_fraction >= 0.9
        kinds = {o.event.kind for o in rep.outcomes}
        assert kinds == {"close", "far"}
        assert rep.max_certified_distance == INFINITE_DISTANCE
        assert rep.min_certified_distance < Fraction(1, 100)

    def test_rejects_infinite_input(self):
        with pytest.raises(ValueError):
            rational_vs_tau(INF, self.tau, (5, 6))


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
