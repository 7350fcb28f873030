"""Acceptance suite: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from fareyshift.exact import (
    INF,
    INFINITE_DISTANCE,
    ONE,
    ZERO,
    ExtendedRational,
    QuadraticSurd,
    escape_time,
    phi_rat,
    phi_surd,
)
from fareyshift.coding import (
    FULL_LINE,
    CodeStream,
    FareyInterval,
    admissible_words,
    code_of_rational,
    cylinder,
    periodic_point,
    phi_interval_image,
    point_of_code,
)
from fareyshift.conjugacy import conjugacy_check, farey_level, farey_properties_report
from fareyshift.entropy import (
    dense_periodic_witness,
    entropy_lap,
    entropy_polynomial_root,
    entropy_word_growth,
    mixing_certificate,
    transition_spectral_radius,
    transitivity_check,
    verify_cubic_factorization,
)
from fareyshift.scrambled import (
    alpha_transitive,
    g_map,
    mu_code,
    rational_vs_tau,
    schedule_events,
    tau_code,
    verify_scrambling,
)

LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def xr(n, d=1):
    return ExtendedRational(n, d)


def record(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPTANCE %2d %s: %s%s" % (num, status, label, suffix))
    assert ok, "criterion %d failed%s" % (num, suffix)


def test_criterion_01_paper_intervals():
    t0 = time.time()
    ok = (
        cylinder("0") == FareyInterval(ZERO, ONE)
        and cylinder("1") == FareyInterval(ONE, INF)
        and cylinder("00") == FareyInterval(xr(1, 2), ONE)
        and cylinder("01") == FareyInterval(ZERO, xr(1, 2))
        and cylinder("000") == FareyInterval(xr(1, 2), xr(2, 3))
        and cylinder("001") == FareyInterval(xr(2, 3), ONE)
        and cylinder("0100") == FareyInterval(ZERO, xr(1, 3))
        and cylinder("1000") == FareyInterval(xr(2), xr(3))
    )
    # merged union of the four bounded pieces
    pieces = sorted(
        [cylinder("000"), cylinder("001"), cylinder("0100"), cylinder("1000")],
        key=lambda iv: (iv.lo, iv.hi),
    )
    merged = [pieces[0]]
    for iv in pieces[1:]:
        if iv.lo <= merged[-1].hi:
            merged[-1] = FareyInterval(merged[-1].lo, max(merged[-1].hi, iv.hi))
        else:
            merged.append(iv)
    ok = ok and merged == [
        FareyInterval(ZERO, xr(1, 3)),
        FareyInterval(xr(1, 2), ONE),
        FareyInterval(xr(2), xr(3)),
    ]
    record(1, "cylinder intervals match the published values exactly", ok,
           "%.2fs" % (time.time() - t0))


def test_criterion_02_conjugacy_and_farey_identities():
    t0 = time.time()
    conj_ok = all(
        conjugacy_check(p, q) for n in range(0, 13) for p, q in zip(*farey_level(n)[1:])
    )
    prop_ok = all(farey_properties_report(farey_level(n)).all_pass for n in range(1, 13))
    record(2, "exact conjugacy and level identities through level 12",
           conj_ok and prop_ok, "%.2fs" % (time.time() - t0))


def test_criterion_03_entropy_estimators():
    t0 = time.time()
    root = entropy_polynomial_root(1e-12)
    growth = entropy_word_growth(40)
    spectral = transition_spectral_radius(60)
    lap_values = [entropy_lap(n).value for n in range(2, 21)]
    ok = (
        abs(root.value - LOG_GOLDEN) < 1e-6
        and abs(growth.value - LOG_GOLDEN) < 1e-6
        and abs(spectral.value - LOG_GOLDEN) < 1e-6
        and abs(lap_values[-1] - LOG_GOLDEN) < 2e-2
        and all(b < a for a, b in zip(lap_values, lap_values[1:]))
        and verify_cubic_factorization()
    )
    record(3, "four entropy routes agree on log((1+sqrt 5)/2)", ok,
           "%.2fs" % (time.time() - t0))


def test_criterion_04_mixing_exhaustive():
    t0 = time.time()
    ok = True
    for n in range(1, 9):
        for w in admissible_words(n):
            cert = mixing_certificate(w)
            ok &= cert.n_cover <= len(w) + 2
            ok &= cert.steps[-1] == [FULL_LINE]
            for cur, nxt in zip(cert.steps, cert.steps[1:]):
                pieces = []
                for iv in cur:
                    pieces.extend(phi_interval_image(iv))
                pieces.sort(key=lambda iv: (iv.lo, iv.hi))
                merged = [pieces[0]]
                for iv in pieces[1:]:
                    if iv.lo <= merged[-1].hi:
                        if iv.hi > merged[-1].hi:
                            merged[-1] = FareyInterval(merged[-1].lo, iv.hi)
                    else:
                        merged.append(iv)
                ok &= merged == nxt
            if not ok:
                break
    record(4, "covering certificates for every word to length 8", ok,
           "%.2fs" % (time.time() - t0))


def test_criterion_05_periodic_points():
    t0 = time.time()
    ok = (
        periodic_point("", "0") == QuadraticSurd(-1, 1, 2, 5)
        and periodic_point("1", "0") == QuadraticSurd(3, 1, 2, 5)
    )
    for n in range(1, 9):
        for w in admissible_words(n):
            x = dense_periodic_witness(w)  # validates membership and periodicity
            ok &= isinstance(x, QuadraticSurd) and x.q != 0 and x.d > 1
        if not ok:
            break
    record(5, "exact periodic points and irrational witnesses to length 8", ok,
           "%.2fs" % (time.time() - t0))


def test_criterion_06_bounded_family_events():
    t0 = time.time()
    rng = random.Random(2024)
    eps, m_big = Fraction(1, 100), Fraction(3, 2)
    ok = True
    far_min = None
    for _ in range(20):
        beta = "0" + "".join(rng.choice("01") for _ in range(15))
        xi = "1" + "".join(rng.choice("01") for _ in range(15))
        diffs = [m for m in range(6) if beta[m] != xi[m]]
        events = schedule_events("theorem1", (5, 7), diff_indices=diffs)
        rep = verify_scrambling(mu_code(beta), mu_code(xi), events,
                                eps=eps, m_big=m_big)
        ok &= rep.passed
        for o in rep.outcomes:
            if o.event.kind == "far":
                ok &= o.lower >= m_big
                far_min = o.lower if far_min is None else min(far_min, o.lower)
            else:
                ok &= o.upper < eps
    # boundedness: 100 random shifts stay inside the three-piece union
    union = (FareyInterval(ZERO, xr(1, 3)), FareyInterval(xr(1, 2), ONE),
             FareyInterval(xr(2), xr(3)))
    mu = mu_code("".join(rng.choice("01") for _ in range(16)))
    for _ in range(100):
        n = rng.randrange(0, math.factorial(8) + 1)
        enc = point_of_code(mu.shifted(n), 24, Fraction(1, 10 ** 6)).interval
        ok &= any(piece.lo <= enc.lo and enc.hi <= piece.hi for piece in union)
    record(6, "bounded-family far/close schedule and boundedness", ok,
           "%.2fs, weakest far margin %s" % (time.time() - t0, far_min))


def test_criterion_07_unbounded_family_events():
    t0 = time.time()
    rng = random.Random(4096)
    eps, m_big = Fraction(1, 100), Fraction(1000)
    alpha = alpha_transitive()
    tracked = [code_of_rational(ONE), code_of_rational(xr(3, 5))]
    total = fails = inconclusive = 0
    for pair in range(10):
        beta = "".join(rng.choice("01") for _ in range(16))
        eta = "".join(rng.choice("01") for _ in range(16))
        if beta[:5] == eta[:5]:
            eta = ("1" if beta[0] == "0" else "0") + eta[1:]
        s = tau_code(beta, alpha, tracked)
        t = tau_code(eta, alpha, tracked)
        for i in (0, 1, 2, 3):
            if i == 0:
                diff = next(m for m in range(5) if beta[m] != eta[m])
                events = schedule_events("theorem2", (5, 7), diff_index=diff)
                rep = verify_scrambling(s, t, events, eps=eps, m_big=m_big)
            else:
                events = schedule_events("theorem2", (5, 7), shift=i)
                rep = verify_scrambling(s, t.shifted(i), events, eps=eps, m_big=m_big)
            total += len(rep.outcomes)
            fails += rep.n_fail
            inconclusive += rep.n_inconclusive
    for r in (ONE, ZERO, xr(3, 5), xr(7, 3)):
        tau = tau_code("011010", alpha, tracked)
        rep = rational_vs_tau(r, tau, (5, 7), eps=eps, m_big=m_big)
        total += len(rep.outcomes)
        fails += rep.n_fail
        inconclusive += rep.n_inconclusive
    decided_fraction = 1.0 - inconclusive / total
    ok = fails == 0 and decided_fraction >= 0.9
    record(7, "unbounded-family far/close schedule and rational alignment", ok,
           "%.2fs, %d events, decided %.1f%%, inconclusive %d" %
           (time.time() - t0, total, 100 * decided_fraction, inconclusive))


def test_criterion_08_transitivity_proxy():
    t0 = time.time()
    alpha = alpha_transitive()
    # The scan below 10^6 is a finite-horizon measurement; what the
    # construction promises is coverage by H = 15! + 5, in closed form.
    # Words come in length-lexicographic order from length 5 and word i
    # sits at (i + 3)!, so the word of rank r among the 13 admissible
    # words of length 5 is written at (r + 3)!.  An admissible u with
    # |u| <= 4 that contains a 1 extends to u + 0^(5 - |u|), of some rank
    # r >= 1; u therefore occurs at (r + 3)!, a multiple of 2 and of 3,
    # before the end of the last length-5 word, 10101 at 15!.  Below 10^6
    # only the words up to 9! fit, and they put 101, 0101, 1001 and 1010
    # at single residue classes (101 only at 5042); the first
    # stride-compatible indices are 0101 at 10!, 1001 at 13!, and 101 and
    # 1010 at 14!.  Each word the scan misses is read back through the
    # stream at its certificate.
    fives = admissible_words(5)
    last = len(fives) - 1
    horizon = math.factorial(last + 3) + 5
    failures = []
    if alpha.shifted(horizon - 5).prefix(5) != fives[last]:
        failures.append("%s not at %d!" % (fives[last], last + 3))
    certified = []
    for word_len in (1, 2, 3, 4):
        for stride in (1, 2, 3):
            rep = transitivity_check(alpha, word_len, stride, 10 ** 6)
            for w in rep.missing:
                rank = fives.index(w + "0" * (5 - word_len))
                c = math.factorial(rank + 3)
                if (rank >= 1 and c % stride == 0 and c < horizon
                        and alpha.shifted(c).prefix(word_len) == w):
                    certified.append("wl=%d stride=%d %s@%d!=%d" %
                                     (word_len, stride, w, rank + 3, c))
                else:
                    failures.append("wl=%d stride=%d missing %s" %
                                    (word_len, stride, w))
    record(8, "transitive stream covers words at every stride residue",
           not failures,
           "%.2fs; certified past 10^6: %s%s" % (
               time.time() - t0, ", ".join(certified) or "none",
               ("; " + "; ".join(failures)) if failures else ""))


def test_criterion_09_counterexample_map():
    t0 = time.time()
    ok = (
        g_map(Fraction(0)) == 1
        and g_map(Fraction(1)) == Fraction(1, 2)
        and g_map(Fraction(1, 2)) == 0
        and g_map(Fraction(1, 6)) == Fraction(1, 3)
        and g_map(Fraction(1, 3)) == Fraction(1, 6)
        and g_map(Fraction(1, 4)) == Fraction(1, 4)
    )
    for start in (Fraction(0), Fraction(1, 2), Fraction(1)):
        x = start
        for _ in range(3):
            x = g_map(x)
        ok &= x == start
    rng = random.Random(77)
    count = 0
    while count < 50:
        den = rng.randrange(13, 1000)
        num = rng.randrange(den // 6, den // 3 + 1)
        x = Fraction(num, den)
        if not (Fraction(1, 6) < x < Fraction(1, 3)) or x == Fraction(1, 4):
            continue
        ok &= g_map(g_map(x)) == x
        count += 1
    record(9, "counterexample map nodes, fixed point and period-2 band", ok,
           "%.2fs" % (time.time() - t0))


def test_criterion_10_escape_times_exhaustive():
    t0 = time.time()
    ok = True
    checked = 0
    for q in range(1, 201):
        for p in range(1, 201):
            if math.gcd(p, q) != 1:
                continue
            x = xr(p, q)
            e = escape_time(x)
            y = x
            for _ in range(e):
                y = phi_rat(y)
            ok &= y == ZERO
            checked += 1
        if not ok:
            break
    record(10, "every small rational escapes to 0 in exact arithmetic", ok,
           "%.2fs, %d points" % (time.time() - t0, checked))
