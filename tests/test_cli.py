import argparse
import functools
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fareyshift
from fareyshift import cli, coding, conjugacy, entropy, scrambled
from fareyshift.cli import build_parser, main, parse_code, parse_krange, parse_point
from fareyshift.exact import ExtendedRational, QuadraticSurd


class TestParsers:
    def test_point_fraction_and_decimal(self):
        assert parse_point("3/5") == ExtendedRational(3, 5)
        assert parse_point("1/0") == ExtendedRational(1, 0)
        assert parse_point("0.75") == ExtendedRational(3, 4)

    def test_point_surd_both_syntaxes(self):
        expect = QuadraticSurd(-1, 1, 2, 5)
        assert parse_point("(-1+1*sqrt(5))/2") == expect
        assert parse_point("(−1+1√5)/2") == expect  # unicode minus and root

    @pytest.mark.parametrize("text, surd", [
        ("(1+sqrt(5))/2", (1, 1, 2, 5)),
        ("(1+√5)/2", (1, 1, 2, 5)),
        ("(−1+sqrt(5))/2", (-1, 1, 2, 5)),
        ("(3 - sqrt 7)/4", (3, -1, 4, 7)),
    ])
    def test_point_surd_without_coefficient(self, text, surd):
        # q's digits left out read as q = 1
        assert parse_point(text) == QuadraticSurd(*surd)

    @pytest.mark.parametrize("text", ["(1+*sqrt(5))/2", "(1+*√5)/2", "(1+3*√5)/2"])
    def test_point_star_without_coefficient_is_refused(self, text):
        with pytest.raises(ValueError, match="cannot parse point"):
            parse_point(text)

    def test_point_rational_surd_is_a_fraction(self):
        assert parse_point("(1+3*sqrt(4))/2") == ExtendedRational(7, 2)
        assert parse_point("(1+0*sqrt(5))/2") == ExtendedRational(1, 2)
        assert parse_point("(1+1*sqrt(4))/3") == ExtendedRational(1, 1)

    def test_code(self):
        s = parse_code("0(010)")
        assert s.prefix(7) == "0010010"
        with pytest.raises(Exception):
            parse_code("0102")

    def test_krange(self):
        # only the syntax: schedule_events decides which ranges it schedules
        assert parse_krange("5..7") == (5, 7)
        with pytest.raises(ValueError):
            parse_krange("5-7")


def _env_with_src():
    """The environment with this package's source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fareyshift.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# The CLI's pinned outputs: each argv exits 0 and its stdout has this SHA-256.
# This table is the one place a pin is written; CI runs this file against the
# installed package.  The first column names the test that runs the row, so
# each row keeps the test id it was recorded under; the notes say what each
# output was recorded from, and a change that alters one on purpose
# re-records it here.
PINS = [
    # recorded from the per-symbol stream implementation
    ("scramble", "scramble theorem1 --k-range 5..9 --seed 3",
     "b4da227ad479be0fd822f38d4ff37330af95476b91eb5c8025d23085887d7d8f"),
    ("scramble", "scramble theorem2 --shift 1 --k-range 5..9 --seed 3",
     "3febccd38f6e5bd274662961b5c1574574ce9e556316ec5f9ed317891bfd8c55"),
    ("scramble", "scramble theorem2 --k-range 5..9 --seed 3",
     "1e678a21445ff31cbcc704f43c833164256c8a5a2989243d2e070fba432bedba"),
    ("scramble", "scramble rational --rational 7/3 --k-range 5..9 --seed 3",
     "8fe9e53210826332850f6711debe5da289692c6300d0ee9d44c91115d78cf0e6"),
    # escape times 3 and 2, so with 7/3's (7) every residue mod 3 meets
    # the separation runs; recorded while the phases were looked up
    # through rotated strings
    ("scramble", "scramble rational --rational 2/1 --k-range 5..9 --seed 3",
     "6da5826dd8c21919f9c427eb5e2003e5fe605fa1f3ef494d4984ca81590e6429"),
    ("scramble", "scramble rational --rational 1/2 --k-range 5..9 --seed 3",
     "22bf0cd3241330a0d541dc47eed2a8e0a2568aa2ee59515f4213b545f55a2346"),
    # the far rule as it stands: the far events at k = 5, 6 and 7 pass on
    # lower bounds 305/18, 13805/118 and 670436/801, below m_big, because
    # their upper bound is infinite; recorded from the Fraction-comparing
    # _classify, so a change of that rule must re-record it
    ("scramble", "scramble theorem2 --shift 1 --k-range 5..9 --seed 1 --m-big 1000",
     "8539bcf97d77e6f7db7e02761f6865c2b3d1d46c5c10e74a1655aeccbb381edb"),
    # recorded from the Fraction-based kernels
    ("table", "conjugacy --level 12",
     "ccd03c81aa095fcb7e0772f0bb4228cc4c557a62a1eccc96846698a910a67aeb"),
    ("table", "farey --level 12 --report",
     "4a7beb7f28434b028b05817f72545d47b1d195eecc093dde6eb661d829ce6a20"),
    ("table", "entropy",
     "ced52f31a9c6f9af07ac0b700ae5d3f0c89d508b2b34f8ae2245a8d056f3b0ac"),
    ("table", "conjugacy --level 6 --phi-grid 8 --format table",
     "33c801f59d2f02e7c3d3198a4d754eb8b4f428d94467a50d1cbd31c734ffb7b9"),
    ("table", "farey --level 3",
     "c851cfadbae8a4f131e9ef4f3b9c1cb0ba90ce416483a86eee72ccaa06d571ff"),
    # recorded while the rows were formatted from ExtendedRational and
    # DyadicRational objects
    ("table", "conjugacy --level 9 --format json",
     "54c8f996ecaef369e75bb4e86a5acc99aa4d1a8426413f9d42c8d51c4d4e69c0"),
    ("table", "farey --level 10 --report --format table",
     "5dcae97567454b4184db1fce93bb211b24b92709f40b40ada2ceead2c44b2e91"),
    # recorded while farey_level built a level as ExtendedRational objects
    ("table", "farey --level 16 --report",
     "e717c6190a9cb896e75e3bd2b97f130cc67502ab0e238e0c80854e3e33956c1b"),
    ("table", "conjugacy --level 14",
     "a28994dfa5993271d51ac7632bfb6b5dbfa39d48ecb2634ab6991297fbab1888"),
    # recorded while a table was formatted row tuple by row tuple and
    # joined whole before it was written
    ("table", "farey --level 14 --format json",
     "d7c38193e76719fb4574fb341d7bbca0372adb944440c80de71d9cc467030b9f"),
    ("table", "conjugacy --level 11 --format table",
     "5db857c7e6918f1ab15846823b6e0b10bf68df60dcfd361ac901df856e450afc"),
    ("table", "iterate 7/3 --steps 40 --format csv",
     "8bf92c57dba899de0c00b73bf7527a5d4a68a1abf177eb894acd76e7cf511b8b"),
    ("table", "farey --level 18 --report",
     "9b9d68ac20957c699d01f10c3268442bb0b51b0379d93f2c383351ccf5194e3f"),
    # recorded from the merged-interval mixing walk, the hand-written surd
    # phi and the stepped rational orbit
    ("certificate", "mixing 10100100",
     "6a5800409e28b78a14b96f38bfe5d23aad8befe3e45120dc1aea93c6e02cbe92"),
    ("certificate", "periodic 0100100",
     "8c227259e2b04f007c0909468183cf8b993423a2f284831df19c538ff7797485"),
    ("certificate", "iterate (3+1*sqrt(1000003))/7 --steps 20",
     "810c09dc95e85864842208c5fcca78332a8115a52f245acd7b5c53ec97e2c134"),
    ("certificate", "scramble theorem1 --shift 2 --k-range 5..9 --seed 3",
     "7204e47926bd514ed399fb1f25209235629041d25475f96eba8fa6dc23ef3df3"),
    ("certificate", "scramble rational --rational 1/200 --k-range 5..7 --seed 3",
     "ad3323bcbebf41a97985418228f44811305dd0a9e23a1f9ab66d876fc2bba069"),
    # a deep periodic enclosure, recorded from per-symbol string reads
    ("certificate", "point 10(0100) --max-prefix 5000 --format json --precision 1/1" + "0" * 200,
     "4df505cfe9a5eee28e38a4994f953a33de1c73ea693a9966c9ed32e67903f261"),
    # an enclosure stopped by its prefix cap after 1666 whole periods,
    # recorded from the kernel that stepped the whole matrix per symbol
    ("certificate", "point 0(001) --precision 1/1000000000000 --max-prefix 5000 --format json",
     "4cb64ee5717e867046793f1612742dea96d6ba0e860e033d4a9496b98e2a3ec9"),
    # deep enclosures whose matrices (about 5000 bits) have det +1 and det -1,
    # so each order of the endpoints is printed; recorded while the order was
    # read off a cross-multiplication of the full-size entries
    ("certificate", "point 1(00101) --precision 1e-3000 --max-prefix 100000 --format json",
     "598755a484a58ea2f731d5f76c63a518eee2e08ffb9c2dfb98e1142beccf35fe"),
    ("certificate", "point (1000000) --precision 1e-3000 --max-prefix 100000 --format json",
     "491798dd087e7a6887fc7eac198e7ca29e0936e819d094016ae05519bf914e5d"),
    # a long surd itinerary read off the continued fraction, its 60-bit
    # prime radicand never factored
    ("certificate", "code (0+1*sqrt(1000000000000000003))/1 --length 100000",
     "d5b421f466e42652b17291a9bef573b9208f46b5edc3b2f5c8b769f9f825bb4c"),
    # a tracked rational whose escape word has 1.5 * 10^15 symbols, built as
    # its runs and never read (no theorem2 event reads a tracking window);
    # recorded when its code became those runs
    ("scramble", "scramble theorem2 --tracked 1000000000000000/1 --k-range 5..5",
     "e839e5ed8b49530a4b0203b5ef293b449c98e241e471a83d898afa375c29e0eb"),
    # recorded while the CLI kept its own g-map node list
    ("gdemo", "gdemo",
     "830a86bab57e17a043c0f82053030e2a06f80ca17889f7b4037b7040e44d0148"),
    # recorded while the estimates were dataclasses
    ("entropy-json", "entropy --depth 45 --lap-depth 16",
     "697247b44b003c8a57dc401f4c8f2ab29c87710d7536c5aaf216a2da3bbbe954"),
]


def _pins(test):
    """The (argv, digest) rows of PINS that the named test runs."""
    return [(argv, digest) for name, argv, digest in PINS if name == test]


def _assert_pinned(capsys, argv, digest):
    """Run argv in process: exit 0 and stdout with the pinned SHA-256; returns stdout."""
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    return out


class TestCommands:
    def test_iterate(self, capsys):
        code, out = run(capsys, "iterate", "3/5", "--steps", "5")
        assert code == 0
        assert "1/0" in out and "cycle" in out

    def test_iterate_surd_constant(self, capsys):
        code, out = run(capsys, "iterate", "(-1+1*sqrt(5))/2", "--steps", "3")
        assert code == 0
        assert out.count("(-1+1*sqrt(5))/2") == 4

    def test_iterate_json_rows(self, capsys):
        code, out = run(capsys, "iterate", "3/5", "--steps", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert all(set(row) == {"step", "value", "float", "orbit"} for row in rows)
        assert [row["value"] for row in rows] == ["3/5", "2/3", "1/2"]

    def test_code_word(self, capsys):
        code, out = run(capsys, "code", "1/1", "--length", "7")
        assert code == 0 and out.strip() == "0010010"

    def test_code_of_a_surd_without_coefficient(self, capsys):
        assert run(capsys, "code", "(1+sqrt(5))/2", "--length", "5") == \
            run(capsys, "code", "(1+1*sqrt(5))/2", "--length", "5") == (0, "10101\n")

    def test_interval(self, capsys):
        code, out = run(capsys, "interval", "0100")
        assert code == 0 and out.strip() == "0/1..1/3"

    def test_interval_rejects_bad_word(self, capsys):
        assert main(["interval", "0110"]) == 2

    def test_point(self, capsys):
        code, out = run(capsys, "point", "(0)", "--max-prefix", "32",
                        "--precision", "1/1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["width_goal_met"] is True
        num, den = payload["enclosure"].split("..")[0].split("/")
        assert int(den) != 0

    def test_point_of_a_periodic_code_at_a_width_goal(self, capsys):
        code, out = run(capsys, "point", "1(00100)", "--precision", "1/1000000000000",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["enclosure"], payload["prefix_used"]) == \
            ("5274724/1100899..6665999/1391275", 52)

    def test_point_past_the_int_string_limit(self, capsys):
        # the width's denominator has more digits than Python's default
        # int-to-str limit (4300), which would refuse to print it
        code, out = run(capsys, "point", "(01)", "--precision", "1e-5000",
                        "--max-prefix", "100000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        num, den = payload["width"].split("/")
        assert payload["width_goal_met"] and num == "1" and den.isdigit() and len(den) > 4300

    def test_conjugacy_all_rows_check(self, capsys):
        code, out = run(capsys, "conjugacy", "--level", "3", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1 + 9
        assert all(row.endswith("true") for row in rows[1:])

    def test_farey_report(self, capsys):
        code, out = run(capsys, "farey", "--level", "4", "--report")
        assert code == 0
        assert '"phi_fold": true' in out

    def test_entropy_agreement(self, capsys):
        code, out = run(capsys, "entropy", "--depth", "45", "--lap-depth", "16")
        assert code == 0
        payload = json.loads(out)
        assert payload["factorization_verified"] is True
        assert len(payload["estimates"]) == 4

    def test_mixing(self, capsys):
        code, out = run(capsys, "mixing", "00")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_cover"] == 2
        assert payload["steps"][-1] == ["0/1..1/0"]

    def test_periodic(self, capsys):
        code, out = run(capsys, "periodic", "0100")
        assert code == 0
        payload = json.loads(out)
        assert payload["period"] == 7
        assert payload["inside_cylinder"] is True

    def test_periodic_witness_past_the_float_range(self, capsys):
        # the witness of 0^800 has integers near 10^170 and a radicand past 10^308
        code, out = run(capsys, "periodic", "0" * 800)
        assert code == 0
        assert math.isclose(json.loads(out)["float"], (math.sqrt(5) - 1) / 2)

    def test_iterate_surd_past_the_float_range(self, capsys):
        code, out = run(capsys, "iterate", "(0+1*sqrt(%d))/1" % (10 ** 400 + 1), "--steps", "1",
                        "--format", "json")
        assert code == 0
        assert [row["float"] for row in json.loads(out)] == ["1e+200", "1"]

    @pytest.mark.parametrize("point, values, floats", [
        ("1e-400", ["1/1" + "0" * 400, "9" * 400 + "/1"], ["0", "inf"]),
        ("1e400", ["1" + "0" * 400 + "/1", "9" * 400 + "/1" + "0" * 400], ["inf", "1"]),
    ], ids=["1e-400", "1e400"])
    def test_iterate_rational_past_the_float_range(self, capsys, point, values, floats):
        # the orbit is exact; a float column past the range prints inf
        code, out = run(capsys, "iterate", point, "--steps", "1", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["value"] for row in rows] == values
        assert [row["float"] for row in rows] == floats

    def test_scramble_theorem1(self, capsys):
        code, out = run(capsys, "scramble", "theorem1", "--beta", "01", "--xi", "10",
                        "--k-range", "5..6")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["inconclusive"] == 0

    def test_scramble_rational(self, capsys):
        code, out = run(capsys, "scramble", "rational", "--rational", "1/1",
                        "--beta", "0110", "--k-range", "5..6",
                        "--m-big", "1000/1")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["max_certified_distance"] == "inf"

    def test_gdemo(self, capsys):
        code, out = run(capsys, "gdemo")
        assert code == 0
        payload = json.loads(out)
        assert all(payload.values())

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ("scramble", "theorem1", "--k-range", "5..5", "--seed", "9")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_usage_error_exit_code(self, capsys):
        assert main(["interval"]) == 2
        assert main(["nosuchcommand"]) == 2

    @pytest.mark.parametrize("argv", [
        "point (0) --max-prefix 0",
        "point (0) --precision 0",
        "scramble theorem1 --k-range 5..12",
        "scramble theorem1 --k-range 4..6",
        "scramble theorem1 --k-range 7..5",
        "farey --level 30",
        "farey --level 0 --report",  # a rejected level prints no table
        "conjugacy --level 30",
        "conjugacy --level -1",
        "entropy --lap-depth 40",
        "entropy --depth 0",
        "code 1/2 --length 0",
        "scramble theorem1 --beta 01 --xi 10 --k-range 5..5 --m-big -1",
        "scramble theorem1 --beta 01 --xi 10 --k-range 5..5 --m-big 0",
        "entropy --tol inf",
        "iterate 1/2 --steps -1",
        "conjugacy --phi-grid -1",
        # a fraction option is parsed inside the command, not by argparse
        "point (0) --precision 1/0",
        "point (0) --precision abc",
        "periodic 0100 --out /nonexistent/dir/x",
        "entropy --methods bogus",
        "scramble theorem1 --k-range 5-7",
        "iterate abc",
        "code (1+1*sqrt(2))/0",
        "interval 011",
        "mixing 011",
        "point (1001)",  # "11" across the seam between two periods
        "scramble theorem1 --beta 01 --xi 01",
        "scramble rational --rational 1/10000 --k-range 5..5 --seed 1",  # no events
        "scramble theorem1 --shift -1",
        # the rational options take the point syntax and refuse a surd
        "scramble rational --rational (1+1*sqrt(2))/3",
        "scramble rational --tracked (1+1*sqrt(2))/3",
        "scramble theorem2 --tracked (1+1*sqrt(2))/3",
        # an empty parameter word is refused, not swapped for random bits
        "scramble rational --beta= --k-range 5..6",
        "scramble theorem1 --xi= --k-range 5..6",
        "scramble theorem2 --eta= --k-range 5..6",
        "scramble theorem2 --beta= --eta= --k-range 5..6",
        # k = 5 schedules no close event for a rational, however long the
        # tracked rational's escape (1.5 * 10^15 symbols here)
        "scramble rational --tracked 1000000000000000/1 --k-range 5..5",
    ])
    def test_rejected_input_exit_code(self, capsys, argv):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, err", [
        ("scramble theorem1 --k-range 5-7", "error: k-range must look like 5..7; got '5-7'"),
        ("entropy --methods bogus", "error: unknown entropy method 'bogus'"),
        ("code (1+1*sqrt(2))/0", "error: bad surd '(1+1*sqrt(2))/0': zero denominator"),
        # the "11" sits across the seam between two periods, at indices 3 and 4
        ("point (1001)", "error: stream prefix contains '11' at index 4"),
        # refused by its own flag's name, before any stream is built
        ("scramble theorem1 --prefix-budget 0", "error: --prefix-budget must be positive; got 0"),
        ("scramble rational --prefix-budget -5",
         "error: --prefix-budget must be positive; got -5"),
        ("point (0) --max-prefix 0", "error: --max-prefix must be positive; got 0"),
        ("point (0) --max-prefix -3", "error: --max-prefix must be positive; got -3"),
        ("point (0) --precision 0", "error: --precision must be positive; got 0"),
        ("point (0) --precision=-1/3", "error: --precision must be positive; got -1/3"),
        ("scramble theorem1 --eps 0", "error: --eps must be positive; got 0"),
        ("scramble theorem1 --m-big -1", "error: --m-big must be positive; got -1"),
        # the flags are checked before the code is parsed
        ("point 0(1 --precision 0", "error: --precision must be positive; got 0"),
        # a tracked rational of any escape time is read; the schedule refuses
        ("scramble rational --tracked 1000000000000000/1 --k-range 5..5",
         "error: no close event in k-range 5..5, so the run cannot certify liminf = 0"),
    ])
    def test_rejected_input_message_is_verbatim(self, capsys, argv, err):
        # recorded while the CLI raised its own error type for these inputs
        assert main(argv.split()) == 2
        assert capsys.readouterr() == ("", err + "\n")

    @pytest.mark.parametrize("argv", [
        "entropy --depth 2",  # the routes disagree
        "entropy --methods lap-count --lap-depth 3",  # too far from log(golden ratio)
        "entropy --methods polynomial-root --tol 0.5",
    ])
    def test_entropy_off_target_exits_1(self, capsys, argv):
        assert main(argv.split()) == 1
        assert json.loads(capsys.readouterr().out)["factorization_verified"] is True

    @pytest.mark.parametrize("which", ["theorem1 --xi", "theorem2 --eta"])
    def test_scramble_words_of_unequal_length(self, capsys, which):
        # (01)^inf and (0110)^inf differ at cells 2 and 3 below k = 7, which
        # a symbol-by-symbol zip of the words stops short of
        code, out = run(capsys, "scramble", *which.split(), "0110", "--beta", "01",
                        "--k-range", "5..7")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert (summary["pass"], summary["fail"], summary["inconclusive"]) == \
            ((9, 0, 0) if which.startswith("theorem1") else (6, 0, 0))

    def test_scramble_rational_reads_the_point_syntax(self, capsys):
        # a surd with a square radicand is the fraction it equals, here 3/3
        argv = ("scramble", "rational", "--k-range", "5..7", "--rational")
        assert run(capsys, *argv, "(1+1*sqrt(4))/3") == run(capsys, *argv, "1/1")

    def test_gdemo_output_is_golden(self, capsys):
        [pin] = _pins("gdemo")
        _assert_pinned(capsys, *pin)

    @pytest.mark.parametrize("nodes", [
        # a node inside (1/6, 1/3): g is no longer affine on the band
        ((0, 1), (Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 5), Fraction(1, 5)),
         (Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 2), 0), (1, Fraction(1, 2))),
        # g(1/3) moved off 1/6: the ends are no longer swapped
        ((0, 1), (Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 5)),
         (Fraction(1, 2), 0), (1, Fraction(1, 2))),
    ], ids=["node-inside-band", "ends-not-swapped"])
    def test_gdemo_band_proof_fails_on_a_mutated_map(self, capsys, monkeypatch, nodes):
        nodes = tuple((Fraction(x), Fraction(y)) for x, y in nodes)
        monkeypatch.setattr(scrambled, "_G_NODES", nodes)  # the table g_map reads
        monkeypatch.setattr(cli, "_G_NODES", nodes)  # the table gdemo's proof reads
        code, out = run(capsys, "gdemo")
        assert code == 1
        assert json.loads(out)["period2_band"] is False

    def test_report_at_the_memory_guard_level(self, capsys, monkeypatch):
        # the report forms only the part of level n + 1 it reads, so the
        # largest level the guard allows has a report too
        monkeypatch.setattr(conjugacy, "_MAX_LEVEL", 6)
        assert main(["farey", "--level", "6", "--report"]) == 0
        assert '"phi_refine": true' in capsys.readouterr().out

    def test_farey_report_builds_one_level(self, capsys, monkeypatch):
        calls, build = [], conjugacy.farey_level

        def logged(n):
            calls.append(n)
            return build(n)

        monkeypatch.setattr(conjugacy, "farey_level", logged)
        monkeypatch.setattr(cli, "farey_level", logged)
        assert main(["farey", "--level", "8", "--report"]) == 0
        assert calls == [8]

    @pytest.mark.parametrize("argv", [
        *("%s --format json" % cmd for cmd in (
            "code 1/1", "interval 0100", "entropy", "mixing 00", "periodic 0100",
            "scramble theorem1", "gdemo")),
        *("%s --seed 3" % cmd for cmd in (
            "iterate 3/5", "code 1/1", "interval 0100", "point (0)", "conjugacy", "farey",
            "entropy", "mixing 00", "periodic 0100", "gdemo")),
        "gdemo --samples 5",
        "point (0) --format csv",
        # each scramble family takes only the flags it reads
        "scramble theorem1 --eta 111",
        "scramble theorem1 --tracked 3/5",
        "scramble theorem1 --rational 9/2",
        "scramble rational --shift 2",
        "scramble theorem2 --xi 1",
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        # --format only where the output has formats, --seed only on
        # scramble, which draws missing parameter words, family flags
        # only on their family;
        # argparse rejects the rest as usage errors
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err or "invalid choice" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, kind", [
        ("scramble theorem1 --beta 00000001 --xi 00000000 --k-range 5..8", "far"),
        ("scramble rational --rational 7/3 --k-range 5..5 --seed 1", "close"),
        ("scramble theorem2 --shift 40 --k-range 5..5 --seed 1", "far"),
    ])
    def test_scramble_without_both_event_kinds_is_rejected(self, capsys, argv, kind):
        # a scramble verdict needs a close event (liminf = 0) and a far
        # event (limsup > 0); a run that lacks either prints no report
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: no %s event in k-range " % kind)

    def test_inconclusive_exit_code(self, capsys):
        # a tiny prefix budget leaves the far enclosures undecided
        code = main(["scramble", "theorem2", "--beta", "0110", "--eta", "1001",
                     "--shift", "2", "--k-range", "5..6", "--prefix-budget", "4"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["inconclusive"] > 0
        assert payload["summary"]["fail"] == 0

    @staticmethod
    def _read_one_line_and_close(*argv):
        """Exit code and stderr of the CLI when its reader leaves after one line."""
        proc = subprocess.Popen([sys.executable, "-m", "fareyshift", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_env_with_src())
        assert proc.stdout.readline() == b"fraction,h,x_float,y_float,check\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), err

    def test_closed_pipe_exits_141_quietly(self):
        # level 12 writes far more than a pipe buffer holds, so the reader
        # closing after one line always meets the writer mid-output
        assert self._read_one_line_and_close("conjugacy", "--level", "12") == (141, b"")

    def test_closed_pipe_across_chunks_exits_141_quietly(self):
        # level 16's table spans several write chunks
        assert (1 << 16) + 2 > 2 * cli._CHUNK_LINES
        assert self._read_one_line_and_close("conjugacy", "--level", "16") == (141, b"")

    def test_huge_prime_radicand_exits_promptly(self):
        # the radicand is a 60-bit prime: building the surd must not factor it
        proc = subprocess.run([sys.executable, "-m", "fareyshift", "iterate",
                               "(0+1*sqrt(1000000000000000003))/1", "--steps", "1"],
                              capture_output=True, env=_env_with_src(), timeout=30)
        assert proc.returncode == 0

    def test_emitted_fractions_round_trip(self, capsys):
        code, out = run(capsys, "interval", "1000")
        lo, hi = out.strip().split("..")
        assert parse_point(lo) == ExtendedRational(2)
        assert parse_point(hi) == ExtendedRational(3)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "cert.json"
        code = main(["mixing", "0", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["n_cover"] == 1

    @pytest.mark.parametrize("argv, digest", _pins("scramble"))
    def test_seeded_scramble_output_is_golden(self, capsys, argv, digest):
        _assert_pinned(capsys, argv, digest)

    @pytest.mark.parametrize("argv, digest", _pins("table"))
    def test_conjugacy_and_entropy_output_is_golden(self, capsys, argv, digest):
        _assert_pinned(capsys, argv, digest)

    @pytest.mark.parametrize("argv, digest", _pins("certificate"))
    def test_certificate_orbit_and_schedule_output_is_golden(self, capsys, argv, digest):
        _assert_pinned(capsys, argv, digest)

    def test_zero_counts_stay_valid(self, capsys):
        for argv in ("iterate 1/2 --steps 0", "conjugacy --level 1 --phi-grid 0"):
            assert main(argv.split()) == 0, argv
            assert capsys.readouterr().err == ""


class TestSharedParser:
    """main() reuses one parser per process; no call may leak into the next."""

    SEQUENCE = [
        ["scramble", "theorem1", "--beta", "01", "--xi", "10", "--k-range", "5..6",
         "--seed", "3"],
        ["scramble", "theorem1", "--xi", "10", "--k-range", "5..6", "--seed", "3"],
        ["interval"],
        ["entropy", "--lap-depth", "40"],
        ["--version"],
        ["point", "0(010)", "--max-prefix", "64", "--precision", "1/1000",
         "--format", "json"],
        ["farey", "--level", "4", "--report"],
        ["entropy", "--lap-depth", "12"],
        ["code", "1/1", "--length", "7"],
        ["code", "1/2", "--length=5"],  # read by argparse, not the table
        ["scramble", "theorem1", "--beta", "01", "--xi", "10", "--k-range", "5..6",
         "--seed", "3"],
    ]

    def test_in_process_equals_fresh_process(self, capsys, monkeypatch):
        # argparse wraps usage lines at the terminal width; pin it for both runs
        monkeypatch.setenv("COLUMNS", "80")
        env = _env_with_src()
        for argv in self.SEQUENCE:
            code = main(list(argv))
            got = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "fareyshift", *argv],
                                   capture_output=True, text=True, env=env)
            assert (got.out, got.err, code) == \
                (fresh.stdout, fresh.stderr, fresh.returncode), argv

    def test_no_mutable_defaults(self):
        def parsers(ap):
            yield ap
            for action in ap._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from parsers(sub)

        for ap in parsers(build_parser()):
            defaults = [a.default for a in ap._actions] + list(ap._defaults.values())
            assert not any(isinstance(d, (list, dict, set)) for d in defaults), ap.prog


def test_cold_import_skips_dataclasses_and_inspect():
    # the records are collections.namedtuple subclasses, so importing the CLI
    # loads none of these modules (the stdlib modules the CLI imports load none)
    proc = subprocess.run([sys.executable, "-S", "-c",
                           "import sys, fareyshift.cli; "
                           "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"],
                          capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("record, fields", [
    (coding.PointEnclosure, ("interval", "prefix_len", "width_ok")),
    (conjugacy.FareyLevel, ("n", "nums", "dens")),
    (conjugacy.IdentityResult, ("holds", "checked", "counterexample")),
    (conjugacy.FareyPropertyReport,
     ("n", "reciprocal", "unit_sum", "phi_fold", "phi_refine", "index_note")),
    (entropy.EntropyEstimate, ("method", "value", "rate", "depth", "error_bound")),
    (entropy.MixingCertificate, ("word", "steps", "n_cover")),
    (entropy.TransitivityReport, ("word_len", "stride", "horizon", "found")),
    (scrambled.BlockLayout, ("k", "start", "string_len", "quarter", "encode_sub", "window")),
    (scrambled.ScheduleEvent, ("kind", "index", "source", "threshold", "prefix_cap", "t_offset")),
    (scrambled.EventOutcome, ("event", "status", "lower", "upper")),
    (scrambled.ScrambleReport, ("pair", "outcomes")),
])
def test_result_records_keep_their_fields_and_refuse_assignment(record, fields):
    assert record._fields == fields
    rec = record(*range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_entropy_json_from_named_tuples_is_golden(capsys):
    [pin] = _pins("entropy-json")
    out = _assert_pinned(capsys, *pin)
    assert all(list(e) == ["depth", "error_bound", "method", "rate", "value"]
               for e in json.loads(out)["estimates"])


def test_pins_are_stated_once():
    # every SHA-256 under tests/ is a PINS row's and written once; CI's
    # workflow states none, as it runs this file against the installed package
    argvs = [argv for _, argv, _ in PINS]
    assert len(set(argvs)) == len(argvs)
    digest = re.compile(r"(?<![0-9a-f])[0-9a-f]{64}(?![0-9a-f])")
    root = Path(__file__).resolve().parents[1]
    workflow = root / ".github" / "workflows" / "tests.yml"
    assert digest.findall(workflow.read_text(encoding="utf-8")) == []
    written = [d for path in sorted((root / "tests").glob("*.py"))
               for d in digest.findall(path.read_text(encoding="utf-8"))]
    assert sorted(written) == sorted(d for _, _, d in PINS)
    assert len(set(written)) == len(written)


def _level_h_by_index(n):
    """Reference: h of node i is i/2^n in lowest terms, i over its lowest set bit."""
    full = 1 << n  # stands in for the lowest set bit of i = 0, printed as 0/2^0
    return ["%d/2^%d" % (i // (low := i & -i or full), n + 1 - low.bit_length())
            for i in range(full + 1)]


def _emit_by_print(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _emit_rows_by_tuples(rows, header, fmt, out_path):
    """Reference: every row tuple and cell string held, the text joined whole."""
    if fmt == "json":
        _emit_by_print(json.dumps([dict(zip(header, row)) for row in rows], indent=2,
                                  sort_keys=True), out_path)
    elif fmt == "csv":
        _emit_by_print("\n".join([",".join(header), *[",".join(map(str, row)) for row in rows]]),
                       out_path)
    else:
        cells = [[str(c) for c in row] for row in rows]
        widths = [max(map(len, column)) for column in zip(header, *cells)]
        _emit_by_print("\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths))
                                 for row in [header, *cells]), out_path)


class TestStreamedTables:
    @pytest.mark.parametrize("n", range(17))
    def test_interleaved_level_h_matches_the_index_formula(self, n):
        assert cli._level_h(n) == _level_h_by_index(n)

    @staticmethod
    def _random_rows(rng, count, width):
        cell = lambda: rng.choice([
            rng.randrange(-10 ** 6, 10 ** 6), "", "1/0", "x" * rng.randrange(12),
            "%d/2^%d" % (rng.randrange(99), rng.randrange(20)), "%.12g" % rng.random(),
            'quote " and \\ back', "é√"])
        return [tuple(cell() for _ in range(width)) for _ in range(count)]

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("count", [
        0, 1, 2, 17,
        # lines (header and rows; json: rows) one short of, at and one past a write chunk
        cli._CHUNK_LINES - 2, cli._CHUNK_LINES - 1, cli._CHUNK_LINES, cli._CHUNK_LINES + 1])
    def test_emit_rows_matches_the_row_tuple_reference(self, tmp_path, capsys, fmt, count):
        rng = random.Random(count * 7 + len(fmt))
        header = tuple("col%d" % j for j in range(rng.randrange(1, 6)))
        rows = self._random_rows(rng, count, len(header))
        _emit_rows_by_tuples(rows, header, fmt, None)
        expect = capsys.readouterr().out
        cli._emit_rows(iter(rows), header, fmt, None)  # a one-pass iterator
        assert capsys.readouterr().out == expect
        cli._emit_rows(iter(rows), header, fmt, str(tmp_path / "rows"))
        assert (tmp_path / "rows").read_text(encoding="utf-8") == expect

    def test_csv_emission_peaks_below_its_text(self, tmp_path):
        # holding every row tuple, cell string and the joined text took 3.0
        # times the text written
        n = 1 << 17
        rows = (("%d/%d" % (i, i + 1), "%d/2^17" % i, "%.12g" % (i / 7), "%.12g" % (i / n),
                 "true") for i in range(n + 1))
        target = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            cli._emit_rows(rows, ("fraction", "h", "x_float", "y_float", "check"), "csv",
                           str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert size > 5 * 10 ** 6
        assert peak < size, (peak, size)


# every command and output form, with small inputs
_EVERY_FORM = [
    *("iterate 7/3 --steps 12 --format %s" % f for f in ("json", "csv", "table")),
    "iterate (3+1*sqrt(1000003))/7 --steps 4",
    "code 1/1 --length 7",
    "interval 0100",
    *("point 0(010) --format %s" % f for f in ("json", "table")),
    "point 0(001) --max-prefix 5 --format table",  # the width-goal note
    *("conjugacy --level 5 --phi-grid 4 --format %s" % f for f in ("json", "csv", "table")),
    *("farey --level 5 --format %s" % f for f in ("json", "csv", "table")),
    "farey --level 4 --report",
    "entropy --depth 30 --lap-depth 10",
    "mixing 0100",
    "periodic 0100",
    "scramble theorem1 --beta 01 --xi 10 --k-range 5..6",
    "scramble theorem2 --k-range 5..6 --seed 3",
    "scramble rational --rational 7/3 --k-range 5..6 --seed 3",
    "gdemo",
]


@pytest.mark.parametrize("argv", _EVERY_FORM)
def test_out_file_holds_what_stdout_prints(tmp_path, capsys, argv):
    code, printed = run(capsys, *argv.split())
    target = tmp_path / "out"
    code_with_out, rest = run(capsys, *argv.split(), "--out", str(target))
    written = target.read_text(encoding="utf-8")
    assert (code_with_out, written + rest) == (code, printed)
    # farey --report prints its identity summary to stdout even with --out
    assert written and (rest == "") == ("--report" not in argv)


def _outcome(capsys, parse, argv):
    """(namespace without "command", stdout, stderr, exit code) of one parse."""
    try:
        ns, code = vars(parse(argv)), None
        ns.pop("command", None)
    except SystemExit as exc:
        ns, code = None, exc.code
    return (ns, *capsys.readouterr(), code)


@pytest.mark.parametrize("argv", [
    "point (0) --bogus 3", "periodic 010 010", "scramble rational --shift 1",
    "point (0) --version", "point (0) -h", "", "--version", "bogus",
    # and the accepted forms, each command's own options included
    "interval 0100", "point 0(010) --max-prefix 64 --precision 1/1000 --format json",
    "conjugacy --level 5 --phi-grid 2 --format table", "farey --lev 3 --rep",
    "scramble theorem2 --beta 01 --shift 2 --k-range 5..6", "scramble", "interval",
    "-h", "gdemo --out x", "code -- 1/1",
    # the README's command lines
    "iterate 3/5 --steps 5", "iterate (-1+1*sqrt(5))/2 --steps 3", "code 1/1 --length 7",
    "point 0(010) --max-prefix 64 --precision 1/1000", "conjugacy --level 8 --format csv",
    "farey --level 6 --report", "entropy --depth 50 --lap-depth 18", "mixing 00",
    "periodic 0100", "scramble theorem1 --beta 01 --xi 10 --k-range 5..7",
    "scramble rational --rational 7/3 --beta 0110 --k-range 5..7", "gdemo",
    # the bench's forms
    "conjugacy --level 3 --out x", "farey --level 3 --report --out x", "mixing 0100 --out x",
    "periodic 0100 --out x", "entropy --lap-depth 8 --out x", "interval 0100 --out x",
    "code 3/7 --length 10 --out x", "iterate 3/7 --steps 5 --format csv --out x",
    "point 0(01) --precision 1/1000 --max-prefix 5000 --format json --out x",
    # a choice not in the list, "-"-leading values, a flag before a token
    "point (0) --format csv", "point (0) --precision -h", "scramble theorem1 --beta --seed",
    "scramble theorem1 --shift -1", "code 1/2 --tie-high 7", "farey --level 3 --report 4",
])
def test_one_parse_matches_the_top_level_parse(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    argv = argv.split()
    assert _outcome(capsys, cli._parse_args, argv) == \
        _outcome(capsys, build_parser().parse_args, argv)


def _tables():
    """(leading words, arguments) of each command and each scramble family."""
    for name, (_, _, args) in cli._COMMANDS.items():
        if name == "scramble":
            yield from (([name, which], flags) for which, (_, flags) in args.items())
        else:
            yield [name], args


def _values(kw, refused):
    """Values an option takes, or ones it refuses: not in its choices, not of
    its type, or read by argparse as an option or a negative number."""
    if refused:
        own = ["xml", "JSON"] if "choices" in kw else ["3.5", "x", "0x10"] if "type" in kw else []
        return st.sampled_from(own + ["-1", "-h", "--out"])
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    return st.sampled_from({int: ["0", "3", "12", " 7", "1_0"], float: ["1e-6", "0.5", "inf"]}
                           .get(kw.get("type"), ["1/3", "01", "", "5..6", "(0)"]))


@st.composite
def _argv(draw):
    """A plain command line of one command or family, in about half the draws
    perturbed by one or two tokens the table does not read (among them, where
    the command has choices, a value outside them)."""
    lead, args = draw(st.sampled_from(list(_tables())))
    options = [a for a in args if a.startswith("-")]
    positional = st.sampled_from(["0100", "1/2", "0(010)", ""]).map(lambda v: [v])

    def option(refused):
        # refused, a store_true flag is followed by a token it must not take
        return st.sampled_from(options).flatmap(
            lambda a: (st.just([a, "7"] if refused else [a]) if "action" in args[a]
                       else _values(args[a], refused).map(lambda v: [a, v])))

    groups = draw(st.lists(option(False), max_size=5))
    groups += [draw(positional) for a in args if not a.startswith("-")]
    chosen = [a for a in options if "choices" in args[a]]
    # one branch per value outside an option's choices, so that together they
    # weigh against the other perturbations (one_of merges equal branches)
    refused_choice = [st.sampled_from(chosen).map(lambda a, v=v: [a, v])
                      for v in ("xml", "JSON", "tsv")] if chosen else []
    perturbation = st.one_of(
        option(True), positional, st.sampled_from(options).map(lambda a: [a]),
        st.sampled_from(options).flatmap(lambda a: st.sampled_from(
            [[a[:-1], "3"], [a[:4]], [a + "=3"], [a + "="]])),  # prefixes and "=" forms
        st.sampled_from([["--"], ["-h"], ["--bogus"], ["--version"], ["-"], ["-1/2"]]),
        *refused_choice)
    groups += draw(st.one_of(st.just([]), st.lists(perturbation, min_size=1, max_size=2)))
    tokens = [t for group in draw(st.permutations(groups)) for t in group]
    if tokens and draw(st.integers(0, 9)) == 0:  # a token left out
        tokens.pop(draw(st.integers(0, len(tokens) - 1)))
    # in one draw in ten, scramble's family left out
    return lead[:draw(st.sampled_from([len(lead)] * 9 + [1]))] + tokens


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_plain_parse_matches_argparse(capsys, monkeypatch, argv):
    # the table's reading of a plain command line and argparse's of any argv
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    assert _outcome(capsys, cli._parse_args, argv) == \
        _outcome(capsys, build_parser().parse_args, argv)


# a plain command line for each command and family, every option given
PLAIN = [
    "iterate 7/3 --steps 3 --format csv --steps 4", "code 1/2 --length 5 --tie-high",
    "interval 0100", "point 0(010) --max-prefix 64 --precision 1/1000 --format json",
    "conjugacy --level 3 --phi-grid 2 --format table", "farey --report --level 3 --format json",
    "entropy --methods lap-count,spectral --depth 20 --lap-depth 8 --tol 0.001", "mixing 00",
    "periodic 0100", "gdemo",
    "scramble theorem1 --beta 01 --xi 10 --shift 0 --k-range 5..6 --eps 1/100 --m-big 3/2 "
    "--prefix-budget 1000 --seed 3",
    "scramble theorem2 --beta 01 --eta 0110 --shift 1 --tracked 1/1 --k-range 5..6 --seed 3",
    "scramble rational --rational 7/3 --tracked 1/1 --beta 0110 --k-range 5..6",
]


def _fresh_parsers(monkeypatch, init):
    """Route every ArgumentParser built from here on through init, with
    nothing cached, so any parse that needs a parser builds one."""
    monkeypatch.setattr(cli, "_parsers", functools.cache(cli._parsers.__wrapped__))
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)


@pytest.mark.parametrize("argv", PLAIN)
def test_a_plain_command_line_builds_no_parser(capsys, monkeypatch, argv):
    argv = argv.split()
    args = build_parser().parse_args(argv)
    want = (args.func(args), *capsys.readouterr())

    def refuse(self, *a, **kw):
        raise AssertionError("an ArgumentParser was built")

    _fresh_parsers(monkeypatch, refuse)
    assert (main(argv), *capsys.readouterr()) == want


FAREY_3 = """\
index,fraction,h
0,0/1,0/2^0
1,1/3,1/2^3
2,1/2,1/2^2
3,2/3,3/2^3
4,1/1,1/2^1
5,3/2,5/2^3
6,2/1,3/2^2
7,3/1,7/2^3
8,1/0,1/2^0
{
  "n": 3,
  "note": "fold identity checked on indices 2^(n-1)+i, 0 <= i <= 2^(n-1); the nominal window \
2^n+i exceeds the level's index range",
  "phi_fold": true,
  "phi_refine": true,
  "reciprocal": true,
  "unit_sum": true
}
"""


@pytest.mark.parametrize("argv, out", [
    ("farey --lev 3 --rep", FAREY_3),  # abbreviations
    ("code 1/2 --length=5", "00010\n"),
    ("point (0) -h", None),  # the point parser's help, at this Python's argparse
])
def test_other_command_lines_reach_argparse(capsys, monkeypatch, argv, out):
    monkeypatch.setenv("COLUMNS", "80")
    if out is None:
        out = cli._parsers()[1]["point"].format_help()
        assert out.startswith("usage: fareyshift point [-h] [--max-prefix MAX_PREFIX]")
    built, init = [], argparse.ArgumentParser.__init__

    def record(self, *a, **kw):
        built.append(kw.get("prog"))
        init(self, *a, **kw)

    _fresh_parsers(monkeypatch, record)
    assert (main(argv.split()), *capsys.readouterr()) == (0, out, "")
    assert "fareyshift" in built
