import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import fareyshift
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

    def test_point_rational_surd_is_a_fraction(self):
        assert parse_point("(1+3*sqrt(4))/2") == ExtendedRational(7, 2)
        assert parse_point("(1+0*sqrt(5))/2") == ExtendedRational(1, 2)

    def test_code(self):
        s = parse_code("0(010)")
        assert s.prefix(7) == "0010010"
        with pytest.raises(Exception):
            parse_code("0102")

    def test_krange(self):
        assert parse_krange("5..7") == (5, 7)
        with pytest.raises(Exception):
            parse_krange("7..5")


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


class TestCommands:
    def test_iterate(self, capsys):
        code, out = run(capsys, "iterate", "3/5", "--steps", "5")
        assert code == 0
        assert "1/0" in out and "cycle" in out

    def test_iterate_surd_constant(self, capsys):
        code, out = run(capsys, "iterate", "(-1+1*sqrt(5))/2", "--steps", "3")
        assert code == 0
        assert out.count("(-1+1*sqrt(5))/2") == 4

    def test_code_word(self, capsys):
        code, out = run(capsys, "code", "1/1", "--length", "7")
        assert code == 0 and out.strip() == "0010010"

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
        "farey --level 30",
        "conjugacy --level 30",
        "conjugacy --level -1",
        "entropy --lap-depth 40",
        "entropy --depth 0",
        "code 1/2 --length 0",
        "scramble theorem1 --beta 01 --xi 10 --k-range 5..5 --m-big -1",
        "scramble theorem1 --beta 01 --xi 10 --k-range 5..5 --m-big 0",
    ])
    def test_rejected_input_exit_code(self, capsys, argv):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        *("%s --format json" % cmd for cmd in (
            "code 1/1", "interval 0100", "entropy", "mixing 00", "periodic 0100",
            "scramble theorem1", "gdemo")),
        *("%s --seed 3" % cmd for cmd in (
            "iterate 3/5", "code 1/1", "interval 0100", "point (0)", "conjugacy", "farey",
            "entropy", "mixing 00", "periodic 0100")),
        "point (0) --format csv",
        # each scramble family takes only the flags it reads
        "scramble theorem1 --eta 111",
        "scramble theorem1 --tracked 3/5",
        "scramble theorem1 --rational 9/2",
        "scramble rational --shift 2",
        "scramble theorem2 --xi 1",
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        # --format only where the output has formats, --seed only where
        # something is sampled, family flags only on their family;
        # argparse rejects the rest as usage errors
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err or "invalid choice" in captured.err
        assert "Traceback" not in captured.err

    def test_inconclusive_exit_code(self, capsys):
        # a tiny prefix budget leaves the far enclosures undecided
        code = main(["scramble", "theorem2", "--beta", "0110", "--eta", "1001",
                     "--shift", "2", "--k-range", "5..6", "--prefix-budget", "4"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["inconclusive"] > 0
        assert payload["summary"]["fail"] == 0

    def test_closed_pipe_exits_141_quietly(self):
        # level 12 writes far more than a pipe buffer holds, so the reader
        # closing after one line always meets the writer mid-output
        proc = subprocess.Popen([sys.executable, "-m", "fareyshift", "conjugacy",
                                 "--level", "12"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=_env_with_src())
        assert proc.stdout.readline() == b"fraction,h,x_float,y_float,check\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""

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

    @pytest.mark.parametrize("argv, digest", [
        ("scramble theorem1 --k-range 5..9 --seed 3",
         "b4da227ad479be0fd822f38d4ff37330af95476b91eb5c8025d23085887d7d8f"),
        ("scramble theorem2 --shift 1 --k-range 5..9 --seed 3",
         "3febccd38f6e5bd274662961b5c1574574ce9e556316ec5f9ed317891bfd8c55"),
        ("scramble theorem2 --k-range 5..9 --seed 3",
         "1e678a21445ff31cbcc704f43c833164256c8a5a2989243d2e070fba432bedba"),
        ("scramble rational --rational 7/3 --k-range 5..9 --seed 3",
         "8fe9e53210826332850f6711debe5da289692c6300d0ee9d44c91115d78cf0e6"),
    ])
    def test_seeded_scramble_output_is_golden(self, capsys, argv, digest):
        # SHA-256 of stdout recorded from the per-symbol stream implementation
        code, out = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
