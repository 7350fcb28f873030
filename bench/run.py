"""fareyshift benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's own src/.  A run is a closed loop from one caller: passes run
one after another, each in a fresh interpreter (bench/worker.py), and
each pass runs the workload's fixed op list back to back in one thread.
Passes repeat until S seconds have gone and, for an untraced run, at
least three passes are in; set-up-only passes then bring the set-ups
measured to at least nine.  The first pass checks every op's output;
later passes must reproduce its output digests.

--trace 0 reports the end-to-end metrics, --trace 1 alternates untraced
and traced passes and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it are the same
numbers for people, with units and sample counts.  A full record
(environment, every metric, digests) goes to bench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import MODULES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("enclose-deep", "scramble-verify", "conjugacy-cli")
MIN_PASSES = 3        # untraced passes per run, for the median of each op
MIN_SETUPS = 9        # set-ups per untraced run, for the setup_s median
PASS_TIMEOUT_S = 170  # one pass; a run must end within 180 s
DEADLINE_S = 150      # no new pass starts once a run has used this much

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Printed and recorded with the end-to-end metrics but not gated: both
# are 0 on workloads that behave, and failures are the result's own
# "failed"/"attempted" fields.
REPORTED = {"failed_ratio": "ratio", "undecided_ratio": "ratio"}

PER_LAYER = {
    "coding.point_of_code.calls": "count",
    "coding.point_of_code.self_s": "s",
    "coding.symbols_consumed": "count",
    "coding.symbols_per_s": "1/s",
    "coding.width_goal_met_ratio": "ratio",
    "coding.enclosure_den_bits_max": "bits",
    "coding.cylinder.self_s": "s",
    "coding.periodic_point.self_s": "s",
    "scrambled.symbol_lookups": "count",
    "scrambled.lookup_s": "s",
    "scrambled.schedule_events.self_s": "s",
    "scrambled.verify.self_s": "s",
    "scrambled.decided_ratio": "ratio",
    "scrambled.stream_build_s": "s",
    "conjugacy.farey_level.calls": "count",
    "conjugacy.farey_nodes_built": "count",
    "conjugacy.h_level.self_s": "s",
    "conjugacy.h_enclosure.self_s": "s",
    "conjugacy.h_rational.self_s": "s",
    "conjugacy.h_inverse.self_s": "s",
    "conjugacy.farey_properties_report.self_s": "s",
    "entropy.lap_count.self_s": "s",
    "entropy.mixing_certificate.self_s": "s",
    "entropy.dense_periodic_witness.self_s": "s",
    "exact.extended_rational.constructed": "count",
    "exact.phi_surd.self_s": "s",
    "exact.mobius_fixed_point.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    **{"%s.self_s" % m: "s" for m in MODULES},
    "trace_overhead_ratio": "ratio",
}


def run_pass(args, index: int, traced: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--out-dir", os.path.join(OUT, "tmp")]
    if setup_only:
        cmd.append("--setup-only")
    elif traced:
        cmd += ["--trace", "--spans", os.path.join(
            OUT, "spans", "%s-seed%d.tsv.gz" % (args.workload, args.seed))]
    if index == 0:
        cmd.append("--check")
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("pass %d exited with %d:\n%s" % (index, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args) -> list[tuple[bool, dict]]:
    start = time.monotonic()
    passes: list[tuple[bool, dict]] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.monotonic()
        passes.append((traced, run_pass(args, len(passes), traced)))
        now = time.monotonic()
        plain = [p for t, p in passes if not t]
        done = now - start >= args.seconds
        if args.trace:
            done = done and len(passes) >= 2
        elif not args.tiny:
            done = done and len(plain) >= MIN_PASSES
        if done or now - start + (now - began) > DEADLINE_S:
            return passes


def run_setups(args, passes) -> list[float]:
    """Set-up times of the untraced passes, topped up by set-up-only passes."""
    setups = [p["setup_s"] for t, p in passes if not t]
    while not args.tiny and len(setups) < MIN_SETUPS:
        setups.append(run_pass(args, -1, False, setup_only=True)["setup_s"])
    return setups


def tally(passes) -> dict:
    """Attempted and failed op runs; pass 0 is checked, later passes must match it."""
    first = passes[0][1]
    attempted = failed = 0
    for _, p in passes:
        bad = set(map(int, p["errors"]))
        bad |= set(map(int, p.get("problems", {})))
        bad |= {i for i, (a, b) in enumerate(zip(p["digests"], first["digests"])) if a != b}
        attempted += p["ops"]
        failed += len(bad)
    return {"attempted": attempted, "failed": failed}


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """Medians over the untraced passes.

    An op's latency is its median time over the passes.  wall_s is one
    pass with every op at that latency, which a burst of host load in one
    pass cannot move; the percentiles are taken over the ops (at least
    100 per pass, so p90 has ten beyond it).
    """
    plain = [p for t, p in passes if not t]
    op_ms = [statistics.median(p["op_s"][i] for p in plain) * 1e3
             for i in range(plain[0]["ops"])]
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    wall = sum(op_ms) / 1e3
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": plain[0]["ops"] / wall,
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
    }, {"ops": len(op_ms), "passes": len(plain), "set-ups": len(setups)}


def _layer_values(trace: dict) -> dict:
    self_s, incl, calls, c = trace["self_s"], trace["incl_s"], trace["calls"], trace["counters"]
    enclosures = calls.get("coding.point_of_code", 0)
    values = {
        "coding.point_of_code.calls": enclosures,
        "coding.symbols_consumed": c["coding.symbols_consumed"],
        "coding.symbols_per_s": c["coding.symbols_consumed"] / incl["coding.point_of_code"]
        if enclosures else 0.0,
        "coding.width_goal_met_ratio": c["coding.width_goal_met"] / enclosures
        if enclosures else 1.0,
        "coding.enclosure_den_bits_max": c["coding.enclosure_den_bits_max"],
        "scrambled.symbol_lookups": c["scrambled.symbol_lookups"],
        "scrambled.lookup_s": self_s.get("scrambled.lookup", 0.0),
        "scrambled.verify.self_s": self_s.get("scrambled.verify_scrambling", 0.0)
        + self_s.get("scrambled.rational_vs_tau", 0.0),
        "scrambled.decided_ratio": c["scrambled.events_decided"] / c["scrambled.events"]
        if c["scrambled.events"] else 1.0,
        "scrambled.stream_build_s": sum(trace["setup_incl_s"].get("scrambled." + f, 0.0)
                                        for f in ("mu_code", "tau_code", "alpha_transitive")),
        "conjugacy.farey_level.calls": calls.get("conjugacy.farey_level", 0),
        "conjugacy.farey_nodes_built": c["conjugacy.farey_nodes_built"],
        "exact.extended_rational.constructed": c["exact.extended_rational.constructed"],
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.output_bytes": c["cli.output_bytes"],
    }
    for name in PER_LAYER:
        if name not in values and name.endswith(".self_s"):
            base = name[:-len(".self_s")]
            if base in MODULES:
                values[name] = sum(v for k, v in self_s.items() if k.startswith(base + "."))
            else:
                values[name] = self_s.get(base, 0.0)
    return values


def per_layer(passes) -> tuple[dict, dict]:
    """Median over traced passes of every per-layer value; shares of op time."""
    traced = [p for t, p in passes if t]
    rows = [_layer_values(p["trace"]) for p in traced]
    wall = statistics.median(p["wall_s"] for p in traced)
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    values["trace_overhead_ratio"] = wall / statistics.median(
        p["wall_s"] for t, p in passes if not t)
    values = {name: values[name] for name in PER_LAYER}
    # Self times are scaled by each pass's median calibration, so their
    # shares are taken of the op time scaled the same way.
    op_time = [p["raw"]["wall_s"] * p["raw"]["speed"] for p in traced]
    shares = {m: statistics.median(r["%s.self_s" % m] / t for r, t in zip(rows, op_time))
              for m in MODULES}
    shares["bench"] = 1.0 - sum(shares.values())
    return values, shares


def environment(args, ops: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": ops,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and no sample minimum (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fareyshift", "__init__.py")):
        print("error: no fareyshift sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    for sub in ("tmp", "spans", "results"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    try:
        passes = run_passes(args)
        setups = [] if args.trace else run_setups(args, passes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    first = passes[0][1]
    counts = tally(passes)
    digest = hashlib.sha256("".join(first["digests"]).encode()).hexdigest()
    env = environment(args, first["ops"])
    reported = {
        "failed_ratio": counts["failed"] / counts["attempted"],
        "undecided_ratio": first["undecided"] / first["units"] if first["units"] else 0.0,
    }
    record = {"env": env, **counts, "digest": digest, "reported": reported,
              "errors": first["errors"], "problems": first["problems"]}
    print("# %s seed=%d python=%s nproc=%s ops/pass=%d passes=%d digest=%s" % (
        args.workload, args.seed, env["python"], env["nproc"], first["ops"], len(passes),
        digest[:16]))
    if args.trace:
        metrics, shares = per_layer(passes)
        units = PER_LAYER
        record["layer_shares"] = shares
        print("# self-time shares of traced op time: " + " ".join(
            "%s=%.3f" % kv for kv in shares.items()))
    else:
        metrics, samples = end_to_end(passes, setups)
        units = END_TO_END
        record["samples"] = samples
        record["raw"] = {key: statistics.median(p["raw"][key] for t, p in passes if not t)
                         for key in ("wall_s", "speed")}
        print("# samples: " + ", ".join("%s %d" % kv for kv in samples.items()))
        print("# undecided: %d of %d %s" % (
            first["undecided"], first["units"],
            "events" if args.workload == "scramble-verify" else "ops"))
        for name, value in reported.items():
            print("%-28s %.6g %s" % (name, value, REPORTED[name]))
    for name, value in metrics.items():
        shown = "%d" % value if units[name] in ("count", "bytes", "bits") else "%.6g" % value
        print("%-44s %s %s" % (name, shown, units[name]))
    record["metrics"] = metrics
    path = os.path.join(OUT, "results", "%s-trace%d-seed%d.json" % (
        args.workload, args.trace, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
