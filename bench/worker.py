"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass, so every pass pays the import
and the input building a command-line user pays, and no library state
carries over from one pass to the next.  The pass result is printed as
one JSON line on standard output.

    python3 bench/worker.py --root ROOT --workload NAME --seed N
                            [--trace] [--check] [--tiny] [--spans PATH]
                            [--setup-only]

Times are reported at reference speed.  On a shared host (measured on a
2-vCPU 2.1 GHz Xeon VM) speed drifts by 25% and more over tens of
seconds, and the drift outlasts a run, so raw times of one seed differ
from run to run by more than any useful bound.  A fixed stdlib kernel (`calibrate`)
is timed before set-up, after set-up and then at least every CAL_EVERY_S
seconds between ops; it slows down with the host.  Each time is scaled
by the kernel's reference time over the mean of the calibrations around
it, which is the kernel's time on the host at full speed.  Raw seconds
are kept in the pass record.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

CAL_EVERY_S = 0.05
clock = time.perf_counter
_A, _B = 3 ** 1500, 2 ** 2400 + 1


def _fraction_kernel() -> None:
    x = Fraction(0)
    for i in range(1, 300):
        x = (x + Fraction(1, i % 9 + 1)) % 5


def _bigint_kernel() -> None:
    a = _A
    for _ in range(40):
        math.gcd(a, _B)
        a = a * 7 + 1


# Calibration kernels with their time on an idle core of the reference
# host (2.1 GHz Xeon VM, Python 3.11.7).  Code that allocates many small
# objects and code bound by big-integer arithmetic slow down by different
# amounts when the host is busy, so each workload is calibrated by the
# kernel that tracked it best on that host: scaled times of the
# small-number workloads drifted 4 to 5 times less with the Fraction
# kernel than raw ones, and enclose-deep about 3 times less with the
# big-integer kernel.
KERNELS = {"fraction": (_fraction_kernel, 0.0008), "bigint": (_bigint_kernel, 0.0008)}
KERNEL_OF = {"enclose-deep": "bigint", "scramble-verify": "fraction", "conjugacy-cli": "fraction"}


def calibrate(kernel) -> float:
    """Fastest of three runs of a fixed stdlib kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        kernel()
        best = min(best, clock() - start)
    return best


def scale(cals, op_count: int, ref_s: float):
    """Per-op factor ref_s / mean(calibration before, calibration after).

    cals is a list of (index of the op it precedes, seconds), ending
    with an entry for op_count.
    """
    factors = []
    j = 0
    for i in range(op_count):
        while cals[j + 1][0] <= i:
            j += 1
        factors.append(2 * ref_s / (cals[j][1] + cals[j + 1][1]))
    return factors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = os.path.join(args.root, "src")

    kernel, ref_s = KERNELS[KERNEL_OF[args.workload]]
    small, small_ref_s = KERNELS["fraction"]  # set-up is imports: small objects
    cal_before_setup = calibrate(small)
    t0 = clock()
    sys.path.insert(0, src)
    import fareyshift
    import workloads
    if os.path.dirname(os.path.abspath(fareyshift.__file__)) != os.path.join(src, "fareyshift"):
        print("fareyshift was not imported from %s" % src, file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install([workloads])
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {"out_dir": args.out_dir} if cls is workloads.ConjugacyCli else {}
    wl = cls(args.seed, tiny=args.tiny, **kwargs)
    setup_raw = clock() - t0
    cal_after_setup = calibrate(small)
    setup_s = setup_raw * 2 * small_ref_s / (cal_before_setup + cal_after_setup)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": setup_raw}}))
        return 0

    setup_trace = None
    if tracer is not None:
        setup_trace = {"incl_s": dict(tracer.incl_s)}
        tracer.reset_stats()
    gc.collect()
    cals = [(0, calibrate(kernel))]
    last_cal = clock()
    op_s, results, errors, digests = [], [], {}, []
    for i, op in enumerate(wl.ops):
        if clock() - last_cal >= CAL_EVERY_S:
            cals.append((i, calibrate(kernel)))
            last_cal = clock()
        start = clock()
        try:
            if tracer is None:
                raw = wl.run(op)
            else:
                with tracer.span("bench.op"):
                    raw = wl.run(op)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            op_s.append(clock() - start)
            errors[i] = "%s: %s" % (type(exc).__name__, exc)
            results.append(None)
            digests.append("error")
            continue
        op_s.append(clock() - start)
        result = wl.collect(op, raw)
        results.append(result)
        digests.append(hashlib.sha256(wl.output(op, result).encode()).hexdigest())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    cals.append((len(wl.ops), calibrate(kernel)))
    factors = scale(cals, len(wl.ops), ref_s)
    norm_op_s = [t * f for t, f in zip(op_s, factors)]
    speed = ref_s / sorted(c for _, c in cals)[len(cals) // 2]

    out = {
        "setup_s": setup_s,
        "wall_s": sum(norm_op_s),
        "op_s": norm_op_s,
        "raw": {"setup_s": setup_raw, "wall_s": sum(op_s), "speed": speed},
        "digests": digests,
        "errors": errors,
        "peak_rss_mib": peak_rss_mib,
        "ops": len(wl.ops),
    }
    if args.check:
        problems, undecided, units = {}, 0, 0
        for i, (op, result) in enumerate(zip(wl.ops, results)):
            if result is None:
                continue
            found, und, n = wl.check(op, result)
            undecided += und
            units += n
            if found:
                problems[i] = found
        out.update(problems=problems, undecided=undecided, units=units)
    if tracer is not None:
        out["trace"] = {  # times at reference speed, by the pass's median calibration
            "self_s": {k: v * speed for k, v in tracer.self_s.items()},
            "incl_s": {k: v * speed for k, v in tracer.incl_s.items()},
            "calls": tracer.calls,
            "counters": dict(tracer.counters,
                             **{"cli.output_bytes": getattr(wl, "output_bytes", 0)}),
            "setup_incl_s": {k: v * speed for k, v in setup_trace["incl_s"].items()},
            "spans": len(tracer.span_start),
        }
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
