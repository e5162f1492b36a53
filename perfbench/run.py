"""gasylv benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload solve_int --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; gasylv is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it has
the per-layer metrics of a traced run (see metrics.py).  Everything
before that line is a human-readable table with sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from metrics import ERROR_TYPES, EXACT_DIGITS, EXIT_CODES, NS, SOLVE_METHODS, SOLVE_NS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fresh processes whose set-up time is measured.  Each samples the
# reference below SETUP_REFERENCE_SAMPLES times right after its set-up,
# and setup_s is the median over the processes of set-up time times
# REFERENCE_NOMINAL_S over that process's median sample.  On the 2-core
# host the baseline was taken on, this spread by 0.05-0.09 over eight
# seeds where a fresh reference process spawned after each set-up
# spread by 0.11-0.16.  No further process is spawned once
# SETUP_BUDGET_S have passed.
SETUP_REPEATS = 20
SETUP_REFERENCE_SAMPLES = 4
SETUP_BUDGET_S = 60

# The speed of a shared host drifts by a quarter or more within seconds.
# Every op time is therefore taken at a nominal speed: it is scaled by
# REFERENCE_NOMINAL_S over the median time of a fixed reference workload
# sampled untimed between ops about every REFERENCE_EVERY_S of measured
# calls, using the REFERENCE_WINDOW samples nearest the op (the last one
# before its window, the one before that, and the two after), so the
# scale follows the host through the run.  The reference is the
# benchmark's own code, so a change to the program cannot move it.
REFERENCE_NOMINAL_S = 0.0036
REFERENCE_EVERY_S = 0.05
REFERENCE_WINDOW = (-1, 3)
_REF_U = [(7 * i) % 11 - 5 for i in range(64)]
_REF_V = [(5 * i) % 9 - 4 for i in range(64)]
_REF_ARGV = ["solve", "--signature", "3,2", "--a", "2 + e1", "--b", "-3 + e12",
             "--format", "json"]


def reference_s():
    """Time one run of the reference: twice an argparse build and parse,
    a JSON dump of a printed multivector, a Fraction sum and a dense
    sign-and-accumulate sweep over 64 x 64 small ints, the kinds of work
    the workloads do."""
    t0 = time.perf_counter()
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="reference")
        commands = parser.add_subparsers(dest="command")
        for name in ("solve", "det", "inverse"):
            command = commands.add_parser(name)
            for option in ("--signature", "--a", "--b"):
                command.add_argument(option)
            command.add_argument("--format", choices=("text", "json"), default="text")
        args = parser.parse_args(_REF_ARGV)
        json.dumps({"X": " + ".join(f"{k}/7e{k}" for k in range(40)), "a": args.a})
        sum(Fraction(k, 7) * Fraction(3, k + 1) for k in range(60))
        out = [0] * 64
        for a, ca in enumerate(_REF_U):
            for b, cb in enumerate(_REF_V):
                if (a & b).bit_count() & 1:
                    out[a ^ b] -= ca * cb
                else:
                    out[a ^ b] += ca * cb
    return time.perf_counter() - t0


def use_checkout_source():
    """Import gasylv from this checkout's src/ and nowhere else."""
    if not (SRC / "gasylv" / "__init__.py").is_file():
        sys.exit(f"perfbench: gasylv sources not found under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(values, share):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(share * len(ordered)) - 1))]


def set_up(workload, seed, tracer=None):
    """Generate the rounds and run one warm-up op per signature."""
    rounds = workload.generate(seed)
    with tracer or contextlib.nullcontext():
        for op in workload.warmups():
            op.call()
    return rounds


def setup_at_nominal_s(argv):
    """Spawn a set-up-only process; return the time from spawning it to
    the time.monotonic() it prints when ready, raw and at nominal speed."""
    t0 = time.monotonic()
    child = subprocess.run(argv, capture_output=True, text=True,
                           timeout=2 * SETUP_BUDGET_S, check=True)
    ready, reference = map(float, child.stdout.split()[-2:])
    return ready - t0, (ready - t0) * REFERENCE_NOMINAL_S / reference


def measure_setup(name, seed):
    """Spawn fresh processes that only set up.  Returns the median set-up
    time at nominal speed, the raw median, and the number of set-ups."""
    setup = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    start = time.monotonic()
    while len(times) < SETUP_REPEATS and (not times or time.monotonic() - start < SETUP_BUDGET_S):
        times.append(setup_at_nominal_s(setup))
    raw, nominal = zip(*times)
    return statistics.median(nominal), statistics.median(raw), len(times)


def timed_rounds(rounds, seconds, tracer=None, max_wall=None):
    """Run whole rounds, cycling, until the calls have taken `seconds`.

    Returns (done, scales): done holds one list of (op, latency, outcome)
    per round run, and scales, in the same shape, the factor that turns
    each measured latency into a nominal-speed one.  The check of each
    answer and the reference samples run between calls and are not timed.
    """
    done, windows = [], []
    refs = [reference_s()]
    busy = since_ref = 0.0
    start = time.monotonic()
    while busy < seconds or not done:
        records = []
        for op in rounds[len(done) % len(rounds)]:
            if tracer is not None:
                tracer.op_error = None
            t0 = time.perf_counter()
            result = op.call()
            latency = time.perf_counter() - t0
            outcome = op.check(result)
            if tracer is not None and not outcome.ok and outcome.error != "WrongAnswer":
                outcome.error = tracer.op_error or outcome.error
            records.append((op, latency, outcome))
            windows.append(len(refs) - 1)
            busy += latency
            since_ref += latency
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference_s())
                since_ref = 0.0
        done.append(records)
        if max_wall is not None and time.monotonic() - start > max_wall:
            break
    refs.append(reference_s())
    lo, hi = REFERENCE_WINDOW
    scale = [REFERENCE_NOMINAL_S / statistics.median(refs[max(0, k + lo):k + hi])
             for k in range(len(refs))]
    flat = iter(windows)
    return done, [[scale[next(flat)] for _ in records] for records in done]


def digits(resid):
    """Correct digits of an answer: -log10 of its backward error, in [0, EXACT_DIGITS]."""
    return min(EXACT_DIGITS, max(0.0, -math.log10(resid))) if resid > 0 else EXACT_DIGITS


def end_to_end(done, scales, setup_s, setup_runs):
    """Metric -> (value, unit, samples); each latency is multiplied by
    its entry in scales."""
    lat = [latency * scale
           for records, factors in zip(done, scales)
           for (_, latency, _), scale in zip(records, factors)]
    outcomes = [o for records in done for _, _, o in records]
    attempted = len(outcomes)
    answer_digits = [
        EXACT_DIGITS if o.resid is None else digits(o.resid)
        for o in outcomes if o.ok
    ]
    return {
        "ops_per_s": (attempted / sum(lat), "1/s", attempted),
        "latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms", attempted),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms", attempted),
        "ok_share": (sum(o.ok for o in outcomes) / attempted, "share", attempted),
        "unflagged_share": (1 - sum(o.flagged for o in outcomes) / attempted, "share", attempted),
        "accuracy_digits_p10": (
            percentile(answer_digits, 0.1) if answer_digits else 0.0, "digits",
            len(answer_digits)),
        "setup_s": (setup_s, "s", setup_runs),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def q_bits(q):
    value = Fraction(q)
    return value.numerator.bit_length() + value.denominator.bit_length()


def per_layer(tracer, records, untraced_s, traced_s, passes):
    ops = len(records)
    per_op = lambda x: x / ops  # noqa: E731
    per_pass = lambda x: x / passes  # noqa: E731
    self_s = tracer.self_s
    out = {
        "algebra.products_per_op": (per_op(tracer.products), "count"),
        "algebra.pair_mults_per_op": (per_op(tracer.pair_mults), "count"),
        "algebra.product_s_per_op": (per_op(self_s["algebra.product"]), "s"),
    }
    for n in NS:
        warm = tracer.warm_product_s.get(n, [])
        out[f"algebra.product_us.n{n}"] = (statistics.fmean(warm) * 1e6 if warm else 0.0, "us")
    for n in NS:
        first = tracer.first_product_s.get(n, [])
        out[f"algebra.first_product_ms.n{n}"] = (
            statistics.fmean(first) * 1e3 if first else 0.0, "ms")
    out["algebra.linear_s_per_op"] = (per_op(self_s["algebra.linear"]), "s")
    out["algebra.conj_s_per_op"] = (per_op(self_s["algebra.conj"]), "s")
    out["charpoly.calls_per_op"] = (per_op(tracer.charpoly_calls), "count")
    out["charpoly.steps_per_op"] = (per_op(tracer.charpoly_steps), "count")
    out["charpoly.self_s_per_op"] = (per_op(self_s["charpoly"]), "s")
    out["sylvester.self_s_per_op"] = (per_op(self_s["sylvester"]), "s")
    out["sylvester.verify_s_per_op"] = (
        per_op(tracer.incl_s["verify_residual", "sylvester"]), "s")
    for n in SOLVE_NS:
        solves = tracer.solve_s.get(n, [])
        out[f"sylvester.solve_ms_p50.n{n}"] = (
            statistics.median(solves) * 1e3 if solves else 0.0, "ms")
    for method in SOLVE_METHODS:
        out[f"sylvester.method_ops.{method}"] = (per_pass(tracer.methods[method]), "count")
    bits = [q_bits(q) for q in tracer.q_values if not isinstance(q, float) or math.isfinite(q)]
    out["sylvester.q_bits_p50"] = (statistics.median(bits) if bits else 0, "bits")
    out["serialize.parse_s_per_op"] = (
        per_op(tracer.incl_s["parse_multivector", "serialize"]), "s")
    out["serialize.format_s_per_op"] = (
        per_op(tracer.incl_s["format_multivector", "serialize"]), "s")
    out["serialize.chars_per_op"] = (per_op(tracer.chars), "count")
    out["cli.self_s_per_op"] = (per_op(self_s["cli"]), "s")
    exits = Counter(
        str(o.exit_code) if str(o.exit_code) in EXIT_CODES else "other"
        for op, _, o in records if hasattr(op, "argv")
    )
    for code in EXIT_CODES:
        out[f"cli.exit_ops.{code}"] = (per_pass(exits[code]), "count")
    failures = Counter(
        o.error if o.error in ERROR_TYPES else "other"
        for _, _, o in records if not o.ok
    )
    for kind in ERROR_TYPES:
        out[f"errors.ops.{kind}"] = (per_pass(failures[kind]), "count")
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["trace.pass_ops"] = (per_pass(ops), "count")
    return out


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced passes over the first round until the
    calls have taken `seconds`; every traced pass is the same op list, so
    the counts per op and per pass repeat exactly."""
    from tracer import Tracer

    tracer = Tracer()
    rounds = set_up(workload, seed, tracer)
    first = [rounds[0]]
    untraced_s = traced_s = 0.0
    records = []
    passes = 0
    tracer.reset()
    while untraced_s + traced_s < seconds or passes == 0:
        untraced_s += sum(lat for _, lat, _ in timed_rounds(first, 0)[0][0])
        with tracer:
            pass_records = timed_rounds(first, 0, tracer)[0][0]
        traced_s += sum(lat for _, lat, _ in pass_records)
        records += pass_records
        passes += 1
    return records, per_layer(tracer, records, untraced_s, traced_s, passes)


def print_table(metrics, samples=None):
    for name, (value, unit) in metrics.items():
        count = "" if samples is None else f"  (n={samples[name]})"
        print(f"{name:34s} {value:>16.6g} {unit}{count}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        set_up(workload, args.seed)
        ready = time.monotonic()
        print(ready, statistics.median(reference_s() for _ in range(SETUP_REFERENCE_SAMPLES)))
        return 0

    if args.trace:
        records, metrics = traced_run(workload, args.seed, args.seconds)
        print_table(metrics)
    else:
        rounds = set_up(workload, args.seed)
        setup_s, raw_setup_s, setup_runs = measure_setup(args.workload, args.seed)
        done, scales = timed_rounds(rounds, args.seconds, max_wall=2 * args.seconds + 30)
        records = [rec for r in done for rec in r]
        full = end_to_end(done, scales, setup_s, setup_runs)
        metrics = {k: (v, unit) for k, (v, unit, _) in full.items()}
        print_table(metrics, {k: n for k, (_, _, n) in full.items()})
        raw = end_to_end(done, [[1.0] * len(r) for r in done], raw_setup_s, setup_runs)
        print("raw (not speed-scaled): " + ", ".join(
            f"{k} {raw[k][0]:.6g} {raw[k][1]}"
            for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s")))
        flat = [f for factors in scales for f in factors]
        print(f"speed scale (nominal / measured reference): median {statistics.median(flat):.4f}, "
              f"range {min(flat):.4f}..{max(flat):.4f}")

    failed = sum(not o.ok for _, _, o in records)
    result = {
        "correct": not any(o.wrong for _, _, o in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops, "
          f"{failed} failed, correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
