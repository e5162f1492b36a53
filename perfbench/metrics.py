"""Metric definitions: the single source for run.py, report.py and the
check that BENCHMARK.json lists the same names, units and bounds.

End-to-end metrics are measured with tracing off, and every time among
them is taken at nominal host speed (see REFERENCE_NOMINAL_S in run.py;
the human-readable table of a run also prints the raw figures).  Each
end-to-end metric is reported
on every workload and is never 0, so that a bound as a share of the
parent's median means something.  Three quality figures are therefore
reported as their complements:

- ``ok_share`` = 1 - fail share (failed ops / attempted ops);
- ``unflagged_share`` = 1 - flagged share (low_confidence answers / attempted);
- ``accuracy_digits_p10`` = -log10 of the 90th-percentile exact backward
  error of the answers, counting an exactly verified rational answer as
  20 digits.

Per-layer metrics come from a separate traced run.  ``moves`` names the
end-to-end metrics a change in that layer should move and ``on`` the
workloads where it should; ``not_on`` those where it should not.
"""

from __future__ import annotations

from collections import namedtuple

EndToEnd = namedtuple("EndToEnd", "name unit better bound doc")
Layer = namedtuple("Layer", "name unit moves on not_on doc better", defaults=("lower",))

EXACT_DIGITS = 20.0

END_TO_END = [
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "attempted ops divided by the summed time of their calls"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.2,
             "median time of one op, from the call to its answer"),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25,
             "90th percentile of the same"),
    EndToEnd("ok_share", "share", "higher", 0.002,
             "ops whose answer passed the exact check, over attempted ops"),
    EndToEnd("unflagged_share", "share", "higher", 0.01,
             "1 - share of ops answered with low_confidence"),
    EndToEnd("accuracy_digits_p10", "digits", "higher", 0.1,
             "-log10 of the 90th-percentile exact backward error of the answers"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median over twenty fresh processes of the time from spawn to the first "
             "timed op: import, input generation, one warm-up op per signature"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident set size of the measuring process"),
]

SOLVES = ["solve_int", "solve_frac", "solve_f64"]
ALL = SOLVES + ["cli_sparse"]
NS = range(2, 11)
SOLVE_NS = range(2, 9)
SOLVE_METHODS = [
    "closed_n1", "closed_n2", "closed_n3", "closed_n4_v1", "closed_n4_v2",
    "closed_n5", "general", "general_odd",
]
ERROR_TYPES = [
    "NumericalDegradationError", "SingularProblemError", "SingularElementError",
    "ResidualCheckFailedError", "InternalError", "ParseError", "WrongAnswer", "other",
]
EXIT_CODES = ["0", "1", "2", "3", "other"]

_THROUGHPUT = ["ops_per_s", "latency_p50_ms"]

LAYERS = [
    Layer("algebra.products_per_op", "count", _THROUGHPUT, ["solve_int"], ["cli_sparse"],
          "Multivector x Multivector products per op"),
    Layer("algebra.pair_mults_per_op", "count", _THROUGHPUT, ["solve_int"], ["cli_sparse"],
          "nnz(u) * nnz(v) summed over those products, per op"),
    Layer("algebra.product_s_per_op", "s", ["ops_per_s"], ["solve_int", "solve_f64"],
          ["cli_sparse"], "time in products per op"),
    *[Layer(f"algebra.product_us.n{n}", "us", ["ops_per_s"], ["solve_int", "solve_f64"],
            ["cli_sparse"], f"mean warm product time at n={n}; 0 if the workload has none")
      for n in NS],
    *[Layer(f"algebra.first_product_ms.n{n}", "ms", ["setup_s"], ALL, [],
            f"first product of each signature at n={n} (pays lazy tables), mean; "
            "0 if the workload has none")
      for n in NS],
    Layer("algebra.linear_s_per_op", "s", ["ops_per_s"], ["solve_frac"], ["solve_f64"],
          "self time of add, sub, neg, scale and division per op"),
    Layer("algebra.conj_s_per_op", "s", ["ops_per_s"], ["solve_int"], ["solve_f64"],
          "self time of conjugations and projections per op"),
    Layer("charpoly.calls_per_op", "count", ["latency_p50_ms"], ["cli_sparse", "solve_int"], [],
          "char_poly and generalized_coeffs calls per op"),
    Layer("charpoly.steps_per_op", "count", ["latency_p50_ms"], ["cli_sparse", "solve_int"], [],
          "recursion steps of those calls per op"),
    Layer("charpoly.self_s_per_op", "s", ["latency_p50_ms"], ["cli_sparse", "solve_int"], [],
          "self time of the charpoly layer per op"),
    Layer("sylvester.self_s_per_op", "s", ["ops_per_s"], ["solve_frac", "solve_int"],
          ["cli_sparse"], "self time of the sylvester layer per op"),
    Layer("sylvester.verify_s_per_op", "s", ["ops_per_s"], ["solve_frac", "solve_int"],
          ["cli_sparse"], "time in verify_residual per op"),
    *[Layer(f"sylvester.solve_ms_p50.n{n}", "ms", ["ops_per_s"], ["solve_frac", "solve_int"],
            ["cli_sparse"], f"median solve() time at n={n}; 0 if the workload has none")
      for n in SOLVE_NS],
    *[Layer(f"sylvester.method_ops.{m}", "count", ["ops_per_s"], ["solve_int"], ["cli_sparse"],
            f"solves per traced pass that ran {m}")
      for m in SOLVE_METHODS],
    Layer("sylvester.q_bits_p50", "bits", ["ops_per_s"], ["solve_frac"], ["cli_sparse"],
          "median bits of Q (numerator plus denominator) over answered solves"),
    Layer("serialize.parse_s_per_op", "s", ["latency_p50_ms"], ["cli_sparse"], SOLVES,
          "time in parse_multivector per op"),
    Layer("serialize.format_s_per_op", "s", ["latency_p50_ms"], ["cli_sparse"], SOLVES,
          "time in format_multivector per op"),
    Layer("serialize.chars_per_op", "count", ["latency_p50_ms"], ["cli_sparse"], SOLVES,
          "characters parsed plus characters formatted per op"),
    Layer("cli.self_s_per_op", "s", ["latency_p50_ms", "ok_share"], ["cli_sparse"], SOLVES,
          "self time of cli.main and build_parser per op"),
    *[Layer(f"cli.exit_ops.{code}", "count", ["latency_p50_ms", "ok_share"], ["cli_sparse"],
            SOLVES, f"CLI ops per traced pass that exited with code {code}",
            "higher" if code == "0" else "lower")
      for code in EXIT_CODES],
    *[Layer(f"errors.ops.{t}", "count", ["ok_share"], ALL, [],
            f"failed ops per traced pass whose error was {t}")
      for t in ERROR_TYPES],
    Layer("trace.overhead_ratio", "ratio", [], ALL, [],
          "traced over untraced time of the same ops"),
    Layer("trace.pass_ops", "count", [], ALL, [],
          "ops in one traced pass; the count metrics per pass refer to it", "higher"),
]
