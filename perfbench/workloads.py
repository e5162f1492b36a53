"""The four workloads: seeded input generation, the timed call, and the
untimed check of each answer.

A workload is a list of *rounds*.  Every round of a workload has the
same composition (how many ops of each n, command and format) and a
fixed order that spreads the expensive ops evenly; only the values
drawn from the seed differ between rounds and between seeds.  The
benchmark always stops at a round boundary, so ops/s and the latency
percentiles describe one fixed mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from gasylv import cli, errors, sylvester
from gasylv.algebra import FLOAT64, RATIONAL, Multivector, Signature

import oracle
from oracle import CheckFailed

# An f64 answer the program did not flag must have an exact backward
# error within 100x of the program's own residual tolerance (1e-8).
F64_CONFIDENT_BOUND = 1e-6

# Documented CLI exit codes: ok, usage/parse, singular, internal.
CLI_EXIT_CODES = (0, 1, 2, 3)


def two_signatures(n):
    """One signature with p >= q and one with q > p."""
    p = n - n // 2
    return [(p, n - p), (n // 2 - (1 - n % 2), n - n // 2 + (1 - n % 2))]


def spread(weights):
    """A fixed order of len = sum(weights) that interleaves each class
    evenly: class k's i-th op sits at position (i + 1/2) / weights[k]."""
    slots = [
        ((i + 0.5) / w, k)
        for k, w in weights.items()
        for i in range(w)
    ]
    return [k for _, k in sorted(slots)]


@dataclass
class Outcome:
    """What the check made of one op."""

    ok: bool
    error: str | None = None      # exception type or "WrongAnswer"
    wrong: bool = False           # an answer was returned and is wrong
    flagged: bool = False         # f64 answer marked low_confidence
    resid: float | None = None    # exact backward error of an f64 answer
    exit_code: int | None = None  # CLI ops only


# -- library solves -----------------------------------------------------------


@dataclass
class SolveOp:
    n: int
    a: Multivector
    b: Multivector
    c: Multivector

    def call(self):
        try:
            return sylvester.solve(sylvester.SylvesterProblem(self.a, self.b, self.c))
        except errors.GasylvError as exc:
            return exc

    def check(self, result):
        if isinstance(result, errors.GasylvError):
            return Outcome(ok=False, error=type(result).__name__)
        alg = oracle.Algebra(self.a.sig.p, self.a.sig.q)
        a, b, c = (oracle.from_coeffs(m.coeffs) for m in (self.a, self.b, self.c))
        if self.a.ring == RATIONAL:
            try:
                oracle.check_exact_solution(alg, a, b, c, oracle.from_coeffs(result.x.coeffs))
            except CheckFailed:
                return Outcome(ok=False, error="WrongAnswer", wrong=True)
            return Outcome(ok=True)
        flagged = bool(result.low_confidence)
        if all(map(math.isfinite, result.x.coeffs)):
            resid = oracle.backward_error(alg, a, b, c, oracle.from_coeffs(result.x.coeffs))
        else:
            resid = math.inf
        if not flagged and not resid <= F64_CONFIDENT_BOUND:
            return Outcome(ok=False, error="WrongAnswer", wrong=True, resid=resid)
        return Outcome(ok=True, flagged=flagged, resid=resid)


def _dense(sig, draw, ring):
    return Multivector(sig, [draw() for _ in range(sig.ncoeffs)], ring)


def _certified_pair(sig, draw, ring):
    """Dense A and B; B is redrawn until the parity test proves
    AX - XB = C nonsingular, so no op is a genuine refusal."""
    a = _dense(sig, draw, ring)
    b = _dense(sig, draw, ring)
    while not oracle.sylvester_det_is_odd(a.coeffs, b.coeffs):
        b = _dense(sig, draw, ring)
    return a, b


def _dominant_pair(sig, draw, ring):
    """Dense A and B whose scalar part exceeds the sum of the magnitudes
    of their other coefficients by 1 to 4, positive in A and negative in
    B.  Every eigenvalue of A's matrix image then has real part at least
    1 and every one of B's at most -1: the problem is nonsingular and
    phi_B(A) is well conditioned."""
    pair = []
    for sign in (1, -1):
        coeffs = [draw() for _ in range(sig.ncoeffs)]
        coeffs[0] = sign * (sum(map(abs, coeffs[1:])) + 1 + abs(draw()))
        pair.append(Multivector(sig, coeffs, ring))
    return pair


def _solve_round(rng, r, weights, signatures, ring, draws, make_pair):
    """Round r of dense solves.  Successive ops of each n, counted across
    rounds, cycle through the signatures and then the coefficient
    samplers in draws, so an n with one op per round still covers them."""
    ops = []
    used = {n: r * w for n, w in weights.items()}
    for n in spread(weights):
        i = used[n]
        used[n] += 1
        sig = Signature(*signatures[n][i % len(signatures[n])])
        sample = draws[(i // len(signatures[n])) % len(draws)]
        draw = lambda: sample(rng)  # noqa: E731
        ops.append(SolveOp(n, *make_pair(sig, draw, ring), _dense(sig, draw, ring)))
    return ops


def _warmup_solve(p, q, ring):
    """A cheap well-posed problem on Cl(p,q): A and B are scalar-dominant
    with spectra on opposite sides of 0, so AX - XB = C is nonsingular."""
    sig = Signature(p, q)
    top = sig.ncoeffs - 1
    half = Fraction(1, 2) if ring == RATIONAL else 0.5
    a = Multivector.from_terms(sig, {0: 2, 1: half}, ring)
    b = Multivector.from_terms(sig, {0: -2, top: half}, ring)
    c = Multivector.from_terms(sig, {0: 1, top: 1}, ring)
    return SolveOp(sig.dim, a, b, c)


# -- CLI traffic ----------------------------------------------------------------


@dataclass
class CliOp:
    n: int
    sig: tuple
    argv: list
    inputs: dict = field(default_factory=dict)  # exact oracle form of each literal

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except Exception as exc:  # a traceback escaping the CLI is a failure
                code = exc
        return code, out.getvalue()

    def check(self, result):
        code, out = result
        if not isinstance(code, int) or code not in CLI_EXIT_CODES:
            name = type(code).__name__ if isinstance(code, Exception) else "other"
            return Outcome(ok=False, error=name, wrong=True, exit_code=None)
        if code != 0:
            return Outcome(ok=False, error=_cli_error_type(out), exit_code=code)
        try:
            self._check_output(out)
        except CheckFailed:
            return Outcome(ok=False, error="WrongAnswer", wrong=True, exit_code=code)
        return Outcome(ok=True, exit_code=code)

    def _check_output(self, out):
        command = self.argv[0]
        as_json = "json" in self.argv
        alg = oracle.Algebra(*self.sig)
        fields = json.loads(out) if as_json else _text_fields(out)
        b = self.inputs["b"]
        if command == "solve":
            if as_json:
                num, den = fields["X"]["numerator"], fields["X"]["denominator"]
            else:
                body = fields["X"]
                if not (body.startswith("(1/") and body.endswith(")") and ")(" in body):
                    raise CheckFailed(f"unreadable X {body!r}")
                den, num = body[3:-1].split(")(", 1)
            x = alg.scale(oracle.parse(num), 1 / oracle.parse_scalar(den))
            oracle.check_exact_solution(alg, self.inputs["a"], b, self.inputs["c"], x)
        elif command == "det":
            det = oracle.parse_scalar(str(fields["Det"]))
            if det != -alg.char_coeffs(b)[-1]:
                raise CheckFailed("determinant differs from -b_N")
        elif command == "inverse":
            oracle.check_inverse(alg, b, oracle.parse(fields["inverse"]))
        else:
            coeffs = [oracle.parse_scalar(str(v)) for v in fields["coeffs"]]
            if coeffs != alg.char_coeffs(b):
                raise CheckFailed("coefficients differ from the characteristic polynomial")
            oracle.check_cayley_hamilton(alg, b, coeffs)
            if "--generalized" in self.argv:
                central = [oracle.parse(t) for t in fields["generalized"]]
                for u in central:
                    oracle.check_central(alg, u)
                oracle.check_cayley_hamilton(alg, b, central)


def _text_fields(out):
    """Text output as {"X": ..., "Det": ..., "coeffs": [...], ...}."""
    fields = {"coeffs": [], "generalized": []}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        if key.startswith("b'_"):
            fields["generalized"].append(value)
        elif key.startswith("b_"):
            fields["coeffs"].append(value)
        else:
            fields[key] = value
    return fields


def _cli_error_type(out):
    try:
        return json.loads(out)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        return "CliError"


def _blade_text(mask, n, rng):
    indices = [i + 1 for i in range(n) if mask >> i & 1]
    if n >= 10 or rng.random() < 0.1:
        return "e{" + ",".join(map(str, indices)) + "}"
    return "e" + "".join(map(str, indices))


def _literal(terms, n, rng):
    """Hand-typed style: random spacing, '1' left out, an occasional '*'."""
    parts = []
    for mask, coef in terms.items():
        mag = abs(coef)
        text = "" if mag == 1 and mask else str(mag)
        if mask:
            blade = _blade_text(mask, n, rng)
            text = f"{text}*{blade}" if text and rng.random() < 0.2 else text + blade
        sign = "-" if coef < 0 else "+"
        if parts:
            parts.append(sign + (" " if rng.random() < 0.7 else "") + text)
        else:
            parts.append(text if coef > 0 else "-" + text)
    return " ".join(parts)


def _coef(rng):
    value = Fraction(rng.randint(1, 5))
    if rng.random() < 0.2:
        value = Fraction(rng.randint(1, 5), rng.randint(2, 4))
    return value if rng.random() < 0.5 else -value


def _sparse_terms(rng, n, count, with_scalar):
    blades = min(count - with_scalar, (1 << n) - 1)
    terms = {mask: _coef(rng) for mask in rng.sample(range(1, 1 << n), blades)}
    if with_scalar:
        terms = {0: _coef(rng), **terms}
    return terms


def _dominant(rng, n, sign):
    """Scalar plus 1..5 blades, the scalar larger than the sum of the
    others: every eigenvalue of its matrix image then lies strictly on
    the side of 0 given by sign, so the element is invertible, and two
    such elements of opposite sign make a nonsingular Sylvester problem."""
    terms = _sparse_terms(rng, n, rng.randint(1, 5), with_scalar=False)
    radius = sum(abs(c) for c in terms.values())
    return {0: sign * (radius + rng.randint(1, 2)), **terms}


CLI_COMMANDS = ("solve", "det", "solve", "inverse", "charpoly")


def _cli_op(rng, n, sig, command, fmt):
    argv = [command, "--signature", f"{sig[0]},{sig[1]}"]
    if command == "solve":
        sign = rng.choice((1, -1))
        terms = {
            "a": _dominant(rng, n, sign),
            "b": _dominant(rng, n, -sign),
            "c": _sparse_terms(rng, n, rng.randint(2, 6), rng.random() < 0.5),
        }
    elif command == "inverse":
        terms = {"b": _dominant(rng, n, rng.choice((1, -1)))}
    else:
        terms = {"b": _sparse_terms(rng, n, rng.randint(2, 6), rng.random() < 0.5)}
    for name, t in terms.items():
        argv += [f"--{name}", _literal(t, n, rng)]
    if command == "charpoly" and n % 2:
        argv.append("--generalized")
    if fmt == "json":
        argv += ["--format", "json"]
    inputs = {name: oracle.from_terms(t) for name, t in terms.items()}
    return CliOp(n, sig, argv, inputs)


def _cli_signatures(n):
    return [(n, 0), (n - n // 2, n // 2), (0, n)]


def _cli_command(n, i):
    # Solves above n = 8 take seconds and would dominate the run; n = 9..10
    # still reach the product without a sign table through det, inverse
    # and charpoly.
    if n > 8:
        return ("det", "inverse", "charpoly")[i % 3]
    return CLI_COMMANDS[i % len(CLI_COMMANDS)]


def _cli_round(rng, weights):
    ops = []
    used = {n: 0 for n in weights}
    for n in spread(weights):
        i = used[n]
        used[n] += 1
        sigs = _cli_signatures(n)
        fmt = ("text", "json")[i % 2]
        ops.append(_cli_op(rng, n, sigs[i % len(sigs)], _cli_command(n, i), fmt))
    return ops


# -- the workloads ------------------------------------------------------------------


def _int(rng):
    return rng.randint(-3, 3)


def _frac(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 7))


def _uniform(rng):
    return rng.uniform(-1.0, 1.0)


def _float_int(rng):
    return float(rng.randint(-3, 3))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: str
    weights: dict          # ops per round for each n
    rounds: int            # distinct rounds generated per run
    make_round: object     # (rng, round index) -> list of ops
    warmups: object        # () -> list of ops, one per distinct signature

    def generate(self, seed):
        return [
            self.make_round(random.Random(f"{self.name}:{seed}:{r}"), r)
            for r in range(self.rounds)
        ]


def _solve_workload(name, why, mix, weights, rounds, ring, draws, make_pair):
    sigs = {n: two_signatures(n) for n in weights}
    return Workload(
        name, why, mix, weights, rounds,
        lambda rng, r: _solve_round(rng, r, weights, sigs, ring, draws, make_pair),
        lambda: [_warmup_solve(p, q, ring) for n in weights for p, q in sigs[n]],
    )


def _cli_warmups(weights):
    ops = []
    for n in weights:
        for sig in _cli_signatures(n):
            ops.append(CliOp(n, sig, ["det", "--signature", f"{sig[0]},{sig[1]}", "--b", "2 + e1"],
                             {"b": ({0: 2, 1: 1}, 1)}))
    return ops


# Ops per round for each n.  The solve mixes give each n a similar share
# of the run time, except that solve_f64 gives n = 4 more so that its
# 90th latency percentile falls mid-way through the n = 5 ops rather
# than at the edge between two n, where it jumps from run to run.
#
# No op of a workload may fail.  solve_f64 therefore uses scalar-dominant
# operands and stops at n = 6: on plain dense f64 operands the program
# refuses about 2 % of the solves at n = 6 and some at n = 5
# (SingularProblemError, its determinant zero test), and every solve at
# n = 7 (NumericalDegradationError); dominant operands at n = 7 make
# its tolerance overflow.
INT_WEIGHTS = {4: 64, 5: 16, 6: 4, 7: 1}
FRAC_WEIGHTS = {4: 24, 5: 6, 6: 1}
F64_WEIGHTS = {4: 75, 5: 12, 6: 3}
CLI_WEIGHTS = {2: 20, 3: 20, 4: 20, 5: 20, 6: 20, 7: 10, 8: 5, 9: 5, 10: 5}

WORKLOADS = {
    w.name: w
    for w in (
        _solve_workload(
            "solve_int",
            "Dense integer solves: the geometric product dominates, no Fraction "
            "arrives from the inputs, so kernel and method-choice changes show here.",
            "solve(), rational ring, dense ints in [-3,3], n=4..7, two signatures per n",
            INT_WEIGHTS, 24, RATIONAL, [_int], _certified_pair,
        ),
        _solve_workload(
            "solve_frac",
            "Dense fraction solves: Fraction arithmetic and coefficient growth "
            "dominate, which is what an integer-only core would remove.",
            "solve(), rational ring, dense k/d with |k|<=7, d<=7, n=4..6, two signatures per n",
            FRAC_WEIGHTS, 12, RATIONAL, [_frac], _certified_pair,
        ),
        _solve_workload(
            "solve_f64",
            "The only float path: dense f64 products, and backward errors of "
            "the answers make accuracy changes show here and nowhere else.",
            "solve(), f64 ring, dense uniform(-1,1) and small ints as floats "
            "alternating, scalar parts dominant (A positive, B negative), "
            "n=4..6, two signatures per n",
            F64_WEIGHTS, 32, FLOAT64, [_uniform, _float_int], _dominant_pair,
        ),
        Workload(
            "cli_sparse",
            "In-process CLI calls on sparse hand-typed literals up to n=10: "
            "argparse, parse and format dominate at small n, and sparse "
            "operands exercise the product where dense workloads do not.",
            "cli.main(argv), rational ring, 2-6 term literals, n=2..10, three "
            "signatures per n; 125 ops per round: 46 solve (n<=8), 30 det, "
            "30 inverse, 19 charpoly (--generalized at odd n), text and json",
            CLI_WEIGHTS, 24,
            lambda rng, r: _cli_round(rng, CLI_WEIGHTS),
            lambda: _cli_warmups(CLI_WEIGHTS),
        ),
    )
}
