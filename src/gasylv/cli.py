"""Command-line interface.

Exit codes: 0 success, 1 usage or parse error (non-finite values
included), 2 singular problem or element, 3 internal consistency failure
or float-mode numerical failure (residue above tolerance, overflow).
Flags take precedence over the environment (GASYLV_SCALAR, GASYLV_TOL),
which beats the defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import charpoly as cp
from . import sylvester as sylv
from .algebra import FLOAT64, RATIONAL, Multivector, Signature
from .errors import (
    GasylvError,
    InternalError,
    NumericalDegradationError,
    ParseError,
    ResidualCheckFailedError,
    SingularElementError,
    SingularProblemError,
)
from .serialize import _scalar_str, format_multivector, parse_multivector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract
    # reserves 2 for singular problems.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(sub):
    sub.add_argument(
        "--signature", required=True, metavar="P,Q",
        help="algebra signature, e.g. 1,3",
    )
    sub.add_argument(
        "--scalar", choices=[RATIONAL, FLOAT64], default=None,
        help="scalar ring (default: GASYLV_SCALAR or rational)",
    )
    sub.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt",
    )
    sub.add_argument(
        "--tol", type=float, default=None,
        help="zero-test tolerance (default: GASYLV_TOL or 1e-9)",
    )
    sub.add_argument(
        "--res-tol", type=float, default=None,
        help="float-mode residual acceptance tolerance (default 1e-8)",
    )


def build_parser():
    parser = _Parser(prog="gasylv", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="solve AX - XB = C")
    _add_common(p_solve)
    p_solve.add_argument("--a", required=True, metavar="EXPR")
    p_solve.add_argument("--b", required=True, metavar="EXPR")
    p_solve.add_argument("--c", required=True, metavar="EXPR")
    p_solve.add_argument("--method", choices=sylv.METHODS, default=None)
    p_solve.add_argument(
        "--decimal", action="store_true",
        help="render X with decimal coefficients",
    )

    for name in ("det", "inverse", "charpoly"):
        p = subs.add_parser(name)
        _add_common(p)
        p.add_argument("--b", required=True, metavar="EXPR")
        if name == "charpoly":
            p.add_argument(
                "--generalized", action="store_true",
                help="also print the central coefficients (odd n only)",
            )
        if name == "inverse":
            p.add_argument("--decimal", action="store_true")

    p_bench = subs.add_parser("bench", help="dense-product micro-benchmark")
    p_bench.add_argument(
        "--sizes", default="", metavar="N,N,...",
        help="dimensions to benchmark, e.g. 2,3,4,5",
    )
    p_bench.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt",
    )
    return parser


def _resolve_config(args):
    ring = args.scalar or os.environ.get("GASYLV_SCALAR") or RATIONAL
    if ring not in (RATIONAL, FLOAT64):
        raise ValueError(f"GASYLV_SCALAR must be rational or f64, got {ring!r}")
    tol = args.tol
    if tol is None:
        env = os.environ.get("GASYLV_TOL")
        tol = float(env) if env else cp.DEFAULT_ZERO_TOL
    res_tol = args.res_tol if args.res_tol is not None else sylv.DEFAULT_RESIDUAL_TOL
    if not (0 < tol < math.inf and 0 < res_tol < math.inf):
        raise ValueError("tolerances must be positive and finite")
    try:
        p_text, q_text = args.signature.split(",")
        sig = Signature(int(p_text), int(q_text))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad --signature {args.signature!r}: {exc}") from exc
    return sig, ring, tol, res_tol


def _scalar_json(value):
    if isinstance(value, float):
        return value
    return _scalar_str(value)


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_solve(args):
    sig, ring, tol, res_tol = _resolve_config(args)
    a = parse_multivector(args.a, sig, ring)
    b = parse_multivector(args.b, sig, ring)
    c = parse_multivector(args.c, sig, ring)
    sol = sylv.solve(
        sylv.SylvesterProblem(a, b, c), method=args.method,
        tol=tol, res_tol=res_tol,
    )
    decimal = args.decimal or ring == FLOAT64
    if ring == RATIONAL and not args.decimal:
        numerator = format_multivector(sol.x.scale(sol.q))
        denominator = _scalar_str(sol.q)
        x_text = f"(1/{denominator})({numerator})"
    else:
        numerator = format_multivector(sol.x, decimal=True)
        denominator = "1"
        x_text = numerator
    payload = {
        "signature": [sig.p, sig.q],
        "method": sol.method,
        "Q": _scalar_json(sol.q),
        "D": format_multivector(sol.d, decimal=decimal and ring == FLOAT64),
        "F": format_multivector(sol.f, decimal=decimal and ring == FLOAT64),
        "X": {"numerator": numerator, "denominator": denominator},
        "residual": _scalar_json(sol.residual),
    }
    lines = [
        f"signature: Cl({sig.p},{sig.q})",
        f"method: {sol.method}",
        f"Q = {_scalar_str(sol.q)}",
        f"D = {payload['D']}",
        f"F = {payload['F']}",
        f"X = {x_text}",
        f"residual = {sol.residual}",
    ]
    if sol.low_confidence:
        payload["low_confidence"] = True
        lines.append("warning: residual above tolerance (low confidence)")
    _emit(payload, args.fmt, lines)
    return EXIT_OK


def _cmd_det(args):
    sig, ring, tol, _ = _resolve_config(args)
    b = parse_multivector(args.b, sig, ring)
    det = cp.determinant(b, tol)
    payload = {"signature": [sig.p, sig.q], "Det": _scalar_json(det)}
    _emit(payload, args.fmt, [f"Det = {_scalar_str(det)}"])
    return EXIT_OK


def _cmd_inverse(args):
    sig, ring, tol, _ = _resolve_config(args)
    b = parse_multivector(args.b, sig, ring)
    inv = cp.inverse(b, tol)
    decimal = getattr(args, "decimal", False) or ring == FLOAT64
    text = format_multivector(inv, decimal=decimal)
    payload = {"signature": [sig.p, sig.q], "inverse": text}
    _emit(payload, args.fmt, [f"inverse = {text}"])
    return EXIT_OK


def _cmd_charpoly(args):
    sig, ring, tol, _ = _resolve_config(args)
    b = parse_multivector(args.b, sig, ring)
    data = cp.char_poly(b, tol)
    payload = {
        "signature": [sig.p, sig.q],
        "coeffs": [_scalar_json(c) for c in data.coeffs],
    }
    lines = [
        f"b_{k} = {_scalar_str(c)}"
        for k, c in enumerate(data.coeffs, start=1)
    ]
    if getattr(args, "generalized", False):
        if sig.dim % 2 == 0:
            raise ValueError("--generalized requires odd n")
        gen = cp.generalized_coeffs(b)
        payload["generalized"] = [format_multivector(c) for c in gen.coeffs]
        lines += [
            f"b'_{k} = {format_multivector(c)}"
            for k, c in enumerate(gen.coeffs, start=1)
        ]
    _emit(payload, args.fmt, lines)
    return EXIT_OK


def _cmd_bench(args):
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rng = random.Random(0)
    rows = []
    for n in sizes:
        sig = Signature(n, 0)
        u = Multivector(
            sig, [rng.uniform(-1, 1) for _ in range(sig.ncoeffs)], FLOAT64
        )
        v = Multivector(
            sig, [rng.uniform(-1, 1) for _ in range(sig.ncoeffs)], FLOAT64
        )
        # Keep total blade-pair work roughly constant across sizes.
        ops = max(4, 2 ** 14 // (4 ** min(n, 7)))
        start = time.perf_counter()
        for _ in range(ops):
            u * v
        elapsed = time.perf_counter() - start
        rows.append({"n": n, "ops": ops, "ns_per_op": elapsed / ops * 1e9})
    _emit(
        rows,
        args.fmt,
        [
            f"n={row['n']} ops={row['ops']} ns_per_op={row['ns_per_op']:.0f}"
            for row in rows
        ],
    )
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "det": _cmd_det,
    "inverse": _cmd_inverse,
    "charpoly": _cmd_charpoly,
    "bench": _cmd_bench,
}

_ERROR_CODES = (
    (SingularProblemError, EXIT_SINGULAR),
    (SingularElementError, EXIT_SINGULAR),
    (ResidualCheckFailedError, EXIT_INTERNAL),
    (InternalError, EXIT_INTERNAL),
    (NumericalDegradationError, EXIT_INTERNAL),
    (ParseError, EXIT_USAGE),
    (GasylvError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse strips a value of exactly '--' and stores an empty list.
        if any(isinstance(value, list) for value in vars(args).values()):
            parser.error("an option value is missing")
    except SystemExit as exc:
        return int(exc.code or 0)
    fmt = getattr(args, "fmt", "text")
    try:
        return _COMMANDS[args.command](args)
    except tuple(exc for exc, _ in _ERROR_CODES) as exc:
        code = next(c for cls, c in _ERROR_CODES if isinstance(exc, cls))
        if fmt == "json":
            print(json.dumps({
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "exit_code": code,
                }
            }))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
