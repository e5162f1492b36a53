import argparse
import contextlib
import hashlib
import io
import json
import random
import runpy
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasylv import (
    FLOAT64,
    RATIONAL,
    Multivector,
    Signature,
    determinant,
    format_multivector,
    load_coeff_lines,
    parse_multivector,
)
from gasylv.cli import build_parser, main
from gasylv.sylvester import METHODS, _methods_for

FIXTURES = Path(__file__).parent / "fixtures"


def load_example(name):
    meta = dict(
        line.split()
        for line in (FIXTURES / name / "meta.txt").read_text().splitlines()
        if line.strip()
    )
    p, q = (int(v) for v in meta["signature"].split(","))
    sig = Signature(p, q)
    parts = {
        part: load_coeff_lines(
            (FIXTURES / name / f"{part}.txt").read_text(), sig, RATIONAL
        )
        for part in ("a", "b", "c", "x_num")
    }
    parts["q"] = (FIXTURES / name / "q.txt").read_text().strip()
    parts["method"] = meta["method"]
    parts["sig"] = sig
    return parts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_fixtures_json(self, capsys, name):
        ex = load_example(name)
        sig = ex["sig"]
        code, out, _ = run(
            capsys, "solve",
            "--signature", f"{sig.p},{sig.q}",
            "--a", format_multivector(ex["a"]),
            "--b", format_multivector(ex["b"]),
            "--c", format_multivector(ex["c"]),
            "--method", ex["method"],
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "signature", "method", "Q", "D", "F", "X", "residual",
        }
        assert payload["signature"] == [sig.p, sig.q]
        assert payload["method"] == ex["method"]
        assert payload["Q"] == ex["q"]
        assert payload["residual"] == "0"
        numerator = parse_multivector(payload["X"]["numerator"], sig, RATIONAL)
        assert numerator == ex["x_num"]
        assert payload["X"]["denominator"] == ex["q"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_dense_n5_default_is_the_recursion(self, capsys, fmt):
        # Dense exact operands at n = 5 run general_odd on the spinor
        # matrices by default.  It prints the Q, D, F and X of closed_n5,
        # the fixture's Q = Det(D): only the method differs.  Sparse
        # literals keep closed_n5.
        ex = load_example("example2")
        sig = ex["sig"]
        assert sig.dim == 5
        argv = [
            "solve",
            "--signature", f"{sig.p},{sig.q}",
            "--a", format_multivector(ex["a"]),
            "--b", format_multivector(ex["b"]),
            "--c", format_multivector(ex["c"]),
            "--format", fmt,
        ]
        printed = {}
        for method, chosen in (("general_odd", []), ("closed_n5", ["--method", "closed_n5"])):
            code, out, _ = run(capsys, *argv, *chosen)
            assert code == 0
            if fmt == "json":
                payload = json.loads(out)
                assert payload.pop("method") == method
                assert Fraction(payload["Q"]) == Fraction(ex["q"])
            else:
                payload = out.splitlines()
                payload.remove(f"method: {method}")
                assert f"Q = {ex['q']}" in payload
            printed[method] = payload
        assert printed["general_odd"] == printed["closed_n5"]
        code, out, _ = run(
            capsys, "solve", "--signature", "3,2",
            "--a", "2 + e1 - e24", "--b", "-1 + e12 + 3e345", "--c", "e5",
            "--format", fmt,
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["method"] == "closed_n5"
        else:
            assert "method: closed_n5" in out.splitlines()

    def test_text_output_lines(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--signature", "2,0",
            "--a", "2 + e1", "--b", "1 + e1", "--c", "1",
        )
        assert code == 0
        keys = [line.split(":")[0].split(" =")[0] for line in out.splitlines()]
        assert keys == ["signature", "method", "Q", "D", "F", "X", "residual"]
        assert "X = (1/-3)(-3)" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_fraction_q_x_reads_left_to_right(self, capsys, fmt):
        # A = 3/2, B = 0, C = 1: Q = 9/4 and X = 2/3, printed over the
        # integer numerator of Q.
        code, out, _ = run(
            capsys, "solve", "--signature", "1,0",
            "--a", "3/2", "--b", "0", "--c", "1", "--format", fmt,
        )
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["X"] == {"numerator": "6", "denominator": "9"}
        else:
            assert "Q = 9/4" in out
            assert "X = (1/9)(6)" in out

    def test_singular_exit_code(self, capsys):
        code, out, err = run(
            capsys, "solve", "--signature", "1,1",
            "--a", "2", "--b", "2", "--c", "1",
        )
        assert code == 2
        assert "error" in err

    def test_singular_json_error(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--signature", "1,1",
            "--a", "2", "--b", "2", "--c", "1", "--format", "json",
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["type"] == "SingularProblemError"
        assert payload["error"]["exit_code"] == 2

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "solve", "--signature", "2,0",
            "--a", "e9", "--b", "1", "--c", "1",
        )
        assert code == 1

    def test_integer_beyond_the_digit_limit_is_a_parse_error(self, capsys):
        long = "1" * (sys.get_int_max_str_digits() + 1)
        code, out, _ = run(
            capsys, "det", "--signature", "2,0", "--b", long, "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_bad_signature(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--signature", "banana",
            "--a", "1", "--b", "2", "--c", "1",
        )
        assert code == 1

    def test_missing_argument(self, capsys):
        code, _, _ = run(capsys, "solve", "--signature", "2,0", "--a", "1")
        assert code == 1

    def test_method_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "solve", "--signature", "2,0",
            "--a", "2", "--b", "1", "--c", "1", "--method", "closed_n5",
        )
        assert code == 1

    def test_decimal_rendering(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--signature", "2,0",
            "--a", "2 + e1", "--b", "1 + e1", "--c", "1", "--decimal",
        )
        assert code == 0
        assert "X = 1.0" in out

    def test_float_overflow_exit_code(self, capsys):
        # D = phi_B(A) is about 30**16, so its determinant overflows a
        # float: a numerical failure, reported without a traceback.
        code, _, err = run(
            capsys, "solve", "--signature", "4,4", "--scalar", "f64",
            "--a", "30.0 + e1", "--b", "e2", "--c", "e3",
        )
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("method", _methods_for(1))
    def test_float_overflow_of_q_exit_code(self, capsys, method):
        # Q = 1e400 overflows: every method exits 3, the closed form as
        # the recursions; none reports a usage error.
        code, out, err = run(
            capsys, "solve", "--signature", "1,0", "--scalar", "f64",
            "--a", "1" + "0" * 200 + ".0", "--b", "0.0", "--c", "1.0",
            "--method", method,
        )
        assert code == 3
        assert err.startswith("error:")

    def test_infinite_residual_is_flagged(self, capsys):
        # X = 1e308 is right, but its residual and its bound both
        # overflow to inf: the answer is printed with the warning.
        code, out, _ = run(
            capsys, "solve", "--signature", "1,0", "--scalar", "f64",
            "--a", "2.0", "--b", "1.0", "--c", "1" + "0" * 308 + ".0",
        )
        assert code == 0
        assert "residual = inf" in out
        assert "low confidence" in out

    @pytest.mark.parametrize("literal", ["1" + "0" * 400 + ".0", "1/0"])
    def test_non_finite_literal_exit_code(self, capsys, literal):
        code, _, err = run(
            capsys, "solve", "--signature", "1,1", "--scalar", "f64",
            "--a", literal, "--b", "1.0", "--c", "1.0",
        )
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("option", ["--signature=--", "--a=--"])
    def test_double_dash_option_value_exit_code(self, capsys, option):
        # argparse strips a value of exactly '--' and stores an empty list.
        args = {"--signature": "1,1", "--a": "2", "--b": "1", "--c": "1"}
        name = option.split("=")[0]
        argv = ["solve", option] + [
            f"{key}={value}" for key, value in args.items() if key != name
        ]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "option value is missing" in err

    def test_float_scalar_ring(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--signature", "2,0", "--scalar", "f64",
            "--a", "2.0 + e1", "--b", "1.0 + e1", "--c", "1.0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload["Q"], float)
        assert isinstance(payload["residual"], float)


class TestOtherCommands:
    def test_det(self, capsys):
        sig = Signature(2, 0)
        b = parse_multivector("3 + e1 - 2e12", sig, RATIONAL)
        code, out, _ = run(
            capsys, "det", "--signature", "2,0", "--b", "3 + e1 - 2e12",
        )
        assert code == 0
        assert out.strip() == f"Det = {determinant(b)}"

    def test_det_of_zero_float_prints_positive_zero(self, capsys):
        code, out, _ = run(
            capsys, "det", "--signature", "1,1", "--b", "0.0", "--scalar", "f64",
        )
        assert code == 0
        assert out.strip() == "Det = 0.0"

    def test_det_float_overflow_exit_code(self, capsys):
        code, _, err = run(
            capsys, "det", "--signature", "2,0", "--scalar", "f64",
            "--b", "1" + "0" * 200 + ".0 + e1",
        )
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e200])
    def test_det_float_overflow_at_n5_is_named(self, capsys, rng, scale):
        # inf - inf in char_poly's last iterate must not show as nan.
        b = [scale * rng.uniform(-1, 1) for _ in range(32)]
        code, _, err = run(
            capsys, "det", "--signature", "3,2", "--scalar", "f64",
            "--b", format_multivector(Multivector(Signature(3, 2), b, FLOAT64)),
        )
        assert code == 3
        assert err.startswith("error:")
        assert "overflows" in err
        assert "nan" not in err

    def test_inverse(self, capsys):
        code, out, _ = run(
            capsys, "inverse", "--signature", "2,0", "--b", "e1 + e2",
        )
        assert code == 0
        assert out.strip() == "inverse = 1/2e1 + 1/2e2"

    def test_inverse_singular(self, capsys):
        code, _, _ = run(
            capsys, "inverse", "--signature", "1,1", "--b", "e1 + e2",
        )
        assert code == 2

    def test_charpoly(self, capsys):
        code, out, _ = run(
            capsys, "charpoly", "--signature", "1,1", "--b", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["coeffs"] == ["2", "-1"]

    def test_charpoly_generalized(self, capsys):
        code, out, _ = run(
            capsys, "charpoly", "--signature", "2,1", "--b", "1",
            "--generalized", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["generalized"] == ["2", "-1"]

    def test_generalized_rejected_for_even_n(self, capsys):
        code, _, _ = run(
            capsys, "charpoly", "--signature", "1,1", "--b", "1",
            "--generalized",
        )
        assert code == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_answers_beyond_the_int_str_digit_limit(self, capsys, fmt):
        # Det, b_2 and Q are s**2, 4 400 digits: more than str() of an
        # int gives by default.  The exact value is printed, and the
        # interpreter's own limit is left as it was.
        sevens = "7" * 2200
        s = int(sevens)
        limit = sys.get_int_max_str_digits()
        common = ["--signature", "1,0", "--format", fmt]

        def values(*argv):
            code, out, err = run(capsys, *argv, *common)
            assert (code, err) == (0, "")
            if fmt == "json":
                return json.loads(out)
            return dict(
                line.split(" = ", 1)
                for line in out.splitlines() if " = " in line
            )

        assert Decimal(values("det", "--b", sevens)["Det"]) == s * s
        got = values("charpoly", "--b", sevens)
        coeffs = got["coeffs"] if fmt == "json" else [got["b_1"], got["b_2"]]
        assert [Decimal(c) for c in coeffs] == [2 * s, -s * s]
        got = values("solve", "--a", sevens, "--b", "0", "--c", "1")
        assert Decimal(got["Q"]) == s * s
        if fmt == "json":
            x = got["X"]
            assert Decimal(x["numerator"]) == s
            assert Decimal(x["denominator"]) == s * s
        else:
            assert got["X"] == f"(1/{got['Q']})({sevens})"
        assert sys.get_int_max_str_digits() == limit


_SOLVE_N4 = [
    "solve", "--signature", "2,2", "--a", "2 + e1", "--b", "-3 + e2", "--c", "1 + e3",
]


class TestProgram:
    @pytest.mark.parametrize("command, b, code", [
        ("det", "3 + e1", 0),
        ("inverse", "1 + e1", 2),
    ])
    def test_the_module_exits_with_the_code_of_main(self, capsys, monkeypatch, command, b, code):
        # python -m gasylv.cli, which runs the __main__ guard and entrypoint.
        monkeypatch.delitem(sys.modules, "gasylv.cli")
        argv = [command, "--signature", "2,0", "--b", b]
        monkeypatch.setattr(sys, "argv", ["gasylv", *argv])
        with pytest.raises(SystemExit) as stop:
            runpy.run_module("gasylv.cli", run_name="__main__")
        assert stop.value.code == code
        out, err = capsys.readouterr()
        assert (out, err) == run(capsys, *argv)[1:]


class TestNoStateBetweenCalls:
    """main builds one parser per process; no call leaks into the next."""

    def test_repeated_calls_build_no_parser(self, capsys, monkeypatch):
        calls = [0]
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            calls[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        argvs = [
            _SOLVE_N4,
            ["det", "--signature", "3,2", "--b", "2 + e1"],
            ["inverse", "--signature", "2,0", "--b", "e1 + e2", "--decimal"],
            ["charpoly", "--signature", "2,1", "--b", "1 + e2", "--generalized"],
            ["det", "--signature", "1,1"],
        ]
        main(argvs[0])
        calls[0] = 0
        codes = [main(argvs[k % len(argvs)]) for k in range(20)]
        capsys.readouterr()
        assert calls[0] == 0
        assert codes == [0, 0, 0, 0, 1] * 4
        first = build_parser()
        assert calls[0] > 0
        assert build_parser() is not first

    @pytest.mark.parametrize("before, after", [
        (_SOLVE_N4 + ["--decimal"], _SOLVE_N4),
        (_SOLVE_N4 + ["--format", "json"], _SOLVE_N4),
        (_SOLVE_N4 + ["--method", "general"], _SOLVE_N4),
        (
            ["charpoly", "--signature", "2,1", "--b", "1 + e2", "--generalized"],
            ["charpoly", "--signature", "2,1", "--b", "1 + e2"],
        ),
        (["solve", "--signature", "2,0", "--a", "1"], _SOLVE_N4),
    ])
    def test_second_call_is_as_if_alone(self, capsys, before, after):
        alone = run(capsys, *after)
        run(capsys, *before)
        assert run(capsys, *after) == alone
        code, out, err = alone
        assert (code, err) == (0, "")
        if after[0] == "solve":
            assert "method: closed_n4_v2" in out
            assert "X = (1/" in out
        else:
            assert out.startswith("b_1 = ") and "b'_" not in out

    def test_usage_goes_to_the_current_stderr(self, capsys):
        with contextlib.redirect_stderr(io.StringIO()):
            main(["det", "--signature", "1,1"])
        code, out, err = run(capsys, "det", "--signature", "1,1")
        assert (code, out) == (1, "")
        assert err.startswith("usage: gasylv det")
        assert run(capsys, "det", "--signature", "1,1", "--b", "2")[0] == 0


_TERMS = st.tuples(
    st.sampled_from(["+", "-"]),
    st.sampled_from(["", "0", "1", "2", "7", "3/2", "1/0", "0.5", "2.0"]),
    st.sampled_from(["", "e", "e1", "e2", "e13", "e24", "e1234", "e{1,3}"]),
)
# Mostly well-formed sums of terms, so that many calls get past parsing.
_LITERALS = st.one_of(
    st.text(alphabet="0123456789e{},+-*/. ", max_size=16),
    st.lists(_TERMS, min_size=1, max_size=4).map(
        lambda terms: " ".join(f"{sign} {coef}{blade}" for sign, coef, blade in terms)
    ),
)
_SIGNATURES = st.sampled_from(
    [f"{p},{n - p}" for n in range(1, 5) for p in range(n + 1)]
    + ["", "--", "1", "0,0", "9,8", "-1,2", "1,x", "1,2,3", "1.0,1"]
)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["solve", "det", "inverse", "charpoly"]))
    argv = [command, f"--signature={draw(_SIGNATURES)}"]
    ring = draw(st.sampled_from([None, "rational", "f64"]))
    if ring:
        argv.append(f"--scalar={ring}")
    if draw(st.booleans()):
        argv.append("--format=json")
    names = ["a", "b", "c"] if command == "solve" else ["b"]
    argv += [f"--{name}={draw(_LITERALS)}" for name in names]
    if command in ("solve", "inverse") and draw(st.booleans()):
        argv.append("--decimal")
    if command == "charpoly" and draw(st.booleans()):
        argv.append("--generalized")
    if command == "solve" and draw(st.booleans()):
        argv.append(f"--method={draw(st.sampled_from(METHODS))}")
    return argv


@given(_cli_argv())
@settings(max_examples=200, deadline=None)
def test_fuzz_exits_only_with_documented_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


def _digest_coef(rng, ring):
    """A coefficient magnitude: an integer, 1 (left out before a blade) or
    k/d, and in f64 also a decimal, so that every printed form occurs."""
    kind = rng.randrange(4 if ring == FLOAT64 else 3)
    if kind == 0:
        return str(rng.randint(2, 5))
    if kind == 1:
        return "1"
    if kind == 2:
        return f"{rng.randint(1, 9)}/{rng.randint(2, 6)}"
    return f"{rng.randint(0, 3)}.{rng.choice(['5', '25', '125', '0001', '3'])}"


def _digest_literal(rng, n, ring, count, scalar):
    """The scalar term, then count blades with random signs."""
    terms = [scalar]
    for mask in sorted(rng.sample(range(1, 1 << n), count)):
        indices = [str(i + 1) for i in range(n) if mask >> i & 1]
        blade = "e{" + ",".join(indices) + "}" if n >= 10 else "e" + "".join(indices)
        terms.append(f"{rng.choice('+-')} {_digest_coef(rng, ring)}{blade}")
    return " ".join(terms)


def _digest_runs():
    """The argv of a seeded sweep, twice over n = 2..10: every command,
    text and JSON, and the rational ring plain, with --decimal where the
    command takes it, and f64.  A and B of a solve have scalar parts of
    opposite sign that outweigh their blades, so most solves are
    nonsingular; the other commands take plain sparse elements, some
    singular.  The inputs are literal text: no float sum() enters them."""
    rng = random.Random(27)
    for n in [n for n in range(2, 11) for _ in range(2)]:
        sigs = [(n - n // 2, n // 2), (n, 0), (0, n)]
        for i, command in enumerate(("solve", "det", "inverse", "charpoly")):
            for fmt in ("text", "json"):
                for mode in ("rational", "decimal", "f64"):
                    if mode == "decimal" and command in ("det", "charpoly"):
                        continue
                    ring = FLOAT64 if mode == "f64" else RATIONAL
                    p, q = sigs[(i + n) % 3]
                    argv = [command, "--signature", f"{p},{q}", "--scalar", ring,
                            "--format", fmt]
                    if command == "solve":
                        sign = rng.choice((1, -1))
                        argv += [
                            "--a=" + _digest_literal(rng, n, ring, 2, str(9 * sign)),
                            "--b=" + _digest_literal(rng, n, ring, 2, str(-9 * sign)),
                            "--c=" + _digest_literal(rng, n, ring, rng.randint(1, 3),
                                                     _digest_coef(rng, ring)),
                        ]
                    else:
                        scalar = rng.choice(["-", ""]) + _digest_coef(rng, ring)
                        count = rng.randint(1, 3)
                        argv.append("--b=" + _digest_literal(rng, n, ring, count, scalar))
                    if mode == "decimal":
                        argv.append("--decimal")
                    if command == "charpoly" and n % 2:
                        argv.append("--generalized")
                    yield argv


# sha256 over the argv, exit code and stdout of every call of _digest_runs,
# one per ring: the rational calls (plain and --decimal) and the f64 ones.
CLI_DIGESTS = {
    RATIONAL: "0244854fedbcffef94a4e3b3125c8ebdf39953b1be28c58c0ea3841e034a117c",
    FLOAT64: "e893c574170af9c75b0cbbd6caa1db76571e336fd522716a8b1a0ec1e49b32b2",
}


def test_cli_output_is_pinned_by_digest():
    digests = {RATIONAL: hashlib.sha256(), FLOAT64: hashlib.sha256()}
    for argv in _digest_runs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        ring = argv[argv.index("--scalar") + 1]
        digests[ring].update(f"{argv}\n{code}\n{out.getvalue()}\n".encode())
    assert {ring: d.hexdigest() for ring, d in digests.items()} == CLI_DIGESTS


def test_f64_det_of_a_sparse_n9_element_answers():
    # The 32 f64 Faddeev-LeVerrier steps on the blades of this element
    # left a residue of about 100 (exit 3).  Its blades span r = 2, so 4
    # steps run in that span, and Det = Det_4**8.  The stated bound, 1e-12
    # relative, is above (N/L) L (2**r + 1) 2**-53 ||b||_1**L / |Det_L| =
    # 8 * 4 * 5 * 2**-53 * 4**4 / 14.8 = 3.1e-13.
    text = "-9/6 + 1.25e123459 + 1.25e12479"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["det", "--signature", "9,0", "--scalar", "f64", "--b", text])
    assert code == 0
    det = Fraction(float(out.getvalue().removeprefix("Det = ")))
    exact = determinant(parse_multivector(text.replace("1.25", "5/4"), Signature(9, 0), RATIONAL))
    assert round(float(exact), -6) == 2_337_000_000
    assert abs(det - exact) <= Fraction(1, 10 ** 12) * abs(exact)
