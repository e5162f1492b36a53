"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import gasylv  # noqa: E402
from gasylv import cli, sylvester  # noqa: E402
from gasylv.algebra import RATIONAL, Multivector, Signature  # noqa: E402
from gasylv.serialize import format_multivector  # noqa: E402

import metrics  # noqa: E402
import oracle  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS, CliOp, SolveOp  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _random_mv(rng, sig, density=1.0):
    return Multivector(
        sig,
        [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(sig.ncoeffs)],
        RATIONAL,
    )


def _bindings():
    owners = tracer_mod._NAMESPACES + (Multivector, gasylv.charpoly.CharPolyData)
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_script_of_k_products_counts_exactly_k():
    rng = random.Random(5)
    sig = Signature(2, 2)
    u, v = _random_mv(rng, sig), _random_mv(rng, sig)
    k = 7
    with tracer_mod.Tracer() as t:
        for _ in range(k):
            w = u * v
        w * 3          # scalar right operand: a scale, not a product
        2 * w          # scalar left operand
        w + u - v
    assert t.products == k
    nnz = lambda m: sum(1 for c in m.coeffs if c)  # noqa: E731
    assert t.pair_mults == k * nnz(u) * nnz(v)
    assert t.calls["algebra.linear"] >= 4


def test_wrappers_sit_where_names_are_looked_up_and_are_restored():
    before = _bindings()
    with tracer_mod.Tracer():
        wrapped = [
            sylvester.char_poly, sylvester.generalized_coeffs, sylvester.verify_residual,
            sylvester.conjugate, sylvester.sharp, cli.cp.determinant, cli.sylv.solve,
            cli.parse_multivector, cli.format_multivector, gasylv.solve,
            gasylv.charpoly.char_poly, Multivector.__mul__, Multivector.hat,
        ]
        assert all(getattr(f, "perfbench_span", False) for f in wrapped)
    assert tracer_mod.installed_wrappers() == []
    assert _bindings() == before


def test_no_private_name_is_wrapped():
    with tracer_mod.Tracer() as t:
        names = [name for _, name, _ in t._saved]
    assert names and not [n for n in names if n.startswith("_") and not n.endswith("__")]


def test_untraced_run_installs_no_wrapper(monkeypatch, capsys):
    entered = []
    seen = []
    monkeypatch.setattr(tracer_mod.Tracer, "__enter__", lambda self: entered.append(self))
    real_call = SolveOp.call

    def probing_call(self):
        seen.append(tracer_mod.installed_wrappers())
        return real_call(self)

    monkeypatch.setattr(SolveOp, "call", probing_call)
    assert run.main(["--workload", "solve_f64", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not entered
    assert seen and all(w == [] for w in seen)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}


def test_traced_counts_repeat_exactly_and_wrappers_are_removed():
    w = WORKLOADS["solve_f64"]
    first = run.traced_run(w, 4, 0)[1]
    second = run.traced_run(w, 4, 0)[1]
    assert tracer_mod.installed_wrappers() == []
    assert set(first) == {m.name for m in metrics.LAYERS}
    for layer in metrics.LAYERS:
        if layer.unit in ("count", "bits"):
            assert first[layer.name] == second[layer.name], layer.name
    assert all(first[f"errors.ops.{t}"][0] == 0 for t in metrics.ERROR_TYPES)


@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (2, 1), (1, 3), (3, 2), (0, 6)])
def test_oracle_product_agrees_with_the_program(p, q):
    rng = random.Random(p * 10 + q)
    sig = Signature(p, q)
    alg = oracle.Algebra(p, q)
    for density in (1.0, 0.3):
        u, v = _random_mv(rng, sig, density), _random_mv(rng, sig, density)
        expected = oracle.from_coeffs((u * v).coeffs)
        assert alg.mul(oracle.from_coeffs(u.coeffs), oracle.from_coeffs(v.coeffs)) == expected


@pytest.mark.parametrize("p,q", [(1, 1), (0, 2), (2, 1), (2, 2)])
def test_parity_test_passes_only_nonsingular_problems(p, q):
    rng = random.Random(p * 10 + q)
    sig = Signature(p, q)
    certified = refused = 0
    for _ in range(300):
        a, b, c = (
            Multivector(sig, [Fraction(rng.randint(-1, 1), rng.choice((1, 2))) for _ in
                              range(sig.ncoeffs)], RATIONAL)
            for _ in range(3)
        )
        if not oracle.sylvester_det_is_odd(a.coeffs, b.coeffs):
            continue
        certified += 1
        try:
            sylvester.solve(sylvester.SylvesterProblem(a, b, c))
        except gasylv.SingularProblemError:
            refused += 1
    assert certified > 50 and refused == 0
    assert not oracle.sylvester_det_is_odd(a.coeffs, a.coeffs)


def test_generated_solves_are_nonsingular():
    for name in ("solve_int", "solve_frac"):
        for op in WORKLOADS[name].make_round(random.Random(5), 0):
            assert oracle.sylvester_det_is_odd(op.a.coeffs, op.b.coeffs)
    for op in WORKLOADS["solve_f64"].make_round(random.Random(5), 0):
        a0, *a_rest = op.a.coeffs
        b0, *b_rest = op.b.coeffs
        assert a0 - sum(map(abs, a_rest)) >= 1 and b0 + sum(map(abs, b_rest)) <= -1


def test_oracle_reads_the_program_text_format():
    rng = random.Random(9)
    for n in (3, 10):
        sig = Signature(n - 1, 1)
        coeffs = [0] * sig.ncoeffs
        for mask in rng.sample(range(sig.ncoeffs), 6):
            coeffs[mask] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        u = Multivector(sig, coeffs)
        assert oracle.parse(format_multivector(u)) == oracle.from_coeffs(u.coeffs)


def test_checks_reject_wrong_answers():
    rng = random.Random(2)
    sig = Signature(2, 1)
    op = SolveOp(3, *(_random_mv(rng, sig) for _ in range(3)))
    sol = op.call()
    assert op.check(sol).ok
    bad = sylvester.SylvesterSolution(
        sol.x + Multivector.scalar(sig, 1), sol.q, sol.d, sol.f, sol.method, sol.residual)
    outcome = op.check(bad)
    assert not outcome.ok and outcome.wrong

    cli_op = WORKLOADS["cli_sparse"].generate(1)[0][0]
    assert isinstance(cli_op, CliOp) and cli_op.argv[0] == "solve"
    code, out = cli_op.call()
    assert cli_op.check((code, out)).ok
    tampered = out.replace(")(", ")(1 + ", 1)
    assert tampered != out
    outcome = cli_op.check((code, tampered))
    assert not outcome.ok and outcome.wrong


def test_charpoly_check_wants_the_characteristic_polynomial():
    # B = 1 in Cl(2,0): its characteristic polynomial is (x - 1)^2, so
    # b_1 = 2, b_2 = -1; x^2 - x and x - 1 annihilate B as well.
    op = CliOp(2, (2, 0), ["charpoly", "--signature", "2,0", "--b", "1"],
               {"b": oracle.from_terms({0: 1})})
    code, out = op.call()
    assert code == 0 and op.check((code, out)).ok
    for other in ("b_1 = 1\nb_2 = 0\n", "b_1 = 1\n"):
        outcome = op.check((code, other))
        assert not outcome.ok and outcome.wrong


def test_generated_inputs_depend_only_on_the_seed():
    w = WORKLOADS["cli_sparse"]
    first = [op.argv for op in w.generate(11)[0]]
    assert first == [op.argv for op in w.generate(11)[0]]
    assert first != [op.argv for op in w.generate(12)[0]]


def test_benchmark_json_matches_the_metric_definitions():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in cfg["workloads"]] == list(WORKLOADS)
    assert cfg["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert cfg["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.LAYERS
    ]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
