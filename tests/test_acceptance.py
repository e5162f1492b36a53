"""Acceptance suite.

One test per acceptance criterion; `pytest -v` prints one pass/fail
line per criterion.  All random draws use fixed seeds so the suite is
deterministic.
"""

import random
from pathlib import Path

import pytest

from gasylv import (
    RATIONAL,
    Multivector,
    Signature,
    SingularElementError,
    SingularProblemError,
    SylvesterProblem,
    adjugate,
    center_project,
    closed_form_det,
    conjugate,
    determinant,
    generalized_coeffs,
    grade_project,
    inverse,
    load_coeff_lines,
    scalar_via_conjugations,
    solve,
)
from gasylv.sylvester import _methods_for
from conftest import all_signatures, random_mv, random_sparse_mv
from oracles import brute_force_sylvester

FIXTURES = Path(__file__).parent / "fixtures"

EXAMPLE1_Q = 818014056354052817
EXAMPLE2_Q = 269517633593422176823514562560


def _load_example(name):
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
        for part in ("a", "b", "c", "d", "f", "x_num")
    }
    parts["q"] = int((FIXTURES / name / "q.txt").read_text())
    parts["method"] = meta["method"]
    parts["sig"] = sig
    return parts


def _check_example(name, expected_q, extra_methods):
    ex = _load_example(name)
    prob = SylvesterProblem(ex["a"], ex["b"], ex["c"])
    sol = solve(prob, method=ex["method"])
    assert ex["q"] == expected_q
    assert sol.q == expected_q
    assert sol.d == ex["d"]
    assert sol.f == ex["f"]
    assert sol.x.scale(sol.q) == ex["x_num"]
    assert sol.residual == 0
    for method in extra_methods:
        assert solve(prob, method=method).x == sol.x


def test_criterion_1_worked_example_cl13_bit_exact():
    """Criterion 1: the Cl(1,3) worked example reproduces bit-exactly
    (Q, D, F and the X numerator), and the other n=4 methods agree."""
    _check_example("example1", EXAMPLE1_Q, ["closed_n4_v1", "general"])


def test_criterion_2_worked_example_cl41_bit_exact():
    """Criterion 2: the Cl(4,1) worked example reproduces bit-exactly,
    and both general recursions reach the same X."""
    _check_example("example2", EXAMPLE2_Q, ["general", "general_odd"])


def test_criterion_3_determinant_oracle_equivalence():
    """Criterion 3: the recursive determinant equals the per-dimension
    closed form on 100 random elements per signature, all n <= 5."""
    rng = random.Random(301)
    for sig in all_signatures(5):
        for _ in range(100):
            b = random_mv(sig, rng, -9, 9)
            assert determinant(b) == closed_form_det(b), sig


def test_criterion_4_method_agreement():
    """Criterion 4: on 50 solvable problems per signature, n <= 6, every
    applicable method that accepts the problem returns the same X."""
    rng = random.Random(302)
    for sig in all_signatures(6):
        methods = _methods_for(sig.dim)
        done = 0
        while done < 50:
            a = random_mv(sig, rng, -3, 3)
            b = random_mv(sig, rng, -3, 3)
            x = random_mv(sig, rng, -3, 3)
            prob = SylvesterProblem(a, b, a * x - x * b)
            xs = {}
            for method in methods:
                try:
                    xs[method] = solve(prob, method=method).x
                except SingularProblemError:
                    continue
            if not xs:
                continue
            first = next(iter(xs.values()))
            assert all(got == first for got in xs.values()), (sig, sorted(xs))
            done += 1


def test_criterion_5_generalized_coefficients_central():
    """Criterion 5: for 100 random B in each of Cl(4,1) and Cl(2,3),
    every generalized coefficient b'_(1..4) vanishes outside grades 0
    and 5."""
    rng = random.Random(303)
    for sig in [Signature(4, 1), Signature(2, 3)]:
        for _ in range(100):
            b = random_mv(sig, rng, -9, 9)
            gen = generalized_coeffs(b)
            assert len(gen.coeffs) == 4
            for bk in gen.coeffs:
                for k in range(1, 5):
                    assert grade_project(bk, k).is_zero(), sig


# Center-projection formulas: each entry maps a pair of dimensions to
# (composition list, divisor); a composition is the set of conjugations
# applied (they commute, so order is irrelevant).
_CENTER_FORMULAS = {
    (2, 3): ([set(), {"hat", "tilde"}], 2),
    (4, 5): ([set(), {"tilde"}, {"triangle", "hat"},
              {"triangle", "tilde", "hat"}], 4),
    (6, 7): ([set(), {"hat", "tilde"}, {"triangle", "hat"},
              {"triangle", "tilde"}], 4),
    (8, 9): ([set(), {"square", "hat"}, {"tilde"}, {"square", "hat", "tilde"},
              {"triangle"}, {"triangle", "square", "hat"},
              {"triangle", "tilde"},
              {"triangle", "square", "hat", "tilde"}], 8),
    (10, 11): ([set(), {"hat", "tilde"}, {"triangle"},
                {"hat", "tilde", "triangle"}, {"hat", "square"},
                {"tilde", "square"}, {"hat", "triangle", "square"},
                {"tilde", "triangle", "square"}], 8),
    (12, 13): ([set(), {"square", "hat"}, {"tilde"},
                {"square", "hat", "tilde"}, {"triangle", "square"},
                {"triangle", "hat"}, {"triangle", "square", "tilde"},
                {"triangle", "hat", "tilde"}], 8),
    (14, 15): ([set(), {"square", "hat"}, {"square", "tilde"},
                {"hat", "tilde"}, {"triangle", "square"},
                {"triangle", "hat"}, {"triangle", "tilde"},
                {"triangle", "square", "hat", "tilde"}], 8),
}


def _apply_composition(b, kinds):
    out = b
    for kind in kinds:
        out = conjugate(out, kind)
    return out


def _center_formula_value(b):
    for dims, (terms, divisor) in _CENTER_FORMULAS.items():
        if b.sig.dim in dims:
            total = Multivector.zero(b.sig, b.ring)
            for kinds in terms:
                total = total + _apply_composition(b, kinds)
            return total / divisor
    raise AssertionError(f"no formula for n = {b.sig.dim}")


def test_criterion_6_conjugation_identity_suite():
    """Criterion 6: the conjugation family behaves as specified — all
    five kinds are involutions; hat is an automorphism and tilde an
    antiautomorphism (100 pairs per signature, n <= 5); triangle_j
    matches the named operators for j = 1..4; the scalar part is
    reconstructed from conjugations alone; and the closed
    center-projection formulas hold for n = 2..15."""
    rng = random.Random(304)
    # Involutions and scalar reconstruction.
    for sig in all_signatures(5):
        b = random_mv(sig, rng, -9, 9)
        for kind in ("hat", "tilde", "triangle", "square"):
            assert conjugate(conjugate(b, kind), kind) == b
        for j in range(1, 6):
            assert conjugate(conjugate(b, "triangle_j", j), "triangle_j", j) == b
        assert scalar_via_conjugations(b) == b.coeffs[0]
    # (Anti)automorphism laws, 100 pairs per signature.
    for sig in all_signatures(5):
        for _ in range(100):
            u = random_mv(sig, rng, -6, 6)
            v = random_mv(sig, rng, -6, 6)
            assert conjugate(u * v, "hat") == \
                conjugate(u, "hat") * conjugate(v, "hat")
            assert conjugate(u * v, "tilde") == \
                conjugate(v, "tilde") * conjugate(u, "tilde")
    # triangle_j indexing matches the named operators.
    for sig in [Signature(4, 4), Signature(8, 1)]:
        b = random_mv(sig, rng, -9, 9)
        for j, kind in enumerate(("hat", "tilde", "triangle", "square"), 1):
            assert conjugate(b, "triangle_j", j) == conjugate(b, kind)
    # Center-projection formulas: dense elements for n <= 9.
    for sig in all_signatures(9, min_dim=2):
        for _ in range(5):
            b = random_mv(sig, rng, -9, 9)
            assert _center_formula_value(b) == center_project(b), sig
    # Sparse spot checks for n = 10..15.
    for n in range(10, 16):
        for sig in [Signature(n, 0), Signature(n // 2, n - n // 2)]:
            for _ in range(3):
                b = random_sparse_mv(sig, rng, 24)
                assert _center_formula_value(b) == center_project(b), sig


def test_criterion_7_brute_force_uniqueness():
    """Criterion 7: for 50 problems per signature, n <= 3, the solver's
    X matches the unique solution of the dense 2**n x 2**n linear
    system, and singular verdicts coincide."""
    rng = random.Random(305)
    for sig in all_signatures(3):
        for _ in range(50):
            a = random_mv(sig, rng, -5, 5)
            b = random_mv(sig, rng, -5, 5)
            x = random_mv(sig, rng, -5, 5)
            prob = SylvesterProblem(a, b, a * x - x * b)
            oracle = brute_force_sylvester(prob)
            try:
                got = solve(prob).x
            except SingularProblemError:
                # The solver may only reject problems whose linear
                # system is genuinely singular.
                assert oracle is None, sig
                continue
            assert oracle is not None, sig
            assert got == oracle, sig


def test_criterion_8_adjugate_and_inverse_identities():
    """Criterion 8: B Adj(B) = Det(B) e, and when Det(B) != 0 the
    computed inverse satisfies B**-1 B = B B**-1 = e; 100 random
    elements per signature, n <= 6."""
    rng = random.Random(306)
    for sig in all_signatures(6):
        e = Multivector.scalar(sig, 1)
        for _ in range(100):
            b = random_mv(sig, rng, -5, 5)
            det = determinant(b)
            det_mv = Multivector.scalar(sig, det)
            adj = adjugate(b)
            assert b * adj == det_mv, sig
            assert adj * b == det_mv, sig
            if det == 0:
                with pytest.raises(SingularElementError):
                    inverse(b)
                continue
            inv = inverse(b)
            assert b * inv == e, sig
            assert inv * b == e, sig
