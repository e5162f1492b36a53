import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from gasylv import (
    FLOAT64,
    RATIONAL,
    METHODS,
    Multivector,
    NonFiniteError,
    NumericalDegradationError,
    ResidualCheckFailedError,
    Signature,
    SignatureMismatchError,
    SingularElementError,
    SingularProblemError,
    SylvesterProblem,
    adjugate,
    char_poly,
    determinant,
    generalized_coeffs,
    inverse,
    load_coeff_lines,
    parse_multivector,
    build_D_general,
    build_F_general,
    reduce_two_term,
    solve,
    solve_closed,
    solve_general,
    solve_general_odd,
    verify_residual,
)
from gasylv import _spinor, sylvester
from gasylv.sylvester import _methods_for
from conftest import all_signatures, assert_char_poly_answers, random_mv
from oracles import brute_force_sylvester

FIXTURES = Path(__file__).parent / "fixtures"


def planted_problem(sig, rng, lo=-4, hi=4):
    """A problem with a known planted solution (may not be the unique one)."""
    a = random_mv(sig, rng, lo, hi)
    b = random_mv(sig, rng, lo, hi)
    x = random_mv(sig, rng, lo, hi)
    return SylvesterProblem(a, b, a * x - x * b), x


def solvable_problem(sig, rng, lo=-4, hi=4):
    """Keep sampling until the default solver accepts the problem."""
    while True:
        prob, _ = planted_problem(sig, rng, lo, hi)
        try:
            solve(prob)
        except SingularProblemError:
            continue
        return prob


class TestSolveBasics:
    def test_trivial_solution(self, rng):
        # C = A - B forces X = e whenever the problem is non-singular.
        for sig in all_signatures(5):
            a = random_mv(sig, rng, -3, 3)
            b = random_mv(sig, rng, -3, 3)
            e = Multivector.scalar(sig, 1)
            try:
                sol = solve(SylvesterProblem(a, b, a - b))
            except SingularProblemError:
                continue
            assert sol.x == e
            assert sol.residual == 0

    def test_default_method_per_dimension(self, rng):
        expected = {1: "closed_n1", 2: "closed_n2", 3: "closed_n3",
                    4: "closed_n4_v2", 5: "closed_n5",
                    6: "general", 7: "general_odd"}
        for n, method in expected.items():
            sig = Signature(n, 0)
            prob = solvable_problem(sig, rng, -2, 2)
            assert solve(prob).method == method

    def test_solution_satisfies_equation(self, rng):
        for sig in all_signatures(5):
            for _ in range(5):
                prob, _ = planted_problem(sig, rng)
                try:
                    sol = solve(prob)
                except SingularProblemError:
                    continue
                assert prob.a * sol.x - sol.x * prob.b == prob.c

    def test_singular_central_problem(self):
        # A = B = 2e makes AX - XB identically zero.
        sig = Signature(2, 1)
        two = Multivector.scalar(sig, 2)
        prob = SylvesterProblem(two, two, Multivector.scalar(sig, 1))
        with pytest.raises(SingularProblemError) as err:
            solve(prob)
        assert err.value.q == 0

    def test_unknown_method(self, rng):
        prob, _ = planted_problem(Signature(2, 0), rng)
        with pytest.raises(ValueError):
            solve(prob, method="closed_n7")

    def test_variant_dimension_mismatch(self, rng):
        prob, _ = planted_problem(Signature(2, 0), rng)
        with pytest.raises(ValueError):
            solve_closed(prob, "closed_n3")
        with pytest.raises(ValueError):
            solve(prob, method="closed_n5")

    def test_odd_solver_rejects_even_n(self, rng):
        prob, _ = planted_problem(Signature(2, 2), rng)
        with pytest.raises(ValueError):
            solve_general_odd(prob)

    def test_operand_compat_enforced(self):
        a = Multivector.scalar(Signature(1, 1), 1)
        b = Multivector.scalar(Signature(2, 0), 1)
        with pytest.raises(SignatureMismatchError):
            SylvesterProblem(a, b, a)

    def test_scaling_covariance(self, rng):
        sig = Signature(1, 2)
        prob = solvable_problem(sig, rng)
        lam = Fraction(7, 3)
        scaled = SylvesterProblem(prob.a, prob.b, prob.c.scale(lam))
        assert solve(scaled).x == solve(prob).x.scale(lam)


class TestMethodAgreement:
    def test_all_applicable_methods_agree(self, rng):
        for sig in all_signatures(6):
            methods = _methods_for(sig.dim)
            for _ in range(3):
                prob = solvable_problem(sig, rng, -3, 3)
                xs = {}
                for m in methods:
                    # Each method assembles its own D, which can be
                    # singular even when another method's is not.
                    try:
                        xs[m] = solve(prob, method=m).x
                    except SingularProblemError:
                        continue
                assert xs, sig
                first = next(iter(xs.values()))
                assert all(x == first for x in xs.values()), sig

    def test_brute_force_agreement(self, rng):
        for sig in all_signatures(3):
            for _ in range(5):
                prob = solvable_problem(sig, rng)
                oracle = brute_force_sylvester(prob)
                assert oracle is not None
                assert solve(prob).x == oracle


class TestSingularVerdicts:
    def test_general_odd_fallback_on_a_false_singular_d(self):
        # Cl(1,0) is R + R; A = e1 is (1, -1) and B = -e1 is (-1, 1), so
        # phi_B(A) = (A - 1)(A + 1) vanishes although A - B = 2e1 is
        # invertible.  The central recursion solves it.
        sig = Signature(1, 0)
        a = parse_multivector("e1", sig, RATIONAL)
        prob = SylvesterProblem(a, -a, Multivector.scalar(sig, 1))
        sol = solve(prob, method="general")
        assert sol.method == "general_odd"
        assert sol.x == parse_multivector("1/2e1", sig, RATIONAL)
        odd = solve(prob, method="general_odd")
        assert (sol.q, sol.d, sol.f) == (odd.q, odd.d, odd.f)

    def test_every_method_agrees_with_the_oracle(self, rng):
        # A verdict of "singular" must not depend on the method: for each
        # problem, every method that accepts n is singular exactly when
        # Gaussian elimination finds no unique solution.  B = A and
        # B = gAg^-1 are singular; B = gAg^-1 + 1 is near them.
        for sig in all_signatures(4):
            problems = []
            for _ in range(24):
                a, b, c = (random_mv(sig, rng, -2, 2) for _ in range(3))
                problems.append(SylvesterProblem(a, b, c))
            for _ in range(2):
                a, g, c = (random_mv(sig, rng, -2, 2) for _ in range(3))
                try:
                    g_inv = inverse(g)
                except SingularElementError:
                    continue
                conj = g * a * g_inv
                one = Multivector.scalar(sig, 1)
                for b in (a, conj, conj + one):
                    problems.append(SylvesterProblem(a, b, c))
            for prob in problems:
                oracle = brute_force_sylvester(prob)
                for method in _methods_for(sig.dim):
                    try:
                        x = solve(prob, method=method).x
                    except SingularProblemError:
                        x = None
                    assert x == oracle, (sig, method, prob)


def _gcd_degree(f, g):
    """The degree of gcd(f, g) over Q, coefficients highest first, by
    Euclid's algorithm on Fractions."""
    def strip(poly):
        while poly and poly[0] == 0:
            poly.pop(0)
        return poly

    f, g = strip([Fraction(c) for c in f]), strip([Fraction(c) for c in g])
    while g:
        while len(f) >= len(g):
            factor = f[0] / g[0]
            f = strip([a - factor * b for a, b in zip(f, g + [0] * (len(f) - len(g)))])
        f, g = g, f
    return len(f) - 1


def _phi(u):
    """The characteristic polynomial of u, highest coefficient first."""
    return [1, *(-c for c in char_poly(u).coeffs)]


def _sparse(sig, rng, scalar, terms):
    return Multivector.from_terms(sig, {
        0: scalar, **{rng.randrange(1, sig.ncoeffs): rng.choice((-2, -1, 1, 2))
                      for _ in range(terms)},
    })


class TestResultantInverse:
    """The exact recursions invert D = phi_B(A) through Res(phi_A, phi_B)
    and its cofactor, per block of the spinor images for general_odd."""

    @staticmethod
    def _q(prob, method):
        try:
            return sylvester._solve(prob, method).q
        except SingularProblemError as exc:
            return exc.q

    @pytest.fixture(params=["blades", "matrices"])
    def kernel(self, request, monkeypatch):
        # The resultant route runs on the matrices, which small or sparse
        # operands reach only when the rule is set aside.
        if request.param == "matrices":
            monkeypatch.setattr(_spinor, "pays_off", lambda a, b: True)
        return request.param

    def test_q_is_zero_exactly_when_phi_a_and_phi_b_share_a_factor(self, rng, kernel):
        # For general, Q = 0 exactly when gcd(phi_A, phi_B) != 1; for
        # general at n = 2, 4 and general_odd at n = 3, exactly when
        # Gaussian elimination finds the problem singular.  B = A and
        # B = e1 A e1**-1 share every eigenvalue; the sparse pairs kept
        # share some.
        seen = Counter()
        for sig in all_signatures(4, 2):
            c = random_mv(sig, rng, -2, 2)
            problems = []
            for _ in range(6):
                a, b = (random_mv(sig, rng, -2, 2) for _ in range(2))
                e1 = Multivector.blade(sig, 1)
                problems += [(a, b), (a, a), (a, e1 * a * e1 * (e1 * e1).scalar_part())]
            for _ in range(200):
                a, b = (_sparse(sig, rng, rng.randint(-2, 2), 2) for _ in range(2))
                if _gcd_degree(_phi(a), _phi(b)) and _phi(a) != _phi(b):
                    problems.append((a, b))
            for a, b in problems:
                prob = SylvesterProblem(a, b, c)
                shared = _gcd_degree(_phi(a), _phi(b)) > 0
                assert (self._q(prob, "general") == 0) == shared, prob
                method = "general_odd" if sig.dim % 2 else "general"
                singular = brute_force_sylvester(prob) is None
                assert (self._q(prob, method) == 0) == singular, prob
                seen[sig.dim, shared, singular] += 1
        for n in (2, 3, 4):
            assert seen[n, True, True] and seen[n, False, False]
        # At odd n phi_B(A) can vanish across the two blocks.
        assert seen[3, True, False]

    def test_degree_gaps_give_the_char_poly_answers(self, rng, kernel, inversions):
        # phi_B - phi_A drops 2 or more degrees below phi_A when A and B
        # share their first coefficients: sparse pairs with one scalar
        # part, two of each drop 2 and >= 3 per signature.  B = s + x e_ab
        # with (e_ab)**2 = -1 has the repeated eigenvalues s +- xi, and
        # B = s + e1 + e12 a nilpotent part on a repeated s.  The
        # remainder sequence then skips degrees.
        drops = Counter()
        for sig in all_signatures(6, 2):
            pairs, kept = [], Counter()
            for _ in range(300):
                a, b = _sparse(sig, rng, 1, 2), _sparse(sig, rng, 1, 2)
                diff = [x - y for x, y in zip(_phi(a), _phi(b))]
                drop = min(3, next((k for k, x in enumerate(diff) if x), 0))
                if drop and kept[drop] < 2:
                    kept[drop] += 1
                    pairs.append((a, b))
            drops.update(kept)
            twelve = Multivector.blade(sig, 0b11)
            one = Multivector.scalar(sig, 1)
            if (twelve * twelve).scalar_part() < 0:
                pairs.append((_sparse(sig, rng, 1, 3), one + twelve.scale(2)))
            if sig.p >= 2:
                nilpotent = Multivector.blade(sig, 1) + twelve
                pairs.append((_sparse(sig, rng, 1, 3), one + nilpotent))
            for a, b in pairs:
                prob = SylvesterProblem(a, b, random_mv(sig, rng, -2, 2))
                for method in ("general", "general_odd")[:1 + sig.dim % 2]:
                    try:
                        sylvester._solve(prob, method)
                    except SingularProblemError:
                        pass
        assert drops[2] >= 20 and drops[3] >= 20
        assert_char_poly_answers(inversions)


class TestGeneralAssembly:
    def test_d_with_zero_b(self, rng):
        # phi_0(A) = A**N.
        sig = Signature(2, 1)
        a = random_mv(sig, rng, -3, 3)
        zero = Multivector.zero(sig)
        assert build_D_general(a, zero) == a ** sig.charpoly_degree

    def test_f_with_zero_b(self, rng):
        sig = Signature(2, 1)
        a = random_mv(sig, rng, -3, 3)
        c = random_mv(sig, rng, -3, 3)
        zero = Multivector.zero(sig)
        assert build_F_general(a, zero, c) == a ** (sig.charpoly_degree - 1) * c

    def test_zero_a_reduces_to_adjugate(self, rng):
        # With A = 0: D = Det(B) e and F = -C Adj(B).
        for sig in [Signature(1, 1), Signature(2, 1), Signature(1, 3)]:
            b = random_mv(sig, rng, -3, 3)
            c = random_mv(sig, rng, -3, 3)
            zero = Multivector.zero(sig)
            assert build_D_general(zero, b) == Multivector.scalar(sig, determinant(b))
            assert build_F_general(zero, b, c) == -(c * adjugate(b))

    def test_d_annihilates_b_side(self, rng):
        # D X - X' pattern: phi_B(B) = 0 by Cayley-Hamilton.
        sig = Signature(1, 2)
        b = random_mv(sig, rng, -3, 3)
        assert build_D_general(b, b).is_zero()


def _frac_mv(sig, rng):
    return Multivector(sig, [
        Fraction(rng.randint(-7, 7), rng.randint(1, 7)) for _ in range(sig.ncoeffs)
    ])


_CLOSED = [m for m in METHODS if m.startswith("closed_")]


class TestClosedFormsAreTheRecursion:
    # A closed form states the differences B_(k) - c_(k) as conjugation
    # products of B; they are those of the full recursion at even n and
    # of the central one at odd n, and so are the coefficients.
    def test_differences_and_coefficients(self, rng):
        for sig in all_signatures(5):
            closed = [m for m in _methods_for(sig.dim) if m in _CLOSED]
            for make in (random_mv, _frac_mv):
                for _ in range(3):
                    b = make(sig, rng)
                    if sig.dim % 2:
                        ref = generalized_coeffs(b)
                        coeffs = ref.coeffs
                    else:
                        ref = char_poly(b)
                        coeffs = tuple(Multivector.scalar(sig, c) for c in ref.coeffs)
                    for method in closed:
                        got = sylvester._coefficients(b, method)
                        assert got == (coeffs, ref.differences), (sig, method)

    def test_d_and_f_are_those_of_the_recursion(self, rng):
        for sig in all_signatures(5):
            recursion = "general_odd" if sig.dim % 2 else "general"
            for den_a, den_b in ((1, 1), (5, 3)):
                prob = solvable_problem(sig, rng, -3, 3)
                prob = SylvesterProblem(prob.a / den_a, prob.b / den_b, prob.c)
                try:
                    ref = solve(prob, method=recursion)
                except SingularProblemError:
                    continue
                for method in _methods_for(sig.dim):
                    if method in _CLOSED:
                        sol = solve(prob, method=method)
                        assert (sol.d, sol.f, sol.x) == (ref.d, ref.f, ref.x)

    def test_solve_closed_refuses_the_recursions(self, rng):
        prob, _ = planted_problem(Signature(2, 1), rng)
        for method in ("general", "general_odd"):
            with pytest.raises(ValueError):
                solve_closed(prob, method)

    @pytest.mark.parametrize("method, most", [
        ("closed_n4_v1", 28), ("closed_n4_v2", 28), ("closed_n5", 31),
    ])
    def test_products_per_dense_solve(self, rng, monkeypatch, method, most):
        # Multivector x Multivector products of one dense solve, the
        # residual check included; a scalar factor only scales.
        sig = Signature(2, 3 if method == "closed_n5" else 2)
        prob = SylvesterProblem(*(
            Multivector(sig, [rng.choice((-3, -2, -1, 1, 2, 3))
                              for _ in range(sig.ncoeffs)])
            for _ in range(3)
        ))
        calls = [0]
        mul = Multivector.__mul__

        def counted(u, v):
            calls[0] += isinstance(v, Multivector)
            return mul(u, v)

        monkeypatch.setattr(Multivector, "__mul__", counted)
        solve(prob, method=method)
        assert calls[0] <= most


class TestRegressionFixtures:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_frozen_solutions(self, name):
        meta = dict(
            line.split()
            for line in (FIXTURES / name / "meta.txt").read_text().splitlines()
            if line.strip()
        )
        p, q_dim = (int(v) for v in meta["signature"].split(","))
        method = meta["method"]
        sig = Signature(p, q_dim)

        def load(part):
            return load_coeff_lines(
                (FIXTURES / name / f"{part}.txt").read_text(), sig, RATIONAL
            )

        prob = SylvesterProblem(load("a"), load("b"), load("c"))
        sol = solve(prob, method=method)
        assert sol.method == method
        assert sol.q == int((FIXTURES / name / "q.txt").read_text())
        assert sol.d == load("d")
        assert sol.f == load("f")
        assert sol.x.scale(sol.q) == load("x_num")
        assert sol.residual == 0
        # The general recursion reaches the same X independently.
        assert solve(prob, method="general").x == sol.x

    def test_fraction_fixture_every_method(self):
        # Fraction inputs (L > 1): X, and Q, D and F of every applicable
        # method as values of the problem given, not of its scaled form.
        root = FIXTURES / "example3"
        meta = dict(
            line.split(None, 1)
            for line in (root / "meta.txt").read_text().splitlines()
            if line.strip()
        )
        p, q_dim = (int(v) for v in meta["signature"].split(","))
        sig = Signature(p, q_dim)

        def load(path):
            return load_coeff_lines((root / path).read_text(), sig, RATIONAL)

        prob = SylvesterProblem(load("a.txt"), load("b.txt"), load("c.txt"))
        assert any(c.denominator != 1 for c in prob.a.coeffs)
        methods = meta["methods"].split()
        assert methods == ["closed_n5", "general", "general_odd"]
        for method in methods:
            sol = solve(prob, method=method)
            assert sol.method == method
            assert sol.q == Fraction((root / method / "q.txt").read_text().strip())
            assert sol.d == load(f"{method}/d.txt")
            assert sol.f == load(f"{method}/f.txt")
            assert sol.x == load("x.txt")
            assert sol.residual == 0


def _d_degree(method, n):
    """Degree of D (and of F) in (A, B); Q has N times it."""
    big_n = Signature(n, 0).charpoly_degree
    return {
        "closed_n1": 1, "closed_n2": 2, "closed_n3": 2,
        "general": big_n, "general_odd": big_n // 2,
    }.get(method, 4)


class TestIntegerCore:
    def test_reported_values_are_those_of_the_given_problem(self, rng):
        # Dividing an integer problem by L gives the same X, D and F
        # divided by L**d and Q divided by L**(d N): the values of the
        # fraction problem, not of the integer problem it is solved as.
        for sig in all_signatures(5):
            n = sig.dim
            prob = solvable_problem(sig, rng, -3, 3)
            big_l = 6
            frac = SylvesterProblem(
                prob.a / big_l, prob.b / big_l, prob.c / big_l
            )
            for method in _methods_for(n):
                try:
                    whole = solve(prob, method=method)
                except SingularProblemError:
                    continue
                part = solve(frac, method=method)
                scale = Fraction(big_l) ** _d_degree(whole.method, n)
                assert part.method == whole.method, (sig, method)
                assert part.x == whole.x, (sig, method)
                assert part.d == whole.d / scale, (sig, method)
                assert part.f == whole.f / scale, (sig, method)
                assert part.q == whole.q / scale ** sig.charpoly_degree
                assert part.residual == 0

    def test_mixed_denominators(self, rng):
        sig = Signature(1, 2)
        a = parse_multivector("1/2 + 2/3e1 - e23", sig, RATIONAL)
        b = parse_multivector("-3/4 + 1/5e12", sig, RATIONAL)
        c = parse_multivector("1/7e3 - 2", sig, RATIONAL)
        prob = SylvesterProblem(a, b, c)
        for method in _methods_for(sig.dim):
            x = solve(prob, method=method).x
            assert a * x - x * b == c
            assert x == brute_force_sylvester(prob)

    def test_products_multiply_integers_only(self, rng, monkeypatch):
        # A rational problem is solved as integers: under every method,
        # with int and k/d operands, dense and sparse, each blade product
        # multiplies elements (or scalars) without a denominator.
        mul, dens = Multivector.__mul__, set()

        def spy(u, v):
            dens.add(u._den)
            dens.add(v._den if isinstance(v, Multivector) else Fraction(v).denominator)
            return mul(u, v)

        draws = (
            lambda: rng.randint(-3, 3),
            lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 7)),
        )
        problems = []
        for n in range(1, 8):
            sig = Signature(n - n // 2, n // 2)
            for draw in draws:
                dense = [Multivector(sig, [draw() for _ in range(sig.ncoeffs)])
                         for _ in range(3)]
                sparse = [Multivector.from_terms(sig, {
                    0: draw(), **{rng.randrange(sig.ncoeffs): draw() for _ in range(4)}
                }) for _ in range(3)]
                problems += [(n, SylvesterProblem(*u)) for u in (dense, sparse)]
        monkeypatch.setattr(Multivector, "__mul__", spy)
        for n, prob in problems:
            for method in _methods_for(n):
                try:
                    solve(prob, method=method)
                except SingularProblemError:
                    pass
        assert dens == {1}

    def test_corrupted_numerator_fails_the_exact_check(self, rng, monkeypatch):
        # The exact check runs on the numerator M before the one
        # division; a wrong M must not get through it on the blades,
        # for int inputs and for k/d ones scaled to ints.
        prob = solvable_problem(Signature(1, 3), rng, -3, 3)
        frac = SylvesterProblem(prob.a / 3, prob.b / 3, prob.c / 5)
        checked = sylvester._exact_x

        def corrupted(a, b, c, m, *rest):
            assert isinstance(m, Multivector)
            return checked(a, b, c, m + Multivector.scalar(m.sig, 1), *rest)

        monkeypatch.setattr(sylvester, "_exact_x", corrupted)
        for p in (prob, frac):
            for method in _methods_for(4):
                with pytest.raises(ResidualCheckFailedError):
                    solve(p, method=method)


class TestResidual:
    def test_zero_for_exact_solution(self, rng):
        sig = Signature(2, 1)
        prob = solvable_problem(sig, rng)
        assert verify_residual(prob, solve(prob).x) == 0

    def test_detects_perturbation(self, rng):
        sig = Signature(2, 0)
        a = parse_multivector("2 + e1", sig, RATIONAL)
        b = parse_multivector("1 + e1", sig, RATIONAL)
        prob = SylvesterProblem(a, b, a - b)
        x = solve(prob).x
        bumped = x + Multivector.scalar(sig, 1)
        # A e - e B = A - B = e, so the residual is exactly 1.
        assert verify_residual(prob, bumped) == 1


class TestFloatMode:
    def _to_float(self, u):
        return Multivector(u.sig, [float(c) for c in u.coeffs], FLOAT64)

    def test_matches_exact_solution(self, rng):
        sig = Signature(1, 3)
        prob = solvable_problem(sig, rng, -3, 3)
        exact = solve(prob).x
        fprob = SylvesterProblem(
            self._to_float(prob.a), self._to_float(prob.b), self._to_float(prob.c)
        )
        fsol = solve(fprob)
        assert not fsol.low_confidence
        for got, want in zip(fsol.x.coeffs, exact.coeffs):
            assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_rejected(self, bad):
        sig = Signature(1, 1)
        one = Multivector.scalar(sig, 1.0, FLOAT64)
        bad_mv = Multivector(sig, [1.0, bad, 0.0, 0.0], FLOAT64)
        for args in ((bad_mv, one, one), (one, bad_mv, one), (one, one, bad_mv)):
            with pytest.raises(NonFiniteError):
                SylvesterProblem(*args)

    def test_non_finite_residual_is_flagged(self):
        # Q overflows to inf and so does the numerator, so X = inf/inf
        # would be NaN: the answer is refused, which is stricter than
        # the flag that a non-finite residual gets.
        sig = Signature(1, 0)
        a = Multivector(sig, [1e155, 1.0], FLOAT64)
        b = Multivector(sig, [0.0, 1.0], FLOAT64)
        c = Multivector(sig, [1e300, 0.0], FLOAT64)
        with pytest.raises(NumericalDegradationError):
            solve(SylvesterProblem(a, b, c))

    def test_infinite_residual_is_flagged(self):
        # X = 1e308 is right, but AX - XB - C overflows to inf, and so
        # does the bound 1e-8 (1 + |A||X| + |X||B|); inf <= inf must not
        # pass as confident.
        sig = Signature(1, 0)
        a, b, c = (Multivector.scalar(sig, v, FLOAT64) for v in (2.0, 1.0, 1e308))
        sol = solve(SylvesterProblem(a, b, c))
        assert sol.x == c
        assert sol.residual == math.inf
        assert sol.low_confidence

    @pytest.mark.parametrize("sig, a, b", [
        (Signature(1, 0), 1e200, 0.0), (Signature(2, 1), 1e100, 1.0),
    ], ids=repr)
    def test_overflow_is_refused_or_flagged(self, sig, a, b):
        # An overflow of D or Q is the method's numerical failure, never
        # the NonFiniteError of a non-finite input: every method refuses
        # it, the closed forms as the recursions do.
        prob = SylvesterProblem(*(
            Multivector.scalar(sig, v, FLOAT64) for v in (a, b, 1.0)
        ))
        for method in _methods_for(sig.dim):
            with pytest.raises(NumericalDegradationError):
                solve(prob, method=method)

    @pytest.mark.parametrize("scale", [1e80, 1e100, 1e200])
    def test_overflow_of_b_is_named_not_nan(self, rng, scale):
        # A huge dense B overflows char_poly(B), and inf - inf leaves nan
        # in its last iterate: every n = 5 method names the overflow.
        sig = Signature(3, 2)
        a, b, c = (
            Multivector(sig, [rng.uniform(-1, 1) for _ in range(32)], FLOAT64)
            for _ in range(3)
        )
        prob = SylvesterProblem(a, b.scale(scale), c)
        for method in _methods_for(5):
            with pytest.raises(NumericalDegradationError, match="overflows") as info:
                solve(prob, method=method)
            assert "nan" not in str(info.value)

    def test_float_singular_detection(self):
        sig = Signature(1, 2)
        two = Multivector.scalar(sig, 2.0, FLOAT64)
        prob = SylvesterProblem(two, two, Multivector.scalar(sig, 1.0, FLOAT64))
        with pytest.raises(SingularProblemError):
            solve(prob)


class TestReduceTwoTerm:
    def test_scalar_example(self):
        # 2 X + X (-1)... K=2e, L=e, M=e, Nq=-e, P=3e gives X = 3e.
        sig = Signature(0, 2)
        e = Multivector.scalar(sig, 1)
        prob = reduce_two_term(e.scale(2), e, e, -e, e.scale(3))
        assert solve(prob).x == e.scale(3)

    def test_quaternion_substitution(self, rng):
        # Cl(0,2) is the quaternions; verify K X L + M X Nq = P directly.
        sig = Signature(0, 2)
        for _ in range(10):
            k = random_mv(sig, rng, -4, 4)
            l = random_mv(sig, rng, 1, 4)
            m = random_mv(sig, rng, 1, 4)
            nq = random_mv(sig, rng, -4, 4)
            p = random_mv(sig, rng, -4, 4)
            try:
                prob = reduce_two_term(k, l, m, nq, p)
                x = solve(prob).x
            except SingularProblemError:
                continue
            assert k * x * l + m * x * nq == p

    def test_higher_dimension(self, rng):
        sig = Signature(1, 3)
        for _ in range(3):
            k = random_mv(sig, rng, -3, 3)
            l = random_mv(sig, rng, 1, 3)
            m = random_mv(sig, rng, 1, 3)
            nq = random_mv(sig, rng, -3, 3)
            p = random_mv(sig, rng, -3, 3)
            try:
                prob = reduce_two_term(k, l, m, nq, p)
                x = solve(prob).x
            except SingularProblemError:
                continue
            assert k * x * l + m * x * nq == p


def test_method_constants_exposed():
    assert set(METHODS) == {
        "closed_n1", "closed_n2", "closed_n3", "closed_n4_v1",
        "closed_n4_v2", "closed_n5", "general", "general_odd",
    }
