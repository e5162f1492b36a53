"""The spinor-matrix kernel: a faithful homomorphism, verified once per
signature, the same D, F and Q as the blade kernel, the exact check of
its answers on the images, and the rule that chooses between the two."""

import dataclasses
import hashlib
import random
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add

import pytest

from gasylv import (
    FLOAT64,
    RATIONAL,
    InternalError,
    Multivector,
    NumericalDegradationError,
    ResidualCheckFailedError,
    Signature,
    SingularProblemError,
    SylvesterProblem,
    build_D_general,
    build_F_general,
    center_project,
    char_poly,
    format_multivector,
    solve,
    verify_residual,
)
from gasylv import _spinor, sylvester
from gasylv._spinor import SpinorMatrix
from gasylv.cli import main
from conftest import (
    all_signatures,
    assert_char_poly_answers,
    random_mv,
    random_sparse_mv,
)
from oracles import oracle_product, word_product, word_to_mask

SIGNATURES = all_signatures(8) + [
    Signature(5, 4), Signature(2, 7), Signature(5, 5), Signature(3, 7),
]


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
def test_homomorphism_against_the_word_oracle(sig, rng):
    n = sig.dim
    # Generator relations: with them every blade image, a product of
    # generator images, is that of the algebra.
    gens = [SpinorMatrix.of(Multivector.blade(sig, 1 << a)) for a in range(n)]
    for a in range(n):
        for b in range(a, n):
            sign, word = word_product((a + 1,), (b + 1,), sig.p)
            want = Multivector.blade(sig, word_to_mask(word), sign)
            assert (gens[a] * gens[b]).multivector() == want
    # Random products, dense where the oracle is cheap enough.
    for _ in range(3):
        if n <= 4:
            u, v = random_mv(sig, rng), random_mv(sig, rng)
        else:
            u, v = (random_sparse_mv(sig, rng, 8) for _ in range(2))
        got = SpinorMatrix.of(u) * SpinorMatrix.of(v)
        assert got.multivector() == oracle_product(u, v)


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
def test_round_trip_is_exact(sig, rng):
    u = random_mv(sig, rng, -10**30, 10**30)
    m = SpinorMatrix.of(u)
    # The image keeps u; the same blocks alone convert back to it.
    assert m.multivector() is u
    assert m._like(m.blocks).multivector() == u
    assert m.scalar_part() == u.coeffs[0]
    v = random_mv(sig, rng)
    assert (m - SpinorMatrix.of(v)).multivector() == u - v
    assert (m + SpinorMatrix.of(v).scale(3)).multivector() == u + v.scale(3)


def test_a_fraction_element_is_refused():
    # The matrices hold integers; a fraction element enters scaled, and
    # its preimage leaves divided back.
    sig = Signature(3, 3)
    half = Multivector.from_terms(sig, {0: Fraction(1, 2), 5: 1})
    with pytest.raises(InternalError):
        SpinorMatrix.of(half)
    assert sylvester._blades(SpinorMatrix.of(half.scale(2)), 2) == half


@pytest.mark.parametrize("sig", all_signatures(7, 3), ids=repr)
def test_projections_match_the_blade_ones(sig, rng):
    # The recursion's two projections and the scalar constructor.
    u = random_mv(sig, rng)
    m = SpinorMatrix.of(u)
    want = center_project(u) if sig.dim % 2 else u.grade_project(0)
    got = center_project(m) if sig.dim % 2 else m.grade_project(0)
    assert got.multivector() == want
    three = SpinorMatrix.scalar(sig, 3)
    assert (three * m).multivector() == u.scale(3)
    assert (m - three).multivector() == u - Multivector.scalar(sig, 3)
    assert (three - m).multivector() == Multivector.scalar(sig, 3) - u
    assert m.nonscalar_norm() > 0
    assert SpinorMatrix.of(u.grade_project(0)).nonscalar_norm() == 0
    with pytest.raises(ValueError, match="no grade-1 projection of a spinor matrix"):
        m.grade_project(1)


def _dense_problem(sig, rng, kind):
    if kind == "int":
        draw = lambda: rng.randint(-3, 3)  # noqa: E731
    else:
        draw = lambda: Fraction(rng.randint(-7, 7), rng.randint(1, 7))  # noqa: E731
    return SylvesterProblem(*(
        Multivector(sig, [draw() for _ in range(sig.ncoeffs)])
        for _ in range(3)
    ))


def _answer_text(prob):
    """The default solve's method, Q, X, D and F, or its refusal, as text."""
    try:
        sol = solve(prob)
    except SingularProblemError as exc:
        return f"singular {exc.q} {exc.d.coeffs}"
    return f"{sol.method} {sol.q} {sol.x.coeffs} {sol.d.coeffs} {sol.f.coeffs}"


def test_dense_exact_answers_are_pinned_by_digest():
    # One sha256 over the default exact answers of dense int and k/d
    # problems in every signature at n = 5..8 and in Cl(5,4): all run on
    # the spinor matrices, so a change to the kernel that moves any bit
    # of X, Q, D or F shows here.
    rng = random.Random(5)
    digest = hashlib.sha256()
    for sig in all_signatures(8, 5) + [Signature(5, 4)]:
        for kind in ("int", "frac"):
            prob = _dense_problem(sig, rng, kind)
            assert _spinor.pays_off(prob.a, prob.b)
            digest.update(_answer_text(prob).encode())
    assert digest.hexdigest() == (
        "e86b95e8baf3683b950dc924ff356d8fc2d4b88bd8ebbd488d4563a1e6871725"
    )


def _fields(sol):
    return [
        (value, [type(c) for c in getattr(value, "coeffs", [value])])
        for value in (sol.x, sol.q, sol.d, sol.f, sol.method)
    ]


@pytest.mark.parametrize("sig", [
    Signature(3, 3), Signature(2, 4), Signature(4, 3), Signature(3, 4),
], ids=repr)
@pytest.mark.parametrize("kind", ["int", "frac"])
def test_matrix_path_gives_the_blade_answers(sig, kind, rng, monkeypatch):
    prob = _dense_problem(sig, rng, kind)
    assert _spinor.pays_off(prob.a, prob.b)
    methods = [sylvester.GENERAL] + [sylvester.GENERAL_ODD] * (sig.dim % 2)
    matrix = [solve(prob, method) for method in methods]
    if kind == "int" and matrix[0].method == sylvester.GENERAL:
        d = build_D_general(prob.a, prob.b)
        assert matrix[0].d == d
        assert matrix[0].f == build_F_general(prob.a, prob.b, prob.c)
        assert matrix[0].q == char_poly(d).coeffs[-1]
    monkeypatch.setattr(_spinor, "pays_off", lambda a, b: False)
    blade = [solve(prob, method) for method in methods]
    for got, want in zip(matrix, blade):
        assert _fields(got) == _fields(want)


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_solutions_read_alike_on_both_kernels(kind, rng, monkeypatch, capsys):
    # D and F of a solve on the matrices are converted back when first
    # read; the solution has the same fields, ==, repr and CLI output as
    # one computed on blades, and a singular problem the same refusal.
    sig = Signature(3, 3)
    prob = _dense_problem(sig, rng, kind)
    singular = SylvesterProblem(prob.a, prob.a, prob.c)
    argv = ["solve", "--signature", "3,3"] + [
        arg for name, u in zip("abc", (prob.a, prob.b, prob.c))
        for arg in (f"--{name}", format_multivector(u))
    ]

    def answers():
        sol = solve(prob)
        with pytest.raises(SingularProblemError) as refusal:
            solve(singular)
        printed = []
        for fmt in ("text", "json"):
            assert main(argv + ["--format", fmt]) == 0
            printed.append(capsys.readouterr().out)
        return sol, refusal.value, printed

    assert _spinor.pays_off(prob.a, prob.b)
    built, build = [], _spinor._build
    monkeypatch.setattr(_spinor, "_build", lambda *args: built.append(1) or build(*args))
    sol = solve(prob)
    assert len(built) == 1  # the numerator M, for X
    assert sol.d is sol.d and sol.f.sig == sig
    assert len(built) == 3
    matrix, refused, printed = answers()
    assert [f.name for f in dataclasses.fields(matrix)] == [
        "x", "q", "d", "f", "method", "residual", "low_confidence",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        matrix.d = matrix.x
    monkeypatch.setattr(_spinor, "pays_off", lambda a, b: False)
    blade, blade_refused, blade_printed = answers()
    assert matrix == blade and repr(matrix) == repr(blade)
    assert hash(matrix) == hash(blade) and _fields(matrix) == _fields(blade)
    assert (refused.q, refused.d) == (blade_refused.q, blade_refused.d)
    assert refused.q == 0 and isinstance(refused.d, Multivector)
    assert printed == blade_printed


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("kind", ["int", "frac"])
def test_the_kernel_rule_keeps_closed_forms_on_blades(n, kind, rng, monkeypatch):
    # With the matrices allowed from n = 1 in the rational ring, the
    # recursions run on them wherever the operands are dense enough, and
    # the closed forms, which conjugate, stay on blades: every method
    # gives the blade answers.  No coefficient is zero, so from n = 3 on
    # nnz(A) nnz(B) >= 64.
    monkeypatch.setitem(_spinor.MIN_DIM, RATIONAL, 1)
    for sig in (Signature(n - n // 2, n // 2), Signature(n // 2, n - n // 2)):
        given = _dense_problem(sig, rng, kind)
        prob = SylvesterProblem(*(
            Multivector(sig, [c or 1 for c in u.coeffs])
            for u in (given.a, given.b, given.c)
        ))
        assert _spinor.pays_off(prob.a, prob.b) == (n > 2)

        def answers():
            out = []
            for method in sylvester._methods_for(n):
                try:
                    out.append(_fields(solve(prob, method)))
                except SingularProblemError as exc:
                    out.append((type(exc), exc.q, exc.d))
            return out

        matrix = answers()
        with monkeypatch.context() as blades_only:
            blades_only.setattr(_spinor, "pays_off", lambda a, b: False)
            assert answers() == matrix


@pytest.mark.parametrize("p", range(6))
@pytest.mark.parametrize("kind", ["int", "frac"])
def test_dense_exact_n5_defaults_to_the_matrices(p, kind, rng):
    # The default takes general_odd on the spinor matrices: the X, D and
    # F of closed_n5, and Q = -Det(D) where closed_n5 gives Det(D).
    sig = Signature(p, 5 - p)
    for _ in range(5):
        prob = _dense_problem(sig, rng, kind)
        assert _spinor.pays_off(prob.a, prob.b)
        got, closed = solve(prob), solve(prob, sylvester.CLOSED_N5)
        assert got.method == sylvester.GENERAL_ODD
        fields, want = _fields(got), _fields(closed)
        assert [fields[i] for i in (0, 2, 3)] == [want[i] for i in (0, 2, 3)]
        assert got.q == -closed.q and type(got.q) is type(closed.q)


def _bump_pauli_product(monkeypatch, call):
    """Make the call-th _pauli_product (counted from 1) wrong by a sign."""
    product, calls = _spinor._pauli_product, []

    def mutant(u, v):
        x, z, k = product(u, v)
        calls.append(1)
        return x, z, (k + 2 * (len(calls) == call)) & 3

    monkeypatch.setattr(_spinor, "_pauli_product", mutant)


@pytest.mark.parametrize("sig", [
    Signature(3, 3), Signature(2, 4), Signature(4, 3), Signature(3, 4),
], ids=repr)
def test_a_wrong_blade_table_is_refused_when_built(sig, monkeypatch):
    # _Representation is built afresh: _representation's cache is not
    # consulted, so no wrong table is kept after the test.
    _bump_pauli_product(monkeypatch, 0)
    _spinor._Representation(sig)
    for call in (1, 5, sig.ncoeffs - 1):
        _bump_pauli_product(monkeypatch, call)
        with pytest.raises(InternalError, match="blade image"):
            _spinor._Representation(sig)
    # Without its sign term every table above is wrong.
    monkeypatch.setattr(
        _spinor, "_pauli_product",
        lambda u, v: (u[0] ^ v[0], u[1] ^ v[1], (u[2] + v[2]) & 3),
    )
    with pytest.raises(InternalError, match="blade image"):
        _spinor._Representation(sig)


def test_wrong_generator_relations_are_refused():
    sig = Signature(3, 3)  # even n: one block, no generator flips sign
    rep = _spinor._Representation(sig)
    generators = [rep.blades[0][1 << a] for a in range(sig.dim)]
    rep._verify(generators, 0)
    x, z, k = generators[0]
    squares = [(x, z, k + 1)] + generators[1:]
    with pytest.raises(InternalError, match="squares wrongly"):
        rep._verify(squares, 0)
    commutes = generators[:1] + [generators[0]] + generators[2:]
    with pytest.raises(InternalError, match="anticommute"):
        rep._verify(commutes, 0)


def test_a_wrong_unit_image_is_refused():
    sig = Signature(3, 3)
    rep = _spinor._Representation(sig)
    generators = [rep.blades[0][1 << a] for a in range(sig.dim)]
    x, z, k = rep.blades[0][0]
    rep.blades = (((x, z, k + 2),) + rep.blades[0][1:],)  # -1 as the unit
    with pytest.raises(InternalError, match="unit .* wrong image"):
        rep._verify(generators, 0)


def test_two_equal_blocks_are_refused():
    sig = Signature(2, 1)  # odd n, pseudoscalar squares to +1: two blocks
    rep = _spinor._Representation(sig)
    assert rep.count == 2
    generators = [rep.blades[0][1 << a] for a in range(sig.dim)]
    rep.blades = (rep.blades[0], rep.blades[0])
    with pytest.raises(InternalError, match="not told apart"):
        rep._verify(generators, 0)


@pytest.mark.parametrize("sig", [Signature(3, 3), Signature(2, 4)], ids=repr)
def test_only_images_pass_the_round_trip(sig, rng):
    m = SpinorMatrix.of(random_mv(sig, rng))
    assert m.is_image() and SpinorMatrix.scalar(sig, 5).is_image()
    # One entry more: the preimage has a denominator, or (Cl(2,4), whose
    # images are complex) is not real.
    for part in (0, 1):
        (block,) = m.blocks
        entries = list(block[part] or [0] * len(block[0]))
        entries[0] += 1
        bumped = (entries, block[1]) if part == 0 else (block[0], entries)
        assert not m._like((bumped,)).is_image()


def test_central_matrices_and_real_blocks_times_complex_scalars():
    # Cl(1,2) keeps one block, where the pseudoscalar is i times the
    # identity; the image of 1 + 2 e1 is real.
    sig = Signature(1, 2)
    three = SpinorMatrix.scalar(sig, 3)
    assert (three - three).is_zero() and not three.is_zero()
    u = Multivector.from_terms(sig, {0: 1, 1: 2})
    pseudo = Multivector.blade(sig, 7, 3)
    m = SpinorMatrix.of(u)
    (block,) = m.blocks
    assert block[1] is None
    center = center_project(SpinorMatrix.of(pseudo))
    (z,) = center.block_values()
    assert center.center == (z,) and z == _spinor._Gaussian(0, z.imag) and z.imag
    assert not center.is_zero()
    assert (m * center).multivector() == u * pseudo
    assert (center * m).multivector() == pseudo * u
    assert _spinor._block_scaled(([1, 2], None), _spinor._Gaussian(2, 3)) == ([2, 4], [3, 6])
    # Cl(2,1) keeps two blocks, told apart by the pseudoscalar: one value
    # stands for both, and a real block value is a plain int.
    sig = Signature(2, 1)
    m = SpinorMatrix.of(Multivector.from_terms(sig, {0: 2, 7: 3}))
    values = m.block_values()
    assert sorted(values) == [-1, 5] and {type(v) for v in values} == {int}
    assert m.central(values).multivector() == m.multivector()
    assert m.central((4,)).multivector() == Multivector.scalar(sig, 4)


@pytest.mark.parametrize("kind", [int, Fraction, float])
def test_gaussian_values_take_plain_number_operands(kind, rng):
    # Block values mix _Gaussian with ints, Fractions and floats on either
    # side; an f64 product rounds as the (re, im) formula
    # (ur vr - ui vi, ur vi + ui vr) does.
    G = _spinor._Gaussian
    half = kind(1) / 2 if kind is not int else 1
    g, x = G(kind(3), kind(-4)), kind(6) * half
    assert g + x == G(3 + x, -4) and x + g == G(x + 3, -4)
    assert g - x == G(3 - x, -4) and x - g == G(x - 3, 4)
    assert g * x == G(3 * x, -4 * x) and x * g == g * x
    assert (g * x) // x == g and (x * 5) // G(kind(1), kind(2)) == G(x, -2 * x)
    assert g * g.conjugate() == 25 and -g == G(-3, 4) and g != G(3, 4)
    assert G(x) == x and x == G(x) and G(kind(0), kind(0)) == 0
    assert g and not G(kind(0)) and G(kind(0), half)
    exact = _spinor._exact(G(Fraction(4, 2), Fraction(3)))
    assert exact == G(2, 3) and (type(exact.real), type(exact.imag)) == (int, int)
    assert type(_spinor._exact(G(Fraction(4, 2), kind(0)))) is int
    for _ in range(100):
        ur, ui, vr, vi = (rng.uniform(-1, 1) for _ in range(4))
        for v, (wr, wi) in ((G(vr, vi), (vr, vi)), (vr, (vr, 0))):
            for got in (G(ur, ui) * v, v * G(ur, ui)):
                want = (ur * wr - ui * wi, ur * wi + ui * wr)
                assert (got.real.hex(), got.imag.hex()) == tuple(t.hex() for t in want)


def test_a_numerator_outside_the_images_is_refused(rng):
    # Here aM - Mb - Qc = 0 holds on the matrices, but M is no image.
    sig = Signature(3, 3)
    m = SpinorMatrix.of(random_mv(sig, rng))
    (re, im), = m.blocks
    outside = m._like((([re[0] + 1] + re[1:], im),))
    two, one = SpinorMatrix.scalar(sig, 2), SpinorMatrix.scalar(sig, 1)
    assert (two * outside - outside * one - outside).is_zero()
    with pytest.raises(ResidualCheckFailedError, match="not a spinor image"):
        sylvester._exact_x(two, one, outside, outside, 1, "general")


@pytest.mark.parametrize("sig", [
    Signature(3, 3), Signature(2, 4), Signature(4, 3), Signature(3, 4),
], ids=repr)
@pytest.mark.parametrize("kind", ["int", "frac"])
@pytest.mark.parametrize("bump", ["entry", "image"])
def test_corrupted_numerator_fails_the_matrix_check(sig, kind, bump, rng, monkeypatch):
    # As on the blades, a wrong M must not get through the exact check.
    # Adj(D) gets one entry more, or the image of 1 more, which keeps
    # M = Adj(D) F an image, so that only the residual can refuse it.
    prob = _dense_problem(sig, rng, kind)
    assert _spinor.pays_off(prob.a, prob.b)
    adjugate = sylvester._adjugate

    def bumped(d, method):
        adj, q = adjugate(d, method)
        if bump == "image":
            return adj + SpinorMatrix.scalar(sig, 1), q
        (re, im), *rest = adj._dense().blocks
        return adj._like((([re[0] + 1] + re[1:], im), *rest)), q

    monkeypatch.setattr(sylvester, "_adjugate", bumped)
    methods = [sylvester.GENERAL] + [sylvester.GENERAL_ODD] * (sig.dim % 2)
    for method in methods:
        with pytest.raises(ResidualCheckFailedError):
            solve(prob, method)


@pytest.mark.parametrize("sig", [
    Signature(3, 3), Signature(2, 4), Signature(4, 3), Signature(3, 4),
], ids=repr)
@pytest.mark.parametrize("kind", ["int", "frac"])
def test_the_resultant_inverse_is_that_of_the_char_poly_of_d(sig, kind, rng, inversions):
    # The exact recursions invert D through the resultant of A's and B's
    # characteristic polynomials, per block for general_odd.  The four
    # signatures have a real image, a quaternionic one, two real blocks
    # and one complex block (Gaussian-integer polynomials).
    for _ in range(3):
        prob = _dense_problem(sig, rng, kind)
        for method in [sylvester.GENERAL] + [sylvester.GENERAL_ODD] * (sig.dim % 2):
            try:
                sylvester._solve(prob, method)
            except SingularProblemError:
                pass
    assert all(isinstance(phi.d, SpinorMatrix) for _, phi, _, _ in inversions)
    assert_char_poly_answers(inversions)


@pytest.mark.parametrize("n", range(6, 9))
def test_the_resultant_inverse_on_sparse_matrices(n, rng, inversions, monkeypatch):
    # Sparse operands stay on blades, where D's own recursion is cheaper;
    # on the matrices they give repeated eigenvalues and degree gaps.
    monkeypatch.setattr(_spinor, "pays_off", lambda a, b: True)
    for p in range(n + 1):
        sig = Signature(p, n - p)
        prob = SylvesterProblem(*(random_sparse_mv(sig, rng, 3, -3, 3) for _ in range(3)))
        for method in sylvester._methods_for(n):
            try:
                sylvester._solve(prob, method)
            except SingularProblemError:
                pass
    assert all(isinstance(phi.d, SpinorMatrix) for _, phi, _, _ in inversions)
    assert_char_poly_answers(inversions)


@pytest.mark.parametrize("sig", [
    Signature(3, 3), Signature(2, 2), Signature(4, 3),
    Signature(3, 4), Signature(2, 1), Signature(1, 2),
], ids=repr)
def test_a_wrong_phi_a_is_an_internal_error(sig, rng, monkeypatch):
    # phi_A(A) = 0 on the powers of A, per block at odd n, is the check
    # that replaces the Cayley-Hamilton check of the char poly of D.
    monkeypatch.setattr(_spinor, "pays_off", lambda a, b: True)
    newton = sylvester._newton

    def wrong(sums):
        phi = newton(sums)
        return [phi[0] + 1] + phi[1:]

    monkeypatch.setattr(sylvester, "_newton", wrong)
    prob = _dense_problem(sig, rng, "int")
    for method in [sylvester.GENERAL] + [sylvester.GENERAL_ODD] * (sig.dim % 2):
        with pytest.raises(InternalError, match="phi_A"):
            sylvester._solve(prob, method)


def test_exact_matrix_answers_skip_the_blade_check(rng, monkeypatch):
    # No exact answer calls verify_residual: each is checked on the
    # kernel that computed it.  The f64 flag is defined on the blades,
    # so every float answer calls it.
    calls = []
    check = sylvester.verify_residual

    def counted(prob, x):
        calls.append(prob.ring)
        return check(prob, x)

    monkeypatch.setattr(sylvester, "verify_residual", counted)
    exact = _dense_problem(Signature(3, 3), rng, "int")
    assert _spinor.pays_off(exact.a, exact.b)
    sol = solve(exact)
    assert calls == [] and sol.residual == 0
    assert check(exact, sol.x) == 0
    sig = exact.sig
    floats = SylvesterProblem(
        _dominant_f64(sig, rng, 1),
        _dominant_f64(sig, rng, -1),
        _as_float(random_mv(sig, rng, -3, 3)),
    )
    assert _spinor.pays_off(floats.a, floats.b)
    assert not solve(floats).low_confidence
    assert calls == [FLOAT64]
    for kind in ("int", "frac"):
        small = _dense_problem(Signature(2, 2), rng, kind)
        assert solve(small).residual == 0
    assert calls == [FLOAT64]
    solve(SylvesterProblem(*(_as_float(u) for u in (small.a, small.b, small.c))))
    assert calls == [FLOAT64, FLOAT64]


@pytest.mark.parametrize("n", range(6, 11))
def test_selection_keeps_sparse_operands_on_blades(n, rng):
    # Operands as the CLI sees them: a scalar plus at most five blades.
    sig = Signature(n - n // 2, n // 2)
    for _ in range(20):
        a, b = (
            Multivector.from_terms(sig, {
                0: rng.randint(1, 9),
                **{rng.randrange(1, sig.ncoeffs): rng.randint(-5, 5)
                   for _ in range(5)},
            })
            for _ in range(2)
        )
        assert not _spinor.pays_off(a, b)
        as_float = _as_float(a)
        assert not _spinor.pays_off(as_float, as_float)
    # From n = 6 the rule does not read the ring: dense f64 operands pay
    # off too.  At n = 5 dense exact operands pay off and f64 ones do not.
    dense = random_mv(sig, rng, 1, 3)
    assert _spinor.pays_off(dense, dense)
    as_float = _as_float(dense)
    assert _spinor.pays_off(as_float, as_float)
    small = random_mv(Signature(3, 2), rng, 1, 3)
    assert _spinor.pays_off(small, small)
    assert not _spinor.pays_off(_as_float(small), _as_float(small))
    assert not _spinor.pays_off(*(random_mv(Signature(2, 2), rng, 1, 3),) * 2)


def _as_float(u):
    return Multivector(u.sig, [float(c) for c in u.coeffs], FLOAT64)


@pytest.mark.parametrize("sig", all_signatures(8), ids=repr)
def test_float_round_trip_is_exact(sig, rng):
    # Integer-valued floats: every entry and trace is an exact sum, and
    # the division by N is by a power of two.
    u = _as_float(random_mv(sig, rng, -10**6, 10**6))
    m = SpinorMatrix.of(u)
    assert m.ring == FLOAT64 and m.multivector() is u
    fresh = m._like(m.blocks)
    got = fresh.multivector()
    assert got.ring == FLOAT64 and got == u
    assert all(type(c) is float for c in got.coeffs)
    assert m.scalar_part() == u.coeffs[0]
    # The float tolerances read blade coefficients, not matrix entries.
    assert fresh.max_abs_coeff() == u.max_abs_coeff()
    assert fresh.nonscalar_norm() == u.nonscalar_norm()
    assert (m * SpinorMatrix.scalar(sig, 3, FLOAT64)).multivector() == u.scale(3)


def _dominant_f64(sig, rng, sign):
    """Dense uniform terms of size < 1/2**n and a scalar part beyond
    their sum: the spectra of A (sign 1) and B (sign -1) lie on
    opposite sides of 0, and even general's Q at n = 7 stays finite."""
    coeffs = [rng.uniform(-1, 1) / sig.ncoeffs for _ in range(sig.ncoeffs)]
    # Left to right, as in _spinor: sum() compensates from CPython 3.12 on,
    # and the operands must not depend on the interpreter.
    coeffs[0] = sign * (1 + reduce(add, map(abs, coeffs[1:]), 0))
    return Multivector(sig, coeffs, FLOAT64)


@pytest.mark.parametrize("sig", [
    Signature(3, 3), Signature(2, 4), Signature(4, 3), Signature(3, 4),
], ids=repr)
def test_float_matrix_path_agrees_with_the_blades(sig, rng, monkeypatch):
    prob = SylvesterProblem(
        _dominant_f64(sig, rng, 1),
        _dominant_f64(sig, rng, -1),
        _as_float(random_mv(sig, rng, -3, 3)),
    )
    assert _spinor.pays_off(prob.a, prob.b)
    methods = [sylvester.GENERAL] + [sylvester.GENERAL_ODD] * (sig.dim % 2)
    matrix = [solve(prob, method) for method in methods]
    monkeypatch.setattr(_spinor, "pays_off", lambda a, b: False)
    blade = [solve(prob, method) for method in methods]
    for got, want in zip(matrix, blade):
        assert got.method == want.method
        assert not got.low_confidence and not want.low_confidence
        size = want.x.max_abs_coeff()
        assert max(
            abs(g - w) for g, w in zip(got.x.coeffs, want.x.coeffs)
        ) <= 1e-9 * size


@lru_cache(maxsize=None)
def _dot(s):
    """The dot product of two length-s sequences, left to right from 0,
    as one generated expression: the reference for the order of the
    block product, and for the per-blade conversions below."""
    return eval("lambda u, v: 0" + "".join(f" + u[{k}] * v[{k}]" for k in range(s)))


def test_float_sums_run_left_to_right():
    # sum() compensates float sums from CPython 3.12 on and would give
    # 1.0 here; the matrices add left to right from 0 on every
    # interpreter, and the conversions in the transform's fixed order.
    values = [1e16, 1.0, -1e16]
    assert _spinor._total(values) == 0.0
    assert _dot(3)(values, [1, 1, 1]) == 0.0
    assert _dot(3)([2, 3, 4], [5, 6, 7]) == 56
    assert _spinor._hadamard(4)(values + [0.0]) == [0.0, 0.0, 2e16, 2e16]
    assert _spinor._hadamard(4)([1, 2, 3, 4, 0, 0, 0, 1]) == [10, -2, -4, 0, 1, -1, -1, 1]


def _reference_blocks(u):
    """SpinorMatrix.of, blade by blade: each term scattered over the s
    entries of its monomial matrix, an imaginary part None where it is
    zero."""
    rep = _spinor._representation(u.sig)
    area = rep.size * rep.size
    blocks = []
    for table in rep.blades:
        parts = ([0] * area, [0] * area)
        for a, c in enumerate(u._num):
            if c:
                x, z, k = table[a]
                target = parts[k & 1]
                for p, sign in zip(rep.positions[x], rep.signs[z]):
                    target[p] += sign * (-c if k & 2 else c)
        re, im = parts
        blocks.append((re, im if any(im) else None))
    return tuple(blocks)


def _reference_sums(m):
    """N times the preimage of m, blade by blade: (Re, Im) of the sums
    over the kept blocks of tr(image(e_A)**-1 M), one _dot each."""
    rep = m.rep
    dot = _dot(rep.size)
    sums = []
    for a, (x, z, k) in enumerate(rep.blades[0]):
        total = [0, 0]
        for table, block in zip(rep.blades, m._dense().blocks):
            for part, values in enumerate(block):
                if values is not None:
                    t = dot(rep.signs[z], [values[p] for p in rep.positions[x]])
                    total[part] += -t if table[a][2] != k else t
        re, im = total
        for _ in range(k):  # i**-1 (u + iv) = v - iu
            re, im = im, -re
        sums.append((re, im))
    return sums


@pytest.mark.parametrize("sig", all_signatures(10), ids=repr)
def test_conversions_are_the_per_blade_forms(sig):
    # Both transforms give the per-blade blocks and preimages exactly:
    # dense, sparse and real-only elements, their products, central
    # matrices, and the integer-valued floats of the round trip.
    rng = random.Random(sig.dim * 17 + sig.p)
    dense = random_mv(sig, rng, -10**20, 10**20)
    elements = [
        dense,
        random_sparse_mv(sig, rng, 3),
        Multivector.from_terms(sig, {0: 3, sig.ncoeffs - 1: -2}),
        _as_float(random_mv(sig, rng, -10**6, 10**6)),
    ]
    matrices = []
    for u in elements:
        m = SpinorMatrix.of(u)
        # Equal blocks: an imaginary part is None exactly where it was.
        assert m.blocks == _reference_blocks(u)
        matrices += [m._like(m.blocks), m * m]
    matrices += [SpinorMatrix.scalar(sig, 3), center_project(matrices[0])]
    rep = _spinor._representation(sig)
    for m in matrices:
        sums = _reference_sums(m)
        exact = m.ring == RATIONAL
        if exact and not rep.onto and any(im for _, im in sums):
            with pytest.raises(InternalError):
                m.multivector()
            continue
        got = m.multivector()
        want = [re / rep.degree for re, _ in sums] if not exact else [
            Fraction(re, rep.degree) for re, _ in sums
        ]
        assert list(got.coeffs) == want
        if not exact:
            assert [c.hex() for c in got.coeffs] == [c.hex() for c in want]
    # A matrix outside the images: one more entry in the imaginary part.
    (re, im), *rest = matrices[0].blocks
    bumped = list(im or [0] * len(re))
    bumped[0] += 1
    m = matrices[0]._like(((re, bumped), *rest))
    sums = _reference_sums(m)
    if not rep.onto:
        assert any(im for _, im in sums)
        with pytest.raises(InternalError, match="outside the real algebra"):
            m.multivector()
    else:
        assert m.multivector().coeffs == tuple(
            Fraction(re, rep.degree) for re, _ in sums
        )


def _dot_matmul(a, b, s):
    """The product of two flat s x s matrices as one _dot per entry."""
    dot = _dot(s)
    return [dot(a[i:i + s], b[j::s]) for i in range(0, s * s, s) for j in range(s)]


@pytest.mark.parametrize("s", [1, 2, 4, 8, 16, 32])
def test_generated_product_is_the_dot_form(s):
    # The generated block product adds in _dot's order: the same ints,
    # and floats to the last bit, also through Gauss's three products.
    rng = random.Random(s)
    area = s * s
    ints = [[rng.randint(-2**70, 2**70) for _ in range(area)] for _ in range(4)]
    floats = [[rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(area)]
              for _ in range(4)]

    def hexed(block):
        return [t.hex() if isinstance(t, float) else t for t in block]

    for ur, ui, vr, vi in (ints, floats):
        rr, ii = _dot_matmul(ur, vr, s), _dot_matmul(ui, vi, s)
        mixed = _dot_matmul(list(map(add, ur, ui)), list(map(add, vr, vi)), s)
        assert hexed(_spinor._matmul(s)(ur, vr)) == hexed(rr)
        re, im = _spinor._block_product((ur, ui), (vr, vi), s)
        assert hexed(re) == hexed([x - y for x, y in zip(rr, ii)])
        assert hexed(im) == hexed([t - x - y for t, x, y in zip(mixed, rr, ii)])
    # Exact Gaussian blocks give the schoolbook complex product.
    ur, ui, vr, vi = ints
    rr = _dot_matmul(ur, vr, s)
    _, im = _spinor._block_product((ur, ui), (vr, vi), s)
    assert im == list(map(add, _dot_matmul(ur, vi, s), _dot_matmul(ui, vr, s)))
    assert _spinor._block_product((ur, None), (vr, vi), s) == (rr, _dot_matmul(ur, vi, s))
    assert _spinor._block_product((ur, ui), (vr, None), s) == (rr, _dot_matmul(ui, vr, s))
    assert _spinor._block_product((ur, None), (vr, None), s) == (rr, None)


def test_a_float_matrix_answer_is_pinned():
    # A dense f64 answer of the spinor kernel, by float.hex, so that a
    # run on any CPython from 3.10 to 3.13 shows a change of rounding.
    # The inputs are drawn without sum(), which rounds differently
    # across those versions.
    rng = random.Random(2109)
    sig = Signature(3, 3)

    def dense(scalar):
        coeffs = [rng.uniform(-1, 1) / 64 for _ in range(sig.ncoeffs)]
        coeffs[0] = scalar
        return Multivector(sig, coeffs, FLOAT64)

    prob = SylvesterProblem(dense(2.0), dense(-2.0), dense(1.0))
    assert _spinor.pays_off(prob.a, prob.b)
    sol = solve(prob)
    assert sol.method == sylvester.GENERAL and not sol.low_confidence
    assert sol.q.hex() == "-0x1.ffbc13aa98bbcp+127"
    assert [sol.x.coeffs[k].hex() for k in (0, 21, 63)] == [
        "0x1.ffc27598426b0p-3", "0x1.887eef01eef8cp-11", "0x1.55070376ae540p-10",
    ]


def test_float_overflow_of_d_is_refused_on_the_matrix_path(rng):
    sig = Signature(3, 3)
    big = Multivector(
        sig, [rng.uniform(-1, 1) * 1e40 for _ in range(sig.ncoeffs)], FLOAT64
    )
    small = _as_float(random_mv(sig, rng, -3, 3))
    assert _spinor.pays_off(big, small)
    with pytest.raises(NumericalDegradationError, match="D = phi_B"):
        solve(SylvesterProblem(big, small, small))


def test_plain_uniform_float_problems_are_answered():
    # The imaginary part of a float preimage is rounding: it must not
    # raise InternalError.  Cl(2,4) has complex images.  The blades
    # answer these 20 problems, 4 of them flagged.
    rng = random.Random(1)
    sig = Signature(2, 4)
    for _ in range(20):
        prob = SylvesterProblem(*(
            Multivector(
                sig, [rng.uniform(-1, 1) for _ in range(sig.ncoeffs)], FLOAT64
            )
            for _ in range(3)
        ))
        assert _spinor.pays_off(prob.a, prob.b)
        sol = solve(prob)
        assert sol.method == sylvester.GENERAL
        assert sol.residual == verify_residual(prob, sol.x)
