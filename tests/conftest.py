import random

import pytest

from gasylv import FLOAT64, RATIONAL, Multivector, Signature


def all_signatures(max_dim, min_dim=1):
    return [
        Signature(p, n - p)
        for n in range(min_dim, max_dim + 1)
        for p in range(n + 1)
    ]


def random_mv(sig, rng, lo=-9, hi=9, ring=RATIONAL):
    return Multivector(
        sig,
        [rng.randint(lo, hi) for _ in range(sig.ncoeffs)],
        ring,
    )


def random_sparse_mv(sig, rng, nterms, lo=-9, hi=9):
    coeffs = [0] * sig.ncoeffs
    for _ in range(nterms):
        coeffs[rng.randrange(sig.ncoeffs)] = rng.randint(lo, hi)
    return Multivector(sig, coeffs)


@pytest.fixture
def rng():
    return random.Random(20210131)


@pytest.fixture
def inversions(monkeypatch):
    """The (method, phi, adj, q) of every sylvester._adjugate call made
    while the test runs."""
    from gasylv import sylvester

    calls = []
    adjugate = sylvester._adjugate

    def recorded(phi, method):
        adj, q = adjugate(phi, method)
        calls.append((method, phi, adj, q))
        return adj, q

    monkeypatch.setattr(sylvester, "_adjugate", recorded)
    return calls


def assert_char_poly_answers(calls):
    """Each recorded inversion gives what the char poly of D gives:
    q = b_N, and, where q is not zero, adj = differences[-1]; -Det(D)
    and -Adj(D)."""
    from gasylv import char_poly

    assert calls
    for method, phi, adj, q in calls:
        ref = char_poly(phi.d)
        assert q == ref.coeffs[-1], method
        if q:
            assert (adj - ref.differences[-1]).is_zero(), method
