"""The f64 ring, bit for bit.

X, Q, D and F of every applicable method on the example1 and example2
inputs read as floats, the char-poly iterates and coefficients of
example1's B and the generalized central coefficients of example2's B,
compared by float.hex with fixtures/float_golden.json.  The file holds
`_snapshot()` as written before the two char-poly recursions were
merged; rewrite it (`python tests/test_float_golden.py`, which prints
each value that changes, old -> new) only for a deliberate change of
the float results.  A sha256 pins dense f64 products at n = 5, which
run the generated image kernel, on every interpreter.
"""

import hashlib
import json
import random
from pathlib import Path

from gasylv import (
    FLOAT64,
    Multivector,
    Signature,
    SylvesterProblem,
    char_poly,
    generalized_coeffs,
    load_coeff_lines,
    solve,
)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "float_golden.json"
METHODS = {
    "example1": ["closed_n4_v1", "closed_n4_v2", "general"],
    "example2": ["closed_n5", "general", "general_odd"],
}


def _load(name):
    root = FIXTURES / name
    meta = dict(
        line.split() for line in (root / "meta.txt").read_text().splitlines()
        if line.strip()
    )
    sig = Signature(*(int(v) for v in meta["signature"].split(",")))
    return [
        load_coeff_lines((root / f"{part}.txt").read_text(), sig, FLOAT64)
        for part in ("a", "b", "c")
    ]


def _hex(u):
    return [c.hex() for c in u.coeffs]


def _snapshot():
    out = {}
    for name, methods in METHODS.items():
        prob = SylvesterProblem(*_load(name))
        for method in methods:
            sol = solve(prob, method=method)
            out[f"{name}/{method}"] = {
                "method": sol.method,
                "q": sol.q.hex(),
                "x": _hex(sol.x),
                "d": _hex(sol.d),
                "f": _hex(sol.f),
                "residual": sol.residual.hex(),
                "low_confidence": sol.low_confidence,
            }
    data = char_poly(_load("example1")[1])
    out["example1/char_poly"] = {
        "iterates": [_hex(u) for u in data.iterates],
        "coeffs": [c.hex() for c in data.coeffs],
    }
    gen = generalized_coeffs(_load("example2")[1])
    out["example2/generalized_coeffs"] = {
        "iterates": [_hex(u) for u in gen.iterates],
        "coeffs": [_hex(c) for c in gen.coeffs],
    }
    return out


def test_float_results_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    got = _snapshot()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


# sha256 of _product_digest's products, the same on CPython 3.10 to 3.13.
PRODUCT_DIGEST = "455101edf903a78c6969ab11cd3ba3bbdf7198a0fa29a35342e0444174856200"


def _product_digest():
    """sha256 over float.hex of 20 dense f64 products in each n = 5
    signature.  The operands take uniform(-1, 1) times a power of two
    from 2**-20 to 2**20, from random.Random(26), which draw alike on
    every interpreter, and no sum(), which CPython 3.12 made
    compensated."""
    rng = random.Random(26)
    digest = hashlib.sha256()
    for p in range(6):
        sig = Signature(p, 5 - p)
        for _ in range(20):
            u, v = (
                Multivector(sig, [
                    rng.uniform(-1, 1) * 2.0 ** rng.randint(-20, 20) for _ in range(32)
                ], FLOAT64)
                for _ in range(2)
            )
            digest.update(" ".join(c.hex() for c in (u * v).coeffs).encode())
    return digest.hexdigest()


def test_dense_n5_products_are_pinned_by_digest():
    assert _product_digest() == PRODUCT_DIGEST


def _leaves(value, path):
    """(path, value) for each number, flag or string of a snapshot, the
    path as in example1/general.x[3]."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _changes(old, new):
    """(path, old, new) for each value that differs between two
    snapshots; None where one of them lacks the path."""
    before, after = dict(_leaves(old, "")), dict(_leaves(new, ""))
    paths = [*after, *(path for path in before if path not in after)]
    return [
        (path, before.get(path), after.get(path))
        for path in paths
        if before.get(path) != after.get(path)
    ]


def test_a_rewrite_names_each_changed_value():
    golden = json.loads(GOLDEN.read_text())
    assert _changes(golden, golden) == []
    new = json.loads(GOLDEN.read_text())
    new["example1/general"]["q"] = "-0x1.0p+0"
    new["example2/closed_n5"]["x"][3] = "0x0.0p+0"
    del new["example2/general_odd"]["residual"]
    assert _changes(golden, new) == [
        ("example1/general.q", golden["example1/general"]["q"], "-0x1.0p+0"),
        ("example2/closed_n5.x[3]", golden["example2/closed_n5"]["x"][3], "0x0.0p+0"),
        ("example2/general_odd.residual", golden["example2/general_odd"]["residual"], None),
    ]


if __name__ == "__main__":
    snapshot = _snapshot()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for path, before, after in _changes(old, snapshot):
        print(f"{path}: {before} -> {after}")
    GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
