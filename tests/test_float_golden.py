"""The f64 ring, bit for bit.

X, Q, D and F of every applicable method on the example1 and example2
inputs read as floats, the char-poly iterates and coefficients of
example1's B and the generalized central coefficients of example2's B,
compared by float.hex with fixtures/float_golden.json.  The file holds
`_snapshot()` as written before the two char-poly recursions were
merged; rewrite it (`python tests/test_float_golden.py`, which prints
each value that changes, old -> new) only for a deliberate change of
the float results.
"""

import json
from pathlib import Path

from gasylv import (
    FLOAT64,
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
