"""The public surface: no tolerance knobs, and README examples that run."""

import argparse
import contextlib
import inspect
import io
import re
import shlex
from pathlib import Path

import gasylv
from gasylv import algebra, charpoly, sylvester
from gasylv.cli import build_parser, main

README = (Path(__file__).parent.parent / "README.md").read_text()


def _public_callables():
    found = {name: getattr(gasylv, name) for name in gasylv.__all__}
    for module in (algebra, charpoly, sylvester):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            found[f"{module.__name__}.{name}"] = obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{module.__name__}.{name}.{attr}"] = member
    # Exception types are built-in callables without a Python signature.
    return {
        name: obj for name, obj in found.items()
        if callable(obj)
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }


def _subcommand_options():
    parser = build_parser()
    subs = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in subs.choices.items()
    }


def test_no_tolerance_parameters_or_options():
    callables = _public_callables()
    assert "solve" in callables and "gasylv.charpoly.char_poly" in callables
    with_tol = sorted(
        name for name, obj in callables.items()
        if {"tol", "res_tol"} & set(inspect.signature(obj).parameters)
    )
    assert with_tol == []
    for command, options in _subcommand_options().items():
        assert not {"--tol", "--res-tol"} & options, command


def _block(heading, language):
    section = README[README.index(f"\n## {heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_python_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library example", "python"), {})
    assert out.getvalue().startswith("closed_n4_v2 ")


def test_readme_cli_lines_exit_zero():
    lines = _block("CLI", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gasylv ")]
    assert len(commands) >= 5
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv


def test_readme_options_are_accepted():
    paragraph = next(
        p for p in README.split("\n\n") if p.startswith("Options:")
    )
    named = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    accepted = set().union(*_subcommand_options().values())
    assert named and named <= accepted, named - accepted
