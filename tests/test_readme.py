"""Every `$ combregret ...` example in README.md, run and compared with what
the README shows it printing, and the library example, run and compared
with the values its comments state."""

import math
import re
import shlex
from pathlib import Path

import pytest

from combregret import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# figure1's window statistics are binary64 reductions, whose last digits
# differ across numpy builds; every other shown line is compared exactly
FLOAT_LINES = ("min", "max", "mean", "slope")


def _examples():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(\$ combregret .*?)^```$", text, re.M | re.S)
    return [
        pytest.param(command[2:], shown, id=command[2:])
        for command, *shown in (block.splitlines() for block in blocks)
        # a block that elides lines shows only part of the output
        if "..." not in shown
    ]


EXAMPLES = _examples()


def test_examples_cover_each_kind_of_output():
    commands = {p.values[0].split()[1] for p in EXAMPLES}
    assert {"eval", "optimal", "best-fixed", "figure1", "verify"} <= commands


@pytest.mark.parametrize("command, shown", EXAMPLES)
def test_readme_example(command, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        name, _, value = want.partition("=")
        if argv[0] == "figure1" and name in FLOAT_LINES:
            got_name, _, got_value = got.partition("=")
            assert got_name == name
            assert math.isclose(float(got_value), float(value), rel_tol=1e-12, abs_tol=0.0)
        else:
            assert got == want


def test_library_example():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    namespace: dict = {}
    exec(block, namespace)
    # every one-line expression whose comment states a Dyadic evaluates to it
    stated = re.findall(r"^(\S.*?)\s+# (Dyadic\(\d+, \d+\))", block, re.M)
    for expression, value in stated:
        assert eval(expression, namespace) == eval(value, namespace), expression
    assert {"Dyadic(25, 4)", "Dyadic(2341, 8)", "Dyadic(677, 8)"} <= {v for _, v in stated}
