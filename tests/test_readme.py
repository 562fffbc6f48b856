"""README's CLI examples and Library snippet, run and compared with their
printed output, so the README cannot drift from the program."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from eventorsion.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def cli_examples():
    """(argv, expected stdout lines) for each `$ eventorsion ...` command."""
    examples = []
    for block in code_blocks():
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.strip("\n").split("\n")
            examples.append((shlex.split(command)[1:], lines))
    return examples


EXAMPLES = cli_examples()


def test_examples_found():
    assert [argv[:2] for argv, _ in EXAMPLES] == [["classify", "3"], ["sample", "II"]]


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_cli_example(capsys, argv, expected):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(expected)
    for got, want in zip(out, expected):
        # "..." elides the rest of a record.
        if want.endswith("...}"):
            assert got.startswith(want[: -len("...}")]), (got, want)
        else:
            assert got == want


def test_normalization_sentence(capsys):
    found = re.search(
        r"`classify (-?\d+) (-?\d+) (-?\d+)`\s+reports the equivalent curve"
        r"\s+\((-?\d+), (-?\d+), (-?\d+)\)",
        README,
    )
    assert found is not None
    raw, normalized = found.groups()[:3], found.groups()[3:]
    assert main(["classify", *raw]) == EXIT_OK
    m, n, d = normalized
    assert capsys.readouterr().out.startswith(f"curve (m={m}, n={n}, D={d}):")


def test_library_snippet():
    [snippet] = code_blocks("python")
    namespace = {}
    checked = 0
    for line in snippet.splitlines():
        code, _, comment = line.partition("  #")
        if not code.strip():
            continue
        statement = ast.parse(code.strip()).body[0]
        if not isinstance(statement, ast.Expr):
            exec(code.strip(), namespace)
            continue
        # An expression's comment starts with the repr of its value.
        value = repr(eval(code.strip(), namespace))
        comment = comment.strip()
        assert comment == value or comment.startswith(value + ","), (code, value)
        checked += 1
    assert checked == 7
