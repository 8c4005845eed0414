"""The README's CLI examples run, succeed and print the same bytes twice; its
library example runs; every public name the package exports resolves."""

import importlib
import shlex
from pathlib import Path

import pytest

from cfcomm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cfcomm ")]


EXAMPLES = cli_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a[:3]) for a in EXAMPLES])
def test_example_is_deterministic(capsys, argv):
    outputs = []
    for _ in range(2):
        assert main(list(argv)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0]
    assert outputs[0] == outputs[1]


def test_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    code = text.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1] == "0 True"


@pytest.mark.parametrize("module", ["cfcomm", "cfcomm.modes", "cfcomm.protocol", "cfcomm.histories", "cfcomm.chip"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)

