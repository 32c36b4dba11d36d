"""Every corpus model under every command that reads a single file gives the
recorded output.

`golden_corpus.json` holds, for each (model, command) pair run with
``--format structured``, the exit code and the sha256 of stdout and stderr.
This guards the byte-identity of structured output and exit codes on the
corpus. Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_corpus.py --record
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from supercech.cli import main

GOLDEN = Path(__file__).with_name("golden_corpus.json")
COMMANDS = ("verify", "splitting-type", "obstruction", "attempt-split",
            "rothstein", "glue-p1", "secondary", "a1-check", "report-all")
MODELS = sorted(p.name for p in resources.files("supercech.corpus").iterdir()
                if p.name.endswith(".model"))


def run(model: str, command: str) -> dict:
    path = str(resources.files("supercech.corpus") / model)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--input", path, "--format", "structured"])
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_output_is_the_recorded_one(model, command):
    assert run(model, command) == json.loads(GOLDEN.read_text())[f"{model} {command}"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps({f"{m} {c}": run(m, c) for m in MODELS for c in COMMANDS},
                                 indent=1, sort_keys=True) + "\n")
