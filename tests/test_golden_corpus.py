"""Every corpus model under every command that reads a single file gives the
recorded output, and every demo prints the recorded text.

`golden_corpus.json` holds, for each (model, command) pair run with
``--format structured``, the exit code and the sha256 of stdout and stderr;
a command may carry arguments, split at spaces.  It holds as well, for each
``demos/*.py`` script, the sha256 of its stdout.  This guards the
byte-identity of structured output and exit codes on the corpus, and of the
demo printouts (demo 02 prints a transition matrix).  Re-record the corpus
entries (only when an output change is intended; the demo entries are kept) with

    PYTHONPATH=src python tests/test_golden_corpus.py --record
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from supercech.cli import main

GOLDEN = Path(__file__).with_name("golden_corpus.json")
COMMANDS = ("verify", "splitting-type", "obstruction", "attempt-split",
            "rothstein", "glue-p1", "secondary", "a1-check", "report-all",
            "scale --lambda=-3/2")
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
MODELS = sorted(p.name for p in resources.files("supercech.corpus").iterdir()
                if p.name.endswith(".model"))


def run(model: str, command: str) -> dict:
    path = str(resources.files("supercech.corpus") / model)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command.split() + ["--input", path, "--format", "structured"])
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("command", COMMANDS)
def test_corpus_output_is_the_recorded_one(model, command):
    assert run(model, command) == json.loads(GOLDEN.read_text())[f"{model} {command}"]


def demo_stdout_digest(demo: Path) -> str:
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                         check=True).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_output_is_the_recorded_one(demo):
    assert demo_stdout_digest(demo) == json.loads(GOLDEN.read_text())[f"demos/{demo.name}"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    kept = {k: v for k, v in json.loads(GOLDEN.read_text()).items() if k.startswith("demos/")}
    GOLDEN.write_text(json.dumps({**kept, **{f"{m} {c}": run(m, c) for m in MODELS for c in COMMANDS}},
                                 indent=1, sort_keys=True) + "\n")
