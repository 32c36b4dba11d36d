"""Every way a model file is read or refused stays the same.

One sha256 over ``(exit code, stdout, stderr)`` of these in-process runs:

* ``verify`` on every single-line mutant of every corpus model;
* ``verify`` on every malformed model of ``test_cli.MALFORMED_MODELS``;
* ``verify`` on every nonblank corpus line indented, dedented, followed by
  an indented ``extra 1`` and followed by an indented ``1``;
* ``glue-p1`` on every malformed base atlas of ``test_cli.MALFORMED_ATLASES``.

Each run reads the same file name, so no output depends on where it is.
Re-record (only when a message, a line, a column or an outcome is meant to
change) with

    PYTHONPATH=src python tests/test_model_outcomes.py --record
"""

import hashlib
import io
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from supercech.cli import main

from conftest import corpus_path
from test_cli import CORPUS, MALFORMED_ATLASES, MALFORMED_MODELS, VALID_MODEL, \
    _line_mutants, _with_line

RECORDED = {
    "digest": "5093ba37fe5511ad2e14556cab19115e437bd36f9077f59cd57a34c0ed73e995",
    "codes": {0: 204, 1: 61, 2: 1102},
}


def _cases():
    """The ``(command, model text)`` pairs, in a fixed order."""
    for model in CORPUS:
        lines = corpus_path(model).read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            variants = [] if line.lstrip().startswith("#") else _line_mutants(line)
            variants += ["  " + line, line.lstrip(), line + "\n  extra 1", line + "\n  1"]
            for variant in variants:
                yield "verify", "\n".join(lines[:i] + [variant] + lines[i + 1:]) + "\n"
    for lineno, text in MALFORMED_MODELS:
        yield "verify", _with_line(lineno, text)
    for block, _ in MALFORMED_ATLASES:
        yield "glue-p1", VALID_MODEL + block


def outcomes():
    """The digest of every case's outcome and the count of each exit code."""
    digest = hashlib.sha256()
    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.model"
        for command, text in _cases():
            path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--input", str(path)])
            digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
            codes[code] += 1
    return digest.hexdigest(), dict(sorted(codes.items()))


def test_model_outcomes_keep_their_digest():
    digest, codes = outcomes()
    assert codes == RECORDED["codes"]
    assert digest == RECORDED["digest"]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    print(outcomes())
