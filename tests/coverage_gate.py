"""Statement-coverage gate for ``src/supercech``, standard library only.

Runs the tier-1 tests in this process under :func:`sys.settrace`, tracing
only frames whose code lives in ``src/supercech``, and lists every
statement of a function body that never ran (docstrings excluded).  The
list is compared with ``tests/unrun_statements.json``, whose entries are
keyed by module, function and the statement's first line of text, not by
line number, and give one reason each.  The gate fails on an unrun
statement that is not listed, on a listed statement that now runs or that
is no longer in the source (each named as such), on an entry without a
reason, and when the tests fail.

    python tests/coverage_gate.py [pytest arguments]

With no pytest arguments it runs ``tests/`` quietly.  A statement counts
as run when any line of it ran, so a compound statement runs with its
header.  Code run in a child process is not traced: a statement that only
a child runs is listed, with that reason.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "supercech"
LISTED = ROOT / "tests" / "unrun_statements.json"


class LineTracer:
    """Lines run per file of ``PACKAGE``.  A code object stops being traced
    once every line of it has run."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.remaining: dict = {}   # code -> lines not yet run, or None if not ours
        self.lines: dict = {}       # code -> all lines of the code object

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        remaining = self.remaining.get(code, False)
        if remaining is False:
            remaining = self._register(code)
        if not remaining:
            return None

        def local(frame, event, arg):
            if event == "line":
                remaining.discard(frame.f_lineno)
            return local
        return local

    def _register(self, code):
        if not os.path.abspath(code.co_filename).startswith(self.prefix):
            self.remaining[code] = None
            return None
        lines = {line for _, _, line in code.co_lines() if line is not None}
        self.lines[code] = lines
        self.remaining[code] = set(lines)
        return self.remaining[code]

    def ran(self) -> dict[str, set[int]]:
        by_file: dict[str, set[int]] = {}
        for code, lines in self.lines.items():
            by_file.setdefault(os.path.abspath(code.co_filename), set()).update(
                lines - self.remaining[code])
        return by_file


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_constant(stmt: ast.stmt) -> bool:
    """A bare constant, such as a docstring, compiles to no code."""
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


def _statements(body, function: str):
    """``(function, statement)`` for every statement under ``body`` that
    compiles to code, with nested functions under their own name."""
    for stmt in body:
        if _is_constant(stmt) or isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        yield function, stmt
        if isinstance(stmt, _DEFS):
            yield from _statements(stmt.body, f"{function}.{stmt.name}")
        elif not isinstance(stmt, ast.ClassDef):
            for field in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(stmt, field, []), function)
            for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
                yield from _statements(part.body, function)


def _functions(tree: ast.Module):
    """``(qualified name, body)`` of every top-level function and method."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node.body
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS):
                    yield f"{node.name}.{item.name}", item.body


def source_statements() -> list[tuple[dict, range]]:
    """Every statement of a function body in ``PACKAGE``, in file and line
    order, as an entry keyed like the list's with the lines it spans."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for qualname, body in _functions(ast.parse(source)):
            for function, stmt in _statements(body, qualname):
                first = min([stmt.lineno] + [d.lineno for d in
                                             getattr(stmt, "decorator_list", [])])
                text = ast.get_source_segment(source, stmt).splitlines()[0].strip()
                found.append(({"module": path.stem, "function": function,
                               "statement": text, "line": stmt.lineno},
                              range(first, stmt.end_lineno + 1)))
    return found


def unrun_statements(ran: dict[str, set[int]], statements: list[tuple[dict, range]]) -> list[dict]:
    """The entries of ``statements`` with no line in ``ran``."""
    return [entry for entry, lines in statements
            if ran.get(str(PACKAGE / f"{entry['module']}.py"), set()).isdisjoint(lines)]


def _key(entry: dict) -> tuple[str, str, str]:
    return entry["module"], entry["function"], entry["statement"]


def main(argv: list[str]) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    sys.path.insert(0, str(ROOT / "src"))
    # tests that start the CLI in a child process import the package there
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    import pytest

    tracer = LineTracer(str(PACKAGE) + os.sep)
    sys.settrace(tracer.global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    statements = source_statements()
    found = unrun_statements(tracer.ran(), statements)
    listed = json.loads(LISTED.read_text())

    unlisted = Counter(map(_key, found)) - Counter(map(_key, listed))
    # a listed statement runs, or is no longer in the source at all
    gone = Counter(map(_key, listed)) - Counter(_key(entry) for entry, _ in statements)
    now_run = Counter(map(_key, listed)) - Counter(map(_key, found)) - gone
    no_reason = [e for e in listed if not e.get("reason", "").strip()]
    failed = bool(unlisted or now_run or gone or no_reason)
    for entry in found:
        if unlisted[_key(entry)]:
            unlisted[_key(entry)] -= 1
            print(f"not run and not listed: src/supercech/{entry['module']}.py:"
                  f"{entry['line']} in {entry['function']}: {entry['statement']}")
    for label, keys in (("listed but run", now_run), ("listed but not in the source", gone)):
        for (module, function, statement), count in sorted(keys.items()):
            print(f"{label}: {module} {function}: {statement}"
                  + (f" (x{count})" if count > 1 else ""))
    for entry in no_reason:
        print(f"listed without a reason: {entry['module']} {entry['function']}: "
              f"{entry['statement']}")
    print(f"coverage gate: {len(found)} statements not run, {len(listed)} listed")
    if status != 0:
        return int(status)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
