"""Output checks that hold on every seed.

Each check takes a job's standard output and returns ``None`` when it holds
or a one-line reason when it does not.  Exit codes and recorded digests are
checked by the runner; these are the mathematical and round-trip oracles.
"""

from __future__ import annotations

import re
from math import comb

_DIM = re.compile(r"^\w+\.dim\[a=(\d+),b=(\d+),p=([01])\]=(\d+)$")


def report_lines(out: str) -> list[str]:
    """The report: ``key=value`` (structured) or ``key: value`` (text)
    lines up to the first blank line.  Keys may contain ``=`` themselves
    (``M.b=0.ok=True``), so checks match whole lines."""
    lines = []
    for line in out.splitlines():
        if not line.strip():
            break
        lines.append(line)
    return lines


def model_text(out: str) -> str:
    """The model file a job printed: all of a ``rothstein``/``scale`` output,
    or what follows the report of a text-format ``glue-p1``."""
    if out.startswith("format "):
        return out
    _, _, rest = out.partition("\n\n")
    return rest


def expect(**pairs):
    """Every ``key=value`` given (dots spelled ``__``) is a report line."""
    want = {k.replace("__", "."): str(v) for k, v in pairs.items()}

    def check(out):
        lines = set(report_lines(out))
        for k, v in want.items():
            if f"{k}={v}" not in lines and f"{k}: {v}" not in lines:
                return f"no line {k}={v}"
        return None
    return check


def all_fields(suffix: str, value: str, at_least: int = 1):
    """At least ``at_least`` keys end in ``suffix`` and all equal ``value``."""
    pattern = re.compile(rf"^(.*{re.escape(suffix)})(?:=|: )(.*)$")

    def check(out):
        hits = [m.groups() for m in map(pattern.match, report_lines(out)) if m]
        if len(hits) < at_least:
            return f"{len(hits)} keys ending in {suffix}, want >= {at_least}"
        bad = [(k, v) for k, v in hits if v != value]
        return f"{bad[0][0]}={bad[0][1]}, want {value}" if bad else None
    return check


def riemann_roch(d: int, r: int):
    """Every (h0, h1) pair printed by ``secondary`` on a gt model with fiber
    O(d) and trivial base of rank r satisfies h0 - h1 = deg + rank.

    The (a, b) space is H^p of hom(S, Q) with Q = wedge^b(O^r) (x) wedge^a O(d)
    and S the extension bundle (rank r+1, degree d) at odd levels a+b, the
    cotangent bundle O(-2) at even levels."""
    def euler(a, b):
        rank_s, deg_s = (r + 1, d) if (a + b) % 2 else (1, -2)
        rank_q = comb(r, b) * comb(1, a)
        deg_q = rank_q * a * d
        return rank_s * deg_q - rank_q * deg_s + rank_s * rank_q

    def check(out):
        dims = {}
        for m in filter(None, map(_DIM.match, report_lines(out))):
            a, b, p, h = map(int, m.groups())
            dims.setdefault((a, b), {})[p] = h
        if not dims:
            return "no dimensions printed"
        for (a, b), h in sorted(dims.items()):
            if set(h) != {0, 1}:
                return f"(a={a},b={b}) lacks a degree"
            if h[0] - h[1] != euler(a, b):
                return f"(a={a},b={b}): h0-h1={h[0] - h[1]}, Riemann-Roch gives {euler(a, b)}"
        return None
    return check

