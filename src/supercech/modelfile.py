"""Declarative text format for gluing data, sheaf specs and gt models.

Grammar (line oriented; ``#`` starts a comment; indentation is free)::

    format 1
    chart NAME
      fiber x [y ...]
      base t [...]            # optional
      odd Q
    overlap A B               # ordered; declare both directions
    triple A B C              # optional
    transition A B            # expressions in A-coordinates
      <target-coord> = <expression>   # each coordinate of B exactly once:
      theta_K = <expression>          # its even ones and theta_1..theta_odd
    family t [...]            # flags base coordinates (declared on charts)
    base_odd N                # trailing N odd generators are base directions
    splitting_type J          # optional declaration, checked by verify
    sheaf NAME
      rank R
      matrix A B              # R rows of R comma-separated expressions
        <entry>, <entry>, ...
    gtmodel NAME
      fiber_sheaf SHEAFNAME
      base_rank N
      theta A B               # at least one; N rows of fiber-rank
        <entry>, ...          # comma-separated entries

A file holds at most one gluing-data block (charts/overlaps/transitions) and
any number of named sheaves and gt models.  Each chart, overlap, triple,
transition, sheaf and gt model, and each matrix or theta block inside one, is
declared once; a repeat is an error at the repeated line.  Expressions
follow the grammar of :mod:`supercech.parsing`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import CocycleError, ParseError
from .gluing import SuperGluingData, SuperTransition
from .parsing import ExpressionParser
from .secondary import GtModel, gt_model
from .sheaf import SheafSpec, columns_of, rows_of, sheaf_spec
from .spaces import Chart, Cover, ReducedSpace

FORMAT_VERSION = 1


@dataclass
class ModelDocument:
    gluing: SuperGluingData | None = None
    sheaves: dict[str, SheafSpec] = field(default_factory=dict)
    gt_models: dict[str, GtModel] = field(default_factory=dict)
    base_odd: int = 0
    declared_splitting_type: int | None = None
    base_atlas: dict | None = None   # glued-family metadata


def _tokens(line: str) -> list[str]:
    return line.split()


def _args(toks: list[str], count: int, lineno: int) -> list[str]:
    """The ``count`` arguments following the keyword ``toks[0]``."""
    if len(toks) != count + 1:
        raise ParseError(f"{toks[0]!r} takes {count} argument(s), got {len(toks) - 1}",
                         lineno, 1)
    return toks[1:]


def _int(toks: list[str], lineno: int, line: str) -> int:
    """The single integer argument of the keyword ``toks[0]``."""
    token = _args(toks, 1, lineno)[0]
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", lineno,
                         line.rfind(token) + 1) from None


def _count(toks: list[str], lineno: int, line: str) -> int:
    """The single nonnegative integer argument of the keyword ``toks[0]``."""
    value = _int(toks, lineno, line)
    if value < 0:
        raise ParseError(f"{toks[0]!r} must be nonnegative, got {value}", lineno,
                         line.rfind(toks[1]) + 1)
    return value


def _names(toks: list[str], lineno: int, line: str, taken=()) -> tuple[str, ...]:
    """The arguments of the keyword ``toks[0]`` as coordinate names, each
    named once and none of them in ``taken``."""
    seen = set(taken)
    for name in toks[1:]:
        if name in seen:
            raise ParseError(f"coordinate {name!r} is named twice", lineno,
                             line.rfind(name) + 1)
        seen.add(name)
    return tuple(toks[1:])


def _chart(chart_map: dict, name: str, lineno: int):
    if name not in chart_map:
        raise ParseError(f"undeclared chart {name!r}", lineno, 1)
    return chart_map[name]


def _declare(declared: dict, key: tuple, lineno: int) -> None:
    """Record the block ``key`` (its kind and names) as opened on ``lineno``."""
    if key in declared:
        raise ParseError(f"duplicate {' '.join(key)} (first on line {declared[key]})",
                         lineno, 1)
    declared[key] = lineno


def parse_model_text(text: str) -> ModelDocument:
    lines = text.splitlines()
    charts: list[Chart] = []
    chart_data: dict[str, dict] = {}
    overlaps: list[tuple[str, str]] = []
    triples: list[tuple[str, str, str]] = []
    transitions_raw: dict[tuple[str, str], list[tuple[str, str, int]]] = {}
    declared_at: dict[tuple[str, ...], int] = {}   # line of each block by kind and names
    family_vars: tuple[str, ...] = ()
    base_odd = 0
    declared = None
    atlas = None
    atlas_line = None
    atlas_vars_line = None
    sheaves_raw: dict[str, dict] = {}
    gt_raw: dict[str, dict] = {}

    mode = None           # ("chart", name) | ("transition", a, b) | ("sheaf", name) | ...
    current = None

    def flush_chart(name):
        d = chart_data[name]
        charts.append(Chart(name, tuple(d.get("fiber", ())),
                            tuple(d.get("base", ())), d.get("odd", 0)))

    pending_chart = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokens(line)
        head = toks[0]
        indented = raw[0] in " \t"

        if not indented:
            if pending_chart is not None:
                flush_chart(pending_chart)
                pending_chart = None
            mode = None
            if head == "format":
                if _int(toks, lineno, line) != FORMAT_VERSION:
                    raise ParseError(f"unsupported format version {toks[1:]}", lineno, 1)
            elif head == "chart":
                name, = _args(toks, 1, lineno)
                _declare(declared_at, ("chart", name), lineno)
                chart_data[name] = {}
                pending_chart = name
                mode = ("chart", name)
            elif head == "overlap":
                overlaps.append(tuple(_args(toks, 2, lineno)))
                _declare(declared_at, ("overlap", *overlaps[-1]), lineno)
            elif head == "triple":
                triples.append(tuple(_args(toks, 3, lineno)))
                _declare(declared_at, ("triple", *triples[-1]), lineno)
            elif head == "transition":
                key = tuple(_args(toks, 2, lineno))
                _declare(declared_at, ("transition", *key), lineno)
                transitions_raw[key] = []
                mode = ("transition", key)
            elif head == "family":
                family_vars = _names(toks, lineno, line)
            elif head == "base_odd":
                base_odd = _count(toks, lineno, line)
            elif head == "splitting_type":
                declared = _count(toks, lineno, line)
            elif head == "sheaf":
                name, = _args(toks, 1, lineno)
                _declare(declared_at, ("sheaf", name), lineno)
                sheaves_raw[name] = {"rank": None, "matrices": {}, "lines": {},
                                     "line": lineno}
                mode = ("sheaf", name)
            elif head == "gtmodel":
                name, = _args(toks, 1, lineno)
                _declare(declared_at, ("gtmodel", name), lineno)
                gt_raw[name] = {"fiber_sheaf": None, "base_rank": None, "theta": {},
                                "lines": {}, "line": lineno}
                mode = ("gtmodel", name)
            elif head == "baseatlas":
                atlas = {}
                atlas_line = lineno
                mode = ("baseatlas", atlas)
            else:
                raise ParseError(f"unknown directive {head!r}", lineno, 1)
            continue

        if mode is None:
            raise ParseError("indented line outside any block", lineno, 1)
        kind = mode[0]
        if kind == "chart":
            d = chart_data[mode[1]]
            if head == "fiber":
                d["fiber"] = _names(toks, lineno, line, d.get("base", ()))
            elif head == "base":
                d["base"] = _names(toks, lineno, line, d.get("fiber", ()))
            elif head == "odd":
                d["odd"] = _count(toks, lineno, line)
            else:
                raise ParseError(f"unknown chart field {head!r}", lineno, 1)
        elif kind == "transition":
            if "=" not in line:
                raise ParseError("transition lines read <coord> = <expression>", lineno, 1)
            lhs, rhs = line.split("=", 1)
            transitions_raw[mode[1]].append((lhs.strip(), rhs.strip(), lineno))
        elif kind == "sheaf":
            d = sheaves_raw[mode[1]]
            if head == "rank":
                d["rank"] = _count(toks, lineno, line)
            elif head == "matrix":
                d["current"] = tuple(_args(toks, 2, lineno))
                _declare(declared_at, ("matrix", *d["current"], "in sheaf", mode[1]), lineno)
                d["matrices"][d["current"]] = []
                d["lines"][d["current"]] = lineno
            elif "current" not in d:
                raise ParseError("matrix entries before any 'matrix A B' line", lineno, 1)
            else:
                d["matrices"][d["current"]].append((line.strip(), lineno))
        elif kind == "gtmodel":
            d = gt_raw[mode[1]]
            if head == "fiber_sheaf":
                d["fiber_sheaf"] = (_args(toks, 1, lineno)[0], lineno)
            elif head == "base_rank":
                d["base_rank"] = _count(toks, lineno, line)
            elif head == "theta":
                d["current"] = tuple(_args(toks, 2, lineno))
                _declare(declared_at, ("theta", *d["current"], "in gtmodel", mode[1]), lineno)
                d["theta"][d["current"]] = []
                d["lines"][d["current"]] = lineno
            elif "current" not in d:
                raise ParseError("theta entries before any 'theta A B' line", lineno, 1)
            else:
                d["theta"][d["current"]].append((line.strip(), lineno))
        elif kind == "baseatlas":
            atlas = mode[1]
            if head == "base_vars":
                _args(toks, 2, lineno)
                atlas["base_vars"] = _names(toks, lineno, line)
                atlas_vars_line = lineno
            elif head == "witness_exponent":
                atlas["witness_exponent"] = _int(toks, lineno, line)
            else:
                raise ParseError(f"unknown base-atlas field {head!r}", lineno, 1)
    if pending_chart is not None:
        flush_chart(pending_chart)
    if atlas is not None and "base_vars" not in atlas:
        raise ParseError("baseatlas needs a 'base_vars' line", atlas_line, 1)

    doc = ModelDocument(base_odd=base_odd, declared_splitting_type=declared,
                        base_atlas=atlas)
    chart_map = {c.name: c for c in charts}

    if transitions_raw:
        cover = Cover(charts, overlaps, triples)
        transitions = {}
        for (a, b), assignments in transitions_raw.items():
            line_no = declared_at[("transition", a, b)]
            src, tgt = _chart(chart_map, a, line_no), _chart(chart_map, b, line_no)
            parser = ExpressionParser(src.vars, src.odd_rank)
            even, odd = {}, {}
            for lhs, rhs, lineno in assignments:
                if lhs.startswith("theta_"):
                    index = lhs[len("theta_"):]
                    if index.isdecimal():
                        # decided by its digit count first (as in the
                        # expression parser), so no length reaches the
                        # interpreter's conversion limit; 0 is out of range
                        index = index.lstrip("0") or "0"
                        coord = int(index) if len(index) <= len(str(tgt.odd_rank)) else 0
                    else:
                        try:
                            coord = int(index)
                        except ValueError:
                            raise ParseError(f"expected an integer theta index, got {lhs!r}",
                                             lineno, 1) from None
                    if not 1 <= coord <= tgt.odd_rank:
                        raise ParseError(f"{lhs} is not an odd coordinate of chart {b!r} "
                                         f"(odd {tgt.odd_rank})", lineno, 1)
                    images = odd
                elif lhs in tgt.vars:
                    coord, images = lhs, even
                else:
                    raise ParseError(f"{lhs!r} is not a coordinate of chart {b!r}", lineno, 1)
                if coord in images:
                    raise ParseError(f"{lhs} is assigned twice", lineno, 1)
                images[coord] = parser.parse(rhs, line=lineno)
            missing = [v for v in tgt.vars if v not in even] + \
                [f"theta_{k}" for k in range(1, tgt.odd_rank + 1) if k not in odd]
            if missing:
                raise ParseError(f"transition {a} {b} has no image for {', '.join(missing)}",
                                 line_no, 1)
            transitions[(a, b)] = SuperTransition(src, tgt, even, odd)
        doc.gluing = SuperGluingData(cover, transitions, family_vars, declared)
        if atlas is not None and family_vars:
            # the stored piece is evaluated in the first atlas coordinate,
            # which a family must carry (data with no family coordinate is
            # constant in it)
            first = atlas["base_vars"][0]
            if not any(first in c.vars for c in charts):
                raise ParseError(f"base atlas coordinate {first!r} is on no chart",
                                 atlas_vars_line, 1)

    space = None
    if sheaves_raw or gt_raw:
        space = _reduced_space_for_sheaves(doc)
    for name, d in sheaves_raw.items():
        rank = d["rank"]
        if rank is None:
            raise ParseError(f"sheaf {name!r} declares no rank", d["line"], 1)
        mats = {}
        for key, rows in d["matrices"].items():
            m = _rows(chart_map, key, rows, d["lines"][key], rank, "matrix")
            if len(m) != rank:
                raise ParseError(f"matrix {key} has {len(m)} rows, want {rank}",
                                 d["lines"][key], 1)
            mats[key] = columns_of(m)
        with _located(d["line"]):
            doc.sheaves[name] = sheaf_spec(space, rank, mats, check=True)
    for name, d in gt_raw.items():
        if d["fiber_sheaf"] is None or d["base_rank"] is None:
            raise ParseError(f"gtmodel {name!r} needs fiber_sheaf and base_rank", d["line"], 1)
        if not d["theta"]:
            # the theta rows are what bound base_rank
            raise ParseError(f"gtmodel {name!r} needs a theta block", d["line"], 1)
        fiber_name, line_no = d["fiber_sheaf"]
        if fiber_name not in doc.sheaves:
            raise ParseError(f"unknown fiber_sheaf {fiber_name!r}", line_no, 1)
        fiber = doc.sheaves[fiber_name]
        n = d["base_rank"]
        theta_sections = {}
        for key, rows in d["theta"].items():
            flat = [e for row in _rows(chart_map, key, rows, d["lines"][key], fiber.rank, "theta")
                    for e in row]
            if len(flat) != n * fiber.rank:
                raise ParseError(f"theta {key} must have {n} rows", d["lines"][key], 1)
            theta_sections[key] = flat
        with _located(d["line"]):
            doc.gt_models[name] = gt_model(space, fiber, n, theta_sections)
    return doc


def _rows(chart_map: dict, key: tuple, rows: list, lineno: int, width: int,
          block: str) -> list[list]:
    """The ``(text, line)`` rows of a ``block`` (``matrix`` or ``theta``)
    opened at ``lineno`` for overlap ``key``, each ``width`` comma-separated
    expressions in the coordinates of the overlap's first chart."""
    parser = ExpressionParser(_chart(chart_map, key[0], lineno).vars, 0)
    out = []
    for text_row, row_line in rows:
        entries = [parser.parse_poly(e.strip(), row_line) for e in text_row.split(",")]
        if len(entries) != width:
            raise ParseError(f"{block} row has {len(entries)} entries, want {width}",
                             row_line, 1)
        out.append(entries)
    return out


@contextmanager
def _located(lineno: int):
    """Report a failed check of a block's data at the line opening the block."""
    try:
        yield
    except (CocycleError, ValueError) as exc:
        raise ParseError(str(exc), lineno, 1) from None


def _reduced_space_for_sheaves(doc) -> ReducedSpace:
    """The reduced space of the file's verified gluing data."""
    if doc.gluing is None:
        raise ParseError("sheaf/gtmodel sections need gluing data for the coordinate maps")
    doc.gluing.require_valid()
    return doc.gluing.reduce()[0]


def parse_model_file(path) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())


# ------------------------------------------------------------------ writers


def write_gluing(g: SuperGluingData, declared: int | None = None) -> str:
    out = [f"format {FORMAT_VERSION}", ""]
    for name in g.cover.order:
        ch = g.cover.chart(name)
        out.append(f"chart {name}")
        if ch.fiber_vars:
            out.append("  fiber " + " ".join(ch.fiber_vars))
        if ch.base_vars:
            out.append("  base " + " ".join(ch.base_vars))
        out.append(f"  odd {ch.odd_rank}")
        out.append("")
    for (a, b) in g.cover.overlaps:
        out.append(f"overlap {a} {b}")
    for (a, b, c) in g.cover.triples:
        out.append(f"triple {a} {b} {c}")
    out.append("")
    for (a, b) in g.cover.overlaps:
        t = g.transitions[(a, b)]
        out.append(f"transition {a} {b}")
        for v in t.target.vars:
            out.append(f"  {v} = {t.even_maps[v]}")
        for k in range(1, t.target.odd_rank + 1):
            out.append(f"  theta_{k} = {t.odd_maps[k]}")
        out.append("")
    if g.base_vars:
        out.append("family " + " ".join(g.base_vars))
    if declared is not None:
        out.append(f"splitting_type {declared}")
    return "\n".join(out).rstrip() + "\n"


def write_sheaf(name: str, spec: SheafSpec) -> str:
    out = [f"sheaf {name}", f"  rank {spec.rank}"]
    for (a, b), m in spec.matrices.items():
        out.append(f"  matrix {a} {b}")
        for row in rows_of(m, spec.space.cover.chart(a).vars):
            out.append("    " + ", ".join(str(e) for e in row))
    return "\n".join(out) + "\n"


def write_gt_model(name: str, m: GtModel, fiber_sheaf_name: str) -> str:
    out = [f"gtmodel {name}",
           f"  fiber_sheaf {fiber_sheaf_name}",
           f"  base_rank {m.base_rank}"]
    for (a, b) in m.theta.sections:
        flat = m.theta.section(a, b)
        out.append(f"  theta {a} {b}")
        for i in range(m.base_rank):
            row = flat[i * m.fiber_rank:(i + 1) * m.fiber_rank]
            out.append("    " + ", ".join(str(e) for e in row))
    return "\n".join(out) + "\n"


def write_document(doc: ModelDocument) -> str:
    parts = []
    if doc.gluing is not None:
        parts.append(write_gluing(doc.gluing, doc.declared_splitting_type))
    else:
        parts.append(f"format {FORMAT_VERSION}\n")
    if doc.base_odd:
        parts.append(f"base_odd {doc.base_odd}\n")
    for name, spec in doc.sheaves.items():
        parts.append(write_sheaf(name, spec))
    fiber_names = {id(spec): name for name, spec in doc.sheaves.items()}
    for name, m in doc.gt_models.items():
        fname = fiber_names.get(id(m.fiber_spec), "fiber")
        parts.append(write_gt_model(name, m, fname))
    if doc.base_atlas:
        block = ["baseatlas"]
        if "base_vars" in doc.base_atlas:
            block.append("  base_vars " + " ".join(doc.base_atlas["base_vars"]))
        if "witness_exponent" in doc.base_atlas:
            block.append(f"  witness_exponent {doc.base_atlas['witness_exponent']}")
        parts.append("\n".join(block) + "\n")
    return "\n".join(parts)
