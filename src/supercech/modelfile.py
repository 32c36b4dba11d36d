"""Declarative text format for gluing data, sheaf specs and gt models.

Grammar (line oriented; ``#`` starts a comment)::

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
    baseatlas                 # glued-family metadata (written by glue-p1)
      base_vars t s
      witness_exponent E      # optional; -2 when absent

A file is a list of blocks: an unindented directive and the indented lines
under it (how deep they are indented is free).  An indented line belongs to
the ``chart``, ``transition``, ``sheaf``, ``gtmodel`` or ``baseatlas`` line
above it; under any other directive it is an error.  Layout errors are
reported in file order, and a failed check of a block's data is reported at
the line that opens it.

A file holds at most one gluing-data block (charts/overlaps/transitions),
any number of named sheaves and gt models, and at most one ``baseatlas``
block, which takes no arguments.  Each chart, overlap, triple, transition,
sheaf and gt model, each matrix or theta block inside one, each of the
directives ``format``, ``family``, ``base_odd`` and ``splitting_type``, and
each field of a block (``fiber``, ``odd``, ``rank``, ``base_rank``,
``base_vars`` and so on) is declared once; a repeat is an error at the
repeated line.  Expressions follow the grammar of :mod:`supercech.parsing`,
which reads ``theta_K`` (ASCII digits K) as an odd generator: the left side
of a transition line has that form, and no coordinate may be so named.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import CocycleError, ParseError
from .gluing import SuperGluingData, SuperTransition
from .parsing import ExpressionParser
from .secondary import GtModel, gt_model
from .sheaf import SheafSpec, columns_of, rows_of, sheaf_spec
from .spaces import _THETA, Chart, Cover, ReducedSpace

FORMAT_VERSION = 1


@dataclass
class ModelDocument:
    gluing: SuperGluingData | None = None
    sheaves: dict[str, SheafSpec] = field(default_factory=dict)
    gt_models: dict[str, GtModel] = field(default_factory=dict)
    base_odd: int = 0
    declared_splitting_type: int | None = None
    base_atlas: dict | None = None   # glued-family metadata


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


def _names(toks: list[str], lineno: int, line: str, taken=(),
           count: int | None = None) -> tuple[str, ...]:
    """The arguments of the keyword ``toks[0]`` (``count`` of them, when
    given) as coordinate names, each named once, none of them in ``taken``
    and none named like an odd generator."""
    if count is not None:
        _args(toks, count, lineno)
    seen = set(taken)
    for name in toks[1:]:
        if _THETA.match(name):
            raise ParseError(f"coordinate name {name!r} is reserved for odd generators",
                             lineno, line.rfind(name) + 1)
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


def _blocks(text: str):
    """The blocks of ``text`` in file order: each unindented directive as
    ``(line number, line, tokens)`` with the list of indented lines under it
    in the same form.  Comments and blank lines are dropped; a block is
    handed on when the next one starts."""
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        entry = (lineno, line, line.split())
        if raw[0] not in " \t":
            if block is not None:
                yield block
            block = (entry, [])
        elif block is None:
            raise ParseError("indented line outside any block", lineno, 1)
        else:
            block[1].append(entry)
    if block is not None:
        yield block


# the indented lines of each kind of block: readers of its fields, each
# called with (tokens, line number, line text, fields so far), the keyword
# that opens its row blocks, and the message for any other line
_BODIES = {
    "chart": ({"fiber": lambda t, n, s, f: _names(t, n, s, f.get("base", ())),
               "base": lambda t, n, s, f: _names(t, n, s, f.get("fiber", ())),
               "odd": lambda t, n, s, f: _count(t, n, s)},
              None, "unknown chart field {!r}"),
    "sheaf": ({"rank": lambda t, n, s, f: _count(t, n, s)},
              "matrix", "matrix entries before any 'matrix A B' line"),
    "gtmodel": ({"fiber_sheaf": lambda t, n, s, f: _args(t, 1, n)[0],
                 "base_rank": lambda t, n, s, f: _count(t, n, s)},
                "theta", "theta entries before any 'theta A B' line"),
    "baseatlas": ({"base_vars": lambda t, n, s, f: _names(t, n, s, count=2),
                   "witness_exponent": lambda t, n, s, f: _int(t, n, s)},
                  None, "unknown base-atlas field {!r}"),
}


def _read_body(kind: str, name: str | None, body: list, declared_at: dict):
    """The fields of a ``kind`` block, the line of each, and its row blocks
    as ``{(A, B): (line, [(text, line), ...])}``."""
    readers, keyword, other = _BODIES[kind]
    fields, at, rows, current = {}, {}, {}, None
    for lineno, line, toks in body:
        head = toks[0]
        if head in readers:
            if head in at:
                raise ParseError(f"duplicate field {head!r} (first on line {at[head]})",
                                 lineno, 1)
            fields[head] = readers[head](toks, lineno, line, fields)
            at[head] = lineno
        elif head == keyword:
            current = tuple(_args(toks, 2, lineno))
            _declare(declared_at, (keyword, *current, f"in {kind}", name), lineno)
            rows[current] = (lineno, [])
        elif current is None:
            raise ParseError(other.format(head), lineno, 1)
        else:
            rows[current][1].append((line.strip(), lineno))
    return fields, at, rows


def parse_model_text(text: str) -> ModelDocument:
    """The document ``text`` describes, read block by block; malformed input
    is a :class:`ParseError` that names its line."""
    doc = ModelDocument()
    overlaps: list[tuple[str, str]] = []
    triples: list[tuple[str, str, str]] = []
    transitions_raw: dict[tuple[str, str], tuple[int, list]] = {}   # (A, B) -> (line, body)
    opened = {kind: {} for kind in _BODIES}   # kind -> name -> (line, fields, at, rows)
    declared_at: dict[tuple[str, ...], int] = {}   # line of each block by kind and names
    family_vars: tuple[str, ...] = ()

    for (lineno, line, toks), body in _blocks(text):
        head = toks[0]
        if head == "transition":
            key = tuple(_args(toks, 2, lineno))
            _declare(declared_at, ("transition", *key), lineno)
            for n, assignment, _ in body:
                if "=" not in assignment:
                    raise ParseError("transition lines read <coord> = <expression>", n, 1)
            transitions_raw[key] = (lineno, body)
            continue
        if head in _BODIES:
            names = _args(toks, 0 if head == "baseatlas" else 1, lineno)
            _declare(declared_at, (head, *names), lineno)
            name = names[0] if names else None
            opened[head][name] = (lineno, *_read_body(head, name, body, declared_at))
            continue
        if head in ("format", "family", "base_odd", "splitting_type"):
            _declare(declared_at, (head,), lineno)
        if head == "format":
            if _int(toks, lineno, line) != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {toks[1:]}", lineno, 1)
        elif head in ("overlap", "triple"):
            names = tuple(_args(toks, 2 if head == "overlap" else 3, lineno))
            _declare(declared_at, (head, *names), lineno)
            (overlaps if head == "overlap" else triples).append(names)
        elif head == "family":
            family_vars = _names(toks, lineno, line)
        elif head == "base_odd":
            doc.base_odd = _count(toks, lineno, line)
        elif head == "splitting_type":
            doc.declared_splitting_type = _count(toks, lineno, line)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno, 1)
        if body:
            raise ParseError("indented line outside any block", body[0][0], 1)

    charts = [Chart(name, f.get("fiber", ()), f.get("base", ()), f.get("odd", 0))
              for name, (_, f, _, _) in opened["chart"].items()]
    chart_map = {c.name: c for c in charts}
    if opened["baseatlas"]:
        atlas_line, doc.base_atlas, atlas_at, _ = opened["baseatlas"][None]
        if "base_vars" not in doc.base_atlas:
            raise ParseError("baseatlas needs a 'base_vars' line", atlas_line, 1)

    if transitions_raw:
        cover = Cover(charts, overlaps, triples)
        transitions = {key: _transition(chart_map, key, *block)
                       for key, block in transitions_raw.items()}
        doc.gluing = SuperGluingData(cover, transitions, family_vars)
        if doc.base_atlas is not None and family_vars:
            # the stored piece is evaluated in the first atlas coordinate,
            # which a family must carry (data with no family coordinate is
            # constant in it)
            first = doc.base_atlas["base_vars"][0]
            if not any(first in c.vars for c in charts):
                raise ParseError(f"base atlas coordinate {first!r} is on no chart",
                                 atlas_at["base_vars"], 1)

    space = None
    if opened["sheaf"] or opened["gtmodel"]:
        space = _reduced_space_for_sheaves(doc)
    for name, (line_no, fields, _, blocks) in opened["sheaf"].items():
        rank = fields.get("rank")
        if rank is None:
            raise ParseError(f"sheaf {name!r} declares no rank", line_no, 1)
        mats = {}
        for key, block in blocks.items():
            m = _rows(chart_map, "matrix", key, block, rank)
            if len(m) != rank:
                raise ParseError(f"matrix {key} has {len(m)} rows, want {rank}", block[0], 1)
            mats[key] = columns_of(m)
        with _located(line_no):
            doc.sheaves[name] = sheaf_spec(space, rank, mats, check=True)
    for name, (line_no, fields, at, blocks) in opened["gtmodel"].items():
        if "fiber_sheaf" not in fields or "base_rank" not in fields:
            raise ParseError(f"gtmodel {name!r} needs fiber_sheaf and base_rank", line_no, 1)
        if not blocks:
            # the theta rows are what bound base_rank
            raise ParseError(f"gtmodel {name!r} needs a theta block", line_no, 1)
        if fields["fiber_sheaf"] not in doc.sheaves:
            raise ParseError(f"unknown fiber_sheaf {fields['fiber_sheaf']!r}",
                             at["fiber_sheaf"], 1)
        fiber = doc.sheaves[fields["fiber_sheaf"]]
        n = fields["base_rank"]
        theta_sections = {}
        for key, block in blocks.items():
            flat = [e for row in _rows(chart_map, "theta", key, block, fiber.rank) for e in row]
            if len(flat) != n * fiber.rank:
                raise ParseError(f"theta {key} must have {n} rows", block[0], 1)
            theta_sections[key] = flat
        with _located(line_no):
            doc.gt_models[name] = gt_model(space, fiber, n, theta_sections)
    return doc


def _transition(chart_map: dict, key: tuple, lineno: int, body: list):
    """The transition ``key`` opened at ``lineno`` from the ``<coord> =
    <expression>`` lines of its body, one for each coordinate of the target
    chart."""
    a, b = key
    src, tgt = _chart(chart_map, a, lineno), _chart(chart_map, b, lineno)
    parser = ExpressionParser(src.vars, src.odd_rank)
    even, odd = {}, {}
    for line, assignment, _ in body:
        lhs, rhs = (side.strip() for side in assignment.split("=", 1))
        if lhs.startswith("theta_"):
            theta = _THETA.match(lhs)
            if theta is None:
                raise ParseError(f"expected an integer theta index, got {lhs!r}", line, 1)
            # decided by its digit count first (as in the expression parser),
            # so no length reaches the interpreter's conversion limit; 0 is
            # out of range
            index = theta.group(1).lstrip("0") or "0"
            coord = int(index) if len(index) <= len(str(tgt.odd_rank)) else 0
            if not 1 <= coord <= tgt.odd_rank:
                raise ParseError(f"{lhs} is not an odd coordinate of chart {b!r} "
                                 f"(odd {tgt.odd_rank})", line, 1)
            images = odd
        elif lhs in tgt.vars:
            coord, images = lhs, even
        else:
            raise ParseError(f"{lhs!r} is not a coordinate of chart {b!r}", line, 1)
        if coord in images:
            raise ParseError(f"{lhs} is assigned twice", line, 1)
        images[coord] = parser.parse(rhs, line=line)
    missing = [v for v in tgt.vars if v not in even] + \
        [f"theta_{k}" for k in range(1, tgt.odd_rank + 1) if k not in odd]
    if missing:
        raise ParseError(f"transition {a} {b} has no image for {', '.join(missing)}",
                         lineno, 1)
    return SuperTransition(src, tgt, even, odd)


def _rows(chart_map: dict, keyword: str, key: tuple, block: tuple, width: int) -> list[list]:
    """The rows of a ``keyword`` (``matrix`` or ``theta``) block for overlap
    ``key``, given as ``(line, [(text, line), ...])``: each row ``width``
    comma-separated expressions in the coordinates of the overlap's first
    chart."""
    lineno, rows = block
    parser = ExpressionParser(_chart(chart_map, key[0], lineno).vars, 0)
    out = []
    for text_row, row_line in rows:
        entries = [parser.parse_poly(e.strip(), row_line) for e in text_row.split(",")]
        if len(entries) != width:
            raise ParseError(f"{keyword} row has {len(entries)} entries, want {width}",
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
