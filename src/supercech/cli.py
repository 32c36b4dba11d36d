"""Command-line front end.

Commands operate on model files (see :mod:`supercech.modelfile`) and print
either human-readable text or a line-oriented ``key=value`` structured format
with all rationals written exactly as ``num/den``.

Exit codes: 0 pass or informational, 1 a verification failed, 2 input or
output error (a malformed input, or standard output that cannot be written:
a full device or a closed pipe), 3 a requested decision was undecidable with
the given flags.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from functools import cache

from .errors import CocycleError, ParseError, SupercechError, WindowError
from .gluing import INFINITY
from .modelfile import parse_model_file, write_gluing
from .parsing import MAX_EXPONENT
from .obstruction import (attempt_split, characteristic_factorization,
                          obstruction_cocycle, scaling_action)
from .family import glue_over_p1, read_glued_family, rothstein_family, write_glued_family
from .secondary import (check_a1_window, model_class, secondary_spaces,
                        verify_a1_containment, verify_obstruction_compatibility)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3

COMMANDS = ("verify", "splitting-type", "obstruction", "attempt-split",
            "rothstein", "scale", "glue-p1", "secondary", "a1-check",
            "report-all")


class Reporter:
    def __init__(self, structured: bool):
        self.structured = structured
        self.lines: list[str] = []

    def emit(self, key: str, value):
        if isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        if value == INFINITY:
            value = "infinity"
        if self.structured:
            self.lines.append(f"{key}={value}")
        else:
            self.lines.append(f"{key}: {value}")

    def raw(self, text: str):
        if not self.structured:
            self.lines.append(text)

    def flush(self):
        """Write everything to standard output and flush it, so that a write
        error surfaces here."""
        print("\n".join(self.lines))
        sys.stdout.flush()


def _fmt_cochain(c) -> str:
    parts = []
    for key in sorted(c.sections):
        body = ", ".join(str(p) for p in c.section(*key))
        parts.append(f"{'|'.join(key)} -> ({body})")
    return "; ".join(parts) if parts else "0"


def _rational(flag: str, text: str) -> Fraction:
    """The value of a rational flag; a malformed value, a zero denominator or
    a power of ten over ``MAX_EXPONENT`` is an input error."""
    digits = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdigit() and (len(digits) > len(str(MAX_EXPONENT))
                             or int(digits) > MAX_EXPONENT):
        raise ParseError(f"{flag} exponent exceeds the limit of {MAX_EXPONENT}, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{flag} expects a rational, got {text!r}") from None


def _parse_point(text: str) -> dict[str, Fraction]:
    point = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        if not value:
            raise ParseError(f"--at expects name=rational, got {item!r}")
        point[name.strip()] = _rational("--at", value.strip())
    return point


def _window(args) -> int | None:
    if args.window_lo is None and args.window_hi is None:
        return None
    lo = abs(args.window_lo or 0)
    hi = abs(args.window_hi or 0)
    return max(lo, hi)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call of :func:`main` reads it."""
    ap = argparse.ArgumentParser(prog="supercech",
                                 description="exact Cech checks for super gluing data")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--input", required=True, help="model file")
    ap.add_argument("--format", choices=("text", "structured"), default="text")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--window-lo", type=int, default=None)
    ap.add_argument("--window-hi", type=int, default=None)
    ap.add_argument("--level", type=int, default=None,
                    help="obstruction level j (or base-factor count for a1-check)")
    ap.add_argument("--at", type=str, default=None,
                    help="base point, e.g. t=2 or t1=1,t2=-1/2")
    ap.add_argument("--lambda", dest="lam", type=str, default=None,
                    help="scaling parameter (nonzero rational)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Reporter(args.format == "structured")
    try:
        doc = parse_model_file(args.input)
    except (ParseError, FileNotFoundError, SupercechError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        code = _dispatch(args, doc, rep)
    except (ParseError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except WindowError as exc:
        print(f"undecidable with current flags: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except SupercechError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        rep.flush()
    except OSError as exc:
        _silence_stdout()
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def _silence_stdout():
    """Point the file descriptor of standard output at the null device for
    the rest of the process, so that the flush at exit cannot fail again on
    the bytes a failed write left buffered (a closed pipe or a full device);
    standard output without a descriptor (an in-memory stream) is left
    alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _require_gluing(doc):
    if doc.gluing is None:
        raise ParseError("this command needs gluing data in the input file")
    return doc.gluing


def _checked_class(m):
    """The class of a gt model's extension cocycle, which must pass its
    cross-validation."""
    mc = model_class(m)
    if not mc.cross_validated:
        raise CocycleError("connecting image of the identity does not match theta")
    return mc.cls


def _dispatch(args, doc, rep: Reporter) -> int:
    window = _window(args)
    cmd = args.command

    if cmd == "verify":
        if doc.gluing is None and not doc.gt_models:
            raise ParseError("nothing to verify: the input file has no transitions "
                             "and no gtmodel")
        code = EXIT_PASS
        if doc.gluing is not None:
            r = doc.gluing.verify_cocycle()
            failures = [str(f) for f in r.failures]
            declared = doc.declared_splitting_type
            if r.ok and declared is not None:
                actual = doc.gluing.deviation_degree()
                if actual != declared:
                    shown = "infinity" if actual == INFINITY else actual
                    failures.append(f"declared splitting_type {declared}, "
                                    f"the transitions give {shown}")
            rep.emit("gluing.checks", r.checks)
            rep.emit("gluing.ok", not failures)
            for i, f in enumerate(failures):
                rep.emit(f"gluing.failure.{i}", f)
            if failures:
                code = EXIT_FAIL
        for name, m in doc.gt_models.items():
            mc = model_class(m)
            rep.emit(f"gtmodel.{name}.class_trivial", mc.cls.trivial)
            rep.emit(f"gtmodel.{name}.cross_validated", mc.cross_validated)
            if not mc.cross_validated:
                code = EXIT_FAIL
        return code

    if cmd == "splitting-type":
        g = _require_gluing(doc)
        if args.at:
            g = g.restrict_fiber(_parse_point(args.at))
            rep.emit("fiber", args.at)
        rep.emit("splitting_type", g.splitting_type())
        return EXIT_PASS

    if cmd == "obstruction":
        g = _require_gluing(doc)
        if args.at:
            g = g.restrict_fiber(_parse_point(args.at))
        # verifies the cocycle conditions, also when --level is given
        j = g.splitting_type()
        level = args.level
        if level is None:
            if j == INFINITY:
                rep.emit("splitting_type", INFINITY)
                rep.emit("class", "0")
                return EXIT_PASS
            level = int(j)
        oc = obstruction_cocycle(g, level, window=window)
        rep.emit("level", oc.level)
        rep.emit("parity", oc.parity)
        rep.emit("trivial", oc.cls.trivial)
        rep.emit("cocycle", _fmt_cochain(oc.cochain))
        rep.emit("canonical", _fmt_cochain(oc.cls.representative))
        return EXIT_PASS

    if cmd == "attempt-split":
        g = _require_gluing(doc)
        result = attempt_split(g, window=window)
        rep.emit("split", result.split)
        if result.split:
            for name, w in sorted(result.witnesses.items()):
                rep.emit(f"witness.{name}", repr(w).replace("\n", " ; "))
        else:
            rep.emit("fatal_level", result.fatal_level)
            rep.emit("fatal_class", _fmt_cochain(result.fatal_class.cls.representative))
        return EXIT_PASS

    if cmd == "rothstein":
        g = _require_gluing(doc)
        rep.lines.append(write_gluing(rothstein_family(g, "t").gluing))
        return EXIT_PASS

    if cmd == "scale":
        g = _require_gluing(doc)
        if args.lam is None:
            raise ParseError("scale needs --lambda")
        lam = _rational("--lambda", args.lam)
        if lam == 0:
            # a bad flag is an input error before the data is checked
            raise ValueError("scaling factor must be nonzero")
        g.require_valid()
        rep.lines.append(write_gluing(scaling_action(g, lam)))
        return EXIT_PASS

    if cmd == "glue-p1":
        if doc.base_atlas is not None:
            glued = read_glued_family(doc)
        else:
            glued = glue_over_p1(_require_gluing(doc))
        r = glued.verify()
        rep.emit("witness_exponent", glued.witness_exponent)
        rep.emit("witness_ok", r.ok)
        if not r.ok:
            rep.emit("discrepancy", r.detail)
        else:
            rep.raw("")
            rep.raw(write_glued_family(glued))
        return EXIT_PASS if r.ok else EXIT_FAIL

    if cmd == "secondary":
        if not doc.gt_models:
            raise ParseError("secondary needs a gtmodel section")
        for name, m in doc.gt_models.items():
            rep.emit(f"{name}.model_class_trivial", _checked_class(m).trivial)
            for s in secondary_spaces(m, window=window):
                rep.emit(f"{name}.dim[a={s.a},b={s.b},p={s.p}]", s.dimension)
        return EXIT_PASS

    if cmd == "a1-check":
        if not doc.gt_models:
            raise ParseError("a1-check needs a gtmodel section")
        code = EXIT_PASS
        for name, m in doc.gt_models.items():
            bs = [args.level] if args.level is not None else \
                list(range(0, m.base_rank))
            if args.level is not None and not 0 <= args.level <= m.base_rank:
                raise ParseError(f"--level {args.level} is out of range 0..{m.base_rank} "
                                 f"for gtmodel {name}")
            for b in bs:
                check_a1_window(m, b, window=window)
            for b in bs:
                r = verify_a1_containment(m, b, window=window)
                rep.emit(f"{name}.b={b}.dimension", r.dimension)
                rep.emit(f"{name}.b={b}.ok", r.ok)
                rep.emit(f"{name}.b={b}.nonzero_samples",
                         sum(1 for s in r.samples if not s.lhs_trivial))
                if not r.ok:
                    code = EXIT_FAIL
        return code

    if cmd == "report-all":
        return _report_all(args, doc, rep, window)

    raise ParseError(f"unknown command {cmd}")


def _report_all(args, doc, rep: Reporter, window) -> int:
    rng = random.Random(args.seed)
    code = EXIT_PASS
    if doc.gluing is not None:
        g = doc.gluing
        r = g.verify_cocycle()
        rep.emit("verify.ok", r.ok)
        if not r.ok:
            rep.emit("verify.failure", str(r.failures[0]))
            return EXIT_FAIL
        j = g.splitting_type()
        rep.emit("splitting_type", j)
        if doc.base_odd:
            cr = verify_obstruction_compatibility(g, doc.base_odd)
            rep.emit("compatibility.ok", cr.ok)
            if not cr.ok:
                code = EXIT_FAIL
        elif g.is_family:
            cf = characteristic_factorization(g, window=window)
            rep.emit("factorization.ok", cf.ok)
            if cf.ok and cf.section is not None:
                rep.emit("factorization.section", str(cf.section))
            if cf.omega is not None:
                rep.emit("factorization.class", _fmt_cochain(cf.omega.representative))
            pts = []
            while len(pts) < 3:
                cand = rng.randint(-6, 6)
                if cand != 0:
                    pts.append(cand)
            for i, value in enumerate(pts):
                point = {v: value for v in g.base_vars}
                triple = g.embedding_splitting_triple(point)
                rep.emit(f"embedding_triple.{i}",
                         f"{triple.embedding},{triple.fiber},{triple.family}")
                if not triple.lemma_holds:
                    code = EXIT_FAIL
        elif j != INFINITY:
            oc = obstruction_cocycle(g, int(j), window=window)
            rep.emit("obstruction.trivial", oc.cls.trivial)
            rep.emit("obstruction.canonical", _fmt_cochain(oc.cls.representative))
            result = attempt_split(g, window=window)
            rep.emit("attempt_split.split", result.split)
        else:
            result = attempt_split(g, window=window)
            rep.emit("attempt_split.split", result.split)
    for name, m in doc.gt_models.items():
        rep.emit(f"gtmodel.{name}.class_trivial", _checked_class(m).trivial)
        if m.base_rank == 0:
            continue    # no level for the A1 check, as in a1-check
        r = verify_a1_containment(m, m.base_rank - 1, window=window)
        rep.emit(f"gtmodel.{name}.a1_ok", r.ok)
        if not r.ok:
            code = EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
