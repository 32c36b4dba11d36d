"""The three workloads: their seeded inputs and fixed job lists.

A job is one ``supercech`` command line.  Each workload writes its inputs
into a work directory and returns the jobs in the order one pass runs them.
A job that ``writes`` a model has its printed model saved there, and a later
job of the same pass reads it back, so every written model is parsed and
verified again by the program itself.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import models
from oracle import all_fields, expect, riemann_roch

CORPUS = os.path.join("src", "supercech", "corpus")
INF = "infinity"


@dataclass
class Job:
    id: str                       # stable across seeds; keys the digest file
    argv: list[str]
    code: int = 0                 # expected exit code
    checks: tuple = ()            # oracle checks on stdout, see oracle.py
    writes: str | None = None     # save the printed model here
    seeded: bool = True           # inputs or arguments depend on the seed
    size: dict = field(default_factory=dict)


def _corpus(name: str) -> str:
    return os.path.join(CORPUS, f"{name}.model")


def _cmd(command: str, path: str, *extra: str, fmt: str = "structured") -> list[str]:
    return [command, "--input", path, "--format", fmt, *extra]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _size(d=None, r=None, q=None, window="auto") -> dict:
    return {"d": d, "r": r, "q": q, "window": window}


# ------------------------------------------------------------ gt-secondary

GT_GRID = ((2, 3), (4, 2), (6, 2))


def gt_secondary(sc, seed: int, work: str, run_cli) -> list[Job]:
    rng = random.Random(seed)
    inputs = [("gt_model_p1", _corpus("gt_model_p1"), 4, 3, False)]
    for d, r in GT_GRID:
        name = f"gt-d{d}-r{r}"
        path = _write(os.path.join(work, f"{name}.model"), models.gt_model(rng, d, r))
        inputs.append((name, path, d, r, True))
    jobs = []
    for name, path, d, r, seeded in inputs:
        size = _size(d, r, 0)
        jobs += [
            Job(f"{name}/verify", _cmd("verify", path),
                checks=(expect(gluing__ok="True", gtmodel__M__cross_validated="True"),),
                seeded=seeded, size=size),
            Job(f"{name}/secondary", _cmd("secondary", path),
                checks=(riemann_roch(d, r),), seeded=seeded, size=size),
            Job(f"{name}/a1-check", _cmd("a1-check", path),
                checks=(all_fields(".ok", "True", r),), seeded=seeded, size=size),
            Job(f"{name}/report-all", _cmd("report-all", path),
                checks=(expect(verify__ok="True", gtmodel__M__a1_ok="True"),),
                seeded=seeded, size=size),
        ]
    # A gt-only command on input without a gt model is an input error.  The
    # odd job count also puts the median latency on one job, not on the gap
    # between two.
    jobs.append(Job("nonsplit_p1/a1-check", _cmd("a1-check", _corpus("nonsplit_p1")),
                    code=2, seeded=False, size=_size(q=2)))
    return jobs


# ------------------------------------------------------- obstruction-solve

def obstruction_solve(sc, seed: int, work: str, run_cli) -> list[Job]:
    rng = random.Random(seed)
    level2 = _write(os.path.join(work, "nonsplit-l2.model"), models.nonsplit_level2(sc, rng))
    level3 = _write(os.path.join(work, "nonsplit-l3.model"), models.nonsplit_level3(sc, rng))
    gauged = _write(os.path.join(work, "split-q5-gauged.model"),
                    models.gauged_model(sc, rng, 5, planted=False))
    families = []
    for name, src, level, q, seeded in (("nonsplit-l2", level2, 2, 2, True),
                                        ("nonsplit-l3", level3, 3, 3, True),
                                        ("gtm_odd_base", _corpus("gtm_odd_base"), 2, 3, False)):
        code, out = run_cli(["rothstein", "--input", src])
        if code != 0:
            raise RuntimeError(f"rothstein on {src} exited {code}")
        families.append((name, _write(os.path.join(work, f"{name}-family.model"), out),
                         level, q, seeded))
    jobs = [Job(f"{name}-family/obstruction", _cmd("obstruction", path),
                checks=(expect(level=level, trivial="False"),), seeded=seeded,
                size=_size(q=q))
            for name, path, level, q, seeded in families]
    jobs += [
        Job("two_parameter_family/obstruction-w4",
            _cmd("obstruction", _corpus("two_parameter_family"), "--window-hi", "4"),
            checks=(expect(level=2, trivial="False"),), seeded=False,
            size=_size(q=2, window=4)),
        Job("split-q5-gauged/attempt-split", _cmd("attempt-split", gauged),
            checks=(expect(split="True"),), size=_size(q=5)),
    ]
    return jobs


# -------------------------------------------------------- gluing-transform

# corpus model -> (odd rank, splitting type of the presentation)
GLUING_CORPUS = {
    "split_p1": (2, INF), "split_p1_three_charts": (2, INF),
    "nonsplit_p1": (2, "2"), "nonsplit_p1_level3": (3, "3"),
    "gtm_odd_base": (3, "2"), "gt_model_p1": (0, INF),
    "two_parameter_family": (2, "2"),
}
LAMBDAS = ("2", "3", "-2", "-3")
POINTS = ("1", "2", "-1", "-2")


def gluing_transform(sc, seed: int, work: str, run_cli) -> list[Job]:
    rng = random.Random(seed)
    inputs = [(name, _corpus(name), q, st, False)
              for name, (q, st) in GLUING_CORPUS.items()]
    for q in (4, 5, 6):
        for planted in (False, True):
            name = f"{'planted' if planted else 'split'}-q{q}-gauged"
            text = models.gauged_model(sc, rng, q, planted)
            # gauge corrections start at degree 2 (split) or 3 (planted at 2)
            inputs.append((name, _write(os.path.join(work, f"{name}.model"), text),
                           q, "2", True))
    jobs = []
    for name, path, q, st, seeded in inputs:
        size = _size(q=q)
        lam, at = rng.choice(LAMBDAS), rng.choice(POINTS)
        fam = os.path.join(work, f"{name}-family.model")
        scaled = os.path.join(work, f"{name}-scaled.model")
        glued = os.path.join(work, f"{name}-glued.model")
        if name == "two_parameter_family":
            # t1 + t2^2 != 0 keeps the deviation alive on the fiber
            base = f"t1={rng.choice(('1', '2', '1/2'))},t2={rng.choice(('1', '-1', '3'))},"
        else:
            base = ""

        def job(suffix, argv, checks=(), writes=None, seed_dep=seeded):
            return Job(f"{name}/{suffix}", argv, checks=checks, writes=writes,
                       seeded=seed_dep, size=size)
        jobs += [
            job("verify", _cmd("verify", path), (expect(gluing__ok="True"),)),
            job("splitting-type", _cmd("splitting-type", path), (expect(splitting_type=st),)),
            job("rothstein", _cmd("rothstein", path), writes=fam),
            job("family-at-0", _cmd("splitting-type", fam, "--at", f"{base}t=0"),
                (expect(splitting_type=INF),), seed_dep=seeded or bool(base)),
            job("family-at-t", _cmd("splitting-type", fam, "--at", f"{base}t={at}"),
                (expect(splitting_type=st),), seed_dep=True),
            job("scale", _cmd("scale", path, f"--lambda={lam}"), writes=scaled, seed_dep=True),
            job("scaled-verify", _cmd("verify", scaled), (expect(gluing__ok="True"),),
                seed_dep=True),
            job("glue-p1", _cmd("glue-p1", path, fmt="text"), (expect(witness_ok="True"),),
                writes=glued),
            job("glued-verify", _cmd("verify", glued), (expect(gluing__ok="True"),)),
        ]
    bad = _corpus("corrupt_sign")
    jobs += [Job(f"corrupt_sign/{cmd}", _cmd(cmd, bad), code=code, seeded=False,
                 size=_size(q=2))
             for cmd, code in (("verify", 1), ("splitting-type", 1), ("rothstein", 1),
                               ("secondary", 2), ("a1-check", 2))]
    return jobs


WORKLOADS = {
    "gt-secondary": gt_secondary,
    "obstruction-solve": obstruction_solve,
    "gluing-transform": gluing_transform,
}

# Boundaries each workload must reach in a traced run (zero calls fails it).
PREDICTED_BOUNDARIES = {
    "gt-secondary": ("cli.main", "modelfile.parse_model_text", "linalg.rref",
                     "cech._delta0_linearization", "cech.cohomology_class",
                     "cech.cohomology_basis", "sheaf.SheafSpec.__init__",
                     "sheaf.SheafSpec.transport", "spaces.ReducedSpace.compose_into",
                     "secondary.secondary_space", "secondary.verify_a1_containment"),
    "obstruction-solve": ("cli.main", "linalg.rref", "cech.solve_coboundary",
                          "cech.cohomology_class", "obstruction.obstruction_cocycle",
                          "obstruction.attempt_split", "gluing.compose_transitions",
                          "gluing.invert_transition",
                          "grassmann.GrassmannElement.substitute"),
    "gluing-transform": ("cli.main", "modelfile.parse_model_text", "modelfile.write_gluing",
                         "grassmann.GrassmannElement.substitute",
                         "gluing.compose_transitions", "gluing.invert_transition",
                         "family.rothstein_family", "family.glue_over_p1",
                         "obstruction.scaling_action"),
}
