"""Seeded model files for the benchmark workloads.

Every generator takes a ``random.Random`` (and, when it builds gluing data
with the library, the ``supercech`` package) and returns the text of a model
file.  A seed changes coefficients and signs only; the shape of every model
(fiber degree, base rank, odd rank, which monomials appear) is fixed, so a
workload does the same amount of work on every seed.
"""

from __future__ import annotations

import random


def _coef(rng: random.Random) -> int:
    return rng.choice((1, 2, 3)) * rng.choice((1, -1))


def _term(c, body: str) -> str:
    """``c*body`` with the sign pulled out, for use after `` + ``."""
    return f"{c}*{body}" if c > 0 else f"({c})*{body}"


def _p1_charts(odd: int) -> str:
    return (f"format 1\n\nchart U0\n  fiber x\n  odd {odd}\n\n"
            f"chart U1\n  fiber y\n  odd {odd}\n\n"
            "overlap U0 U1\noverlap U1 U0\n\n")


def gt_model(rng: random.Random, d: int, r: int) -> str:
    """Extension-type model on the two-chart P^1: fiber sheaf ``x^-d`` (the
    degree-d bundle), trivial base of rank ``r``, theta rows ``c_i*x^-i``."""
    rows = "\n".join(f"    {_coef(rng)}*x^-{i}" for i in range(1, r + 1))
    return (_p1_charts(0)
            + "transition U0 U1\n  y = 1/x\n\ntransition U1 U0\n  x = 1/y\n\n"
            + f"sheaf TX\n  rank 1\n  matrix U0 U1\n    x^-{d}\n"
            + f"  matrix U1 U0\n    y^-{d}\n\n"
            + f"gtmodel M\n  fiber_sheaf TX\n  base_rank {r}\n  theta U0 U1\n{rows}\n")


class _P1Gluing:
    """Builds gluing data from the U0 -> U1 images alone: the reverse
    transition is the exact inverse, computed by the library."""

    def __init__(self, sc, odd: int):
        self.sc = sc
        self.odd = odd
        self.u0 = sc.spaces.Chart("U0", ("x",), (), odd)
        self.u1 = sc.spaces.Chart("U1", ("y",), (), odd)

    def gluing(self, even: str, odd_images: list[str]):
        parse = self.sc.parsing.parse_element
        t01 = self.sc.gluing.SuperTransition(
            self.u0, self.u1, {"y": parse(even, ("x",), self.odd)},
            {k: parse(e, ("x",), self.odd) for k, e in enumerate(odd_images, 1)})
        t10 = self.sc.gluing.invert_transition(t01)
        cover = self.sc.spaces.Cover([self.u0, self.u1],
                                     [("U0", "U1"), ("U1", "U0")])
        return self.sc.gluing.SuperGluingData(
            cover, {("U0", "U1"): t01, ("U1", "U0"): t10})

    def gauge(self, g, min_degree: int):
        """Conjugate by fixed chartwise coordinate changes whose corrections
        have odd degree ``min_degree`` and above and chart-regular
        coefficients; the result no longer looks split below that degree."""
        q = self.odd
        parse = self.sc.parsing.parse_element
        witnesses = {}
        for chart, v in ((self.u0, "x"), (self.u1, "y")):
            ident = self.sc.gluing.identity_transition(chart)
            even = dict(ident.even_maps)
            odd = dict(ident.odd_maps)
            for k in range(min_degree, q + 1):
                mono = "*".join(f"theta_{i}" for i in range(1, k + 1))
                c = 1 + k % 3
                if k % 2 == 0:
                    even[v] = even[v] + parse(f"{c}*{v}^{k % 3}*{mono}", chart.vars, q)
                else:
                    b = 1 + (k // 2) % q
                    odd[b] = odd[b] + parse(f"{c}*{v}^{k % 2}*{mono}", chart.vars, q)
            witnesses[chart.name] = self.sc.gluing.SuperTransition(chart, chart, even, odd)
        return g.conjugate(witnesses)

    def flip_signs(self, g, rng: random.Random):
        """Conjugate by ``theta_k -> +-theta_k`` with seeded signs on each
        chart.  A diagonal sign change maps every monomial to plus or minus
        itself, so coefficients change sign and no term appears or cancels:
        the model costs the same on every seed."""
        witnesses = {}
        for chart in (self.u0, self.u1):
            ident = self.sc.gluing.identity_transition(chart)
            odd = {k: e.scale(rng.choice((1, -1))) for k, e in ident.odd_maps.items()}
            witnesses[chart.name] = self.sc.gluing.SuperTransition(
                chart, chart, ident.even_maps, odd)
        return g.conjugate(witnesses)


def nonsplit_level2(sc, rng: random.Random) -> str:
    """Odd rank 2, even deviation ``c*x^-3*theta_1*theta_2`` (level 2)."""
    b = _P1Gluing(sc, 2)
    c = _coef(rng)
    g = b.gluing(f"1/x + {_term(c, 'x^-3*theta_1*theta_2')}",
                 ["x^-2*theta_1", "x^-2*theta_2"])
    return sc.modelfile.write_gluing(g, 2)


def nonsplit_level3(sc, rng: random.Random) -> str:
    """Odd rank 3, odd deviation ``c*x^-3*theta_1*theta_2*theta_3`` (level 3)."""
    b = _P1Gluing(sc, 3)
    c = _coef(rng)
    g = b.gluing("1/x", [f"x^-2*theta_1 + {_term(c, 'x^-3*theta_1*theta_2*theta_3')}",
                         "x^-2*theta_2", "x^-2*theta_3"])
    return sc.modelfile.write_gluing(g, 3)


def gauged_model(sc, rng: random.Random, odd: int, planted: bool) -> str:
    """Odd rank ``odd`` on P^1 with odd matrix ``x^-2`` times the identity;
    with ``planted`` a level-2 deviation ``x^-3*theta_1*theta_2`` is added.
    The presentation is gauge-conjugated with corrections of degree 2
    (split) or 3 and above (planted), so the planted level stays the
    splitting type, and then its signs are flipped by the seed."""
    b = _P1Gluing(sc, odd)
    even = "1/x + x^-3*theta_1*theta_2" if planted else "1/x"
    odd_images = [f"x^-2*theta_{k}" for k in range(1, odd + 1)]
    g = b.gauge(b.gluing(even, odd_images), 3 if planted else 2)
    return sc.modelfile.write_gluing(b.flip_signs(g, rng))
