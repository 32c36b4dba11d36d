"""Obstruction classes, the splitting attempt, and the scaling action.

The non-split structure on the projective line has a unique obstruction
class at level two; scaling the odd directions by lambda multiplies it by
lambda^2, and the level-by-level solver certifies that it cannot be removed.
"""

import importlib.resources as resources
from fractions import Fraction as Q

from supercech.modelfile import parse_model_file
from supercech.obstruction import (attempt_split, obstruction_cocycle,
                                   scale_class, scaling_action)

corpus = resources.files("supercech.corpus")
nonsplit = parse_model_file(corpus / "nonsplit_p1.model").gluing
split = parse_model_file(corpus / "split_p1.model").gluing

print("== the level-2 obstruction class ==")
oc = obstruction_cocycle(nonsplit, 2)
print("cocycle:   ", [str(p) for p in oc.cochain.section("U0", "U1")])
print("canonical: ", [str(p) for p in oc.cls.representative.section("U0", "U1")])
print("trivial:   ", oc.cls.trivial)

print()
print("== scaling equivariance ==")
for lam in (Q(2), Q(-1), Q(1, 2)):
    scaled = obstruction_cocycle(scaling_action(nonsplit, lam), 2)
    expected = scale_class(oc, lam)
    match = scaled.cls.representative == expected.cls.representative
    rep = [str(p) for p in scaled.cls.representative.section("U0", "U1")]
    print(f"lambda = {lam}: class {rep}, equals lambda^2 * class: {match}")

print()
print("== the splitting attempt ==")
print("on the non-split model:")
result = attempt_split(nonsplit)
print("  split:", result.split, "| fatal level:", result.fatal_level)

print("on a disguised split model (conjugated by a coordinate change):")
from supercech.gluing import SuperTransition, identity_transition
from supercech.parsing import parse_element

ch0 = split.chart("U0")
P0 = lambda s: parse_element(s, ch0.vars, ch0.odd_rank)
disguise = SuperTransition(ch0, ch0, {"x": P0("x + 5*x^2*theta_1*theta_2")},
                           {1: P0("theta_1"), 2: P0("theta_2")})
conjugated = split.conjugate({"U0": disguise,
                              "U1": identity_transition(split.chart("U1"))})
print("  presentation deviation level:", conjugated.splitting_type())
result = attempt_split(conjugated)
print("  split:", result.split)
print("  recovered witness on U0:")
print("   ", repr(result.witnesses["U0"]).replace("\n", "\n    "))
