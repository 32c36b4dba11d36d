"""Gluing data for supermanifolds: verification and splitting type.

Loads the split and non-split structures on the projective line from the
bundled corpus, verifies the exact inverse conditions, and reads off the
deviation level of each presentation.
"""

import importlib.resources as resources

from supercech.modelfile import parse_model_file
from supercech.gluing import invert_transition
from supercech.sheaf import rows_of

corpus = resources.files("supercech.corpus")

split = parse_model_file(corpus / "split_p1.model").gluing
nonsplit = parse_model_file(corpus / "nonsplit_p1.model").gluing

print("== split model ==")
print(split.transitions[("U0", "U1")])
print("verification:", split.verify_cocycle())
print("splitting type:", split.splitting_type())

print()
print("== non-split model ==")
print(nonsplit.transitions[("U0", "U1")])
print("verification:", nonsplit.verify_cocycle())
print("splitting type:", nonsplit.splitting_type())

print()
print("== the inverse transition is solved order by order ==")
t01 = nonsplit.transitions[("U0", "U1")]
print(invert_transition(t01))

print()
print("== reduction: degree-zero maps and degree-one matrices ==")
space, odd_spec = nonsplit.reduce()
print("reduced map U0 -> U1:", {v: str(p) for v, p in
                                space.coordinate_maps[("U0", "U1")].items()})
print("odd matrix U0 -> U1:",
      [[str(e) for e in row] for row in rows_of(odd_spec.matrices[("U0", "U1")],
                                                 space.cover.chart("U0").vars)])
