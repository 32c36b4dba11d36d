"""One-parameter scaling families, fibers, and the characteristic section.

The scaling family of a supermanifold multiplies its level-j deviation by
t^j (even j); fibers over nonzero points are conjugate to the input, the
fiber over zero splits, and the family obstruction factors as s(t) times a
fixed fiber class.
"""

import importlib.resources as resources
from fractions import Fraction as Q

from supercech.family import glue_over_p1, isotriviality_witness, rothstein_family
from supercech.modelfile import parse_model_file, write_gluing
from supercech.obstruction import (attempt_split, characteristic_factorization,
                                   splitting_type_differential)

corpus = resources.files("supercech.corpus")
nonsplit = parse_model_file(corpus / "nonsplit_p1.model").gluing

fam = rothstein_family(nonsplit)
print("== the one-parameter scaling family ==")
print(write_gluing(fam.gluing))

print("fiber over t=1 equals the input:", fam.fiber({"t": Q(1)}) == nonsplit)
print("fiber over t=0 splits:", attempt_split(fam.fiber({"t": Q(0)})).split)

print()
print("== the characteristic section ==")
cf = characteristic_factorization(fam.gluing)
print("s(t) =", cf.section)
print("fixed class:", [str(p) for p in cf.omega.representative.section("U0", "U1")])

d = splitting_type_differential(fam.gluing)
print("class of the fiber over t=3:",
      [str(p) for p in d({"t": Q(3)}).cls.representative.section("U0", "U1")])

print()
print("== fibers over nonzero points are conjugate ==")
for (t0, t1) in [(Q(1), Q(2)), (Q(2), Q(3))]:
    _, report = isotriviality_witness(fam, t0, t1)
    print(f"witness for {t0} -> {t1} verified:", report.ok)

print()
print("== gluing two scaling families over the projective line ==")
glued = glue_over_p1(nonsplit)
print("witness exponent:", glued.witness_exponent)
print("witness identity (exact in t):", glued.verify().ok)
bad = glue_over_p1(nonsplit, witness_exponent=-1)
print("wrong exponent fails:", not bad.verify().ok, "--", bad.verify().detail)

print()
print("== a two-parameter family ==")
two = parse_model_file(corpus / "two_parameter_family.model").gluing
cf2 = characteristic_factorization(two)
print("s(t1, t2) =", cf2.section)
