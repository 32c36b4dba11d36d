"""The secondary complex of an extension-type model.

A product-type model whose odd bundle is an extension carries a filtration
on its exterior powers; the graded pieces produce a bounded differential
complex, and the cup product with the extension class computes the
differential on classes with a single fiber factor.
"""

import importlib.resources as resources

from supercech.modelfile import parse_model_file
from supercech.secondary import (model_class, model_class_map,
                                 secondary_differential, secondary_space,
                                 verify_a1_containment, verify_obstruction_compatibility)
from supercech.sheaf import filtration


def dense(cochain):
    """Every component of every section, zeros included, as text."""
    return {k: [str(p) for p in cochain.section(*k)] for k in cochain.sections}


corpus = resources.files("supercech.corpus")
doc = parse_model_file(corpus / "gt_model_p1.model")
m = doc.gt_models["M"]

print("== the model and its class ==")
print("fiber rank:", m.fiber_rank, "| base rank:", m.base_rank,
      "| extension rank:", m.total_odd.rank)
report = model_class(m)
print("extension class trivial:", report.cls.trivial)
print("cross-validated against the connecting image of the identity:",
      report.cross_validated)

print()
print("== the filtration on exterior powers ==")
filt = filtration(m.total_odd, m.base_spec, m.fiber_spec, 3)
filt.verify()
print("piece ranks:", {k: len(v) for k, v in filt.pieces.items()})
print("graded ranks:", {k: len(v) for k, v in filt.graded.items()})

print()
print("== graded space dimensions ==")
for (a, b, p) in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 3, 1)]:
    space = secondary_space(m, a, b, p)
    print(f"dim H[a={a}, b={b}, degree {p}] = {space.dimension}")

print()
print("== the differential versus the cup construction ==")
space = secondary_space(m, 1, 2, 0)
shown = 0
for i, nu in enumerate(space.basis):
    lhs = model_class_map(m, 1, 2, 0, nu)
    rhs = secondary_differential(m, 1, 2, 0, nu)
    if not lhs.cls.trivial and shown < 2:
        print(f"basis class {i}:")
        print("  cup image:         ",
              dense(lhs.cls.representative))
        print("  differential image:",
              dense(rhs.cls.representative))
        shown += 1
rep = verify_a1_containment(m, 2)
print("all", rep.dimension, "basis classes agree:", rep.ok)

print()
print("== comparison over an odd-direction base ==")
odd_doc = parse_model_file(corpus / "gtm_odd_base.model")
cr = verify_obstruction_compatibility(odd_doc.gluing, odd_doc.base_odd)
print("restricted total-space class equals the underlying class:", cr.ok)
print("common canonical representative:",
      dense(cr.fiber_class.representative))
