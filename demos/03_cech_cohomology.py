"""Exact Cech cohomology of line bundles on the projective line.

The two-chart spec with overlap matrix x^-n realizes the degree-n bundle:
dim H0 = n+1 for n >= 0 and dim H1 = -n-1 for n <= -2, decided by finite
linear algebra over the rationals.
"""

import importlib.resources as resources

from supercech.cech import CechCochain, cohomology_basis, is_coboundary
from supercech.laurent import LaurentPoly
from supercech.modelfile import parse_model_file
from supercech.sheaf import columns_of, sheaf_spec

corpus = resources.files("supercech.corpus")
space, _ = parse_model_file(corpus / "split_p1.model").gluing.reduce()


def line_bundle(n):
    return sheaf_spec(space, 1, {
        ("U0", "U1"): columns_of([[LaurentPoly.monomial(("x",), 1, (-n,))]]),
        ("U1", "U0"): columns_of([[LaurentPoly.monomial(("y",), 1, (-n,))]])}, check=True)


print("degree   dim H0   dim H1")
for n in range(-4, 5):
    spec = line_bundle(n)
    h0 = cohomology_basis(spec, 0)
    h1 = cohomology_basis(spec, 1)
    print(f"{n:6d}   {len(h0):6d}   {len(h1):6d}")

print()
print("== canonical class representatives for degree -4 ==")
for c in cohomology_basis(line_bundle(-4), 1):
    print("  ", str(c.section("U0", "U1")[0]))

print()
print("== deciding coboundaries with witnesses ==")
spec = line_bundle(-2)
for exponent in (0, -1):
    c = CechCochain(spec, 1, {("U0", "U1"): [LaurentPoly.monomial(("x",), 1, (exponent,))]})
    ok, data = is_coboundary(c)
    if ok:
        print(f"x^{exponent}: coboundary; witness on U0 is",
              str(data.section('U0')[0]))
    else:
        print(f"x^{exponent}: nontrivial class with canonical representative",
              str(data.section('U0', 'U1')[0]))
