"""The cochains behind the secondary layer stay the same.

``secondary`` prints dimensions only, so this pins what it computes: every
basis cochain of every graded space, the model class (representative and
witness), and for every basis class with a >= 1 the cochain, canonical
representative and witness of its differential and of its model-class
image.  Two entries have a fiber of rank 2: only there do differentials
with a = 2 occur, whose piece F_b is larger than F_b/F_{b+2}.  One more
entry pins the H^0 and H^1 basis cochains of line bundles on the
three-chart cover, whose H^1 bases go through the cocycle relations on the
triple.  Each entry's items are joined and hashed with sha256.  Re-record
(only when a change of cochains is intended) with

    PYTHONPATH=src python tests/test_secondary_digest.py --record
"""

import hashlib
import random
import sys

import pytest

from supercech.cech import cohomology_basis
from supercech.modelfile import parse_model_text
from supercech.secondary import (gt_model, hom_into_quotient, model_class, model_class_map,
                                 secondary_differential, secondary_spaces)
from supercech.sheaf import (sheaf_dual, sheaf_exterior_power, sheaf_hom, sheaf_tensor,
                             trivial_spec)

from conftest import load_model, perfbench_models

THREE_CHARTS = "split_p1_three_charts bases"

RECORDED = {
    "gt_model_p1": "ea4afd106ceb075e1c3843493cb123255383076d405ad592419097eb92c85852",
    "gt(4, 4) seed 1": "0c35e4b8ef1605db208e2dc396e990220b05ef023b7c764e5e547556771f1821",
    "gt(4, 4) seed 7": "409a7d1fe406b2a1fb260806bb48c57778ebc2526a3044a8bfd329478b4aa4e8",
    "gt(6, 6) seed 1": "840286467fbf2c0983efea3243106b680d162c8a6653716403fd03700ea94784",
    "nonsplit_p1 fiber, base rank 3": "5ee3fe1de11be01a734a303d9476c0a2f10fb0c078bd6ea83eaf8e70b1782102",
    "split_p1_three_charts fiber, base rank 3": "0b8fc2c9c0b96b501eff6596a9d1d0b3b04bb9f1ff06172633a778a98ef728dc",
    THREE_CHARTS: "33ef919f605ce81b1cd28ad7d23c887c65f0143f1fcbe4bbeab21c00a97842d8",
}


def rank_two_fiber_model(corpus: str, base_rank: int):
    """The gt model over the odd spec of a corpus model whose extension
    cocycle is the sum of the H^1 basis of hom(fiber, O^base_rank)."""
    space, fiber = load_model(f"{corpus}.model").gluing.reduce()
    basis = cohomology_basis(sheaf_hom(fiber, trivial_spec(space, base_rank)), 1)
    theta = sum(basis[1:], basis[0])
    return gt_model(space, fiber, base_rank, {key: theta.section(*key) for key in theta.sections})


def load(name: str):
    if name == "gt_model_p1":
        return load_model("gt_model_p1.model").gt_models["M"]
    if " fiber, base rank " in name:
        corpus, base_rank = name.split(" fiber, base rank ")
        return rank_two_fiber_model(corpus, int(base_rank))
    sizes, seed = name.split(" seed ")
    d, r = map(int, sizes[len("gt("):-1].split(", "))
    return parse_model_text(perfbench_models().gt_model(random.Random(int(seed)), d, r)).gt_models["M"]


def _value(v) -> list[str]:
    if v.cls is None:
        return [str(v.cochain), "-", "-"]
    return [str(v.cochain), str(v.cls.representative), str(v.cls.witness)]


def items(m) -> list[str]:
    cls = model_class(m).cls
    out = [str(cls.representative), str(cls.witness)]
    for space in secondary_spaces(m):
        for i, nu in enumerate(space.basis):
            out.append(f"({space.a}, {space.b}, {space.p}) #{i}\n{nu}")
            if space.a >= 1:
                differential = secondary_differential(m, space.a, space.b, space.p, nu)
                # valued in the interned graded space itself, so an A1 sample
                # whose two images are equal is decided once
                assert differential.cochain.sheaf is hom_into_quotient(m, space.a - 1, space.b + 1)
                out += _value(differential)
                out += _value(model_class_map(m, space.a, space.b, space.p, nu))
    return out


def three_chart_items() -> list[str]:
    """Every H^0 and H^1 basis cochain of the odd spec of
    ``split_p1_three_charts``, of its determinant, of that determinant's
    dual and of dual (x) dual."""
    _, odd = load_model("split_p1_three_charts.model").gluing.reduce()
    det = sheaf_exterior_power(odd, 2)
    dual = sheaf_dual(det)
    out = []
    for label, spec in (("odd", odd), ("det", det), ("dual", dual),
                        ("dual (x) dual", sheaf_tensor(dual, dual))):
        for p in (0, 1):
            out += [f"{label} H^{p} #{i}\n{c}" for i, c in enumerate(cohomology_basis(spec, p))]
    return out


def digest(name: str) -> str:
    found = three_chart_items() if name == THREE_CHARTS else items(load(name))
    return hashlib.sha256("\n\n".join(found).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_secondary_cochains_are_the_recorded_ones(name):
    assert digest(name) == RECORDED[name]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for name in RECORDED:
        print(f"    {name!r}: {digest(name)!r},")
