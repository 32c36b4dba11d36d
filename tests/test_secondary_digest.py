"""The cochains behind the secondary layer stay the same.

``secondary`` prints dimensions only, so this pins what it computes: every
basis cochain of every graded space, the model class (representative and
witness), and for every basis class with a >= 1 the cochain, canonical
representative and witness of its differential and of its model-class
image.  Each model's items are joined and hashed with sha256.  Re-record
(only when a change of cochains is intended) with

    PYTHONPATH=src python tests/test_secondary_digest.py --record
"""

import hashlib
import random
import sys

import pytest

from supercech.modelfile import parse_model_text
from supercech.secondary import (model_class, model_class_map, secondary_differential,
                                 secondary_spaces)

from conftest import load_model, perfbench_models

RECORDED = {
    "gt_model_p1": "ea4afd106ceb075e1c3843493cb123255383076d405ad592419097eb92c85852",
    "gt(4, 4) seed 1": "0c35e4b8ef1605db208e2dc396e990220b05ef023b7c764e5e547556771f1821",
    "gt(4, 4) seed 7": "409a7d1fe406b2a1fb260806bb48c57778ebc2526a3044a8bfd329478b4aa4e8",
}


def load(name: str):
    if name == "gt_model_p1":
        return load_model("gt_model_p1.model").gt_models["M"]
    seed = int(name.rsplit(" ", 1)[1])
    return parse_model_text(perfbench_models().gt_model(random.Random(seed), 4, 4)).gt_models["M"]


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
                out += _value(secondary_differential(m, space.a, space.b, space.p, nu))
                out += _value(model_class_map(m, space.a, space.b, space.p, nu))
    return out


def digest(name: str) -> str:
    return hashlib.sha256("\n\n".join(items(load(name))).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_secondary_cochains_are_the_recorded_ones(name):
    assert digest(name) == RECORDED[name]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for name in RECORDED:
        print(f"    {name!r}: {digest(name)!r},")
