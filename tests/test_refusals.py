"""Refusals of input the paper excludes, and the verification report's text.

Each case names the call, the error type and the exact message, so a
changed message or a refusal that moved to another check fails here.
"""

import pytest

from supercech.cech import CechCochain
from supercech.errors import CocycleError, SupercechError
from supercech.family import FamilySpec, isotriviality_witness, read_glued_family
from supercech.gluing import SuperGluingData, SuperTransition, invert_transition
from supercech.laurent import LaurentPoly
from supercech.modelfile import ModelDocument, parse_model_text
from supercech.obstruction import (characteristic_factorization, obstruction_cocycle,
                                   scale_class, splitting_type_differential)
from supercech.parsing import parse_element
from supercech.secondary import gt_model, refined_splitting_data
from supercech.sheaf import sheaf_exterior_power, sheaf_hom, trivial_spec
from supercech.spaces import Chart, Cover

from conftest import load_model
from test_cli import run_cli

# a family over t whose odd bundle, but not its reduced data, depends on t;
# it passes verify (4 checks)
BASE_DEPENDENT_ODD_BUNDLE = """format 1

chart U0
  fiber x
  base t
  odd 2

chart U1
  fiber y
  base t
  odd 2

overlap U0 U1
overlap U1 U0

transition U0 U1
  y = 1/x + x^-3*theta_1*theta_2
  t = t
  theta_1 = t*x^-2*theta_1
  theta_2 = x^-2*theta_2

transition U1 U0
  x = 1/y + t^-1*y^-3*theta_1*theta_2
  t = t
  theta_1 = t^-1*y^-2*theta_1
  theta_2 = y^-2*theta_2

family t
"""


def _base_dependent_reduced_data() -> SuperGluingData:
    """A family over t whose reduced transitions x <-> t/x depend on t.  The
    checking constructor refuses a reduced image in two coordinates, so the
    transitions are built unchecked; the data verify, with splitting type 2."""
    u0, u1 = Chart("U0", ("x",), ("t",), 2), Chart("U1", ("y",), ("t",), 2)

    def transition(source, target, images):
        maps = {v: parse_element(text, source.vars, 2) for v, text in images.items()}
        return SuperTransition(source, target,
                               {v: maps[v] for v in target.vars},
                               {k: maps[f"theta_{k}"] for k in (1, 2)}, check=False)

    return SuperGluingData(Cover([u0, u1], [("U0", "U1"), ("U1", "U0")]), {
        ("U0", "U1"): transition(u0, u1, {
            "y": "t/x + t*x^-3*theta_1*theta_2", "t": "t",
            "theta_1": "x^-2*theta_1", "theta_2": "x^-2*theta_2"}),
        ("U1", "U0"): transition(u1, u0, {
            "x": "t/y + t^3*y^-3*theta_1*theta_2", "t": "t",
            "theta_1": "t^2*y^-2*theta_1", "theta_2": "t^2*y^-2*theta_2"}),
    }, base_vars=("t",))


def _non_bijective_transition() -> SuperTransition:
    """u = x, v = 2x: each image passes the constructor's checks, but both
    target coordinates come from x."""
    a, b = Chart("A", ("x", "y")), Chart("B", ("u", "v"))
    return SuperTransition(a, b, {"u": parse_element("x", a.vars, 0),
                                  "v": parse_element("2*x", a.vars, 0)}, {})


def _three_chart_space():
    return load_model("split_p1_three_charts.model").gluing.reduce()[0]


def _one_overlap_theta():
    """theta = 1 on (U0, U1) and zero on the other overlaps of the triple."""
    space = _three_chart_space()
    one = LaurentPoly.const(space.cover.chart("U0").vars, 1)
    return gt_model(space, trivial_spec(space, 1), 1, {("U0", "U1"): [one]})


def _refine_one_overlap_cochain():
    """A level-1 cochain of the theta = 0 model, 1 on every frame on
    (U0, U1) and zero elsewhere."""
    space = _three_chart_space()
    m = gt_model(space, trivial_spec(space, 1), 1, {})
    spec = sheaf_hom(m.total_odd, sheaf_exterior_power(m.total_odd, 1))
    one = LaurentPoly.const(space.cover.chart("U0").vars, 1)
    c = CechCochain(spec, 1, {("U0", "U1"): [one] * spec.rank})
    return refined_splitting_data(m, c, 1)


REFUSALS = [
    ("isotriviality_witness",
     lambda: isotriviality_witness(
         FamilySpec(load_model("two_parameter_family.model").gluing, ("t1", "t2")), 1, 2),
     SupercechError, "one-parameter family expected"),
    ("read_glued_family",
     lambda: read_glued_family(ModelDocument(gluing=load_model("nonsplit_p1.model").gluing)),
     SupercechError, "document carries no base atlas"),
    ("invert_transition", lambda: invert_transition(_non_bijective_transition()),
     SupercechError, "reduced transition is not a coordinate bijection"),
    ("scale_class",
     lambda: scale_class(obstruction_cocycle(load_model("nonsplit_p1.model").gluing, 2), 0),
     ValueError, "scaling factor must be nonzero"),
    ("splitting_type_differential",
     lambda: splitting_type_differential(load_model("nonsplit_p1.model").gluing),
     SupercechError, "splitting type differential needs a family"),
    ("characteristic_factorization",
     lambda: characteristic_factorization(load_model("nonsplit_p1.model").gluing),
     SupercechError, "characteristic factorization needs a family"),
    ("base_dependent_odd_bundle",
     lambda: characteristic_factorization(parse_model_text(BASE_DEPENDENT_ODD_BUNDLE).gluing),
     SupercechError, "odd bundle depends on the base; not product-type"),
    ("base_dependent_reduced_data",
     lambda: characteristic_factorization(_base_dependent_reduced_data()),
     SupercechError, "reduced data depends on the base; not product-type"),
    ("gt_model", _one_overlap_theta, CocycleError, "theta is not a cocycle"),
    ("refined_splitting_data", _refine_one_overlap_cochain,
     CocycleError, "input is not a cocycle"),
]


@pytest.mark.parametrize("name, call, error, message", REFUSALS,
                         ids=[case[0] for case in REFUSALS])
def test_excluded_input_is_refused_with_its_message(name, call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert err.value.args == (message,)


def test_the_base_dependent_families_verify():
    odd = parse_model_text(BASE_DEPENDENT_ODD_BUNDLE).gluing
    assert str(odd.verify_cocycle()) == "pass (4 checks)"
    reduced = _base_dependent_reduced_data()
    assert reduced.verify_cocycle().ok and reduced.splitting_type() == 2


def test_report_all_fails_on_a_base_dependent_odd_bundle(tmp_path, capsys):
    path = tmp_path / "odd_bundle_over_t.model"
    path.write_text(BASE_DEPENDENT_ODD_BUNDLE)
    code, _, err = run_cli(capsys, "report-all", "--input", str(path))
    assert code == 1
    assert err == "check failed: odd bundle depends on the base; not product-type\n"


def test_verification_report_text():
    assert str(load_model("nonsplit_p1.model").gluing.verify_cocycle()) == "pass (2 checks)"
    assert str(load_model("corrupt_sign.model").gluing.verify_cocycle()) == (
        "inverse check failed on ('U0', 'U1'): theta_1: discrepancy (-2)*theta_1\n"
        "inverse check failed on ('U1', 'U0'): theta_1: discrepancy (-2)*theta_1")
