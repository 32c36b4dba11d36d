"""Outputs one scale past the unknowns budget stay the same.

Each run of ``next_scale.json`` builds a model with a generator of
``perfbench/models.py`` and runs one command on it in process, with
``cech.MAX_UNKNOWNS`` lifted to 10^9 inside the test only: at the product's
budget these runs exit 3.  The structured stdout must keep its recorded
sha256 and pass the oracle recorded beside it: a gauged model is split by
construction, the dimensions ``secondary`` prints for gt(10, 10) satisfy
Riemann-Roch, and ``a1-check`` on it finds every level of the A1
containment to hold.  The ``basis`` entry records an H^1 basis of a
family sheaf that the budget refuses, decided with the same lift.  Edit a
recorded digest only when a change of output is intended.
"""

import hashlib
import importlib.util
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import supercech as sc
from supercech import cech
from supercech.cech import DecisionPlan, cohomology_basis
from supercech.cli import main
from supercech.family import rothstein_family
from supercech.sheaf import sheaf_dual, sheaf_exterior_power, sheaf_tensor

from conftest import load_model, perfbench_models

RECORD = json.loads(Path(__file__).with_name("next_scale.json").read_text())
RUNS = RECORD["runs"]


def perfbench_oracle():
    """``perfbench/oracle.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def run_lifted(monkeypatch, tmp_path, model: str, command: str) -> str:
    """The structured stdout of ``command`` on ``model``, with the budget
    lifted; the run must exit 0."""
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 10 ** 9)
    path = tmp_path / "run.model"
    path.write_text(model)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, "--input", str(path), "--format", "structured"])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("run", RUNS, ids=[f"{r['generator']} {r['command']}" for r in RUNS])
def test_next_scale_output_is_the_recorded_one(monkeypatch, tmp_path, run):
    models, oracle = perfbench_models(), perfbench_oracle()
    model = eval(run["generator"], {"__builtins__": {}}, {
        "gauged_model": models.gauged_model, "gt_model": models.gt_model,
        "sc": sc, "random": random})
    assert hashlib.sha256(model.encode()).hexdigest() == run["model_sha256"]
    out = run_lifted(monkeypatch, tmp_path, model, run["command"])
    check = eval(run["oracle"], {"__builtins__": {}}, {
        "expect": oracle.expect, "riemann_roch": oracle.riemann_roch,
        "all_fields": oracle.all_fields})
    assert check(out) is None
    assert hashlib.sha256(out.encode()).hexdigest() == run["stdout_sha256"]


def _dual_square_of_determinant(g):
    _, odd = g.reduce()
    dual = sheaf_dual(sheaf_exterior_power(odd, odd.rank))
    return sheaf_tensor(dual, dual)


def test_family_basis_over_the_budget_is_the_recorded_one(monkeypatch):
    record = RECORD["basis"]
    monkeypatch.setattr(cech, "MAX_UNKNOWNS", 10 ** 9)
    family = rothstein_family(load_model(f"{record['model']}.model").gluing).gluing
    sheaf = _dual_square_of_determinant(family)
    basis = cohomology_basis(sheaf, 1)
    # flat base change: each monomial of the inert base coordinates in the
    # window carries a copy of the H^1 of the fiber over 1 in that window
    top = DecisionPlan(sheaf, degree=1).top
    fiber = family.evaluate_base({v: 1 for v in family.base_vars})
    per_fiber = len(cohomology_basis(_dual_square_of_determinant(fiber), 1, window=top))
    assert len(basis) == record["dimension"] == (top + 1) ** len(family.base_vars) * per_fiber
    digest = hashlib.sha256("\n".join(map(str, basis)).encode()).hexdigest()
    assert digest == record["basis_sha256"]
