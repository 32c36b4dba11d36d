import importlib.util
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import settings

from supercech.grassmann import GrassmannElement
from supercech.laurent import LaurentPoly
from supercech.modelfile import parse_model_file
from supercech.parsing import parse_element
from supercech.spaces import Chart, Cover, ReducedSpace
from supercech.gluing import SuperGluingData, SuperTransition
from supercech.sheaf import SheafSpec, columns_of, invert_laurent_matrix, rows_of

import importlib.resources as resources

Q = Fraction

# one Hypothesis profile for every run: the same examples each time, no
# example database on disk and no per-example deadline on a loaded machine;
# a test sets only its own max_examples
settings.register_profile("supercech", derandomize=True, database=None, deadline=None)
settings.load_profile("supercech")


def corpus_path(name: str):
    return resources.files("supercech.corpus") / name


def load_model(name: str):
    return parse_model_file(corpus_path(name))


@cache
def perfbench_models():
    """The benchmark's input generators, ``perfbench/models.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"
    spec = importlib.util.spec_from_file_location("perfbench_models", path)
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return models


@pytest.fixture(scope="session")
def split_p1():
    return load_model("split_p1.model").gluing


@pytest.fixture(scope="session")
def nonsplit_p1():
    return load_model("nonsplit_p1.model").gluing


@pytest.fixture(scope="session")
def nonsplit_p1_level3():
    return load_model("nonsplit_p1_level3.model").gluing


@pytest.fixture(scope="session")
def split_three_charts():
    return load_model("split_p1_three_charts.model").gluing


@pytest.fixture(scope="session")
def two_parameter_family():
    return load_model("two_parameter_family.model").gluing


@pytest.fixture(scope="session")
def gt_model_doc():
    return load_model("gt_model_p1.model")


@pytest.fixture(scope="session")
def gtm_odd_base_doc():
    return load_model("gtm_odd_base.model")


@pytest.fixture(scope="session")
def p1_space(nonsplit_p1):
    space, odd_spec = nonsplit_p1.reduce()
    return space


def line_bundle(space, n: int) -> SheafSpec:
    """Two-chart projective-line spec with overlap matrix x^-n (so that
    dim H0 = n+1 for n >= 0 and dim H1 = -n-1 for n <= -2)."""
    (a, b) = space.cover.canonical_overlaps()[0]
    xa = space.cover.chart(a).vars
    xb = space.cover.chart(b).vars
    mats = {(a, b): columns_of([[LaurentPoly.monomial(xa, 1, tuple(-n if v == xa[0] else 0
                                                                   for v in xa))]]),
            (b, a): columns_of([[LaurentPoly.monomial(xb, 1, tuple(-n if v == xb[0] else 0
                                                                   for v in xb))]])}
    return SheafSpec(space, 1, mats)


def invert_rows(rows):
    """``sheaf.invert_laurent_matrix`` of a square matrix given and returned as dense rows."""
    vars = rows[0][0].vars
    inv = invert_laurent_matrix(columns_of(rows), vars)
    return None if inv is None else rows_of(inv, vars)


def random_grassmann(rng: random.Random, vars, odd_rank, max_terms=3,
                     exp_range=(-2, 2), parity=None) -> GrassmannElement:
    import itertools
    indices = []
    for size in range(odd_rank + 1):
        indices.extend(itertools.combinations(range(1, odd_rank + 1), size))
    if parity == "even":
        indices = [i for i in indices if len(i) % 2 == 0]
    elif parity == "odd":
        indices = [i for i in indices if len(i) % 2 == 1]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        idx = rng.choice(indices)
        exps = tuple(rng.randint(*exp_range) for _ in vars)
        coef = Q(rng.randint(-4, 4), rng.randint(1, 3))
        poly = LaurentPoly.monomial(vars, coef, exps)
        cur = terms.get(idx)
        terms[idx] = poly if cur is None else cur + poly
    return GrassmannElement(vars, odd_rank, {k: v for k, v in terms.items() if not v.is_zero()})


def parse(text, vars=("x",), q=2):
    return parse_element(text, tuple(vars), q)
