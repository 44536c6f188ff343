import random

import pytest

import slopelab.slope as slope_module
from slopelab.laurent import LaurentPoly
from slopelab.linalg import Matrix
from slopelab.seifert import CComplexPresentation


def random_laurent(rng, num_vars, max_terms=4, exp_range=2, coeff_range=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(-exp_range, exp_range) for _ in range(num_vars))
        terms[exps] = terms.get(exps, 0) + rng.randint(-coeff_range, coeff_range)
    return LaurentPoly(num_vars, terms)


def random_nonzero_laurent(rng, num_vars, **kw):
    while True:
        p = random_laurent(rng, num_vars, **kw)
        if not p.is_zero():
            return p


def int_matrix(ctx, rows):
    return Matrix(ctx, [[ctx.from_int(x) for x in row] for row in rows])


def transpose(m):
    return Matrix(
        m.ctx, [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )


@pytest.fixture(autouse=True)
def empty_record_memo():
    """Every test starts on an empty slope record memo, so whether a torsion
    slope is read off a record or solved directly never depends on which
    tests ran before."""
    slope_module._RECORDS.clear()
    return slope_module._RECORDS


@pytest.fixture
def rng():
    return random.Random(20240917)


@pytest.fixture
def whitehead():
    return CComplexPresentation.build(
        1, 2, {"+": [[0, 0], [1, 1]]}, [1, 0], label="whitehead"
    )


@pytest.fixture
def trefoil():
    return CComplexPresentation.build(
        1, 2, {"+": [[-1, 1], [0, -1]]}, [0, 0], label="trefoil"
    )
