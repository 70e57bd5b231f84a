import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from derinv import GF
from derinv.algebras import (
    Algebra,
    change_basis,
    cyclic_table,
    klein_table,
    make_group_algebra,
    make_matrix_algebra,
    make_trivial_extension,
    make_truncated_polynomial,
    symmetric_table,
)
from derinv.linalg import Mat


# The recurring test corpus.  Session scope: algebras are immutable and
# cache their own derived data, so sharing them speeds everything up.


@pytest.fixture(scope="session")
def k2():
    return make_truncated_polynomial(GF(2), 1)


@pytest.fixture(scope="session")
def dual2():
    return make_truncated_polynomial(GF(2), 2)


@pytest.fixture(scope="session")
def trunc4_2():
    return make_truncated_polynomial(GF(2), 4)


@pytest.fixture(scope="session")
def c2():
    return make_group_algebra(GF(2), cyclic_table(2), kind={"name": "group", "group": "C2"})


@pytest.fixture(scope="session")
def c4():
    return make_group_algebra(GF(2), cyclic_table(4), kind={"name": "group", "group": "C4"})


@pytest.fixture(scope="session")
def c8():
    return make_group_algebra(GF(2), cyclic_table(8), kind={"name": "group", "group": "C8"})


@pytest.fixture(scope="session")
def klein():
    return make_group_algebra(GF(2), klein_table(), kind={"name": "group", "group": "C2xC2"})


@pytest.fixture(scope="session")
def uv(dual2):
    return make_trivial_extension(dual2)


@pytest.fixture(scope="session")
def s3_2():
    return make_group_algebra(GF(2), symmetric_table(3), kind={"name": "group", "group": "S3"})


@pytest.fixture(scope="session")
def m2k(k2):
    return make_matrix_algebra(k2, 2)


@pytest.fixture(scope="session")
def c3_3():
    return make_group_algebra(GF(3), cyclic_table(3), kind={"name": "group", "group": "C3"})


@pytest.fixture(scope="session")
def c9_3():
    return make_group_algebra(GF(3), cyclic_table(9), kind={"name": "group", "group": "C9"})


@pytest.fixture(scope="session")
def trunc3_3():
    return make_truncated_polynomial(GF(3), 3)


@pytest.fixture(scope="session")
def dual4():
    return make_truncated_polynomial(GF(2, 2), 2)


@pytest.fixture(scope="session")
def trunc4_3():
    # char 3 does not divide the truncation order 4, so the higher
    # cohomology drops from dim 4 to dim 3
    return make_truncated_polynomial(GF(3), 4)


@pytest.fixture(scope="session")
def dual3():
    return make_truncated_polynomial(GF(3), 2)


@pytest.fixture(scope="session")
def insertion_corpus(dual2, klein, trunc3_3, dual4):
    """Algebras over GF(2), GF(3), GF(5), GF(4) and GF(9) for the checks of
    the circle products against the dense coderivation and coboundary
    matrices: natural bases, a random change of basis, and the upper
    triangular 2 x 2 matrices over GF(3), which carry no form."""
    f = trunc3_3.field
    rng = np.random.default_rng(31)
    while True:
        g = Mat(f, rng.integers(0, 3, size=(3, 3)).astype(np.int8))
        if g.rank() == 3:
            break
    # basis e11, e12, e22
    upper = Algebra(f, 3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
                    [1, 0, 1])
    assert upper.form is None
    return {
        "gf2_x2": dual2,
        "gf2_c2xc2": klein,
        "gf3_x3": trunc3_3,
        "gf3_x3_moved": change_basis(trunc3_3, g),
        "gf3_upper": upper,
        "gf5_x2": make_truncated_polynomial(GF(5), 2),
        "gf4_x2": dual4,
        "gf9_x2": make_truncated_polynomial(GF(3, 2), 2),
    }
