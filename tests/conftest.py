import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from derinv import GF
from derinv.algebras import (
    SIZE_CAP_ENV,
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
from oracles import oracle_algebra


def upper_triangular(f, n: int) -> Algebra:
    """The upper triangular n x n matrices, basis e_ij (i <= j) in row-major order."""
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {t: k for k, t in enumerate(idx)}
    mult = {(pos[(i, j)], pos[(j, l)]): {pos[(i, l)]: 1} for i, j in idx for l in range(j, n)}
    return oracle_algebra(f, len(idx), mult, [int(i == j) for i, j in idx])


@pytest.fixture
def set_cap(monkeypatch):
    """set_cap(n) sets the entry cap KK_SIZE_CAP to n for the rest of the
    test, and set_cap(None) unsets it, back to the default cap."""

    def put(cap):
        if cap is None:
            monkeypatch.delenv(SIZE_CAP_ENV, raising=False)
        else:
            monkeypatch.setenv(SIZE_CAP_ENV, str(cap))

    return put


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
    upper = upper_triangular(f, 2)
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


@pytest.fixture(scope="session")
def formless_corpus(insertion_corpus):
    """Algebras without a symmetrizing form, for HH^m from the bar complex
    with DA coefficients: upper triangular matrices over GF(2), GF(3),
    GF(4) and GF(9), one of them in a random basis, and k[x, y]/(x, y)^2,
    whose socle has dimension 2."""
    f = GF(3)
    rng = np.random.default_rng(37)
    up9 = upper_triangular(GF(3, 2), 2)
    while True:
        g = Mat(up9.field, rng.integers(0, 9, size=(3, 3)).astype(np.int8))
        if g.rank() == 3:
            break
    # basis 1, x, y
    square_zero = oracle_algebra(
        f, 3, {(0, k): {k: 1} for k in range(3)} | {(k, 0): {k: 1} for k in (1, 2)}, [1, 0, 0])
    out = {
        "gf3_upper2": insertion_corpus["gf3_upper"],
        "gf2_upper3": upper_triangular(GF(2), 3),
        "gf3_upper3": upper_triangular(f, 3),
        "gf4_upper2": upper_triangular(GF(2, 2), 2),
        "gf9_upper2_moved": change_basis(up9, g),
        "gf3_square_zero": square_zero,
    }
    assert all(a.form is None for a in out.values())
    return out


FORM_CORPUS = [
    "k2", "dual2", "trunc4_2", "c2", "c4", "c8", "klein", "uv",
    "s3_2", "m2k", "c3_3", "c9_3", "trunc3_3", "dual4", "trunc4_3", "dual3",
]


def moved(a: Algebra, seed: int) -> Algebra:
    """a in a random basis, drawn from the seed."""
    rng = np.random.default_rng(seed)
    while True:
        g = Mat(a.field, rng.integers(0, a.field.q, size=(a.dim, a.dim)).astype(np.int8))
        if g.rank() == a.dim:
            return change_basis(a, g)


@pytest.fixture(scope="module")
def chain_map_corpus(request):
    """The algebra fixtures of conftest and the 19 perfbench corpus algebras, by name."""
    path = str(Path(__file__).resolve().parents[1] / "perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(path)
        specs = importlib.import_module("corpus").SPECS
    out = {name: request.getfixturevalue(name) for name in FORM_CORPUS}
    out |= {f"insertion_{k}": v for k, v in request.getfixturevalue("insertion_corpus").items()}
    out |= {f"formless_{k}": v for k, v in request.getfixturevalue("formless_corpus").items()}
    out |= {f"corpus_{k}": spec.build() for k, spec in specs.items()}
    return out
