"""RREF/kernel/solve/subspace/semilinear behaviour, incl. frozen examples."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derinv.algebras import change_basis, resolve_size_cap
from derinv.errors import SingularForm, SingularMatrix
from derinv.fields import GF
from derinv.linalg import (
    Mat,
    SemilinearOperator,
    Subspace,
    orthogonal_complement,
    semilinear_solve,
)
from conftest import moved
from oracles import (
    all_vectors,
    oracle_kernel,
    oracle_orthogonal_complement,
    oracle_rref_generic,
    oracle_rref_gf2,
)

FIELDS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)]


def rand_mat(f, rng, rows, cols):
    return Mat(f, rng.integers(0, f.q, size=(rows, cols)).astype(np.int8))


def test_kernel_frozen_example():
    # GF(2), [[1,1,0]]: kernel is dim 2 containing (1,1,0) and (0,0,1).
    f = GF(2)
    k = Mat(f, [[1, 1, 0]]).kernel()
    sp = Subspace(f, 3, k)
    assert k.rows == 2
    assert sp.contains(np.array([1, 1, 0])) and sp.contains(np.array([0, 0, 1]))
    assert sp == oracle_kernel(f, np.array([[1, 1, 0]], dtype=np.int8))


def test_orthogonal_complement_frozen_example():
    # GF(2)^4 with anti-diagonal gram (the k[y]/(y^4) form):
    # span(y^2, y^3)^perp = span(y^2, y^3).
    f = GF(2)
    gram = Mat(f, np.fliplr(np.eye(4, dtype=np.int8)))
    u = Subspace.from_rows(f, [[0, 0, 1, 0], [0, 0, 0, 1]])
    got = orthogonal_complement(gram, u)
    assert got == u
    assert got == oracle_orthogonal_complement(f, gram.data, u.basis.data)


def test_semilinear_solve_frozen_example():
    # GF(2), gram [[0,1],[1,0]], twist 1, rhs (0,1) -> w = (1,0).
    f = GF(2)
    gram = Mat(f, [[0, 1], [1, 0]])
    w = semilinear_solve(gram, np.array([0, 1]), twist=1)
    assert np.array_equal(w, np.array([1, 0], dtype=np.int8))


def test_semilinear_solve_singular():
    f = GF(2)
    with pytest.raises(SingularForm):
        semilinear_solve(Mat(f, [[1, 1], [1, 1]]), np.array([0, 1]), twist=0)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_rref_properties_random(f):
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = rand_mat(f, rng, rows, cols)
        R, rank, pivots = m.rref()
        # idempotent, canonical
        R2, rank2, pivots2 = R.rref()
        assert R2 == R and rank2 == rank and pivots2 == pivots
        assert rank == len(pivots) <= min(rows, cols)
        # unit leading entries, pivot columns clean
        for i, c in enumerate(pivots):
            col = R.data[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1
            lead = np.flatnonzero(R.data[i])
            assert lead.size and lead[0] == c
        # rank of transpose agrees
        assert m.T.rank() == rank
        # row space unchanged
        assert Subspace.from_rows(f, m) == Subspace.from_rows(f, R)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_kernel_and_solve_random(f):
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        m = rand_mat(f, rng, rows, cols)
        K = m.kernel()
        assert K.rows == cols - m.rank()
        if K.rows:
            prods = f.matmul(m.data, K.data.T)
            assert not prods.any()
        x = f.varr(rng.integers(0, f.q, size=cols).astype(np.int8))
        b = m.mul_vec(x)
        sol = m.solve(b)
        assert sol is not None
        assert np.array_equal(m.mul_vec(sol), b)


def test_solve_inconsistent_returns_none():
    f = GF(3)
    m = Mat(f, [[1, 1], [2, 2]])
    assert m.solve(np.array([1, 1])) is None
    assert m.solve(np.array([1, 2])) is not None


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_inverse_random(f):
    rng = np.random.default_rng(3)
    n = 4
    found = 0
    for _ in range(60):
        m = rand_mat(f, rng, n, n)
        if m.rank() < n:
            with pytest.raises(SingularMatrix):
                m.inverse()
            continue
        found += 1
        assert m @ m.inverse() == Mat.identity(f, n)
        assert m.inverse() @ m == Mat.identity(f, n)
    assert found > 5


def test_gf2_kernel_matches_oracle_small():
    f = GF(2)
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = rng.integers(0, 2, size=(3, 4)).astype(np.int8)
        got = Subspace(f, 4, Mat(f, m).kernel())
        assert got == oracle_kernel(f, m)


def test_gf4_kernel_matches_oracle_small():
    f = GF(2, 2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = rng.integers(0, 4, size=(2, 3)).astype(np.int8)
        got = Subspace(f, 3, Mat(f, m).kernel())
        assert got == oracle_kernel(f, m)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_subspace_ops(f):
    rng = np.random.default_rng(29)
    d = 5
    for _ in range(15):
        u = Subspace.from_rows(f, rand_mat(f, rng, int(rng.integers(1, 4)), d))
        v = Subspace.from_rows(f, rand_mat(f, rng, int(rng.integers(1, 4)), d))
        s = u.add(v)
        assert max(u.dim, v.dim) <= s.dim <= u.dim + v.dim
        assert s.contains_subspace(u) and s.contains_subspace(v)
        # reduce() really decomposes
        x = f.varr(rng.integers(0, f.q, size=d).astype(np.int8))
        res, coef = u.reduce(x)
        back = f.vadd(res, f.matmul(coef.reshape(1, -1), u.basis.data).reshape(-1)) if u.dim else res
        assert np.array_equal(back, x)


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_contains_subspace_matches_per_row_contains(f):
    # one product against the free columns agrees with reducing each row;
    # the spaces include the zero and the full space, and subspaces of
    # the random ones, so both answers occur
    rng = np.random.default_rng(37)
    d = 5
    spaces = [Subspace.zero(f, d), Subspace.full(f, d)]
    for _ in range(8):
        u = Subspace.from_rows(f, rand_mat(f, rng, int(rng.integers(1, d + 1)), d))
        inner = f.matmul(rand_mat(f, rng, int(rng.integers(1, 3)), u.dim).data, u.basis.data)
        spaces += [u, Subspace.from_rows(f, inner)]
    answers = set()
    for u in spaces:
        for v in spaces:
            want = all(u.contains(r) for r in v.basis.data)
            assert u.contains_subspace(v) == want
            answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize("f", FIELDS, ids=repr)
def test_orthogonal_complement_involution(f):
    rng = np.random.default_rng(31)
    d = 4
    for _ in range(20):
        g = rand_mat(f, rng, d, d)
        g = g + g.T  # symmetric
        if g.rank() < d:
            continue
        u = Subspace.from_rows(f, rand_mat(f, rng, 2, d))
        c = orthogonal_complement(g, u)
        assert c.dim == d - u.dim
        assert orthogonal_complement(g.T, c) == u  # (U^perp)^perp = U


@pytest.mark.parametrize("f", [GF(2), GF(2, 2), GF(3, 2)], ids=repr)
def test_semilinear_operator_laws(f):
    rng = np.random.default_rng(37)
    d = 3
    for twist in (-2, -1, 0, 1, 2):
        m = rand_mat(f, rng, d, d)
        op = SemilinearOperator(m, twist)
        for x in list(all_vectors(f, d))[: min(f.q ** d, 30)]:
            for lam in range(f.q):
                lhs = op.apply(f.vscale(lam, x))
                rhs = f.vscale(f.frobenius(lam, twist), op.apply(x))
                assert np.array_equal(lhs, rhs)
        # kernel and image are what they claim
        ker = op.kernel()
        for i in range(ker.dim):
            assert not op.apply(ker.basis.data[i]).any()
        img = op.image()
        assert img.dim == m.rank()
        # compose twist bookkeeping
        op2 = SemilinearOperator(rand_mat(f, rng, d, d), 1)
        comp = op.compose(op2)
        x = f.varr(rng.integers(0, f.q, size=d).astype(np.int8))
        assert np.array_equal(comp.apply(x), op.apply(op2.apply(x)))


@given(st.integers(2, 40), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_gf2_packed_vs_generic_rref(seed, cols):
    # the GF(2) kernel must agree with the generic path exactly
    from derinv.linalg import _rref_generic, _rref_gf2

    f = GF(2)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(int(rng.integers(1, 7)), cols)).astype(np.int8)
    g = _rref_generic(f, a)
    p = _rref_gf2(a)
    assert np.array_equal(g[0], p[0]) and g[1] == p[1] and g[2] == p[2]


@given(st.sampled_from([GF(2), GF(3), GF(2, 2)]), st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_block_helpers_match_dense_elimination(f, seed, nblocks):
    # a block-diagonal matrix with empty rows and columns, its rows and
    # columns shuffled; the helpers see only its nonzero entries
    from derinv.linalg import _block_image, _block_kernel, _block_rank

    rng = np.random.default_rng(seed)
    shapes = [tuple(rng.integers(1, 6, size=2)) for _ in range(nblocks)]
    nr = sum(r for r, _ in shapes) + int(rng.integers(0, 3))
    nc = sum(c for _, c in shapes) + int(rng.integers(0, 3))
    dense = np.zeros((nr, nc), dtype=np.int8)
    r0 = c0 = 0
    for r, c in shapes:
        block = rng.integers(0, f.q, size=(r, c)) * (rng.random((r, c)) < rng.random())
        dense[r0:r0 + r, c0:c0 + c] = block
        r0, c0 = r0 + r, c0 + c
    dense = dense[rng.permutation(nr)][:, rng.permutation(nc)]
    rows, cols = np.nonzero(dense)
    coo = (rows, cols, dense[rows, cols])
    assert _block_kernel(f, dense.shape, coo) == Mat(f, dense).kernel()
    assert _block_image(f, dense.shape, coo) == Subspace.from_rows(f, Mat(f, dense.T))
    assert _block_rank(f, dense.shape, coo) == _oracle_rank(f, dense)


# the kinds of _rref_matrix
KINDS = ["tall", "sparse", "product", "narrow", "wide", "low-rank tall"]


def _rref_matrix(f, rng, kind: str) -> np.ndarray:
    """A matrix of 65 to 300 rows (2000 if "low-rank tall") with some zero rows and zero columns.

    "tall", "sparse" and "product" have fewer columns than rows;
    "product" is A @ B through an inner dimension that may be small;
    "low-rank tall" has up to 2000 rows and at most 300 columns, and is
    such a product of rank at most a quarter of its columns, so most of
    its rows are dependent; "narrow" has at most 64 columns, so a random
    matrix reaches full column rank within the first chunk; "wide" has
    at least as many columns as rows.
    """
    rows = int(rng.integers(65, 2001 if kind == "low-rank tall" else 301))
    if kind == "narrow":
        cols = int(rng.integers(1, 65))
    elif kind == "wide":
        cols = int(rng.integers(rows, 321))
    else:
        cols = int(rng.integers(1, min(rows, 301)))
    if kind in ("product", "low-rank tall"):
        k = int(rng.integers(0, (cols if kind == "product" else cols // 4) + 1))
        a = f.matmul(rng.integers(0, f.q, size=(rows, k)).astype(np.int8),
                     rng.integers(0, f.q, size=(k, cols)).astype(np.int8))
    else:
        a = rng.integers(0, f.q, size=(rows, cols))
        if kind == "sparse":
            a *= rng.random((rows, cols)) < 0.03
    a = a.astype(np.int8)
    a[rng.random(rows) < 0.1] = 0
    a[:, rng.random(cols) < 0.1] = 0
    return a


@given(st.sampled_from([GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2)]), st.integers(0, 2**32 - 1),
       st.sampled_from(KINDS))
@settings(max_examples=72, deadline=None)
def test_chunked_rref_matches_per_pivot_oracle(f, seed, kind):
    from derinv.linalg import _rref_generic

    a = _rref_matrix(f, np.random.default_rng(seed), kind)
    R, rank, pivots = _rref_generic(f, a)
    want = oracle_rref_generic(f, a)
    assert R.dtype == want[0].dtype and np.array_equal(R, want[0])
    assert rank == want[1] and pivots == want[2]


@pytest.mark.parametrize("f", [GF(3), GF(5), GF(7), GF(2, 2), GF(3, 2)], ids=repr)
@pytest.mark.parametrize("rows, cols, inner, rank", [
    (200, 40, None, 40),   # full column rank in the first chunk
    (300, 150, None, 150),  # full column rank after several chunks
    (250, 120, 30, 30),     # rank deficient, zero rows and columns
    (130, 70, 0, 0),        # the zero matrix
])
def test_chunked_rref_ranks(f, rows, cols, inner, rank):
    from derinv.linalg import _rref_generic

    rng = np.random.default_rng(rows + cols)
    if inner is None:
        a = rng.integers(0, f.q, size=(rows, cols)).astype(np.int8)
    else:
        a = f.matmul(rng.integers(0, f.q, size=(rows, inner)).astype(np.int8),
                     rng.integers(0, f.q, size=(inner, cols)).astype(np.int8))
        a[::7] = 0
        a[:, ::5] = 0
    got = _rref_generic(f, a)
    want = oracle_rref_generic(f, a)
    assert got[1] == rank
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize("name", ["s3_2", "c4", "klein"])
def test_packed_rref_matches_all_rows_oracle_on_bar_blocks(name, request):
    # every block of the transposed bar boundary b_(m+1) for m <= 3, in
    # the natural basis and in two random ones
    from derinv.hochschild import _boundary_map
    from derinv.linalg import _blocks, _rref_gf2

    base = request.getfixturevalue(name)
    rng = np.random.default_rng(61)
    moved = []
    while len(moved) < 2:
        g = Mat(base.field, rng.integers(0, 2, size=(base.dim, base.dim)).astype(np.int8))
        if g.rank() == base.dim:
            moved.append(change_basis(base, g))
    tall = 0
    for a in [base] + moved:
        for m in range(4):
            assert a.dim ** (2 * m + 3) <= resolve_size_cap()
            for _, _, block in _blocks(*_boundary_map(a, m + 1), transpose=True):
                _assert_oracle_rref(_rref_gf2(block), block)
                tall += block.shape[0] > max(block.shape[1], 64)
    assert tall


def test_packed_rref_peak_memory():
    # 16384 x 512 of rank 64 and a dense 1296 x 1296: the int8 result is
    # one byte an entry and the basis ints add up to a quarter, while a
    # copy of the whole matrix (as uint8, or its unpacked bits next to
    # the result) would bring it over two
    f = GF(2)
    rng = np.random.default_rng(67)
    tall = f.matmul(rng.integers(0, 2, size=(16384, 64)).astype(np.int8),
                    rng.integers(0, 2, size=(64, 512)).astype(np.int8))
    dense = rng.integers(0, 2, size=(1296, 1296)).astype(np.int8)
    from derinv.linalg import _rref_gf2

    for a, want in ((tall, 64), (dense, oracle_rref_gf2(dense)[1])):
        tracemalloc.start()
        try:
            _, rank, _ = _rref_gf2(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rank == want
        assert peak < 1.5 * a.size, a.shape


@pytest.mark.parametrize("f, entered, other, rows, cols", [
    (GF(2), "_rref_gf2", "_rref_generic", 3000, 200),
    (GF(2), "_rref_gf2", "_rref_generic", 3000, 64),  # tall, 64 columns
    (GF(2), "_rref_gf2", "_rref_generic", 64, 200),   # wide, 64 rows
    (GF(3), "_rref_generic", "_rref_gf2", 3000, 200),
], ids=["GF(2)", "GF(2)-64-columns", "GF(2)-64-rows", "GF(3)"])
def test_one_entry_per_elimination(f, entered, other, rows, cols, monkeypatch):
    # the benchmark counts eliminations by wrapping these two functions,
    # so a matrix must enter one of them once, whatever it calls inside
    from derinv import linalg

    calls = {entered: 0, other: 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(linalg, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(linalg, name, counted)
    rng = np.random.default_rng(71)
    a = f.matmul(rng.integers(0, f.q, size=(rows, 20)).astype(np.int8),
                 rng.integers(0, f.q, size=(20, cols)).astype(np.int8))
    assert Subspace.from_rows(f, a).dim == 20
    assert calls == {entered: 1, other: 0}


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
@settings(max_examples=36, deadline=None)
def test_chunked_rref_over_gf2_matches_packed(seed, kind):
    # GF(2) matrices of more than 64 rows through the generic path (chunked
    # when tall, per pivot when wide) against the GF(2) kernel
    from derinv.linalg import _rref_generic, _rref_gf2

    a = _rref_matrix(GF(2), np.random.default_rng(seed), kind)
    g = _rref_generic(GF(2), a)
    p = _rref_gf2(a)
    assert np.array_equal(g[0], p[0]) and g[1] == p[1] and g[2] == p[2]


def _oracle_rank(f, a):
    return (oracle_rref_gf2(a) if f.p == 2 and f.e == 1 else oracle_rref_generic(f, a))[1]


@given(st.sampled_from([GF(2), GF(3), GF(5), GF(2, 2)]), st.integers(0, 2**32 - 1),
       st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_rank_array_matches_oracle(f, seed, kind):
    # a matrix and its transpose: the rank kernel takes whichever has fewer rows
    from derinv.linalg import _rank_array

    a = _rref_matrix(f, np.random.default_rng(seed), kind)
    assert _rank_array(f, a) == _rank_array(f, a.T) == _oracle_rank(f, a)


def _assert_oracle_rref(got, a):
    R, rank, pivots = got
    want = oracle_rref_gf2(a)
    assert R.dtype == want[0].dtype and np.array_equal(R, want[0])
    assert rank == want[1] and pivots == want[2]


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS))
@settings(max_examples=96, deadline=None)
def test_int_row_rref_matches_oracle(seed, kind):
    # the GF(2) kernel on every kind, tall ones too
    from derinv.linalg import _rref_gf2

    a = _rref_matrix(GF(2), np.random.default_rng(seed), kind)
    _assert_oracle_rref(_rref_gf2(a), a)


@pytest.mark.parametrize("rows, cols", [
    (64, 64), (64, 65), (65, 64), (65, 65),  # either side of one word
    (1, 1), (5, 13), (40, 121), (64, 200), (3, 1000),  # widths that are no multiple of 8
    (0, 7), (0, 65), (9, 0),  # no rows, no columns
])
@pytest.mark.parametrize("rank", [None, 3])
def test_int_row_rref_edges(rows, cols, rank):
    # random or of rank at most 3, with zero rows and columns; the rank
    # kernel too
    from derinv import linalg

    rng = np.random.default_rng(rows * 1000 + cols)
    if rank is None:
        a = rng.integers(0, 2, size=(rows, cols)).astype(np.int8)
    else:
        a = GF(2).matmul(rng.integers(0, 2, size=(rows, rank)).astype(np.int8),
                         rng.integers(0, 2, size=(rank, cols)).astype(np.int8))
    a[rng.random(rows) < 0.2] = 0
    a[:, rng.random(cols) < 0.2] = 0
    _assert_oracle_rref(linalg._rref_gf2(a), a)
    for f in (GF(2), GF(3)):
        assert linalg._rank_array(f, a) == _oracle_rank(f, a)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_block_rank_matches_oracle_on_corpus(chain_map_corpus, seed):
    """_block_rank of every normalized b_m, 1 <= m <= 5, within the cap on
    the perfbench corpus, against the oracle ranks of its blocks."""
    from derinv.hochschild import _boundary_map
    from derinv.linalg import _block_rank, _blocks

    cap = resolve_size_cap()
    for name, a in chain_map_corpus.items():
        if not name.startswith("corpus_"):
            continue
        a = a if seed is None else moved(a, seed)
        for m in range(1, 6):
            if a.dim ** (2 * m + 1) > cap:
                break
            shape, coo = _boundary_map(a, m)
            want = sum(_oracle_rank(a.field, block)
                       for _, _, block in _blocks(shape, coo, transpose=False))
            assert _block_rank(a.field, shape, coo) == want, (name, m)


@pytest.mark.parametrize("name, m", [("gf2_c8", 4), ("gf3_c9", 3)])
@pytest.mark.parametrize("seed", [None, 1])
def test_rank_array_peak_memory(chain_map_corpus, name, m, seed):
    # the largest block of b_m: rows are packed _BIT_ROWS at a time, the
    # two GF(3) planes too, and the echelon keeps one int a row over
    # GF(2) and two over GF(3), so the peak stays under a byte an entry
    from derinv.hochschild import _boundary_map
    from derinv.linalg import _blocks, _rank_array

    a = chain_map_corpus[f"corpus_{name}"]
    a = a if seed is None else moved(a, seed)
    block = max((b for _, _, b in _blocks(*_boundary_map(a, m), transpose=False)),
                key=lambda b: b.size)
    tracemalloc.start()
    try:
        rank = _rank_array(a.field, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank
    assert peak < block.size
