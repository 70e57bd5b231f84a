"""Field arithmetic: table correctness, Frobenius, matmul exactness."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derinv import fields
from derinv.errors import DerinvError
from derinv.fields import CONWAY, GF, Field, _poly_is_irreducible
from derinv.linalg import Mat

SMALL_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2), GF(4 // 2, 4)]


def test_conway_table_is_irreducible():
    for (p, e), coeffs in CONWAY.items():
        assert len(coeffs) == e + 1
        assert _poly_is_irreducible(coeffs, p), (p, e)


def test_bad_parameters_rejected():
    with pytest.raises(DerinvError):
        Field(4)
    with pytest.raises(DerinvError):
        Field(2, 0)
    with pytest.raises(DerinvError):
        Field(2, 8)  # order 256 > 127
    with pytest.raises(DerinvError):
        Field(2, 2, modulus=(0, 0, 1))  # x^2 reducible


def test_gf4_frobenius_frozen():
    # GF(4) = GF(2)[w]/(w^2+w+1): codes 0,1,w=2,w+1=3.  Fr(w) = w^2 = w+1.
    f = GF(2, 2)
    assert f.frobenius(2, 1) == 3
    assert f.frobenius(2, -1) == 3  # Fr^{-1} = Fr on GF(4)
    assert f.frobenius(3, 1) == 2
    assert f.mul(2, 2) == 3 and f.mul(2, 3) == 1
    assert f.add(2, 3) == 1


def test_gf9_arithmetic_vs_poly():
    # GF(9) with modulus x^2+2x+2: alpha^2 = -2a-2 = a+1 -> code of a+1 is 4.
    f = GF(3, 2)
    alpha = 3  # code of x
    assert f.mul(alpha, alpha) == f.add(alpha, 1)
    # Frobenius is the map x -> x^3; check multiplicativity exhaustively.
    for a in f.elements():
        for b in f.elements():
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(f):
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
        assert f.add(a, f.neg(a)) == 0
        assert f.frobenius(a, f.e) == a  # Frobenius has order e
    # a smattering of associativity/distributivity triples
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b, c = (int(rng.integers(f.q)) for _ in range(3))
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("f", [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2)], ids=repr)
def test_matmul_matches_schoolbook(f):
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, k, n = rng.integers(1, 6, size=3)
        a = rng.integers(0, f.q, size=(m, k)).astype(np.int8)
        b = rng.integers(0, f.q, size=(k, n)).astype(np.int8)
        got = f.matmul(a, b)
        want = np.zeros((m, n), dtype=np.int8)
        for i in range(m):
            for j in range(n):
                acc = 0
                for t in range(k):
                    acc = f.add(acc, f.mul(int(a[i, t]), int(b[t, j])))
                want[i, j] = acc
        assert np.array_equal(got, want)


@pytest.mark.parametrize("f", [GF(2), GF(3), GF(7), GF(2, 2), GF(3, 2)], ids=repr)
def test_matmul_row_panels_match_entrywise(f, monkeypatch):
    # panels of a few rows, so most products take several, the last one short
    monkeypatch.setattr(fields, "_PANEL", 24)
    rng = np.random.default_rng(41)
    for _ in range(10):
        m, k, n = rng.integers(0, 30), rng.integers(0, 12), rng.integers(1, 7)
        a = rng.integers(0, f.q, size=(m, k)).astype(np.int8)
        b = rng.integers(0, f.q, size=(k, n)).astype(np.int8)
        want = np.zeros((m, n), dtype=np.int8)
        for t in range(k):
            want = f.vadd(want, f.vmul(a[:, t, None], b[None, t, :]))
        got = f.matmul(a, b)
        assert got.dtype == np.int8 and np.array_equal(got, want)


@pytest.mark.parametrize("panel", [fields._PANEL, 24])
@pytest.mark.parametrize("f", [GF(2), GF(3), GF(2, 2), GF(3, 2)], ids=repr)
def test_stacked_matmul_matches_entrywise(f, panel, monkeypatch):
    # a stack against a matrix, a matrix against a stack, paired stacks,
    # broadcast stacks, and empty ones
    monkeypatch.setattr(fields, "_PANEL", panel)
    rng = np.random.default_rng(47)
    shapes = [((5, 3, 4), (4, 6)), ((3, 4), (5, 4, 6)), ((5, 3, 4), (5, 4, 6)),
              ((4, 1, 3, 4), (1, 2, 4, 6)), ((2, 3, 4), (1, 4, 6)), ((7, 0, 4), (7, 4, 3)),
              ((3, 4, 0), (3, 0, 2)), ((0, 3, 4), (4, 2)), ((3, 4), (0, 4, 2)), ((3, 0), (5, 0, 2)),
              ((6, 9, 5), (6, 5, 7))]
    for sa, sb in shapes:
        a = rng.integers(0, f.q, size=sa).astype(np.int8)
        b = rng.integers(0, f.q, size=sb).astype(np.int8)
        want = np.zeros(np.broadcast_shapes(sa[:-2], sb[:-2]) + (sa[-2], sb[-1]), dtype=np.int8)
        for t in range(sa[-1]):
            want = f.vadd(want, f.vmul(a[..., :, t, None], b[..., None, t, :]))
        got = f.matmul(a, b)
        assert got.dtype == np.int8 and got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("f", [GF(2), GF(3), GF(5)], ids=repr)
def test_prime_field_matmul_matches_entrywise_over_long_inner_dims(f, small, monkeypatch):
    # the float64 sums reach k (p - 1)^2 before they are reduced, for
    # inner dimensions k from 1 to 4096; small panels make most products
    # take several, the last one short
    if small:
        monkeypatch.setattr(fields, "_PANEL", 64)
    rng = np.random.default_rng(73)
    for k in (1, 2, 3, 63, 64, 65, 1000, 4096):
        for sa, sb in (((5, k), (k, 3)), ((4, 5, k), (k, 3)), ((5, k), (4, k, 3)),
                       ((4, 5, k), (4, k, 3))):
            for top in (False, True):
                a, b = (np.full(s, f.p - 1) if top else rng.integers(0, f.p, size=s)
                        for s in (sa, sb))
                want = (a[..., :, :, None] * b[..., None, :, :]).sum(axis=-2) % f.p
                got = f.matmul(a.astype(np.int8), b.astype(np.int8))
                assert got.dtype == np.int8 and got.shape == want.shape
                assert np.array_equal(got, want)


@pytest.mark.parametrize("f", [GF(3), GF(2, 2)], ids=repr)
def test_stacked_matmul_peak_is_bounded_by_a_slice(f, monkeypatch):
    # a float64 copy of the left stack would be 8 bytes per entry
    monkeypatch.setattr(fields, "_PANEL", 4096)
    rng = np.random.default_rng(53)
    a = rng.integers(0, f.q, size=(256, 32, 32)).astype(np.int8)
    b = rng.integers(0, f.q, size=(256, 32, 32)).astype(np.int8)
    tracemalloc.start()
    try:
        f.matmul(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * a.size


@pytest.mark.parametrize("f", [GF(3), GF(2, 2)], ids=repr)
def test_mul_vec_peak_is_bounded_by_a_row_panel(f):
    # a whole float64 copy of the matrix would be 8 bytes per entry
    m = Mat(f, np.random.default_rng(43).integers(0, f.q, size=(4096, 4096)).astype(np.int8))
    v = np.ones(4096, dtype=np.int8)
    tracemalloc.start()
    try:
        m.mul_vec(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m.data.size


@given(st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_gf9_vadd_vmul_match_scalar(a, b):
    f = GF(3, 2)
    va = np.array([a], dtype=np.int8)
    vb = np.array([b], dtype=np.int8)
    assert int(f.vadd(va, vb)[0]) == f.add(a, b)
    assert int(f.vmul(va, vb)[0]) == f.mul(a, b)
    assert int(f.vsub(va, vb)[0]) == f.sub(a, b)


def test_coeff_json_roundtrip():
    f1 = GF(5)
    assert f1.coeff_from_json(f1.coeff_to_json(3)) == 3
    f2 = GF(2, 3)
    for a in f2.elements():
        assert f2.coeff_from_json(f2.coeff_to_json(a)) == a
    with pytest.raises(DerinvError):
        f2.coeff_from_json(5)  # e > 1 wants a list
    for bad in (True, [1], {}):
        with pytest.raises(DerinvError):
            f1.coeff_from_json(bad)


def test_gf_is_cached():
    assert GF(3, 2) is GF(3, 2)
