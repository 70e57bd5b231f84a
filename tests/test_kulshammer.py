import dataclasses

import numpy as np
import pytest

from derinv import GF, Mat, kulshammer
from derinv.algebras import Algebra, algebra_from_json, algebra_to_json, make_truncated_polynomial
from derinv.errors import DegeneratePairing, FormRequired
from derinv.kulshammer import (
    kappa_image,
    kappa_kernel,
    kappa_n,
    kulshammer_report,
    p_n_space,
    quotient_image,
    quotient_mod_ka,
    stabilization_index,
    t_chain,
    t_n_center_space,
    t_n_space,
    zeta_image,
    zeta_image_chain,
    zeta_n,
)
from derinv.linalg import orthogonal_complement
from derinv.signature import compute_signature
from oracles import (
    all_vectors,
    oracle_kappa_n,
    oracle_p_n,
    oracle_t_n,
    oracle_t_n_center,
    oracle_zeta_n,
    pairing_value,
)


def apply_zeta(algebra, n, z):
    """zeta_n on an ambient central element, via center coordinates."""
    center = algebra.center()
    residue, coeffs = center.reduce(z)
    assert not residue.any(), "input must be central"
    out = zeta_n(algebra, n).apply(coeffs)
    return algebra.field.matmul(out.reshape(1, -1), center.basis.data).reshape(-1)


class TestQuotient:
    def test_roundtrip(self, s3_2, m2k):
        for a in (s3_2, m2k):
            q = quotient_mod_ka(a)
            assert q.dim == a.dim - a.commutator_space().dim
            for t in range(q.dim):
                coords = np.zeros(q.dim, dtype=np.int8)
                coords[t] = 1
                assert np.array_equal(q.class_coords(q.lift(coords)), coords)

    def test_proj_kills_ka(self, s3_2, m2k):
        for a in (s3_2, m2k):
            q = quotient_mod_ka(a)
            for row in q.ka.basis.data:
                assert not q.class_coords(row).any()

    def test_lift_is_section(self, s3_2):
        rng = np.random.default_rng(3)
        q = quotient_mod_ka(s3_2)
        for _ in range(10):
            x = s3_2.field.varr(rng.integers(0, 2, size=s3_2.dim))
            back = q.lift(q.class_coords(x))
            assert q.ka.contains(s3_2.field.vsub(x, back))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2)])
    def test_singular_induced_pairing_is_degenerate(self, monkeypatch, shape):
        a = make_truncated_polynomial(GF(2), 2)
        q = dataclasses.replace(quotient_mod_ka(a), induced_gram=Mat.zeros(a.field, *shape))
        monkeypatch.setattr(kulshammer, "quotient_mod_ka", lambda algebra: q)
        with pytest.raises(DegeneratePairing, match=r"^pairing of Z\(A\) with A/KA is not invertible$"):
            kappa_n(a, 1)

    def test_pairing_square(self, s3_2, dual4, uv):
        for a in (s3_2, dual4, uv):
            q = quotient_mod_ka(a)
            assert q.induced_gram.rows == q.induced_gram.cols == q.dim
            assert q.induced_gram.rank() == q.dim


class TestFrozenDualNumbers:
    """Closed forms on k[x]/(x^2) over GF(2), worked out by hand."""

    def test_zeta_1_matrix(self, dual2):
        op = zeta_n(dual2, 1)
        assert np.array_equal(op.matrix.data, np.array([[0, 0], [0, 1]]))
        # zeta_1(z0 + z1 x) = z1 x
        for z in all_vectors(GF(2), 2):
            expected = np.array([0, z[1]], dtype=np.int8)
            assert np.array_equal(apply_zeta(dual2, 1, z), expected)
            assert np.array_equal(oracle_zeta_n(dual2, z, 1), expected)

    def test_kappa_1_matrix(self, dual2):
        op = kappa_n(dual2, 1)
        assert np.array_equal(op.matrix.data, np.array([[0, 0], [0, 1]]))
        q = quotient_mod_ka(dual2)
        for a in all_vectors(GF(2), 2):
            got = op.apply(q.class_coords(a))
            assert np.array_equal(got, np.array([0, a[1]], dtype=np.int8))
            assert np.array_equal(oracle_kappa_n(dual2, q, q.class_coords(a), 1), got)

    def test_zeta_0_kappa_0_identity(self, dual2, s3_2):
        for a in (dual2, s3_2):
            z0 = zeta_n(a, 0)
            k0 = kappa_n(a, 0)
            assert np.array_equal(z0.matrix.data, np.eye(z0.matrix.rows, dtype=np.int8))
            assert np.array_equal(k0.matrix.data, np.eye(k0.matrix.rows, dtype=np.int8))


class TestAgainstOracles:
    @pytest.mark.parametrize("fixture", ["dual2", "trunc4_2", "klein", "c4", "trunc3_3", "m2k", "dual4", "uv"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_t_spaces(self, fixture, n, request):
        a = request.getfixturevalue(fixture)
        assert t_n_space(a, n) == oracle_t_n(a, n)
        assert t_n_center_space(a, n) == oracle_t_n_center(a, n)
        assert p_n_space(a, n) == oracle_p_n(a, n)

    @pytest.mark.parametrize("fixture", ["dual2", "klein", "c4", "trunc3_3", "dual4"])
    def test_zeta_oracle_full(self, fixture, request):
        a = request.getfixturevalue(fixture)
        for n in (1, 2):
            for coords in all_vectors(a.field, a.center().dim):
                z = a.field.matmul(coords.reshape(1, -1), a.center().basis.data).reshape(-1)
                assert np.array_equal(apply_zeta(a, n, z), oracle_zeta_n(a, z, n))

    def test_zeta_oracle_s3(self, s3_2):
        # spot checks on a non-commutative algebra
        zb = s3_2.center().basis.data
        for z in (zb[0], s3_2.field.vadd(zb[1], zb[2])):
            assert np.array_equal(apply_zeta(s3_2, 1, z), oracle_zeta_n(s3_2, z, 1))

    @pytest.mark.parametrize("fixture", ["dual2", "klein", "trunc3_3", "s3_2", "m2k", "dual4"])
    def test_kappa_oracle(self, fixture, request):
        a = request.getfixturevalue(fixture)
        q = quotient_mod_ka(a)
        op = kappa_n(a, 1)
        for coords in all_vectors(a.field, q.dim):
            assert np.array_equal(op.apply(coords), oracle_kappa_n(a, q, coords, 1))


class TestAdjointIdentities:
    @pytest.mark.parametrize("fixture", ["s3_2", "dual4", "trunc3_3", "uv", "m2k"])
    def test_zeta_defining_property(self, fixture, request):
        a = request.getfixturevalue(fixture)
        f = a.field
        rng = np.random.default_rng(41)
        zb = a.center().basis.data
        for n in (1, 2):
            for _ in range(6):
                zc = f.varr(rng.integers(0, f.q, size=zb.shape[0]))
                z = f.matmul(zc.reshape(1, -1), zb).reshape(-1)
                w = apply_zeta(a, n, z)
                x = f.varr(rng.integers(0, f.q, size=a.dim))
                lhs = pairing_value(a, z, a.p_power(x, n))
                rhs = f.frobenius(pairing_value(a, w, x), n)
                assert lhs == rhs

    @pytest.mark.parametrize("fixture", ["s3_2", "dual4", "trunc3_3", "uv", "m2k"])
    def test_kappa_defining_property(self, fixture, request):
        a = request.getfixturevalue(fixture)
        f = a.field
        rng = np.random.default_rng(43)
        q = quotient_mod_ka(a)
        zb = a.center().basis.data
        for n in (1, 2):
            op = kappa_n(a, n)
            for _ in range(6):
                x = f.varr(rng.integers(0, f.q, size=a.dim))
                w = q.lift(op.apply(q.class_coords(x)))
                for zrow in zb:
                    lhs = pairing_value(a, a.p_power(zrow, n), x)
                    rhs = f.frobenius(pairing_value(a, zrow, w), n)
                    assert lhs == rhs

    @pytest.mark.parametrize("fixture", ["dual2", "c4", "s3_2", "dual4", "trunc3_3"])
    def test_composition_law(self, fixture, request):
        # zeta_{n+m} = zeta_m o zeta_n, and the same for kappa
        a = request.getfixturevalue(fixture)
        for n in (1, 2):
            for m in (1, 2):
                assert zeta_n(a, n + m) == zeta_n(a, m).compose(zeta_n(a, n))
                assert kappa_n(a, n + m) == kappa_n(a, m).compose(kappa_n(a, n))

    def test_semilinearity(self, dual4):
        f = dual4.field
        op = zeta_n(dual4, 1)
        for c in f.elements():
            for coords in all_vectors(f, op.matrix.cols):
                lhs = op.apply(f.vscale(c, coords))
                rhs = f.vscale(f.frobenius(c, -1), op.apply(coords))
                assert np.array_equal(lhs, rhs)


class TestTheorems:
    @pytest.mark.parametrize("fixture", ["dual2", "trunc4_2", "klein", "c4", "c8", "s3_2", "m2k", "trunc3_3", "c9_3", "dual4", "uv"])
    def test_zeta_image_is_t_perp(self, fixture, request):
        a = request.getfixturevalue(fixture)
        gram = a.form.gram
        for n in (1, 2):
            assert zeta_image(a, n) == orthogonal_complement(gram, t_n_space(a, n))

    @pytest.mark.parametrize("fixture", ["dual2", "trunc4_2", "klein", "c4", "s3_2", "m2k", "trunc3_3", "dual4", "uv"])
    def test_kappa_image_and_kernel(self, fixture, request):
        a = request.getfixturevalue(fixture)
        gram = a.form.gram
        for n in (1, 2):
            t_z_perp = orthogonal_complement(gram, t_n_center_space(a, n))
            p_z_perp = orthogonal_complement(gram, p_n_space(a, n))
            assert kappa_image(a, n) == quotient_image(a, t_z_perp)
            assert kappa_kernel(a, n) == quotient_image(a, p_z_perp)

    def test_zeta_image_inside_center(self, s3_2, m2k):
        for a in (s3_2, m2k):
            for n in (1, 2):
                assert a.center().contains_subspace(zeta_image(a, n))


class TestChainsAndIndex:
    def test_trunc4_frozen_chain(self, trunc4_2):
        # T_1 = span(y^2, y^3): squares kill exactly the top half
        t1 = t_n_space(trunc4_2, 1)
        expect = np.zeros((2, 4), dtype=np.int8)
        expect[0, 2] = 1
        expect[1, 3] = 1
        assert np.array_equal(t1.basis.data, expect)
        dims = [s.dim for s in zeta_image_chain(trunc4_2, 3)]
        assert dims == [2, 1, 1]

    def test_c4_vs_klein(self, c4, klein):
        # same dimension, same center dims; the zeta chain tells them apart
        assert c4.dim == klein.dim == 4
        assert c4.center().dim == klein.center().dim
        c4_dims = [s.dim for s in zeta_image_chain(c4, 3)]
        klein_dims = [s.dim for s in zeta_image_chain(klein, 3)]
        assert c4_dims == [2, 1, 1]
        assert klein_dims == [1, 1, 1]
        assert c4_dims != klein_dims

    def test_c8_chain(self, c8):
        assert [s.dim for s in zeta_image_chain(c8, 4)] == [4, 2, 1, 1]

    @pytest.mark.parametrize("fixture,expected", [
        ("k2", 1), ("c2", 1), ("c4", 2), ("c8", 3), ("klein", 1),
        ("c3_3", 1), ("c9_3", 2), ("uv", 1), ("trunc4_2", 2), ("dual2", 1),
    ])
    def test_stabilization_index(self, fixture, expected, request):
        assert stabilization_index(request.getfixturevalue(fixture)) == expected

    def test_t_chain_ascends(self, c8, s3_2):
        for a in (c8, s3_2):
            chain = t_chain(a, 3)
            assert chain[0] == a.commutator_space()
            for i in range(3):
                assert chain[i + 1].contains_subspace(chain[i])

    def test_report_shape(self, c4):
        r = kulshammer_report(c4, 3)
        assert r["dim"] == 4 and r["dim_center"] == 4 and r["dim_ka"] == 0
        assert r["t_dims"] == [0, 2, 3, 3]
        assert r["zeta_image_dims"] == [2, 1, 1]
        assert r["stabilization_index"] == 2
        assert len(r["kappa_image_dims"]) == 3


@pytest.mark.parametrize("fixture", ["c4", "s3_2", "trunc3_3", "dual4"])
def test_p_powers_are_raised_once_per_degree(request, fixture, monkeypatch):
    # each basis vector of A and of Z(A) is raised to the p-th power once
    # per n, from its p^(n-1)-th power; beyond that only the additivity
    # spot-check of t_n_space calls p_power
    a = algebra_from_json(algebra_to_json(request.getfixturevalue(fixture)))
    calls = []
    real = Algebra.p_power

    def counted(self, x, n):
        calls.append(n)
        return real(self, x, n)

    monkeypatch.setattr(Algebra, "p_power", counted)
    compute_signature(a)
    tables = [key[1:] for key in a._cache if key[0] == "_basis_p_powers" and key[2] > 0]
    assert {n for _, n in tables} >= {1, 2, 3} and {c for c, _ in tables} == {False, True}
    rows = {False: a.dim, True: a.center().dim}
    spot_checks = [key for key in a._cache if key[0] == "t_n_space" and key[1] > 0]
    assert len(calls) == sum(rows[c] for c, _ in tables) + min(8, a.dim**2) * len(spot_checks)


def test_p_power_tables_are_read_only(s3_2):
    # the memoized tables must not alias the cached center basis writably
    from derinv.kulshammer import _basis_p_powers

    a = algebra_from_json(algebra_to_json(s3_2))
    for center in (False, True):
        for n in (0, 1):
            table = _basis_p_powers(a, center, n)
            assert not table.flags.writeable
    zero = _basis_p_powers(a, True, 0)
    assert zero is not a.center().basis.data and np.array_equal(zero, a.center().basis.data)


class TestFormless:
    def test_t_spaces_work_without_form(self, m2k):
        a = Algebra(m2k.field, m2k.dim, np.asarray(m2k.mult_tensor), m2k.unit)
        assert t_n_space(a, 1).dim == t_n_space(m2k, 1).dim
        with pytest.raises(FormRequired):
            zeta_n(a, 1)
        with pytest.raises(FormRequired):
            kappa_n(a, 1)
