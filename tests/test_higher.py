"""Cup-power adjoints on higher Hochschild homology."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from derinv import GF
from derinv.algebras import (
    Algebra,
    change_basis,
    cyclic_table,
    make_group_algebra,
    make_truncated_polynomial,
)
from derinv.errors import FormRequired, InvariantViolation, SizeCapExceeded
from derinv import higher
from derinv.gerstenhaber import bracket, coderivation_component, sigma_p
from derinv.higher import (
    HigherKappa,
    kappa_nm,
    power_class_matrix,
    t_nm_space,
    verify_properties,
)
from derinv.hochschild import (
    Cochain,
    boundary_matrix,
    coboundary,
    coboundary_matrix,
    cup_power,
    hh_cohomology,
    hh_homology,
    pairing,
    pairing_gram,
    resolve_size_cap,
)
from derinv.kulshammer import kappa_n, t_n_center_space
from derinv.linalg import Mat, SemilinearOperator, field_kron
from derinv.signature import SignatureConfig

import oracles


class TestDegreeZero:
    @pytest.mark.parametrize(
        "fixture", ["dual2", "c4", "c8", "klein", "trunc3_3", "s3_2", "dual4", "c9_3"]
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_classical_kappa(self, request, fixture, n):
        a = request.getfixturevalue(fixture)
        k = kappa_nm(a, 0, n)
        assert k.operator == kappa_n(a, n)
        assert not k.zero_regime

    @pytest.mark.parametrize("fixture,n", [("c4", 1), ("trunc4_2", 1), ("c8", 2), ("trunc3_3", 1)])
    def test_t_space_matches_center_nilpotents(self, request, fixture, n):
        a = request.getfixturevalue(fixture)
        t = t_nm_space(a, 0, n)
        # degree-0 classes are center coordinates; push to the ambient algebra
        reps = hh_cohomology(a, 0).reps
        ambient = t.map_rows(Mat(a.field, reps.data.T))
        assert ambient == t_n_center_space(a, n)

    def test_field_has_no_nilpotents(self, k2):
        assert t_nm_space(k2, 0, 1).dim == 0
        assert kappa_nm(k2, 0, 1).rank == 1

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_level_zero_is_identity(self, dual2, m):
        k = kappa_nm(dual2, m, 0)
        d = k.target.dim
        assert k.source is k.target
        assert np.array_equal(k.operator.matrix.data, np.eye(d, dtype=np.int8))
        assert k.operator.twist % dual2.field.e == 0
        assert not k.zero_regime

    def test_level_zero_identity_in_odd_characteristic(self, trunc3_3):
        k = kappa_nm(trunc3_3, 1, 0)
        assert np.array_equal(k.operator.matrix.data, np.eye(k.target.dim, dtype=np.int8))
        assert not k.zero_regime


class TestDualNumbersDegreeOne:
    """kappa_1^(1) on k[x]/(x^2) over GF(2): HH_2 (dim 2) -> HH_1 (dim 2)."""

    def test_frozen_operator(self, dual2):
        k = kappa_nm(dual2, 1, 1)
        assert k.source.dim == 2 and k.target.dim == 2
        assert k.operator.twist == -1
        assert np.array_equal(k.operator.matrix.data, np.array([[0, 0], [0, 1]], dtype=np.int8))

    def test_t_space_by_enumeration(self, dual2):
        f = dual2.field
        coh1 = hh_cohomology(dual2, 1)
        coh2 = hh_cohomology(dual2, 2)
        nil = []
        for coeffs in oracles.all_vectors(f, coh1.dim):
            vec = f.matmul(coeffs.reshape(1, -1), coh1.reps.data).reshape(-1)
            sq = cup_power(Cochain.from_flat(dual2, 1, vec), 2)
            if not coh2.class_coords(sq.flat()).any():
                nil.append(coeffs)
        want = oracles.span_of(f, nil, coh1.dim)
        assert t_nm_space(dual2, 1, 1) == want
        assert want.dim == 1

    def test_rank_matches_dimension_formula(self, dual2):
        k = kappa_nm(dual2, 1, 1)
        t = t_nm_space(dual2, 1, 1)
        assert k.rank == 1
        assert k.rank == hh_cohomology(dual2, 1).dim - t.dim

    def test_defining_relation_exhaustive(self, dual2):
        f = dual2.field
        k = kappa_nm(dual2, 1, 1)
        coh1 = hh_cohomology(dual2, 1)
        for fco in oracles.all_vectors(f, coh1.dim):
            fvec = f.matmul(fco.reshape(1, -1), coh1.reps.data).reshape(-1)
            fc = Cochain.from_flat(dual2, 1, fvec)
            fsq = cup_power(fc, 2)
            for xco in oracles.all_vectors(f, k.source.dim):
                chain = f.matmul(xco.reshape(1, -1), k.source.reps.data).reshape(-1)
                out = k.apply(xco)
                lift = f.matmul(out.reshape(1, -1), k.target.reps.data).reshape(-1)
                # (f^2, x)_2 == ((f, kappa(x))_1)^2 with everything lifted
                assert pairing(fsq, chain) == f.frobenius(pairing(fc, lift), 1)


class TestOddCharacteristic:
    def test_even_degree_power_is_injective(self, dual3):
        # HH^2 of k[x]/(x^2) over GF(3) is spanned by a polynomial class;
        # its cube survives, so T vanishes and kappa has full rank
        k = kappa_nm(dual3, 2, 1)
        assert not k.zero_regime
        assert (k.source.dim, k.target.dim) == (1, 1)
        assert t_nm_space(dual3, 2, 1).dim == 0
        assert k.rank == 1

    def test_odd_degree_is_zero_regime(self, dual3):
        k = kappa_nm(dual3, 1, 1)
        assert k.zero_regime
        assert not k.operator.matrix.data.any()
        assert t_nm_space(dual3, 1, 1).dim == hh_cohomology(dual3, 1).dim
        assert k.rank == 0

    def test_zero_regime_flag_is_off_for_char_two(self, dual2):
        assert not kappa_nm(dual2, 1, 1).zero_regime

    def test_odd_degree_powers_vanish_classwise(self, trunc3_3):
        k = kappa_nm(trunc3_3, 1, 1)
        assert k.zero_regime
        assert not power_class_matrix(trunc3_3, 1, 1).data.any()
        assert not k.operator.matrix.data.any()


class TestProperties:
    @pytest.mark.parametrize(
        "fixture,m,n,ell",
        [
            ("dual2", 1, 1, 1),
            ("dual2", 2, 1, 1),
            ("dual2", 0, 1, 2),
            ("dual2", 0, 2, 1),
            ("c4", 1, 1, 1),
            ("c4", 0, 1, 1),
            ("klein", 1, 1, 1),
            ("trunc4_2", 0, 2, 1),
            ("trunc3_3", 0, 1, 1),
            ("trunc3_3", 1, 1, 0),
            ("dual3", 1, 1, 1),
            ("dual3", 2, 1, 0),
            ("dual4", 1, 1, 1),
            ("s3_2", 0, 1, 1),
            ("s3_2", 1, 1, 0),
            ("m2k", 1, 1, 1),
            ("k2", 0, 1, 1),
        ],
    )
    def test_all_statements_hold(self, request, fixture, m, n, ell):
        a = request.getfixturevalue(fixture)
        report = verify_properties(a, m, n, ell)
        assert report["all_passed"], report

    def test_report_shape(self, dual2):
        report = verify_properties(dual2, 1, 1, 1)
        for key in (
            "semilinear_defining_relation",
            "composition",
            "image_is_orthogonal_of_t",
            "kernel_is_orthogonal_of_powers",
            "dimension_formula",
        ):
            assert report[key] is True
        assert report["witnesses"] == {}
        assert report["zero_regime"] is False

    def test_composition_directly(self, dual2):
        f = dual2.field
        total = kappa_nm(dual2, 1, 2)
        outer = kappa_nm(dual2, 1, 1)
        inner = kappa_nm(dual2, 2, 1)
        assert total.operator == outer.operator.compose(inner.operator)


CONFTEST_CORPUS = ["k2", "dual2", "trunc4_2", "c2", "c4", "c8", "klein", "uv", "s3_2", "m2k",
                   "c3_3", "c9_3", "trunc3_3", "dual4", "trunc4_3", "dual3"]


class TestTFromPairing:
    """T_n^(m) read off kappa_nm's pairing matrix against t_nm_space."""

    @pytest.mark.parametrize("fixture", CONFTEST_CORPUS + ["c4_moved"])
    def test_matches_t_nm_space_on_default_pairs(self, request, fixture):
        if fixture == "c4_moved":
            a = request.getfixturevalue("c4")
            rng = np.random.default_rng(41)
            while True:
                g = Mat(a.field, rng.integers(0, 2, size=(4, 4)).astype(np.int8))
                if g.rank() == 4:
                    break
            a = change_basis(a, g)
        else:
            a = request.getfixturevalue(fixture)
        p, cap = a.field.p, resolve_size_cap()
        pairs = [(m, n) for m, n in SignatureConfig().resolved_pairs(p)
                 if a.dim ** (2 * p**n * m + 3) <= cap]
        assert pairs
        for m, n in pairs:
            assert kappa_nm(a, m, n).t_space() == t_nm_space(a, m, n), (m, n)

    def test_additivity_check_reads_rows_of_the_pairing(self, monkeypatch):
        # a power map shifted by a fixed class is not additive; both routes
        # must catch it on the same seeded pair
        a = _cold_c4()
        shift = hh_cohomology(a, 2).cochain(0)
        real = higher.cup_power
        monkeypatch.setattr(higher, "cup_power", lambda f, k, cap=None: real(f, k, cap) + shift)
        with pytest.raises(InvariantViolation) as by_classes:
            power_class_matrix(a, 1, 1)
        with pytest.raises(InvariantViolation) as by_pairing:
            kappa_nm(a, 1, 1)
        assert str(by_pairing.value) == str(by_classes.value)
        assert str(by_pairing.value).startswith("p^1-th cup power is not additive on HH^1")


class TestDefiningRelation:
    """The defining relation, one pairing matrix per scalar, against one pairing per triple."""

    @pytest.mark.parametrize("fixture", CONFTEST_CORPUS)
    def test_matches_per_triple_oracle(self, request, fixture):
        a = request.getfixturevalue(fixture)
        p, cap = a.field.p, resolve_size_cap()
        triples = ((0, 1, 1), (1, 1, 1), (2, 1, 1)) if p == 2 else ((0, 1, 1), (1, 1, 1))
        for m, n, _ in triples:
            if a.dim ** (2 * p**n * m + 3) > cap:
                continue
            kap = kappa_nm(a, m, n)
            got = higher._defining_relation_holds(kap, None)
            assert got == oracles.oracle_defining_relation(kap) == (True, None), (m, n)
            if not all(kap.operator.matrix.shape):
                continue
            # one entry changed, then a random operator: both paths must
            # report the same first failing triple
            bent = kap.operator.matrix.data.copy()
            bent[-1, -1] = a.field.add(int(bent[-1, -1]), 1)
            noise = np.random.default_rng(m).integers(0, a.field.q, size=bent.shape)
            for data in (bent, noise.astype(np.int8)):
                op = SemilinearOperator(Mat(a.field, data), kap.operator.twist)
                moved = dataclasses.replace(kap, operator=op)
                got = higher._defining_relation_holds(moved, None)
                assert got == oracles.oracle_defining_relation(moved), (m, n)
                if data is bent:
                    assert got[0] is False, (m, n)


def _transport_classes(f, src_basis, dst_basis, g_inv, factors):
    """Class-coordinate matrix of the chain map induced by a basis change."""
    k = g_inv.data
    big = k
    for _ in range(factors - 1):
        big = field_kron(f, big, k)
    cols = []
    for r in range(src_basis.dim):
        moved = f.matmul(src_basis.rep_vector(r).reshape(1, -1), big).reshape(-1)
        cols.append(dst_basis.class_coords(moved))
    return Mat(f, np.array(cols, dtype=np.int8).T)


class TestBasisChangeConjugacy:
    @pytest.mark.parametrize("fixture,m,n,seed", [("dual2", 1, 1, 5), ("dual4", 1, 1, 6), ("c4", 0, 1, 7), ("c4", 0, 2, 8)])
    def test_operator_transported_exactly(self, request, fixture, m, n, seed):
        a = request.getfixturevalue(fixture)
        f = a.field
        rng = np.random.default_rng(seed)
        while True:
            g = Mat(f, rng.integers(0, f.q, size=(a.dim, a.dim)).astype(np.int8))
            if g.rank() == a.dim:
                break
        b = change_basis(a, g)
        g_inv = g.inverse()
        ka, kb = kappa_nm(a, m, n), kappa_nm(b, m, n)
        deg = f.p**n * m
        v_src = _transport_classes(f, ka.source, kb.source, g_inv, deg + 1)
        v_tgt = _transport_classes(f, ka.target, kb.target, g_inv, m + 1)
        lhs = f.matmul(kb.operator.matrix.data, f.vfrob(v_src.data, -n))
        rhs = f.matmul(v_tgt.data, ka.operator.matrix.data)
        assert np.array_equal(lhs, rhs)
        assert ka.rank == kb.rank
        assert t_nm_space(a, m, n).dim == t_nm_space(b, m, n).dim


def _cold_c4():
    return make_group_algebra(GF(2), cyclic_table(4))


def _cold_component():
    a = make_truncated_polynomial(GF(3), 3)
    f = Cochain(a, 2, Mat(a.field, np.ones((3, 9), dtype=np.int8)))
    return partial(coderivation_component, f, 5)


def _cold_c4_cochains(*arities):
    a = _cold_c4()
    return [Cochain(a, m, Mat(a.field, np.ones((4, 4**m), dtype=np.int8))) for m in arities]


# each entry builds a call on a cold algebra whose cap of 1000 entries
# is exceeded: 1024 entries in degree 1 or 2 of C4,
# 4^7 in degree p^n m = 2, 3^4 * 3^5 for the length-5 component, and
# 4^2 * 4^3 for the length-3 components of arity-2 brackets and powers
_COLD_CALLS = {
    "boundary_matrix": lambda: partial(boundary_matrix, _cold_c4(), 2),
    "coboundary_matrix": lambda: partial(coboundary_matrix, _cold_c4(), 1),
    "hh_homology": lambda: partial(hh_homology, _cold_c4(), 1),
    "hh_cohomology": lambda: partial(hh_cohomology, _cold_c4(), 1),
    "pairing_gram": lambda: partial(pairing_gram, _cold_c4(), 1),
    "power_class_matrix": lambda: partial(power_class_matrix, _cold_c4(), 1, 1),
    "t_nm_space": lambda: partial(t_nm_space, _cold_c4(), 1, 1),
    "kappa_nm": lambda: partial(kappa_nm, _cold_c4(), 1, 1),
    "coderivation_component": _cold_component,
    "bracket": lambda: partial(bracket, *_cold_c4_cochains(2, 2)),
    "sigma_p": lambda: partial(sigma_p, *_cold_c4_cochains(2)),
    "coboundary": lambda: partial(coboundary, *_cold_c4_cochains(1)),
    "Cochain.is_cocycle": lambda: _cold_c4_cochains(1)[0].is_cocycle,
}

# the Gerstenhaber layer builds none of these matrices, but caps on them
_CAP_MESSAGES = {
    "bracket": "coderivation component at length 3 needs 1024 entries, cap is 1000",
    "sigma_p": "coderivation component at length 3 needs 1024 entries, cap is 1000",
    "coboundary": "coboundary matrix on degree 1 needs 1024 entries, cap is 1000",
    "Cochain.is_cocycle": "coboundary matrix on degree 1 needs 1024 entries, cap is 1000",
}


class TestCapsAndErrors:
    @pytest.mark.parametrize("name", list(_COLD_CALLS))
    def test_cap_same_cold_and_warm(self, name):
        call = _COLD_CALLS[name]()
        with pytest.raises(SizeCapExceeded) as cold:
            call(size_cap=1000)
        call(size_cap=None)
        with pytest.raises(SizeCapExceeded) as warm:
            call(size_cap=1000)
        assert (warm.value.entries, warm.value.cap, str(warm.value)) == (
            cold.value.entries, cold.value.cap, str(cold.value))

    @pytest.mark.parametrize("name", list(_CAP_MESSAGES))
    def test_gerstenhaber_cap_names_the_dense_matrix(self, name):
        with pytest.raises(SizeCapExceeded) as exc:
            _COLD_CALLS[name]()(size_cap=1000)
        assert str(exc.value) == _CAP_MESSAGES[name]

    def test_size_cap_propagates(self, trunc3_3):
        with pytest.raises(SizeCapExceeded):
            kappa_nm(trunc3_3, 1, 2)

    def test_verify_marks_capped_composition(self, trunc3_3):
        # the map at (1,1) is tiny but its composition factors through
        # degree 9, which trips the cap; the report must not lose the
        # four checks that did run
        rep = verify_properties(trunc3_3, 1, 1, 1)
        assert rep["composition"] == "skipped: cap"
        assert rep["skipped"] == ["composition"]
        assert rep["semilinear_defining_relation"] is True
        assert rep["dimension_formula"] is True
        assert rep["all_passed"]

    def test_verify_raises_when_map_itself_capped(self, trunc3_3):
        with pytest.raises(SizeCapExceeded):
            verify_properties(trunc3_3, 1, 2, 1)

    def test_negative_degrees_rejected(self, dual2):
        with pytest.raises(ValueError):
            kappa_nm(dual2, -1, 1)
        with pytest.raises(ValueError):
            t_nm_space(dual2, 1, -1)

    def test_form_required(self, m2k):
        bare = Algebra(m2k.field, m2k.dim, np.asarray(m2k.mult_tensor), m2k.unit)
        with pytest.raises(FormRequired):
            kappa_nm(bare, 0, 1)
