"""Cup-power adjoints on higher Hochschild homology."""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest

from derinv import GF
from derinv.algebras import (
    Algebra,
    algebra_from_json,
    algebra_to_json,
    change_basis,
    cyclic_table,
    make_group_algebra,
    make_truncated_polynomial,
    resolve_size_cap,
)
from derinv.errors import DerinvError, FormRequired, InvariantViolation, SizeCapExceeded
from derinv import higher
from derinv.gerstenhaber import bracket, coderivation_component, sigma_p
from derinv.higher import (
    HigherKappa,
    kappa_nm,
    kappa_triple,
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
)
from derinv.kulshammer import kappa_n, t_n_center_space
from derinv.linalg import Mat, SemilinearOperator
from derinv.signature import SignatureConfig

import oracles
from conftest import moved


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
        shift = hh_cohomology(a, 2).cochain(0).matrix.data
        real = higher._cup_powers
        monkeypatch.setattr(higher, "_cup_powers",
                            lambda alg, f, m, k: alg.field.vadd(real(alg, f, m, k), shift))
        with pytest.raises(InvariantViolation) as by_classes:
            power_class_matrix(a, 1, 1)
        with pytest.raises(InvariantViolation) as by_pairing:
            kappa_nm(a, 1, 1)
        with pytest.raises(InvariantViolation) as by_residues:
            kappa_triple(a, 1, 1)
        assert str(by_pairing.value) == str(by_classes.value) == str(by_residues.value)
        assert str(by_pairing.value).startswith("p^1-th cup power is not additive on HH^1")

    @pytest.mark.parametrize("fixture", ["c4", "s3_2", "m2k", "c9_3", "trunc3_3", "dual4"])
    def test_power_stack_is_cup_power_per_class(self, request, fixture):
        # one stacked cup per step equals one cup_power per class and per
        # additivity pair, in the order the consumers read the rows
        a = request.getfixturevalue(fixture)
        p = a.field.p
        for m, n in ((0, 1), (1, 1), (2, 1), (0, 2), (1, 0)):
            coh = hh_cohomology(a, m)
            if coh.dim == 0 or a.dim ** (p**n * m + 1) > 2**16:
                continue
            pairs = higher._additivity_pairs(m, n, coh.dim)
            cochains = coh.cochains() + [coh.cochain(i) + coh.cochain(j) for i, j in pairs]
            want = np.stack([cup_power(fc, p**n).flat() for fc in cochains])
            got = higher._power_stack(a, m, n)
            assert np.array_equal(got, want), (m, n)
            assert not got.flags.writeable


class TestKappaTriple:
    """The signature's (rank, dim T, dim ker) of kappa_nm from one rank, against kappa_nm."""

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_matches_kappa_nm_on_default_pairs(self, chain_map_corpus, seed):
        cap, seen = resolve_size_cap(), set()
        for name, a in chain_map_corpus.items():
            if a.form is None:
                continue
            a = algebra_from_json(algebra_to_json(a if seed is None else moved(a, seed)))
            for m, n in SignatureConfig().resolved_pairs(a.field.p):
                if higher._target_entries(a, m, n) > cap:
                    continue
                kap = kappa_nm(a, m, n)
                want = (kap.rank, kap.t_space().dim, kap.kernel().dim)
                assert kappa_triple(a, m, n) == want, (name, m, n)
                seen.add(tuple(x > 0 for x in want))
        # full, zero and partial ranks, with and without T and kernel
        assert {(True, False, False), (False, True, True), (True, True, True)} <= seen

    def _shifted(self, monkeypatch, shift):
        # every p^n-th power of HH^1 of C4 moved by one fixed 2-cochain
        a = _cold_c4()
        real = higher._cup_powers
        monkeypatch.setattr(higher, "_cup_powers",
                            lambda alg, f, m, k: alg.field.vadd(real(alg, f, m, k), shift(a)))
        return a

    def test_refuses_a_power_that_is_not_a_cocycle(self, monkeypatch):
        # f(g, g) = 1 and zero elsewhere: normalized, and
        # (delta f)(g^3, g, g) = g^3 f(g, g) = g^3
        def bump(a):
            f = np.zeros((4, 16), dtype=np.int8)
            f[0, 4 + 1] = 1
            return f

        a = self._shifted(monkeypatch, bump)
        assert coboundary(Cochain(a, 2, Mat(a.field, bump(a)))).matrix.data.any()
        with pytest.raises(InvariantViolation, match=r"^a p\^1-th cup power on HH\^1 is not"):
            kappa_triple(a, 1, 1)

    def test_refuses_a_power_that_is_not_normalized(self, monkeypatch):
        # the coboundary of a 1-cochain that does not vanish on the unit
        def boundary(a):
            g = Cochain(a, 1, Mat(a.field, np.eye(4, dtype=np.int8)[[1, 0, 0, 0]]))
            return coboundary(g).matrix.data

        a = self._shifted(monkeypatch, boundary)
        with pytest.raises(DerinvError, match="not normalized in degree 2"):
            kappa_triple(a, 1, 1)

    def test_checks_cohomology_against_hh_dim(self, monkeypatch):
        a = _cold_c4()
        monkeypatch.setattr(higher, "hh_dim", lambda alg, m: 5)
        with pytest.raises(InvariantViolation, match=r"^dim HH\^1 = 4 differs from dim HH_1 = 5"):
            kappa_triple(a, 1, 1)

    def test_needs_a_form_and_degrees(self, formless_corpus, c4):
        with pytest.raises(FormRequired):
            kappa_triple(formless_corpus["gf3_upper2"], 0, 1)
        with pytest.raises(ValueError):
            kappa_triple(c4, -1, 1)


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
            got = higher._defining_relation_holds(kap)
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
                got = higher._defining_relation_holds(moved)
                assert got == oracles.oracle_defining_relation(moved), (m, n)
                if data is bent:
                    assert got[0] is False, (m, n)


def _transport_classes(f, src_basis, dst_basis, g_inv, factors):
    """Class-coordinate matrix of the chain map induced by a basis change."""
    k = g_inv.data
    big = k
    for _ in range(factors - 1):
        big = f.vmul(big[:, None, :, None], k[None, :, None, :]).reshape(
            big.shape[0] * k.shape[0], big.shape[1] * k.shape[1])
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
# 4^7 in degree p^n m = 2, 3^4 * 3^5 for the length-5 component,
# 4 * 4^4 for the arity-4 results of bracket and coboundary, and
# 4 * 4^5 for the arity-5 power of an arity-3 cochain
_COLD_CALLS = {
    "boundary_matrix": lambda: partial(boundary_matrix, _cold_c4(), 2),
    "coboundary_matrix": lambda: partial(coboundary_matrix, _cold_c4(), 1),
    "hh_homology": lambda: partial(hh_homology, _cold_c4(), 1),
    "hh_cohomology": lambda: partial(hh_cohomology, _cold_c4(), 1),
    "pairing_gram": lambda: partial(pairing_gram, _cold_c4(), 1),
    "power_class_matrix": lambda: partial(power_class_matrix, _cold_c4(), 1, 1),
    "t_nm_space": lambda: partial(t_nm_space, _cold_c4(), 1, 1),
    "kappa_nm": lambda: partial(kappa_nm, _cold_c4(), 1, 1),
    "kappa_triple": lambda: partial(kappa_triple, _cold_c4(), 1, 1),
    "coderivation_component": _cold_component,
    "bracket": lambda: partial(bracket, *_cold_c4_cochains(3, 2)),
    "sigma_p": lambda: partial(sigma_p, *_cold_c4_cochains(3)),
    "coboundary": lambda: partial(coboundary, *_cold_c4_cochains(3)),
    "Cochain.is_cocycle": lambda: _cold_c4_cochains(3)[0].is_cocycle,
}

# the Gerstenhaber layer caps each insertion on the cochain it returns
_CAP_MESSAGES = {
    "bracket": "circle product of arity 4 needs 1024 entries, cap is 1000",
    "sigma_p": "circle product of arity 5 needs 4096 entries, cap is 1000",
    "coboundary": "circle product of arity 4 needs 1024 entries, cap is 1000",
    "Cochain.is_cocycle": "circle product of arity 4 needs 1024 entries, cap is 1000",
}

# (call, dense reference, arities): each result has at most 4^6 entries
# on C4, while the dense model multiplies a component of 4^7 entries
# (bracket) or 4^8 (sigma_p), or applies the 4^9-entry coboundary matrix
_UNDER_RESULT_CAP = {
    "bracket": (bracket, oracles.oracle_bracket_kron, (3, 2)),
    "sigma_p": (sigma_p, oracles.oracle_sigma_p_kron, (3,)),
    "coboundary": (coboundary, oracles.oracle_coboundary, (3,)),
}


class TestCapsAndErrors:
    @pytest.mark.parametrize("name", list(_COLD_CALLS))
    def test_cap_same_cold_and_warm(self, name, set_cap):
        call = _COLD_CALLS[name]()
        set_cap(1000)
        with pytest.raises(SizeCapExceeded) as cold:
            call()
        set_cap(None)
        call()
        set_cap(1000)
        with pytest.raises(SizeCapExceeded) as warm:
            call()
        assert (warm.value.entries, warm.value.cap, str(warm.value)) == (
            cold.value.entries, cold.value.cap, str(cold.value))

    @pytest.mark.parametrize("name", list(_CAP_MESSAGES))
    def test_gerstenhaber_cap_names_the_result(self, name, set_cap):
        set_cap(1000)
        with pytest.raises(SizeCapExceeded) as exc:
            _COLD_CALLS[name]()()
        assert str(exc.value) == _CAP_MESSAGES[name]

    @pytest.mark.parametrize("name", list(_UNDER_RESULT_CAP))
    def test_gerstenhaber_computes_what_fits_the_cap(self, name, set_cap):
        call, dense, arities = _UNDER_RESULT_CAP[name]
        a = _cold_c4()
        rng = np.random.default_rng(len(name))
        args = [Cochain(a, m, Mat(a.field, rng.integers(0, 2, (4, 4**m)).astype(np.int8)))
                for m in arities]
        set_cap(8192)
        got = call(*args)
        set_cap(None)
        assert got == dense(*args)

    def test_insertion_memory_is_bounded_by_its_result(self, set_cap):
        # one arity-9 result on C4 is 4^10 = 2^20 entries, where the dense
        # model multiplies a 4^5 x 4^9 component
        f, g = _cold_c4_cochains(5, 5)
        entries = 4**10
        set_cap(entries)
        tracemalloc.start()
        try:
            out = bracket(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.matrix.shape == (4, 4**9) and out.algebra is f.algebra
        assert peak < 32 * entries
        set_cap(entries - 1)
        with pytest.raises(SizeCapExceeded):
            bracket(f, g)

    def test_matmul_panels_reduce_in_place(self, set_cap):
        # the same bracket, with one float64 panel of Field.matmul reduced
        # in place into the int8 result: about 12 bytes an entry, where
        # int64 copies of the panel would take 28
        f, g = _cold_c4_cochains(5, 5)
        set_cap(4**10)
        tracemalloc.start()
        try:
            bracket(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**10

    def test_extension_field_panels_keep_one_digit_plane(self):
        # the same bracket over GF(4): one float64 digit plane of the
        # result at a time, about 20 bytes an entry, where e int64 digit
        # planes and their copies take 28
        a = make_truncated_polynomial(GF(2, 2), 4)
        f, g = (Cochain(a, 5, Mat(a.field, np.full((4, 4**5), 3, dtype=np.int8)))
                for _ in range(2))
        tracemalloc.start()
        try:
            out = bracket(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.matrix.shape == (4, 4**9)
        assert peak < 24 * 4**10

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
