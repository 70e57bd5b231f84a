"""Coderivation model: d_A, the Gerstenhaber bracket, sigma_p, restricted axioms."""

from collections import Counter
from itertools import product
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from derinv import gerstenhaber
from derinv.errors import (
    DegreeMismatch,
    DerinvError,
    DimensionMismatch,
    ParityViolation,
    SizeCapExceeded,
)
from derinv.fields import GF
from derinv.algebras import algebra_from_json, algebra_to_json, make_truncated_polynomial
from derinv.hochschild import (
    Cochain,
    HomologyBasis,
    coboundary,
    hh_cohomology,
    multiplication_cochain,
)
from derinv.gerstenhaber import (
    COBOUNDARY_BRACKET_SIGN,
    bracket,
    build_dA,
    coderivation_component,
    coderivation_power_component,
    is_coderivation,
    jacobson_si,
    restricted_axioms_check,
    sigma_p,
)
from derinv.linalg import Mat


def rand_cochain(algebra, m, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, algebra.field.q, size=(algebra.dim, algebra.dim**m))
    return Cochain(algebra, m, Mat(algebra.field, codes.astype(np.int8)))


def rand_cocycle(algebra, m, seed):
    coh = hh_cohomology(algebra, m)
    rng = np.random.default_rng(seed)
    out = Cochain(algebra, m, Mat.zeros(algebra.field, algebra.dim, algebra.dim**m))
    for i, rep in enumerate(coh.cochains()):
        out = out + rep.scale(int(rng.integers(0, algebra.field.q)))
    return out


class TestComponents:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_matches_insertion_oracle(self, trunc3_3, m):
        f = rand_cochain(trunc3_3, m, 40 + m)
        d = trunc3_3.dim
        for r in range(max(m - 1, 0), m + 3):
            comp = coderivation_component(f, r)
            assert comp.shape == (d ** (r - m + 1), d**r)
            for tup in product(range(d), repeat=r):
                want = oracles.oracle_coderivation_column(trunc3_3, f.matrix.data, m, tup)
                assert np.array_equal(comp.data[:, oracles._flat(d, tup)], want)

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_insertion_oracle_extension_field(self, dual4, m):
        f = rand_cochain(dual4, m, 50 + m)
        d = dual4.dim
        for r in range(m, m + 3):
            comp = coderivation_component(f, r)
            for tup in product(range(d), repeat=r):
                want = oracles.oracle_coderivation_column(dual4, f.matrix.data, m, tup)
                assert np.array_equal(comp.data[:, oracles._flat(d, tup)], want)

    def test_below_arity_is_empty_sum(self, dual2):
        f = rand_cochain(dual2, 3, 1)
        comp = coderivation_component(f, 2)
        assert comp.shape == (1, 4)
        assert not comp.data.any()

    def test_arity_zero_inserts(self, dual2):
        # D_z on the counit component k -> A is z itself
        z = Cochain(dual2, 0, Mat(dual2.field, np.array([[0], [1]], dtype=np.int8)))
        comp = coderivation_component(z, 0)
        assert comp.data.tolist() == [[0], [1]]

    def test_degree_errors(self, dual2):
        f = rand_cochain(dual2, 3, 2)
        with pytest.raises(DegreeMismatch):
            coderivation_component(f, 1)
        with pytest.raises(ValueError):
            coderivation_component(f, -1)

    def test_size_cap(self, trunc3_3, set_cap):
        f = rand_cochain(trunc3_3, 2, 3)
        set_cap(1000)
        with pytest.raises(SizeCapExceeded) as exc:
            coderivation_component(f, 8)
        assert exc.value.entries == 3**7 * 3**8


class TestCoderivationLaw:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_extension_of_cochain_is_coderivation(self, dual2, m):
        f = rand_cochain(dual2, m, 60 + m)
        ok, witness = is_coderivation(dual2, m - 1, oracles.coderivation_components(f, m + 3))
        assert ok and witness is None

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_extension_is_coderivation_odd_characteristic(self, trunc3_3, m):
        f = rand_cochain(trunc3_3, m, 70 + m)
        ok, witness = is_coderivation(trunc3_3, m - 1, oracles.coderivation_components(f, m + 2))
        assert ok and witness is None

    def test_extension_is_coderivation_extension_field(self, dual4):
        f = rand_cochain(dual4, 2, 80)
        ok, _ = is_coderivation(dual4, 1, oracles.coderivation_components(f, 5))
        assert ok

    def test_plain_composition_fails(self, dual2):
        # two arity-2 cochains: D_f o D_g drops length by 2 but violates the law
        rng = np.random.default_rng(3)
        f = Cochain(dual2, 2, Mat(dual2.field, rng.integers(0, 2, size=(2, 4)).astype(np.int8)))
        g = Cochain(dual2, 2, Mat(dual2.field, rng.integers(0, 2, size=(2, 4)).astype(np.int8)))
        comps = {
            r: Mat(
                dual2.field,
                dual2.field.matmul(
                    coderivation_component(f, r - 1).data,
                    coderivation_component(g, r).data,
                ),
            )
            for r in range(2, 7)
        }
        ok, witness = is_coderivation(dual2, 2, comps)
        assert not ok
        assert witness["length"] == 4 and witness["split"] == (1, 1)
        assert 0 <= witness["column"] < 2**4

    def test_square_of_odd_degree_is_coderivation(self, trunc3_3):
        # arity 2 has odd coderivation degree; the cross terms cancel in any characteristic
        f = rand_cochain(trunc3_3, 2, 5)
        comps = {r: coderivation_power_component(f, 2, r) for r in range(2, 6)}
        ok, _ = is_coderivation(trunc3_3, 2, comps)
        assert ok

    def test_cube_of_even_degree_is_coderivation(self, trunc3_3):
        f = rand_cochain(trunc3_3, 1, 6)
        comps = {r: coderivation_power_component(f, 3, r) for r in range(0, 5)}
        ok, _ = is_coderivation(trunc3_3, 0, comps)
        assert ok

    def test_square_of_even_degree_fails_odd_characteristic(self, trunc3_3):
        f = rand_cochain(trunc3_3, 1, 6)
        comps = {r: coderivation_power_component(f, 2, r) for r in range(0, 5)}
        ok, witness = is_coderivation(trunc3_3, 0, comps)
        assert not ok
        assert witness["length"] == 2 and witness["split"] == (1, 1)

    def test_empty_components(self, dual2):
        assert is_coderivation(dual2, 1, {}) == (True, None)

    def test_component_dict_validation(self, dual2):
        f = rand_cochain(dual2, 2, 7)
        good = oracles.coderivation_components(f, 4)
        with pytest.raises(DimensionMismatch):
            is_coderivation(dual2, 1, {r: good[r] for r in (1, 3, 4)})
        with pytest.raises(DimensionMismatch):
            is_coderivation(dual2, 1, {r: good[r] for r in (2, 3)})
        bad = dict(good)
        bad[2] = Mat.zeros(dual2.field, 4, 4)
        with pytest.raises(DimensionMismatch):
            is_coderivation(dual2, 1, bad)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gamma_inverts_extension(self, trunc3_3, m):
        # the component of D_f with target length 1 is f
        f = rand_cochain(trunc3_3, m, 90 + m)
        assert oracles.coderivation_components(f, m + 2)[m] == f.matrix


class TestDifferential:
    @pytest.mark.parametrize(
        "name", ["k2", "dual2", "trunc4_2", "c4", "dual4", "trunc3_3", "s3_2"]
    )
    def test_squares_to_zero(self, request, name):
        a = request.getfixturevalue(name)
        max_len = 5 if a.dim <= 4 else 4
        d_a = build_dA(a, max_len)
        assert list(d_a) == list(range(1, max_len + 1))
        for r, comp in d_a.items():
            assert comp.shape == (a.dim ** (r - 1), a.dim**r)

    def test_projects_to_multiplication(self, klein):
        d_a = build_dA(klein, 3)
        assert d_a[2] == multiplication_cochain(klein).matrix

    def test_law_holds_for_differential(self, c4):
        d_a = build_dA(c4, 5)
        ok, _ = is_coderivation(c4, 1, d_a)
        assert ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_base_field_alternating_scalar(self, p):
        # on k^(x r) ~ k the differential is the alternating sum 1 - 1 + 1 - ...
        a = make_truncated_polynomial(GF(p), 1)
        d_a = build_dA(a, 6)
        for r in range(2, 7):
            want = 1 if r % 2 == 0 else 0
            assert d_a[r].data[0, 0] == want

    def test_needs_two_tensor_factors(self, dual2):
        with pytest.raises(ValueError):
            build_dA(dual2, 1)


class TestBracket:
    @pytest.mark.parametrize("arities", [(0, 1), (1, 0), (0, 2), (2, 0),
                                         (1, 1), (1, 2), (2, 1), (2, 2)])
    def test_matches_circle_product_oracle(self, dual2, trunc3_3, dual4, arities):
        m, n = arities
        for a in (dual2, trunc3_3, dual4):
            f = rand_cochain(a, m, 100 + m)
            g = rand_cochain(a, n, 200 + n)
            want = oracles.oracle_bracket(a, f.matrix.data, g.matrix.data, m, n)
            assert np.array_equal(bracket(f, g).matrix.data, want)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_coboundary_sign_is_global(self, dual2, trunc3_3, m):
        # [f, m_A] = -delta(f) in every arity and characteristic
        assert COBOUNDARY_BRACKET_SIGN == -1
        for a in (dual2, trunc3_3):
            f = rand_cochain(a, m, 300 + m)
            lhs = bracket(f, multiplication_cochain(a))
            rhs = coboundary(f).scale((-1) % a.field.p)
            assert lhs == rhs

    @pytest.mark.parametrize("arities", [(1, 1), (1, 2), (2, 2), (2, 3), (0, 1), (0, 2)])
    def test_graded_antisymmetry(self, dual2, trunc3_3, arities):
        m, n = arities
        for a in (dual2, trunc3_3):
            f = rand_cochain(a, m, 400 + m)
            g = rand_cochain(a, n, 500 + n)
            rhs = bracket(g, f)
            if ((m - 1) * (n - 1)) % 2 == 0:
                rhs = rhs.scale((-1) % a.field.p)
            assert bracket(f, g) == rhs

    def test_self_bracket_vanishes_in_applicable_parity(self, dual2, trunc3_3):
        # char 2: any arity; odd characteristic: even coderivation degree
        for m in (1, 2, 3):
            assert not bracket(rand_cochain(dual2, m, m), rand_cochain(dual2, m, m)).matrix.data.any()
        for m in (1, 3):
            f = rand_cochain(trunc3_3, m, m)
            assert not bracket(f, f).matrix.data.any()

    @pytest.mark.parametrize(
        "arities",
        [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3), (0, 1, 2), (0, 2, 2)],
    )
    def test_graded_jacobi(self, dual2, trunc3_3, arities):
        for a in (dual2, trunc3_3):
            neg = (-1) % a.field.p
            f, g, h = (rand_cochain(a, m, 600 + 7 * i + m) for i, m in enumerate(arities))
            al, be, ga = (m - 1 for m in arities)

            def sgn(c, e):
                return c if e % 2 == 0 else c.scale(neg)

            total = (
                sgn(bracket(bracket(f, g), h), al * ga)
                + sgn(bracket(bracket(g, h), f), be * al)
                + sgn(bracket(bracket(h, f), g), ga * be)
            )
            assert not total.matrix.data.any()

    def test_two_zero_cochains_land_below_counit(self, dual2):
        z = Cochain(dual2, 0, Mat(dual2.field, np.array([[1], [1]], dtype=np.int8)))
        out = bracket(z, z)
        assert out.arity == 0 and not out.matrix.data.any()

    def test_degree_zero_acts_by_evaluation(self, dual2):
        # [f, z] = f(z) and [z, f] = -f(z) for a derivation f and z in A
        x = Cochain(dual2, 0, Mat(dual2.field, np.array([[0], [1]], dtype=np.int8)))
        d_x = Cochain(dual2, 1, Mat(dual2.field, np.array([[0, 0], [0, 1]], dtype=np.int8)))
        assert bracket(d_x, x).matrix.data.tolist() == [[0], [1]]
        assert bracket(x, d_x).matrix.data.tolist() == [[0], [1]]

    def test_center_brackets_vanish(self, c4):
        # arity-0 brackets of central elements: [z, w] = 0 below the counit
        coh0 = hh_cohomology(c4, 0)
        for f in coh0.cochains():
            for g in coh0.cochains():
                assert not bracket(f, g).matrix.data.any()

    def test_descends_to_classes(self, trunc3_3):
        # shifting one argument by a coboundary moves the bracket by a coboundary
        f = rand_cocycle(trunc3_3, 1, 9)
        g = rand_cocycle(trunc3_3, 2, 10)
        coh = hh_cohomology(trunc3_3, 2)
        shifted = f + coboundary(rand_cochain(trunc3_3, 0, 11))
        lhs = coh.class_coords(bracket(shifted, g).flat())
        rhs = coh.class_coords(bracket(f, g).flat())
        assert np.array_equal(lhs, rhs)

    def test_mixed_algebras_rejected(self, dual2, c4):
        with pytest.raises(DimensionMismatch):
            bracket(rand_cochain(dual2, 1, 1), rand_cochain(c4, 1, 1))

    def test_derivation_classes_of_dual_numbers(self, dual2):
        # HH^1 basis: D_1 sends x to 1, D_x sends x to x; [D_1, D_x] = D_1
        coh = hh_cohomology(dual2, 1)
        d_1, d_x = coh.cochains()
        assert d_1.matrix.data.tolist() == [[0, 1], [0, 0]]
        assert d_x.matrix.data.tolist() == [[0, 0], [0, 1]]
        assert bracket(d_1, d_x) == d_1

    def test_degree_one_bracket_is_operator_commutator(self, klein):
        f = rand_cocycle(klein, 1, 12)
        g = rand_cocycle(klein, 1, 13)
        fld = klein.field
        comm = fld.vsub(
            fld.matmul(f.matrix.data, g.matrix.data),
            fld.matmul(g.matrix.data, f.matrix.data),
        )
        assert np.array_equal(bracket(f, g).matrix.data, comm)


class TestSigmaP:
    def test_derivation_square(self, dual2, klein):
        for a in (dual2, klein):
            f = rand_cocycle(a, 1, 14)
            fld = a.field
            assert np.array_equal(
                sigma_p(f).matrix.data, fld.matmul(f.matrix.data, f.matrix.data)
            )

    def test_derivation_cube_odd_characteristic(self, trunc3_3):
        f = rand_cocycle(trunc3_3, 1, 15)
        fld = trunc3_3.field
        cube = fld.matmul(f.matrix.data, fld.matmul(f.matrix.data, f.matrix.data))
        assert np.array_equal(sigma_p(f).matrix.data, cube)

    def test_frozen_dual_numbers_powers(self, dual2):
        coh = hh_cohomology(dual2, 1)
        d_1, d_x = coh.cochains()
        assert not sigma_p(d_1).matrix.data.any()
        assert sigma_p(d_x) == d_x
        assert np.array_equal(coh.class_coords(sigma_p(d_1).flat()), [0, 0])
        assert np.array_equal(coh.class_coords(sigma_p(d_x).flat()), [0, 1])

    def test_multiplication_cochain_squares_to_zero(self, dual2, c4):
        # tau o D_{m_A}^2 = tau o d_A^2 = 0
        for a in (dual2, c4):
            assert not sigma_p(multiplication_cochain(a)).matrix.data.any()

    def test_zero_goes_to_zero(self, trunc3_3):
        z = Cochain(trunc3_3, 1, Mat.zeros(trunc3_3.field, 3, 3))
        assert not sigma_p(z).matrix.data.any()

    def test_power_of_cocycle_is_cocycle(self, dual2, trunc3_3, klein):
        for a, m in [(dual2, 1), (dual2, 2), (trunc3_3, 1), (klein, 1)]:
            f = rand_cocycle(a, m, 16)
            assert f.is_cocycle()
            assert sigma_p(f).is_cocycle()

    def test_power_of_coboundary_is_coboundary(self, dual2, trunc3_3):
        for a, m in [(dual2, 1), (dual2, 2), (trunc3_3, 1)]:
            shift = coboundary(rand_cochain(a, m - 1, 17))
            out = sigma_p(shift)
            coh = hh_cohomology(a, out.arity)
            assert not coh.class_coords(out.flat()).any()

    def test_scaling_is_frobenius_on_coefficients(self, dual2, trunc3_3, dual4):
        for a, m in [(dual2, 1), (dual2, 2), (trunc3_3, 1), (dual4, 1)]:
            fld = a.field
            f = rand_cochain(a, m, 18)
            for c in range(1, fld.q):
                assert sigma_p(f.scale(c)) == sigma_p(f).scale(fld.pow(c, fld.p))

    def test_doubling_consistency(self, trunc3_3):
        # (2a)^[3] = 8 a^[3] = 2 a^[3] over GF(3)
        f = rand_cocycle(trunc3_3, 1, 19)
        assert sigma_p(f.scale(2)) == sigma_p(f).scale(2)

    def test_parity_violation(self, trunc3_3):
        with pytest.raises(ParityViolation):
            sigma_p(rand_cochain(trunc3_3, 2, 20))

    def test_even_arity_allowed_in_characteristic_two(self, dual2):
        out = sigma_p(rand_cochain(dual2, 2, 21))
        assert out.arity == 3

    def test_class_stable_under_coboundary_shifts(self, dual2, trunc3_3, klein):
        # (D_f + [d_A, D_E])^p has the class of sigma_p(f), 10 random
        # normalized E
        for a, m in [(dual2, 1), (dual2, 2), (trunc3_3, 1), (klein, 1)]:
            f = rand_cocycle(a, m, 22)
            out = sigma_p(f)
            coh = hh_cohomology(a, out.arity)
            want = coh.class_coords(out.flat())
            rng = np.random.default_rng(23)
            for _ in range(10):
                codes = rng.integers(0, a.field.q, size=(a.dim, (a.dim - 1) ** (m - 1)))
                e = oracles.oracle_normalized_cochain(a, m - 1, codes)
                moved = sigma_p(f + coboundary(e))
                assert np.array_equal(coh.class_coords(moved.flat()), want)

    def test_size_cap(self, trunc3_3, set_cap):
        f = rand_cochain(trunc3_3, 3, 24)
        set_cap(1000)
        with pytest.raises(SizeCapExceeded):
            sigma_p(f)


class TestJacobson:
    def test_p2_single_polynomial_is_bracket(self, dual2, klein):
        for a in (dual2, klein):
            f = rand_cochain(a, 1, 25)
            g = rand_cochain(a, 1, 26)
            polys = jacobson_si(f, g)
            assert len(polys) == 1
            assert polys[0] == bracket(f, g)

    def test_p3_additivity_on_degree_one_classes(self, trunc3_3):
        # (a+b)^[3] = a^[3] + b^[3] + s_1 + s_2 as classes, all basis pairs
        coh = hh_cohomology(trunc3_3, 1)
        fld = trunc3_3.field
        reps = coh.cochains()
        for fa in reps:
            for gb in reps:
                want = coh.class_coords(sigma_p(fa).flat())
                want = fld.vadd(want, coh.class_coords(sigma_p(gb).flat()))
                for s in jacobson_si(fa, gb):
                    want = fld.vadd(want, coh.class_coords(s.flat()))
                got = coh.class_coords(sigma_p(fa + gb).flat())
                assert np.array_equal(got, want)

    def test_equal_arguments_sum_to_zero_class(self, trunc3_3):
        # (2a)^[p] = 2^p a^[p] forces sum_i s_i(a, a) = (2^p - 2) a^[p] = 0 mod 3
        coh = hh_cohomology(trunc3_3, 1)
        f = rand_cocycle(trunc3_3, 1, 27)
        total = coh.class_coords(jacobson_si(f, f)[0].flat())
        total = trunc3_3.field.vadd(total, coh.class_coords(jacobson_si(f, f)[1].flat()))
        assert not total.any()

    def test_arity_and_algebra_checks(self, dual2, c4):
        with pytest.raises(DegreeMismatch):
            jacobson_si(rand_cochain(dual2, 1, 30), rand_cochain(dual2, 2, 31))
        with pytest.raises(DimensionMismatch):
            jacobson_si(rand_cochain(dual2, 1, 32), rand_cochain(c4, 1, 33))

    @pytest.mark.parametrize("p", [2, 3])
    def test_arity_zero_is_rejected(self, p):
        # the s_i would have arity 1 - p, as sigma_p of an arity-0 cochain
        a = make_truncated_polynomial(GF(p), 2)
        zero = Cochain(a, 0, Mat.zeros(a.field, 2, 1))
        with pytest.raises(ValueError, match="^the p-th power of an arity-0 cochain lands below"):
            jacobson_si(zero, zero)


class TestRestrictedAxioms:
    def test_dual_numbers_degrees_one_and_two(self, dual2):
        report = restricted_axioms_check(dual2, [1, 2])
        assert report["all_passed"]
        assert report["coboundary_bracket_sign"] == -1
        for m in (1, 2):
            entry = report["degrees"][m]
            assert entry["power_of_cocycle_is_cocycle"]
            assert entry["ad_power"] and entry["scaling"]
            assert entry["additivity"] and entry["class_well_defined"]
        assert report["degrees"][1]["target_degree"] == 1
        assert report["degrees"][2]["target_degree"] == 3

    def test_klein_degree_one(self, klein):
        assert restricted_axioms_check(klein, [1])["all_passed"]

    def test_odd_characteristic_degree_one(self, trunc3_3):
        report = restricted_axioms_check(trunc3_3, [1, 2])
        assert report["all_passed"]
        assert report["degrees"][2] == {"skipped": "even degree is outside the odd-p regime"}

    def test_separable_algebra_is_vacuous(self, m2k):
        report = restricted_axioms_check(m2k, [1, 2])
        assert report["all_passed"]
        assert report["degrees"][1]["vacuous"]

    def test_base_field_is_vacuous(self, k2):
        report = restricted_axioms_check(k2, [1, 2])
        assert report["all_passed"]
        assert all(report["degrees"][m]["vacuous"] for m in (1, 2))

    def test_degree_zero_rejected(self, dual2):
        with pytest.raises(ValueError):
            restricted_axioms_check(dual2, [0])

    def test_each_class_computed_once(self, klein, monkeypatch):
        # the classes of the powers sigma_p(f_i) are solved once, not once
        # per pair: the rows passed to class_coords are exactly the
        # cochains the per-pair path asks for, each distinct request once
        asked: list[tuple[int, bytes]] = []
        real = HomologyBasis.class_coords

        def counting(self, vec):
            for row in np.atleast_2d(np.asarray(vec)):
                asked.append((self.degree, row.tobytes()))
            return real(self, vec)

        monkeypatch.setattr(HomologyBasis, "class_coords", counting)
        assert restricted_axioms_check(klein, [1, 2])["all_passed"]
        stacked = Counter(asked)
        asked.clear()
        assert oracles.oracle_restricted_axioms_check(klein, [1, 2])["all_passed"]
        assert stacked == Counter(asked)
        for m in (1, 2):
            k = hh_cohomology(klein, m).dim
            powers = [sigma_p(f).flat().tobytes() for f in hh_cohomology(klein, m).cochains()]
            # ad-power: two rows a pair, in degree 3m - 2; additivity:
            # sigma_p(f_i), then s_1 and sigma_p(f_i + f_j) for each pair;
            # well-definedness: ten rows, these in degree 2m - 1
            rows = sum(n for (deg, _), n in stacked.items() if deg in (3 * m - 2, 2 * m - 1))
            assert rows == 2 * k * k + k + 2 * k * k + 10
            assert all(stacked[(2 * m - 1, row)] >= 1 for row in powers)


FIXTURES = ["k2", "dual2", "trunc4_2", "c2", "c4", "c8", "klein", "uv", "s3_2", "m2k",
            "c3_3", "c9_3", "trunc3_3", "dual4", "trunc4_3", "dual3"]
EXTRA = ["gf3_x3_moved", "gf3_upper", "gf5_x2", "gf9_x2"]


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of the DerinvError it raised."""
    try:
        return fn(*args, **kwargs)
    except DerinvError as exc:
        return type(exc).__name__, str(exc)


def _algebra(request, name):
    if name in EXTRA:
        return request.getfixturevalue("insertion_corpus")[name]
    return request.getfixturevalue(name)


def _fresh(algebra):
    """A copy of algebra with an empty cache."""
    return algebra_from_json(algebra_to_json(algebra))


class TestStackedMatchesPerPair:
    """restricted_axioms_check against oracles.oracle_restricted_axioms_check."""

    @pytest.mark.parametrize("name", FIXTURES + EXTRA)
    def test_reports(self, request, name):
        a = _algebra(request, name)
        for m in (1, 2, 3):
            want = _outcome(oracles.oracle_restricted_axioms_check, a, [m])
            got = _outcome(restricted_axioms_check, a, [m])
            # repr also compares key order and the types of flags and witnesses
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("name", FIXTURES + EXTRA)
    @pytest.mark.parametrize("cap", [2**12, 2**16])
    def test_cap_messages_cold_and_warm(self, request, name, cap, set_cap):
        a = _algebra(request, name)
        checks = (oracles.oracle_restricted_axioms_check, restricted_axioms_check)
        for m in (1, 2, 3):
            set_cap(cap)
            cold = [_outcome(check, _fresh(a), [m]) for check in checks]
            set_cap(None)
            _outcome(restricted_axioms_check, a, [m])
            set_cap(cap)
            warm = [_outcome(check, a, [m]) for check in checks]
            assert repr(cold[1]) == repr(cold[0]) == repr(warm[0]) == repr(warm[1])


def _perturb_class(monkeypatch, degree: int, bad: np.ndarray) -> None:
    """Shift the first class coordinate of every degree-`degree` cochain equal to bad."""
    real = HomologyBasis.class_coords

    def wrong(self, vec):
        out = real(self, vec)
        if self.degree != degree:
            return out
        hit = (np.atleast_2d(np.asarray(vec)) == bad).all(axis=1)
        out = out.copy()
        rows = np.atleast_2d(out)
        rows[hit, 0] = self.algebra.field.vadd(rows[hit, 0], np.ones(1, dtype=np.int8))
        return out

    monkeypatch.setattr(HomologyBasis, "class_coords", wrong)


def _both(algebra, m):
    want = oracles.oracle_restricted_axioms_check(algebra, [m])
    got = restricted_axioms_check(algebra, [m])
    assert repr(got) == repr(want)
    return got["degrees"][m]


class TestWitnesses:
    """One wrong class, or one wrong scalar power, fails one stage the same way on both paths."""

    def test_ad_power(self, klein, monkeypatch):
        # [sigma_p(f), g] and (ad f)^2 g agree as cochains here, so no class
        # map tells them apart: shift sigma_p(f_1) o g_2 by a cocycle instead
        reps = hh_cohomology(klein, 2).reps.data.reshape(-1, klein.dim, klein.dim**2)
        sigma_1 = sigma_p(hh_cohomology(klein, 2).cochain(1)).matrix.data
        shift = hh_cohomology(klein, 4).reps.data[0].reshape(klein.dim, -1)
        real = gerstenhaber._pre_lie

        def wrong(fld, f, m, g, n):
            out = real(fld, f, m, g, n)
            if (m, n) != (3, 2):
                return out
            lead = out.shape[:-2]
            hit = ((np.broadcast_to(f, lead + f.shape[-2:]) == sigma_1).all(axis=(-2, -1))
                   & (np.broadcast_to(g, lead + g.shape[-2:]) == reps[2]).all(axis=(-2, -1)))
            out = out.copy()
            out[hit] = fld.vadd(out[hit], shift)
            return out

        monkeypatch.setattr(gerstenhaber, "_pre_lie", wrong)
        entry = _both(klein, 2)
        assert entry["ad_power"] is False and entry["witness_ad_power"] == (1, 2)

    def test_additivity(self, klein, monkeypatch):
        reps = hh_cohomology(klein, 1).cochains()
        powers = {sigma_p(f).flat().tobytes() for f in reps}
        bad = next(s for f, g in product(reps, repeat=2)
                   if (s := sigma_p(f + g).flat()).any() and s.tobytes() not in powers)
        _perturb_class(monkeypatch, 1, bad)
        entry = _both(klein, 1)
        assert entry["additivity"] is False and "witness_additivity" in entry

    def test_well_defined(self, klein, monkeypatch):
        # replay the draws of the scaling and well-definedness stages
        rng = np.random.default_rng(0xC0DE)
        reps = hh_cohomology(klein, 2).cochains()
        powers = {sigma_p(f).flat().tobytes() for f in reps}
        for _ in range(20):
            rng.integers(1, 2), rng.integers(0, len(reps))
        for _ in range(10):
            i = int(rng.integers(0, len(reps)))
            e = oracles.oracle_normalized_cochain(
                klein, 1, rng.integers(0, 2, size=(klein.dim, klein.dim - 1)))
            moved = sigma_p(reps[i] + coboundary(e)).flat()
            if moved.tobytes() not in powers:
                break
        _perturb_class(monkeypatch, 3, moved)
        entry = _both(klein, 2)
        assert entry["class_well_defined"] is False
        assert entry["witness_class_well_defined"] == i

    def test_scaling(self, dual4, monkeypatch):
        fld = dual4.field
        real = type(fld).pow

        def wrong(self, a, n):
            return 1 if (a, n) == (2, 2) else real(self, a, n)

        monkeypatch.setattr(type(fld), "pow", wrong)
        entry = _both(dual4, 1)
        assert entry["scaling"] is False and entry["witness_scaling"][0] == 2


class TestStackMemory:
    """Stages larger than one slice allocate like the per-pair path, not like the whole stack."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_peak_on_a_warm_algebra(self, klein, m):
        # degree 2 passes; degree 3 raises at the cap of HH^7, before any
        # insertion.  Unsliced degree-2 stacks peak at 9.2 MiB.
        want = _outcome(oracles.oracle_restricted_axioms_check, klein, [m])
        tracemalloc.start()
        try:
            got = _outcome(restricted_axioms_check, klein, [m])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(got) == repr(want)
        assert peak < 4 * 2**20


INSERTION_NAMES = ["gf2_x2", "gf2_c2xc2", "gf3_x3", "gf3_x3_moved", "gf3_upper",
                   "gf5_x2", "gf4_x2", "gf9_x2"]


class TestStackedInsertions:
    """_pre_lie and the stage helpers on stacks against one cochain at a time."""

    @pytest.mark.parametrize("name", INSERTION_NAMES)
    def test_circle_products_broadcast(self, insertion_corpus, name):
        a = insertion_corpus[name]
        fld, d = a.field, a.dim
        rng = np.random.default_rng(17)
        for m, n in [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0), (3, 1)]:
            f = rng.integers(0, fld.q, size=(3, 1, d, d**m)).astype(np.int8)
            g = rng.integers(0, fld.q, size=(1, 2, d, d**n)).astype(np.int8)
            got = gerstenhaber._pre_lie(fld, f, m, g, n)
            assert got.shape == (3, 2, d, d ** (m + n - 1))
            for i, j in product(range(3), range(2)):
                want = gerstenhaber._pre_lie(fld, f[i, 0], m, g[0, j], n)
                assert np.array_equal(got[i, j], want)
                fc, gc = Cochain(a, m, Mat(fld, f[i, 0])), Cochain(a, n, Mat(fld, g[0, j]))
                assert np.array_equal(oracles.circle_product(a, f[i, 0], g[0, j], m, n), want)
                if m + n:
                    assert bracket(fc, gc).matrix.data.tolist() == gerstenhaber._brackets(
                        a, f, m, g, n)[i, j].tolist()

    @pytest.mark.parametrize("name", INSERTION_NAMES)
    def test_powers_and_jacobson_on_stacks(self, insertion_corpus, name):
        a = insertion_corpus[name]
        fld, d = a.field, a.dim
        rng = np.random.default_rng(19)
        m = 1
        f = rng.integers(0, fld.q, size=(4, d, d**m)).astype(np.int8)
        g = rng.integers(0, fld.q, size=(4, d, d**m)).astype(np.int8)
        powers = gerstenhaber._powers(a, f, m)
        parts = gerstenhaber._jacobson(a, f, g, m)
        for i in range(4):
            fc, gc = Cochain(a, m, Mat(fld, f[i])), Cochain(a, m, Mat(fld, g[i]))
            assert np.array_equal(powers[i], oracles.oracle_sigma_p_kron(fc).matrix.data)
            assert [s.matrix.data.tolist() for s in jacobson_si(fc, gc)] == [x[i].tolist() for x in parts]
        # Jacobson's formula holds exactly for linear maps A -> A
        want = fld.vadd(powers, gerstenhaber._powers(a, g, m))
        for x in parts:
            want = fld.vadd(want, x)
        assert np.array_equal(gerstenhaber._powers(a, fld.vadd(f, g), m), want)


class TestInsertionsMatchKronecker:
    """bracket and sigma_p against the products of dense coderivation components."""

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(INSERTION_NAMES), m=st.integers(0, 3), n=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(name="gf2_x2", m=0, n=0, seed=1)
    @example(name="gf9_x2", m=0, n=3, seed=2)
    @example(name="gf3_upper", m=2, n=0, seed=3)
    @example(name="gf3_x3_moved", m=3, n=2, seed=4)
    @example(name="gf5_x2", m=1, n=0, seed=5)
    def test_bracket(self, insertion_corpus, name, m, n, seed):
        a = insertion_corpus[name]
        f, g = rand_cochain(a, m, seed), rand_cochain(a, n, seed + 1)
        assert bracket(f, g) == oracles.oracle_bracket_kron(f, g)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(INSERTION_NAMES), m=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(name="gf2_c2xc2", m=1, seed=6)
    @example(name="gf4_x2", m=2, seed=7)
    @example(name="gf2_x2", m=3, seed=8)
    @example(name="gf3_x3", m=1, seed=9)
    @example(name="gf3_upper", m=1, seed=10)
    @example(name="gf9_x2", m=1, seed=11)
    def test_sigma_p(self, insertion_corpus, name, m, seed):
        a = insertion_corpus[name]
        assume(a.field.p == 2 or m % 2 == 1)
        f = rand_cochain(a, m, seed)
        assert sigma_p(f) == oracles.oracle_sigma_p_kron(f)

    def test_sigma_p_of_arity_zero_is_rejected(self, dual2):
        with pytest.raises(ValueError):
            sigma_p(rand_cochain(dual2, 0, 12))

    def test_no_dense_component_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense coderivation component built")

        monkeypatch.setattr(gerstenhaber, "coderivation_component", refuse)
        for a, degrees in [(make_truncated_polynomial(GF(2), 2), [1, 2]),
                           (make_truncated_polynomial(GF(3), 3), [1])]:
            f, g = rand_cochain(a, 2, 13), rand_cochain(a, 3, 14)
            assert bracket(f, g).arity == 4
            assert sigma_p(rand_cochain(a, 1, 15)).arity == 1
            assert restricted_axioms_check(a, degrees)["all_passed"]
