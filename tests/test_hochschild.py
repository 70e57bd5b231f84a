"""Bar-complex (co)homology, the form pairing, and the cup product."""

import importlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derinv import GF, hochschild
from derinv.algebras import (
    algebra_from_json,
    algebra_to_json,
    change_basis,
    make_truncated_polynomial,
    resolve_size_cap,
)
from derinv.errors import (
    DegeneratePairing,
    DerinvError,
    DimensionMismatch,
    InvariantViolation,
    SizeCapExceeded,
)
from derinv.hochschild import (
    Cochain,
    _boundary_map,
    _dense,
    _in_full_coordinates,
    _pairing_matrix,
    _quotient_basis,
    boundary_matrix,
    coboundary,
    coboundary_matrix,
    cup,
    cup_power,
    hh_cohomology,
    hh_dim,
    hh_homology,
    multiplication_cochain,
    pairing,
    pairing_gram,
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
)
from derinv.kulshammer import quotient_mod_ka
from derinv.linalg import Mat, Subspace
from derinv.signature import compute_signature

import oracles


def rand_codes(rng, field, shape):
    if field.e == 1:
        return rng.integers(0, field.p, size=shape).astype(np.int8)
    return rng.integers(0, field.q, size=shape).astype(np.int8)


def rand_cochain(rng, algebra, arity):
    mat = rand_codes(rng, algebra.field, (algebra.dim, algebra.dim**arity))
    return Cochain(algebra, arity, Mat(algebra.field, mat))


def rand_cocycle(rng, basis):
    """Random linear combination of the representative (co)cycles."""
    f = basis.algebra.field
    coeffs = rand_codes(rng, f, basis.dim)
    return f.matmul(coeffs.reshape(1, -1), basis.reps.data).reshape(-1)


class TestDifferentials:
    @pytest.mark.parametrize(
        "fixture,m",
        [
            ("dual2", 1),
            ("dual2", 2),
            ("dual2", 3),
            ("trunc3_3", 1),
            ("trunc3_3", 2),
            ("dual4", 1),
            ("dual4", 2),
            ("dual4", 3),
            ("s3_2", 1),
            ("klein", 5),
        ],
    )
    def test_boundary_matches_direct_evaluation(self, request, fixture, m):
        a = request.getfixturevalue(fixture)
        assert np.array_equal(
            boundary_matrix(a, m).data, oracles.oracle_boundary_matrix(a, m)
        )

    @pytest.mark.parametrize(
        "fixture,m",
        [
            ("dual2", 0),
            ("dual2", 1),
            ("dual2", 2),
            ("trunc3_3", 0),
            ("trunc3_3", 1),
            ("trunc3_3", 2),
            ("dual4", 0),
            ("dual4", 1),
            ("dual4", 3),
            ("s3_2", 1),
            ("klein", 4),
        ],
    )
    def test_coboundary_matches_direct_evaluation(self, request, fixture, m):
        a = request.getfixturevalue(fixture)
        rng = np.random.default_rng(101 + m)
        delta = coboundary_matrix(a, m)
        for _ in range(3):
            f = rand_cochain(rng, a, m)
            via_matrix = delta.mul_vec(f.flat()).reshape(a.dim, -1)
            direct = oracles.oracle_coboundary_matrix(a, f.matrix.data, m)
            assert np.array_equal(via_matrix, direct)

    @pytest.mark.parametrize(
        "fixture,m",
        [
            ("dual2", 1),
            ("dual2", 2),
            ("dual2", 3),
            ("trunc3_3", 1),
            ("trunc3_3", 2),
            ("trunc4_3", 1),
            ("klein", 1),
            ("dual4", 1),
            ("dual4", 2),
            ("s3_2", 1),
        ],
    )
    def test_boundary_squares_to_zero(self, request, fixture, m):
        a = request.getfixturevalue(fixture)
        f = a.field
        prod = f.matmul(boundary_matrix(a, m).data, boundary_matrix(a, m + 1).data)
        assert not prod.any()

    @pytest.mark.parametrize(
        "fixture,m",
        [
            ("dual2", 0),
            ("dual2", 1),
            ("dual2", 2),
            ("trunc3_3", 0),
            ("trunc3_3", 1),
            ("trunc4_3", 0),
            ("trunc4_3", 1),
            ("klein", 0),
            ("dual4", 0),
            ("dual4", 1),
            ("s3_2", 0),
        ],
    )
    def test_coboundary_squares_to_zero(self, request, fixture, m):
        a = request.getfixturevalue(fixture)
        f = a.field
        prod = f.matmul(coboundary_matrix(a, m + 1).data, coboundary_matrix(a, m).data)
        assert not prod.any()

    def test_multiplication_is_a_cocycle(self, s3_2, trunc3_3):
        assert multiplication_cochain(s3_2).is_cocycle()
        assert multiplication_cochain(trunc3_3).is_cocycle()

    def test_unit_is_a_cocycle(self, s3_2):
        assert Cochain(s3_2, 0, Mat(s3_2.field, s3_2.unit.reshape(-1, 1))).is_cocycle()

    def test_boundary_rejects_degree_zero(self, dual2):
        with pytest.raises(ValueError):
            boundary_matrix(dual2, 0)

    def test_size_cap_blocks_assembly(self, c8, set_cap):
        set_cap(1000)
        with pytest.raises(SizeCapExceeded) as exc:
            boundary_matrix(c8, 4)
        assert exc.value.entries == 8**4 * 8**5
        assert exc.value.cap == 1000
        with pytest.raises(SizeCapExceeded):
            coboundary_matrix(c8, 4)

    def test_size_cap_env_override(self, c8, monkeypatch):
        monkeypatch.setenv(SIZE_CAP_ENV, "999")
        assert resolve_size_cap() == 999
        with pytest.raises(SizeCapExceeded):
            boundary_matrix(c8, 5)
        monkeypatch.delenv(SIZE_CAP_ENV)
        assert resolve_size_cap() == DEFAULT_SIZE_CAP


class TestCochain:
    def test_apply_reads_matrix_columns(self, trunc3_3):
        a = trunc3_3
        rng = np.random.default_rng(7)
        f = rand_cochain(rng, a, 2)
        for i in range(a.dim):
            for j in range(a.dim):
                col = f.apply(a.basis_vector(i), a.basis_vector(j))
                assert np.array_equal(col, f.matrix.data[:, i * a.dim + j])

    def test_apply_is_multilinear(self, dual4):
        a = dual4
        f = a.field
        rng = np.random.default_rng(8)
        g = rand_cochain(rng, a, 2)
        x, y, z = (rand_codes(rng, f, a.dim) for _ in range(3))
        c = int(rand_codes(rng, f, ()))
        lhs = g.apply(f.vadd(x, f.vscale(c, y)), z)
        rhs = f.vadd(g.apply(x, z), f.vscale(c, g.apply(y, z)))
        assert np.array_equal(lhs, rhs)

    def test_flat_roundtrip(self, klein):
        rng = np.random.default_rng(9)
        f = rand_cochain(rng, klein, 2)
        again = Cochain.from_flat(klein, 2, f.flat())
        assert again == f

    def test_arity_mismatch_rejected(self, dual2):
        rng = np.random.default_rng(10)
        f = rand_cochain(rng, dual2, 1)
        g = rand_cochain(rng, dual2, 2)
        with pytest.raises(DimensionMismatch):
            f + g
        with pytest.raises(DimensionMismatch):
            f.apply()

    def test_coboundary_of_coboundary_vanishes(self, trunc4_3):
        rng = np.random.default_rng(11)
        f = rand_cochain(rng, trunc4_3, 1)
        assert not coboundary(coboundary(f)).matrix.data.any()
        assert coboundary(f).is_cocycle()


class TestHomologyBases:
    @pytest.mark.parametrize(
        "fixture", ["dual2", "trunc4_2", "trunc3_3", "klein", "s3_2", "m2k", "dual4"]
    )
    def test_degree_zero_cohomology_is_center(self, request, fixture):
        a = request.getfixturevalue(fixture)
        coh = hh_cohomology(a, 0)
        assert coh.cycles == a.center()
        assert coh.dim == a.center().dim
        assert np.array_equal(coh.reps.data, a.center().basis.data)

    @pytest.mark.parametrize(
        "fixture", ["dual2", "trunc4_2", "trunc3_3", "klein", "s3_2", "m2k", "dual4"]
    )
    def test_degree_zero_homology_matches_quotient(self, request, fixture):
        a = request.getfixturevalue(fixture)
        hom = hh_homology(a, 0)
        assert hom.boundaries == a.commutator_space()
        q = quotient_mod_ka(a)
        assert np.array_equal(hom.reps.data, q.reps.data)
        assert hom.dim == q.dim

    def test_dual_numbers_dims_match_periodic_resolution(self, dual2):
        expected = oracles.periodic_hh_dims_dual_numbers(dual2.field)
        for m in range(5):
            assert hh_cohomology(dual2, m).dim == expected(m)
            assert hh_homology(dual2, m).dim == expected(m)

    @pytest.mark.parametrize(
        "fixture,dims",
        [
            # char p divides the truncation order: constant dimension
            ("trunc4_2", [4, 4, 4]),
            ("c4", [4, 4, 4]),
            ("trunc3_3", [3, 3, 3]),
            ("c8", [8, 8, 8]),
            # char p does not divide it: drops to N - 1 in higher degrees
            ("trunc4_3", [4, 3, 3]),
            # one nilpotent block and one separable block
            ("s3_2", [3, 2, 2]),
            # separable: nothing above degree 0
            ("m2k", [1, 0, 0]),
            ("klein", [4, 8]),
            ("uv", [4, 8]),
            ("dual4", [2, 2, 2]),
            ("c9_3", [9, 9]),
        ],
    )
    def test_frozen_dimension_tables(self, request, fixture, dims):
        a = request.getfixturevalue(fixture)
        for m, want in enumerate(dims):
            assert hh_cohomology(a, m).dim == want, f"HH^{m}"
            assert hh_homology(a, m).dim == want, f"HH_{m}"

    def test_degree_one_cocycles_are_derivations(self, s3_2):
        a = s3_2
        f = a.field
        rng = np.random.default_rng(12)
        for fc in hh_cohomology(a, 1).cochains():
            for _ in range(4):
                x, y = rand_codes(rng, f, a.dim), rand_codes(rng, f, a.dim)
                lhs = fc.apply(a.multiply(x, y))
                rhs = f.vadd(a.multiply(x, fc.apply(y)), a.multiply(fc.apply(x), y))
                assert np.array_equal(lhs, rhs)

    def test_inner_derivations_are_trivial_classes(self, s3_2):
        a = s3_2
        rng = np.random.default_rng(13)
        coh = hh_cohomology(a, 1)
        for _ in range(4):
            x = rand_codes(rng, a.field, a.dim)
            inner = coboundary(Cochain(a, 0, Mat(a.field, x.reshape(-1, 1))))
            assert inner.is_cocycle()
            assert not coh.class_coords(inner.flat()).any()

    def test_class_coords_roundtrip(self, trunc4_3):
        a = trunc4_3
        f = a.field
        rng = np.random.default_rng(14)
        coh = hh_cohomology(a, 1)
        for _ in range(5):
            coeffs = rand_codes(rng, f, coh.dim)
            vec = f.matmul(coeffs.reshape(1, -1), coh.reps.data).reshape(-1)
            # shifting by a coboundary must not change the class
            shift = coboundary(rand_cochain(rng, a, 0)).flat()
            assert np.array_equal(coh.class_coords(f.vadd(vec, shift)), coeffs)

    def test_class_coords_of_a_stack(self, trunc4_3, dual2):
        a = trunc4_3
        f = a.field
        rng = np.random.default_rng(15)
        coh = hh_cohomology(a, 1)
        coeffs = rand_codes(rng, f, (6, coh.dim))
        rows = f.matmul(coeffs, coh.reps.data)
        rows = np.stack([f.vadd(r, coboundary(rand_cochain(rng, a, 0)).flat()) for r in rows])
        got = coh.class_coords(rows)
        assert got.shape == coeffs.shape and np.array_equal(got, coeffs)
        assert [coh.class_coords(r).tolist() for r in rows] == got.tolist()
        assert coh.class_coords(rows[:0]).shape == (0, coh.dim)
        # one row that is not a cocycle fails the stack, with the same text:
        # f(x) = 1 and f(x^2) = 0 vanishes on the unit, but is no derivation
        bad = np.zeros((2, a.dim * a.dim), dtype=np.int8)
        bad[1, 1] = 1
        with pytest.raises(DerinvError, match="not a cocycle in degree 1"):
            coh.class_coords(bad)

    @pytest.mark.parametrize("fixture,m", [("trunc4_3", 2), ("s3_2", 2), ("dual4", 3)])
    def test_class_coords_needs_normalized_cochains(self, request, fixture, m):
        # rep + delta g keeps the class of rep when g vanishes on the unit;
        # with g(1, ..) != 0, rep + delta g is a cocycle that does not vanish
        # on the unit, and class_coords refuses it
        a = request.getfixturevalue(fixture)
        f, d = a.field, a.dim
        rng = np.random.default_rng(31)
        coh = hh_cohomology(a, m)
        coeffs = rand_codes(rng, f, coh.dim)
        rep = Cochain.from_flat(a, m, f.matmul(coeffs.reshape(1, -1), coh.reps.data))
        g = oracles.oracle_normalized_cochain(a, m - 1, rand_codes(rng, f, (d, (d - 1) ** (m - 1))))
        assert np.array_equal(coh.class_coords((rep + coboundary(g)).flat()), coeffs)
        codes = rand_codes(rng, f, (d, d ** (m - 1)))
        codes[0, 0] = 1  # g(e_0, .., e_0) = e_0 + .., and e_0 = 1 here
        moved = rep + coboundary(Cochain(a, m - 1, Mat(f, codes)))
        assert moved.is_cocycle()
        with pytest.raises(DerinvError, match="not normalized in degree"):
            coh.class_coords(moved.flat())

    def test_class_coords_rejects_non_cocycle(self, dual2):
        coh = hh_cohomology(dual2, 1)
        # x -> 1 on both basis vectors is not a derivation of k[x]/(x^2)
        bad = np.array([1, 0, 1, 0], dtype=np.int8)
        delta = coboundary_matrix(dual2, 1)
        assert delta.mul_vec(bad).any()
        with pytest.raises(DerinvError):
            coh.class_coords(bad)

    def test_chain_classes_do_not_lift_to_cochains(self, dual2):
        hom = hh_homology(dual2, 1)
        with pytest.raises(DerinvError):
            hom.cochain(0)

    def test_dimensions_invariant_under_basis_change(self, c4):
        from derinv.algebras import change_basis

        f = c4.field
        rng = np.random.default_rng(15)
        while True:
            g = Mat(f, rand_codes(rng, f, (c4.dim, c4.dim)))
            if g.rank() == c4.dim:
                break
        b = change_basis(c4, g)
        for m in range(3):
            assert hh_cohomology(b, m).dim == hh_cohomology(c4, m).dim
            assert hh_homology(b, m).dim == hh_homology(c4, m).dim


FORM_CORPUS = [
    "k2", "dual2", "trunc4_2", "c2", "c4", "c8", "klein", "uv",
    "s3_2", "m2k", "c3_3", "c9_3", "trunc3_3", "dual4", "trunc4_3", "dual3",
]


def _assert_cohomology_matches_full_complex(a, m):
    """HH^m of the normalized complex against HH^m of the dense full coboundaries.

    The same dimension, and the representatives are cocycles that vanish
    on the unit and whose classes in the full complex, read by the
    oracle's basis, form an invertible matrix.
    """
    ours, dense = hh_cohomology(a, m), oracles.oracle_hh_cohomology(a, m)
    assert ours.dim == dense.dim, m
    for f in ours.cochains():
        assert f.is_cocycle(), m
    _assert_vanish_on_unit(a, m, ours.reps.data)
    classes = oracles.oracle_full_class_coords(dense, ours.reps.data)
    assert Mat(a.field, classes).rank() == ours.dim, m


def _assert_vanish_on_unit(a, m, reps):
    for i in range(m):
        # the unit in argument i + 1 of each d x d^m cochain
        slot = reps.reshape(-1, a.dim, a.dim**i, a.dim, a.dim ** (m - 1 - i))
        assert not a.field.matmul(slot.swapaxes(-1, -2), a.unit.reshape(-1, 1)).any(), m


def _assert_form_path_matches(a):
    assert a.form is not None
    cap = resolve_size_cap()
    for m in range(4):
        if a.dim ** (2 * m + 3) > cap:
            break
        _assert_cohomology_matches_full_complex(a, m)


@pytest.mark.parametrize("fixture", FORM_CORPUS)
def test_form_cohomology_matches_coboundary_path(request, fixture):
    """HH^m read off the homology eliminations equals HH^m from delta_m."""
    # a private copy, so the large bar matrices are freed after the test
    a = request.getfixturevalue(fixture)
    _assert_form_path_matches(algebra_from_json(algebra_to_json(a)))


@pytest.mark.parametrize("fixture", ["trunc3_3", "dual4", "s3_2"])
def test_form_cohomology_matches_coboundary_path_after_basis_change(request, fixture):
    # the corpus gram matrices are their own inverses; a random basis
    # change gives one that is not
    a = request.getfixturevalue(fixture)
    f, d = a.field, a.dim
    rng = np.random.default_rng(17)
    while True:
        g = Mat(f, rand_codes(rng, f, (d, d)))
        if g.rank() == d:
            break
    moved = change_basis(a, g)
    gram = moved.form.gram
    assert gram @ gram != Mat.identity(f, d)
    _assert_form_path_matches(moved)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["gf2_x2", "gf2_c2xc2", "gf3_x3", "gf3_x3_moved", "gf3_upper",
                             "gf5_x2", "gf4_x2", "gf9_x2"]),
       m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1), moved=st.booleans())
@example(name="gf3_upper", m=2, seed=0, moved=True)
@example(name="gf9_x2", m=3, seed=1, moved=True)
def test_coboundary_matrix_matches_term_by_term_assembly(insertion_corpus, name, m, seed, moved):
    # delta_m read off b_{m+1} with DA coefficients, against the sum of
    # the terms of delta, in the natural basis or a random one
    a = insertion_corpus[name]
    if a.dim ** (2 * m + 3) > 2**20:
        return
    if moved:
        rng = np.random.default_rng(seed)
        while True:
            g = Mat(a.field, rand_codes(rng, a.field, (a.dim, a.dim)))
            if g.rank() == a.dim:
                break
        a = change_basis(a, g)
    assert coboundary_matrix.__wrapped__(a, m) == oracles.oracle_coboundary_terms(a, m)


@pytest.mark.parametrize("name", ["gf3_upper2", "gf2_upper3", "gf3_upper3", "gf4_upper2",
                                  "gf9_upper2_moved", "gf3_square_zero"])
def test_formless_cohomology_matches_dense_oracle(formless_corpus, name):
    a = algebra_from_json(algebra_to_json(formless_corpus[name]))
    for m in range(4):
        _assert_cohomology_matches_full_complex(a, m)
    assert not [key for key in a._cache if key[0] == "coboundary_matrix"]


def test_formless_cohomology_builds_no_dense_coboundary(formless_corpus):
    # the dense delta_3 of the upper triangular 3 x 3 matrices over GF(3)
    # has 7776 x 1296 entries; eliminating it peaked at 30.9 MiB
    a = algebra_from_json(algebra_to_json(formless_corpus["gf3_upper3"]))
    tracemalloc.start()
    try:
        hh_cohomology(a, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def _assert_homology_matches_oracle(a, degrees):
    # the same dimension as HH_m of the dense full bar matrices; the
    # projection to the normalized complex carries the oracle's classes
    # to an invertible matrix of ours, and the pairing of our HH^m
    # representatives with the oracle's cycles is gram @ that matrix^T
    for m in degrees:
        ours, dense = hh_homology(a, m), oracles.oracle_hh_homology(a, m)
        assert ours.dim == dense.dim, m
        coords = ours.class_coords(dense.reps.data)
        assert Mat(a.field, coords).rank() == ours.dim, m
        pairs = _pairing_matrix(a, hh_cohomology(a, m).reps.data, dense.reps.data)
        want = a.field.matmul(pairing_gram(a, m).data, coords.T)
        assert np.array_equal(pairs, want), m


@pytest.mark.parametrize("fixture", FORM_CORPUS)
def test_homology_matches_dense_oracle(request, fixture):
    """HH_m from the blocks of b_m equals HH_m from the dense bar matrices."""
    a = algebra_from_json(algebra_to_json(request.getfixturevalue(fixture)))
    cap = resolve_size_cap()
    _assert_homology_matches_oracle(a, [m for m in range(4) if a.dim ** (2 * m + 3) <= cap])


@pytest.mark.parametrize("fixture", ["c3_3", "trunc3_3"])
def test_homology_matches_dense_oracle_in_degree_six(request, fixture):
    a = algebra_from_json(algebra_to_json(request.getfixturevalue(fixture)))
    _assert_homology_matches_oracle(a, [6])


def test_homology_matches_dense_oracle_after_basis_change(trunc4_3):
    # a random basis joins the total degrees of k[x]/(x^4) into one block
    f, d = trunc4_3.field, trunc4_3.dim
    rng = np.random.default_rng(23)
    while True:
        g = Mat(f, rand_codes(rng, f, (d, d)))
        if g.rank() == d:
            break
    _assert_homology_matches_oracle(change_basis(trunc4_3, g), range(4))


def _moved(a, seed):
    rng = np.random.default_rng(seed)
    while True:
        g = Mat(a.field, rand_codes(rng, a.field, (a.dim, a.dim)))
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


# the dense product bbar_m bbar_{m+1} above this many multiply-adds is
# left to the B inside Z check of hh_homology(m): only GF(2)[C8] in
# degree 3, 2 * 10^10 of them
_PRODUCT_BUDGET = 2**30


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_normalized_complex_is_a_quotient_of_the_bar_complex(chain_map_corpus, seed):
    """pi b_m = bbar_m pi and bbar_m bbar_{m+1} = 0 for m <= 3 within the cap.

    pi is the identity on A x .. and the projection p of oracle_unit_projection
    on every later factor; bbar_m is the normalized boundary that hh_homology
    eliminates.  M_2(A) is in the corpus: its unit is no basis vector.
    """
    cap = resolve_size_cap()
    for name, a in chain_map_corpus.items():
        a = a if seed is None else _moved(a, seed)
        f, d = a.field, a.dim
        s = d - 1

        def bar(m):
            return _dense(f, *_boundary_map(a, m)).data

        for m in range(1, 4):
            if d ** (2 * m + 3) > cap:
                break
            full = boundary_matrix.__wrapped__(a, m).data
            lhs = f.matmul(oracles.oracle_projection_power(a, m - 1),
                           full.reshape(d, d ** (m - 1), d ** (m + 1)))
            rows = d * s ** (m - 1)
            rhs = f.matmul(bar(m).reshape(rows, d, s**m), oracles.oracle_projection_power(a, m))
            n = d ** (m + 1)
            assert np.array_equal(lhs.reshape(rows, n), rhs.reshape(rows, n)), (name, m)
            if rows * d * s**m * d * s ** (m + 1) <= _PRODUCT_BUDGET:
                assert not f.matmul(bar(m), bar(m + 1)).any(), (name, m)
            else:
                hh_homology(algebra_from_json(algebra_to_json(a)), m)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_normalized_dimensions_match_full_complex(chain_map_corpus, seed):
    """Every HH_m and HH^m within the cap that a default signature reads
    (m <= 4), and hh_dim(m), has the dimension of the dense full complex
    on the perfbench corpus, and every HH^m representative is a cocycle
    that vanishes when an argument is the unit."""
    cap = resolve_size_cap()
    for name, a in chain_map_corpus.items():
        if not name.startswith("corpus_"):
            continue
        a = algebra_from_json(algebra_to_json(a if seed is None else _moved(a, seed)))
        for m in range(5):
            if a.dim ** (2 * m + 3) > cap:
                break
            coh = hh_cohomology(a, m)
            dense = oracles.oracle_hh_homology(a, m).dim
            assert hh_homology(a, m).dim == hh_dim(a, m) == dense, (name, m)
            assert coh.dim == hh_dim(a, m) == oracles.oracle_hh_cohomology(a, m).dim, (name, m)
            assert all(f.is_cocycle() for f in coh.cochains()), (name, m)
            _assert_vanish_on_unit(a, m, coh.reps.data)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_hh_dim_matches_bases_and_dense_oracle(chain_map_corpus, seed):
    """hh_dim(m), from two ranks, equals hh_homology(m).dim, hh_cohomology(m).dim
    with a form, and the dense full complex's HH_m, for every algebra
    fixture and m <= 4 within the cap.

    The perfbench corpus algebras, and the fixtures equal to one of
    them, are checked in test_normalized_dimensions_match_full_complex.
    """
    cap = resolve_size_cap()

    def key(a):
        return a.field.p, a.field.e, a.mult_tensor.tobytes(), a.unit.tobytes()

    seen = {key(a) for name, a in chain_map_corpus.items() if name.startswith("corpus_")}
    for name, a in chain_map_corpus.items():
        if key(a) in seen:
            continue
        seen.add(key(a))
        a = algebra_from_json(algebra_to_json(a if seed is None else _moved(a, seed)))
        for m in range(5):
            if a.dim ** (2 * m + 3) > cap:
                break
            dim = hh_dim(a, m)
            assert dim == hh_homology(a, m).dim, (name, m)
            if a.form is not None:
                assert dim == hh_cohomology(a, m).dim, (name, m)
            assert dim == oracles.oracle_hh_homology(a, m).dim, (name, m)


def test_hh_dim_keeps_the_cap_of_hh_homology(c8, set_cap):
    # the same refusal as hh_homology, on a cold cache and a warm one
    a = algebra_from_json(algebra_to_json(c8))
    set_cap(8**7)
    assert hh_dim(a, 2) == hh_homology(a, 2).dim == 8
    for _ in range(2):
        for fn in (hh_dim, hh_homology):
            with pytest.raises(SizeCapExceeded, match=r"^boundary matrix b_4 needs 134217728 "):
                fn(a, 3)
        set_cap(None)
        assert hh_dim(a, 3) == 8
        set_cap(8**7)


def test_signature_builds_no_class_basis_it_does_not_read(trunc4_3):
    # for odd p no default signature entry reads a basis of HH_2, HH^2,
    # HH_3 or HH^3: their dimensions are ranks of the boundary images
    a = _moved(trunc4_3, 1)
    sig = compute_signature(a)
    assert sig.entries["dim_hh_homology_3"] == sig.entries["dim_hh_cohomology_3"] == 3
    built = {k for k in a._cache if k[0] in ("hh_homology", "hh_cohomology") and k[1] in (2, 3)}
    assert not built


def _with_homology_reps(a, m, reps):
    """A fresh copy of a whose cached hh_homology(m) has the given (normalized) reps."""
    b = algebra_from_json(algebra_to_json(a))
    hom = hh_homology(b, m)
    moved = _in_full_coordinates(replace(hom, reps=Mat(b.field, reps)))
    b._cache[("hh_homology", m)] = replace(hom, reps=moved.reps)
    return b


def _normalized_reps(hom):
    return hom.cycles.basis.data[np.searchsorted(hom.cycles.pivots(), hom.rep_pivots)]


def test_pairing_gram_refuses_a_degenerate_pairing(trunc4_3):
    # a homology class replaced by a boundary pairs to zero with every
    # cocycle; a homology class dropped leaves HH^1 one class too many
    hom = hh_homology(trunc4_3, 1)
    reps = _normalized_reps(hom)
    assert hom.dim > 1 and hom.boundaries.dim
    boundary = reps.copy()
    boundary[0] = hom.boundaries.basis.data[0]
    with pytest.raises(DegeneratePairing, match="degree 1 pairing matrix is singular"):
        pairing_gram(_with_homology_reps(trunc4_3, 1, boundary), 1)
    with pytest.raises(DegeneratePairing,
                       match=f"HH\\^1 and HH_1 have different dimensions {hom.dim} vs {hom.dim - 1}"):
        pairing_gram(_with_homology_reps(trunc4_3, 1, reps[1:]), 1)
    assert pairing_gram(_with_homology_reps(trunc4_3, 1, reps), 1).rows == hom.dim


def test_quotient_checks_free_columns_of_boundaries(trunc3_3):
    f = trunc3_3.field
    cycles = Subspace.from_rows(f, [[1, 0, 2, 0], [0, 1, 1, 0]])
    inside = Subspace.from_rows(f, [[1, 2, 1, 0]])
    assert _quotient_basis(trunc3_3, 1, "homology", cycles, inside).rep_pivots == (1,)
    # pivot 0 is a cycle pivot, but column 2 needs a 1, not a 2
    outside = Subspace.from_rows(f, [[1, 2, 2, 0]])
    with pytest.raises(InvariantViolation):
        _quotient_basis(trunc3_3, 1, "homology", cycles, outside)


def _block_pair(f, rng, nblocks):
    """Cycle and boundary spaces, the cycles block diagonal over shuffled columns.

    Returns (cycles, boundaries, labels), labels naming each column's
    block; every cycle row lies in one block, and every boundary row is
    a combination of cycle rows, often of several blocks.
    """
    widths = rng.integers(1, 7, size=nblocks)
    n = int(widths.sum())
    perm = rng.permutation(n)
    names = rng.permutation(nblocks) * 7 + 3
    labels = np.empty(n, dtype=np.int64)
    z_rows = []
    start = 0
    for w, name in zip(widths, names):
        cols = np.sort(perm[start:start + w])
        start += w
        labels[cols] = name
        rows = np.zeros((int(rng.integers(1, w + 1)), n), dtype=np.int8)
        rows[:, cols] = rng.integers(0, f.q, size=(rows.shape[0], w))
        z_rows.append(rows)
    z = np.concatenate(z_rows)
    coeffs = rng.integers(0, f.q, size=(int(rng.integers(0, 2 * nblocks)), z.shape[0]))
    coeffs[rng.random(coeffs.shape) < 0.6] = 0
    cycles = Subspace.from_rows(f, z)
    boundaries = Subspace.from_rows(f, f.matmul(coeffs.astype(np.int8), z))
    return cycles, boundaries, labels


def _mutated(boundaries, row, col, value):
    data = boundaries.basis.data.copy()
    data[row, col] = value
    return Subspace(boundaries.field, boundaries.ambient_dim, Mat(boundaries.field, data))


@given(st.sampled_from([GF(2), GF(3), GF(2, 2)]), st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_quotient_check_by_components_matches_dense_product(f, seed, nblocks):
    # B inside Z, checked one block at a time with boundary rows that cross
    # blocks, against the dense product; then two mutations of a boundary
    # row past its pivot: a wrong entry at a free cycle column in a later
    # block, which must fail, and an entry set in another block, which
    # must fail exactly when the dense product says B leaves Z
    a = make_truncated_polynomial(f, 1)
    rng = np.random.default_rng(seed)
    cycles, boundaries, labels = _block_pair(f, rng, nblocks)
    assert oracles.oracle_boundaries_inside(f, cycles, boundaries)
    by_parts = _quotient_basis(a, 1, "homology", cycles, boundaries, labels)
    dense = _quotient_basis(a, 1, "homology", cycles, boundaries)
    assert by_parts.reps == dense.reps and by_parts.rep_pivots == dense.rep_pivots

    piv_z, piv_b = set(cycles.pivots().tolist()), boundaries.pivots().tolist()
    first = labels.min()
    wrong = [(i, c, f.add(int(boundaries.basis.data[i, c]), 1))
             for i, p in enumerate(piv_b) for c in range(p + 1, labels.size)
             if labels[c] != first and c not in piv_z]
    leak = [(i, c, 1) for i, p in enumerate(piv_b) for c in range(p + 1, labels.size)
            if labels[c] != labels[p] and c not in piv_b]
    for name, cases in (("wrong", wrong), ("leak", leak)):
        if not cases:
            continue
        bad = _mutated(boundaries, *cases[int(rng.integers(len(cases)))])
        if oracles.oracle_boundaries_inside(f, cycles, bad):
            assert name == "leak"
            _quotient_basis(a, 1, "homology", cycles, bad, labels)
        else:
            with pytest.raises(InvariantViolation, match="boundary space not inside cycle space"):
                _quotient_basis(a, 1, "homology", cycles, bad, labels)


@pytest.mark.parametrize("fixture", FORM_CORPUS)
def test_cohomology_is_the_dual_of_homology(request, fixture):
    """Z^m = Phi^-1 (B_m)^perp and B^m = Phi^-1 (Z_m)^perp, Phi = G x I.

    delta_m = Phi_{m+1}^-1 b_{m+1}^T Phi_m, so the cocycles and
    coboundaries from the blocks of delta are the dense transports of
    the annihilators of the boundaries and cycles of hh_homology(m).
    """
    a = algebra_from_json(algebra_to_json(request.getfixturevalue(fixture)))
    cap = resolve_size_cap()
    for m in range(4):
        if a.dim ** (2 * m + 3) > cap:
            break
        hom, coh = hh_homology(a, m), hh_cohomology(a, m)
        assert coh.cycles == oracles.oracle_transported_perp(a, hom.boundaries), m
        assert coh.boundaries == oracles.oracle_transported_perp(a, hom.cycles), m


@pytest.mark.parametrize("fixture, seed", [("c4", None), ("trunc4_3", None), ("trunc4_3", 5)])
def test_cohomology_reads_no_homology(request, fixture, seed, monkeypatch):
    # one path for every algebra: a symmetrizing form does not route HH^m
    # through HH_m, in the natural basis or a random one
    a = request.getfixturevalue(fixture)
    a = algebra_from_json(algebra_to_json(a)) if seed is None else _moved(a, seed)
    assert a.form is not None
    calls = []
    monkeypatch.setattr(hochschild, "hh_homology", lambda *args: calls.append(args))
    cap = resolve_size_cap()
    for m in range(4):
        if a.dim ** (2 * m + 3) > cap:
            break
        assert hh_cohomology(a, m).dim == hh_dim(a, m), m
    assert m and not calls
    assert not [k for k in a._cache if k[0] == "hh_homology"]


def test_cohomology_peak_memory(c8):
    # cold HH^3 of GF(2)[C8] from the blocks of delta peaked at 8.1 MiB;
    # transporting it from HH_3 peaked at 21.7 MiB
    a = algebra_from_json(algebra_to_json(c8))
    tracemalloc.start()
    try:
        hh_cohomology(a, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("fixture, m", [("c8", 3), ("trunc4_3", 5), ("uv", 5)])
def test_homology_rows_lie_in_their_components(request, fixture, m, monkeypatch):
    # every cycle row, on both sides, is supported on the component of
    # its pivot, and the degree splits into several; the components are
    # the labels _homology hands to _quotient_basis.  Boundary rows may
    # cross them, and lie in the cycles by the dense product
    a = algebra_from_json(algebra_to_json(request.getfixturevalue(fixture)))
    seen = []

    def spy(*args, **kwargs):
        seen.append(args[5] if len(args) > 5 else kwargs["labels"])
        return _quotient_basis(*args, **kwargs)

    monkeypatch.setattr(hochschild, "_quotient_basis", spy)
    for fn in (hh_homology, hh_cohomology):
        basis = fn(a, m)
        labels = seen.pop()
        assert not seen and labels is not None and np.unique(labels).size > 1
        rows, cols = np.nonzero(basis.cycles.basis.data)
        assert np.array_equal(labels[cols], labels[basis.cycles.pivots()[rows]])
        assert oracles.oracle_boundaries_inside(a.field, basis.cycles, basis.boundaries)


def test_homology_builds_no_dense_bar_matrix(c8):
    # the dense b_3 and b_4 of GF(2)[C8] take 2 MiB and 128 MiB, and the
    # dense path peaked at 626 MiB on this call
    a = algebra_from_json(algebra_to_json(c8))
    tracemalloc.start()
    try:
        hh_homology(a, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not [k for k in a._cache if k[0] == "boundary_matrix"]
    assert peak < 256 * 2**20


def test_homology_check_copies_only_bin_columns(c8):
    # cold HH_3 of GF(2)[C8] peaked at 21.9 MiB when the B in Z check
    # copied whole cycle and boundary rows of each bin and the pivots and
    # row counts read a nonzero mask of all of Z and B; 18.6 MiB after
    a = algebra_from_json(algebra_to_json(c8))
    tracemalloc.start()
    try:
        hh_homology(a, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_homology_peak_bounded_by_matmul_row_panels(c8):
    # the B in Z check of degree 3 multiplies 3640 boundary rows by the
    # 3648 cycle pivots; one float64 copy of that left operand is 106 MB
    a = algebra_from_json(algebra_to_json(c8))
    tracemalloc.start()
    try:
        hh_homology(a, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


class TestPairing:
    FIXTURES = ["dual2", "trunc4_2", "trunc3_3", "trunc4_3", "klein", "s3_2", "dual4", "c4"]

    @pytest.mark.parametrize("fixture", FIXTURES)
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_gram_is_square_and_invertible(self, request, fixture, m):
        a = request.getfixturevalue(fixture)
        g = pairing_gram(a, m)
        assert g.rows == g.cols == hh_cohomology(a, m).dim
        if g.rows:
            assert g.rank() == g.rows

    def test_separable_algebra_has_empty_gram_above_zero(self, m2k):
        g = pairing_gram(m2k, 1)
        assert g.rows == g.cols == 0

    @pytest.mark.parametrize("fixture", ["dual2", "trunc3_3", "klein", "s3_2", "dual4"])
    def test_degree_zero_gram_matches_quotient_pairing(self, request, fixture):
        a = request.getfixturevalue(fixture)
        q = quotient_mod_ka(a)
        assert np.array_equal(pairing_gram(a, 0).data, q.induced_gram.data)

    def test_pairing_formula(self, trunc3_3):
        a = trunc3_3
        f = a.field
        form = a.require_form()
        rng = np.random.default_rng(16)
        fc = rand_cochain(rng, a, 2)
        for _ in range(5):
            x, y, z = (rand_codes(rng, f, a.dim) for _ in range(3))
            chain = f.vmul(
                f.vmul(x[:, None, None], y[None, :, None]), z[None, None, :]
            ).reshape(-1)
            assert pairing(fc, chain) == form.pair(x, fc.apply(y, z))

    @pytest.mark.parametrize("fixture,m", [("trunc3_3", 1), ("dual4", 1), ("s3_2", 1)])
    def test_pairing_descends_to_classes(self, request, fixture, m):
        a = request.getfixturevalue(fixture)
        f = a.field
        rng = np.random.default_rng(17)
        coh = hh_cohomology(a, m)
        hom = hh_homology(a, m)
        fc = Cochain.from_flat(a, m, rand_cocycle(rng, coh))
        cyc = rand_cocycle(rng, hom)
        base = pairing(fc, cyc)
        # shift the chain by a boundary
        w = rand_codes(rng, f, a.dim ** (m + 2))
        shifted = f.vadd(cyc, boundary_matrix(a, m + 1).mul_vec(w))
        assert pairing(fc, shifted) == base
        # shift the cochain by a coboundary
        g = rand_cochain(rng, a, m - 1)
        fc2 = fc + coboundary(g)
        assert pairing(fc2, cyc) == base

    def test_pairing_is_bilinear(self, trunc3_3):
        a = trunc3_3
        f = a.field
        rng = np.random.default_rng(18)
        fc, gc = rand_cochain(rng, a, 1), rand_cochain(rng, a, 1)
        x = rand_codes(rng, f, a.dim**2)
        y = rand_codes(rng, f, a.dim**2)
        c = 2
        assert pairing(fc + gc.scale(c), x) == f.add(
            pairing(fc, x), f.mul(c, pairing(gc, x))
        )
        assert pairing(fc, f.vadd(x, f.vscale(c, y))) == f.add(
            pairing(fc, x), f.mul(c, pairing(fc, y))
        )

    def test_pairing_rejects_wrong_degree(self, dual2):
        rng = np.random.default_rng(19)
        fc = rand_cochain(rng, dual2, 1)
        with pytest.raises(DimensionMismatch):
            pairing(fc, np.zeros(2, dtype=np.int8))


class TestCup:
    def test_cup_is_pointwise_product(self, dual4):
        a = dual4
        f = a.field
        rng = np.random.default_rng(20)
        fc, gc = rand_cochain(rng, a, 1), rand_cochain(rng, a, 2)
        h = cup(fc, gc)
        assert h.arity == 3
        for _ in range(5):
            x, y, z = (rand_codes(rng, f, a.dim) for _ in range(3))
            want = a.multiply(fc.apply(x), gc.apply(y, z))
            assert np.array_equal(h.apply(x, y, z), want)

    def test_cup_associative_exactly(self, trunc3_3):
        a = trunc3_3
        rng = np.random.default_rng(21)
        fc, gc, hc = (rand_cochain(rng, a, 1) for _ in range(3))
        assert cup(cup(fc, gc), hc) == cup(fc, cup(gc, hc))

    def test_unit_cochain_is_identity(self, trunc3_3):
        a = trunc3_3
        rng = np.random.default_rng(22)
        fc = rand_cochain(rng, a, 2)
        one = Cochain(a, 0, Mat(a.field, a.unit.reshape(-1, 1)))
        assert cup(one, fc) == fc
        assert cup(fc, one) == fc

    def test_degree_zero_cup_is_algebra_product(self, s3_2):
        a = s3_2
        rng = np.random.default_rng(23)
        x, y = rand_codes(rng, a.field, a.dim), rand_codes(rng, a.field, a.dim)
        zx = Cochain(a, 0, Mat(a.field, x.reshape(-1, 1)))
        zy = Cochain(a, 0, Mat(a.field, y.reshape(-1, 1)))
        assert np.array_equal(cup(zx, zy).flat(), a.multiply(x, y))

    @pytest.mark.parametrize("fixture,m,n", [("dual2", 1, 1), ("trunc3_3", 1, 1), ("trunc3_3", 1, 2), ("trunc4_3", 2, 1)])
    def test_cup_coboundary_leibniz(self, request, fixture, m, n):
        # d(f cup g) = df cup g + (-1)^m f cup dg ties the sign conventions
        # of the coboundary and the cup product together
        a = request.getfixturevalue(fixture)
        f = a.field
        rng = np.random.default_rng(24)
        fc, gc = rand_cochain(rng, a, m), rand_cochain(rng, a, n)
        lhs = coboundary(cup(fc, gc))
        sign = 1 if m % 2 == 0 else f.neg(1)
        rhs = cup(coboundary(fc), gc) + cup(fc, coboundary(gc)).scale(sign)
        assert lhs == rhs

    @pytest.mark.parametrize("fixture", ["trunc3_3", "trunc4_3", "dual2", "klein"])
    def test_cup_graded_commutative_on_classes(self, request, fixture):
        a = request.getfixturevalue(fixture)
        f = a.field
        rng = np.random.default_rng(25)
        coh1 = hh_cohomology(a, 1)
        coh2 = hh_cohomology(a, 2)
        for _ in range(3):
            fc = Cochain.from_flat(a, 1, rand_cocycle(rng, coh1))
            gc = Cochain.from_flat(a, 1, rand_cocycle(rng, coh1))
            fg = coh2.class_coords(cup(fc, gc).flat())
            gf = coh2.class_coords(cup(gc, fc).flat())
            # degree 1 times degree 1: [f cup g] = -[g cup f]
            assert np.array_equal(fg, f.vneg(gf))

    def test_center_classes_commute_with_everything(self, trunc3_3):
        a = trunc3_3
        rng = np.random.default_rng(26)
        z = hh_cohomology(a, 0).cochain(0)
        coh1 = hh_cohomology(a, 1)
        fc = Cochain.from_flat(a, 1, rand_cocycle(rng, coh1))
        left = coh1.class_coords(cup(z, fc).flat())
        right = coh1.class_coords(cup(fc, z).flat())
        assert np.array_equal(left, right)

    def test_cup_power(self, trunc3_3):
        a = trunc3_3
        rng = np.random.default_rng(27)
        fc = rand_cochain(rng, a, 1)
        assert cup_power(fc, 1) == fc
        assert cup_power(fc, 3) == cup(cup(fc, fc), fc)
        with pytest.raises(ValueError):
            cup_power(fc, 0)

    def test_cup_respects_size_cap(self, c8, set_cap):
        rng = np.random.default_rng(28)
        fc = rand_cochain(rng, c8, 2)
        set_cap(100)
        with pytest.raises(SizeCapExceeded):
            cup(fc, fc)

    def test_cup_rejects_mixed_algebras(self, dual2, klein):
        rng = np.random.default_rng(29)
        fc = rand_cochain(rng, dual2, 1)
        gc = rand_cochain(rng, klein, 1)
        with pytest.raises(DimensionMismatch):
            cup(fc, gc)

    def test_cocycles_are_closed_under_cup(self, trunc4_3):
        a = trunc4_3
        rng = np.random.default_rng(30)
        coh1 = hh_cohomology(a, 1)
        fc = Cochain.from_flat(a, 1, rand_cocycle(rng, coh1))
        gc = Cochain.from_flat(a, 1, rand_cocycle(rng, coh1))
        assert cup(fc, gc).is_cocycle()


class TestCoboundaryByInsertion:
    """coboundary and is_cocycle as circle products with the multiplication."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["gf2_x2", "gf2_c2xc2", "gf3_x3", "gf3_x3_moved", "gf3_upper",
                                 "gf5_x2", "gf4_x2", "gf9_x2"]),
           m=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @example(name="gf3_upper", m=0, seed=1)
    @example(name="gf9_x2", m=3, seed=2)
    @example(name="gf3_x3_moved", m=2, seed=3)
    def test_matches_dense_oracle(self, insertion_corpus, name, m, seed):
        a = insertion_corpus[name]
        f = rand_cochain(np.random.default_rng(seed), a, m)
        want = oracles.oracle_coboundary(f)
        assert coboundary(f) == want
        assert f.is_cocycle() == (not want.matrix.data.any())
        assert want.is_cocycle()

    def test_builds_no_coboundary_matrix(self):
        a = make_truncated_polynomial(GF(3), 3)
        rng = np.random.default_rng(4)
        for m in range(4):
            f = rand_cochain(rng, a, m)
            coboundary(f)
            f.is_cocycle()
        assert not [key for key in a._cache if key[0] == "coboundary_matrix"]
