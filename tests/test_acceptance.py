"""End-to-end acceptance: one test per promised property, exact arithmetic only.

Every check asserts exact finite-field equalities (no tolerances).  The
numbered tests each print one PASS line with the measured evidence so a
verbose run reads as a checklist.  Criterion 10 records the boundary of
the suite: full derived-equivalence verification needs two-sided tilting
complexes and is replaced, deliberately, by criteria 1 through 9.
"""

import time

import numpy as np
import pytest

from derinv import cli
from derinv.algebras import (
    Algebra,
    change_basis,
    cyclic_table,
    klein_table,
    make_group_algebra,
    make_matrix_algebra,
    make_truncated_polynomial,
    save_algebra,
)
from derinv.errors import SizeCapExceeded
from derinv.fields import GF
from derinv.gerstenhaber import (
    COBOUNDARY_BRACKET_SIGN,
    bracket,
    build_dA,
    is_coderivation,
    restricted_axioms_check,
    sigma_p,
)
from derinv.higher import kappa_nm, verify_properties
from derinv.hochschild import (
    Cochain,
    boundary_matrix,
    coboundary,
    coboundary_matrix,
    hh_cohomology,
    hh_homology,
    multiplication_cochain,
    pairing_gram,
)
from derinv.kulshammer import (
    kappa_image,
    kappa_kernel,
    kappa_n,
    p_n_space,
    quotient_image,
    stabilization_index,
    t_n_center_space,
    t_n_space,
    zeta_image,
)
from derinv.linalg import Mat, Subspace, orthogonal_complement
from derinv.signature import SignatureConfig, compare, compute_signature

from oracles import coderivation_components, oracle_t_n, periodic_hh_dims_dual_numbers

CORPUS = [
    "k2", "dual2", "trunc4_2", "c2", "c4", "c8", "klein", "uv",
    "s3_2", "m2k", "c3_3", "c9_3", "trunc3_3", "dual4", "trunc4_3", "dual3",
]


@pytest.fixture
def corpus(request):
    return [(name, request.getfixturevalue(name)) for name in CORPUS]


def _report(num: int, detail: str) -> None:
    print(f"[criterion {num:2d}] PASS - {detail}")


def test_criterion_01_cyclic_four_vs_klein(tmp_path):
    t0 = time.perf_counter()
    a = make_group_algebra(GF(2), cyclic_table(4))
    b = make_group_algebra(GF(2), klein_table())
    sig_a, sig_b = compute_signature(a), compute_signature(b)
    rep = compare(sig_a, sig_b)
    elapsed = time.perf_counter() - t0

    assert (sig_a.entries["dim_t_perp_1"], sig_b.entries["dim_t_perp_1"]) == (2, 1)
    assert (sig_a.entries["stabilization_index"], sig_b.entries["stabilization_index"]) == (2, 1)
    # independent oracle: T_1 by exhausting all 16 elements of each algebra
    for alg, sig in ((a, sig_a), (b, sig_b)):
        t1 = oracle_t_n(alg, 1)
        assert sig.entries["dim_t_1"] == t1.dim
        assert sig.entries["dim_t_perp_1"] == alg.dim - t1.dim
    assert rep["verdict"] == "DISTINGUISHED"
    diffs = {d["key"] for d in rep["differences"]}
    assert {"dim_t_perp_1", "stabilization_index"} <= diffs

    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    save_algebra(a, fa)
    save_algebra(b, fb)
    assert cli.main(["compare", str(fa), str(fb)]) == 10

    assert elapsed < 1.0
    _report(1, f"DISTINGUISHED, exit 10, t_perp_1 2 vs 1, stab 2 vs 1, {elapsed:.2f}s")


def test_criterion_02_stabilization_equals_log_exponent():
    t0 = time.perf_counter()
    cases = [
        (make_group_algebra(GF(2), cyclic_table(2)), 1),
        (make_group_algebra(GF(2), cyclic_table(4)), 2),
        (make_group_algebra(GF(2), cyclic_table(8)), 3),
        (make_group_algebra(GF(2), klein_table()), 1),
        (make_group_algebra(GF(3), cyclic_table(3)), 1),
        (make_group_algebra(GF(3), cyclic_table(9)), 2),
    ]
    got = [stabilization_index(a) for a, _ in cases]
    assert got == [want for _, want in cases]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, f"indices {got} == log_p of group exponents, {elapsed:.2f}s")


def test_criterion_03_degree_zero_identities(corpus):
    checked = 0
    for name, a in corpus:
        gram = a.form.gram
        for n in (1, 2, 3):
            assert zeta_image(a, n) == orthogonal_complement(gram, t_n_space(a, n)), (name, n)
            t_z_perp = orthogonal_complement(gram, t_n_center_space(a, n))
            assert kappa_image(a, n) == quotient_image(a, t_z_perp), (name, n)
            p_perp = orthogonal_complement(gram, p_n_space(a, n))
            assert kappa_kernel(a, n) == quotient_image(a, p_perp), (name, n)
            checked += 1
    _report(3, f"im zeta/im kappa/ker kappa identities, {checked} (algebra, n) cases")


def _pairing_weights(a: Algebra, rows: np.ndarray, m: int) -> np.ndarray:
    """Row r -> weight vector of the cochain with flat matrix r."""
    f, d = a.field, a.dim
    gram = a.form.gram.data
    out = np.empty_like(rows)
    for i in range(rows.shape[0]):
        out[i] = f.matmul(gram, rows[i].reshape(d, d**m)).reshape(-1)
    return out


def test_criterion_04_pairing_sweep(corpus):
    t0 = time.perf_counter()
    swept = []
    for name, a in corpus:
        if a.dim > 6:
            continue
        f = a.field
        for m in range(4):
            coh, hom = hh_cohomology(a, m), hh_homology(a, m)
            assert coh.dim == hom.dim, (name, m)
            gram = pairing_gram(a, m)
            assert gram.rows == gram.cols == coh.dim
            assert gram.rank() == coh.dim, (name, m)

            cocycles = coboundary_matrix(a, m).kernel().data
            boundaries = boundary_matrix(a, m + 1).data.T.copy()
            if cocycles.shape[0] and boundaries.shape[0]:
                w = _pairing_weights(a, cocycles, m)
                assert not f.matmul(w, boundaries.T).any(), (name, m)
            if m >= 1:
                cycles = boundary_matrix(a, m).kernel().data
                cobound = coboundary_matrix(a, m - 1).data.T.copy()
                if cycles.shape[0] and cobound.shape[0]:
                    w = _pairing_weights(a, cobound, m)
                    assert not f.matmul(w, cycles.T).any(), (name, m)
        swept.append(name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, f"gram invertible + descent on {swept}, m <= 3, {elapsed:.1f}s")


def test_criterion_05_periodic_resolution_oracle():
    a = make_truncated_polynomial(GF(2), 2)
    oracle_dim = periodic_hh_dims_dual_numbers(a.field)
    got_hom = [hh_homology(a, m).dim for m in range(5)]
    got_coh = [hh_cohomology(a, m).dim for m in range(5)]
    want = [oracle_dim(m) for m in range(5)]
    assert got_hom == want == got_coh
    _report(5, f"bar dims {got_hom} match the 2-periodic resolution, m <= 4")


MNL_SMALL = [(0, 1, 1), (0, 2, 1)]


@pytest.mark.parametrize("mnl", MNL_SMALL, ids=lambda t: f"m{t[0]}n{t[1]}l{t[2]}")
def test_criterion_06_properties_degree_zero(corpus, mnl):
    m, n, ell = mnl
    for name, a in corpus:
        rep = verify_properties(a, m, n, ell)
        assert rep["skipped"] == [], (name, rep)
        assert rep["all_passed"], (name, rep)
    _report(6, f"verify_properties{mnl} on all {len(corpus)} corpus algebras")


@pytest.mark.parametrize(
    "fixture,mnl",
    [
        ("dual2", (1, 1, 1)),
        ("dual2", (2, 1, 1)),
        ("c4", (1, 1, 1)),
        ("c4", (2, 1, 1)),
    ],
)
def test_criterion_06_properties_positive_degree(request, fixture, mnl):
    a = request.getfixturevalue(fixture)
    m, n, ell = mnl
    rep = verify_properties(a, m, n, ell)
    if (fixture, mnl) == ("c4", (2, 1, 1)):
        # the composition check at (2,1,1) on a 4-dimensional algebra
        # factors through HH homology in degree 8: the boundary matrix
        # b_9 is dense with 4^19 = 2^38 entries (about 256 GiB), beyond
        # any feasible size cap.  The report marks that one check as
        # skipped and fully verifies the other four; the identity itself
        # is exercised at (2,1,1) on the 2-dimensional algebra above.
        assert rep["composition"] == "skipped: cap"
        assert rep["skipped"] == ["composition"]
        for key in (
            "semilinear_defining_relation",
            "image_is_orthogonal_of_t",
            "kernel_is_orthogonal_of_powers",
            "dimension_formula",
        ):
            assert rep[key] is True, (key, rep)
    else:
        assert rep["skipped"] == [], rep
        assert rep["composition"] is True, rep
    assert rep["all_passed"], rep
    detail = "partial: composition capped" if rep["skipped"] else "all checks"
    _report(6, f"verify_properties{mnl} on {fixture} ({detail})")


def test_criterion_07_higher_kappa_restricts_to_classical(corpus):
    for name, a in corpus:
        for n in (1, 2):
            kap = kappa_nm(a, 0, n)
            classical = kappa_n(a, n)
            assert kap.operator.matrix == classical.matrix, (name, n)
            assert kap.operator.twist == classical.twist, (name, n)
    _report(7, f"kappa_nm(., 0, n) == kappa_n entrywise, n <= 2, {len(corpus)} algebras")


def _rand_cochain(a: Algebra, m: int, seed: int) -> Cochain:
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, a.field.q, size=(a.dim, a.dim**m)).astype(np.int8)
    return Cochain(a, m, Mat(a.field, mat))


def test_criterion_08_gerstenhaber_bundle(corpus, dual2, trunc3_3, dual4):
    # d_A squares to zero on the whole corpus (checked inside build_dA)
    for name, a in corpus:
        build_dA(a, 4 if a.dim <= 6 else 3)

    # 50 random cochains extend to coderivations
    plans = [(dual2, m, 4) for m in range(4)] * 5  # 20
    plans += [(trunc3_3, m, 3) for m in range(3)] * 5  # 15
    plans += [(dual4, m, 3) for m in (1, 2)] * 7 + [(dual4, 0, 3)]  # 15
    assert len(plans) == 50
    for i, (a, m, extra) in enumerate(plans):
        f = _rand_cochain(a, m, 9000 + i)
        ok, witness = is_coderivation(a, m - 1, coderivation_components(f, m + extra))
        assert ok and witness is None, (a, m, i)

    # one global sign: [f, m_A] = -delta(f) in every arity and characteristic
    assert COBOUNDARY_BRACKET_SIGN == -1
    for a in (dual2, trunc3_3, dual4):
        for m in range(4):
            f = _rand_cochain(a, m, 9100 + m)
            lhs = bracket(f, multiplication_cochain(a))
            assert lhs == coboundary(f).scale(a.field.neg(1)), (a, m)

    # the restricted Lie algebra of HH^1 of the dual numbers, exactly
    coh = hh_cohomology(dual2, 1)
    d_one, d_x = coh.cochain(0), coh.cochain(1)
    assert np.array_equal(d_one.matrix.data, [[0, 1], [0, 0]])
    assert np.array_equal(d_x.matrix.data, [[0, 0], [0, 1]])
    lie = bracket(d_one, d_x)
    assert np.array_equal(coh.class_coords(lie.flat()), [1, 0])  # [D_1, D_x] = D_1
    sq_one = sigma_p(d_one)
    assert np.array_equal(coh.class_coords(sq_one.flat()), [0, 0])  # D_1^[2] = 0
    sq_x = sigma_p(d_x)
    assert np.array_equal(coh.class_coords(sq_x.flat()), [0, 1])  # D_x^[2] = D_x
    _report(8, "d_A^2 = 0, 50 coderivations, global sign -1, dual-numbers Lie table")


def test_criterion_08_restricted_axioms_across_corpus(corpus):
    # degree 1 everywhere; degree 2 additionally where the ad_p axiom fits
    # the size cap (its brackets land in HH^4, so dim^11 entries: d <= 5)
    checked = []
    for name, a in corpus:
        p = a.field.p
        degrees = (1, 2) if p == 2 and a.dim <= 5 else (1,)
        rep = restricted_axioms_check(a, degrees)
        assert rep["all_passed"], (name, rep)
        checked.append(name)
        if p > 2:
            even = restricted_axioms_check(a, (2,))
            assert "skipped" in even["degrees"][2]
    _report(8, f"restricted axioms (1)-(3) + 10-random-E stability on {len(checked)} algebras")


def _invariance_config(a: Algebra) -> SignatureConfig:
    pairs = ((0, 1), (0, 2), (1, 1)) if a.field.p == 2 else ((0, 1), (0, 2))
    return SignatureConfig(m_max=1, kappa_pairs=pairs)


def test_criterion_09_basis_change_invariance(corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xBA5E)
    for name, a in corpus:
        cfg = _invariance_config(a)
        base = compute_signature(a, cfg)
        for trial in range(20):
            while True:
                g = Mat(a.field, rng.integers(0, a.field.q, size=(a.dim, a.dim)).astype(np.int8))
                if g.rank() == a.dim:
                    break
            moved = compute_signature(change_basis(a, g), cfg)
            assert moved.entries == base.entries, (name, trial)
            assert compare(base, moved)["verdict"] == "INCONCLUSIVE", (name, trial)
    elapsed = time.perf_counter() - t0
    _report(9, f"20 random basis changes x {len(corpus)} algebras, {elapsed:.1f}s")


def test_criterion_09_matrix_algebra_inconclusive(corpus):
    t0 = time.perf_counter()
    for name, a in corpus:
        cfg = _invariance_config(a)
        rep = compare(
            compute_signature(a, cfg),
            compute_signature(make_matrix_algebra(a, 2), cfg),
        )
        assert rep["verdict"] == "INCONCLUSIVE", (name, rep)
        assert rep["shared_entries"] > 0, name
    elapsed = time.perf_counter() - t0
    _report(9, f"A vs M_2(A) INCONCLUSIVE on all {len(corpus)} corpus algebras, {elapsed:.1f}s")


def test_criterion_10_suite_boundary(dual2):
    # Full derived-equivalence verification needs a two-sided tilting
    # complex between the algebras; nothing in this package constructs
    # one, so equal signatures must never escalate to an equivalence
    # claim.  Criteria 1 through 9 are the substituted property suite.
    import derinv

    sig = compute_signature(dual2)
    rep = compare(sig, sig)
    assert rep["verdict"] == "INCONCLUSIVE"
    assert set(r["verdict"] for r in [rep]) <= {"INCONCLUSIVE", "DISTINGUISHED"}
    assert not any("tilting" in name.lower() for name in dir(derinv))
    _report(10, "verdict lattice is {DISTINGUISHED, INCONCLUSIVE}; no equivalence claims")
