"""Signature aggregation, comparison verdicts, and strict serialization."""

import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

import oracles
from derinv.errors import DerinvError, Incomparable, MalformedDocument, SchemaVersionMismatch
from derinv.fields import GF
from derinv.algebras import (
    algebra_from_json,
    algebra_to_json,
    change_basis,
    cyclic_table,
    make_group_algebra,
    make_matrix_algebra,
    make_truncated_polynomial,
)
from derinv.higher import verify_properties
from derinv.hochschild import hh_cohomology
from derinv.linalg import Mat, Subspace
from derinv.signature import (
    SKIPPED_CAP,
    SKIPPED_PARITY,
    InvariantSignature,
    SignatureConfig,
    compare,
    compute_signature,
    derived_hh1_dim,
    parse_signature,
    serialize_signature,
    signature_from_json,
    signature_to_json,
    sigma_class_rank,
)

FAST = SignatureConfig(m_max=1, kappa_pairs=((0, 1), (0, 2)))


class TestConfig:
    def test_default_pairs_by_characteristic(self):
        cfg = SignatureConfig()
        assert cfg.resolved_pairs(2) == ((0, 1), (0, 2), (1, 1), (2, 1))
        assert cfg.resolved_pairs(3) == ((0, 1), (0, 2), (2, 1))

    def test_explicit_pairs_win(self):
        cfg = SignatureConfig(kappa_pairs=((1, 2),))
        assert cfg.resolved_pairs(2) == ((1, 2),)


class TestCompute:
    def test_base_field_degenerate_values(self, k2):
        sig = compute_signature(k2)
        e = sig.entries
        assert e["dim_a"] == e["dim_center"] == e["dim_a_mod_ka"] == 1
        assert e["stabilization_index"] == 1
        for n in (1, 2, 3):
            assert e[f"dim_t_{n}"] == 0 and e[f"dim_t_perp_{n}"] == 1
            assert e[f"dim_p_{n}"] == 1
        for m in (1, 2, 3):
            assert e[f"dim_hh_homology_{m}"] == 0
        assert e["dim_hh_homology_0"] == 1
        assert all(v in (0, 1) for v in e.values() if isinstance(v, int))

    def test_cyclic_four_frozen_values(self, c4):
        e = compute_signature(c4).entries
        assert [e[f"dim_t_perp_{n}"] for n in (1, 2, 3)] == [2, 1, 1]
        assert e["stabilization_index"] == 2

    def test_klein_frozen_values(self, klein):
        e = compute_signature(klein).entries
        assert [e[f"dim_t_perp_{n}"] for n in (1, 2, 3)] == [1, 1, 1]
        assert e["stabilization_index"] == 1

    def test_zeta_image_equals_t_perp(self, c4, klein, trunc3_3):
        for a in (c4, klein, trunc3_3):
            e = compute_signature(a, FAST).entries
            for n in (1, 2, 3):
                assert e[f"dim_im_zeta_{n}"] == e[f"dim_t_perp_{n}"]

    def test_rank_nullity_per_n(self, c4, trunc3_3):
        for a in (c4, trunc3_3):
            e = compute_signature(a, FAST).entries
            for n in (1, 2, 3):
                assert e[f"dim_im_kappa_{n}"] + e[f"dim_ker_kappa_{n}"] == e["dim_a_mod_ka"]

    def test_homology_cohomology_dims_agree(self, dual2, c4, s3_2):
        for a in (dual2, c4, s3_2):
            e = compute_signature(a).entries
            for m in range(4):
                assert e[f"dim_hh_homology_{m}"] == e[f"dim_hh_cohomology_{m}"]

    def test_higher_kappa_dimension_formula(self, dual2):
        e = compute_signature(dual2).entries
        for m, n in ((0, 1), (0, 2), (1, 1), (2, 1)):
            assert (
                e[f"dim_im_kappa_m{m}_n{n}"]
                == e[f"dim_hh_cohomology_{m}"] - e[f"dim_t_m{m}_n{n}"]
            )

    def test_deterministic_and_pure(self, c4):
        a = compute_signature(c4)
        b = compute_signature(c4)
        assert a == b
        assert serialize_signature(a) == serialize_signature(b)

    def test_form_required(self):
        from derinv.algebras import Algebra
        from derinv.errors import FormRequired

        bare = Algebra(GF(2), 2, make_truncated_polynomial(GF(2), 2).mult_tensor, [1, 0])
        with pytest.raises(FormRequired):
            compute_signature(bare)


class TestGerstenhaberBlock:
    def test_dual_numbers_sigma_rank_by_enumeration(self, dual2):
        # squares of the four degree-1 classes: 0, 0, D_x, D_1 + D_x span dim 2
        coh = hh_cohomology(dual2, 1)
        fld = dual2.field
        rows = []
        for c0 in range(2):
            for c1 in range(2):
                f = coh.cochain(0).scale(c0) + coh.cochain(1).scale(c1)
                sq = fld.matmul(f.matrix.data, f.matrix.data)
                rows.append(coh.class_coords(sq.reshape(-1)))
        want = Subspace.from_rows(fld, np.stack(rows)).dim
        e = compute_signature(dual2).entries
        assert e["sigma_rank_deg_1"] == want == 2
        assert e["dim_derived_hh1"] == 1

    def test_sigma_rank_vacuous(self, m2k):
        e = compute_signature(m2k, FAST).entries
        assert e["sigma_rank_deg_1"] == 0
        assert e["dim_derived_hh1"] == 0

    def test_sigma_rank_past_any_enumeration(self):
        # HH^1 of GF(3)[C3 x C3] has 3^18 classes, too many to enumerate;
        # the rank is an integer, and a change of basis keeps it
        i = np.arange(9)
        table = 3 * ((i[:, None] // 3 + i[None, :] // 3) % 3) + (i[:, None] + i[None, :]) % 3
        a = make_group_algebra(GF(3), table)
        assert hh_cohomology(a, 1).dim == 18
        rank = sigma_class_rank(a, 1)
        assert isinstance(rank, int) and 0 <= rank <= 18
        rng = np.random.default_rng(91)
        while True:
            g = Mat(a.field, rng.integers(0, 3, size=(9, 9)).astype(np.int8))
            if g.rank() == 9:
                break
        assert sigma_class_rank(change_basis(a, g), 1) == rank

    def test_parity_marker_for_even_degree_odd_p(self, trunc3_3):
        cfg = SignatureConfig(m_max=1, kappa_pairs=(), gerstenhaber_degrees=(1, 2))
        e = compute_signature(trunc3_3, cfg).entries
        assert isinstance(e["sigma_rank_deg_1"], int)
        assert e["sigma_rank_deg_2"] == SKIPPED_PARITY


    @pytest.mark.parametrize("fixture", ["dual2", "trunc3_3"])
    @pytest.mark.parametrize("deg", [0, -1])
    def test_sigma_degree_below_one_is_refused(self, request, fixture, deg, set_cap):
        # refused before the parity rule, the cap and any HH fetch, in
        # either characteristic: degree 0 once read HH^(1-p), or was
        # marked as a parity skip for odd p
        a = algebra_from_json(algebra_to_json(request.getfixturevalue(fixture)))
        set_cap(1)
        text = "restricted structure lives in degrees >= 1"
        with pytest.raises(ValueError, match=text):
            sigma_class_rank(a, deg)
        with pytest.raises(ValueError, match=text):
            compute_signature(a, SignatureConfig(gerstenhaber_degrees=(1, deg)))
        assert not a._cache


FIXTURES = ["k2", "dual2", "trunc4_2", "c2", "c4", "c8", "klein", "uv", "s3_2", "m2k",
            "c3_3", "c9_3", "trunc3_3", "dual4", "trunc4_3", "dual3"]
EXTRA = ["gf3_x3_moved", "gf3_upper", "gf5_x2", "gf9_x2"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DerinvError as exc:
        return type(exc).__name__, str(exc)


class TestSigmaRankMatchesEnumeration:
    """sigma_class_rank and derived_hh1_dim against the per-class oracles."""

    @staticmethod
    def _algebra(request, name):
        if name in EXTRA:
            return request.getfixturevalue("insertion_corpus")[name]
        return request.getfixturevalue(name)

    @staticmethod
    def _limits(algebra):
        # the class groups the oracle enumerates quickly; odd p degree 3
        # needs HH^7
        if algebra.field.p > 2:
            return {1: 2**8}
        return {1: 2**20, 2: 2**16, 3: 2**12}

    @staticmethod
    def _agrees(a, m, got, want):
        # past its limit the oracle gives no value, only a marker
        if want == "skipped: enumeration":
            t = a.field.p * (m - 1) + 1
            return isinstance(got, int) and 0 <= got <= hh_cohomology(a, t).dim
        return got == want

    @pytest.mark.parametrize("name", FIXTURES + EXTRA)
    def test_ranks(self, request, name):
        a = self._algebra(request, name)
        for m, limit in self._limits(a).items():
            want = _outcome(oracles.oracle_sigma_class_rank, a, m, limit)
            assert self._agrees(a, m, _outcome(sigma_class_rank, a, m), want), m
        assert _outcome(derived_hh1_dim, a) == _outcome(oracles.oracle_derived_hh1_dim, a)

    @pytest.mark.parametrize("name", FIXTURES + EXTRA)
    @pytest.mark.parametrize("cap", [2**8, 2**12])
    def test_cap_messages_cold_and_warm(self, request, name, cap, set_cap):
        a = self._algebra(request, name)
        for m, limit in self._limits(a).items():
            fresh = algebra_from_json(algebra_to_json(a))
            set_cap(cap)
            cold = [_outcome(oracles.oracle_sigma_class_rank, fresh, m, limit),
                    _outcome(sigma_class_rank, fresh, m)]
            set_cap(None)
            _outcome(sigma_class_rank, a, m)
            set_cap(cap)
            warm = [_outcome(oracles.oracle_sigma_class_rank, a, m, limit),
                    _outcome(sigma_class_rank, a, m)]
            assert cold == warm
            set_cap(None)
            assert self._agrees(a, m, cold[1], cold[0]), m
        set_cap(cap)
        hh1 = (oracles.oracle_derived_hh1_dim, derived_hh1_dim)
        cold = [_outcome(fn, algebra_from_json(algebra_to_json(a))) for fn in hh1]
        warm = [_outcome(fn, a) for fn in hh1]
        assert cold[1] == cold[0] == warm[0] == warm[1]

    @pytest.mark.parametrize("build", [
        lambda: make_group_algebra(GF(5), cyclic_table(5)),
        lambda: make_truncated_polynomial(GF(5), 3),
        lambda: make_truncated_polynomial(GF(3, 2), 3),
    ], ids=["gf5_c5", "gf5_x3", "gf9_x3"])
    def test_odd_characteristic_past_the_fixture_limit(self, build):
        a = build()
        want = oracles.oracle_sigma_class_rank(a, 1, 2**12)
        assert isinstance(want, int)
        assert sigma_class_rank(a, 1) == want


class TestSkippedMarkers:
    def test_cap_markers_and_exclusion(self, c4, set_cap):
        full = compute_signature(c4)
        set_cap(200)
        capped = compute_signature(c4)
        e = capped.entries
        assert e["dim_hh_homology_3"] == SKIPPED_CAP
        assert e["dim_hh_cohomology_2"] == SKIPPED_CAP
        assert e["dim_t_perp_1"] == 2
        skipped = [k for k, v in e.items() if isinstance(v, str)]
        assert all(k not in capped.shared_keys() for k in skipped)
        # skipped entries never poison a comparison
        assert compare(full, capped)["verdict"] == "INCONCLUSIVE"

    def test_degree_zero_survives_tiny_cap(self, klein, set_cap):
        set_cap(300)
        e = compute_signature(klein).entries
        assert e["stabilization_index"] == 1
        assert [e[f"dim_t_perp_{n}"] for n in (1, 2, 3)] == [1, 1, 1]


class TestCompare:
    def test_self_is_inconclusive(self, c4):
        sig = compute_signature(c4)
        rep = compare(sig, sig)
        assert rep["verdict"] == "INCONCLUSIVE"
        assert rep["differences"] == []
        assert rep["shared_entries"] > 30

    def test_flagship_pair_distinguished(self, c4, klein):
        rep = compare(compute_signature(c4), compute_signature(klein))
        assert rep["verdict"] == "DISTINGUISHED"
        diffs = {d["key"]: (d["a"], d["b"]) for d in rep["differences"]}
        assert diffs["dim_t_perp_1"] == (2, 1)
        assert diffs["stabilization_index"] == (2, 1)

    def test_verdict_symmetric(self, c4, klein):
        sa, sb = compute_signature(c4), compute_signature(klein)
        fwd, bwd = compare(sa, sb), compare(sb, sa)
        assert fwd["verdict"] == bwd["verdict"] == "DISTINGUISHED"
        fk = {d["key"]: (d["a"], d["b"]) for d in fwd["differences"]}
        bk = {d["key"]: (d["b"], d["a"]) for d in bwd["differences"]}
        assert fk == bk

    def test_different_fields_incomparable(self, dual2, dual3, dual4):
        s2 = compute_signature(dual2, FAST)
        s3 = compute_signature(dual3, FAST)
        s4 = compute_signature(dual4, FAST)
        with pytest.raises(Incomparable):
            compare(s2, s3)
        with pytest.raises(Incomparable):
            compare(s2, s4)

    def test_ambient_dimension_is_not_an_invariant(self, dual2):
        # the matrix algebra doubles dim A; verdict must stay INCONCLUSIVE
        sig_a = compute_signature(dual2, FAST)
        sig_m = compute_signature(make_matrix_algebra(dual2, 2), FAST)
        assert sig_a.entries["dim_a"] != sig_m.entries["dim_a"]
        rep = compare(sig_a, sig_m)
        assert rep["verdict"] == "INCONCLUSIVE"
        assert all(d["key"] != "dim_a" for d in rep["differences"])

    def test_local_keys_outside_shared_set(self, c4):
        sig = compute_signature(c4, FAST)
        shared = sig.shared_keys()
        assert "dim_a" not in shared
        assert "dim_t_1" not in shared
        assert "dim_t_perp_1" in shared


class TestMoritaAndBasisChange:
    @pytest.mark.parametrize("name", ["dual2", "c4", "klein", "trunc3_3"])
    def test_matrix_algebra_inconclusive(self, request, name):
        a = request.getfixturevalue(name)
        pairs = ((0, 1), (0, 2), (1, 1)) if a.field.p == 2 else ((0, 1), (0, 2))
        cfg = SignatureConfig(m_max=2, kappa_pairs=pairs)
        rep = compare(
            compute_signature(a, cfg),
            compute_signature(make_matrix_algebra(a, 2), cfg),
        )
        assert rep["verdict"] == "INCONCLUSIVE"

    @pytest.mark.parametrize("name", ["c4", "trunc3_3", "dual4"])
    def test_basis_change_preserves_every_entry(self, request, name):
        a = request.getfixturevalue(name)
        base = compute_signature(a, FAST)
        rng = np.random.default_rng(77)
        for _ in range(5):
            while True:
                g = Mat(a.field, rng.integers(0, a.field.q, size=(a.dim, a.dim)).astype(np.int8))
                if g.rank() == a.dim:
                    break
            moved = compute_signature(change_basis(a, g), FAST)
            assert moved.entries == base.entries
            assert compare(base, moved)["verdict"] == "INCONCLUSIVE"


class TestSerialization:
    def test_round_trip(self, c4):
        sig = compute_signature(c4)
        assert parse_signature(serialize_signature(sig)) == sig

    def test_serialization_is_stable(self, klein):
        sig = compute_signature(klein, FAST)
        assert serialize_signature(sig) == serialize_signature(sig)
        doc = json.loads(serialize_signature(sig))
        assert doc["schema_version"] == 1
        assert doc["field"] == {"p": 2, "e": 1}
        assert isinstance(doc["gram_fingerprint"], str)

    def test_unknown_field_rejected(self, dual2):
        doc = signature_to_json(compute_signature(dual2, FAST))
        doc["comment"] = "hello"
        with pytest.raises(MalformedDocument):
            signature_from_json(doc)

    def test_missing_field_rejected(self, dual2):
        doc = signature_to_json(compute_signature(dual2, FAST))
        del doc["entries"]
        with pytest.raises(MalformedDocument):
            signature_from_json(doc)

    def test_version_mismatch(self, dual2):
        doc = signature_to_json(compute_signature(dual2, FAST))
        doc["schema_version"] = 2
        with pytest.raises(SchemaVersionMismatch):
            signature_from_json(doc)

    def test_non_integers_in_integer_slots(self, dual2):
        base = signature_to_json(compute_signature(dual2, FAST))
        for outer, key in ((None, "schema_version"), ("field", "p"), ("field", "e")):
            for bad in (True, [1], {}):
                doc = json.loads(json.dumps(base))
                (doc[outer] if outer else doc)[key] = bad
                with pytest.raises(MalformedDocument):
                    signature_from_json(doc)

    def test_malformed_entries(self, dual2):
        base = signature_to_json(compute_signature(dual2, FAST))
        for bad in (-1, True, 1.5, "oops", None, [1], {}):
            doc = json.loads(json.dumps(base))
            doc["entries"]["dim_center"] = bad
            with pytest.raises(MalformedDocument):
                signature_from_json(doc)

    def test_malformed_field_descriptor(self, dual2):
        base = signature_to_json(compute_signature(dual2, FAST))
        doc = json.loads(json.dumps(base))
        doc["field"] = {"p": 2}
        with pytest.raises(MalformedDocument):
            signature_from_json(doc)
        doc = json.loads(json.dumps(base))
        doc["field"] = {"p": 0, "e": 1}
        with pytest.raises(MalformedDocument):
            signature_from_json(doc)

    def test_invalid_json_text(self):
        with pytest.raises(MalformedDocument):
            parse_signature("{not json")
        with pytest.raises(MalformedDocument):
            parse_signature('["a", "list"]')

    def test_skip_markers_round_trip(self, c4, set_cap):
        set_cap(200)
        sig = compute_signature(c4)
        back = parse_signature(serialize_signature(sig))
        assert back == sig
        assert back.entries["dim_hh_homology_3"] == SKIPPED_CAP


def test_dropped_algebra_is_freed_without_the_collector():
    # cached results hold their algebra by weak reference, so the last
    # outside reference frees the algebra and its cache at once
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        for build in (lambda: make_group_algebra(GF(2), cyclic_table(4)),
                      lambda: make_truncated_polynomial(GF(3), 3)):
            a = build()
            compute_signature(a)
            # trunc3_3 skips its composition on the cap, through an exception
            assert verify_properties(a, 1, 1, 1)["all_passed"]
            refs.append(weakref.ref(a))
            del a
        assert [r() for r in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


# SHA-256 of serialize_signature(compute_signature(a)) at the default cap,
# for the perfbench corpus algebras in their natural bases; a change to
# any entry, marker or key of a signature document shows here
_FROZEN_SIGNATURES = {
    "gf2_c2xc2": "a7c1a55e10ae3dd1118b4940b3c0965d69a3f2bb264874198db6a1da52687eb9",
    "gf2_c4": "c1eb21f83b7c41be6c4b7292f41edd105aa879d67ab0b5fcee0bbfb035d3c408",
    "gf2_c8": "a2653058fe50153429d28733fb266cf866473d0cb604f46726c1398e5d66fad1",
    "gf2_m2": "65fc283a970f74b033af379e0964d18180bdf32dd759c064a4039db9a1fb1e9d",
    "gf2_s3": "49e34dab713ddd51743f6735ade913a473acfb9afb338b0c175d45f52cb34cb9",
    "gf2_triv_ext": "ec66db99506c62242dc75345832bd9d5f104e2ccf5757683458bc68199de03e4",
    "gf2_x1": "92aa8441ac43798e5eba7577990030b22bec728f0a631e984695ae1080453abf",
    "gf2_x2": "30c9a7679d5d83ee8e1db3b9271af16f334151ec96054b5654763185edfb3818",
    "gf2_x4": "83b56aab127c95c11f264448be9734157280dc409a80f6705225db22c1f7eac2",
    "gf3_c3": "bb2f7a81d53a23ffd86ebeb7743ebb7c78d7cd61893e5872bab0eafe7e95a522",
    "gf3_c9": "90390358ee53750a7601b933f1b1c23ce25da1194b38ca45ca6a80ac37e99fed",
    "gf3_m2": "19e42ac8706db21eff94f93ca6ba776efced48e569839ed5ca640a3f9cd89e37",
    "gf3_x1": "3b60cb3cb2df352032cb432bcf2fc387204776ea41e2019f30cb31d1ec9a23e8",
    "gf3_x2": "21a03d02b105e5b677d1bc543f2ce1899bc2308a3cd25e07aafc0c1cd6daa6f9",
    "gf3_x3": "a59a199f925f1a74f4db7193fbbac9f761be193fdcd9f71ef4b0d3430e32e673",
    "gf3_x4": "efa494c106ff509457b9f3d1c863f04709203e49020c362b7e2dedc291611ea2",
    "gf4_m2": "1922b554aae46fb490f5a8b9a92a122654006a30e76e2398969591d3d64e7594",
    "gf4_x1": "df54355cc59171018e02b78bd397938bed85fdedfb9ac36d37f736cdb7545734",
    "gf4_x2": "bc47b882159f6485ed0edbdef84790d2854570c35f2dd4b695785433a4b71a29",
}


def test_corpus_signature_documents_are_frozen(chain_map_corpus, set_cap):
    set_cap(None)
    got = {name.removeprefix("corpus_"):
           hashlib.sha256(serialize_signature(compute_signature(a)).encode()).hexdigest()
           for name, a in chain_map_corpus.items() if name.startswith("corpus_")}
    assert got == _FROZEN_SIGNATURES
