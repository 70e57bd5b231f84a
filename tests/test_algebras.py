import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import derinv
from derinv import GF, Mat, cli
from derinv.algebras import (
    Algebra,
    SymmetrizingForm,
    algebra_from_json,
    algebra_to_json,
    change_basis,
    cyclic_table,
    klein_table,
    load_algebra,
    make_group_algebra,
    make_matrix_algebra,
    make_trivial_extension,
    make_truncated_polynomial,
    save_algebra,
    symmetric_table,
)
from derinv.errors import (
    DimensionMismatch,
    FormDegenerate,
    FormNotAssociative,
    FormNotSymmetric,
    FormRequired,
    MalformedDocument,
    NoUnit,
    NotAGroup,
    NotAssociative,
    SchemaVersionMismatch,
)
from oracles import (
    oracle_algebra,
    oracle_center,
    oracle_change_basis,
    oracle_commutator_space,
    oracle_group_algebra,
    oracle_matrix_algebra,
    oracle_trivial_extension,
    oracle_truncated_polynomial,
)


F2 = GF(2)
F3 = GF(3)


def rand_elt(rng, algebra):
    return algebra.field.varr(rng.integers(0, algebra.field.q, size=algebra.dim))


# -- validation witnesses --


class TestValidation:
    def test_not_associative_witness(self):
        t = klein_table()
        mult = {(i, j): {int(t[i, j]): 1} for i in range(4) for j in range(4)}
        mult[(1, 1)] = {3: 1}  # breaks (g1 g1) g3 = g0 vs g1 (g1 g3) = g3
        with pytest.raises(NotAssociative) as exc:
            oracle_algebra(F2, 4, mult, [1, 0, 0, 0])
        assert exc.value.args[1] in {(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 3, 1), (3, 1, 1), (1, 3, 3), (3, 1, 3), (3, 3, 1)}

    def test_wrong_unit(self):
        # dual numbers with the unit declared as x
        with pytest.raises(NoUnit):
            oracle_algebra(F2, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {}}, [0, 1])

    def test_no_unit_at_all(self):
        # x*y = 0 identically: no element acts as a unit
        with pytest.raises(NoUnit):
            Algebra(F2, 2, np.zeros((2, 2, 2), dtype=np.int8), [1, 0])

    def test_form_not_symmetric(self):
        a = make_truncated_polynomial(F3, 2)
        bad = Mat(F3, np.array([[0, 1], [2, 0]]))
        with pytest.raises(FormNotSymmetric):
            Algebra(F3, 2, a.mult_tensor, [1, 0], form=SymmetrizingForm(bad))
        assert a.form is not None

    def test_form_degenerate(self):
        bad = Mat(F2, np.array([[0, 0], [0, 1]]))
        with pytest.raises(FormDegenerate):
            oracle_algebra(F2, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, [1, 0],
                           form=SymmetrizingForm(bad))

    def test_form_not_associative(self):
        # identity gram on dual numbers: (x*x, 1) = 0 but (x, x*1) = 1
        bad = Mat(F2, np.eye(2, dtype=np.int8))
        with pytest.raises(FormNotAssociative) as exc:
            oracle_algebra(F2, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, [1, 0],
                           form=SymmetrizingForm(bad))
        assert len(exc.value.args[1]) == 3

    def test_form_required(self, m2k):
        a = Algebra(m2k.field, m2k.dim, np.asarray(m2k.mult_tensor), m2k.unit)
        assert a.form is None
        with pytest.raises(FormRequired):
            a.require_form()


# -- group tables --


class TestGroups:
    def test_cyclic_table_is_group(self):
        for k in (1, 2, 3, 4, 6, 8, 9):
            t = cyclic_table(k)
            make_group_algebra(F2 if k % 2 == 0 else F3, t)

    def test_klein_table(self):
        t = klein_table()
        assert t.shape == (4, 4)
        assert np.array_equal(t, t.T)  # abelian

    def test_symmetric_table_s3(self):
        t = symmetric_table(3)
        assert t.shape == (6, 6)
        assert not np.array_equal(t, t.T)  # non-abelian
        make_group_algebra(F2, t)

    def test_not_closed(self):
        with pytest.raises(NotAGroup):
            make_group_algebra(F2, np.array([[0, 1], [1, 5]]))

    def test_no_inverse(self):
        # min(i, j) is associative with identity n-1 but has no inverses
        n = 3
        t = np.minimum(np.arange(n)[:, None], np.arange(n)[None, :])
        with pytest.raises(NotAGroup) as exc:
            make_group_algebra(F2, t)
        assert "inverse" in str(exc.value)

    def test_not_associative_table(self):
        # subtraction mod n is a quasigroup, not a group, for n > 2
        n = 3
        i = np.arange(n)
        t = (i[:, None] - i[None, :]) % n
        with pytest.raises(NotAGroup):
            make_group_algebra(F3, t)

    def test_group_algebra_form(self, s3_2):
        # (g, h) = 1 iff gh = 1; permutation gram, symmetric because
        # inverses are two-sided
        g = s3_2.form.gram.data
        assert np.array_equal(g, g.T)
        assert (g.sum(axis=0) == 1).all() and (g.sum(axis=1) == 1).all()


# -- frozen structural facts --


class TestStructure:
    def test_m2_center_and_commutators(self, m2k):
        # M_2(k): center = scalars, [A,A] = trace-zero matrices
        assert m2k.dim == 4
        assert m2k.center().dim == 1
        assert m2k.center().contains(m2k.unit)
        assert m2k.commutator_space().dim == 3
        assert m2k.commutator_space() == oracle_commutator_space(m2k)
        assert m2k.center() == oracle_center(m2k)

    def test_s3_center_and_commutators(self, s3_2):
        # center of kG = class sums (3 classes); [kG,kG] has codim = #classes
        assert s3_2.dim == 6
        assert s3_2.center().dim == 3
        assert s3_2.commutator_space().dim == 3
        assert s3_2.center() == oracle_center(s3_2)
        assert s3_2.commutator_space() == oracle_commutator_space(s3_2)

    @pytest.mark.parametrize("fixture", ["c2", "c4", "klein", "c3_3", "dual2", "trunc4_2", "uv", "dual4"])
    def test_commutative_corpus(self, fixture, request):
        a = request.getfixturevalue(fixture)
        assert a.center().dim == a.dim
        assert a.commutator_space().dim == 0

    def test_center_oracle_small(self, dual2, c4, uv, s3_2):
        rng = np.random.default_rng(17)
        while True:
            g = Mat(s3_2.field, rng.integers(0, 2, size=(6, 6)).astype(np.int8))
            if g.rank() == 6:
                break
        for a in (dual2, c4, uv, change_basis(s3_2, g)):
            assert a.center() == oracle_center(a)
            assert a.commutator_space() == oracle_commutator_space(a)

    def test_trivial_extension_relations(self, dual2, uv):
        # T(k[x]/x^2) = k[u,w]/(u^2, w^2) with u = x, w = x*, uw = 1*
        assert uv.dim == 4
        u = uv.basis_vector(1)   # x
        w = uv.basis_vector(3)   # x*
        one_star = uv.basis_vector(2)
        assert not uv.multiply(u, u).any()
        assert not uv.multiply(w, w).any()
        assert np.array_equal(uv.multiply(u, w), one_star)
        assert np.array_equal(uv.multiply(w, u), one_star)
        # the A* part is a square-zero ideal
        for i in (2, 3):
            for j in (2, 3):
                assert not uv.multiply(uv.basis_vector(i), uv.basis_vector(j)).any()

    def test_matrix_units(self, m2k):
        # basis order: E00 E01 E10 E11
        e = [m2k.basis_vector(i) for i in range(4)]
        assert np.array_equal(m2k.multiply(e[1], e[2]), e[0])  # E01 E10 = E00
        assert np.array_equal(m2k.multiply(e[2], e[1]), e[3])  # E10 E01 = E11
        assert not m2k.multiply(e[0], e[2]).any()  # E00 E10 = 0
        assert not m2k.multiply(e[1], e[1]).any()
        assert np.array_equal(m2k.unit, e[0] + e[3])

    def test_truncated_poly_relations(self, trunc4_2):
        x = trunc4_2.basis_vector(1)
        x2 = trunc4_2.multiply(x, x)
        x3 = trunc4_2.multiply(x2, x)
        assert np.array_equal(x2, trunc4_2.basis_vector(2))
        assert np.array_equal(x3, trunc4_2.basis_vector(3))
        assert not trunc4_2.multiply(x3, x).any()
        assert np.array_equal(trunc4_2.power(x, 3), x3)


# -- element arithmetic --


class TestElements:
    def test_p_power_matches_power(self, s3_2, dual4, trunc3_3):
        rng = np.random.default_rng(7)
        for a in (s3_2, dual4, trunc3_3):
            p = a.field.p
            for _ in range(10):
                x = rand_elt(rng, a)
                for n in range(3):
                    assert np.array_equal(a.p_power(x, n), a.power(x, p**n))

    def test_multiply_associative_random(self, s3_2, dual4):
        rng = np.random.default_rng(11)
        for a in (s3_2, dual4):
            for _ in range(15):
                x, y, z = (rand_elt(rng, a) for _ in range(3))
                lhs = a.multiply(a.multiply(x, y), z)
                rhs = a.multiply(x, a.multiply(y, z))
                assert np.array_equal(lhs, rhs)

    def test_unit_acts_trivially(self, uv, c9_3):
        rng = np.random.default_rng(13)
        for a in (uv, c9_3):
            for _ in range(8):
                x = rand_elt(rng, a)
                assert np.array_equal(a.multiply(a.unit, x), x)
                assert np.array_equal(a.multiply(x, a.unit), x)

    def test_frobenius_on_scalars(self, dual4):
        # (c 1)^2 = c^2 1 over GF(4): coefficient Frobenius
        f = dual4.field
        for c in f.elements():
            v = np.zeros(2, dtype=np.int8)
            v[0] = c
            out = dual4.p_power(v, 1)
            assert out[0] == f.frobenius(c, 1) and out[1] == 0

    @pytest.mark.parametrize("fixture", ["s3_2", "c9_3", "dual4"])
    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_stacked_products(self, request, fixture, rows):
        # over GF(2), GF(3) and GF(4): one call on a stack equals one call
        # per row, and the product equals the einsum of the structure tensor
        a = request.getfixturevalue(fixture)
        f, p = a.field, a.field.p
        rng = np.random.default_rng(19 + rows)
        x = f.varr(rng.integers(0, f.q, size=(rows, a.dim)))
        y = f.varr(rng.integers(0, f.q, size=(rows, a.dim)))
        prod = a.multiply(x, y)
        assert prod.shape == (rows, a.dim) and prod.dtype == np.int8
        assert np.array_equal(prod, _einsum_products(a, x, y))
        assert np.array_equal(prod, _rows(a.multiply, x, y))
        assert np.array_equal(a.multiply(x[:, None], y[None]),
                              _einsum_products(a, np.repeat(x, rows, 0), np.tile(y, (rows, 1)))
                              .reshape(rows, rows, a.dim))
        for k in (0, 1, 5):
            got = a.power(x, k)
            assert np.array_equal(got, _rows(lambda r: a.power(r, k), x))
            want = np.broadcast_to(a.unit, x.shape)
            for _ in range(k):
                want = _einsum_products(a, want, x)
            assert np.array_equal(got, want)
        for n in (0, 1, 2):
            got = a.p_power(x, n)
            assert got.shape == x.shape
            assert np.array_equal(got, _rows(lambda r: a.p_power(r, n), x))
            assert np.array_equal(got, a.power(x, p**n))

    @pytest.mark.parametrize("fixture", ["s3_2", "c9_3", "dual4"])
    def test_power_counts_products(self, request, fixture, monkeypatch):
        # square and multiply from the lowest set bit: x^2 is one product,
        # x^3 and x^4 two; the results equal x multiplied in one row at a
        # time, n - 1 times
        a = request.getfixturevalue(fixture)
        f, p = a.field, a.field.p
        x = f.varr(np.random.default_rng(23).integers(0, f.q, size=(4, a.dim)))
        want = {0: np.broadcast_to(a.unit, x.shape)}
        for n in range(1, p**3 + 1):
            want[n] = _rows(lambda r, s: a.multiply(r, s), want[n - 1], x) if n > 1 else x
        calls = []
        real = type(a).multiply
        monkeypatch.setattr(type(a), "multiply",
                            lambda self, u, v: calls.append(1) or real(self, u, v))
        for n in (2, 3, 4, p, p**2, p**3):
            calls.clear()
            got = a.power(x, n)
            assert np.array_equal(got, want[n]), n
            # one squaring per bit past the lowest, one product per further
            # set bit: 1, 2 and 2 for n = 2, 3, 4
            assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n
        assert np.array_equal(a.power(x, 0), want[0])
        one = a.power(x, 1)
        assert np.array_equal(one, x) and one is not x

    def test_multiply_checks_lengths(self, c4):
        with pytest.raises(DimensionMismatch):
            c4.multiply(np.zeros(3, dtype=np.int8), c4.unit)


def _rows(fn, *stacks):
    """fn on each row of the stacks, stacked back; (0, d) for empty stacks."""
    return np.array([fn(*row) for row in zip(*stacks)], dtype=np.int8).reshape(stacks[0].shape)


def _einsum_products(a, x, y):
    """Rows x_s y_s = sum_ij x_si y_sj c[i, j, :], by einsum over a prime field and
    by the field tables otherwise."""
    f, t = a.field, a.mult_tensor
    if f.e == 1:
        wide = np.einsum("si,sj,ijk->sk", x.astype(np.int64), y.astype(np.int64), t.astype(np.int64))
        return (wide % f.p).astype(np.int8)
    terms = f.vmul(f.vmul(x[:, :, None, None], y[:, None, :, None]), t[None])
    out = np.zeros((x.shape[0], a.dim), dtype=np.int8)
    for i in range(a.dim):
        for j in range(a.dim):
            out = f.vadd(out, terms[:, i, j])
    return out


# -- basis change --


class TestChangeBasis:
    def rand_invertible(self, field, d, rng):
        while True:
            g = Mat(field, rng.integers(0, field.q, size=(d, d)))
            if g.rank() == d:
                return g

    def test_roundtrip(self, s3_2):
        rng = np.random.default_rng(23)
        g = self.rand_invertible(s3_2.field, s3_2.dim, rng)
        b = change_basis(s3_2, g)
        back = change_basis(b, g.inverse())
        assert back.mult_matrix == s3_2.mult_matrix
        assert np.array_equal(back.unit, s3_2.unit)
        assert back.form.gram == s3_2.form.gram

    @pytest.mark.parametrize("fixture", ["dual2", "c4", "uv", "trunc3_3", "dual4"])
    def test_dims_invariant(self, fixture, request):
        a = request.getfixturevalue(fixture)
        rng = np.random.default_rng(29)
        for _ in range(3):
            g = self.rand_invertible(a.field, a.dim, rng)
            b = change_basis(a, g)
            assert b.center().dim == a.center().dim
            assert b.commutator_space().dim == a.commutator_space().dim

    def test_transported_product(self, c4):
        rng = np.random.default_rng(31)
        g = self.rand_invertible(c4.field, c4.dim, rng)
        b = change_basis(c4, g)
        ginv = g.inverse()
        for _ in range(10):
            x = rand_elt(rng, c4)
            y = rand_elt(rng, c4)
            f = c4.field
            xi = f.matmul(x.reshape(1, -1), ginv.data).reshape(-1)
            eta = f.matmul(y.reshape(1, -1), ginv.data).reshape(-1)
            prod_new = b.multiply(xi, eta)
            prod_old = f.matmul(c4.multiply(x, y).reshape(1, -1), ginv.data).reshape(-1)
            assert np.array_equal(prod_new, prod_old)


# -- serialization --


class TestJson:
    @pytest.mark.parametrize("fixture", ["dual2", "c4", "s3_2", "m2k", "trunc3_3", "dual4", "uv"])
    def test_roundtrip(self, fixture, request, tmp_path):
        a = request.getfixturevalue(fixture)
        path = tmp_path / "alg.json"
        save_algebra(a, path)
        b = load_algebra(path)
        assert b.field == a.field
        assert b.dim == a.dim
        assert b.basis_names == a.basis_names
        assert b.mult_matrix == a.mult_matrix
        assert np.array_equal(b.unit, a.unit)
        if a.form is None:
            assert b.form is None
        else:
            assert b.form.gram == a.form.gram
            assert b.form.fingerprint() == a.form.fingerprint()
        assert b.kind == a.kind

    def test_fingerprint_tracks_gram(self, dual2, c2):
        # deterministic per (field, gram); differs across fields and grams
        assert dual2.form.fingerprint() == make_truncated_polynomial(F2, 2).form.fingerprint()
        assert dual2.form.fingerprint() != c2.form.fingerprint()
        assert dual2.form.fingerprint() != make_truncated_polynomial(F3, 2).form.fingerprint()

    def test_missing_key(self):
        with pytest.raises(MalformedDocument):
            algebra_from_json({"field": {"p": 2, "e": 1}, "dim": 1, "unit": [1]})

    def test_bad_version(self, dual2):
        doc = algebra_to_json(dual2)
        doc["schema_version"] = 99
        with pytest.raises(SchemaVersionMismatch):
            algebra_from_json(doc)

    @pytest.mark.parametrize("where", [
        ("schema_version",), ("field", "p"), ("field", "e"), ("dim",), ("mult", 0, 0),
        ("mult", 1, 1), ("mult", 1, 2, 0, 0), ("mult", 1, 2, 0, 1), ("unit", 0),
    ])
    @pytest.mark.parametrize("bad", [True, [1], {}], ids=["true", "list", "object"])
    def test_non_integers_in_integer_slots(self, dual2, where, bad):
        # json.loads gives True and False, which Python counts as ints;
        # lists and objects are unhashable and must not reach a cache
        doc = algebra_to_json(dual2)
        del doc["basis"]
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = bad
        with pytest.raises(MalformedDocument):
            algebra_from_json(doc)

    @pytest.mark.parametrize("coeff", [True, 1.0])
    def test_modulus_coefficients_are_integers(self, dual4, coeff):
        doc = algebra_to_json(dual4)
        doc["field"]["modulus"][1] = coeff
        with pytest.raises(MalformedDocument):
            algebra_from_json(doc)

    def test_duplicate_mult_row(self, dual2):
        doc = algebra_to_json(dual2)
        doc["mult"].append(doc["mult"][0])
        with pytest.raises(MalformedDocument):
            algebra_from_json(doc)

    def test_bad_coefficient_shape(self, dual4):
        doc = algebra_to_json(dual4)
        doc["unit"][0] = 1  # must be a list for e > 1
        with pytest.raises(MalformedDocument):
            algebra_from_json(doc)

    def test_bad_form_shape(self, dual2):
        doc = algebra_to_json(dual2)
        doc["form"] = [[1, 0]]
        with pytest.raises(MalformedDocument):
            algebra_from_json(doc)

    def test_not_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        with pytest.raises(MalformedDocument):
            load_algebra(p)

    def test_mult_coeffs_live_in_field(self, dual2):
        doc = algebra_to_json(dual2)
        doc["mult"][0][2][0][1] = "x"
        with pytest.raises(MalformedDocument):
            algebra_from_json(doc)

    @pytest.mark.parametrize("edit, text", [
        (lambda doc: doc["mult"].append([2, 0, [[0, 1]]]), "mult index (2,0) out of range"),
        (lambda doc: doc["mult"].append([1, -1, [[0, 1]]]), "mult index (1,-1) out of range"),
        (lambda doc: doc["mult"][0][2].append([2, 1]), "mult target 2 out of range"),
        (lambda doc: doc["mult"][1][2].append([-1, 1]), "mult target -1 out of range"),
        (lambda doc: doc["mult"].append([0, 0, []]), "duplicate mult row (0,0)"),
        (lambda doc: doc["mult"][2][2].append([1, 0]), "duplicate target 1 in mult row (1,0)"),
    ], ids=["row", "negative-row", "target", "negative-target", "duplicate-row", "duplicate-target"])
    def test_malformed_mult_rows(self, dual2, tmp_path, capsys, edit, text):
        # the loader is the one place that reads sparse rows from outside
        doc = algebra_to_json(dual2)
        edit(doc)
        with pytest.raises(MalformedDocument) as exc:
            algebra_from_json(doc)
        assert str(exc.value) == text
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {text}\n"

    def test_mult_tensor_shape_and_codes(self, dual2, dual4):
        with pytest.raises(MalformedDocument, match=r"^mult tensor must be dim\^3$"):
            Algebra(F2, 2, dual2.mult_matrix.data, [1, 0])
        bad = np.array(dual4.mult_tensor, dtype=np.int64)
        bad[1, 1, 0] = 4
        with pytest.raises(MalformedDocument, match="^coefficient code 4 out of range$"):
            Algebra(dual4.field, 2, bad, [1, 0])
        bad[1, 1, 0] = -1
        with pytest.raises(MalformedDocument, match="^coefficient code -1 out of range$"):
            Algebra(dual4.field, 2, bad, [1, 0])
        # over a prime field the codes are taken mod p
        dual3 = make_truncated_polynomial(F3, 2)
        shifted = dual3.mult_tensor.astype(np.int64) + 3 * np.arange(8).reshape(2, 2, 2) - 6
        assert Algebra(F3, 2, shifted, [4, -3]).mult_matrix == dual3.mult_matrix

    def test_invalid_math_still_raises(self, tmp_path):
        # schema-valid but non-associative content fails validation on load
        t = klein_table()
        mult = [[i, j, [[int(t[i, j]), 1]]] for i in range(4) for j in range(4)]
        mult[5] = [1, 1, [[3, 1]]]
        doc = {"schema_version": 1, "field": {"p": 2, "e": 1}, "dim": 4,
               "basis": ["a", "b", "c", "d"], "unit": [1, 0, 0, 0], "mult": mult}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(NotAssociative):
            load_algebra(p)


# -- property tests --


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=1, max_value=10), p=st.sampled_from([2, 3, 5]))
def test_cyclic_group_algebra_properties(k, p):
    a = make_group_algebra(GF(p), cyclic_table(k))
    assert a.dim == k
    assert a.center().dim == k
    assert a.commutator_space().dim == 0
    g = a.form.gram.data
    assert np.array_equal(g, g.T)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=6), p=st.sampled_from([2, 3]))
def test_truncated_poly_nilpotency(n, p):
    a = make_truncated_polynomial(GF(p), n)
    x = a.basis_vector(1) if n > 1 else a.basis_vector(0)
    if n > 1:
        assert not a.power(x, n).any()
        assert a.power(x, n - 1).any()


# -- the numpy constructors against the dict-building oracles --


def _saved(a, tmp_path) -> bytes:
    path = tmp_path / "a.json"
    save_algebra(a, path)
    return path.read_bytes()


def _mult_rows(a) -> list:
    """The document's sparse rows [i, j, [[k, c], ...]], read entry by entry off the tensor."""
    f, t = a.field, a.mult_tensor
    rows = []
    for i in range(a.dim):
        for j in range(a.dim):
            row = [[k, f.coeff_to_json(int(t[i, j, k]))] for k in range(a.dim) if t[i, j, k]]
            if row:
                rows.append([i, j, row])
    return rows


def _random_basis(a, seed: int) -> Mat:
    rng = np.random.default_rng(seed)
    while True:
        g = Mat(a.field, rng.integers(0, a.field.q, size=(a.dim, a.dim)).astype(np.int8))
        if g.rank() == a.dim:
            return g


class TestDenseConstructors:
    """Documents of the tensor constructors, byte for byte against the dict-building ones."""

    @pytest.fixture(scope="class")
    def corpus(self):
        path = str(Path(__file__).resolve().parents[1] / "perfbench")
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(path)
            specs = importlib.import_module("corpus").SPECS
            built = {name: spec.build() for name, spec in specs.items()}
            for name, fn in (("make_group_algebra", oracle_group_algebra),
                             ("make_truncated_polynomial", oracle_truncated_polynomial),
                             ("make_matrix_algebra", oracle_matrix_algebra),
                             ("make_trivial_extension", oracle_trivial_extension)):
                mp.setattr(derinv, name, fn)
            oracle = {name: spec.build() for name, spec in specs.items()}
        return built, oracle

    def test_corpus(self, corpus, tmp_path):
        built, oracle = corpus
        assert len(built) == 19
        for name, a in built.items():
            assert _saved(a, tmp_path) == _saved(oracle[name], tmp_path), name
            assert algebra_to_json(a)["mult"] == _mult_rows(a), name

    def test_matrix_algebras_and_trivial_extensions(self, corpus, tmp_path):
        small = [a for a in corpus[0].values() if a.dim <= 4]
        assert len(small) == 16
        for a in small:
            for new, old in ((make_matrix_algebra(a, 2), oracle_matrix_algebra(a, 2)),
                             (make_trivial_extension(a), oracle_trivial_extension(a))):
                assert _saved(new, tmp_path) == _saved(old, tmp_path), new.kind
                assert algebra_to_json(new)["mult"] == _mult_rows(new)
        k3 = make_truncated_polynomial(GF(3, 2), 1)
        assert _saved(make_matrix_algebra(k3, 3), tmp_path) == _saved(oracle_matrix_algebra(k3, 3), tmp_path)

    def test_random_bases(self, corpus, tmp_path):
        for idx, a in enumerate(corpus[0].values()):
            g = _random_basis(a, 100 + idx)
            moved = change_basis(a, g)
            assert _saved(moved, tmp_path) == _saved(oracle_change_basis(a, g), tmp_path)
            assert algebra_to_json(moved)["mult"] == _mult_rows(moved)
            if a.dim <= 2:
                assert (_saved(make_trivial_extension(moved), tmp_path)
                        == _saved(oracle_trivial_extension(moved), tmp_path))
