"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the library's solver paths on purpose: membership
is tested by rank comparison, maps are found by exhausting all field
vectors, and homology dimensions for k[x]/(x^2) come from the small
2-periodic resolution.  Only usable for tiny algebras.

Two exceptions are former library paths, kept as the references for
the code that replaced them: oracle_hh_homology is the dense elimination
of the whole bar matrices of the full complex, which the block-wise
hh_homology on the normalized complex replaced, and oracle_rref_generic
and oracle_rref_gf2 are the per-pivot eliminations over every row,
generic and bit-packed, which tall matrices no longer take.
oracle_bracket_kron and oracle_sigma_p_kron multiply the dense coderivation components, and
oracle_coboundary applies the dense coboundary matrix; bracket, sigma_p
and coboundary build neither.  oracle_coboundary_terms is that matrix
added up from the terms of delta, which coboundary_matrix now reads off
the bar boundary with DA coefficients, and oracle_hh_cohomology the
dense elimination of it, which the block-wise hh_cohomology
replaced.  The two HH oracles are the full
complex: their classes are compared with those of the normalized
complex, not their representatives.  oracle_unit_projection is the
projection A -> A/k1 entry by entry, oracle_projection_power its
Kronecker powers, which give the projection of the full complex onto
the normalized one, and oracle_normalized_cochain a cochain that
vanishes on the unit.  oracle_boundaries_inside is the B inside Z
check as one product over the whole degree, which hh_homology and
hh_cohomology run one component at a time, and oracle_transported_perp
the transport of an annihilator to cochains as one dense elimination,
against which the cocycles and coboundaries of hh_cohomology are checked
as the duals of the boundaries and cycles of hh_homology.
oracle_restricted_axioms_check is the restricted-Lie check one pair of
classes at a time, with one class solve per cochain, and
oracle_sigma_class_rank the sigma_p rank by enumerating every class,
and oracle_derived_hh1_dim one bracket and one class solve per pair;
restricted_axioms_check runs each axiom on stacks of pairs,
sigma_class_rank reads the rank off the coefficients of sigma_p as a
polynomial in the class coordinates, and derived_hh1_dim solves the
classes of a stack of brackets at once.  oracle_defining_relation is verify_properties'
defining relation with one pairing per basis pair and scalar, which
verify_properties now takes as one pairing matrix per scalar.
coderivation_components collects the dense components of D_f up to a
tensor length, as the tests of the coalgebra model read them.

oracle_algebra is the path from structure constants {(i, j): {k: c}}
to an Algebra, validated entry by entry, and the oracle_* constructors
below it build those dicts in Python loops; the constructors and the
JSON loader of derinv.algebras now fill the dense tensor directly.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable

import numpy as np

from derinv.algebras import Algebra, SymmetrizingForm, _group_check
from derinv.errors import DimensionMismatch, MalformedDocument, SingularMatrix
from derinv.fields import CODE_DTYPE, Field
from derinv.gerstenhaber import (
    COBOUNDARY_BRACKET_SIGN,
    bracket,
    coderivation_component,
    coderivation_power_component,
    jacobson_si,
    sigma_p,
)
from derinv.hochschild import (
    Cochain,
    _left_multiply,
    _quotient_basis,
    boundary_matrix,
    coboundary,
    cup_power,
    hh_cohomology,
    pairing,
)
from derinv.linalg import Mat, Subspace, _null_rows


def all_vectors(field: Field, dim: int) -> Iterable[np.ndarray]:
    for tup in itertools.product(range(field.q), repeat=dim):
        yield np.array(tup, dtype=np.int8)


def in_span(field: Field, rows: np.ndarray, v: np.ndarray) -> bool:
    if rows.shape[0] == 0:
        return not v.any()
    stacked = np.concatenate([rows, v.reshape(1, -1)], axis=0)
    return Mat(field, rows).rank() == Mat(field, stacked).rank()


def span_of(field: Field, vectors: list[np.ndarray], ambient: int) -> Subspace:
    if not vectors:
        return Subspace.zero(field, ambient)
    return Subspace.from_rows(field, np.stack(vectors))


def oracle_kernel(field: Field, m: np.ndarray) -> Subspace:
    """Null space by exhausting all vectors."""
    cols = m.shape[1]
    hits = [v for v in all_vectors(field, cols) if not Mat(field, m).mul_vec(v).any()]
    return span_of(field, hits, cols)


def oracle_orthogonal_complement(field: Field, gram: np.ndarray, basis: np.ndarray) -> Subspace:
    """{x : b @ gram @ x = 0 for all rows b} by exhaustion."""
    d = gram.shape[0]
    g = Mat(field, gram)
    hits = []
    for v in all_vectors(field, d):
        vals = g.mul_vec(v)
        if all(field.vdot(b, vals) == 0 for b in basis):
            hits.append(v)
    return span_of(field, hits, d)


def oracle_commutator_space(algebra) -> Subspace:
    """span{x*y - y*x} over all element pairs (not just basis pairs)."""
    f = algebra.field
    d = algebra.dim
    vecs = []
    for x in all_vectors(f, d):
        for y in all_vectors(f, d):
            c = f.vsub(algebra.multiply(x, y), algebra.multiply(y, x))
            if c.any():
                vecs.append(c)
    return span_of(f, vecs, d)


def oracle_center(algebra) -> Subspace:
    f = algebra.field
    d = algebra.dim
    basis = [np.eye(d, dtype=np.int8)[i] for i in range(d)]
    hits = [
        z
        for z in all_vectors(f, d)
        if all(np.array_equal(algebra.multiply(z, b), algebra.multiply(b, z)) for b in basis)
    ]
    return span_of(f, hits, d)


def oracle_t_n(algebra, n: int) -> Subspace:
    """{x : x^(p^n) in KA} by exhausting all elements."""
    f = algebra.field
    ka = algebra.commutator_space().basis.data
    hits = [x for x in all_vectors(f, algebra.dim) if in_span(f, ka, algebra.p_power(x, n))]
    return span_of(f, hits, algebra.dim)


def oracle_t_n_center(algebra, n: int) -> Subspace:
    """{z central : z^(p^n) = 0} by exhaustion."""
    f = algebra.field
    center = algebra.center()
    hits = [
        z
        for z in all_vectors(f, algebra.dim)
        if center.contains(z) and not algebra.p_power(z, n).any()
    ]
    return span_of(f, hits, algebra.dim)


def oracle_p_n(algebra, n: int) -> Subspace:
    """span{z^(p^n) : z central} by exhaustion."""
    f = algebra.field
    center = algebra.center()
    hits = [algebra.p_power(z, n) for z in all_vectors(f, algebra.dim) if center.contains(z)]
    hits = [h for h in hits if h.any()]
    return span_of(f, hits, algebra.dim)


def pairing_value(algebra, a: np.ndarray, b: np.ndarray) -> int:
    g = algebra.form.gram
    return algebra.field.vdot(a, g.mul_vec(b))


def oracle_zeta_n(algebra, z: np.ndarray, n: int) -> np.ndarray:
    """The unique w with (z, a^(p^n)) = (w, a)^(p^n) for all elements a."""
    f = algebra.field
    d = algebra.dim
    found = None
    for w in all_vectors(f, d):
        ok = all(
            pairing_value(algebra, z, algebra.p_power(a, n))
            == f.frobenius(pairing_value(algebra, w, a), n)
            for a in all_vectors(f, d)
        )
        if ok:
            assert found is None or np.array_equal(found, w), "zeta not unique"
            found = w
    assert found is not None, "zeta has no solution"
    return found


def oracle_kappa_n(algebra, quotient, a_class: np.ndarray, n: int) -> np.ndarray:
    """Class w with (z^(p^n), a) = (z, w)^(p^n) for all central z; unique."""
    f = algebra.field
    zdim = quotient.center_basis.rows
    qdim = quotient.proj_matrix.rows
    a_elt = f.matmul(a_class.reshape(1, -1), quotient.reps.data).reshape(-1)
    centers = [quotient.center_basis.data[i] for i in range(zdim)]
    found = None
    for wc in all_vectors(f, qdim):
        w_elt = f.matmul(wc.reshape(1, -1), quotient.reps.data).reshape(-1)
        ok = all(
            pairing_value(algebra, algebra.p_power(z, n), a_elt)
            == f.frobenius(pairing_value(algebra, z, w_elt), n)
            for z in centers
        )
        if ok:
            assert found is None or np.array_equal(found, wc), "kappa not unique"
            found = wc
    assert found is not None, "kappa has no solution"
    return found


def periodic_hh_dims_dual_numbers(field: Field) -> Callable[[int], int]:
    """HH dims of k[x]/(x^2) in char 2 from the 2-periodic resolution.

    Applying Hom(-, A) (or - (x) A) to ... -> A^e -> A^e -> A with maps
    multiplication by x(x)1 - 1(x)x and x(x)1 + 1(x)x turns both
    differentials into 0 on A (commutativity resp. char 2), so every
    degree contributes dim A = 2.
    """
    assert field.p == 2 and field.e == 1
    lx = np.array([[0, 0], [1, 0]], dtype=np.int8)  # left mult by x on basis (1, x)
    d_odd = field.vsub(lx, lx)  # x a - a x
    d_even = field.vadd(lx, lx)  # x a + a x
    assert not d_odd.any() and not d_even.any()

    def dim(m: int) -> int:
        return 2

    return dim


def circle_product(algebra, f_mat: np.ndarray, g_mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Gerstenhaber circle product f o g by direct index bookkeeping.

    f has arity m, g arity n; (f o g)(a_1..a_{m+n-1}) =
    sum_i (-1)^((n-1)(i-1)) f(a_1, .., g(a_i..a_{i+n-1}), .., a_{m+n-1}).
    """
    fld = algebra.field
    d = algebra.dim
    arity = m + n - 1
    out = np.zeros((d, d ** arity), dtype=np.int8)
    for col, args in enumerate(itertools.product(range(d), repeat=arity)):
        acc = np.zeros(d, dtype=np.int8)
        for i in range(1, m + 1):
            inner = args[i - 1 : i - 1 + n]
            g_col = 0
            for t in inner:
                g_col = g_col * d + t
            g_val = g_mat[:, g_col]  # element of A
            term = np.zeros(d, dtype=np.int8)
            for k in range(d):
                if g_val[k] == 0:
                    continue
                outer = args[: i - 1] + (k,) + args[i - 1 + n :]
                f_col = 0
                for t in outer:
                    f_col = f_col * d + t
                term = fld.vadd(term, fld.vscale(int(g_val[k]), f_mat[:, f_col]))
            sign = 1 if ((n - 1) * (i - 1)) % 2 == 0 else fld.neg(1)
            acc = fld.vadd(acc, fld.vscale(sign, term))
        out[:, col] = acc
    return out


def oracle_bracket(algebra, f_mat: np.ndarray, g_mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """[f, g] = f o g - (-1)^((m-1)(n-1)) g o f via the circle product."""
    fld = algebra.field
    fg = circle_product(algebra, f_mat, g_mat, m, n)
    gf = circle_product(algebra, g_mat, f_mat, n, m)
    sign = 1 if ((m - 1) * (n - 1)) % 2 == 0 else fld.neg(1)
    return fld.vsub(fg, fld.vscale(sign, gf))


def oracle_bracket_kron(f: Cochain, g: Cochain) -> Cochain:
    """tau o [D_f, D_g] as products of the dense Kronecker components."""
    a = f.algebra
    fld = a.field
    m, n = f.arity, g.arity
    if m + n == 0:
        return Cochain(a, 0, Mat.zeros(fld, a.dim, 1))
    r = m + n - 1
    fg = fld.matmul(coderivation_component(f, m).data, coderivation_component(g, r).data)
    gf = fld.matmul(coderivation_component(g, n).data, coderivation_component(f, r).data)
    if ((m - 1) * (n - 1)) % 2 == 1:
        gf = fld.vneg(gf)
    return Cochain(a, r, Mat(fld, fld.vsub(fg, gf)))


def oracle_sigma_p_kron(f: Cochain) -> Cochain:
    """tau o D_f^p from the dense power of the coderivation components."""
    target = f.algebra.field.p * (f.arity - 1) + 1
    power = coderivation_power_component(f, f.algebra.field.p, target)
    return Cochain(f.algebra, target, power)


def coderivation_components(f: Cochain, max_len: int) -> dict[int, Mat]:
    """{r: D_f on tensor length r} from max(arity - 1, 0) through max_len."""
    return {r: coderivation_component(f, r) for r in range(max(f.arity - 1, 0), max_len + 1)}


def oracle_coboundary(f: Cochain) -> Cochain:
    """delta f from the dense coboundary matrix of oracle_coboundary_terms."""
    a = f.algebra
    delta = oracle_coboundary_terms(a, f.arity)
    return Cochain.from_flat(a, f.arity + 1, delta.mul_vec(f.flat()))


def oracle_coboundary_terms(algebra, m: int) -> Mat:
    """delta_m as a dense (d^(m+2), d^(m+1)) matrix, added up term by term.

    Each term of delta places c[u, v, w] at index arrays broadcast over
    the untouched tensor factors; within one term every (row, col) pair
    occurs once, so a fancy-indexed update is exact.
    """
    f, d = algebra.field, algebra.dim
    rows_n, cols_n = d ** (m + 2), d ** (m + 1)
    ii, jj, kk, vv = algebra.sparse_mult()
    u, v, w = (x.reshape(1, -1, 1) for x in (ii, jj, kk))
    c = vv.reshape(1, -1, 1)
    neg_c = f.vneg(c)
    flat = np.zeros(rows_n * cols_n, dtype=CODE_DTYPE)

    def add_term(rows, cols, vals):
        rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
        idx = (rows * cols_n + cols).reshape(-1)
        flat[idx] = f.vadd(flat[idx], vals.reshape(-1))

    n = d**m
    rest = np.arange(n).reshape(1, 1, -1)
    # left action: a1 f(a2 ..); structure constant c[a1, f-out, out]
    add_term((w * d + u) * n + rest, v * n + rest, c)
    # inner contractions: f(.. a_i a_{i+1} ..), sign (-1)^i; the prefix
    # carries the output index of f
    for i in range(1, m + 1):
        pre = np.arange(d**i).reshape(-1, 1, 1)
        s = d ** (m - i)
        suf = np.arange(s).reshape(1, 1, -1)
        add_term(((pre * d + u) * d + v) * s + suf, (pre * d + w) * s + suf, neg_c if i % 2 else c)
    # right action: f(a1 ..) a_{m+1}, sign (-1)^(m+1); c[f-out, a_{m+1}, out]
    add_term((w * n + rest) * d + v, u * n + rest, c if m % 2 else neg_c)
    return Mat(f, flat.reshape(rows_n, cols_n))


def _flat(d: int, tup: tuple[int, ...]) -> int:
    idx = 0
    for t in tup:
        idx = idx * d + t
    return idx


def _eval_cochain(algebra, mat: np.ndarray, args: tuple[int, ...]) -> np.ndarray:
    """Evaluate an arity-m cochain matrix on a tuple of basis indices."""
    return mat[:, _flat(algebra.dim, args)].copy()


def oracle_boundary_column(algebra, tup: tuple[int, ...]) -> np.ndarray:
    """b(b_{i0} (x) ... (x) b_im) by multiplying adjacent slots one at a time."""
    fld = algebra.field
    d = algebra.dim
    m = len(tup) - 1
    out = np.zeros(d ** m, dtype=np.int8)
    for i in range(m):
        prod = algebra.multiply(algebra.basis_vector(tup[i]), algebra.basis_vector(tup[i + 1]))
        sign = 1 if i % 2 == 0 else fld.neg(1)
        for k in range(d):
            if prod[k] == 0:
                continue
            dest = _flat(d, tup[:i] + (k,) + tup[i + 2 :])
            out[dest] = fld.add(int(out[dest]), fld.mul(sign, int(prod[k])))
    prod = algebra.multiply(algebra.basis_vector(tup[m]), algebra.basis_vector(tup[0]))
    sign = 1 if m % 2 == 0 else fld.neg(1)
    for k in range(d):
        if prod[k] == 0:
            continue
        dest = _flat(d, (k,) + tup[1:m])
        out[dest] = fld.add(int(out[dest]), fld.mul(sign, int(prod[k])))
    return out


def oracle_boundary_matrix(algebra, m: int) -> np.ndarray:
    d = algebra.dim
    out = np.zeros((d ** m, d ** (m + 1)), dtype=np.int8)
    for col, tup in enumerate(itertools.product(range(d), repeat=m + 1)):
        out[:, col] = oracle_boundary_column(algebra, tup)
    return out


def oracle_coboundary_matrix(algebra, mat: np.ndarray, m: int) -> np.ndarray:
    """(delta f)(a_1..a_{m+1}) = a_1 f(a_2..) + sum (-1)^i f(.., a_i a_{i+1}, ..)
    + (-1)^(m+1) f(..a_m) a_{m+1}, evaluated slot by slot on basis tuples."""
    fld = algebra.field
    d = algebra.dim
    out = np.zeros((d, d ** (m + 1)), dtype=np.int8)
    for col, tup in enumerate(itertools.product(range(d), repeat=m + 1)):
        acc = algebra.multiply(algebra.basis_vector(tup[0]), _eval_cochain(algebra, mat, tup[1:]))
        for i in range(1, m + 1):
            prod = algebra.multiply(algebra.basis_vector(tup[i - 1]), algebra.basis_vector(tup[i]))
            term = np.zeros(d, dtype=np.int8)
            for k in range(d):
                if prod[k] == 0:
                    continue
                val = _eval_cochain(algebra, mat, tup[: i - 1] + (k,) + tup[i + 1 :])
                term = fld.vadd(term, fld.vscale(int(prod[k]), val))
            sign = 1 if i % 2 == 0 else fld.neg(1)
            acc = fld.vadd(acc, fld.vscale(sign, term))
        last = algebra.multiply(_eval_cochain(algebra, mat, tup[:m]), algebra.basis_vector(tup[m]))
        sign = 1 if (m + 1) % 2 == 0 else fld.neg(1)
        acc = fld.vadd(acc, fld.vscale(sign, last))
        out[:, col] = acc
    return out


def oracle_coderivation_column(algebra, fmat: np.ndarray, m: int,
                               tup: tuple[int, ...]) -> np.ndarray:
    """D_f applied to a basis tensor, one insertion position at a time."""
    fld = algebra.field
    d = algebra.dim
    r = len(tup)
    out_len = r - m + 1
    out = np.zeros(d**out_len, dtype=np.int8)
    for i in range(1, out_len + 1):
        val = _eval_cochain(algebra, fmat, tup[i - 1 : i - 1 + m])
        if ((m - 1) * (i - 1)) % 2 == 1:
            val = fld.vneg(val)
        for k in range(d):
            if val[k] == 0:
                continue
            dest = _flat(d, tup[: i - 1] + (k,) + tup[i - 1 + m :])
            out[dest] = fld.add(int(out[dest]), int(val[k]))
    return out


def oracle_hh_homology(algebra, m: int):
    """HH_m from the dense bar matrices: ker b_m and the row space of b_{m+1}^T.

    Calls boundary_matrix past its cache, so the dense matrices are freed
    with the result.
    """
    f, d = algebra.field, algebra.dim
    dense = boundary_matrix.__wrapped__
    if m == 0:
        cycles = Subspace.full(f, d)
    else:
        bm = dense(algebra, m)
        cycles = Subspace(f, bm.cols, bm.kernel())
    bnext = dense(algebra, m + 1)
    boundaries = Subspace.from_rows(f, Mat(f, bnext.data.T))
    return _quotient_basis(algebra, m, "homology", cycles, boundaries)


def oracle_hh_cohomology(algebra, m: int):
    """HH^m from the dense coboundary matrices: ker delta_m and the column space of delta_{m-1}.

    Builds both with oracle_coboundary_terms, so they are freed with the result.
    """
    f = algebra.field
    delta = oracle_coboundary_terms(algebra, m)
    cycles = Subspace(f, delta.cols, delta.kernel())
    if m == 0:
        boundaries = Subspace.zero(f, delta.cols)
    else:
        prev = oracle_coboundary_terms(algebra, m - 1)
        boundaries = Subspace.from_rows(f, Mat(f, prev.data.T))
    return _quotient_basis(algebra, m, "cohomology", cycles, boundaries)


def oracle_full_class_coords(basis, rows: np.ndarray) -> np.ndarray:
    """Class coordinates of (co)cycle rows in a basis of oracle_hh_homology or
    oracle_hh_cohomology, whose spaces are in the coordinates of the full complex.

    The residue modulo the boundary rows, read at the representatives'
    pivots; raises AssertionError if the rows are not (co)cycles.
    """
    f = basis.algebra.field
    rows = f.varr(rows).reshape(-1, basis.cycles.ambient_dim)
    b = basis.boundaries
    residue = f.vsub(rows, f.matmul(rows[:, b.pivots()], b.basis.data)) if b.dim else rows
    coords = residue[:, list(basis.rep_pivots)]
    if not np.array_equal(residue, f.matmul(coords, basis.reps.data)):
        raise AssertionError("rows are not (co)cycles of the full complex")
    return coords


def oracle_boundaries_inside(field: Field, cycles: Subspace, boundaries: Subspace) -> bool:
    """B inside Z by one dense product over the whole degree.

    Each boundary row must be the combination of the cycle rows given by
    its entries at the cycle pivots; only the free columns need the product.
    """
    piv = cycles.pivots()
    if not set(boundaries.pivots().tolist()) <= set(piv.tolist()):
        return False
    free = np.ones(cycles.ambient_dim, dtype=bool)
    free[piv] = False
    b = boundaries.basis.data
    return np.array_equal(field.matmul(b[:, piv], cycles.basis.data[:, free]), b[:, free])


def oracle_transported_perp(algebra, space: Subspace) -> Subspace:
    """Phi^-1 of the annihilator of a chain space, as one dense elimination."""
    f = algebra.field
    ginv = algebra.form.gram.inverse().data
    ann = _null_rows(f, space.basis.data, space.pivots(), space.ambient_dim)
    return Subspace.from_rows(f, Mat(f, _left_multiply(f, ginv, ann)))


def oracle_unit_projection(algebra) -> np.ndarray:
    """The projection A -> A/k1 as a (d - 1, d) matrix, one entry at a time.

    i0 is the first coordinate where the unit u is nonzero, and A/k1 has
    the basis of the images of e_j, j != i0; e_i0 = (u - sum_{j != i0} u_j e_j) / u_i0
    maps to -sum_j (u_j / u_i0) e_j.
    """
    f, d = algebra.field, algebra.dim
    u = [int(x) for x in algebra.unit]
    i0 = next(i for i, x in enumerate(u) if x)
    out = np.zeros((d - 1, d), dtype=CODE_DTYPE)
    for r, j in enumerate(j for j in range(d) if j != i0):
        out[r, j] = 1
        out[r, i0] = f.neg(f.mul(u[j], f.inv(u[i0])))
    return out


def oracle_projection_power(algebra, n: int) -> np.ndarray:
    """p^(x n): (A)^n -> (A/k1)^n, the n-th Kronecker power of oracle_unit_projection."""
    f, q = algebra.field, oracle_unit_projection(algebra)
    out = np.ones((1, 1), dtype=CODE_DTYPE)
    for _ in range(n):
        out = f.vmul(out[:, None, :, None], q[None, :, None, :]).reshape(
            out.shape[0] * q.shape[0], out.shape[1] * q.shape[1])
    return out


def oracle_normalized_cochain(algebra, arity: int, codes: np.ndarray) -> Cochain:
    """The cochain g o p^(x arity) of a d x (d - 1)^arity code matrix g on (A/k1)^arity.

    It vanishes whenever an argument is the unit.
    """
    f = algebra.field
    codes = f.varr(np.asarray(codes)).reshape(algebra.dim, (algebra.dim - 1) ** arity)
    return Cochain(algebra, arity, Mat(f, f.matmul(codes, oracle_projection_power(algebra, arity))))


def oracle_rref_generic(f: Field, a: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """RREF one pivot at a time, each pivot clearing its column in every row.

    The result is padded with zero rows to the shape of a.
    """
    M = a.astype(CODE_DTYPE).copy()
    r, c = M.shape
    row = 0
    pivots: list[int] = []
    for col in range(c):
        sub = M[row:, col]
        nz = np.flatnonzero(sub)
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            M[[row, pr]] = M[[pr, row]]
        pv = int(M[row, col])
        if pv != 1:
            M[row, col:] = f.vscale(f.inv(pv), M[row, col:])
        sel = np.flatnonzero(M[:, col])
        sel = sel[sel != row]
        if sel.size:
            factors = M[sel, col]
            if f.e == 1:
                upd = (
                    M[sel, col:].astype(np.int32)
                    - factors.astype(np.int32)[:, None] * M[row, col:].astype(np.int32)
                ) % f.p
                M[sel, col:] = upd.astype(CODE_DTYPE)
            else:
                prod = f.vmul(factors[:, None], M[row, col:][None, :])
                M[sel, col:] = f.vsub(M[sel, col:], prod)
        pivots.append(col)
        row += 1
        if row == r:
            break
    return M, row, tuple(pivots)


def oracle_rref_gf2(a: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """RREF over GF(2) with bit-packed rows, each pivot clearing its column in every row.

    The result is padded with zero rows to the shape of a.
    """
    r, c = a.shape
    # column j is bit (j & 63) of little-endian word j >> 6
    nwords = (c + 63) >> 6
    packed = np.zeros((r, nwords * 8), dtype=np.uint8)
    packed[:, : (c + 7) >> 3] = np.packbits(a.astype(np.uint8), axis=1, bitorder="little")
    P = packed.view("<u8")
    row = 0
    pivots: list[int] = []
    for col in range(c):
        word, bit = col >> 6, np.uint64(1) << np.uint64(col & 63)
        hits = np.flatnonzero(P[:, word] & bit)
        k = int(np.searchsorted(hits, row))
        if k == hits.size:
            continue
        pr = int(hits[k])
        if pr != row:
            # rows row..pr-1 lack the bit, so the row swapped into pr is clear
            P[[row, pr]] = P[[pr, row]]
        # columns left of col are zero in the pivot row
        sel = hits[hits != pr]
        if sel.size:
            P[sel, word:] ^= P[row, word:]
        pivots.append(col)
        row += 1
        if row == r:
            break
    out = np.unpackbits(packed, axis=1, count=c, bitorder="little").astype(CODE_DTYPE)
    return out, row, tuple(pivots)


def _class_of(algebra, f: Cochain):
    return hh_cohomology(algebra, f.arity).class_coords(f.flat())


def oracle_restricted_axioms_check(algebra, degrees) -> dict:
    """restricted_axioms_check one pair of classes at a time, as before stacking."""
    fld = algebra.field
    p = fld.p
    rng = np.random.default_rng(0xC0DE)
    report: dict = {
        "p": p,
        "coboundary_bracket_sign": COBOUNDARY_BRACKET_SIGN,
        "degrees": {},
    }
    failures = []
    for m in degrees:
        if m < 1:
            raise ValueError("restricted structure lives in degrees >= 1")
        if p > 2 and m % 2 == 0:
            report["degrees"][m] = {"skipped": "even degree is outside the odd-p regime"}
            continue
        entry: dict = {}
        coh = hh_cohomology(algebra, m)
        if coh.dim == 0:
            entry.update(
                vacuous=True, power_of_cocycle_is_cocycle=True, ad_power=True,
                scaling=True, additivity=True, class_well_defined=True,
            )
            report["degrees"][m] = entry
            continue
        reps = coh.cochains()
        target = p * (m - 1) + 1
        # the largest basis of the degree, then HH^t, before any insertion
        hh_cohomology(algebra, target + m - 1)
        hh_cohomology(algebra, target)
        powers = [sigma_p(f) for f in reps]
        power_class = functools.cache(lambda i: _class_of(algebra, powers[i]))

        entry["power_of_cocycle_is_cocycle"] = all(s.is_cocycle() for s in powers)

        ok = True
        for i, fa in enumerate(reps):
            for j, gb in enumerate(reps):
                lhs = bracket(powers[i], gb)
                v = gb
                for _ in range(p):
                    v = bracket(fa, v)
                if not np.array_equal(
                    _class_of(algebra, lhs), _class_of(algebra, v)
                ):
                    ok = False
                    entry.setdefault("witness_ad_power", (i, j))
        entry["ad_power"] = ok

        ok = True
        for _ in range(20):
            c = int(rng.integers(1, fld.q))
            i = int(rng.integers(0, len(reps)))
            if sigma_p(reps[i].scale(c)) != powers[i].scale(fld.pow(c, p)):
                ok = False
                entry.setdefault("witness_scaling", (c, i))
        entry["scaling"] = ok

        ok = True
        for i, fa in enumerate(reps):
            for j, gb in enumerate(reps):
                want = fld.vadd(power_class(i), power_class(j))
                for s in jacobson_si(fa, gb):
                    want = fld.vadd(want, _class_of(algebra, s))
                got = _class_of(algebra, sigma_p(fa + gb))
                if not np.array_equal(got, want):
                    ok = False
                    entry.setdefault("witness_additivity", (i, j))
        entry["additivity"] = ok

        ok = True
        for _ in range(10):
            i = int(rng.integers(0, len(reps)))
            emat = rng.integers(0, fld.q, size=(algebra.dim, (algebra.dim - 1) ** (m - 1)))
            shift = coboundary(oracle_normalized_cochain(algebra, m - 1, emat))
            moved = sigma_p(reps[i] + shift)
            if not np.array_equal(_class_of(algebra, moved), power_class(i)):
                ok = False
                entry.setdefault("witness_class_well_defined", i)
        entry["class_well_defined"] = ok

        entry["target_degree"] = target
        report["degrees"][m] = entry
        if not all(
            entry[k]
            for k in (
                "power_of_cocycle_is_cocycle", "ad_power", "scaling",
                "additivity", "class_well_defined",
            )
        ):
            failures.append(m)
    report["all_passed"] = not failures
    return report


def oracle_sigma_class_rank(algebra, m: int, limit: int):
    """Dimension of the span of sigma_p over all degree-m classes, by enumerating them."""
    f = algebra.field
    coh = hh_cohomology(algebra, m)
    target = hh_cohomology(algebra, f.p * (m - 1) + 1)
    if coh.dim == 0:
        return 0
    if f.q**coh.dim > limit:
        return "skipped: enumeration"
    reps_flat = np.stack([c.flat() for c in coh.cochains()])
    span = Subspace.zero(f, target.dim)
    for coeffs in itertools.product(range(f.q), repeat=coh.dim):
        row = np.asarray(coeffs, dtype=np.int8).reshape(1, -1)
        combo = Cochain.from_flat(algebra, m, f.matmul(row, reps_flat).reshape(-1))
        coords = target.class_coords(sigma_p(combo).flat())
        if not span.contains(coords):
            span = span.add(Subspace.from_rows(f, coords.reshape(1, -1)))
            if span.dim == target.dim:
                break
    return span.dim


def oracle_derived_hh1_dim(algebra) -> int:
    """dim of the span of [HH^1, HH^1], one bracket at a time."""
    coh = hh_cohomology(algebra, 1)
    reps = coh.cochains()
    rows = [coh.class_coords(bracket(reps[i], reps[j]).flat())
            for i in range(len(reps)) for j in range(i + 1, len(reps))]
    if not rows:
        return 0
    return Subspace.from_rows(algebra.field, np.stack(rows)).dim


def oracle_defining_relation(kappa):
    """verify_properties' defining relation, one pairing per (i, r, c) triple."""
    a = kappa.algebra
    f = a.field
    exp = f.p**kappa.n
    coh_m = hh_cohomology(a, kappa.m)
    for i in range(coh_m.dim):
        fp = cup_power(coh_m.cochain(i), exp)
        fc = coh_m.cochain(i)
        for r in range(kappa.source.dim):
            for c in range(1, f.q):
                chain = f.vscale(c, kappa.source.rep_vector(r))
                coords = kappa.apply(f.vscale(c, np.eye(kappa.source.dim, dtype=np.int8)[r]))
                lift = f.matmul(coords.reshape(1, -1), kappa.target.reps.data).reshape(-1)
                if pairing(fp, chain) != f.frobenius(pairing(fc, lift), kappa.n):
                    return False, {"cohomology_basis": i, "homology_basis": r, "scalar": c}
    return True, None


def oracle_algebra(field: Field, dim: int, mult: dict, unit, names=None, form=None, kind=None):
    """Algebra from sparse structure constants {(i, j): {k: c}}.

    Each entry is checked and reduced on its own: c mod p over a prime
    field, a code below q when e > 1.
    """
    t = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), row in mult.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise MalformedDocument(f"mult index ({i},{j}) out of range")
        for k, c in row.items():
            if not 0 <= k < dim:
                raise MalformedDocument(f"mult target {k} out of range")
            c = int(c)
            if field.e == 1:
                c %= field.p
            elif not 0 <= c < field.q:
                raise MalformedDocument(f"coefficient code {c} out of range")
            t[i, j, k] = c
    return Algebra(field, dim, t, unit, names, form, kind)


def oracle_group_algebra(field: Field, table, names=None, kind=None):
    t = np.asarray(table, dtype=np.int64)
    ident = _group_check(t)
    n = t.shape[0]
    mult = {(i, j): {int(t[i, j]): 1} for i in range(n) for j in range(n)}
    unit = np.zeros(n, dtype=np.int64)
    unit[ident] = 1
    gram = np.zeros((n, n), dtype=np.int64)
    gram[t == ident] = 1
    names = names or [f"g{i}" for i in range(n)]
    return oracle_algebra(field, n, mult, unit, names, SymmetrizingForm(Mat(field, gram)), kind)


def oracle_truncated_polynomial(field: Field, n: int):
    mult = {(i, j): {i + j: 1} for i in range(n) for j in range(n) if i + j < n}
    unit = [1] + [0] * (n - 1)
    gram = np.fliplr(np.eye(n, dtype=np.int64))
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return oracle_algebra(field, n, mult, unit, names,
                          SymmetrizingForm(Mat(field, gram)), {"name": "truncated_poly", "n": n})


def oracle_trivial_extension(a):
    f, d = a.field, a.dim
    c3 = a.mult_tensor
    mult: dict[tuple[int, int], dict[int, int]] = {}

    def put(i, j, k, v):
        if v:
            mult.setdefault((i, j), {})[k] = f.add(mult.get((i, j), {}).get(k, 0), v)

    for i, j, k in itertools.product(range(d), repeat=3):
        put(i, j, k, int(c3[i, j, k]))  # A * A
    for i, j, t in itertools.product(range(d), repeat=3):
        put(i, d + j, d + t, int(c3[t, i, j]))  # b_i . b_j* = sum_t c[t,i,j] b_t*
        put(d + j, i, d + t, int(c3[i, t, j]))  # b_j* . b_i = sum_t c[i,t,j] b_t*
    unit = np.concatenate([a.unit, np.zeros(d, dtype=CODE_DTYPE)])
    gram = np.zeros((2 * d, 2 * d), dtype=np.int64)
    gram[:d, d:] = np.eye(d, dtype=np.int64)
    gram[d:, :d] = np.eye(d, dtype=np.int64)
    names = list(a.basis_names) + [f"{nm}*" for nm in a.basis_names]
    base = a.kind["name"] if a.kind and "name" in a.kind else "algebra"
    return oracle_algebra(f, 2 * d, mult, unit, names, SymmetrizingForm(Mat(f, gram)),
                          {"name": "trivial_extension_of", "base": base})


def oracle_matrix_algebra(a, n: int):
    f, d = a.field, a.dim

    def idx(k, i, j):
        return (k * n + i) * n + j

    c3 = a.mult_tensor
    mult: dict[tuple[int, int], dict[int, int]] = {}
    for k, l, t in itertools.product(range(d), repeat=3):
        if c3[k, l, t]:
            for i, j, m in itertools.product(range(n), repeat=3):
                mult.setdefault((idx(k, i, j), idx(l, j, m)), {})[idx(t, i, m)] = int(c3[k, l, t])
    dim = d * n * n
    unit = np.zeros(dim, dtype=CODE_DTYPE)
    for i in range(n):
        for k in range(d):
            unit[idx(k, i, i)] = a.unit[k]
    form = None
    if a.form is not None:
        gram = np.zeros((dim, dim), dtype=CODE_DTYPE)
        for i, j, k, l in itertools.product(range(n), range(n), range(d), range(d)):
            gram[idx(k, i, j), idx(l, j, i)] = a.form.gram.data[k, l]
        form = SymmetrizingForm(Mat(f, gram))
    names = [f"{nm}E{i}{j}" for nm in a.basis_names for i in range(n) for j in range(n)]
    base = a.kind["name"] if a.kind and "name" in a.kind else "algebra"
    return oracle_algebra(f, dim, mult, unit, names, form, {"name": "matrix_over", "n": n, "base": base})


def oracle_change_basis(a, g: Mat):
    f, d = a.field, a.dim
    if g.shape != (d, d) or g.field != f:
        raise DimensionMismatch("basis change matrix must be d x d over the same field")
    try:
        ginv = g.inverse()
    except SingularMatrix:
        raise SingularMatrix("basis change matrix is singular") from None
    gg = f.vmul(g.data[:, None, :, None], g.data[None, :, None, :]).reshape(d * d, d * d)
    new_mm = f.matmul(f.matmul(gg, a.mult_matrix.data), ginv.data)
    mult: dict[tuple[int, int], dict[int, int]] = {}
    for r in range(d * d):
        nz = np.flatnonzero(new_mm[r])
        if nz.size:
            mult[(r // d, r % d)] = {int(k): int(new_mm[r, k]) for k in nz}
    unit = f.matmul(a.unit.reshape(1, -1), ginv.data).reshape(-1)
    form = None
    if a.form is not None:
        form = SymmetrizingForm(Mat(f, f.matmul(f.matmul(g.data, a.form.gram.data), g.data.T)))
    return oracle_algebra(f, d, mult, unit, [f"u{i}" for i in range(d)], form, a.kind)
