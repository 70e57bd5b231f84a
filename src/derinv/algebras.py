"""Finite-dimensional associative algebras given by structure constants.

An algebra is a field, a dimension, basis names, a unit vector and a
dense multiplication tensor c[i, j, k] of shape (d, d, d), with
b_i * b_j = sum_k c[i, j, k] b_k.
Validation checks associativity and the two-sided unit exactly and
reports witness triples.  A symmetrizing form is a gram matrix that must
be symmetric, invertible and associative: (ab, c) = (a, bc).

Constructors cover group algebras (from a Cayley table), truncated
polynomial rings k[x]/(x^N), trivial extensions A + A*, and matrix
algebras M_n(A); `change_basis` transports everything along an
invertible matrix.  The JSON document keeps the tensor as sparse rows
[i, j, [[k, c], ...]] of its nonzero entries, with integer coefficients
for prime fields and coefficient lists for e > 1.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import weakref
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DerinvError,
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
    SingularMatrix,
    SizeCapExceeded,
)
from .fields import CODE_DTYPE, Field, GF, is_json_int
from .linalg import Mat, Subspace

ALGEBRA_SCHEMA_VERSION = 1

DEFAULT_SIZE_CAP = 2**27
SIZE_CAP_ENV = "KK_SIZE_CAP"


def resolve_size_cap() -> int:
    """The entry cap: KK_SIZE_CAP from the environment, read at each call, or the default."""
    env = os.environ.get(SIZE_CAP_ENV)
    if not env:
        return DEFAULT_SIZE_CAP
    if not (env.isascii() and env.isdigit()) or int(env) < 1:
        raise DerinvError(f"{SIZE_CAP_ENV} must be a decimal integer >= 1, got {env!r}")
    return int(env)


def _check_cap(entries: int, what: str) -> None:
    cap = resolve_size_cap()
    if entries > cap:
        raise SizeCapExceeded(entries, cap, what)


def memo(entries: Callable[..., int] | None = None, what: Callable[..., str] | None = None):
    """Cache fn(algebra, *args) in algebra._cache under (fn.__name__, *args).

    A capped function gives its entry count and message as
    entries(algebra, *args) and what(algebra, *args).  The cap is checked
    before the cache lookup, so a capped call raises SizeCapExceeded
    whether or not the result is already cached.
    """

    def decorate(fn):
        name = fn.__name__

        @functools.wraps(fn)
        def cached(algebra, *args):
            if entries is not None:
                _check_cap(entries(algebra, *args), what(algebra, *args))
            key = (name, *args)
            out = algebra._cache.get(key)
            if out is None:
                out = algebra._cache[key] = fn(algebra, *args)
            return out

        return cached

    return decorate


class WeakAlgebra:
    """Dataclass field that holds its algebra by weak reference.

    A result cached in ``algebra._cache`` that kept its algebra strongly
    would close a reference cycle, and only the cyclic collector would
    free the algebra and its cache.  Reading the field after the algebra
    is gone raises DerinvError.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            # no class-level value, so the dataclass field has no default
            raise AttributeError(self.slot)
        algebra = getattr(obj, self.slot)()
        if algebra is None:
            raise DerinvError("the algebra of this result has been freed")
        return algebra

    def __set__(self, obj, algebra):
        object.__setattr__(obj, self.slot, weakref.ref(algebra))


class SymmetrizingForm:
    """Symmetric associative non-degenerate bilinear form, as a gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram: Mat):
        self.gram = gram

    def fingerprint(self) -> str:
        f = self.gram.field
        h = hashlib.sha256()
        h.update(f"GF({f.p}^{f.e});{f.modulus if f.e > 1 else ()};".encode())
        h.update(self.gram.data.tobytes())
        return h.hexdigest()[:16]

    def pair(self, a: np.ndarray, b: np.ndarray) -> int:
        f = self.gram.field
        return f.vdot(f.varr(a), self.gram.mul_vec(b))


class Algebra:
    """Immutable algebra over GF(p^e); validated on construction.

    mult is the (dim, dim, dim) array c of structure constants, with
    b_i * b_j = sum_k c[i, j, k] b_k.  Its entries are taken mod p over a
    prime field and must be codes below q when e > 1, as are the unit's.
    """

    def __init__(
        self,
        field: Field,
        dim: int,
        mult: np.ndarray,
        unit: Sequence[int] | np.ndarray,
        basis_names: Sequence[str] | None = None,
        form: SymmetrizingForm | None = None,
        kind: dict | None = None,
    ):
        if dim < 1:
            raise DerinvError("dim must be >= 1")
        self.field = field
        self.dim = dim
        self.basis_names = tuple(basis_names) if basis_names else tuple(f"b{i}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise MalformedDocument("basis name count != dim")
        unit_arr = np.asarray(unit, dtype=np.int64).reshape(-1)
        if field.e > 1 and (unit_arr.min(initial=0) < 0 or unit_arr.max(initial=0) >= field.q):
            raise MalformedDocument("unit coefficient code out of range")
        self.unit = field.varr(unit_arr).copy()
        if self.unit.shape[0] != dim:
            raise MalformedDocument("unit vector length != dim")
        self.unit.setflags(write=False)
        codes = np.array(mult, dtype=np.int64)
        if codes.shape != (dim, dim, dim):
            raise MalformedDocument("mult tensor must be dim^3")
        if field.e > 1:
            bad = codes[(codes < 0) | (codes >= field.q)]
            if bad.size:
                raise MalformedDocument(f"coefficient code {bad[0]} out of range")
        # row i*d + j holds the coordinates of b_i b_j
        self.mult_matrix = Mat(field, field.varr(codes).reshape(dim * dim, dim))
        self.kind = dict(kind) if kind else None
        self._cache: dict = {}
        self._validate_structure()
        self.form = None
        if form is not None:
            self._validate_form(form)
            self.form = form

    @property
    def mult_tensor(self) -> np.ndarray:
        """Read-only view of mult_matrix with axes (i, j, k)."""
        return self.mult_matrix.data.reshape(self.dim, self.dim, self.dim)

    @memo()
    def sparse_mult(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(I, J, K, V) arrays of the nonzero structure constants, in (i, j, k) order."""
        t = self.mult_tensor
        ii, jj, kk = np.nonzero(t)
        return ii, jj, kk, t[ii, jj, kk]

    # -- validation --

    def _validate_structure(self) -> None:
        f, d = self.field, self.dim
        mm = self.mult_matrix.data
        c3 = mm.reshape(d, d, d)
        left = f.matmul(mm, c3.reshape(d, d * d))  # ((i,j),(l,t))
        right = f.matmul(mm, c3.transpose(1, 0, 2).reshape(d, d * d))  # ((j,l),(i,t))
        left4 = left.reshape(d, d, d, d)
        right4 = right.reshape(d, d, d, d).transpose(2, 0, 1, 3)
        if not np.array_equal(left4, right4):
            i, j, l = np.argwhere((left4 != right4).any(axis=3))[0]
            raise NotAssociative(
                f"(b{i}*b{j})*b{l} != b{i}*(b{j}*b{l})", (int(i), int(j), int(l))
            )
        lu = f.matmul(self.unit.reshape(1, -1), c3.reshape(d, d * d)).reshape(d, d)
        ru = f.matmul(self.unit.reshape(1, -1), c3.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d)
        eye = np.eye(d, dtype=CODE_DTYPE)
        if not np.array_equal(lu, eye):
            i = int(np.argwhere((lu != eye).any(axis=1))[0][0])
            raise NoUnit(f"unit fails on the left at basis {i}")
        if not np.array_equal(ru, eye):
            i = int(np.argwhere((ru != eye).any(axis=1))[0][0])
            raise NoUnit(f"unit fails on the right at basis {i}")

    def _validate_form(self, form: SymmetrizingForm) -> None:
        f, d = self.field, self.dim
        g = form.gram
        if g.field != f or g.shape != (d, d):
            raise DimensionMismatch("gram matrix shape/field mismatch")
        if g != g.T:
            raise FormNotSymmetric("gram matrix is not symmetric")
        if g.rank() < d:
            raise FormDegenerate("gram matrix is singular")
        mm = self.mult_matrix.data
        c3 = mm.reshape(d, d, d)
        lhs = f.matmul(mm, g.data).reshape(d, d, d)  # (i,j,l): (b_i b_j, b_l)
        rhs = f.matmul(g.data, c3.transpose(2, 0, 1).reshape(d, d * d)).reshape(d, d, d)
        if not np.array_equal(lhs, rhs):
            i, j, l = np.argwhere(lhs != rhs)[0]
            raise FormNotAssociative(
                f"(b{i}*b{j}, b{l}) != (b{i}, b{j}*b{l})", (int(i), int(j), int(l))
            )

    def require_form(self) -> SymmetrizingForm:
        if self.form is None:
            raise FormRequired("this operation needs a symmetrizing form")
        return self.form

    # -- element helpers --

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=CODE_DTYPE)
        v[i] = 1
        return v

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of (..., d) stacks of elements, broadcast; one Field.matmul."""
        f, d = self.field, self.dim
        a, b = f.varr(a), f.varr(b)
        if a.shape[-1:] != (d,) or b.shape[-1:] != (d,):
            raise DimensionMismatch(f"elements of length {d} expected, got {a.shape} and {b.shape}")
        outer = f.vmul(a[..., :, None], b[..., None, :])
        return f.matmul(outer.reshape(-1, d * d), self.mult_matrix.data).reshape(outer.shape[:-1])

    def power(self, a: np.ndarray, n: int) -> np.ndarray:
        """n-th powers of a (..., d) stack of elements, by square and multiply.

        Starts at the lowest set bit of n and squares no further than the
        highest, so a^2 is one product.
        """
        if n < 0:
            raise DerinvError("negative element powers are not defined")
        base = self.field.varr(a)
        if n == 0:
            return np.broadcast_to(self.unit, base.shape).copy()
        while not n & 1:
            base = self.multiply(base, base)
            n >>= 1
        result = base.copy()
        while n := n >> 1:
            base = self.multiply(base, base)
            if n & 1:
                result = self.multiply(result, base)
        return result

    def p_power(self, a: np.ndarray, n: int) -> np.ndarray:
        """a^(p^n) for a (..., d) stack a, by n repeated p-th powers."""
        x = self.field.varr(a)
        for _ in range(n):
            x = self.power(x, self.field.p)
        return x

    # -- canonical subspaces --

    @memo()
    def center(self) -> Subspace:
        """Kernel of x -> (b_i x - x b_i)_i, one (d^2, d) matrix with rows (i, k)."""
        d = self.dim
        t = self.mult_tensor
        diffs = self.field.vsub(t, t.transpose(1, 0, 2)).transpose(0, 2, 1).reshape(d * d, d)
        return Subspace.from_rows(self.field, Mat(self.field, diffs).kernel())

    @memo()
    def commutator_space(self) -> Subspace:
        d = self.dim
        t = self.mult_tensor
        diffs = self.field.vsub(t, t.transpose(1, 0, 2)).reshape(d * d, d)
        return Subspace.from_rows(self.field, Mat(self.field, diffs))

    def __repr__(self) -> str:
        tag = f" {self.kind['name']}" if self.kind and "name" in self.kind else ""
        return f"Algebra(dim={self.dim}, {self.field}{tag}, form={'yes' if self.form else 'no'})"


# -- constructors --


def _group_check(table: np.ndarray) -> int:
    """Validate group axioms for a Cayley table; return the identity index."""
    n = table.shape[0]
    if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
        raise NotAGroup("table is not a closed n x n index table")
    a = table[table]  # (i,j,k) -> t[t[i,j],k]
    b = table[:, table]  # (i,j,k) -> t[i,t[j,k]]
    if not np.array_equal(a, b):
        i, j, k = np.argwhere(a != b)[0]
        raise NotAGroup(f"associativity fails at ({i},{j},{k})")
    ident = None
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity")
    for i in range(n):
        if not ((table[i] == ident).any() and (table[:, i] == ident).any()):
            raise NotAGroup(f"element {i} has no inverse")
    return ident


def make_group_algebra(field: Field, table: Sequence[Sequence[int]] | np.ndarray,
                       names: Sequence[str] | None = None, kind: dict | None = None) -> Algebra:
    """Group algebra kG with the symmetrizing form (g, h) = [gh = 1]."""
    t = np.asarray(table, dtype=np.int64)
    ident = _group_check(t)
    n = t.shape[0]
    mult = np.zeros((n, n, n), dtype=CODE_DTYPE)
    i, j = np.indices((n, n))
    mult[i, j, t] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[ident] = 1
    gram = np.zeros((n, n), dtype=np.int64)
    gram[t == ident] = 1
    names = names or [f"g{i}" for i in range(n)]
    return Algebra(field, n, mult, unit, names, SymmetrizingForm(Mat(field, gram)), kind)


def cyclic_table(k: int) -> np.ndarray:
    if k < 1:
        raise NotAGroup("cyclic order must be >= 1")
    i = np.arange(k)
    return (i[:, None] + i[None, :]) % k


def klein_table() -> np.ndarray:
    # C2 x C2 with elements coded by bit pairs
    i = np.arange(4)
    return i[:, None] ^ i[None, :]


def symmetric_table(n: int) -> np.ndarray:
    """Cayley table of S_n, permutations in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    t = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            t[i, j] = index[tuple(p[q[x]] for x in range(n))]  # p after q
    return t


def make_truncated_polynomial(field: Field, n: int) -> Algebra:
    """k[x]/(x^n) with the form (x^i, x^j) = [i + j = n - 1]."""
    if n < 1:
        raise DerinvError("truncation order must be >= 1")
    mult = np.zeros((n, n, n), dtype=CODE_DTYPE)
    i, j = np.indices((n, n))
    low = i + j < n
    mult[i[low], j[low], (i + j)[low]] = 1
    unit = [1] + [0] * (n - 1)
    gram = np.fliplr(np.eye(n, dtype=np.int64))
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return Algebra(field, n, mult, unit, names,
                   SymmetrizingForm(Mat(field, gram)), {"name": "truncated_poly", "n": n})


def make_trivial_extension(a: Algebra) -> Algebra:
    """T(A) = A + A* with (a,f)(b,g) = (ab, a.g + f.b) and form f(b) + g(a)."""
    f, d = a.field, a.dim
    c = a.mult_tensor
    mult = np.zeros((2 * d, 2 * d, 2 * d), dtype=CODE_DTYPE)
    mult[:d, :d, :d] = c  # A * A
    mult[:d, d:, d:] = c.transpose(1, 2, 0)  # b_i . b_j* = sum_t c[t,i,j] b_t*
    mult[d:, :d, d:] = c.transpose(2, 0, 1)  # b_j* . b_i = sum_t c[i,t,j] b_t*
    unit = np.concatenate([a.unit, np.zeros(d, dtype=CODE_DTYPE)])
    gram = np.zeros((2 * d, 2 * d), dtype=np.int64)
    gram[:d, d:] = np.eye(d, dtype=np.int64)
    gram[d:, :d] = np.eye(d, dtype=np.int64)
    names = list(a.basis_names) + [f"{nm}*" for nm in a.basis_names]
    base = a.kind["name"] if a.kind and "name" in a.kind else "algebra"
    return Algebra(f, 2 * d, mult, unit, names, SymmetrizingForm(Mat(f, gram)),
                   {"name": "trivial_extension_of", "base": base})


def make_matrix_algebra(a: Algebra, n: int) -> Algebra:
    """M_n(A) with basis b_k E_ij and form (x E_ij, y E_kl) = (x,y)[i=l][j=k]."""
    if n < 1:
        raise DerinvError("matrix size must be >= 1")
    f, d = a.field, a.dim
    dim = d * n * n
    eye = np.eye(n, dtype=CODE_DTYPE)
    # basis index (k*n + i)*n + j for b_k E_ij; b_k E_ij . b_l E_jm = sum_t c[k,l,t] b_t E_im
    mult = np.einsum("klt,ix,jy,mz->kijlymtxz", a.mult_tensor, eye, eye, eye).reshape(dim, dim, dim)
    unit = np.einsum("k,ij->kij", a.unit, eye).reshape(dim)
    form = None
    if a.form is not None:
        # (b_k E_ij, b_l E_yx) = (b_k, b_l) [x = i][y = j]
        gram = np.einsum("kl,ix,jy->kijlyx", a.form.gram.data, eye, eye).reshape(dim, dim)
        form = SymmetrizingForm(Mat(f, gram))
    names = [f"{nm}E{i}{j}" for nm in a.basis_names for i in range(n) for j in range(n)]
    base = a.kind["name"] if a.kind and "name" in a.kind else "algebra"
    return Algebra(f, dim, mult, unit, names, form, {"name": "matrix_over", "n": n, "base": base})


def change_basis(a: Algebra, g: Mat) -> Algebra:
    """Transport structure along new basis u_i = sum_j g[i,j] b_j."""
    f, d = a.field, a.dim
    if g.shape != (d, d) or g.field != f:
        raise DimensionMismatch("basis change matrix must be d x d over the same field")
    try:
        ginv = g.inverse()
    except SingularMatrix:
        raise SingularMatrix("basis change matrix is singular") from None
    gg = f.vmul(g.data[:, None, :, None], g.data[None, :, None, :]).reshape(d * d, d * d)
    new_mm = f.matmul(f.matmul(gg, a.mult_matrix.data), ginv.data)
    unit = f.matmul(a.unit.reshape(1, -1), ginv.data).reshape(-1)
    form = None
    if a.form is not None:
        form = SymmetrizingForm(Mat(f, f.matmul(f.matmul(g.data, a.form.gram.data), g.data.T)))
    names = [f"u{i}" for i in range(d)]
    return Algebra(f, d, new_mm.reshape(d, d, d), unit, names, form, a.kind)


# -- JSON schema --


def _field_to_json(f: Field) -> dict:
    out = {"p": f.p, "e": f.e}
    if f.e > 1:
        out["modulus"] = list(f.modulus)
    return out


def _field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "p" not in obj:
        raise MalformedDocument("field block must be {p, e, [modulus]}")
    p = obj["p"]
    e = obj.get("e", 1)
    if not is_json_int(p) or not is_json_int(e):
        raise MalformedDocument("field p/e must be integers")
    mod = obj.get("modulus")
    if mod is not None and not (isinstance(mod, list) and all(is_json_int(c) for c in mod)):
        raise MalformedDocument("field modulus must be a list of integers")
    try:
        if mod is not None:
            return Field(p, e, tuple(mod))
        return GF(p, e)
    except DerinvError as exc:
        raise MalformedDocument(str(exc)) from None


def algebra_to_json(a: Algebra) -> dict:
    f = a.field
    mult_rows: dict[tuple[int, int], list] = {}
    for i, j, k, c in zip(*(x.tolist() for x in a.sparse_mult())):
        mult_rows.setdefault((i, j), []).append([k, f.coeff_to_json(c)])
    doc = {
        "schema_version": ALGEBRA_SCHEMA_VERSION,
        "field": _field_to_json(f),
        "dim": a.dim,
        "basis": list(a.basis_names),
        "unit": [f.coeff_to_json(int(c)) for c in a.unit],
        "mult": [[i, j, row] for (i, j), row in mult_rows.items()],
    }
    if a.form is not None:
        doc["form"] = [[f.coeff_to_json(int(c)) for c in row] for row in a.form.gram.data]
    if a.kind:
        doc["kind"] = a.kind
    return doc


def algebra_from_json(doc) -> Algebra:
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")
    version = doc.get("schema_version", ALGEBRA_SCHEMA_VERSION)
    if not is_json_int(version) or version != ALGEBRA_SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"unsupported schema_version {version}")
    for key in ("field", "dim", "unit", "mult"):
        if key not in doc:
            raise MalformedDocument(f"missing key {key!r}")
    f = _field_from_json(doc["field"])
    dim = doc["dim"]
    if not is_json_int(dim) or dim < 1:
        raise MalformedDocument("dim must be a positive integer")
    names = doc.get("basis") or [f"b{i}" for i in range(dim)]
    if not isinstance(names, list) or len(names) != dim:
        raise MalformedDocument("basis must list one name per dimension")
    try:
        unit = [f.coeff_from_json(c) for c in doc["unit"]]
    except DerinvError as exc:
        raise MalformedDocument(f"bad unit: {exc}") from None
    if len(unit) != dim:
        raise MalformedDocument("unit vector length != dim")
    if not isinstance(doc["mult"], list):
        raise MalformedDocument("mult must be a list of [i, j, entries]")
    mult = np.zeros((dim, dim, dim), dtype=CODE_DTYPE)
    rows_seen = set()
    for row in doc["mult"]:
        if not (isinstance(row, list) and len(row) == 3 and isinstance(row[2], list)):
            raise MalformedDocument(f"bad mult row {row!r}")
        i, j, entries = row
        if not (is_json_int(i) and is_json_int(j)):
            raise MalformedDocument(f"bad mult indices in {row!r}")
        if (i, j) in rows_seen:
            raise MalformedDocument(f"duplicate mult row ({i},{j})")
        rows_seen.add((i, j))
        if not (0 <= i < dim and 0 <= j < dim):
            raise MalformedDocument(f"mult index ({i},{j}) out of range")
        targets = set()
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 2 and is_json_int(entry[0])):
                raise MalformedDocument(f"bad mult entry {entry!r}")
            k, c = entry
            if k in targets:
                raise MalformedDocument(f"duplicate target {k} in mult row ({i},{j})")
            targets.add(k)
            if not 0 <= k < dim:
                raise MalformedDocument(f"mult target {k} out of range")
            try:
                mult[i, j, k] = f.coeff_from_json(c)
            except DerinvError as exc:
                raise MalformedDocument(f"bad coefficient: {exc}") from None
    form = None
    if "form" in doc and doc["form"] is not None:
        rows = doc["form"]
        if not (isinstance(rows, list) and len(rows) == dim):
            raise MalformedDocument("form must be a dim x dim matrix")
        try:
            gram = [[f.coeff_from_json(c) for c in r] for r in rows]
        except DerinvError as exc:
            raise MalformedDocument(f"bad form: {exc}") from None
        if any(len(r) != dim for r in gram):
            raise MalformedDocument("form must be a dim x dim matrix")
        form = SymmetrizingForm(Mat(f, np.array(gram, dtype=np.int64)))
    kind = doc.get("kind")
    if kind is not None and not isinstance(kind, dict):
        raise MalformedDocument("kind must be an object")
    return Algebra(f, dim, mult, unit, names, form, kind)


def save_algebra(a: Algebra, path: str | Path) -> None:
    Path(path).write_text(json.dumps(algebra_to_json(a), indent=1, sort_keys=True) + "\n")


def load_algebra(path: str | Path) -> Algebra:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    return algebra_from_json(doc)
