"""Exact dense linear algebra over GF(p^e).

Matrices are immutable wrappers around int8 code arrays.  Row reduction
is leftmost-pivot RREF with unit leading entries, so the reduced form of
a row space is canonical and subspaces compare by array equality.  For
GF(2) rows are bit-packed into 64-bit words during elimination;
everything else runs on the generic table/modular path.  Matrix
products go through float64 BLAS, which is exact at these sizes.

The generic path picks its method by shape.  A matrix with more rows
than columns and more than 64 rows is eliminated 64 rows at a time, any
other matrix pivot by pivot over all its rows.  The GF(2) path always
takes chunks, of as many rows as there are columns without a pivot yet
and at least 2^17 entries' worth, so a matrix that is not tall, or is
small, is one chunk.  Each chunk is reduced against the RREF R of the
rows before it: with one matrix product on the generic path, and over
GF(2) by XORing in R's packed rows wherever the chunk has a 1 at R's
pivot columns.  That leaves each row zero on R's pivot columns, and a
row in R's row space zero everywhere.  Such rows drop out before the
per-pivot loop, which runs on the rows that are left, and the new pivot
columns are cleared from R the same way.  It stops once every column
has a pivot.  The RREF is unique, so every method gives the same array.

A sparse matrix given by its nonzero entries is eliminated one connected
component of its support at a time, with the same canonical result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, SingularForm, SingularMatrix
from .fields import _PANEL, CODE_DTYPE, Field


class Mat:
    """Immutable matrix of field-element codes."""

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data: np.ndarray):
        arr = field.varr(data)
        if arr.ndim != 2:
            raise DimensionMismatch(f"matrix must be 2-D, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=CODE_DTYPE)
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    # -- constructors --

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return Mat(field, np.zeros((rows, cols), dtype=CODE_DTYPE))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return Mat(field, np.eye(n, dtype=CODE_DTYPE))

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence[int]]) -> "Mat":
        return Mat(field, np.array(rows, dtype=np.int64).reshape(len(rows), -1))

    # -- basic dims --

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def _check_same(self, other: "Mat") -> None:
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch {self.shape} vs {other.shape}")

    # -- arithmetic --

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat(self.field, self.field.vadd(self.data, other.data))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat(self.field, self.field.vsub(self.data, other.data))

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.field.vneg(self.data))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        return Mat(self.field, self.field.matmul(self.data, other.data))

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, self.field.vscale(c, self.data))

    def mul_vec(self, v: np.ndarray) -> np.ndarray:
        """Matrix times column vector of codes."""
        v = self.field.varr(v).reshape(-1)
        if v.shape[0] != self.cols:
            raise DimensionMismatch(f"vector length {v.shape[0]} vs cols {self.cols}")
        return self.field.matmul(self.data, v.reshape(-1, 1)).reshape(-1)

    @property
    def T(self) -> "Mat":
        return Mat(self.field, self.data.T)

    def frobenius(self, n: int = 1) -> "Mat":
        return Mat(self.field, self.field.vfrob(self.data, n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.field, self.data.tobytes(), self.shape))

    def __repr__(self) -> str:
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    # -- elimination --

    def rref(self) -> tuple["Mat", int, tuple[int, ...]]:
        """Reduced row echelon form: (R, rank, pivot columns)."""
        out, rank, pivots = _rref_array(self.field, self.data)
        return Mat(self.field, out), rank, pivots

    def rank(self) -> int:
        a = self.data if self.rows <= self.cols else self.data.T
        return _rref_array(self.field, a)[1]

    def kernel(self) -> "Mat":
        """Canonical RREF basis (rows) of the right null space.

        Eliminating the column-reversed matrix makes each free-column
        basis vector lead at its free column with the remaining entries
        at later (pivot) columns only, so the reversed read-off is
        already the leftmost-pivot RREF.
        """
        R, _, pivots = _rref_array(self.field, self.data[:, ::-1])
        basis = _null_rows(self.field, R, pivots, self.cols)
        return Mat(self.field, basis[::-1, ::-1])

    def solve(self, b: np.ndarray) -> np.ndarray | None:
        """One solution x of self @ x = b, or None if inconsistent."""
        f = self.field
        b = f.varr(b).reshape(-1)
        if b.shape[0] != self.rows:
            raise DimensionMismatch("rhs length mismatch")
        aug = np.concatenate([self.data, b.reshape(-1, 1)], axis=1)
        R, rank, pivots = _rref_array(f, aug)
        if pivots and pivots[-1] == self.cols:
            return None
        x = np.zeros(self.cols, dtype=CODE_DTYPE)
        if rank:
            x[list(pivots)] = R[:rank, self.cols]
        return x

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise SingularMatrix("only square matrices invert")
        n = self.rows
        aug = np.concatenate([self.data, np.eye(n, dtype=CODE_DTYPE)], axis=1)
        R, rank, pivots = _rref_array(self.field, aug)
        if rank < n or pivots[:n] != tuple(range(n)):
            raise SingularMatrix(f"rank {rank} < {n}")
        return Mat(self.field, R[:n, n:])


def _rref_array(f: Field, a: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    if a.shape[0] == 0 or a.shape[1] == 0:
        return a.astype(CODE_DTYPE).copy(), 0, ()
    if f.p == 2 and f.e == 1:
        return _rref_gf2(a)
    return _rref_generic(f, a)


# rows per chunk of the generic chunked elimination; a matrix with more
# rows than this and than columns is eliminated in chunks
_CHUNK = 64
# entries of a GF(2) matrix that one chunk holds at least
_CHUNK_ENTRIES = 1 << 17
# uint64 words that one gather of packed GF(2) rows copies at most
_GATHER = 1 << 17
# bit j & 63 of a packed word, for column j
_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _pack(a: np.ndarray) -> np.ndarray:
    """The rows of a GF(2) array as uint64 words: column j is bit j & 63 of word j >> 6."""
    r, c = a.shape
    packed = np.zeros((r, ((c + 63) >> 6) * 8), dtype=np.uint8)
    packed[:, :(c + 7) >> 3] = np.packbits(a, axis=1, bitorder="little")
    return packed.view("<u8")


def _unpack(P: np.ndarray, c: int) -> np.ndarray:
    """The first c columns of packed rows, as a 0/1 uint8 array."""
    return np.unpackbits(P.view(np.uint8), axis=1, count=c, bitorder="little")


def _gf2_pivots(P: np.ndarray) -> list[int]:
    """RREF of the packed rows P in place, one pivot at a time; the pivot columns.

    Only a column where some row has a bit can hold a pivot, so only
    those are scanned, and the scan stops once every row has a pivot.
    """
    n = P.shape[0]
    used = np.bitwise_or.reduce(P, axis=0).view(np.uint8)
    row = 0
    pivots: list[int] = []
    for col in np.unpackbits(used, bitorder="little").nonzero()[0].tolist():
        word = col >> 6
        hits = (P[:, word] & _BITS[col & 63]).nonzero()[0]
        k = int(hits.searchsorted(row))
        if k == hits.size:
            continue
        # rows from row on are zero left of col, so only the words from
        # word on change.  The pivot row pr clears itself with the other
        # hits and moves to row; row, which lacks the bit like every row
        # before pr, moves to pr.
        pr = int(hits[k])
        prow = P[pr, word:].copy()
        P[hits, word:] ^= prow
        if pr != row:
            P[pr] = P[row]
        P[row, word:] = prow
        pivots.append(col)
        row += 1
        if row == n:
            break
    return pivots


def _xor_rows(T: np.ndarray, sel: np.ndarray, S: np.ndarray) -> None:
    """T[i] ^= S[j] for every nonzero sel[i, j], over packed rows T and S.

    The rows of S are gathered at most _GATHER words at a time.
    """
    i, j = np.nonzero(sel)
    step = max(1, _GATHER // S.shape[1])
    for s in range(0, i.size, step):
        ii = i[s:s + step]
        heads = np.flatnonzero(np.r_[True, ii[1:] != ii[:-1]])
        T[ii[heads]] ^= np.bitwise_xor.reduceat(S[j[s:s + step]], heads, axis=0)


def _rref_gf2(a: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """RREF over GF(2), a chunk of rows at a time against the RREF R found so far.

    R is kept as packed rows.  A chunk has as many rows as R has free
    columns and at least _CHUNK_ENTRIES entries' worth, so a matrix that
    is not tall, or is small, is one chunk.  XORing R[j] into each row
    with a 1 at R's pivot column j leaves the row zero on every pivot
    column, and a row in R's row space zero everywhere; those rows are
    dropped, and the per-pivot loop runs on what is left.  The new pivot
    columns are cleared from R the same way.  It stops once every column
    has a pivot.
    """
    r, c = a.shape
    R = np.zeros((min(r, c), (c + 63) >> 6), dtype=np.uint64)
    piv = np.zeros(c, dtype=np.int64)
    k = start = 0
    while start < r and k < c:
        chunk = a[start:start + max(c - k, _CHUNK_ENTRIES // c)]
        start += chunk.shape[0]
        P = _pack(chunk)
        if k:
            _xor_rows(P, chunk[:, piv[:k]], R[:k])
            P = P[P.any(axis=1)]
        new = np.array(_gf2_pivots(P), dtype=np.int64)
        if not new.size:
            continue
        if k:
            bits = R[:k, new >> 6] >> (new & 63).astype(np.uint64)
            _xor_rows(R[:k], bits & np.uint64(1), P)
        R[k:k + new.size], piv[k:k + new.size] = P[:new.size], new
        k += new.size
    order = np.argsort(piv[:k])
    out = np.zeros((r, c), dtype=CODE_DTYPE)
    out[:k] = _unpack(R[order], c)
    return out, k, tuple(piv[order].tolist())


def _rref_generic(f: Field, a: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    M = a.astype(CODE_DTYPE).copy()
    r, c = M.shape
    if r > c and r > _CHUNK:
        return _rref_chunked(f, M)
    return _rref_rows(f, M)


def _rref_rows(f: Field, M: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """RREF of M in place, one pivot at a time over every row.

    A column that is zero in every row stays zero, so it is not scanned.
    """
    r, c = M.shape
    row = 0
    pivots: list[int] = []
    for col in M.any(axis=0).nonzero()[0].tolist():
        nz = M[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            M[row], M[pr] = M[pr], M[row].copy()
        pv = int(M[row, col])
        if pv != 1:
            M[row, col:] = f.vscale(f.inv(pv), M[row, col:])
        sel = M[:, col].nonzero()[0]
        sel = sel[sel != row]
        if sel.size:
            factors = M[sel, col]
            if f.e == 1:
                # magnitudes below p^2 < 2^15 before the remainder
                prod = np.multiply.outer(factors, M[row, col:], dtype=np.int16)
                M[sel, col:] = (M[sel, col:] - prod) % f.p
            else:
                prod = f.vmul(factors[:, None], M[row, col:][None, :])
                M[sel, col:] = f.vsub(M[sel, col:], prod)
        pivots.append(col)
        row += 1
        if row == r:
            break
    return M, row, tuple(pivots)


def _rref_chunked(f: Field, M: np.ndarray) -> tuple[np.ndarray, int, tuple[int, ...]]:
    """RREF of a tall M, _CHUNK rows at a time against the RREF R found so far.

    A chunk loses its part in R's row space with one product, leaving
    rows that vanish on R's pivot columns.  The rows that vanish
    everywhere are dropped, the rest are eliminated on the free columns
    alone, R is cleared on the new pivot columns with a second product,
    and the rows of both are merged by leading column.
    """
    r, c = M.shape
    R = np.zeros((0, c), dtype=CODE_DTYPE)
    piv = np.zeros(0, dtype=np.int64)
    for start in range(0, r, _CHUNK):
        free = np.ones(c, dtype=bool)
        free[piv] = False
        free = np.flatnonzero(free)
        C = M[start:start + _CHUNK, free]
        if piv.size:
            C = f.vsub(C, f.matmul(M[start:start + _CHUNK, piv], R[:, free]))
            C = C[C.any(axis=1)]
            if not C.shape[0]:
                continue
        N, k, new = _rref_rows(f, C)
        if not k:
            continue
        N, new = N[:k], free[list(new)]
        if piv.size:
            R[:, free] = f.vsub(R[:, free], f.matmul(R[:, new], N))
        rows = np.zeros((k, c), dtype=CODE_DTYPE)
        rows[:, free] = N
        piv = np.concatenate([piv, new])
        order = np.argsort(piv)
        R, piv = np.concatenate([R, rows])[order], piv[order]
        if piv.size == c:
            break
    M[:] = 0
    M[:piv.size] = R
    return M, int(piv.size), tuple(int(j) for j in piv)


def _null_rows(f: Field, R: np.ndarray, pivots: Sequence[int], n: int) -> np.ndarray:
    """Basis rows of {x : R x = 0} for R in RREF with the given pivots.

    One row per free column j: 1 at j and -R[i, j] at pivots[i].  No
    elimination is needed, but the rows are not reduced in general.
    """
    piv = np.asarray(pivots, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    basis = np.zeros((free.size, n), dtype=CODE_DTYPE)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = f.vneg(R[: piv.size][:, free]).T
    return basis


# -- sparse matrices, one connected component at a time --
#
# A sparse matrix is (rows, cols, vals) index arrays with each (row, col)
# at most once and no zero value.  Rows and columns are the nodes of its
# support graph and every entry is an edge; the matrix is block diagonal
# over the connected components, so its kernel and its image are direct
# sums of those of the dense blocks.


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label of the connected component of each of n nodes, edges a[i] -- b[i].

    Min-label hooking with pointer jumping: each round hooks every root
    onto the smallest root next to its tree, then flattens the trees.
    The label of a component is its smallest node.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        if np.array_equal(la, lb):
            return label
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)
        np.minimum.at(label, lb, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable sort of a keys array, as (order, bounds, pos).

    Run k of equal keys is order[bounds[k]:bounds[k + 1]], and pos[i] is
    the place of item i within its run.  An empty array has no runs.
    """
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    if not k.size:
        return order, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    bounds = np.flatnonzero(np.r_[True, k[1:] != k[:-1], True])
    pos = np.empty(keys.size, dtype=np.int64)
    pos[order] = np.arange(keys.size) - np.repeat(bounds[:-1], np.diff(bounds))
    return order, bounds, pos


def _blocks(shape: tuple[int, int], coo, transpose: bool):
    """Dense blocks of a sparse matrix, one per component of its support.

    Yields (rows, cols, block): the component's row and column indices,
    ascending, and its entries as a dense array, transposed if asked.
    Rows and columns without entries belong to no block.
    """
    rows, cols, vals = coo
    if not rows.size:
        return
    nr = shape[0]
    label = _components(nr + shape[1], rows, nr + cols)
    used_r, used_c = np.unique(rows), np.unique(cols)
    # every component holds an entry, a row and a column, so the three
    # sorts by label list the components in the same order
    r_order, r_bounds, r_pos = _runs(label[used_r])
    c_order, c_bounds, c_pos = _runs(label[nr + used_c])
    e_order, e_bounds, _ = _runs(label[rows])
    local_r = np.empty(nr, dtype=np.int64)
    local_r[used_r] = r_pos
    local_c = np.empty(shape[1], dtype=np.int64)
    local_c[used_c] = c_pos
    for k in range(e_bounds.size - 1):
        r = used_r[r_order[r_bounds[k]:r_bounds[k + 1]]]
        c = used_c[c_order[c_bounds[k]:c_bounds[k + 1]]]
        e = e_order[e_bounds[k]:e_bounds[k + 1]]
        if transpose:
            block = np.zeros((c.size, r.size), dtype=CODE_DTYPE)
            block[local_c[cols[e]], local_r[rows[e]]] = vals[e]
        else:
            block = np.zeros((r.size, c.size), dtype=CODE_DTYPE)
            block[local_r[rows[e]], local_c[cols[e]]] = vals[e]
        yield r, c, block


def _embed_rref(n: int, parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Rows of several RREFs with disjoint column supports, as one RREF.

    Each part is (cols, R): R in RREF over the ascending columns cols of
    an n-dimensional space.  The rows are embedded and sorted by leading
    column, which gives the unique RREF of the sum of the row spaces.
    """
    parts = [(c, R) for c, R in parts if R.shape[0]]
    if not parts:
        return np.zeros((0, n), dtype=CODE_DTYPE)
    lead = np.concatenate([c[np.argmax(R != 0, axis=1)] for c, R in parts])
    where = np.empty(lead.size, dtype=np.int64)
    where[np.argsort(lead)] = np.arange(lead.size)
    out = np.zeros((lead.size, n), dtype=CODE_DTYPE)
    start = 0
    for c, R in parts:
        out[np.ix_(where[start:start + R.shape[0]], c)] = R
        start += R.shape[0]
    return out


def _block_kernel(f: Field, shape: tuple[int, int], coo,
                  labels: np.ndarray | None = None) -> Mat:
    """Canonical RREF basis of the right null space of a sparse matrix.

    The same rows as Mat.kernel of the dense matrix; a column without
    entries contributes its unit vector.  If labels is given (one entry
    per column), each column of a block is labelled there with the
    block's first column; columns without entries keep their label.
    """
    empty = np.ones(shape[1], dtype=bool)
    empty[coo[1]] = False
    empty = np.flatnonzero(empty)
    parts = [(empty, np.eye(empty.size, dtype=CODE_DTYPE))]
    for _, c, block in _blocks(shape, coo, transpose=False):
        parts.append((c, Mat(f, block).kernel().data))
        if labels is not None:
            labels[c] = c[0]
    return Mat(f, _embed_rref(shape[1], parts))


def _block_image(f: Field, shape: tuple[int, int], coo) -> "Subspace":
    """Column space of a sparse matrix, the same as Subspace.from_rows of its transpose."""
    parts = []
    for r, _, block in _blocks(shape, coo, transpose=True):
        R, rank, _ = _rref_array(f, block)
        parts.append((r, R[:rank]))
    return Subspace(f, shape[0], Mat(f, _embed_rref(shape[0], parts)))


def _block_rank(f: Field, shape: tuple[int, int], coo) -> int:
    """Rank of a sparse matrix, summed over its blocks; each block is dropped once eliminated."""
    return sum(_rref_array(f, block)[1] for _, _, block in _blocks(shape, coo, transpose=True))


# parts narrower than this many indices share a bin with their neighbours
_BIN = 512


def _bin_labels(labels: np.ndarray) -> np.ndarray:
    """A coarser partition: the parts, in label order, cut into bins of about _BIN indices.

    A part goes to bin (indices in the parts before it) // _BIN, so a
    part of _BIN indices or more shares its bin only with smaller parts
    before it, and range(n) with n <= _BIN is one bin.  Bins are
    labelled 0, 1, ...
    """
    order, bounds, _ = _runs(labels)
    sizes = np.diff(bounds)
    out = np.empty_like(labels)
    out[order] = np.repeat((np.cumsum(sizes) - sizes) // _BIN, sizes)
    return out


# -- subspaces --


def _rows_inside(f: Field, z: np.ndarray, piv: np.ndarray, b: np.ndarray) -> bool:
    """Whether every row of b lies in the row space of z, an RREF with pivots piv.

    A vector lies there iff it is the combination of the rows of z given
    by its entries at their pivots; those rows are the identity there,
    so only the free columns need the product.
    """
    free = np.ones(z.shape[1], dtype=bool)
    free[piv] = False
    return np.array_equal(f.matmul(b[:, piv], z[:, free]), b[:, free])


@dataclass(frozen=True)
class Subspace:
    """Row space with a canonical RREF basis; equality is basis equality."""

    field: Field
    ambient_dim: int
    basis: Mat  # dim x ambient_dim, RREF, no zero rows

    @staticmethod
    def from_rows(field: Field, rows: Mat | np.ndarray | Sequence[Sequence[int]]) -> "Subspace":
        if isinstance(rows, Mat):
            field = rows.field
            arr = rows.data
        else:
            arr = field.varr(np.array(rows, dtype=np.int64))
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
        if arr.shape[0] == 0:
            return Subspace.zero(field, arr.shape[1])
        R, rank, _ = _rref_array(field, arr)
        return Subspace(field, arr.shape[1], Mat(field, R[:rank]))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Mat.zeros(field, 0, ambient_dim))

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, Mat.identity(field, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> np.ndarray:
        """Leading column of each basis row; the nonzero mask is built a row panel at a time."""
        if self.dim == 0:
            return np.zeros(0, dtype=np.int64)
        data, step = self.basis.data, max(1, _PANEL // self.ambient_dim)
        return np.concatenate([np.argmax(data[i:i + step] != 0, axis=1)
                               for i in range(0, self.dim, step)])

    def reduce(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(residue, coefficients): v = coeffs @ basis + residue."""
        f = self.field
        v = f.varr(v).reshape(-1)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector not in ambient space")
        if self.dim == 0:
            return v.copy(), np.zeros(0, dtype=CODE_DTYPE)
        coeffs = v[self.pivots()]
        combo = f.matmul(coeffs.reshape(1, -1), self.basis.data).reshape(-1)
        return f.vsub(v, combo), coeffs

    def contains(self, v: np.ndarray) -> bool:
        residue, _ = self.reduce(v)
        return not residue.any()

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check(other)
        return _rows_inside(self.field, self.basis.data, self.pivots(), other.basis.data)

    def _check(self, other: "Subspace") -> None:
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces in different ambient spaces")

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        stacked = np.concatenate([self.basis.data, other.basis.data], axis=0)
        if stacked.shape[0] == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        R, rank, _ = _rref_array(self.field, stacked)
        return Subspace(self.field, self.ambient_dim, Mat(self.field, R[:rank]))

    def frobenius_image(self, n: int) -> "Subspace":
        """Entrywise x -> x^(p^n); RREF shape is preserved."""
        return Subspace(self.field, self.ambient_dim, self.basis.frobenius(n))

    def map_rows(self, m: Mat) -> "Subspace":
        """Image of this subspace under x -> m @ x (row basis transported)."""
        if m.cols != self.ambient_dim:
            raise DimensionMismatch("map domain mismatch")
        if self.dim == 0:
            return Subspace.zero(self.field, m.rows)
        img = self.field.matmul(self.basis.data, m.data.T)
        R, rank, _ = _rref_array(self.field, img)
        return Subspace(self.field, m.rows, Mat(self.field, R[:rank]))


def orthogonal_complement(gram: Mat, u: Subspace) -> Subspace:
    """{x : (b, x) = 0 for all b in u}, pairing (b, x) = b @ gram @ x."""
    if gram.rows != gram.cols or gram.cols != u.ambient_dim:
        raise DimensionMismatch("gram/subspace shape mismatch")
    if u.dim == 0:
        return Subspace.full(u.field, u.ambient_dim)
    prod = Mat(u.field, u.field.matmul(u.basis.data, gram.data))
    K = prod.kernel()
    return Subspace(u.field, u.ambient_dim, K)


# -- semilinear operators --


@dataclass(frozen=True)
class SemilinearOperator:
    """x -> matrix @ Frobenius^twist(x); f(c*x) = c^(p^twist) * f(x)."""

    matrix: Mat
    twist: int

    @property
    def field(self) -> Field:
        return self.matrix.field

    def apply(self, v: np.ndarray) -> np.ndarray:
        f = self.field
        v = f.vfrob(f.varr(v).reshape(-1), self.twist)
        return self.matrix.mul_vec(v)

    def image(self) -> Subspace:
        if self.matrix.cols == 0:
            return Subspace.zero(self.field, self.matrix.rows)
        return Subspace.from_rows(self.field, Mat(self.field, self.matrix.data.T))

    def kernel(self) -> Subspace:
        K = self.matrix.kernel()
        return Subspace(self.field, self.matrix.cols, K).frobenius_image(-self.twist)

    def compose(self, other: "SemilinearOperator") -> "SemilinearOperator":
        """self after other."""
        m = self.matrix @ other.matrix.frobenius(self.twist)
        return SemilinearOperator(m, self.twist + other.twist)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemilinearOperator):
            return NotImplemented
        e = self.field.e
        return self.matrix == other.matrix and (self.twist - other.twist) % e == 0


def semilinear_solve(gram: Mat, rhs: np.ndarray, twist: int) -> np.ndarray:
    """Unique w with (w, b_i) = Fr^(-twist)(rhs_i), pairing via gram.

    (w, b_i) means w^T @ gram column i.  Raises SingularForm when gram
    is not invertible.
    """
    if gram.rows != gram.cols:
        raise DimensionMismatch("gram matrix must be square")
    f = gram.field
    rhs = f.vfrob(f.varr(rhs).reshape(-1), -twist)
    if gram.rank() < gram.rows:
        raise SingularForm("gram matrix is singular")
    sol = gram.T.solve(rhs)
    assert sol is not None
    return sol

