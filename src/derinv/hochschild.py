"""Hochschild (co)homology of an algebra from the normalized bar complex, exactly.

Let u be the unit and i0 the first coordinate where u is nonzero.  The
normalized complex (Loday, Cyclic Homology, 1.1.14) has the chains
A x Abar^m in degree m, with Abar = A/ku in the basis of the images of
the e_j, j != i0 (_unit_split): d (d - 1)^m coordinates where the full
bar complex has d^(m+1).  Its cochains are the k-linear maps A^m -> A
that vanish when an argument is the unit, the same d (d - 1)^m
coordinates.  The projection pi of the full complex onto it, along the
chains with u in a slot >= 1, is a chain map and a quasi-isomorphism,
so HH_m and HH^m keep their dimensions.  The boundary is that of the
full complex,

    b(a0 x a1 x .. x am) = sum_i (-1)^i (.. a_i a_{i+1} ..)
                           + (-1)^m (a_m a0 x a1 x .. x a_{m-1}),

read in these coordinates: a product that lands in slot 0 keeps the
structure constants c[x, y, w] of e_x e_y = sum_w c[x, y, w] e_w, and
one that lands in a slot >= 1 is projected to Abar,

    cbar[x, y, w] = c[x, y, w] - c[x, y, i0] u_w / u_i0,    zero at w = i0.

With u = e_0, as in group algebras and k[x]/(x^n), this drops every
basis tensor with e_0 in a slot >= 1.  The coboundary of an m-cochain f
is

    (df)(a1 .. a_{m+1}) = a1 f(a2 ..) + sum_i (-1)^i f(.. a_i a_{i+1} ..)
                          + (-1)^{m+1} f(a1 ..) a_{m+1}.

The two complexes have one assembly.  For finite-dimensional A,
Hom(Abar^m, A) = (DA x Abar^m)^* with DA = Hom(A, k), and the cochain
coordinate (k, a1 .. am) is the chain coordinate phi^k x a1 .. am in
the dual basis phi^k.  So delta_m is exactly the transpose of b_{m+1}
with coefficients in DA (Loday, Cyclic Homology, 1.5), with sign +.
Only the terms that act on the coefficient change:

    phi^k b_u = sum_w c[u, w, k] phi^w,    b_v phi^k = sum_w c[w, v, k] phi^w,

so the contraction x a1 reads the sparse triples in the roles (w, u, v)
and the cyclic term a_m x in the roles (v, w, u) (_bar_coo).

Class representatives are canonical: cycle and boundary spaces are kept
as RREF row spaces in the coordinates of the normalized complex, and
the cycle rows whose leading columns are not leading columns of the
boundary space form a basis of the quotient.  They are handed out in
the coordinates of A x A^m (_in_full_coordinates): a cycle embedded at
the basis tensors with no e_i0 in a slot >= 1, and a cocycle expanded
through the projection A -> Abar in every argument, f o p^(x m).  The
expanded cocycles are cocycles of the full complex that vanish on the
unit, so cup, circle products, sigma_p and the pairing take them as
they are, and keep them normalized.  When A carries a symmetrizing
form, (f, a0 x ..) -> (a0, f(a1 ..)) descends to a pairing of HH^m with
HH_m whose gram matrix must be square and invertible.
HomologyBasis.class_coords takes vectors of A x A^m: it projects a
chain by pi, so a cycle of the full complex gets the class of its
image, and refuses a cochain that does not vanish on the unit, which
it could not class without a homotopy.

No dense bar matrix is built on the way to HH.  _bar_coo gives the
nonzero entries of b_m, on A or on DA, as index arrays: each term of b
places c[u, v, w] or cbar[u, v, w] at index arrays broadcast over the
untouched tensor factors.  _homology, which serves hh_homology and
hh_cohomology, takes the kernel of the map out of degree m (b_m, or
delta_m) and the image of the map into it (b_{m+1}, or delta_{m-1}),
and eliminates each connected component of their support graphs on its
own.  For a group algebra the components of b follow the conjugacy
class of the cyclic product g_0 .. g_m (Burghelea's splitting of
HH_*(kG)); for k[x]/(x^n) they follow the total degree.  Column
supports of the blocks are disjoint, so their RREF rows sorted by
leading column are the global RREF, and the class representatives are
those of the dense matrices.  The components of the outgoing map over
its columns hold every cycle row of degree m, so Z is the direct sum of
its parts in them; consecutive small ones share a bin of about 512
coordinates.  _quotient_basis checks B inside Z bin by bin: each
boundary row, restricted to a bin, must be its entries at the bin's
cycle pivots times the bin's cycle rows.  A boundary row may cross
bins, and lies in Z exactly when each of its restrictions does.
boundary_matrix and coboundary_matrix are the dense matrices of the
full complex, from the same _bar_coo with c in every slot; nothing in
the HH layer calls them, and tests/oracles.py eliminates them as the
reference for HH.

Where only a dimension is read, hh_dim gives it from two ranks,

    dim HH_m = d (d - 1)^m - rank bbar_m - rank bbar_{m+1},

with no kernel and no class basis.  With a symmetrizing form it is also
dim HH^m, since HH^m is then the dual of HH_m (Loday, Cyclic Homology,
1.5).  _rank memoizes each rank as an integer: it eliminates the blocks
of bbar_m one at a time and keeps none of them, so no dense image is
held.  Only hh_homology eliminates the image of bbar_{m+1} as a
subspace, for the boundaries of its class basis.

HH^m takes the blocks of delta for every algebra, with a form or
without; pairing_gram then checks that the pairing of its classes with
those of HH_m is perfect.

The coboundary of one cochain needs no matrix of delta.  With mu the
multiplication cochain and o Gerstenhaber's circle product (_pre_lie),

    delta f = (-1)^(m-1) mu o f - f o mu,

and each of its m + 2 slot insertions (_insert) is one product against
a d x d^m or d x d^2 matrix.  coboundary, Cochain.is_cocycle and cup,
f cup g = (mu o_2 g) o_1 f, take this path.  _pre_lie and _delta take
stacks of cochains, (..., d, d^m), with one product per slot for the
whole stack, and HomologyBasis.class_coords solves a stack of
(co)cycles with one residual and one reconstruction product.

Matrices in degree m of the full complex have d^(2m+1) or d^(2m+3)
entries.  Every cached entry point here is an `algebras.memo` function
that checks that count against the one entry cap before its cache, and
raises SizeCapExceeded instead of allocating.  The HH functions charge
the d^(2m+3) of the full complex, not the d^2 (d - 1)^(2m+1) of the
normalized b_{m+1} they eliminate, so the cap answers as it did for the
full complex.  The cap is KK_SIZE_CAP in the environment (default
2^27), read at each check; no function takes it as an argument.  It
counts the dense entries even where only blocks are allocated.
_pre_lie and cup are the caps of the insertions: each charges the
d^(r+1) entries of an arity-r cochain it allocates before the first
product.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebras import (  # DEFAULT_SIZE_CAP and SIZE_CAP_ENV are re-exported
    DEFAULT_SIZE_CAP,
    SIZE_CAP_ENV,
    Algebra,
    WeakAlgebra,
    _check_cap,
    memo,
)
from .errors import (
    DegeneratePairing,
    DerinvError,
    DimensionMismatch,
    InvariantViolation,
)
from .fields import CODE_DTYPE, Field
from .linalg import (
    Mat,
    Subspace,
    _bin_labels,
    _block_image,
    _block_kernel,
    _block_rank,
    _rows_inside,
    _runs,
)


@memo()
def _unit_split(algebra: Algebra) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(kept, P, bar): the basis of the slots >= 1 of the normalized complex.

    i0 is the first coordinate where the unit u is nonzero, and kept the
    other d - 1 basis indices, ascending; the images of e_j, j in kept,
    are a basis of A/ku.  P (d - 1 x d) is the projection A -> A/ku in
    that basis: e_j -> e_j and e_i0 -> -sum_w (u_w / u_i0) e_w.  bar holds
    the nonzero entries cbar[x, y, w] = c[x, y, w] - c[x, y, i0] u_w / u_i0
    of P(e_x e_y), x and y in kept, as (x, y, w, value) arrays of
    positions in kept.
    """
    f, d = algebra.field, algebra.dim
    u = algebra.unit
    i0 = int(np.flatnonzero(u)[0])
    kept = np.delete(np.arange(d), i0)
    P = np.eye(d, dtype=CODE_DTYPE)[kept]
    P[:, i0] = f.vmul(f.vneg(u[kept]), np.array(f.inv(int(u[i0])), dtype=CODE_DTYPE))
    s = kept.size
    products = algebra.mult_tensor[np.ix_(kept, kept)].reshape(s * s, d)
    cbar = f.matmul(products, P.T).reshape(s, s, s)
    x, y, w = np.nonzero(cbar)
    return kept, P, (x, y, w, cbar[x, y, w])


def _bar_coo(algebra: Algebra, m: int, dual: bool = False,
             normalized: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of b_m on M x S^m as (rows, cols, vals), each (row, col) once, m >= 1.

    M is A, or DA in the dual basis phi^k if dual.  S is A/ku in the basis
    of _unit_split if normalized, else A.  Entries come in row-major
    order.  Up to m + 1 terms meet at one entry; they are summed with
    Field.vadd.
    """
    f, d = algebra.field, algebra.dim
    if normalized:
        kept, _, bar = _unit_split(algebra)
    else:
        kept, bar = np.arange(d), algebra.sparse_mult()
    s = kept.size
    slot = np.full(d, -1)
    slot[kept] = np.arange(s)
    ii, jj, kk, vv = algebra.sparse_mult()
    # (factor, factor, product) roles of the triples b_u b_v = c[u, v, w] b_w
    # in x a_1 and a_m x; on DA, phi^k b_u = sum_w c[u, w, k] phi^w and
    # b_v phi^k = sum_w c[w, v, k] phi^w
    first, cyclic = ((kk, ii, jj), (jj, kk, ii)) if dual else ((ii, jj, kk), (ii, jj, kk))

    def terms_of(*xs):
        return tuple(x.reshape(1, -1, 1) for x in xs)

    def signed(i, c):
        return f.vneg(c) if i % 2 else c

    tail = s ** (m - 1)
    suf = np.arange(tail).reshape(1, 1, -1)
    # (a_0, a_1, S) -> (a_0 a_1, S): the product stays in M
    x, y, z = first
    hit = slot[y] >= 0
    x, y, z, c = terms_of(x[hit], slot[y[hit]], z[hit], vv[hit])
    terms = [(z * tail + suf, (x * s + y) * tail + suf, c)]
    # (P, a_i, a_{i+1}, S) -> (P, a_i a_{i+1}, S) in S, sign (-1)^i, 0 < i < m
    x, y, z, c = terms_of(*bar)
    for i in range(1, m):
        pre = np.arange(d * s ** (i - 1)).reshape(-1, 1, 1)
        t = s ** (m - 1 - i)
        mid = np.arange(t).reshape(1, 1, -1)
        terms.append(((pre * s + z) * t + mid, ((pre * s + x) * s + y) * t + mid, signed(i, c)))
    # cyclic term: a_m a_0 x a_1 .. a_{m-1}, sign (-1)^m
    x, y, z = cyclic
    hit = slot[x] >= 0
    x, y, z, c = terms_of(slot[x[hit]], y[hit], z[hit], vv[hit])
    terms.append((z * tail + suf, (y * tail + suf) * s + x, signed(m, c)))
    cols_n = d * s**m
    flat = [[x.reshape(-1) for x in np.broadcast_arrays(*t)] for t in terms]
    rows, cols, vals = (np.concatenate(x) for x in zip(*flat))
    key = rows * cols_n + cols
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    if not key.size:  # A = k: the normalized complex is 0 past degree 0
        return key, key, vals
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[start, key.size])
    total = vals[start]
    for k in range(1, int(count.max(initial=1))):
        hit = count > k
        total[hit] = f.vadd(total[hit], vals[start[hit] + k])
    nonzero = total != 0
    key = key[start[nonzero]]
    return key // cols_n, key % cols_n, total[nonzero]


def _chain_dim(algebra: Algebra, m: int, normalized: bool = True) -> int:
    """d (d - 1)^m coordinates of M x S^m, or d^(m+1) for the full complex."""
    d = algebra.dim
    return d * (d - 1 if normalized else d) ** m


def _boundary_map(algebra: Algebra, m: int, normalized: bool = True):
    """b_m as (shape, coo)."""
    shape = (_chain_dim(algebra, m - 1, normalized), _chain_dim(algebra, m, normalized))
    return shape, _bar_coo(algebra, m, normalized=normalized)


def _coboundary_map(algebra: Algebra, m: int, normalized: bool = True):
    """delta_m as (shape, coo): b_{m+1} on DA x S^(m+1), transposed."""
    rows, cols, vals = _bar_coo(algebra, m + 1, dual=True, normalized=normalized)
    shape = (_chain_dim(algebra, m + 1, normalized), _chain_dim(algebra, m, normalized))
    return shape, (cols, rows, vals)


def _on_slots(fld: Field, rows: np.ndarray, d: int, m: int, q: np.ndarray) -> np.ndarray:
    """Rows of M x S^m, (k, d a^m), with the (a, b) matrix q applied in each slot >= 1.

    Returns (k, d b^m); one product per slot.  Each step converts the
    last slot and moves it to the front of the slots, so after m steps
    they are in order again.
    """
    a, b = q.shape
    k = rows.shape[0]
    x = rows.reshape(k * d, a**m)
    for j in range(m):
        rest = b**j * a ** (m - 1 - j)
        x = fld.matmul(x.reshape(k * d * rest, a), q)
        x = x.reshape(k * d, rest, b).swapaxes(1, 2).reshape(k * d, b * rest)
    return x.reshape(k, d * b**m)


def _dense(f: Field, shape: tuple[int, int], coo) -> Mat:
    out = np.zeros(shape, dtype=CODE_DTYPE)
    rows, cols, vals = coo
    out[rows, cols] = vals
    return Mat(f, out)


@memo(lambda a, m: a.dim**m * a.dim ** (m + 1), lambda a, m: f"boundary matrix b_{m}")
def boundary_matrix(algebra: Algebra, m: int) -> Mat:
    """Bar boundary b_m of the full complex as a (d^m, d^(m+1)) matrix; m >= 1."""
    if m < 1:
        raise ValueError("boundary is defined for m >= 1")
    return _dense(algebra.field, *_boundary_map(algebra, m, normalized=False))


@memo(lambda a, m: a.dim ** (m + 2) * a.dim ** (m + 1),
      lambda a, m: f"coboundary matrix on degree {m}")
def coboundary_matrix(algebra: Algebra, m: int) -> Mat:
    """Hochschild coboundary on all m-cochains, a (d^(m+2), d^(m+1)) matrix."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _dense(algebra.field, *_coboundary_map(algebra, m, normalized=False))


class Cochain:
    """A k-linear map A^arity -> A as a d x d^arity matrix of codes."""

    __slots__ = ("algebra", "arity", "matrix")

    def __init__(self, algebra: Algebra, arity: int, matrix: Mat):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        d = algebra.dim
        if matrix.shape != (d, d**arity):
            raise DimensionMismatch(
                f"cochain of arity {arity} needs shape {(d, d ** arity)}, got {matrix.shape}"
            )
        self.algebra = algebra
        self.arity = arity
        self.matrix = matrix

    @staticmethod
    def from_flat(algebra: Algebra, arity: int, vec: np.ndarray) -> "Cochain":
        f, d = algebra.field, algebra.dim
        v = f.varr(vec).reshape(-1)
        if v.shape[0] != d ** (arity + 1):
            raise DimensionMismatch("flat cochain vector has wrong length")
        return Cochain(algebra, arity, Mat(f, v.reshape(d, d**arity)))

    def flat(self) -> np.ndarray:
        return self.matrix.data.reshape(-1)

    def apply(self, *args: np.ndarray) -> np.ndarray:
        if len(args) != self.arity:
            raise DimensionMismatch(f"expected {self.arity} arguments, got {len(args)}")
        f = self.algebra.field
        t = np.ones(1, dtype=CODE_DTYPE)
        for a in args:
            a = f.varr(a).reshape(-1)
            t = f.vmul(t[:, None], a[None, :]).reshape(-1)
        return self.matrix.mul_vec(t)

    def is_cocycle(self) -> bool:
        return not coboundary(self).matrix.data.any()

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check(other)
        return Cochain(self.algebra, self.arity, self.matrix + other.matrix)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check(other)
        return Cochain(self.algebra, self.arity, self.matrix - other.matrix)

    def __neg__(self) -> "Cochain":
        return Cochain(self.algebra, self.arity, -self.matrix)

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.algebra, self.arity, self.matrix.scale(c))

    def _check(self, other: "Cochain") -> None:
        if self.algebra is not other.algebra:
            raise DimensionMismatch("cochains over different algebras")
        if self.arity != other.arity:
            raise DimensionMismatch(f"arity mismatch {self.arity} vs {other.arity}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.algebra is other.algebra
            and self.arity == other.arity
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((id(self.algebra), self.arity, self.matrix))

    def __repr__(self) -> str:
        return f"Cochain(arity={self.arity}, dim={self.algebra.dim})"


def multiplication_cochain(algebra: Algebra) -> Cochain:
    """The product of A as a 2-cochain."""
    return Cochain(algebra, 2, Mat(algebra.field, algebra.mult_matrix.data.T))


def _insert(fld: Field, f: np.ndarray, m: int, i: int, g: np.ndarray, n: int) -> np.ndarray:
    """f o_i g, the output of g fed into slot i of f: one product of f, slot i last, with g.

    f and g are code arrays of cochains of arities m and n, of shapes
    (..., d, d^m) and (..., d, d^n) broadcast over the leading axes.
    """
    d = f.shape[-2]
    lead = np.broadcast_shapes(f.shape[:-2], g.shape[:-2])
    pre, post = d ** (i - 1), d ** (m - i)
    slot_last = f.reshape(f.shape[:-2] + (d, pre, d, post)).swapaxes(-1, -2)
    term = fld.matmul(slot_last.reshape(f.shape[:-2] + (-1, d)), g)
    return term.reshape(lead + (d, pre, post, -1)).swapaxes(-1, -2).reshape(
        lead + (d, d ** (m + n - 1)))


def _pre_lie(fld: Field, f: np.ndarray, m: int, g: np.ndarray, n: int) -> np.ndarray:
    """Gerstenhaber's circle product f o g = sum_i (-1)^((n-1)(i-1)) f o_i g.

    Arities and stacks as in _insert, with m + n >= 1.  The d^(m+n)
    entries of one result are checked against the cap before anything
    is allocated.
    """
    d = f.shape[-2]
    _check_cap(d ** (m + n), f"circle product of arity {m + n - 1}")
    lead = np.broadcast_shapes(f.shape[:-2], g.shape[:-2])
    out = np.zeros(lead + (d, d ** (m + n - 1)), dtype=CODE_DTYPE)
    for i in range(1, m + 1):
        term = _insert(fld, f, m, i, g, n)
        out = fld.vsub(out, term) if (n - 1) * (i - 1) % 2 else fld.vadd(out, term)
    return out


def _delta(algebra: Algebra, f: np.ndarray, m: int) -> np.ndarray:
    """delta f = (-1)^(m-1) mu o f - f o mu on a stack f (..., d, d^m) of arity-m cochains."""
    mu = multiplication_cochain(algebra).matrix.data
    fld = algebra.field
    left = _pre_lie(fld, mu, 2, f, m)
    if m % 2 == 0:
        left = fld.vneg(left)
    return fld.vsub(left, _pre_lie(fld, f, m, mu, 2))


def coboundary(f: Cochain) -> Cochain:
    """delta f = (-1)^(m-1) mu o f - f o mu for an arity-m cochain f and the product mu."""
    a, m = f.algebra, f.arity
    return Cochain(a, m + 1, Mat(a.field, _delta(a, f.matrix.data, m)))


@dataclass(frozen=True)
class HomologyBasis:
    """HH_m or HH^m with canonical class representatives.

    cycles and boundaries are RREF row spaces in the coordinates of the
    complex they were computed on: for hh_homology and hh_cohomology the
    normalized one, d (d - 1)^m coordinates.  The representatives are
    the cycle rows whose leading columns (rep_pivots) do not occur as
    leading columns of the boundary space; they represent a basis of the
    quotient.  ``reps`` holds them in the coordinates of A x A^m: chains
    embedded at the kept coordinates, cochains expanded to d x d^m
    matrices that vanish when an argument is the unit.
    """

    algebra: Algebra = WeakAlgebra()
    degree: int
    kind: str  # "homology" or "cohomology"
    cycles: Subspace
    boundaries: Subspace
    rep_pivots: tuple[int, ...]
    reps: Mat

    @property
    def dim(self) -> int:
        return self.reps.rows

    def class_coords(self, vec: np.ndarray) -> np.ndarray:
        """Class coordinates of one (co)cycle vector, or a row of them per row of a (k, n) stack.

        Vectors are in the coordinates of A x A^m.  A chain is projected
        to the normalized complex, so a cycle of the full complex gets
        the class of its image; a cochain must vanish when an argument
        is the unit, or DerinvError is raised.
        """
        f, d, m = self.algebra.field, self.algebra.dim, self.degree
        v = f.varr(vec)
        rows = v if v.ndim == 2 else v.reshape(1, -1)
        if rows.shape[1] != d ** (m + 1):
            raise DimensionMismatch("vector has wrong chain degree")
        if self.kind == "homology":
            rows = _on_slots(f, rows, d, m, _unit_split(self.algebra)[1].T)
        else:
            rows = _normalized_cochains(self.algebra, rows, m)
        residue = _residues(self.boundaries, rows)
        coords = residue[:, list(self.rep_pivots)]
        z = self.cycles.basis.data[np.searchsorted(self.cycles.pivots(), self.rep_pivots)]
        if not np.array_equal(residue, f.matmul(coords, z)):
            word = "cycle" if self.kind == "homology" else "cocycle"
            raise DerinvError(f"vector is not a {word} in degree {self.degree}")
        return coords if v.ndim == 2 else coords[0]

    def rep_vector(self, idx: int) -> np.ndarray:
        return self.reps.data[idx]

    def cochain(self, idx: int) -> Cochain:
        if self.kind != "cohomology":
            raise DerinvError("chain classes do not lift to cochains")
        return Cochain.from_flat(self.algebra, self.degree, self.reps.data[idx])

    def cochains(self) -> list[Cochain]:
        return [self.cochain(i) for i in range(self.dim)]


def _normalized_cochains(algebra: Algebra, rows: np.ndarray, m: int) -> np.ndarray:
    """Rows (k, d^(m+1)) of m-cochains on A, read at the d (d - 1)^m normalized coordinates.

    A cochain that does not vanish when an argument is the unit raises
    DerinvError.
    """
    f, d = algebra.field, algebra.dim
    kept, P, _ = _unit_split(algebra)
    out = rows.reshape(-1, d, d**m)[..., _slot_columns(kept, d, m)].reshape(
        rows.shape[0], d * kept.size**m)
    if not np.array_equal(_on_slots(f, out, d, m, P), rows):
        raise DerinvError(f"cochain is not normalized in degree {m}: "
                          "it does not vanish when an argument is the unit")
    return out


def _residues(space: Subspace, rows: np.ndarray) -> np.ndarray:
    """rows minus their entries at the pivots of space times its RREF rows.

    Two rows get the same residue exactly when they differ by a vector
    of space, so the residue of a (co)cycle names its class mod space.
    The product is taken transposed, so that matmul converts the basis a
    row panel at a time and only the few rows whole.
    """
    if not space.dim:
        return rows
    f = space.field
    combos = f.matmul(space.basis.data.T, rows[:, space.pivots()].T).T
    return f.vsub(rows, combos)


def _slot_columns(kept: np.ndarray, d: int, m: int) -> np.ndarray:
    """Flat indices in A^m of the basis tensors with every factor in kept, ascending."""
    cols = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        cols = (cols[:, None] * d + kept[None, :]).reshape(-1)
    return cols


def _in_full_coordinates(hom: HomologyBasis) -> HomologyBasis:
    """hom with its reps moved from the normalized complex to A x A^m.

    Chains are embedded at the basis tensors with every factor past the
    first in kept; cochains are expanded through P in every argument.
    """
    a, m = hom.algebra, hom.degree
    f, d = a.field, a.dim
    if hom.kind == "cohomology":
        _, P, _ = _unit_split(a)
        reps = _on_slots(f, hom.reps.data, d, m, P)
    else:
        kept, _, _ = _unit_split(a)
        reps = np.zeros((hom.dim, d ** (m + 1)), dtype=CODE_DTYPE)
        reps.reshape(hom.dim, d, d**m)[..., _slot_columns(kept, d, m)] = hom.reps.data.reshape(
            hom.dim, d, kept.size**m)
    return replace(hom, reps=Mat(f, reps))


def _quotient_basis(algebra: Algebra, degree: int, kind: str,
                    cycles: Subspace, boundaries: Subspace,
                    labels: np.ndarray | None = None) -> HomologyBasis:
    """HH as cycles mod boundaries, after checking that B lies in Z.

    labels, if given, is a bin of each coordinate that holds every cycle
    row in the bin of its pivot; Z is then the direct sum of its parts
    in the bins, and the check runs one bin at a time: every boundary
    row, restricted to the bin's columns, must lie in the span of the
    bin's cycle rows.  A boundary row may cross bins.  Without labels
    the check runs over the whole degree.
    """
    f, n = algebra.field, cycles.ambient_dim
    piv_z = cycles.pivots()
    if boundaries.dim:
        z, b = cycles.basis.data, boundaries.basis.data
        bins = np.zeros(n, dtype=np.int64) if labels is None else labels
        # the nonzeros of the cycle rows that lie outside their bins
        z_bins, outside = bins[piv_z], np.count_nonzero(z)
        order, bounds, _ = _runs(bins)
        for k in range(bounds.size - 1):
            cols = order[bounds[k]:bounds[k + 1]]
            zr = np.flatnonzero(z_bins == bins[cols[0]])
            zc = z[np.ix_(zr, cols)]
            outside -= np.count_nonzero(zc)
            bc = b[:, cols]
            bc = bc[bc.any(axis=1)]
            if not _rows_inside(f, zc, np.searchsorted(cols, piv_z[zr]), bc):
                raise InvariantViolation("boundary space not inside cycle space")
        if outside:
            raise InvariantViolation("a cycle row leaves its component")
    in_b = set(boundaries.pivots().tolist())
    keep = [i for i, c in enumerate(piv_z.tolist()) if c not in in_b]
    reps = Mat(f, cycles.basis.data[keep]) if keep else Mat.zeros(f, 0, n)
    rep_pivots = tuple(int(piv_z[i]) for i in keep)
    return HomologyBasis(algebra, degree, kind, cycles, boundaries, rep_pivots, reps)


def _homology(algebra: Algebra, m: int, kind: str, out, boundaries: Subspace) -> HomologyBasis:
    """Kernel of the map out of degree m modulo boundaries, the image of the map into it.

    out is (shape, coo) of the nonzero entries of the outgoing map, or None
    for zero, on the normalized complex.  out is eliminated block by
    block, and its blocks, binned, label the coordinates for the B inside
    Z check.
    """
    f, n = algebra.field, _chain_dim(algebra, m)
    # the components of out over its columns, each index labelled with an
    # index of its block
    labels = np.arange(n)
    if out is None:
        cycles = Subspace.full(f, n)
    else:
        cycles = Subspace(f, n, _block_kernel(f, *out, labels))
    return _in_full_coordinates(_quotient_basis(
        algebra, m, kind, cycles, boundaries, _bin_labels(labels)))


@memo(lambda a, m: a.dim ** (2 * m + 1), lambda a, m: f"boundary matrix b_{m}")
def _rank(algebra: Algebra, m: int) -> int:
    """Rank of the normalized b_m, m >= 1."""
    return _block_rank(algebra.field, *_boundary_map(algebra, m))


# the widest matrix either quotient touches in the full complex has
# d^(2m+3) entries: b_{m+1}, or the coboundary on degree m; the cap counts
# these, not the d^2 (d-1)^(2m+1) of the normalized matrices
def _hh_entries(a: Algebra, m: int) -> int:
    return a.dim ** (2 * m + 3)


def _homology_what(a: Algebra, m: int) -> str:
    return f"boundary matrix b_{m + 1}"


def _cohomology_what(a: Algebra, m: int) -> str:
    return f"coboundary matrix on degree {m}"


@memo(_hh_entries, _homology_what)
def hh_homology(algebra: Algebra, m: int) -> HomologyBasis:
    """HH_m as a quotient of the degree-m cycle space of the normalized complex."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = _boundary_map(algebra, m) if m else None
    image = _block_image(algebra.field, *_boundary_map(algebra, m + 1))
    hom = _homology(algebra, m, "homology", out, image)
    if m == 0 and hom.boundaries != algebra.commutator_space():
        raise InvariantViolation("image of b_1 differs from the commutator space")
    return hom


@memo(_hh_entries, _homology_what)
def hh_dim(algebra: Algebra, m: int) -> int:
    """dim HH_m = d (d - 1)^m - rank bbar_m - rank bbar_{m+1}; also dim HH^m with a form.

    The two ranks come from _rank, block by block, with no kernel, no
    image subspace and no class basis.  The cap and its message are
    those of hh_homology.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    into = _rank(algebra, m) if m else 0
    return _chain_dim(algebra, m) - into - _rank(algebra, m + 1)


@memo(_hh_entries, _cohomology_what)
def hh_cohomology(algebra: Algebra, m: int) -> HomologyBasis:
    """HH^m as a quotient of the degree-m normalized cocycle space.

    Both spaces come from the blocks of delta_m and delta_{m-1}, with or
    without a symmetrizing form.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    f, n = algebra.field, _chain_dim(algebra, m)
    image = _block_image(f, *_coboundary_map(algebra, m - 1)) if m else Subspace.zero(f, n)
    return _homology(algebra, m, "cohomology", _coboundary_map(algebra, m), image)


def _left_multiply(f: Field, g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row x, read as a d x (len x / d) matrix, replaced by g @ x; one product."""
    k, d = rows.shape[0], g.shape[1]
    n = rows.shape[1] // d
    stacked = rows.reshape(k, d, n).transpose(1, 0, 2).reshape(d, k * n)
    out = f.matmul(g, stacked).reshape(g.shape[0], k, n).transpose(1, 0, 2)
    return out.reshape(k, g.shape[0] * n)


def _pairing_matrix(algebra: Algebra, cochains: np.ndarray, chains: np.ndarray) -> np.ndarray:
    """[pairing(F_i, x_j)] for flat cochains F_i and chains x_j of one degree.

    The weights G @ F_i of all cochains come from one product, and their
    dot products with all chains from a second.
    """
    f = algebra.field
    weights = _left_multiply(f, algebra.require_form().gram.data, cochains)
    return f.matmul(weights, chains.T)


def pairing(f: Cochain, chain: np.ndarray) -> int:
    """(f, a0 x a1 .. x am) = (a0, f(a1 .. am)) via the symmetrizing form."""
    a = f.algebra
    gram = a.require_form().gram
    fld = a.field
    chain = fld.varr(chain).reshape(-1)
    if chain.shape[0] != a.dim ** (f.arity + 1):
        raise DimensionMismatch("chain degree does not match cochain arity")
    weights = fld.matmul(gram.data, f.matrix.data).reshape(-1)
    return fld.vdot(chain, weights)


@memo(_hh_entries, _cohomology_what)
def pairing_gram(algebra: Algebra, m: int) -> Mat:
    """Gram matrix of the HH^m x HH_m pairing on canonical representatives.

    Square and invertible for a symmetric algebra; raises
    DegeneratePairing otherwise.
    """
    algebra.require_form()
    coh = hh_cohomology(algebra, m)
    hom = hh_homology(algebra, m)
    g = Mat(algebra.field, _pairing_matrix(algebra, coh.reps.data, hom.reps.data))
    if g.rows != g.cols:
        raise DegeneratePairing(f"HH^{m} and HH_{m} have different dimensions {g.rows} vs {g.cols}")
    if g.rows and g.rank() < g.rows:
        raise DegeneratePairing(f"degree {m} pairing matrix is singular")
    return g


def _cup(algebra: Algebra, f: np.ndarray, m: int, g: np.ndarray, n: int) -> np.ndarray:
    """Cup products of (..., d, d^m) and (..., d, d^n) stacks, broadcast: (mu o_2 g) o_1 f.

    Capped on the larger of the d^(m+n+1) entries of one result and the
    d^(n+2) of one mu o_2 g.
    """
    fld, d = algebra.field, algebra.dim
    _check_cap(d ** (max(m, 1) + n + 1), f"cup product of arity {m + n}")
    left = _insert(fld, multiplication_cochain(algebra).matrix.data, 2, 2, g, n)
    return _insert(fld, left, n + 1, 1, f, m)


def _cup_powers(algebra: Algebra, f: np.ndarray, m: int, k: int) -> np.ndarray:
    """k-th cup powers, k >= 1, of a (..., d, d^m) stack of arity-m cochains; one cup per step."""
    if k < 1:
        raise ValueError("cup power needs k >= 1")
    out = f
    for j in range(1, k):
        out = _cup(algebra, out, j * m, f, m)
    return out


def cup(f: Cochain, g: Cochain) -> Cochain:
    """Cup product: (f cup g)(a1 .. a_{m+n}) = f(a1 .. a_m) g(.. a_{m+n})."""
    if f.algebra is not g.algebra:
        raise DimensionMismatch("cochains over different algebras")
    a = f.algebra
    out = _cup(a, f.matrix.data, f.arity, g.matrix.data, g.arity)
    return Cochain(a, f.arity + g.arity, Mat(a.field, out))


def cup_power(f: Cochain, k: int) -> Cochain:
    """k-fold cup power of f; k >= 1."""
    a = f.algebra
    return Cochain(a, k * f.arity, Mat(a.field, _cup_powers(a, f.matrix.data, f.arity, k)))
