"""Kulshammer spaces and adjoint maps in degree zero.

Over a field of characteristic p, the commutator space KA = [A, A] and
the chain T_n = {x : x^(p^n) in KA} are invariants of A.  When A is
symmetric, KA is the orthogonal space of the center and the p^n-power
map has two semilinear adjoints: zeta_n on Z(A), characterized by
(zeta_n z, a)^(p^n) = (z, a^(p^n)), and kappa_n on A/KA, characterized
by (z, kappa_n a)^(p^n) = (z^(p^n), a) for central z.  Their images and
kernels are the orthogonal spaces of T_n(A) and of the center-side
spaces T_n(Z) = {z central : z^(p^n) = 0} and P_n(Z) = {z^(p^n)}.

Everything here is exact; theorems that the construction relies on are
re-checked at runtime and raise InvariantViolation if they ever fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import Algebra, WeakAlgebra, memo
from .errors import (
    DegeneratePairing,
    DimensionMismatch,
    InvariantViolation,
    SingularMatrix,
)
from .fields import CODE_DTYPE
from .linalg import (
    Mat,
    SemilinearOperator,
    Subspace,
    orthogonal_complement,
)


@dataclass(frozen=True)
class QuotientModKA:
    """A/KA with canonical representatives supported on free columns.

    The RREF basis of KA has pivot columns P; the complement columns F
    carry the representatives: every class contains exactly one vector
    supported on F, and proj_matrix computes its F-coordinates.
    """

    algebra: Algebra = WeakAlgebra()
    ka: Subspace
    free_cols: tuple[int, ...]
    proj_matrix: Mat  # qdim x d: class coordinates of an ambient vector
    reps: Mat  # qdim x d: rows are the representative basis vectors
    center_basis: Mat  # zdim x d, RREF
    induced_gram: Mat | None  # zdim x qdim: (z_i, rep_t); None without a form

    @property
    def dim(self) -> int:
        return self.reps.rows

    def class_coords(self, v: np.ndarray) -> np.ndarray:
        return self.proj_matrix.mul_vec(v)

    def lift(self, coords: np.ndarray) -> np.ndarray:
        f = self.algebra.field
        coords = f.varr(coords).reshape(-1)
        if coords.shape[0] != self.dim:
            raise DimensionMismatch("class coordinate length mismatch")
        return f.matmul(coords.reshape(1, -1), self.reps.data).reshape(-1)


@memo()
def quotient_mod_ka(algebra: Algebra) -> QuotientModKA:
    f, d = algebra.field, algebra.dim
    ka = algebra.commutator_space()
    pivots = ka.pivots().tolist()
    pivot_set = set(pivots)
    free = tuple(j for j in range(d) if j not in pivot_set)
    qdim = len(free)
    proj = np.zeros((qdim, d), dtype=CODE_DTYPE)
    proj[np.arange(qdim), list(free)] = 1
    if pivots:
        # subtracting the KA combination that clears pivot coordinates
        block = f.vneg(ka.basis.data[:, list(free)])  # ka.dim x qdim
        proj[:, list(pivots)] = block.T
    reps = np.zeros((qdim, d), dtype=CODE_DTYPE)
    reps[np.arange(qdim), list(free)] = 1
    center_basis = algebra.center().basis
    induced = None
    if algebra.form is not None:
        zg = f.matmul(center_basis.data, algebra.form.gram.data)  # zdim x d
        induced = Mat(f, zg[:, list(free)])
        if center_basis.rows != qdim:
            raise InvariantViolation(
                f"symmetric algebra must have dim Z = dim A/KA, got {center_basis.rows} vs {qdim}"
            )
    return QuotientModKA(algebra, ka, free, Mat(f, proj), Mat(f, reps), center_basis, induced)


@memo()
def _basis_p_powers(algebra: Algebra, center: bool, n: int) -> np.ndarray:
    """Rows b^(p^n) for the basis vectors b of A, or of Z(A) if center.

    The table for n is the p-th powers of the rows of the table for n - 1,
    raised in one stacked call.
    """
    if n == 0:
        out = algebra.center().basis.data.copy() if center else np.eye(algebra.dim, dtype=CODE_DTYPE)
    else:
        out = algebra.p_power(_basis_p_powers(algebra, center, n - 1), 1)
    out.setflags(write=False)
    return out


@memo()
def t_n_space(algebra: Algebra, n: int) -> Subspace:
    """T_n = {x : x^(p^n) in KA}, the kernel of the class-level power map."""
    if n < 0:
        raise ValueError("n must be >= 0")
    f, d = algebra.field, algebra.dim
    q = quotient_mod_ka(algebra)
    powers = _basis_p_powers(algebra, False, n)  # d x d
    m = f.matmul(q.proj_matrix.data, powers.T)  # column i = class of b_i^(p^n)
    if n > 0:
        # seeded basis pairs (i, j): the class of (b_i + b_j)^(p^n) against m_i + m_j
        rng = np.random.default_rng(0x5EED + n)
        pairs = np.array([rng.integers(0, d, size=2) for _ in range(min(8, d * d))])
        eye = np.eye(d, dtype=CODE_DTYPE)
        sums = algebra.p_power(f.vadd(eye[pairs[:, 0]], eye[pairs[:, 1]]), n)
        lhs = f.matmul(sums, q.proj_matrix.data.T)
        rhs = f.vadd(m.T[pairs[:, 0]], m.T[pairs[:, 1]])
        bad = np.flatnonzero((lhs != rhs).any(axis=1))
        if bad.size:
            i, j = pairs[bad[0]].tolist()
            raise InvariantViolation(f"power map not additive mod KA at basis pair ({i},{j})")
    return SemilinearOperator(Mat(f, m), n).kernel()


@memo()
def t_n_center_space(algebra: Algebra, n: int) -> Subspace:
    """T_n(Z) = {z central : z^(p^n) = 0}, as an ambient subspace."""
    if n < 0:
        raise ValueError("n must be >= 0")
    f = algebra.field
    zb = algebra.center().basis
    if zb.rows == 0:
        return Subspace.zero(f, algebra.dim)
    powers = _basis_p_powers(algebra, True, n)  # zdim x d
    op = SemilinearOperator(Mat(f, powers.T), n)  # coords -> z^(p^n)
    coords = op.kernel()
    return coords.map_rows(zb.T) if coords.dim else Subspace.zero(f, algebra.dim)


@memo()
def p_n_space(algebra: Algebra, n: int) -> Subspace:
    """P_n(Z) = span{z^(p^n) : z central}; a subspace because Z is commutative."""
    if n < 0:
        raise ValueError("n must be >= 0")
    powers = _basis_p_powers(algebra, True, n)
    return Subspace.from_rows(algebra.field, Mat(algebra.field, powers))


@memo()
def zeta_n(algebra: Algebra, n: int) -> SemilinearOperator:
    """The adjoint zeta_n on Z(A) in center coordinates; twist is -n.

    Column j holds the center coordinates of the unique w with
    (w, a)^(p^n) = (z_j, a^(p^n)) for all a.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    form = algebra.require_form()
    f = algebra.field
    center = algebra.center()
    zb = center.basis
    powers = _basis_p_powers(algebra, False, n)  # rows b_i^(p^n)
    rhs = f.matmul(f.matmul(zb.data, form.gram.data), powers.T)  # zdim x d
    # row j is w_j with w_j^T gram = Fr^(-n)(rhs_j)
    w = f.matmul(f.vfrob(rhs, -n), form.gram.inverse().data)
    coeffs = w[:, center.pivots()]
    residue = f.vsub(w, f.matmul(coeffs, zb.data))
    bad = np.flatnonzero(residue.any(axis=1))
    if bad.size:
        raise InvariantViolation(f"zeta_{n} of center basis {bad[0]} is not central")
    return SemilinearOperator(Mat(f, coeffs.T.copy()), -n)


def zeta_image(algebra: Algebra, n: int) -> Subspace:
    """Image of zeta_n as an ambient subspace of Z(A); equals T_n(A)-perp."""
    op = zeta_n(algebra, n)
    zb = algebra.center().basis
    coords = op.image()
    if coords.dim == 0:
        return Subspace.zero(algebra.field, algebra.dim)
    return coords.map_rows(zb.T)


@memo()
def kappa_n(algebra: Algebra, n: int) -> SemilinearOperator:
    """The adjoint kappa_n on A/KA in class coordinates; twist is -n.

    Column b holds the class coordinates of the unique class w with
    (z, w)^(p^n) = (z^(p^n), rep_b) for all central z.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    form = algebra.require_form()
    f = algebra.field
    q = quotient_mod_ka(algebra)
    try:
        p_inv = q.induced_gram.inverse()
    except SingularMatrix:
        raise DegeneratePairing("pairing of Z(A) with A/KA is not invertible") from None
    zpowers = _basis_p_powers(algebra, True, n)  # zdim x d
    rhs = f.matmul(f.matmul(zpowers, form.gram.data), q.reps.data.T)  # zdim x qdim
    c = p_inv @ Mat(f, rhs).frobenius(-n)
    return SemilinearOperator(c, -n)


def kappa_image(algebra: Algebra, n: int) -> Subspace:
    """Image of kappa_n in class coordinates; equals the image of T_n(Z)-perp."""
    return kappa_n(algebra, n).image()


def kappa_kernel(algebra: Algebra, n: int) -> Subspace:
    """Kernel of kappa_n in class coordinates; equals the image of P_n(Z)-perp."""
    return kappa_n(algebra, n).kernel()


def quotient_image(algebra: Algebra, space: Subspace) -> Subspace:
    """Image of an ambient subspace in A/KA, in class coordinates."""
    q = quotient_mod_ka(algebra)
    return space.map_rows(q.proj_matrix)


def t_chain(algebra: Algebra, max_n: int) -> list[Subspace]:
    """[T_0, ..., T_max_n]; T_0 = KA and the chain ascends."""
    chain = [t_n_space(algebra, n) for n in range(max_n + 1)]
    if chain[0] != algebra.commutator_space():
        raise InvariantViolation("T_0 != KA")
    for n in range(max_n):
        if not chain[n + 1].contains_subspace(chain[n]):
            raise InvariantViolation(f"T_{n} not contained in T_{n + 1}")
    return chain


def zeta_image_chain(algebra: Algebra, max_n: int) -> list[Subspace]:
    """[im zeta_1, ..., im zeta_max_n]: a descending chain of ideals of Z(A)."""
    chain = [zeta_image(algebra, n) for n in range(1, max_n + 1)]
    gram = algebra.require_form().gram
    for idx, space in enumerate(chain):
        n = idx + 1
        if space != orthogonal_complement(gram, t_n_space(algebra, n)):
            raise InvariantViolation(f"im zeta_{n} != T_{n}-perp")
    for idx in range(len(chain) - 1):
        if not chain[idx].contains_subspace(chain[idx + 1]):
            raise InvariantViolation(f"im zeta_{idx + 1} does not contain im zeta_{idx + 2}")
    return chain


def stabilization_index(algebra: Algebra) -> int:
    """Smallest n >= 1 with im zeta_n = im zeta_{n+1}.

    The chain is strictly descending until it stabilizes, so the index
    is at most dim Z(A); once two consecutive images agree the chain is
    constant from there on.
    """
    previous = zeta_image(algebra, 1)
    for n in range(1, algebra.center().dim + 2):
        nxt = zeta_image(algebra, n + 1)
        if nxt == previous:
            return n
        previous = nxt
    raise InvariantViolation("zeta image chain failed to stabilize")


def kulshammer_report(algebra: Algebra, max_n: int) -> dict:
    """Summary dict of all degree-zero invariant dimensions up to max_n."""
    ts = t_chain(algebra, max_n)
    zetas = zeta_image_chain(algebra, max_n)
    report = {
        "dim": algebra.dim,
        "dim_center": algebra.center().dim,
        "dim_ka": algebra.commutator_space().dim,
        "t_dims": [s.dim for s in ts],
        "zeta_image_dims": [s.dim for s in zetas],
        "t_center_dims": [t_n_center_space(algebra, n).dim for n in range(1, max_n + 1)],
        "p_center_dims": [p_n_space(algebra, n).dim for n in range(1, max_n + 1)],
        "kappa_image_dims": [kappa_image(algebra, n).dim for n in range(1, max_n + 1)],
        "kappa_kernel_dims": [kappa_kernel(algebra, n).dim for n in range(1, max_n + 1)],
        "stabilization_index": stabilization_index(algebra),
    }
    return report
