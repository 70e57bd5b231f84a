"""Higher Kulshammer maps: adjoints of cup powers on Hochschild homology.

For an even degree m (any characteristic) or arbitrary m in
characteristic 2, the p^n-th cup power on HH^m is additive and
Frobenius-semilinear at class level, so each x in HH_{p^n m} defines a
functional f -> Fr^{-n}((f^{p^n}, x)) on HH^m.  Since the form pairing
identifies HH_m with the dual of HH^m, there is a unique kappa_nm(x) in
HH_m with

    (f^{p^n}, x)_{p^n m} = ((f, kappa_nm(x))_m)^{p^n}   for all f.

For p odd and m odd the p-th cup power vanishes by graded
commutativity, so the construction degenerates to the zero operator;
it is kept total and flagged instead of refused.  At m = 0 the map
coincides with the classical kappa_n on A/KA.

T_n^(m), the classes whose p^n-th cup power vanishes, comes from the
same pairing.  kappa_nm builds L[a, c] = (f_a^(p^n), x_c) for the
canonical bases f_a of HH^m and x_c of HH_{p^n m}.  A coboundary pairs
to zero with a cycle, so L = P^T Gamma, with P the class matrix of the
power map (power_class_matrix) and Gamma the gram matrix of the pairing
in degree p^n m.  That pairing is nondegenerate for a symmetric
algebra, so ker L^T = ker P exactly, and T_n^(m) = Fr^(-n)(ker L^T)
(HigherKappa.t_space) needs neither HH^(p^n m) nor a second round of cup
powers.  t_nm_space still reads T off P through HH^(p^n m); it is the
independent route that verify_properties checks the image and kernel
identities against.

All computations run on the canonical class representatives from
``hochschild`` and are exact.  Each cached entry point here is capped by
the bar matrices of degree p^n m, the widest it touches, and raises
SizeCapExceeded before allocating or reading its cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import Algebra, WeakAlgebra, memo
from .errors import InvariantViolation, SizeCapExceeded
from .fields import Field
from .hochschild import (
    HomologyBasis,
    _cup_powers,
    hh_cohomology,
    hh_dim,
    hh_homology,
    pairing_gram,
    _pairing_matrix,
)
from .linalg import Mat, SemilinearOperator, Subspace, orthogonal_complement


@dataclass(frozen=True)
class HigherKappa:
    """kappa_nm : HH_{p^n m} -> HH_m in class coordinates.

    ``operator`` acts on source class coordinates with Frobenius twist
    -n.  ``zero_regime`` is set when p is odd, m is odd and n >= 1: the
    p-th cup power is zero on odd classes then, and the adjoint is the
    zero map.  ``powers`` is the pairing matrix L[a, c] = (f_a^(p^n), x_c)
    of the canonical HH^m representatives' powers with the source basis.
    """

    algebra: Algebra = WeakAlgebra()
    m: int
    n: int
    source: HomologyBasis  # homology in degree p^n * m
    target: HomologyBasis  # homology in degree m
    operator: SemilinearOperator
    zero_regime: bool
    powers: Mat  # dim HH^m x dim HH_{p^n m}

    @property
    def source_degree(self) -> int:
        return self.algebra.field.p**self.n * self.m

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return self.operator.apply(coords)

    def image(self) -> Subspace:
        return self.operator.image()

    def kernel(self) -> Subspace:
        return self.operator.kernel()

    @property
    def rank(self) -> int:
        return self.operator.matrix.rank()

    def t_space(self) -> Subspace:
        """T_n^(m) as Fr^(-n)(ker L^T); equal to t_nm_space."""
        return SemilinearOperator(self.powers.T, self.n).kernel()


def _is_zero_regime(algebra: Algebra, m: int, n: int) -> bool:
    return algebra.field.p != 2 and m % 2 == 1 and n >= 1


# the cold path reaches hh_* in degree p^n m, whose bar matrices have
# d^(2 p^n m + 3) entries
def _target_entries(a: Algebra, m: int, n: int) -> int:
    return a.dim ** (2 * a.field.p**n * m + 3)


def _target_what(a: Algebra, m: int, n: int) -> str:
    return f"bar matrices in degree {a.field.p**n * m}"


@memo(_target_entries, _target_what)
def power_class_matrix(algebra: Algebra, m: int, n: int) -> Mat:
    """Class-level matrix of f -> f^(p^n), HH^m -> HH^(p^n m) coordinates.

    Column a holds the class of the p^n-th cup power of the a-th
    canonical HH^m representative.  Additivity of the power map (exact
    in the allowed regimes, zero map otherwise) is spot-checked on
    random pairs of representatives.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    f = algebra.field
    coh_m = hh_cohomology(algebra, m)
    coh_d = hh_cohomology(algebra, f.p**n * m)
    if coh_m.dim == 0:
        return Mat.zeros(f, coh_d.dim, 0)
    coords = coh_d.class_coords(_power_stack(algebra, m, n))
    return Mat(f, _additive_rows(f, m, n, coh_m.dim, coords).T)


@memo()
def _power_stack(algebra: Algebra, m: int, n: int) -> np.ndarray:
    """Flat p^n-th cup powers of the canonical HH^m representatives, then of
    the sums over _additivity_pairs, one row each."""
    f, d = algebra.field, algebra.dim
    coh = hh_cohomology(algebra, m)
    reps = coh.reps.data
    pairs = np.array(_additivity_pairs(m, n, coh.dim), dtype=np.int64).reshape(-1, 2)
    stack = np.concatenate([reps, f.vadd(reps[pairs[:, 0]], reps[pairs[:, 1]])])
    out = _cup_powers(algebra, stack.reshape(-1, d, d**m), m, f.p**n).reshape(stack.shape[0], -1)
    out.setflags(write=False)
    return out


def _additivity_pairs(m: int, n: int, k: int) -> list[tuple[int, int]]:
    """At most four seeded pairs of the k canonical HH^m classes."""
    rng = np.random.default_rng(0x5EED + 31 * m + n)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    if len(pairs) > 4:
        pairs = [pairs[i] for i in rng.choice(len(pairs), size=4, replace=False)]
    return pairs


def _additive_rows(f: Field, m: int, n: int, k: int, rows: np.ndarray) -> np.ndarray:
    """The first k rows of a stack read off _power_stack, the rows of the k classes.

    Each later row, that of the sum over an additivity pair (a, b), must
    be the sum of rows a and b; the first pair that is not raises
    InvariantViolation.
    """
    base = rows[:k]
    for (a, b), got in zip(_additivity_pairs(m, n, k), rows[k:]):
        if not np.array_equal(got, f.vadd(base[a], base[b])):
            raise InvariantViolation(
                f"p^{n}-th cup power is not additive on HH^{m} classes ({a}, {b})")
    return base


@memo(_target_entries, _target_what)
def t_nm_space(algebra: Algebra, m: int, n: int) -> Subspace:
    """T_n^(m) = classes in HH^m whose p^n-th cup power vanishes."""
    mat = power_class_matrix(algebra, m, n)
    return SemilinearOperator(mat, n).kernel()


@memo(_target_entries, _target_what)
def kappa_nm(algebra: Algebra, m: int, n: int) -> HigherKappa:
    """Adjoint of the p^n-th cup power, HH_{p^n m} -> HH_m.

    Solves pairing_gram(m) @ C = Fr^(-n)(L) where
    L[a, c] = (f_a^(p^n), x_c) over the canonical bases; the resulting
    operator has twist -n.  kappa_nm(.., m, 0) is the identity and
    kappa_nm(.., 0, n) is the classical kappa_n.  Additivity of the
    power map is spot-checked on the pairs of power_class_matrix, as
    rows of L.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    algebra.require_form()
    f = algebra.field
    coh_m = hh_cohomology(algebra, m)
    hom_m = hh_homology(algebra, m)
    hom_d = hh_homology(algebra, f.p**n * m)
    gram = pairing_gram(algebra, m)
    if coh_m.dim == 0 or hom_d.dim == 0:
        powers = np.zeros((coh_m.dim, hom_d.dim), dtype=np.int8)
        mat = Mat.zeros(f, hom_m.dim, hom_d.dim)
    else:
        rows = _pairing_matrix(algebra, _power_stack(algebra, m, n), hom_d.reps.data)
        powers = _additive_rows(f, m, n, coh_m.dim, rows)
        mat = Mat(f, f.matmul(gram.inverse().data, f.vfrob(powers, -n)))
    return HigherKappa(
        algebra, m, n, hom_d, hom_m,
        SemilinearOperator(mat, -n), _is_zero_regime(algebra, m, n), Mat(f, powers),
    )


def _defining_relation_holds(kappa: HigherKappa):
    """(f^(p^n), c x_r) == ((f, kappa(c x_r)))^(p^n) over basis pairs and scalars.

    For each scalar c both sides are one pairing matrix over all pairs
    (i, r) of HH^m and source basis classes; the witness is the first
    failing (i, r, c) in lexicographic order.
    """
    a = kappa.algebra
    f = a.field
    coh_m = hh_cohomology(a, kappa.m)
    if coh_m.dim == 0:
        return True, None
    powers = _power_stack(a, kappa.m, kappa.n)[:coh_m.dim]
    op, eye = kappa.operator, np.eye(kappa.source.dim, dtype=np.int8)
    bad = []
    for c in range(1, f.q):
        # row r is the chain lifting kappa(c x_r)
        lifts = f.matmul(f.matmul(op.matrix.data, f.vfrob(f.vscale(c, eye), op.twist)).T,
                         kappa.target.reps.data)
        lhs = _pairing_matrix(a, powers, f.vscale(c, kappa.source.reps.data))
        rhs = f.vfrob(_pairing_matrix(a, coh_m.reps.data, lifts), kappa.n)
        bad.append(lhs != rhs)
    fails = np.argwhere(np.stack(bad, axis=-1))
    if not len(fails):
        return True, None
    i, r, c = fails[0].tolist()
    return False, {"cohomology_basis": i, "homology_basis": r, "scalar": c + 1}


def verify_properties(algebra: Algebra, m: int, n: int, ell: int) -> dict:
    """Check the defining relation and the structure theorems exactly.

    Returns a report with one boolean per statement: the semilinear
    defining relation on full bases, the composition identity
    kappa_{n+ell}^(m) = kappa_ell^(m) o kappa_n^(p^ell m), the image
    identity im = T_n^(m) orth, the kernel identity
    ker = {f^(p^n)} orth, and the rank formula
    rank = dim HH^m - dim T_n^(m).  Failures carry a witness.

    The composition identity factors through degree p^(n+ell) m, which
    can be far larger than the degree of the map under test.  When that
    intermediate computation trips the size cap the report records the
    string "skipped: cap" for that one check (and lists it under
    "skipped") instead of raising; all_passed treats a skip as
    non-failing.
    """
    f = algebra.field
    kap = kappa_nm(algebra, m, n)
    report: dict = {
        "m": m,
        "n": n,
        "ell": ell,
        "zero_regime": kap.zero_regime,
        "witnesses": {},
    }

    ok, witness = _defining_relation_holds(kap)
    report["semilinear_defining_relation"] = ok
    if witness:
        report["witnesses"]["semilinear_defining_relation"] = witness

    # the composition factors through degree p^(n+ell) m, which can dwarf
    # the degree of the map itself; report a marker instead of failing
    try:
        total = kappa_nm(algebra, m, n + ell)
        outer = kappa_nm(algebra, m, ell)
        inner = kappa_nm(algebra, f.p**ell * m, n)
        ok = total.operator == outer.operator.compose(inner.operator)
        report["composition"] = ok
        if not ok:
            report["witnesses"]["composition"] = {
                "total": total.operator.matrix.data.tolist(),
                "composed": outer.operator.compose(inner.operator).matrix.data.tolist(),
            }
    except SizeCapExceeded:
        report["composition"] = "skipped: cap"

    t_space = t_nm_space(algebra, m, n)
    ok = kap.image() == orthogonal_complement(pairing_gram(algebra, m), t_space)
    report["image_is_orthogonal_of_t"] = ok
    if not ok:
        report["witnesses"]["image_is_orthogonal_of_t"] = {
            "image_dim": kap.image().dim,
            "t_dim": t_space.dim,
        }

    powers = SemilinearOperator(power_class_matrix(algebra, m, n), n).image()
    deg = f.p**n * m
    ok = kap.kernel() == orthogonal_complement(pairing_gram(algebra, deg), powers)
    report["kernel_is_orthogonal_of_powers"] = ok
    if not ok:
        report["witnesses"]["kernel_is_orthogonal_of_powers"] = {
            "kernel_dim": kap.kernel().dim,
            "powers_dim": powers.dim,
        }

    coh_dim = hh_dim(algebra, m)
    ok = kap.rank == coh_dim - t_space.dim
    report["dimension_formula"] = ok
    if not ok:
        report["witnesses"]["dimension_formula"] = {
            "rank": kap.rank,
            "cohomology_dim": coh_dim,
            "t_dim": t_space.dim,
        }

    checks = (
        "semilinear_defining_relation",
        "composition",
        "image_is_orthogonal_of_t",
        "kernel_is_orthogonal_of_powers",
        "dimension_formula",
    )
    # a skipped-marker string is not a failure, but it is recorded
    report["skipped"] = [k for k in checks if isinstance(report[k], str)]
    report["all_passed"] = all(report[k] is not False for k in checks)
    return report
