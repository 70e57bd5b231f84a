"""Gerstenhaber structure of Hochschild cochains, computed by slot insertion.

For cochains f of arity m and g of arity n, the insertion f o_i g feeds
the output of g into slot i of f, and the circle product is

    f o g = sum_{i=1}^{m} (-1)^((n-1)(i-1)) f o_i g

(Gerstenhaber, "The cohomology structure of an associative ring", Ann.
Math. 78, 1963).  Elements of A sit in shifted degree 1 and g has
shifted degree n - 1, so moving g past the i - 1 slots before it gives
the sign.  Each insertion is one product of f, with slot i moved last,
against g (hochschild._pre_lie), so no matrix larger than the result is
ever formed.  The bracket and the p-power map are

    [f, g] = f o g - (-1)^((m-1)(n-1)) g o f,
    sigma_p(f) = (..((f o f) o f) ..) o f       (p factors).

Bracketing against the multiplication cochain recovers the Hochschild
coboundary up to the global sign COBOUNDARY_BRACKET_SIGN, the same
constant in every arity and characteristic.

The same operations are the coalgebra model read at tensor length 1.
The tensor coalgebra B(A) = k + A[1] + (A x A)[2] + ... carries the
deconcatenation comultiplication, and f extends to the coderivation

    D_f|_r = sum_{i=1}^{r-m+1} (-1)^((m-1)(i-1)) id^(i-1) x f x id^(r-m+1-i)

of degree m - 1.  The projection tau onto tensor length 1 inverts
f -> D_f, so f o g = tau o D_f D_g and [f, g] = tau o [D_f, D_g].  The
multiplication cochain gives the differential d_A with d_A^2 = 0.  The
components of D_f are products over associative matrix blocks, so
tau o D_f^p is the left-nested product above.  coderivation_component,
Coderivation, is_coderivation and build_dA keep this model as dense
Kronecker matrices.

Plain p-th powers of coderivations are again coderivations when p = 2,
or when p is odd and the cochain arity is odd (even coderivation
degree); tau o D_f^p then induces sigma_p on cohomology classes, the
p-operation of the restricted Lie structure on odd cohomology.  The
Jacobson polynomials s_i and the three restricted-Lie axioms are
computed from brackets alone; no symmetrizing form enters anywhere in
this module.

A component matrix in source tensor length r has d^(r-m+1) x d^r
entries and respects the same size cap as the bar complex assemblies.
bracket and sigma_p check the cap of the components that tau o [D_f,
D_g] and tau o D_f^p would multiply, in the same order, although they
build none of them, so every cap decision is that of the dense model.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import Algebra, _check_cap, resolve_size_cap
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    InvariantViolation,
    ParityViolation,
)
from .fields import CODE_DTYPE
from .hochschild import Cochain, _pre_lie, coboundary, hh_cohomology, multiplication_cochain
from .linalg import Mat

# bracket(f, multiplication_cochain) equals this constant times the
# Hochschild coboundary of f, in every arity and characteristic; the
# orientation [D_f, d_A] is the one with a degree-independent sign
COBOUNDARY_BRACKET_SIGN = -1


@dataclass(frozen=True)
class TruncatedCoalgebra:
    """B(A) retained up to a maximal tensor length.

    Component r is A^(x r) with the counit component k at r = 0.  The
    comultiplication splits tensors by deconcatenation, so each block
    B_r -> B_j x B_(r-j) is the identity matrix in flat coordinates and
    is never stored.
    """

    algebra: Algebra
    max_len: int

    def __post_init__(self):
        if self.max_len < 0:
            raise ValueError("max_len must be >= 0")

    def component_dim(self, r: int) -> int:
        if not 0 <= r <= self.max_len:
            raise DegreeMismatch(f"tensor length {r} outside retained range 0..{self.max_len}")
        return self.algebra.dim**r


def _check_component_cap(f: Cochain, r: int, size_cap: int | None) -> None:
    d = f.algebra.dim
    _check_cap(d ** (r - f.arity + 1) * d**r, resolve_size_cap(size_cap),
               f"coderivation component at length {r}")


def coderivation_component(f: Cochain, r: int, size_cap: int | None = None) -> Mat:
    """D_f restricted to tensor length r, a (d^(r-m+1), d^r) matrix."""
    if r < 0:
        raise ValueError("tensor length must be >= 0")
    a = f.algebra
    fld, d = a.field, a.dim
    m = f.arity
    out_len = r - m + 1
    if out_len < 0:
        raise DegreeMismatch(f"arity {m} has no component on tensor length {r}")
    rows, cols = d**out_len, d**r
    _check_component_cap(f, r, size_cap)
    acc = np.zeros((rows, cols), dtype=CODE_DTYPE)
    block_pos = f.matrix.data
    block_neg = fld.vneg(block_pos)
    for i in range(1, out_len + 1):
        left = np.eye(d ** (i - 1), dtype=CODE_DTYPE)
        right = np.eye(d ** (out_len - i), dtype=CODE_DTYPE)
        block = block_pos if ((m - 1) * (i - 1)) % 2 == 0 else block_neg
        acc = fld.vadd(acc, np.kron(np.kron(left, block), right))
    return Mat(fld, acc)


class Coderivation:
    """The coderivation D_f of a cochain f, materialized per tensor length."""

    __slots__ = ("base", "cochain", "_parts")

    def __init__(self, base: TruncatedCoalgebra, cochain: Cochain):
        if base.algebra is not cochain.algebra:
            raise DimensionMismatch("coalgebra and cochain over different algebras")
        self.base = base
        self.cochain = cochain
        self._parts: dict[int, Mat] = {}

    @property
    def algebra(self) -> Algebra:
        return self.cochain.algebra

    @property
    def shift(self) -> int:
        """Coderivation degree: tensor length drops by this much."""
        return self.cochain.arity - 1

    def component(self, r: int, size_cap: int | None = None) -> Mat:
        if r > self.base.max_len:
            raise DegreeMismatch(f"tensor length {r} above retained maximum {self.base.max_len}")
        # cap before the cached parts, as every memo entry point does
        _check_component_cap(self.cochain, r, size_cap)
        part = self._parts.get(r)
        if part is None:
            part = coderivation_component(self.cochain, r, size_cap)
            self._parts[r] = part
        return part

    def components(self, max_len: int | None = None,
                   size_cap: int | None = None) -> dict[int, Mat]:
        hi = self.base.max_len if max_len is None else max_len
        lo = max(self.shift, 0)
        return {r: self.component(r, size_cap) for r in range(lo, hi + 1)}

    def __repr__(self) -> str:
        return (
            f"Coderivation(arity={self.cochain.arity}, dim={self.algebra.dim}, "
            f"max_len={self.base.max_len})"
        )


def coderivation(f: Cochain, max_len: int) -> Coderivation:
    """D_f on the coalgebra truncated at max_len."""
    return Coderivation(TruncatedCoalgebra(f.algebra, max_len), f)


def is_coderivation(algebra: Algebra, shift: int, components: dict[int, Mat]):
    """Check Delta o D = (id x D + D x id) o Delta on the given lengths.

    ``components[r]`` must be the (d^(r-shift), d^r) matrix of D on
    tensor length r, for a contiguous range of lengths starting at
    max(shift, 0).  Since every Delta block is a deconcatenation
    identity, the law reduces to one matrix identity per splitting
    (a, b) of each output length; the right tensor factor D picks up
    the Koszul sign (-1)^(shift * a).  Returns (True, None), or (False,
    witness) with the failing length, splitting, and first input column
    on which the two sides disagree.
    """
    fld, d = algebra.field, algebra.dim
    if not components:
        return True, None
    lengths = sorted(components)
    lo, hi = lengths[0], lengths[-1]
    if lengths != list(range(lo, hi + 1)) or lo != max(shift, 0):
        raise DimensionMismatch("components must cover a contiguous range from max(shift, 0)")
    for r, mat in components.items():
        if mat.shape != (d ** max(r - shift, 0), d**r):
            raise DimensionMismatch(f"component at length {r} has shape {mat.shape}")

    def part(t: int) -> np.ndarray | None:
        # lengths below the counit or below the shift carry the zero map
        if t < lo:
            return None
        return components[t].data

    for r in lengths:
        if r - shift < 0:
            continue
        lhs = components[r].data
        for a in range(r - shift + 1):
            b = r - shift - a
            rhs = np.zeros_like(lhs)
            inner = part(b + shift)
            if inner is not None:
                term = np.kron(np.eye(d**a, dtype=CODE_DTYPE), inner)
                if (shift * a) % 2 == 1:
                    term = fld.vneg(term)
                rhs = fld.vadd(rhs, term)
            outer = part(a + shift)
            if outer is not None:
                rhs = fld.vadd(rhs, np.kron(outer, np.eye(d**b, dtype=CODE_DTYPE)))
            if not np.array_equal(lhs, rhs):
                col = int(np.nonzero((lhs != rhs).any(axis=0))[0][0])
                return False, {"length": r, "split": (a, b), "column": col}
    return True, None


def build_dA(algebra: Algebra, max_len: int, size_cap: int | None = None) -> Coderivation:
    """The differential d_A, the coderivation of the multiplication.

    Asserts tau o d_A = m_A and d_A o d_A = 0 on every tensor length up
    to max_len; the latter is the coalgebra-level restatement of
    associativity.
    """
    if max_len < 2:
        raise ValueError("need max_len >= 2 to see the multiplication")
    mu = multiplication_cochain(algebra)
    d_a = Coderivation(TruncatedCoalgebra(algebra, max_len), mu)
    fld = algebra.field
    if d_a.component(2, size_cap) != mu.matrix:
        raise InvariantViolation("tau o d_A differs from the multiplication")
    for r in range(3, max_len + 1):
        square = fld.matmul(d_a.component(r - 1, size_cap).data, d_a.component(r, size_cap).data)
        if square.any():
            raise InvariantViolation(f"d_A^2 is nonzero on tensor length {r}")
    return d_a


def bracket(f: Cochain, g: Cochain, size_cap: int | None = None) -> Cochain:
    """Gerstenhaber bracket f o g - (-1)^((m-1)(n-1)) g o f, arity m + n - 1.

    Two arity-0 cochains bracket to a map landing below the counit,
    which is identically zero; that case returns the zero 0-cochain.
    The cap is checked on the four coderivation components whose
    products give the two circle products as tau o [D_f, D_g], in the
    order the coalgebra model multiplies them; none of them is built.
    """
    if f.algebra is not g.algebra:
        raise DimensionMismatch("cochains over different algebras")
    m, n = f.arity, g.arity
    a = f.algebra
    fld = a.field
    if m + n == 0:
        return Cochain(a, 0, Mat.zeros(fld, a.dim, 1))
    r = m + n - 1
    for h, length in ((f, m), (g, r), (g, n), (f, r)):
        _check_component_cap(h, length, size_cap)
    fg = _pre_lie(f.matrix, m, g.matrix, n)
    gf = _pre_lie(g.matrix, n, f.matrix, m)
    if ((m - 1) * (n - 1)) % 2 == 1:
        gf = fld.vneg(gf)
    return Cochain(a, r, Mat(fld, fld.vsub(fg, gf)))


def coderivation_power_component(f: Cochain, k: int, r: int,
                                 size_cap: int | None = None) -> Mat:
    """(D_f)^k restricted to source tensor length r."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    a = f.algebra
    fld = a.field
    s = f.arity - 1
    out = coderivation_component(f, r, size_cap).data
    for j in range(1, k):
        out = fld.matmul(coderivation_component(f, r - j * s, size_cap).data, out)
    return Mat(fld, out)


def sigma_p(f: Cochain, size_cap: int | None = None) -> Cochain:
    """tau o (D_f)^p: the p-power operation of the restricted structure.

    Defined for every arity >= 1 in characteristic 2; for odd p the
    arity must be odd (even coderivation degree), otherwise the power of
    the coderivation is not a coderivation and ParityViolation is raised.
    The result has arity p*(arity-1) + 1; on cocycles it descends to
    cohomology classes.  It is computed as p - 1 left-nested circle
    products (..(f o f) o ..) o f, under the cap of the components
    D_f on tensor lengths p*(arity-1)+1 down to arity.
    """
    a = f.algebra
    p = a.field.p
    m = f.arity
    if p > 2 and m % 2 == 0:
        raise ParityViolation(
            f"p-th Gerstenhaber power needs odd arity for p = {p}, got {m}"
        )
    if m == 0:
        raise ValueError("the p-th power of an arity-0 cochain lands below the counit")
    s = m - 1
    target = p * s + 1
    for j in range(p):
        _check_component_cap(f, target - j * s, size_cap)
    power, arity = f.matrix, m
    for _ in range(p - 1):
        power = Mat(a.field, _pre_lie(power, arity, f.matrix, m))
        arity += s
    return Cochain(a, target, power)


def _zero_cochain(algebra: Algebra, arity: int) -> Cochain:
    return Cochain(algebra, arity, Mat.zeros(algebra.field, algebra.dim, algebra.dim**arity))


def jacobson_si(a: Cochain, b: Cochain, p: int | None = None,
                size_cap: int | None = None) -> list[Cochain]:
    """Jacobson polynomials s_1 .. s_(p-1) of two equal-arity cochains.

    (ad(a X + b))^(p-1) applied to a, expanded over k[X] with cochain
    coefficients; the X^(i-1) coefficient equals i * s_i(a, b).  Each
    s_i has the same arity as sigma_p and enters the additivity axiom
    (a + b)^[p] = a^[p] + b^[p] + sum_i s_i(a, b).
    """
    if a.algebra is not b.algebra:
        raise DimensionMismatch("cochains over different algebras")
    if a.arity != b.arity:
        raise DegreeMismatch("Jacobson polynomials need equal arities")
    alg = a.algebra
    fld = alg.field
    if p is None:
        p = fld.p
    elif p != fld.p:
        raise ValueError(f"p = {p} does not match the field characteristic {fld.p}")
    m = a.arity
    coeffs: list[Cochain | None] = [a] + [None] * (p - 1)
    for step in range(1, p):
        arity = m + step * (m - 1)
        nxt: list[Cochain | None] = [None] * p
        for t in range(p):
            total = _zero_cochain(alg, arity)
            if t >= 1 and coeffs[t - 1] is not None:
                total = total + bracket(a, coeffs[t - 1], size_cap)
            if coeffs[t] is not None:
                total = total + bracket(b, coeffs[t], size_cap)
            nxt[t] = total
        coeffs = nxt
    out = []
    for i in range(1, p):
        ci = coeffs[i - 1]
        assert ci is not None
        out.append(ci.scale(fld.inv(i % p)))
    return out


def _class_of(algebra: Algebra, f: Cochain, size_cap: int | None):
    return hh_cohomology(algebra, f.arity, size_cap).class_coords(f.flat())


def restricted_axioms_check(algebra: Algebra, p: int, degrees,
                            size_cap: int | None = None,
                            trials: int = 10, scalars: int = 20) -> dict:
    """Verify the p-restricted Lie axioms on HH classes degree by degree.

    For each cohomological degree m in ``degrees`` (p = 2: any; p odd:
    odd only, others are reported as skipped) the three axioms are
    checked over the full canonical class basis: ad(a^[p]) = (ad a)^p
    and the Jacobson additivity law as class identities, scaling over
    ``scalars`` random field elements as exact cochain identities.
    Well-definedness of the power map on classes is probed by shifting
    basis cocycles with ``trials`` random coboundaries.
    """
    fld = algebra.field
    if p != fld.p:
        raise ValueError(f"p = {p} does not match the field characteristic {fld.p}")
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
        coh = hh_cohomology(algebra, m, size_cap)
        if coh.dim == 0:
            entry.update(
                vacuous=True, power_of_cocycle_is_cocycle=True, ad_power=True,
                scaling=True, additivity=True, class_well_defined=True,
            )
            report["degrees"][m] = entry
            continue
        reps = coh.cochains()
        target = p * (m - 1) + 1
        powers = [sigma_p(f, size_cap) for f in reps]
        power_class = functools.cache(lambda i: _class_of(algebra, powers[i], size_cap))

        entry["power_of_cocycle_is_cocycle"] = all(s.is_cocycle(size_cap) for s in powers)

        ok = True
        for i, fa in enumerate(reps):
            for j, gb in enumerate(reps):
                lhs = bracket(powers[i], gb, size_cap)
                v = gb
                for _ in range(p):
                    v = bracket(fa, v, size_cap)
                if not np.array_equal(
                    _class_of(algebra, lhs, size_cap), _class_of(algebra, v, size_cap)
                ):
                    ok = False
                    entry.setdefault("witness_ad_power", (i, j))
        entry["ad_power"] = ok

        ok = True
        for _ in range(scalars):
            c = int(rng.integers(1, fld.q))
            i = int(rng.integers(0, len(reps)))
            if sigma_p(reps[i].scale(c), size_cap) != powers[i].scale(fld.pow(c, p)):
                ok = False
                entry.setdefault("witness_scaling", (c, i))
        entry["scaling"] = ok

        ok = True
        for i, fa in enumerate(reps):
            for j, gb in enumerate(reps):
                want = fld.vadd(power_class(i), power_class(j))
                for s in jacobson_si(fa, gb, p, size_cap):
                    want = fld.vadd(want, _class_of(algebra, s, size_cap))
                got = _class_of(algebra, sigma_p(fa + gb, size_cap), size_cap)
                if not np.array_equal(got, want):
                    ok = False
                    entry.setdefault("witness_additivity", (i, j))
        entry["additivity"] = ok

        ok = True
        for _ in range(trials):
            i = int(rng.integers(0, len(reps)))
            emat = rng.integers(0, fld.q, size=(algebra.dim, algebra.dim ** (m - 1)))
            shift = coboundary(Cochain(algebra, m - 1, Mat(fld, emat.astype(CODE_DTYPE))), size_cap)
            moved = sigma_p(reps[i] + shift, size_cap)
            if not np.array_equal(_class_of(algebra, moved, size_cap), power_class(i)):
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
