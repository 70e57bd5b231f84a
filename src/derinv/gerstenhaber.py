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

The insertions compute everything here; they are the coalgebra model
read at tensor length 1.  The tensor coalgebra B(A) = k + A[1] +
(A x A)[2] + ... carries the deconcatenation comultiplication, and f
extends to the coderivation

    D_f|_r = sum_{i=1}^{r-m+1} (-1)^((m-1)(i-1)) id^(i-1) x f x id^(r-m+1-i)

of degree m - 1.  The projection tau onto tensor length 1 inverts
f -> D_f, so f o g = tau o D_f D_g and [f, g] = tau o [D_f, D_g].  The
multiplication cochain gives the differential d_A with d_A^2 = 0.  The
components of D_f are products over associative matrix blocks, so
tau o D_f^p is the left-nested product above.  coderivation_component,
coderivation_power_component, is_coderivation and build_dA build this
model as dense Kronecker matrices, the reference that tests and the
benchmark tracer name; no library code calls them.

Plain p-th powers of coderivations are again coderivations when p = 2,
or when p is odd and the cochain arity is odd (even coderivation
degree); tau o D_f^p then induces sigma_p on cohomology classes, the
p-operation of the restricted Lie structure on odd cohomology.  The
Jacobson polynomials s_i and the three restricted-Lie axioms are
computed from brackets alone; no symmetrizing form enters anywhere in
this module.

The insertions work on stacks of cochains: _pre_lie takes code arrays
of shapes (..., d, d^m) and (..., d, d^n), broadcast over the leading
axes, and each slot is one Field.matmul for the whole stack.  bracket,
sigma_p and jacobson_si are the one-cochain case of _brackets, _powers
and _jacobson.  restricted_axioms_check runs each axiom as one stage
over all pairs of basis classes (or all random draws), in slices of at
most fields._PANEL // 32 entries, with one class_coords solve per slice.
In characteristic 2 the p-power map is quadratic,

    sigma(sum c_i f_i) = sum c_i^2 sigma(f_i) + sum_{i<j} c_i c_j [f_i, f_j],

exactly at cochain level, since o is bilinear and f o g + g o f = [f, g];
so the span of sigma over all classes is that of the classes of
sigma(f_i) and [f_i, f_j] (signature.sigma_class_rank).

A component matrix in source tensor length r has d^(r-m+1) x d^r
entries and respects the same size cap as the bar complex assemblies.
bracket and sigma_p build none of them, but check the caps of the
components the dense reference multiplies for tau o [D_f, D_g] and
tau o D_f^p, in the same order, so every cap decision is the dense one.
"""

from __future__ import annotations

import numpy as np

from .algebras import Algebra, _check_cap, resolve_size_cap
from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    InvariantViolation,
    ParityViolation,
)
from .fields import _PANEL, CODE_DTYPE
from .hochschild import Cochain, _delta, _pre_lie, hh_cohomology, multiplication_cochain
from .linalg import Mat

# bracket(f, multiplication_cochain) equals this constant times the
# Hochschild coboundary of f, in every arity and characteristic; the
# orientation [D_f, d_A] is the one with a degree-independent sign
COBOUNDARY_BRACKET_SIGN = -1

_BELOW_COUNIT = "the p-th power of an arity-0 cochain lands below the counit"


def _check_component_cap(algebra: Algebra, arity: int, r: int, size_cap: int | None) -> None:
    d = algebra.dim
    _check_cap(d ** (r - arity + 1) * d**r, resolve_size_cap(size_cap),
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
    _check_component_cap(a, m, r, size_cap)
    acc = np.zeros((rows, cols), dtype=CODE_DTYPE)
    block_pos = f.matrix.data
    block_neg = fld.vneg(block_pos)
    for i in range(1, out_len + 1):
        left = np.eye(d ** (i - 1), dtype=CODE_DTYPE)
        right = np.eye(d ** (out_len - i), dtype=CODE_DTYPE)
        block = block_pos if ((m - 1) * (i - 1)) % 2 == 0 else block_neg
        acc = fld.vadd(acc, np.kron(np.kron(left, block), right))
    return Mat(fld, acc)


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


def build_dA(algebra: Algebra, max_len: int, size_cap: int | None = None) -> dict[int, Mat]:
    """The differential d_A, the coderivation of the multiplication.

    Asserts tau o d_A = m_A and d_A o d_A = 0 on every tensor length up
    to max_len; the latter is the coalgebra-level restatement of
    associativity.  Returns the components {r: d_A on length r} for
    1 <= r <= max_len.
    """
    if max_len < 2:
        raise ValueError("need max_len >= 2 to see the multiplication")
    mu = multiplication_cochain(algebra)
    fld = algebra.field
    parts = {2: coderivation_component(mu, 2, size_cap)}
    if parts[2] != mu.matrix:
        raise InvariantViolation("tau o d_A differs from the multiplication")
    for r in range(3, max_len + 1):
        parts[r] = coderivation_component(mu, r, size_cap)
        if fld.matmul(parts[r - 1].data, parts[r].data).any():
            raise InvariantViolation(f"d_A^2 is nonzero on tensor length {r}")
    # length 1 is the smallest component and enters neither check
    return {1: coderivation_component(mu, 1, size_cap), **parts}


def _bracket_caps(algebra: Algebra, m: int, n: int, size_cap: int | None) -> None:
    r = m + n - 1
    for arity, length in ((m, m), (n, r), (n, n), (m, r)):
        _check_component_cap(algebra, arity, length, size_cap)


def _brackets(algebra: Algebra, f: np.ndarray, m: int, g: np.ndarray, n: int,
              size_cap: int | None = None) -> np.ndarray:
    """[f, g] on stacks f (..., d, d^m) and g (..., d, d^n) of code arrays, broadcast."""
    d = algebra.dim
    if m + n == 0:
        return np.zeros(np.broadcast_shapes(f.shape[:-2], g.shape[:-2]) + (d, 1), dtype=CODE_DTYPE)
    _bracket_caps(algebra, m, n, size_cap)
    fld = algebra.field
    fg = _pre_lie(fld, f, m, g, n)
    gf = _pre_lie(fld, g, n, f, m)
    if ((m - 1) * (n - 1)) % 2 == 1:
        gf = fld.vneg(gf)
    return fld.vsub(fg, gf)


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
    a, m, n = f.algebra, f.arity, g.arity
    out = _brackets(a, f.matrix.data, m, g.matrix.data, n, size_cap)
    return Cochain(a, max(m + n - 1, 0), Mat(a.field, out))


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


def _powers(algebra: Algebra, f: np.ndarray, m: int, size_cap: int | None = None) -> np.ndarray:
    """sigma_p on a stack f (..., d, d^m) of arity-m code arrays."""
    p = algebra.field.p
    if p > 2 and m % 2 == 0:
        raise ParityViolation(
            f"p-th Gerstenhaber power needs odd arity for p = {p}, got {m}"
        )
    if m == 0:
        raise ValueError(_BELOW_COUNIT)
    s = m - 1
    target = p * s + 1
    for j in range(p):
        _check_component_cap(algebra, m, target - j * s, size_cap)
    power, arity = f, m
    for _ in range(p - 1):
        power = _pre_lie(algebra.field, power, arity, f, m)
        arity += s
    return power


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
    a, m = f.algebra, f.arity
    power = _powers(a, f.matrix.data, m, size_cap)
    return Cochain(a, a.field.p * (m - 1) + 1, Mat(a.field, power))


def _jacobson(algebra: Algebra, a: np.ndarray, b: np.ndarray, m: int,
              size_cap: int | None = None) -> list[np.ndarray]:
    """s_1 .. s_(p-1) on stacks a and b of arity-m code arrays, broadcast."""
    if m == 0:
        raise ValueError(_BELOW_COUNIT)
    fld = algebra.field
    p = fld.p
    # coeffs[t] is the X^t coefficient; None stands for zero
    coeffs: list[np.ndarray | None] = [a] + [None] * (p - 1)
    for step in range(1, p):
        arity = m + (step - 1) * (m - 1)
        nxt: list[np.ndarray | None] = [None] * p
        # the top coefficient of the last step enters no s_i
        for t in range(p if step < p - 1 else p - 1):
            terms = []
            if t >= 1 and coeffs[t - 1] is not None:
                terms.append(_brackets(algebra, a, m, coeffs[t - 1], arity, size_cap))
            if coeffs[t] is not None:
                terms.append(_brackets(algebra, b, m, coeffs[t], arity, size_cap))
            if terms:
                nxt[t] = terms[0] if len(terms) == 1 else fld.vadd(*terms)
        coeffs = nxt
    d = algebra.dim
    zero = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                    + (d, d ** (m + (p - 1) * (m - 1))), dtype=CODE_DTYPE)
    return [zero if c is None else fld.vscale(fld.inv(i % p), c)
            for i, c in enumerate(coeffs[:p - 1], start=1)]


def jacobson_si(a: Cochain, b: Cochain, p: int | None = None,
                size_cap: int | None = None) -> list[Cochain]:
    """Jacobson polynomials s_1 .. s_(p-1) of two equal-arity cochains.

    (ad(a X + b))^(p-1) applied to a, expanded over k[X] with cochain
    coefficients; the X^(i-1) coefficient equals i * s_i(a, b).  Each
    s_i has the same arity as sigma_p and enters the additivity axiom
    (a + b)^[p] = a^[p] + b^[p] + sum_i s_i(a, b).  As in sigma_p, arity
    0 raises ValueError: the s_i would have arity 1 - p.
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
    parts = _jacobson(alg, a.matrix.data, b.matrix.data, m, size_cap)
    return [Cochain(alg, m + (p - 1) * (m - 1), Mat(fld, s)) for s in parts]


def _slices(count: int, width: int):
    """Consecutive slices of a stack of count cochains of width entries each.

    A product in Field.matmul keeps about four float64 or int64 copies of
    its operand and result at once, 32 bytes an entry, so a slice holds
    at most _PANEL // 32 entries (one cochain at least) and those copies
    take at most _PANEL bytes.  A stage over all pairs then holds no
    more at once than one slice, or one pair where a pair is larger.
    """
    step = max(1, _PANEL // 32 // max(1, width))
    return (slice(s, s + step) for s in range(0, count, step))


def _flags(stage, count: int, width: int) -> np.ndarray:
    """stage(sl), a pass flag per stacked item, joined over the slices."""
    return np.concatenate([np.ones(0, dtype=bool)] + [stage(sl) for sl in _slices(count, width)])


def _record(entry: dict, key: str, ok: np.ndarray, witness) -> None:
    """Set entry[key], after witness(first failing index) when one fails."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        entry[f"witness_{key}"] = witness(int(bad[0]))
    entry[key] = not bad.size


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

    Each axiom is one stage over all pairs (i, j) of basis cocycles, or
    all draws, taken as stacks in slices: the insertions of a slice are
    one product per slot, and its classes one class_coords solve.  A
    witness is the first failing pair in row-major order, or the first
    failing draw.
    """
    fld, d = algebra.field, algebra.dim
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
        k = coh.dim
        reps = coh.reps.data.reshape(k, d, d**m)
        target = p * (m - 1) + 1
        powers = np.concatenate([_powers(algebra, reps[sl], m, size_cap)
                                 for sl in _slices(k, d ** (target + 1))])
        closed = _flags(lambda sl: ~_delta(algebra, powers[sl], target, size_cap).any(axis=(1, 2)),
                        k, d ** (target + 2))
        entry["power_of_cocycle_is_cocycle"] = bool(closed.all())

        # pairs (i, j) in row-major order
        ii, jj = np.divmod(np.arange(k * k), k)
        r = target + m - 1
        _bracket_caps(algebra, target, m, size_cap)
        for t in range(p):
            _bracket_caps(algebra, m, m + t * (m - 1), size_cap)
        coh_r = hh_cohomology(algebra, r, size_cap)

        def ad_power(sl):
            i, j = ii[sl], jj[sl]
            lhs = _brackets(algebra, powers[i], target, reps[j], m, size_cap)
            v, arity = reps[j], m
            for _ in range(p):
                v = _brackets(algebra, reps[i], m, v, arity, size_cap)
                arity += m - 1
            rows = np.concatenate([lhs.reshape(len(i), -1), v.reshape(len(i), -1)])
            got = coh_r.class_coords(rows)
            return (got[:len(i)] == got[len(i):]).all(axis=1)

        _record(entry, "ad_power", _flags(ad_power, k * k, 2 * d ** (r + 1)),
                lambda w: (int(ii[w]), int(jj[w])))

        draws = [(int(rng.integers(1, fld.q)), int(rng.integers(0, k))) for _ in range(scalars)]
        cs = np.array([c for c, _ in draws], dtype=CODE_DTYPE).reshape(-1, 1, 1)
        cps = np.array([fld.pow(c, p) for c, _ in draws], dtype=CODE_DTYPE).reshape(-1, 1, 1)
        picked = np.array([i for _, i in draws], dtype=np.int64)

        def scaling(sl):
            got = _powers(algebra, fld.vmul(cs[sl], reps[picked[sl]]), m, size_cap)
            return (got == fld.vmul(cps[sl], powers[picked[sl]])).all(axis=(1, 2))

        _record(entry, "scaling", _flags(scaling, scalars, d ** (target + 1)), lambda w: draws[w])

        coh_t = hh_cohomology(algebra, target, size_cap)
        power_classes = coh_t.class_coords(powers.reshape(k, -1))

        def additivity(sl):
            i, j = ii[sl], jj[sl]
            parts = _jacobson(algebra, reps[i], reps[j], m, size_cap)
            # sigma_p(f_i + f_j) directly, not through the law under test
            parts.append(_powers(algebra, fld.vadd(reps[i], reps[j]), m, size_cap))
            rows = np.concatenate([x.reshape(len(i), -1) for x in parts])
            classes = coh_t.class_coords(rows).reshape(len(parts), len(i), -1)
            want = fld.vadd(power_classes[i], power_classes[j])
            for c in classes[:-1]:
                want = fld.vadd(want, c)
            return (classes[-1] == want).all(axis=1)

        _record(entry, "additivity", _flags(additivity, k * k, p * d ** (target + 1)),
                lambda w: (int(ii[w]), int(jj[w])))

        chosen, shifts = [], []
        for _ in range(trials):
            chosen.append(int(rng.integers(0, k)))
            shifts.append(rng.integers(0, fld.q, size=(d, d ** (m - 1))).astype(CODE_DTYPE))
        chosen = np.array(chosen, dtype=np.int64)
        shifts = np.array(shifts, dtype=CODE_DTYPE).reshape(trials, d, d ** (m - 1))

        def well_defined(sl):
            moved = fld.vadd(reps[chosen[sl]], _delta(algebra, shifts[sl], m - 1, size_cap))
            got = coh_t.class_coords(_powers(algebra, moved, m, size_cap).reshape(len(moved), -1))
            return (got == power_classes[chosen[sl]]).all(axis=1)

        _record(entry, "class_well_defined", _flags(well_defined, trials, d ** (target + 1)),
                lambda w: int(chosen[w]))

        entry["target_degree"] = target
        report["degrees"][m] = entry
        if not all(
            entry[key]
            for key in (
                "power_of_cocycle_is_cocycle", "ad_power", "scaling",
                "additivity", "class_well_defined",
            )
        ):
            failures.append(m)
    report["all_passed"] = not failures
    return report
