"""Output checks. Each returns a list of problems; an empty list passes.

No check calls into `derinv`: expected values come from `corpus` (closed
forms and counts over Cayley tables), from exhaustive enumeration, from
the cap arithmetic, and from invariance (a signature does not depend on
the basis).
"""

from __future__ import annotations

import itertools

import numpy as np

from corpus import M_MAX, N_MAX, Spec, default_kappa_pairs, over_cap, predicted_skips

SKIPPED_CAP = "skipped: cap"
VERIFY_CHECKS = (
    "semilinear_defining_relation",
    "composition",
    "image_is_orthogonal_of_t",
    "kernel_is_orthogonal_of_powers",
    "dimension_formula",
)
RESTRICTED_AXIOMS = (
    "power_of_cocycle_is_cocycle", "ad_power", "scaling", "additivity", "class_well_defined",
)


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_signature(spec: Spec, doc: dict) -> list[str]:
    """A signature document against closed forms and the cap arithmetic."""
    out: list[str] = []
    _expect(out, "field", doc.get("field"), {"p": spec.p, "e": spec.e})
    ent = doc.get("entries", {})
    p = spec.p
    _expect(out, "dim_a", ent.get("dim_a"), spec.dim)
    _expect(out, "dim_center", ent.get("dim_center"), spec.classes)
    _expect(out, "dim_a_mod_ka", ent.get("dim_a_mod_ka"), spec.classes)
    _expect(out, "stabilization_index", ent.get("stabilization_index"), spec.stabilization)
    for n in range(1, N_MAX + 1):
        im, ker = ent.get(f"dim_im_kappa_{n}"), ent.get(f"dim_ker_kappa_{n}")
        if not (isinstance(im, int) and isinstance(ker, int)):
            out.append(f"dim_im/ker_kappa_{n} missing")
        else:
            _expect(out, f"rank + nullity of kappa_{n}", im + ker, spec.classes)
    skips = predicted_skips(spec)
    markers = {k for k, v in ent.items() if isinstance(v, str)}
    _expect(out, "skipped entries", sorted(markers), sorted(skips))
    for k in markers:
        _expect(out, k, ent[k], SKIPPED_CAP)
    for m in range(M_MAX + 1):
        for side in ("homology", "cohomology"):
            key = f"dim_hh_{side}_{m}"
            if key not in skips:
                _expect(out, key, ent.get(key), spec.hh(m))
    for m, n in default_kappa_pairs(p):
        im = ent.get(f"dim_im_kappa_m{m}_n{n}")
        if f"dim_im_kappa_m{m}_n{n}" in skips:
            continue
        ker, t = ent.get(f"dim_ker_kappa_m{m}_n{n}"), ent.get(f"dim_t_m{m}_n{n}")
        if not all(isinstance(v, int) for v in (im, ker, t)):
            out.append(f"kappa_m{m}_n{n} entries missing")
            continue
        # kappa_n^(m): HH_{p^n m} -> HH_m, and rank = dim HH^m - dim T_n^(m)
        _expect(out, f"im + ker of kappa_m{m}_n{n}", im + ker, spec.hh(p**n * m))
        _expect(out, f"im + t of kappa_m{m}_n{n}", im + t, spec.hh(m))
    return out


def t1_dim_by_enumeration(table: np.ndarray) -> int:
    """dim T_1 = {x : x^2 in KA} of GF(2)G for an abelian G, over all 2^|G| elements.

    KA = 0 for an abelian group, so T_1 is the set of x with x^2 = 0.
    """
    n = table.shape[0]
    if not (table == table.T).all():
        raise ValueError("enumeration needs an abelian group")
    hits = 0
    for x in itertools.product((0, 1), repeat=n):
        sq = np.zeros(n, dtype=np.int64)
        for g, h in itertools.product(range(n), repeat=2):
            sq[table[g, h]] += x[g] * x[h]
        hits += not (sq % 2).any()
    return hits.bit_length() - 1


def check_t1(doc: dict, t1_dim: int, dim: int) -> list[str]:
    out: list[str] = []
    ent = doc.get("entries", {})
    _expect(out, "dim_t_1", ent.get("dim_t_1"), t1_dim)
    _expect(out, "dim_t_perp_1", ent.get("dim_t_perp_1"), dim - t1_dim)
    return out


def check_compare(code: int, report: dict, differences: list[dict]) -> list[str]:
    """A compare report; no expected differences means INCONCLUSIVE (exit 0)."""
    out: list[str] = []
    distinguished = bool(differences)
    _expect(out, "exit code", code, 10 if distinguished else 0)
    _expect(out, "verdict", report.get("verdict"), "DISTINGUISHED" if distinguished else "INCONCLUSIVE")
    got = report.get("differences", [])
    if not distinguished:
        _expect(out, "differences", got, [])
    for d in differences:
        if d not in got:
            out.append(f"difference {d} missing from {got}")
    return out


def check_dense(spec: Spec, doc: dict, natural: dict) -> list[str]:
    """Basis-change invariance, then the closed forms."""
    out = check_signature(spec, doc)
    ent = doc.get("entries", {})
    diff = sorted(k for k in set(ent) | set(natural) if ent.get(k) != natural.get(k))
    if diff:
        out.append(f"entries differ from the natural basis: {diff}")
    return out


def check_verify(spec: Spec, mnl: tuple[int, int, int], report: dict) -> list[str]:
    out: list[str] = []
    m, n, ell = mnl
    p = spec.p
    _expect(out, "all_passed", report.get("all_passed"), True)
    skipped = ["composition"] if over_cap(spec.dim, p ** (n + ell) * m) else []
    _expect(out, "skipped", report.get("skipped"), skipped)
    for k in VERIFY_CHECKS:
        _expect(out, k, report.get(k), SKIPPED_CAP if k in skipped else True)
    _expect(out, "zero_regime", report.get("zero_regime"), p != 2 and m % 2 == 1 and n >= 1)
    return out


def check_restricted(spec: Spec, degrees: tuple[int, ...], report: dict) -> list[str]:
    out: list[str] = []
    _expect(out, "all_passed", report.get("all_passed"), True)
    _expect(out, "p", report.get("p"), spec.p)
    got = {int(k): v for k, v in report.get("degrees", {}).items()}  # JSON keys are strings
    _expect(out, "degrees", sorted(got), sorted(degrees))
    for m in degrees:
        entry = got.get(m, {})
        for k in RESTRICTED_AXIOMS:
            _expect(out, f"degree {m} {k}", entry.get(k), True)
        if spec.hh(m) == 0:
            _expect(out, f"degree {m} vacuous", entry.get("vacuous"), True)
        else:
            _expect(out, f"degree {m} target", entry.get("target_degree"), spec.p * (m - 1) + 1)
    return out


def check_gerst(spec: Spec, deg: int, doc: dict) -> list[str]:
    """`derinv gerst --check-restricted`: HH^deg by closed form, ranks within it, the axioms."""
    out: list[str] = []
    _expect(out, "field", doc.get("field"), {"p": spec.p, "e": spec.e})
    _expect(out, "degree", doc.get("degree"), deg)
    _expect(out, "dim_hh", doc.get("dim_hh"), spec.hh(deg))
    # sigma_p lands in degree p(deg - 1) + 1; [HH^1, HH^1] lies in HH^1
    bounds = {"sigma_rank": spec.hh(spec.p * (deg - 1) + 1)}
    if deg == 1:
        bounds["dim_derived_hh1"] = spec.hh(1)
    for key, top in bounds.items():
        v = doc.get(key)
        if not (isinstance(v, int) and 0 <= v <= top):
            out.append(f"{key}: got {v!r}, want an integer in [0, {top}]")
    return out + check_restricted(spec, (deg,), doc.get("restricted_axioms", {}))


def check_kulshammer(spec: Spec, rep: dict) -> list[str]:
    """Degree-0 theorems: T_0 = KA, im zeta_n = T_n-perp, im/ker kappa_n = T_n(Z)/P_n(Z)-perp."""
    out: list[str] = []
    d, z = spec.dim, spec.classes
    _expect(out, "dim", rep.get("dim"), d)
    _expect(out, "dim_center", rep.get("dim_center"), z)
    _expect(out, "dim_ka", rep.get("dim_ka"), d - z)
    _expect(out, "stabilization_index", rep.get("stabilization_index"), spec.stabilization)
    t = rep.get("t_dims", [])
    _expect(out, "len(t_dims)", len(t), N_MAX + 1)
    if len(t) == N_MAX + 1:
        _expect(out, "T_0", t[0], d - z)
        _expect(out, "T_n ascending", t, sorted(t))
        _expect(out, "im zeta_n", rep.get("zeta_image_dims"), [d - x for x in t[1:]])
    _expect(out, "im kappa_n", rep.get("kappa_image_dims"), [z - x for x in rep.get("t_center_dims", [])])
    _expect(out, "ker kappa_n", rep.get("kappa_kernel_dims"), [z - x for x in rep.get("p_center_dims", [])])
    for key in ("t_center_dims", "p_center_dims"):
        _expect(out, f"len({key})", len(rep.get(key, [])), N_MAX)
    return out


def check_bracket(arity: int, matrix: np.ndarray, want_arity: int, want: np.ndarray) -> list[str]:
    out: list[str] = []
    _expect(out, "bracket arity", arity, want_arity)
    if matrix.shape != want.shape or not np.array_equal(matrix, want):
        out.append("bracket(f, m_A) differs from -delta(f)")
    return out


# -- delta(f), one input slot at a time --


class SmallField:
    """GF(p^e) on codes sum_i c_i p^i, by polynomial arithmetic mod a modulus."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p, self.e, self.mod = p, e, modulus  # ascending, monic

    def digits(self, a: int) -> list[int]:
        return [(a // self.p**i) % self.p for i in range(self.e)]

    def code(self, ds) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(ds))

    def add(self, a: int, b: int) -> int:
        return self.code([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        return self.code([-x for x in self.digits(a)])

    def mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            prod[k] = 0
            for j in range(e):
                prod[k - e + j] -= c * self.mod[j]
        return self.code(prod[:e])


def neg_coboundary(fld: SmallField, mult: np.ndarray, fmat: np.ndarray, m: int) -> np.ndarray:
    """-delta(f) for an arity-m cochain f (d x d^m), evaluated on every basis tuple.

    (delta f)(a_1..a_{m+1}) = a_1 f(a_2..) + sum_i (-1)^i f(..a_i a_{i+1}..)
                              + (-1)^(m+1) f(a_1..a_m) a_{m+1}
    with mult[i, j] the coordinates of b_i b_j.
    """
    d = mult.shape[0]

    def col(args) -> int:
        c = 0
        for a in args:
            c = c * d + a
        return c

    def f_of(args) -> list[int]:
        return [int(v) for v in fmat[:, col(args)]]

    def times(u: list[int], v: list[int]) -> list[int]:
        out = [0] * d
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                if x and y:
                    xy = fld.mul(x, y)
                    for k in range(d):
                        out[k] = fld.add(out[k], fld.mul(xy, int(mult[i, j, k])))
        return out

    def unit_vec(i: int) -> list[int]:
        return [1 if k == i else 0 for k in range(d)]

    def acc(total: list[int], vec: list[int], sign: int) -> None:
        for k in range(d):
            total[k] = fld.add(total[k], vec[k] if sign > 0 else fld.neg(vec[k]))

    out = np.zeros((d, d ** (m + 1)), dtype=np.int8)
    for args in itertools.product(range(d), repeat=m + 1):
        total = [0] * d
        acc(total, times(unit_vec(args[0]), f_of(args[1:])), 1)
        for i in range(1, m + 1):
            prod = [int(c) for c in mult[args[i - 1], args[i]]]
            # f is linear in slot i: expand a_i a_{i+1} over the basis
            for k, c in enumerate(prod):
                if c:
                    term = [fld.mul(c, v) for v in f_of(args[: i - 1] + (k,) + args[i + 1:])]
                    acc(total, term, -1 if i % 2 else 1)
        acc(total, times(f_of(args[:m]), unit_vec(args[m])), -1 if (m + 1) % 2 else 1)
        out[:, col(args)] = [fld.neg(v) for v in total]
    return out
