"""The benchmark's algebras and the facts it knows about them in advance.

Each `Spec` pairs a constructor from `derinv` with values taken from
sources that do not run the code under test: Cayley tables written here,
conjugacy classes and element orders counted from those tables, and the
closed forms for Hochschild homology quoted below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import derinv

# The program's documented default entry cap (KK_SIZE_CAP unset).
SIZE_CAP = 2**27
# Degrees in the default SignatureConfig.
M_MAX = 3
N_MAX = 3


@dataclass(frozen=True)
class Spec:
    name: str
    p: int
    e: int
    dim: int
    build: Callable[[], "derinv.Algebra"]
    hh: Callable[[int], int]  # dim HH_m = dim HH^m, by closed form
    classes: int  # dim Z(A) = dim A/KA
    stabilization: int


# -- groups, from tables written here --


def cyclic(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def klein() -> np.ndarray:
    i = np.arange(4)
    return i[:, None] ^ i[None, :]


def s3() -> np.ndarray:
    perms = list(itertools.permutations(range(3)))
    index = {q: k for k, q in enumerate(perms)}
    return np.array([[index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms])


def _identity(t: np.ndarray) -> int:
    n = t.shape[0]
    return next(e for e in range(n) if (t[e] == np.arange(n)).all())


def conjugacy_classes(t: np.ndarray) -> int:
    n, e = t.shape[0], _identity(t)
    inv = [int(np.flatnonzero(t[g] == e)[0]) for g in range(n)]
    seen: set[int] = set()
    count = 0
    for g in range(n):
        if g not in seen:
            count += 1
            seen.update(int(t[t[h, g], inv[h]]) for h in range(n))
    return count


def sylow_exponent_log(t: np.ndarray, p: int) -> int:
    """log_p of the exponent of a Sylow p-subgroup: the largest p-power order."""
    e, best = _identity(t), 1
    for g in range(t.shape[0]):
        order, x = 1, g
        while x != e:
            x, order = int(t[x, g]), order + 1
        while order % p == 0 and order > 1:
            best = max(best, order)
            order //= p
    return round(math.log(best, p))


def group_spec(name: str, p: int, e: int, table: np.ndarray, hh: Callable[[int], int]) -> Spec:
    def build():
        return derinv.make_group_algebra(derinv.GF(p, e), table, kind={"name": "group", "group": name})

    return Spec(f"gf{p**e}_{name.lower()}", p, e, table.shape[0], build, hh,
                conjugacy_classes(table), max(1, sylow_exponent_log(table, p)))


def truncated_spec(p: int, e: int, n: int) -> Spec:
    """k[x]/(x^n): HH_m has dimension n at m = 0, then n if p | n, else n - 1."""
    def hh(m: int) -> int:
        return n if m == 0 or n % p == 0 else n - 1

    s = 0
    while p**s < n:
        s += 1
    return Spec(f"gf{p**e}_x{n}", p, e, n,
                lambda: derinv.make_truncated_polynomial(derinv.GF(p, e), n),
                hh, n, max(1, s))


def matrix_spec(p: int, e: int) -> Spec:
    """M_2(k) is Morita equivalent to k: HH is k in degree 0 and zero above."""
    return Spec(f"gf{p**e}_m2", p, e, 4,
                lambda: derinv.make_matrix_algebra(
                    derinv.make_truncated_polynomial(derinv.GF(p, e), 1), 2),
                lambda m: 1 if m == 0 else 0, 1, 1)


def trivial_extension_spec() -> Spec:
    """T(GF(2)[x]/(x^2)) = GF(2)[x, y]/(x^2, y^2), isomorphic to GF(2)[C2 x C2]."""
    return Spec("gf2_triv_ext", 2, 1, 4,
                lambda: derinv.make_trivial_extension(
                    derinv.make_truncated_polynomial(derinv.GF(2), 2)),
                lambda m: 4 * (m + 1), 4, 1)


def _specs() -> dict[str, Spec]:
    def cyclic_hh(n):
        # HH_m(kC_{p^k}) has dimension |G| in every degree
        return lambda m: n

    specs = [
        group_spec("C4", 2, 1, cyclic(4), cyclic_hh(4)),
        # Kunneth: HH_m(kC2 x kC2) = sum_{i+j=m} HH_i(kC2) x HH_j(kC2)
        group_spec("C2xC2", 2, 1, klein(), lambda m: 4 * (m + 1)),
        # Burghelea: classes {1}, transpositions, 3-cycles with centralizers
        # S3, C2, C3; H_m(-, GF(2)) is 1, 1, and [m = 0]
        group_spec("S3", 2, 1, s3(), lambda m: 3 if m == 0 else 2),
        group_spec("C8", 2, 1, cyclic(8), cyclic_hh(8)),
        group_spec("C3", 3, 1, cyclic(3), cyclic_hh(3)),
        group_spec("C9", 3, 1, cyclic(9), cyclic_hh(9)),
        truncated_spec(2, 1, 1),
        truncated_spec(3, 1, 1),
        truncated_spec(2, 2, 1),
        truncated_spec(2, 1, 2),
        truncated_spec(2, 1, 4),
        truncated_spec(3, 1, 2),
        truncated_spec(3, 1, 3),
        truncated_spec(3, 1, 4),
        truncated_spec(2, 2, 2),
        trivial_extension_spec(),
        matrix_spec(2, 1),
        matrix_spec(3, 1),
        matrix_spec(2, 2),
    ]
    return {s.name: s for s in specs}


SPECS = _specs()


def default_kappa_pairs(p: int) -> tuple[tuple[int, int], ...]:
    """The (m, n) pairs of the default SignatureConfig, as documented."""
    return ((0, 1), (0, 2), (1, 1), (2, 1)) if p == 2 else ((0, 1), (0, 2), (2, 1))


def over_cap(dim: int, degree: int) -> bool:
    """Whether bar matrices in this degree exceed the default entry cap."""
    return dim ** (2 * degree + 3) > SIZE_CAP


def predicted_skips(spec: Spec) -> set[str]:
    """Signature entries that the cap must mark "skipped: cap"."""
    out = set()
    for m in range(M_MAX + 1):
        if over_cap(spec.dim, m):
            out |= {f"dim_hh_homology_{m}", f"dim_hh_cohomology_{m}"}
    for m, n in default_kappa_pairs(spec.p):
        if over_cap(spec.dim, spec.p**n * m):
            out |= {f"dim_im_kappa_m{m}_n{n}", f"dim_t_m{m}_n{n}", f"dim_ker_kappa_m{m}_n{n}"}
    return out
