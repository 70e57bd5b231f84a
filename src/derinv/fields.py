"""Exact arithmetic in small finite fields GF(p^e).

An element sum_i c_i * alpha^i (alpha a root of the defining modulus,
0 <= c_i < p) is stored as the integer code sum_i c_i * p^i.  Codes fit
in int8, so numpy arrays of codes can be combined with table lookups
and the prime-field case reduces to integer arithmetic mod p.

The modulus per (p, e) is the Conway polynomial for the small cases
used here; any monic irreducible of degree e is accepted.  Table:

    (2,1) x+1          (3,1) x+1          (5,1) x+3
    (2,2) x^2+x+1      (3,2) x^2+2x+2     (5,2) x^2+4x+2
    (2,3) x^3+x+1      (3,3) x^3+2x+1     (7,1) x+4
    (2,4) x^4+x+1      (3,4) x^4+2x^3+2   (7,2) x^2+6x+3
    (2,5) x^5+x^2+1    (11,1) x+9         (13,1) x+11
    (2,6) x^6+x^4+x^3+x+1
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DerinvError, DimensionMismatch

CODE_DTYPE = np.int8
MAX_ORDER = 127  # codes must fit int8
# float64 entries that Field.matmul makes of its left operand at once (the
# Gerstenhaber checks slice their cochain stacks by it too)
_PANEL = 1 << 20

# Ascending coefficient tuples, constant term first, monic leading 1.
CONWAY: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (11, 1): (9, 1),
    (13, 1): (11, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> tuple[int, ...]:
    """Product of polynomials over GF(p), reduced mod a monic modulus."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    e = len(mod) - 1
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(e):
                out[i - e + j] = (out[i - e + j] - c * mod[j]) % p
    out = out[:e] + [0] * max(0, e - len(out))
    return tuple(v % p for v in out[:e])


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Brute-force irreducibility over GF(p); fine for the tiny degrees here."""
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] % p != 1:
        return False
    if e == 1:
        return True

    def divides(d: Sequence[int]) -> bool:
        rem = [c % p for c in coeffs]
        dd = len(d) - 1
        inv_lead = pow(d[-1], p - 2, p)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = (rem[i] * inv_lead) % p
            if c:
                for j in range(dd + 1):
                    rem[i - dd + j] = (rem[i - dd + j] - c * d[j]) % p
        return not any(rem[:dd])

    for deg in range(1, e // 2 + 1):
        for code in range(p ** deg):
            d = [(code // p ** i) % p for i in range(deg)] + [1]
            if divides(d):
                return False
    return True


class Field:
    """GF(p^e) with table-driven vectorized operations on code arrays."""

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise DerinvError(f"p = {p} is not prime")
        if e < 1:
            raise DerinvError(f"e = {e} must be >= 1")
        q = p ** e
        if q > MAX_ORDER:
            raise DerinvError(f"GF({q}) exceeds the supported order {MAX_ORDER}")
        if modulus is None:
            if e == 1:
                modulus = (0, 1)  # placeholder; never used for e = 1
            else:
                try:
                    modulus = CONWAY[(p, e)]
                except KeyError:
                    raise DerinvError(f"no default modulus on file for GF({p}^{e})") from None
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (1,)
        if e > 1:
            if len(modulus) != e + 1 or not _poly_is_irreducible(modulus, p):
                raise DerinvError(f"modulus {modulus} is not monic irreducible of degree {e} over GF({p})")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        if e > 1:
            self._build_tables()

    # -- construction of lookup tables (e > 1 only) --

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        coeffs = [tuple((c // p ** i) % p for i in range(e)) for c in range(q)]
        code_of = {cf: i for i, cf in enumerate(coeffs)}

        add = np.zeros((q, q), dtype=CODE_DTYPE)
        mul = np.zeros((q, q), dtype=CODE_DTYPE)
        for a in range(q):
            for b in range(a, q):
                s = tuple((x + y) % p for x, y in zip(coeffs[a], coeffs[b]))
                add[a, b] = add[b, a] = code_of[s]
                m = _poly_mul_mod(coeffs[a], coeffs[b], self.modulus, p)
                mul[a, b] = mul[b, a] = code_of[m]
        neg = np.array([code_of[tuple((-x) % p for x in coeffs[a])] for a in range(q)], dtype=CODE_DTYPE)
        inv = np.zeros(q, dtype=CODE_DTYPE)
        for a in range(1, q):
            inv[a] = self._pow_scalar_table(a, q - 2, mul)
        frob = np.array([self._pow_scalar_table(a, p, mul) for a in range(q)], dtype=CODE_DTYPE)
        frob_pows = [np.arange(q, dtype=CODE_DTYPE)]
        for _ in range(e - 1):
            frob_pows.append(frob[frob_pows[-1]])
        self._add_t, self._mul_t, self._neg_t, self._inv_t = add, mul, neg, inv
        self._frob_pows = frob_pows
        # reduction of alpha^k, k = 0..2e-2, as digit vectors (for matmul)
        alpha = code_of[tuple(1 if i == 1 else 0 for i in range(e))] if e > 1 else 1
        pow_code = 1
        reds = []
        for _ in range(2 * e - 1):
            reds.append(coeffs[pow_code])
            pow_code = int(mul[pow_code, alpha])
        self._alpha_red = np.array(reds, dtype=np.int64)  # (2e-1, e)

    @staticmethod
    def _pow_scalar_table(a: int, n: int, mul: np.ndarray) -> int:
        r = 1
        b = a
        while n:
            if n & 1:
                r = int(mul[r, b])
            b = int(mul[b, b])
            n >>= 1
        return r

    # -- scalar helpers --

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.e == 1 else int(self._add_t[a, b])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return (-a) % self.p if self.e == 1 else int(self._neg_t[a])

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p if self.e == 1 else int(self._mul_t[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p) if self.e == 1 else int(self._inv_t[a])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        r, b = 1, a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def frobenius(self, a: int, n: int = 1) -> int:
        """a^(p^n); n may be negative (Frobenius has order e)."""
        if self.e == 1:
            return a % self.p
        return int(self._frob_pows[n % self.e][a])

    def elements(self) -> Iterable[int]:
        return range(self.q)

    # -- vectorized operations on int8 code arrays --

    def varr(self, data) -> np.ndarray:
        a = np.asarray(data)
        if a.dtype != CODE_DTYPE:
            if np.issubdtype(a.dtype, np.floating):
                a = np.rint(a).astype(np.int64)
            a = np.mod(a, self.p).astype(CODE_DTYPE) if self.e == 1 else a.astype(CODE_DTYPE)
        return a

    def vadd(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return ((x.astype(np.int16) + y) % self.p).astype(CODE_DTYPE)
        return self._add_t[x, y]

    def vsub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return ((x.astype(np.int16) - y) % self.p).astype(CODE_DTYPE)
        return self._add_t[x, self._neg_t[y]]

    def vneg(self, x: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return ((-x.astype(np.int16)) % self.p).astype(CODE_DTYPE)
        return self._neg_t[x]

    def vmul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return ((x.astype(np.int32) * y) % self.p).astype(CODE_DTYPE)
        return self._mul_t[x, y]

    def vfrob(self, x: np.ndarray, n: int = 1) -> np.ndarray:
        if self.e == 1:
            return x
        return self._frob_pows[n % self.e][x]

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact product of code arrays, stacked like np.matmul: (..., n, k) @ (..., k, c).

        A stack against one matrix is one tall product, and one matrix
        against a stack one wide product; two stacks broadcast over their
        leading axes and are taken a slice of pairs at a time.  a is
        taken one row panel at a time, and the float64 copies of a panel
        (e digit planes of it when e > 1) hold at most _PANEL entries, so
        the temporaries of a tall a or of a long stack stay bounded.  b
        is converted whole, per slice of pairs.
        """
        if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
            raise DimensionMismatch(f"matmul {a.shape} @ {b.shape}")
        (n, k), c = a.shape[-2:], b.shape[-1]
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        if b.ndim == 2:
            return self._panels(a.reshape(math.prod(a.shape[:-1]), k), b).reshape(lead + (n, c))
        if a.ndim == 2:
            wide = self._panels(a, np.moveaxis(b, -2, 0).reshape(k, math.prod(lead) * c))
            return np.moveaxis(wide.reshape((n,) + lead + (c,)), 0, -2)
        count = math.prod(lead)
        a = np.broadcast_to(a, lead + (n, k)).reshape(count, n, k)
        b = np.broadcast_to(b, lead + (k, c)).reshape(count, k, c)
        out = np.empty((count, n, c), dtype=CODE_DTYPE)
        step = max(1, _PANEL // (self.e * max(1, n * k, k * c, n * c)))
        for s in range(0, count, step):
            out[s:s + step] = self._panels(a[s:s + step], b[s:s + step])
        return out.reshape(lead + (n, c))

    def _panels(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for one (n, k) @ (k, c) product or s stacked ones, a row panel of a at a time."""
        p, e = self.p, self.e
        rows, c = a.shape[-2], b.shape[-1]
        pairs = a.shape[0] if a.ndim == 3 else 1
        out = np.empty(a.shape[:-1] + (c,), dtype=CODE_DTYPE)
        step = max(1, _PANEL // (e * pairs * max(1, a.shape[-1], c)))
        if e == 1:
            bf = b.astype(np.float64)
            for i in range(0, rows, step):
                prod = a[..., i:i + step, :].astype(np.float64) @ bf
                # exact integers below k (p - 1)^2 < 2^53: reduce in place
                out[..., i:i + step, :] = np.fmod(prod, p, out=prod)
            return out
        db = [((b.astype(np.int16) // p ** t) % p).astype(np.float64) for t in range(e)]
        # per output digit u, the (s, t, r) with r = digit u of alpha^(s+t)
        # reduced, never empty as alpha^u is its own reduction
        terms = [[(s, t, int(self._alpha_red[s + t][u])) for s in range(e) for t in range(e)
                  if self._alpha_red[s + t][u]] for u in range(e)]
        for i in range(0, rows, step):
            panel = a[..., i:i + step, :].astype(np.int16)
            da = [((panel // p ** s) % p).astype(np.float64) for s in range(e)]
            dst = out[..., i:i + step, :]
            dst[...] = 0
            for u in range(e):
                # one float64 digit plane at a time, exact integers below
                # e^2 k (p - 1)^3 < 2^53; reduced as int64, since np.fmod
                # takes tens of ns an entry once the entries pass 64
                acc = None
                for s, t, r in terms[u]:
                    prod = da[s] @ db[t]
                    if r != 1:
                        prod *= r
                    acc = prod if acc is None else np.add(acc, prod, out=acc)
                digit = acc.astype(np.int64)
                del acc, prod
                np.remainder(digit, p, out=digit)
                digit *= p ** u
                np.add(dst, digit, out=dst, casting="unsafe")
        return out

    def vdot(self, x: np.ndarray, y: np.ndarray) -> int:
        return int(self.matmul(x.reshape(1, -1), y.reshape(-1, 1))[0, 0])

    def vscale(self, c: int, x: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return ((int(c) * x.astype(np.int32)) % self.p).astype(CODE_DTYPE)
        return self._mul_t[np.full_like(x, c), x]

    # -- serialization of single coefficients --

    def coeff_to_json(self, a: int):
        if self.e == 1:
            return int(a)
        return [int((a // self.p ** i) % self.p) for i in range(self.e)]

    def coeff_from_json(self, obj) -> int:
        if self.e == 1:
            if not is_json_int(obj):
                raise DerinvError(f"expected an integer coefficient, got {obj!r}")
            return obj % self.p
        if not isinstance(obj, list) or len(obj) > self.e or not all(is_json_int(c) for c in obj):
            raise DerinvError(f"expected a coefficient list of length <= {self.e}, got {obj!r}")
        return sum((c % self.p) * self.p ** i for i, c in enumerate(obj))

    # -- identity --

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and (self.e == 1 or self.modulus == other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus if self.e > 1 else None))

    def __repr__(self) -> str:
        if self.e == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.e})"


def is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer; JSON true and false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


@cache
def GF(p: int, e: int = 1) -> Field:
    """Cached field with the default (Conway) modulus."""
    return Field(p, e)
