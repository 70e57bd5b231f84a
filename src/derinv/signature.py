"""Invariant signatures: aggregation, serialization, and comparison.

A signature collects every dimension invariant the library computes for
one symmetric algebra: the degree-0 Kulshammer data (T_n, its
orthogonal, central p-power spaces, zeta/kappa ranks, stabilization
index), Hochschild homology and cohomology dimensions, the higher
kappa adjoint ranks for a configured set of (m, n) pairs, and the
Gerstenhaber block (rank of the sigma_p image span and the derived
subalgebra of HH^1).  The sigma_p span is read off the coefficients of
sigma_p(sum c_i f_i) as a polynomial in the class coordinates c, one
rule in every characteristic.

Two signatures over the same field are compared entry by entry, but
only on the entries that are invariant under derived equivalence; the
ambient dimension dim A and the ambient T_n dimensions are recorded for
traceability yet never enter the verdict, and neither does the
symmetrizing-form fingerprint.  Entries whose computation exceeded the
size cap carry an explicit "skipped: cap" marker and are excluded from
comparison.  Unequal shared entries certify that the two algebras are
not derived equivalent (verdict DISTINGUISHED); equal signatures are
INCONCLUSIVE, never a claim of equivalence.

Signatures are pure functions of (algebra, config) and the entry cap
KK_SIZE_CAP: no randomness, no other environment, stable key order,
byte-identical serialization.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .algebras import Algebra
from .errors import (
    Incomparable,
    InvariantViolation,
    MalformedDocument,
    SchemaVersionMismatch,
    SizeCapExceeded,
)
from .fields import is_json_int
from .gerstenhaber import _brackets, _check_restricted_degree, _power_coefficients, _slices
from .hochschild import HomologyBasis, hh_cohomology, hh_dim
from .higher import kappa_nm
from .kulshammer import (
    kappa_kernel,
    kappa_image,
    p_n_space,
    quotient_mod_ka,
    stabilization_index,
    t_n_space,
    zeta_image,
)
from .linalg import Subspace

SCHEMA_VERSION = 1

SKIPPED_CAP = "skipped: cap"
SKIPPED_PARITY = "skipped: parity"

# entries outside any derived-equivalence invariant: recorded for
# traceability, never compared
_LOCAL_KEY = re.compile(r"^(dim_a|dim_t_\d+)$")


def _default_kappa_pairs(p: int) -> tuple[tuple[int, int], ...]:
    if p == 2:
        return ((0, 1), (0, 2), (1, 1), (2, 1))
    return ((0, 1), (0, 2), (2, 1))


@dataclass(frozen=True)
class SignatureConfig:
    """Degrees for one signature computation.

    ``kappa_pairs = None`` selects the characteristic-dependent default
    set of (m, n) adjoint degrees.  ``gerstenhaber_degrees`` are the
    degrees of the sigma_p span entries.  Every matrix and stack is
    bounded by the one entry cap, KK_SIZE_CAP in the environment; an
    entry that exceeds it is recorded as "skipped: cap".
    """

    n_max: int = 3
    m_max: int = 3
    kappa_pairs: tuple[tuple[int, int], ...] | None = None
    gerstenhaber_degrees: tuple[int, ...] = (1,)

    def resolved_pairs(self, p: int) -> tuple[tuple[int, int], ...]:
        if self.kappa_pairs is None:
            return _default_kappa_pairs(p)
        return tuple((int(m), int(n)) for m, n in self.kappa_pairs)


@dataclass(frozen=True)
class InvariantSignature:
    p: int
    e: int
    gram_fingerprint: str
    entries: dict = dataclass_field(default_factory=dict)

    def shared_keys(self) -> list[str]:
        """Keys that participate in comparison: derived-invariant, not skipped."""
        return [
            k
            for k, v in self.entries.items()
            if not _LOCAL_KEY.match(k) and isinstance(v, int)
        ]


def _class_rank(target: HomologyBasis, stacks) -> int:
    """Rank of the classes in target of the cocycles in stacks; one solve a stack."""
    rows = [target.class_coords(x.reshape(len(x), -1)) for x in stacks]
    return Subspace.from_rows(target.algebra.field, np.concatenate(rows)).dim if rows else 0


def sigma_class_rank(algebra: Algebra, m: int):
    """Dimension of the span of sigma_p over all degree-m classes.

    It is the rank of the classes of the coefficients of sigma_p(sum_i
    c_i f_i) as a polynomial in c, over the basis classes f_i
    (gerstenhaber._power_coefficients).  m >= 1.
    """
    _check_restricted_degree(m)
    d = algebra.dim
    coh = hh_cohomology(algebra, m)
    target = hh_cohomology(algebra, algebra.field.p * (m - 1) + 1)
    if coh.dim == 0:
        return 0
    coeffs = _power_coefficients(algebra, coh.reps.data.reshape(coh.dim, d, d**m), m)
    return _class_rank(target, (coeffs[sl] for sl in _slices(len(coeffs), coeffs[0].size)))


def derived_hh1_dim(algebra: Algebra) -> int:
    """dim of the span of [HH^1, HH^1] inside HH^1; the brackets a slice of pairs at a time."""
    coh = hh_cohomology(algebra, 1)
    d = algebra.dim
    reps = coh.reps.data.reshape(coh.dim, d, d)
    i, j = np.triu_indices(coh.dim, 1)
    return _class_rank(coh, (_brackets(algebra, reps[i[sl]], 1, reps[j[sl]], 1)
                             for sl in _slices(len(i), d**2)))


def compute_signature(algebra: Algebra, config: SignatureConfig | None = None) -> InvariantSignature:
    config = config or SignatureConfig()
    for deg in config.gerstenhaber_degrees:
        _check_restricted_degree(deg)
    form = algebra.require_form()
    f = algebra.field
    entries: dict = {}

    entries["dim_a"] = algebra.dim
    entries["dim_center"] = algebra.center().dim
    quot = quotient_mod_ka(algebra)
    entries["dim_a_mod_ka"] = quot.dim

    prev_perp = None
    for n in range(1, config.n_max + 1):
        t_dim = t_n_space(algebra, n).dim
        perp = algebra.dim - t_dim
        entries[f"dim_t_{n}"] = t_dim
        entries[f"dim_t_perp_{n}"] = perp
        entries[f"dim_p_{n}"] = p_n_space(algebra, n).dim
        entries[f"dim_im_zeta_{n}"] = zeta_image(algebra, n).dim
        im_k = kappa_image(algebra, n).dim
        ker_k = kappa_kernel(algebra, n).dim
        entries[f"dim_im_kappa_{n}"] = im_k
        entries[f"dim_ker_kappa_{n}"] = ker_k
        if im_k + ker_k != quot.dim:
            raise InvariantViolation(f"rank-nullity fails for kappa_{n}")
        if prev_perp is not None and perp > prev_perp:
            raise InvariantViolation("dim T_n-perp increased with n")
        prev_perp = perp
    entries["stabilization_index"] = stabilization_index(algebra)

    # the form makes HH^m the dual of HH_m, so both entries are one rank count
    for m in range(config.m_max + 1):
        try:
            dim = hh_dim(algebra, m)
        except SizeCapExceeded:
            dim = SKIPPED_CAP
        entries[f"dim_hh_homology_{m}"] = entries[f"dim_hh_cohomology_{m}"] = dim

    for m, n in config.resolved_pairs(f.p):
        keys = (f"dim_im_kappa_m{m}_n{n}", f"dim_t_m{m}_n{n}", f"dim_ker_kappa_m{m}_n{n}")
        try:
            kap = kappa_nm(algebra, m, n)
            t_dim = kap.t_space().dim
            coh_dim = hh_dim(algebra, m)
            # T comes from the same pairing matrix L as kappa, so this is
            # rank-nullity for L; verify_properties checks T independently
            if kap.rank != coh_dim - t_dim:
                raise InvariantViolation(f"rank of kappa_{n}^({m}) violates the dimension formula")
            entries[keys[0]] = kap.rank
            entries[keys[1]] = t_dim
            entries[keys[2]] = kap.kernel().dim
        except SizeCapExceeded:
            for key in keys:
                entries[key] = SKIPPED_CAP

    for deg in config.gerstenhaber_degrees:
        key = f"sigma_rank_deg_{deg}"
        if f.p > 2 and deg % 2 == 0:
            entries[key] = SKIPPED_PARITY
            continue
        try:
            entries[key] = sigma_class_rank(algebra, deg)
        except SizeCapExceeded:
            entries[key] = SKIPPED_CAP
    try:
        entries["dim_derived_hh1"] = derived_hh1_dim(algebra)
    except SizeCapExceeded:
        entries["dim_derived_hh1"] = SKIPPED_CAP

    for k, v in entries.items():
        if isinstance(v, (int, np.integer)):
            v = int(v)
            entries[k] = v
            if v < 0:
                raise InvariantViolation(f"negative entry {k}")
    return InvariantSignature(p=f.p, e=f.e, gram_fingerprint=form.fingerprint(), entries=entries)


def compare(sig_a: InvariantSignature, sig_b: InvariantSignature) -> dict:
    """Verdict on derived equivalence from two signatures.

    DISTINGUISHED lists the differing derived-invariant entries and
    certifies the algebras are not derived equivalent; INCONCLUSIVE
    means every shared entry agrees (which never proves equivalence).
    Entries skipped in either signature do not participate.  Different
    fields are Incomparable.
    """
    if (sig_a.p, sig_a.e) != (sig_b.p, sig_b.e):
        raise Incomparable(
            f"fields differ: GF({sig_a.p}^{sig_a.e}) vs GF({sig_b.p}^{sig_b.e})"
        )
    shared = sorted(set(sig_a.shared_keys()) & set(sig_b.shared_keys()))
    differences = [
        {"key": k, "a": sig_a.entries[k], "b": sig_b.entries[k]}
        for k in shared
        if sig_a.entries[k] != sig_b.entries[k]
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "verdict": "DISTINGUISHED" if differences else "INCONCLUSIVE",
        "differences": differences,
        "shared_entries": len(shared),
    }


def signature_to_json(sig: InvariantSignature) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "field": {"p": sig.p, "e": sig.e},
        "gram_fingerprint": sig.gram_fingerprint,
        "entries": dict(sig.entries),
    }


def serialize_signature(sig: InvariantSignature) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variation."""
    return json.dumps(signature_to_json(sig), sort_keys=True, separators=(",", ": "))


_SKIP_PREFIX = "skipped: "


def signature_from_json(doc) -> InvariantSignature:
    """Strict parse: unknown or malformed fields are rejected."""
    if not isinstance(doc, dict):
        raise MalformedDocument("signature document must be an object")
    expected = {"schema_version", "field", "gram_fingerprint", "entries"}
    unknown = set(doc) - expected
    if unknown:
        raise MalformedDocument(f"unknown fields: {sorted(unknown)}")
    missing = expected - set(doc)
    if missing:
        raise MalformedDocument(f"missing fields: {sorted(missing)}")
    if not is_json_int(doc["schema_version"]) or doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}")
    fld = doc["field"]
    if not isinstance(fld, dict) or set(fld) != {"p", "e"}:
        raise MalformedDocument("field descriptor must have exactly p and e")
    if not all(is_json_int(fld[k]) and fld[k] > 0 for k in ("p", "e")):
        raise MalformedDocument("field descriptor entries must be positive integers")
    if not isinstance(doc["gram_fingerprint"], str):
        raise MalformedDocument("gram_fingerprint must be a string")
    entries = doc["entries"]
    if not isinstance(entries, dict):
        raise MalformedDocument("entries must be an object")
    for k, v in entries.items():
        if not (is_json_int(v) or isinstance(v, str)):
            raise MalformedDocument(f"entry {k} must be an integer or a skip marker")
        if is_json_int(v) and v < 0:
            raise MalformedDocument(f"entry {k} is negative")
        if isinstance(v, str) and not v.startswith(_SKIP_PREFIX):
            raise MalformedDocument(f"entry {k} has a malformed marker")
    return InvariantSignature(
        p=fld["p"], e=fld["e"],
        gram_fingerprint=doc["gram_fingerprint"],
        entries=dict(entries),
    )


def parse_signature(text: str) -> InvariantSignature:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc
    return signature_from_json(doc)
