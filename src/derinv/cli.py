"""Batch command line front end.

Every structured result is printed as a JSON report carrying a
schema_version field, so outputs are stable targets for golden tests
and scriptable sweeps over algebra families.  Exit codes:

    0   success (including an INCONCLUSIVE comparison)
    10  DISTINGUISHED: the two inputs are certifiably not derived
        equivalent
    2   input error (missing or malformed file, bad arguments,
        incomparable fields, degenerate data)
    3   a computation was refused because a matrix would exceed the
        size cap (override with the KK_SIZE_CAP environment variable)

`compare` accepts either algebra files or serialized signature files
and mixes them freely; algebra inputs are signed with the default
configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebras import (
    Algebra,
    _check_cap,
    algebra_from_json,
    cyclic_table,
    klein_table,
    load_algebra,
    make_group_algebra,
    make_matrix_algebra,
    make_trivial_extension,
    make_truncated_polynomial,
    save_algebra,
)
from .errors import DerinvError, MalformedDocument, SizeCapExceeded
from .fields import GF
from .gerstenhaber import _check_restricted_degree, restricted_axioms_check
from .hochschild import _cohomology_what, _hh_entries, hh_cohomology, hh_dim
from .higher import kappa_nm
from .kulshammer import (
    kappa_n,
    p_n_space,
    quotient_mod_ka,
    stabilization_index,
    t_n_space,
    zeta_image,
    zeta_n,
)
from .signature import (
    SCHEMA_VERSION,
    SKIPPED_PARITY,
    InvariantSignature,
    SignatureConfig,
    compare,
    compute_signature,
    derived_hh1_dim,
    serialize_signature,
    sigma_class_rank,
    signature_from_json,
    signature_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_DISTINGUISHED = 10


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "item") and not isinstance(x, (str, bytes)):
        return x.item()
    return x


def _emit(doc: dict) -> None:
    print(json.dumps(_jsonable(doc), indent=1, sort_keys=True))


def _field_doc(a: Algebra) -> dict:
    return {"p": a.field.p, "e": a.field.e}


def _load(path: str) -> Algebra:
    try:
        return load_algebra(path)
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from None


def cmd_check(args) -> int:
    a = _load(args.file)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": _field_doc(a),
        "dim": a.dim,
        "symmetric": a.form is not None,
        "dim_center": a.center().dim,
        "dim_commutator": a.commutator_space().dim,
    }
    if a.form is not None:
        doc["gram_fingerprint"] = a.form.fingerprint()
        doc["dim_a_mod_ka"] = quotient_mod_ka(a).dim
    _emit(doc)
    return EXIT_OK


def _parse_kappa_pairs(raw: list[str] | None) -> tuple | None:
    if not raw:
        return None
    pairs = []
    for item in raw:
        parts = item.split(",")
        if len(parts) != 2:
            raise MalformedDocument(f"--kappa expects m,n (got {item!r})")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedDocument(f"--kappa expects integers (got {item!r})") from None
        if m < 0 or n < 0:
            raise MalformedDocument("--kappa degrees must be >= 0")
        pairs.append((m, n))
    return tuple(pairs)


def _signature_text(sig: InvariantSignature) -> str:
    lines = [
        f"field GF({sig.p}^{sig.e})" if sig.e > 1 else f"field GF({sig.p})",
        f"gram_fingerprint {sig.gram_fingerprint}",
    ]
    for k in sorted(sig.entries):
        lines.append(f"{k} = {sig.entries[k]}")
    return "\n".join(lines)


def cmd_signature(args) -> int:
    a = _load(args.file)
    cfg = SignatureConfig(
        n_max=args.n_max,
        m_max=args.m_max,
        kappa_pairs=_parse_kappa_pairs(args.kappa),
    )
    sig = compute_signature(a, cfg)
    if args.text:
        print(_signature_text(sig))
    else:
        print(serialize_signature(sig))
    return EXIT_OK


def _signature_from_file(path: str) -> InvariantSignature:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    if isinstance(doc, dict) and "entries" in doc:
        return signature_from_json(doc)
    return compute_signature(algebra_from_json(doc))


def cmd_compare(args) -> int:
    rep = compare(_signature_from_file(args.file_a), _signature_from_file(args.file_b))
    _emit(rep)
    return EXIT_DISTINGUISHED if rep["verdict"] == "DISTINGUISHED" else EXIT_OK


def cmd_zeta(args) -> int:
    a = _load(args.file)
    op = zeta_n(a, args.n)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "field": _field_doc(a),
            "n": args.n,
            "twist": op.twist,
            "dim_center": a.center().dim,
            "dim_t": t_n_space(a, args.n).dim,
            "dim_im_zeta": zeta_image(a, args.n).dim,
            "stabilization_index": stabilization_index(a),
            "matrix": op.matrix.data.tolist(),
        }
    )
    return EXIT_OK


def cmd_kappa(args) -> int:
    a = _load(args.file)
    op = kappa_n(a, args.n)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "field": _field_doc(a),
            "n": args.n,
            "twist": op.twist,
            "dim_a_mod_ka": quotient_mod_ka(a).dim,
            "dim_p_center": p_n_space(a, args.n).dim,
            "dim_im_kappa": op.image().dim,
            "dim_ker_kappa": op.kernel().dim,
            "matrix": op.matrix.data.tolist(),
        }
    )
    return EXIT_OK


def _dim_hh_cohomology(a: Algebra, m: int) -> int:
    """dim HH^m with no class basis where a form makes HH^m the dual of HH_m."""
    if a.form is None:
        return hh_cohomology(a, m).dim
    # the refusal names the matrix of HH^m, not the b_{m+1} of hh_dim
    _check_cap(_hh_entries(a, m), _cohomology_what(a, m))
    return hh_dim(a, m)


def cmd_hh(args) -> int:
    a = _load(args.file)
    doc = {"schema_version": SCHEMA_VERSION, "field": _field_doc(a), "m": args.m}
    if args.homology or not args.cohomology:
        doc["dim_homology"] = hh_dim(a, args.m)
    if args.cohomology or not args.homology:
        doc["dim_cohomology"] = _dim_hh_cohomology(a, args.m)
    _emit(doc)
    return EXIT_OK


def cmd_kappam(args) -> int:
    a = _load(args.file)
    kap = kappa_nm(a, args.m, args.n)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "field": _field_doc(a),
            "m": args.m,
            "n": args.n,
            "source_degree": kap.source_degree,
            "dim_hh_m": hh_cohomology(a, args.m).dim,
            "dim_t": kap.t_space().dim,
            "dim_im_kappa": kap.image().dim,
            "dim_ker_kappa": kap.kernel().dim,
            "zero_regime": kap.zero_regime,
            "matrix": kap.operator.matrix.data.tolist(),
        }
    )
    return EXIT_OK


def cmd_gerst(args) -> int:
    a = _load(args.file)
    deg = args.degree
    _check_restricted_degree(deg)
    doc = {"schema_version": SCHEMA_VERSION, "field": _field_doc(a), "degree": deg}
    # sigma_p reads the class basis of HH^deg; the parity marker reads no class
    if a.field.p > 2 and deg % 2 == 0:
        doc["dim_hh"] = _dim_hh_cohomology(a, deg)
        doc["sigma_rank"] = SKIPPED_PARITY
    else:
        doc["dim_hh"] = hh_cohomology(a, deg).dim
        doc["sigma_rank"] = sigma_class_rank(a, deg)
    if deg == 1:
        doc["dim_derived_hh1"] = derived_hh1_dim(a)
    if args.check_restricted:
        doc["restricted_axioms"] = restricted_axioms_check(a, (deg,))
    _emit(doc)
    return EXIT_OK


def cmd_gen(args) -> int:
    base_needs_field = args.variant in ("group-cyclic", "group-klein", "truncated-poly")
    if base_needs_field:
        if args.p is None:
            raise MalformedDocument(f"gen {args.variant} requires --p")
        field = GF(args.p, args.e)
    elif args.p is not None or args.e != 1:
        raise MalformedDocument(
            f"gen {args.variant} takes its field from FILE; drop --p/--e"
        )

    if args.variant == "group-cyclic":
        a = make_group_algebra(field, cyclic_table(args.k), kind={"group": f"C{args.k}"})
    elif args.variant == "group-klein":
        a = make_group_algebra(field, klein_table(), kind={"group": "C2xC2"})
    elif args.variant == "truncated-poly":
        a = make_truncated_polynomial(field, args.k)
    elif args.variant == "trivial-extension":
        a = make_trivial_extension(_load(args.file))
    else:
        a = make_matrix_algebra(_load(args.file), args.k)

    save_algebra(a, args.out)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "written": str(args.out),
            "field": _field_doc(a),
            "dim": a.dim,
            "symmetric": a.form is not None,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derinv",
        description="Exact derived invariants of symmetric algebras over GF(p^e).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an algebra file and print basic facts")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("signature", help="compute the invariant signature")
    p.add_argument("file")
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--kappa", action="append", metavar="M,N",
                   help="higher kappa degree pair; repeatable")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--text", action="store_true")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("compare", help="compare two signatures or algebra files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("zeta", help="the adjoint zeta_n on the center")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("kappa", help="the adjoint kappa_n on A/KA")
    p.add_argument("file")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser(
        "hh", help="Hochschild (co)homology dimensions",
        description="dim HH_m and HH^m from the normalized bar complex: chains on A x (A/k1)^m "
                    "and cochains that vanish when an argument is the unit, d(d-1)^m "
                    "coordinates in degree m.  The size cap counts the d^(2m+3) entries of "
                    "the dense bar matrices of the full complex.")
    p.add_argument("file")
    p.add_argument("-m", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--homology", action="store_true")
    which.add_argument("--cohomology", action="store_true")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("kappam", help="higher kappa: adjoint of the cup power")
    p.add_argument("file")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_kappam)

    p = sub.add_parser("gerst", help="Gerstenhaber p-power block on a degree")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--check-restricted", action="store_true")
    p.set_defaults(func=cmd_gerst)

    p = sub.add_parser("gen", help="write a corpus algebra to a file")
    gen_sub = p.add_subparsers(dest="variant", required=True)

    def common(q):
        q.add_argument("--p", type=int, default=None)
        q.add_argument("--e", type=int, default=1)
        q.add_argument("-o", "--out", required=True)
        q.set_defaults(func=cmd_gen)

    q = gen_sub.add_parser("group-cyclic", help="group algebra of C_k")
    q.add_argument("k", type=int)
    common(q)
    q = gen_sub.add_parser("group-klein", help="group algebra of C2 x C2")
    common(q)
    q = gen_sub.add_parser("truncated-poly", help="k[x]/(x^n)")
    q.add_argument("k", type=int, metavar="n")
    common(q)
    q = gen_sub.add_parser("trivial-extension", help="T(A) of an algebra file")
    q.add_argument("file")
    common(q)
    q = gen_sub.add_parser("matrix", help="M_n(A) of an algebra file")
    q.add_argument("file")
    q.add_argument("k", type=int, metavar="n")
    common(q)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args leaves the parser unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (DerinvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
