"""The three workloads: set-up, then the operations of one round.

A workload is a list of `Op`s.  Each round runs every op once, in order,
on cold inputs: the CLI reads its algebra files afresh, and in-process
ops get a new `Algebra` (with an empty cache) from their group's
`prepare`.  Only `call` is timed; `prepare` and `check` are not.  The
order is fixed, so allocator state carries over the same way in every
run.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import derinv
from derinv import algebras, cli, hochschild, linalg
from derinv.errors import SingularMatrix

import checks
from corpus import N_MAX, SPECS, cyclic, klein


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    workdir: Path

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Fresh:
    """A cold copy of one algebra, renewed once per round."""

    def __init__(self, algebra):
        self.doc = algebras.algebra_to_json(algebra)
        self.algebra = None

    def renew(self) -> None:
        self.algebra = algebras.algebra_from_json(self.doc)


def cli_op(label: str, argv: list[str], check: Callable[[int, dict], list[str]],
           save: Path | None = None) -> Op:
    """`derinv ARGV` in-process; stdout is captured (and saved, as a shell redirect would)."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if save is not None:
            save.write_text(buf.getvalue())
        return code, buf.getvalue()

    def check_output(out):
        code, text = out
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return [f"exit {code}, output is not JSON: {text[:200]!r}"]
        return check(code, doc)

    return Op(label, call, check_output)


def _with_exit(check: Callable[[dict], list[str]]):
    return lambda code, doc: check(doc) + ([] if code == 0 else [f"exit code {code}"])


# -- sign-natural --

NATURAL = ("gf2_c4", "gf2_c2xc2", "gf2_s3", "gf2_c8", "gf2_x4", "gf3_x4", "gf2_triv_ext",
           "gf2_m2", "gf3_c3", "gf3_c9", "gf3_x3", "gf3_x2", "gf4_x2",
           "gf2_x1", "gf3_x1", "gf4_x1", "gf3_m2", "gf4_m2")
NATURAL_PAIRS = (("gf2_c4", "gf2_c2xc2"), ("gf2_x1", "gf2_m2"), ("gf3_x1", "gf3_m2"),
                 ("gf4_x1", "gf4_m2"))
# T_1 by enumeration, for the pair the compare must tell apart
ENUMERATED = {"gf2_c4": cyclic(4), "gf2_c2xc2": klein()}


def sign_natural(seed: int, workdir: Path, names=NATURAL, pairs=NATURAL_PAIRS) -> Workload:
    """`derinv signature FILE > SIG` on each algebra, then `derinv compare SIG_A SIG_B`.

    The corpus is fixed, so the seed changes nothing here.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    t1 = {name: checks.t1_dim_by_enumeration(t) for name, t in ENUMERATED.items() if name in names}
    ops = []
    for name in names:
        spec = SPECS[name]
        src = workdir / f"{name}.json"
        algebras.save_algebra(spec.build(), src)

        def check(doc, spec=spec):
            out = checks.check_signature(spec, doc)
            if spec.name in t1:
                out += checks.check_t1(doc, t1[spec.name], spec.dim)
            return out

        ops.append(cli_op(f"signature {name}", ["signature", str(src)], _with_exit(check),
                          save=workdir / f"{name}.sig.json"))
    for a, b in pairs:
        diffs = []
        if a in t1 and b in t1:
            diffs = [{"key": "dim_t_perp_1", "a": SPECS[a].dim - t1[a], "b": SPECS[b].dim - t1[b]}]
        argv = ["compare", str(workdir / f"{a}.sig.json"), str(workdir / f"{b}.sig.json")]
        ops.append(cli_op(f"compare {a} {b}", argv,
                          lambda code, doc, diffs=diffs: checks.check_compare(code, doc, diffs)))
    return Workload(ops, workdir)


# -- sign-dense --

# (algebra, random bases per round).  Odd-characteristic elimination
# dominates; many cheap bases instead of one costly algebra (GF(3)[C9]
# takes 12 s) average out how the cost of one basis depends on the draw.
DENSE = (("gf2_c4", 2), ("gf2_c2xc2", 2), ("gf2_s3", 2), ("gf2_triv_ext", 2), ("gf4_x2", 2),
         ("gf3_x4", 16))


def random_basis(algebra, rng: np.random.Generator):
    """change_basis along a seeded random invertible matrix."""
    f = algebra.field
    while True:
        g = rng.integers(0, f.q, size=(algebra.dim, algebra.dim)).astype(np.int8)
        try:
            return algebras.change_basis(algebra, linalg.Mat(f, g))
        except SingularMatrix:
            continue


def sign_dense(seed: int, workdir: Path, names=DENSE) -> Workload:
    """`derinv signature FILE` after random changes of basis; the natural basis is the reference.

    The seed draws the basis changes, algebra by algebra in order.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ops = []
    for name, count in names:
        spec = SPECS[name]
        natural = spec.build()
        ref = derinv.compute_signature(natural).entries
        for k in range(count):
            src = workdir / f"{name}.basis{k}.json"
            algebras.save_algebra(random_basis(natural, rng), src)
            ops.append(cli_op(f"dense signature {name} basis {k}", ["signature", str(src)], _with_exit(
                lambda doc, spec=spec, ref=ref: checks.check_dense(spec, doc, ref))))
    return Workload(ops, workdir)


# -- verify-theorems --

VERIFY = ("gf2_x2", "gf2_c4", "gf2_c2xc2", "gf2_triv_ext", "gf4_x2", "gf3_x3", "gf3_c3")


def verify_theorems(seed: int, workdir: Path, names=VERIFY) -> Workload:
    """Structure theorems in degree 0 and above, restricted Lie axioms, [f, m_A] = -delta f.

    The seed draws the random cochains f.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ops = []
    for name in names:
        spec = SPECS[name]
        natural = spec.build()
        fresh = Fresh(natural)
        first = len(ops)
        ops.append(Op(f"kulshammer_report {name}",
                      lambda fresh=fresh: derinv.kulshammer_report(fresh.algebra, N_MAX),
                      lambda rep, spec=spec: checks.check_kulshammer(spec, rep)))
        # odd p stops at degree 1: (2, 1, 1) and HH^2 would pass through HH_6
        triples = ((0, 1, 1), (1, 1, 1), (2, 1, 1)) if spec.p == 2 else ((0, 1, 1), (1, 1, 1))
        for mnl in triples:
            ops.append(Op(f"verify_properties {name} {mnl}",
                          lambda fresh=fresh, mnl=mnl: derinv.verify_properties(fresh.algebra, *mnl),
                          lambda rep, spec=spec, mnl=mnl: checks.check_verify(spec, mnl, rep)))
        fld = checks.SmallField(spec.p, spec.e, natural.field.modulus)
        mult = np.array(natural.mult_tensor)
        for arity in (1, 2):
            fmat = rng.integers(0, fld.p**fld.e, size=(spec.dim, spec.dim**arity)).astype(np.int8)
            want = checks.neg_coboundary(fld, mult, fmat, arity)
            ops.append(Op(f"bracket {name} arity {arity}",
                          lambda fresh=fresh, arity=arity, fmat=fmat: _bracket_with_product(
                              fresh.algebra, arity, fmat),
                          lambda out, arity=arity, want=want: checks.check_bracket(
                              out[0], out[1], arity + 1, want)))
        ops[first].prepare = fresh.renew
        src = workdir / f"{name}.json"
        algebras.save_algebra(natural, src)
        for deg in (1, 2) if spec.p == 2 else (1,):
            argv = ["gerst", str(src), "--degree", str(deg), "--check-restricted"]
            ops.append(cli_op(f"gerst {name} degree {deg}", argv, _with_exit(
                lambda doc, spec=spec, deg=deg: checks.check_gerst(spec, deg, doc))))
    return Workload(ops, workdir)


def _bracket_with_product(algebra, arity: int, fmat: np.ndarray):
    f = hochschild.Cochain(algebra, arity, linalg.Mat(algebra.field, fmat))
    out = derinv.bracket(f, hochschild.multiplication_cochain(algebra))
    return out.arity, out.matrix.data


WORKLOADS = {
    "sign-natural": sign_natural,
    "sign-dense": sign_dense,
    "verify-theorems": verify_theorems,
}
