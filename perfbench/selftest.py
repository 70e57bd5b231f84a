"""Self-test of the benchmark on cut-down inputs.

    python3 perfbench/selftest.py

1. One round of each workload on a few small algebras: no operation
   fails.
2. Every output check rejects a copy of a real output with one value
   made wrong.
3. Two traced rounds give exactly the same counts (`count` metrics).

Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import UNITS, Tracer  # noqa: E402

SMALL = {
    "sign-natural": dict(names=("gf2_c4", "gf2_c2xc2", "gf2_x1", "gf2_m2"),
                         pairs=(("gf2_c4", "gf2_c2xc2"), ("gf2_x1", "gf2_m2"))),
    "sign-dense": dict(names=(("gf2_c4", 1), ("gf4_x2", 1), ("gf3_x4", 2))),
    "verify-theorems": dict(names=("gf2_x2", "gf3_c3")),
}
WORKDIR = run.OUT / f"selftest-{os.getpid()}"
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)


def build(name: str, seed: int = 7) -> workloads.Workload:
    return workloads.WORKLOADS[name](seed, WORKDIR, **SMALL[name])


def outputs(wl: workloads.Workload) -> dict[str, tuple]:
    """label -> (op, output) after one untimed pass; every output must pass."""
    got = {}
    for op in wl.ops:
        if op.prepare is not None:
            op.prepare()
        out = op.call()
        problems = op.check(out)
        expect(not problems, f"{op.label} fails on the real output: {problems}")
        got[op.label] = (op, out)
    return got


def rejects(got: dict, label: str, mutate, what: str) -> None:
    op, out = got[label]
    bad = mutate(copy.deepcopy(out))
    expect(bool(op.check(bad)), f"{label}: the check accepts {what}")


def cli_edit(edit):
    """Mutation of a CLI (exit code, JSON text) output."""
    def mutate(out):
        code, text = out
        doc = json.loads(text)
        edit(doc)
        return code, json.dumps(doc)
    return mutate


def dict_edit(path, value):
    def mutate(rep):
        node = rep
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return rep
    return mutate


def check_round(name: str) -> None:
    wl = build(name)
    try:
        res = run.measure(wl, 0.0, None)
    finally:
        wl.cleanup()
    expect(res["correct"] and res["failed"] == 0 and res["attempted"] == len(wl.ops),
           f"{name}: one round gave {res}")


def check_mutations() -> None:
    wl = build("sign-natural")
    try:
        got = outputs(wl)
    finally:
        wl.cleanup()
    plus1 = lambda v: v + 1  # noqa: E731
    for what, edit in [
        ("a wrong HH dimension", dict_edit(["entries", "dim_hh_homology_1"], plus1)),
        ("a wrong HH^m dimension", dict_edit(["entries", "dim_hh_cohomology_2"], plus1)),
        ("a wrong centre", dict_edit(["entries", "dim_center"], plus1)),
        ("a wrong HH_0", dict_edit(["entries", "dim_a_mod_ka"], plus1)),
        ("a wrong stabilization index", dict_edit(["entries", "stabilization_index"], plus1)),
        ("an extra skip marker", dict_edit(["entries", "dim_hh_homology_3"], "skipped: cap")),
        ("a wrong higher-map kernel", dict_edit(["entries", "dim_ker_kappa_m1_n1"], plus1)),
        ("a wrong higher-map T space", dict_edit(["entries", "dim_t_m2_n1"], plus1)),
        ("a wrong kappa_1 rank", dict_edit(["entries", "dim_im_kappa_1"], plus1)),
        ("a wrong T_1", dict_edit(["entries", "dim_t_perp_1"], plus1)),
    ]:
        rejects(got, "signature gf2_c4", cli_edit(edit), what)
    rejects(got, "signature gf2_c4", lambda out: (2, out[1]), "a failing exit code")
    rejects(got, "signature gf2_m2", cli_edit(dict_edit(["entries", "dim_hh_homology_1"], 1)),
            "HH_1(M_2(k)) = 1")

    def flip(doc):
        doc["verdict"] = "INCONCLUSIVE" if doc["verdict"] == "DISTINGUISHED" else "DISTINGUISHED"
    rejects(got, "compare gf2_c4 gf2_c2xc2", cli_edit(flip), "a flipped verdict")
    rejects(got, "compare gf2_c4 gf2_c2xc2", lambda out: (0, out[1]), "exit 0 on DISTINGUISHED")
    rejects(got, "compare gf2_c4 gf2_c2xc2", cli_edit(dict_edit(["differences"], [])),
            "no dim_t_perp_1 difference")
    rejects(got, "compare gf2_x1 gf2_m2", cli_edit(flip), "a flipped Morita verdict")

    wl = build("sign-dense")
    try:
        got = outputs(wl)
    finally:
        wl.cleanup()
    rejects(got, "dense signature gf2_c4 basis 0", cli_edit(dict_edit(["entries", "dim_p_1"], plus1)),
            "an entry that differs from the natural basis")
    rejects(got, "dense signature gf3_x4 basis 1", cli_edit(dict_edit(["entries", "dim_im_kappa_m2_n1"], 0)),
            "a missing skip marker")
    rejects(got, "dense signature gf3_x4 basis 1", cli_edit(dict_edit(["entries", "dim_hh_homology_2"], plus1)),
            "a wrong HH dimension")

    wl = build("verify-theorems")
    try:
        got = outputs(wl)
    finally:
        wl.cleanup()
    rejects(got, "verify_properties gf2_x2 (1, 1, 1)", dict_edit(["all_passed"], False),
            "all_passed false")
    rejects(got, "verify_properties gf2_x2 (1, 1, 1)", dict_edit(["composition"], False),
            "a failed composition identity")
    rejects(got, "verify_properties gf2_x2 (2, 1, 1)",
            dict_edit(["skipped"], ["composition"]), "an extra skip")
    rejects(got, "verify_properties gf3_c3 (1, 1, 1)", dict_edit(["skipped"], []),
            "a missing skip")
    rejects(got, "verify_properties gf3_c3 (1, 1, 1)", dict_edit(["zero_regime"], False),
            "a wrong zero regime")
    rejects(got, "gerst gf2_x2 degree 2",
            cli_edit(dict_edit(["restricted_axioms", "degrees", "2", "additivity"], False)),
            "a failed axiom")
    rejects(got, "gerst gf3_c3 degree 1",
            cli_edit(dict_edit(["restricted_axioms", "all_passed"], False)), "all_passed false")
    rejects(got, "gerst gf3_c3 degree 1", cli_edit(dict_edit(["dim_hh"], plus1)),
            "a wrong HH^1 dimension")
    rejects(got, "gerst gf2_x2 degree 1", cli_edit(dict_edit(["sigma_rank"], 3)),
            "a sigma_p rank above dim HH^1")
    for key, what in [("stabilization_index", "a wrong stabilization index"),
                      ("dim_center", "a wrong centre")]:
        rejects(got, "kulshammer_report gf3_c3", dict_edit([key], plus1), what)
    rejects(got, "kulshammer_report gf2_x2", dict_edit(["zeta_image_dims", 0], plus1),
            "im zeta_1 other than T_1-perp")
    rejects(got, "kulshammer_report gf2_x2", dict_edit(["kappa_kernel_dims", 1], plus1),
            "ker kappa_2 other than P_2(Z)-perp")

    def flip_entry(out):
        arity, mat = out
        mat = mat.copy()
        mat[0, 0] = (mat[0, 0] + 1) % 2
        return arity, mat
    rejects(got, "bracket gf2_x2 arity 2", flip_entry, "a wrong bracket entry")
    rejects(got, "bracket gf3_c3 arity 1", lambda out: (out[0] + 1, out[1]), "a wrong arity")


def traced_counts(name: str) -> dict[str, float]:
    tracer = Tracer()
    uninstall = tracer.install()
    wl = build(name)
    try:
        run.measure(wl, 0.0, tracer)
    finally:
        uninstall()
        wl.cleanup()
    metrics = tracer.layer_metrics(1)
    expect(set(metrics) | {"trace.run_s"} == set(UNITS), f"{name}: per-layer metric names")
    return {k: v for k, v in metrics.items() if UNITS[k] == "count"}


def check_trace_repeats() -> None:
    for name in SMALL:
        first, second = traced_counts(name), traced_counts(name)
        expect(first == second, f"{name}: traced counts differ between runs: {first} vs {second}")
        expect(first["trace.spans"] > 0, f"{name}: no spans recorded")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    for name in SMALL:
        check_round(name)
    check_mutations()
    check_trace_repeats()
    for f in failures:
        print(f"FAIL {f}")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
