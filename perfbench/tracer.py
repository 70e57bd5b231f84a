"""Spans around calls into each `derinv` layer, installed from outside `src/`.

`Tracer.install()` replaces the functions listed in `_targets()` with
wrappers wherever a `derinv` module or class holds them, and returns a
function that puts the originals back.  A span records its name, start,
end, parent span and round (-1 for set-up), plus counts taken from the
call's arguments or result.  Spans stay in memory; `write()` dumps them
when the run ends and `layer_metrics()` reduces them to the per-layer
figures.  Self time is a span's duration less the durations of its
direct children, which nest strictly because the benchmark runs on one
thread.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import statistics
import sys
import time
import weakref

import numpy as np

from derinv import algebras, cli, fields, gerstenhaber, higher, hochschild, kulshammer, linalg, signature

NAME, START, END, PARENT, ROUND, STATS = range(6)


def _madds(args, kwargs, out):
    a, b = args[1], args[2]
    return {"madds": a.shape[0] * a.shape[1] * b.shape[1]}


def _rref_entries(args, kwargs, out):
    a = args[-1]
    return {"entries": a.shape[0] * a.shape[1]}


def _cache_bytes(obj, seen: set) -> int:
    """Bytes of the numpy buffers reachable from a cache value, each counted once."""
    if id(obj) in seen or isinstance(obj, (algebras.Algebra, fields.Field)):
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if ("buffer", id(obj)) in seen:
            return 0
        seen.add(("buffer", id(obj)))
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_cache_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_cache_bytes(v, seen) for v in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_cache_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    slots = getattr(type(obj), "__slots__", ())
    return sum(_cache_bytes(getattr(obj, s, None), seen) for s in slots)


def _algebra_cache(args, kwargs, out):
    return {"cache_bytes": _cache_bytes(args[0]._cache, set())}


class _BarStats:
    """Tells a freshly built bar matrix from one handed back by the cache."""

    def __init__(self):
        self.seen: dict[int, object] = {}

    def __call__(self, args, kwargs, out):
        arr = out.data
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        ref = self.seen.get(id(arr))
        if ref is not None and ref() is arr:
            return {"built": 0, "entries": 0}
        self.seen[id(arr)] = weakref.ref(arr)
        return {"built": 1, "entries": out.rows * out.cols}


def _targets():
    """(owner, attribute, span name, stats) for every wrapped call."""
    A, HB, C = algebras.Algebra, hochschild.HomologyBasis, hochschild.Cochain
    bar = _BarStats()
    out = [
        (fields.Field, "matmul", "fields.matmul", _madds),
        (linalg, "_rref_gf2", "linalg.rref_gf2", _rref_entries),
        (linalg, "_rref_generic", "linalg.rref_generic", _rref_entries),
        (A, "__init__", "algebras.build", None),
        (A, "center", "algebras.ops", None),
        (A, "commutator_space", "algebras.ops", None),
        (A, "p_power", "algebras.ops", None),
        (hochschild, "boundary_matrix", "hochschild.bar", bar),
        (hochschild, "coboundary_matrix", "hochschild.bar", bar),
        (hochschild, "hh_homology", "hochschild.hh", None),
        (hochschild, "hh_cohomology", "hochschild.hh", None),
        (hochschild, "pairing", "hochschild.pairing", None),
        (hochschild, "cup", "hochschild.cup", None),
        (hochschild, "cup_power", "hochschild.cup", None),
        (hochschild, "pairing_gram", "hochschild.other", None),
        (hochschild, "coboundary", "hochschild.other", None),
        (C, "is_cocycle", "hochschild.other", None),
        (HB, "class_coords", "hochschild.other", None),
        (gerstenhaber, "coderivation_component", "gerstenhaber.coderivation", None),
        (gerstenhaber, "bracket", "gerstenhaber.bracket", None),
        (gerstenhaber, "restricted_axioms_check", "gerstenhaber", _algebra_cache),
        (cli, "main", "cli", None),
    ]
    for name in ("sigma_p", "coderivation_power_component", "jacobson_si", "build_dA",
                 "is_coderivation"):
        out.append((gerstenhaber, name, "gerstenhaber", None))
    for name in ("quotient_mod_ka", "t_n_space", "t_n_center_space", "p_n_space", "zeta_n",
                 "zeta_image", "kappa_n", "kappa_image", "kappa_kernel", "quotient_image",
                 "t_chain", "zeta_image_chain", "stabilization_index", "kulshammer_report"):
        out.append((kulshammer, name, "kulshammer", None))
    out.append((higher, "verify_properties", "higher", _algebra_cache))
    for name in ("kappa_nm", "t_nm_space", "power_class_matrix"):
        out.append((higher, name, "higher", None))
    out.append((signature, "compute_signature", "signature", _algebra_cache))
    for name in ("compare", "serialize_signature", "parse_signature", "signature_from_json",
                 "sigma_class_rank", "derived_hh1_dim"):
        out.append((signature, name, "signature", None))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.round = -1

    def wrap(self, name: str, fn, stats):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, time.perf_counter(), 0.0, parent, tracer.round, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if stats is not None:
                rec[STATS] = stats(args, kwargs, out)
            return out

        return traced

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a root span of its own."""
        return self.wrap(name, fn, None)(*args)

    def install(self):
        """Wrap every target in place; returns the function that undoes it."""
        modules = [m for k, m in sys.modules.items() if k == "derinv" or k.startswith("derinv.")]
        undo = []
        for owner, attr, name, stats in _targets():
            orig = owner.__dict__[attr]
            wrapped = self.wrap(name, orig, stats)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        undo.append((holder, key, orig))
                        setattr(holder, key, wrapped)

        def uninstall():
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

        return uninstall

    def write(self, path) -> None:
        """gzip-compressed JSON: {"fields": [...], "spans": [[...], ...]}."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round", "stats"],
                       "spans": self.spans}, fh, separators=(",", ":"))

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures: the median over timed rounds of each round's sum.

        `algebras.build_s` is taken from set-up (round -1) instead, as the
        whole time spent constructing algebras, validation included.
        """
        selfs = self.self_times()
        per_round = [dict.fromkeys(_METRICS, 0.0) for _ in range(rounds)]
        build_s = 0.0
        for rec, st in zip(self.spans, selfs):
            name, r, stats = rec[NAME], rec[ROUND], rec[STATS] or {}
            if r < 0:
                if name == "algebras.build":
                    build_s += rec[END] - rec[START]
                continue
            acc = per_round[r]
            acc["trace.spans"] += 1
            key = _SELF_TIME.get(name)
            if key:
                acc[key] += st
            if name == "fields.matmul":
                acc["fields.matmul_calls"] += 1
                acc["fields.matmul_madds"] += stats.get("madds", 0)
            elif name.startswith("linalg.rref"):
                acc["linalg.rref_calls"] += 1
                acc["linalg.rref_entries"] += stats.get("entries", 0)
            elif name == "hochschild.bar":
                acc["hochschild.bar_calls"] += 1
                acc["hochschild.bar_builds"] += stats.get("built", 0)
                acc["hochschild.bar_entries"] += stats.get("entries", 0)
            elif name == "hochschild.pairing":
                acc["hochschild.pairing_calls"] += 1
            elif name == "gerstenhaber.coderivation":
                acc["gerstenhaber.coderivation_calls"] += 1
            if "cache_bytes" in stats:
                acc["algebras.cache_mb"] = max(acc["algebras.cache_mb"], stats["cache_bytes"] / 2**20)
        out = {k: statistics.median(acc[k] for acc in per_round) for k in _METRICS}
        out["algebras.build_s"] = build_s
        return out


# span name -> the per-layer self-time metric it adds to
_SELF_TIME = {
    "fields.matmul": "fields.matmul_s",
    "linalg.rref_gf2": "linalg.rref_gf2_s",
    "linalg.rref_generic": "linalg.rref_generic_s",
    "algebras.ops": "algebras.ops_s",
    "kulshammer": "kulshammer.s",
    "hochschild.bar": "hochschild.bar_assembly_s",
    "hochschild.hh": "hochschild.hh_s",
    "hochschild.pairing": "hochschild.pairing_s",
    "hochschild.cup": "hochschild.cup_s",
    "hochschild.other": "hochschild.other_s",
    "higher": "higher.s",
    "gerstenhaber.coderivation": "gerstenhaber.coderivation_s",
    "gerstenhaber.bracket": "gerstenhaber.bracket_s",
    "gerstenhaber": "gerstenhaber.s",
    "signature": "signature.s",
    "cli": "cli.s",
}

# metric name -> unit; the order is the order BENCHMARK.json lists them in
UNITS = {
    "fields.matmul_s": "s",
    "fields.matmul_calls": "count",
    "fields.matmul_madds": "count",
    "linalg.rref_gf2_s": "s",
    "linalg.rref_generic_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_entries": "count",
    "algebras.build_s": "s",
    "algebras.cache_mb": "MB",
    "algebras.ops_s": "s",
    "kulshammer.s": "s",
    "hochschild.bar_assembly_s": "s",
    "hochschild.bar_entries": "count",
    "hochschild.bar_calls": "count",
    "hochschild.bar_builds": "count",
    "hochschild.hh_s": "s",
    "hochschild.pairing_calls": "count",
    "hochschild.pairing_s": "s",
    "hochschild.cup_s": "s",
    "hochschild.other_s": "s",
    "higher.s": "s",
    "gerstenhaber.coderivation_s": "s",
    "gerstenhaber.coderivation_calls": "count",
    "gerstenhaber.bracket_s": "s",
    "gerstenhaber.s": "s",
    "signature.s": "s",
    "cli.s": "s",
    "trace.spans": "count",
    "trace.run_s": "s",
}

_METRICS = [k for k in UNITS if k not in ("algebras.build_s", "trace.run_s")]
