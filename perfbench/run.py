"""Run one derinv benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sign-natural --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  After set-up the workload runs whole rounds (every operation
once, one after another, on one thread) until the next round would end
past `--seconds`; at least one round runs.  Every output is checked.
The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones: `run_s` (median over rounds of a round's timed part),
`peak_rss_mb` (peak resident memory through set-up and the first round,
so that it does not depend on how many rounds fit) and `setup_s` (from
the start of the process to the end of set-up); with `--trace 1` they are the
per-layer ones from `tracer.py`, and the spans go to
`perfbench/out/trace-<workload>-seed<seed>.json.gz`.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def _since_process_start() -> float:
    """Seconds between the kernel starting this process and _T0 (Linux only)."""
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    since -= time.perf_counter() - _T0
    return since if 0.0 <= since < 60.0 else 0.0


_STARTED = _T0 - _since_process_start()

# One BLAS thread: the machine's second vCPU is left to the rest of the
# system, which keeps run-to-run spread down.  The cap is the program's default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("KK_SIZE_CAP", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "derinv" / "__init__.py").is_file():
        print(f"error: no derinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT / f"work-{os.getpid()}")
    setup_s = time.perf_counter() - _STARTED
    try:
        result = measure(workload, args.seconds, tracer)
    finally:
        workload.cleanup()
    rounds = result.pop("rounds")
    rss_kb = result.pop("first_round_rss_kb")
    if tracer is None:
        result["metrics"] = {
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        from tracer import UNITS

        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
        layers = tracer.layer_metrics(len(rounds))
        layers["trace.run_s"] = statistics.median(rounds)
        result["metrics"] = {k: {"value": layers[k], "unit": u} for k, u in UNITS.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(workload, seconds: float, tracer) -> dict:
    """Whole rounds until the next one would end past `seconds`."""
    rounds: list[float] = []
    attempted = failed = wrong = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        timed = 0.0
        if tracer is not None:
            tracer.round = len(rounds)
        for op in workload.ops:
            if op.prepare is not None:
                op.prepare()
            attempted += 1
            call = op.call if tracer is None else (lambda op=op: tracer.span("bench.op", op.call))
            if tracer is not None:
                tracer.active = True
            t = time.perf_counter()
            try:
                out, err = call(), None
            except Exception:  # an operation that raises counts as failed; the run goes on
                out, err = None, traceback.format_exc()
            timed += time.perf_counter() - t
            if tracer is not None:
                tracer.active = False
            if err is not None:
                failed += 1
                print(f"{op.label}: raised\n{err}", file=sys.stderr)
                continue
            problems = op.check(out)
            if problems:
                failed += 1
                wrong += 1
                print(f"{op.label}: wrong output: {problems}", file=sys.stderr)
        rounds.append(timed)
        if len(rounds) == 1:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "rounds": rounds,
            "first_round_rss_kb": rss_kb}


if __name__ == "__main__":
    sys.exit(main())
