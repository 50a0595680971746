"""Benchmark of the coso package: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in this one process
(COSO_PARALLEL=1, no worker pool) as a closed loop: rounds of the same calls
into coso's public entry points, each call starting when the previous one
returned, until --seconds have passed; the last round is finished.  Outputs
are checked outside the timed calls.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics from a span trace of
the coso modules with --trace 1.  Throughput is scaled to a reference host
speed (see REFERENCE_S).  Files are written under bench/out/ only.  Exit
code 0 means every check passed.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 3
# Host speed reference: a fixed pure-Python loop timed just before and just
# after each round.  On a shared host, identical rounds swing 1.5-2x in wall
# time with other tenants' load, and this loop swings with them; REFERENCE_S
# is about its time on this host at its usual speed.
REFERENCE_ITERS = 400_000
REFERENCE_S = 0.02
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "good_outcomes": "count",
              "peak_rss_mb": "MB"}
RATE_UNITS = {"ops_per_wall_s": "1/s",
              "env_steps_per_s": "steps/s",
              "theory_instances_per_s": "instances/s",
              "cf_report_records_per_s": "records/s",
              "probe_samples_per_s": "samples/s"}
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path.insert(0, sys.argv[1]); "
                "import coso.harness, coso.checkpoint; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import coso in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" /
                         "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def machine() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


def reference_seconds() -> float:
    """Time of the host speed reference loop."""
    t = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i
    return time.perf_counter() - t


def one_round(wl, capture):
    from coso import scm
    before = scm.eval_count()
    reference = reference_seconds()
    rnd = wl.run_round()
    rnd.reference_seconds = (reference + reference_seconds()) / 2
    rnd.scm_scored = scm.eval_count() - before
    runs, counts = capture.take()
    rnd.counts.update(counts)
    return rnd, runs


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, size: dict | None = None) -> dict:
    """Set up, run rounds for `seconds`, check; returns the result record."""
    from layers import ROUND, layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, BatchCapture

    wl = WORKLOADS[workload](seed, workdir, size)
    setup = []  # at the reference host speed, like ops_per_s
    for _ in range(SETUP_REPS):
        reference = reference_seconds()
        imp = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        elapsed = imp + time.perf_counter() - t0
        reference = (reference + reference_seconds()) / 2
        setup.append(elapsed * REFERENCE_S / reference)

    capture = BatchCapture()
    tracer = Tracer() if trace else None
    rounds, runs, differ, error = [], {}, [], None

    def add(rnd):
        # Outputs must repeat exactly.  Only the first and the latest are
        # kept, so memory does not grow with the number of rounds.
        if rounds:
            if (rnd.output, rnd.good) != (rounds[0].output, rounds[0].good):
                differ.append(len(rounds))
            if len(rounds) > 1:
                rounds[-1].output = None
        rounds.append(rnd)

    capture.install()
    try:
        if tracer:
            add(one_round(wl, capture)[0])  # untraced reference
            tracer.install()
            with tracer.span("bench.setup"):
                wl.setup()
            capture.take()  # the inspect set-up trains; keep rounds only
            wl.span = lambda: tracer.span(ROUND)
        start = time.perf_counter()
        while len(rounds) <= bool(tracer) or \
                time.perf_counter() - start < seconds:
            rnd, runs = one_round(wl, capture)
            add(rnd)
    except Exception:
        error = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
        capture.uninstall()

    attempted = sum(r.attempted for r in rounds)
    failed, problems = 0, []
    if rounds:
        found, bad = wl.check(rounds[-1], runs)
        problems += found
        # rounds repeat exactly (checked in add), so each failed alike
        failed += bad * len(rounds)
        if differ:
            problems.append(f"rounds {differ} differ from round 0")
            failed += sum(rounds[i].attempted for i in differ)
    if error:
        problems.append(error)
        attempted += wl.ops_per_round
        failed += wl.ops_per_round
    failed = min(failed, attempted)

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": {}}
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "rounds": len(rounds), "round_seconds": [r.seconds for r in rounds],
              "reference_seconds": [r.reference_seconds for r in rounds],
              "setup_seconds": setup, "machine": machine(),
              "problems": problems, "rates": {}, "good_name": wl.good_name}
    if rounds:
        detail["rates"] = {k: statistics.median(r.rates[k] for r in rounds)
                           for k in rounds[0].rates}
        detail["rates"]["ops_per_wall_s"] = statistics.median(
            r.work / r.seconds for r in rounds)
    if not trace:
        metrics = {"setup_s": statistics.median(setup),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024}
        if rounds:
            # each round's rate at the reference host speed
            metrics["ops_per_s"] = statistics.median(
                r.work / r.seconds * r.reference_seconds / REFERENCE_S
                for r in rounds)
            metrics["good_outcomes"] = rounds[0].good
        result["metrics"] = {k: {"value": metrics[k], "unit": END_TO_END[k]}
                             for k in END_TO_END if k in metrics}
    elif len(rounds) > 1:
        from layers import PER_LAYER
        traced = rounds[1:]
        counts = {k: sum(r.counts.get(k, 0) for r in traced)
                  for k in ("utterances", "parse_ok", "records", "samples")}
        counts["scm_scored"] = sum(r.scm_scored for r in traced)
        overhead = (statistics.median(r.seconds / r.reference_seconds
                                      for r in traced)
                    / (rounds[0].seconds / rounds[0].reference_seconds) - 1.0)
        values = layer_metrics(tracer.spans(), len(traced), counts, overhead)
        result["metrics"] = {k: {"value": values[k], "unit": PER_LAYER[k][0]}
                             for k in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{workload}-seed{seed}.npz")
    return {"result": result, "detail": detail}


def print_report(record: dict) -> None:
    result, detail = record["result"], record["detail"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"trace {detail['trace']}  rounds {detail['rounds']}")
    print("machine " + "  ".join(f"{k} {v}"
                                 for k, v in detail["machine"].items()))
    for name, m in result["metrics"].items():
        alias = ""
        if name == "good_outcomes":
            alias = f"  ({detail['good_name']})"
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}{alias}")
    if detail["trace"] and detail["rounds"] > 1:
        selfs = {k[:-len(".self_s_per_round")]: m["value"]
                 for k, m in result["metrics"].items()
                 if k.endswith(".self_s_per_round")}
        total = sum(selfs.values()) or 1.0
        print("layer self time per traced round:")
        for layer, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:16s} {v:10.4f} s  {100 * v / total:5.1f}%")
        overhead = result["metrics"]["trace.overhead_ratio"]["value"]
        print(f"tracing overhead: traced round {100 * overhead:+.1f}% "
              f"against the untraced reference round")
    for name, value in detail["rates"].items():
        print(f"  {name:48s} {value:>16.6g} {RATE_UNITS[name]}  "
              f"(median over rounds)")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    for p in detail["problems"]:
        print("CHECK FAILED: " + p, file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "coso" / "__init__.py").is_file():
        print(f"error: no coso sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["COSO_PARALLEL"] = "1"
    os.environ.pop("COSO_OUTPUT_DIR", None)  # artifacts go to the workdir
    sys.path.insert(0, str(SRC))
    import coso
    if Path(coso.__file__).resolve().parent != (SRC / "coso").resolve():
        print(f"error: imported coso from {coso.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        record = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(record)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
