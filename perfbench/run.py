"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload readme_cli --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; gorlab is imported from its `src/`.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced batch,
run after a warm-up batch and an untraced batch so the tracing overhead can
be stated.
The lines before it are a readable summary.  Spans and a detailed result go
to perfbench/out/.  The exit code is 0 when every served output matched its
recorded digest and every independent check held, 1 when one did not, and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
# set-ups per run: at least SETUPS, and more while they add up to less than
# SETUP_SECONDS, up to MAX_SETUPS; setup_s is their median
SETUPS = 5
SETUP_SECONDS = 2.0
MAX_SETUPS = 25


def blas_info() -> dict:
    """numpy's BLAS build and, for a bundled OpenBLAS, its thread count."""
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": "unknown"}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))   # already loaded by numpy
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **blas_info(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
            "GORLAB_THREADS": os.environ.get("GORLAB_THREADS", "unset")}


def batches_for(workload, seconds: int) -> int:
    """Whole batches in a run: as many as fit --seconds at this commit's
    speed, and never fewer than the tail statistic needs.  Fixed for a given
    --seconds, so every run makes the same number of samples."""
    return max(workload.min_batches, round(seconds / workload.nominal_batch_s))


def time_batch(workload, inputs, gate) -> float:
    """Wall time of one batch, less the time spent checking outputs and
    calibrating."""
    gc.collect()
    c0 = gate.untimed_s
    t0 = time.perf_counter()
    workload.run_batch(inputs, gate)
    return time.perf_counter() - t0 - (gate.untimed_s - c0)


def import_package():
    """Import gorlab from this checkout's src/ and the benchmark's modules;
    exit 2 when the checkout has no gorlab source."""
    if not (SRC / "gorlab" / "__init__.py").is_file():
        print(f"error: no gorlab package under {SRC}", file=sys.stderr)
        sys.exit(2)
    # each workload runs single-process with the package's thread pool off
    os.environ.pop("GORLAB_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import gorlab
    if Path(gorlab.__file__).resolve().parent != SRC / "gorlab":
        print(f"error: imported gorlab from {gorlab.__file__}", file=sys.stderr)
        sys.exit(2)
    import harness
    import tracing
    import workloads
    return harness, tracing, workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    harness, tracing, workloads = import_package()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    expected = json.loads(DIGESTS.read_text())[wl.name]
    machine = machine_info()
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        gate = harness.Gate(expected, check_full=args.seed == 0)
        if args.trace:
            result = traced(wl, args.seed, workdir, gate, tracing, tag)
        else:
            result = untraced(wl, args.seed, args.seconds, workdir, gate, harness)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, notes = result

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for line in notes:
        print(line)
    print(f"operations {gate.attempted}  failed {gate.failed}  "
          f"failed_share {gate.failed / gate.attempted:.4f}")
    for kind, items in (("refused", gate.refused), ("WRONG", gate.wrong),
                        ("ERROR", gate.errors), ("review", gate.review)):
        for item in items:
            print(f"{kind}: {item}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "machine": machine, "notes": notes, "latencies_s": gate.latencies,
              "refused": gate.refused, "wrong": gate.wrong,
              "errors": gate.errors, "review": gate.review,
              "observed": gate.observed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


def untraced(wl, seed, seconds, workdir, gate, harness):
    count = batches_for(wl, seconds)
    harness.calibrate()   # the first call in a process runs cold
    setups, inputs = [], []
    while (len(setups) < max(SETUPS, count)
           or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS)):
        t0 = time.perf_counter()
        inp = wl.setup(seed, str(workdir / f"setup{len(setups)}"))
        setups.append(time.perf_counter() - t0)
        inputs = (inputs + [inp])[-count:]
    gate.calibrating = True
    walls = []
    for inp in inputs:
        walls.append(time_batch(wl, inp, gate))
        gate.calibrate()
    speed = harness.CALIBRATION_REF_S / statistics.median(gate.calibrations)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, pct = harness.summarize(gate, walls, setups, peak, speed)
    notes = [f"batches {count}  samples {len(gate.latencies)}  "
             f"set-ups {len(setups)}",
             f"op_tail_s estimates the p{pct:.1f} latency of "
             f"{len(gate.latencies)} samples ({harness.TAIL_BEYOND} beyond it)",
             f"times are scaled by {speed:.4f}, the reference calibration "
             f"{harness.CALIBRATION_REF_S} s over this run's median of "
             f"{[round(c, 4) for c in gate.calibrations]}",
             "unscaled: " + "  ".join(f"{k} {m['value'] / speed:.6g}"
                                      for k, m in metrics.items()
                                      if m["unit"] == "s")]
    return metrics, notes


def traced(wl, seed, workdir, gate, tracing, tag):
    # the first batch in a process runs cold; compare two warm batches
    time_batch(wl, wl.setup(seed, str(workdir / "warm")), gate)
    untraced_wall = time_batch(wl, wl.setup(seed, str(workdir / "plain")), gate)
    inp = wl.setup(seed, str(workdir / "traced"))
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    gate.tracer = tracer
    try:
        traced_wall = time_batch(wl, inp, gate)
    finally:
        restore()
        gate.tracer = None
    selfs = tracing.self_times(tracer.spans)
    metrics = tracing.layer_metrics(tracer, selfs, traced_wall, untraced_wall)
    tracing.write_spans(str(OUT / f"spans-{tag}.jsonl"), tracer.spans, selfs)
    notes = [f"untraced batch {untraced_wall:.3f} s  traced batch "
             f"{traced_wall:.3f} s  spans {len(tracer.spans)}"]
    return metrics, notes


if __name__ == "__main__":
    sys.exit(main())
