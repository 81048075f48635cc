"""Benchmark of multibump: one workload per run, untraced or traced.

Run from the repository root:

    python3 bench/run.py --workload fixed-radii --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

A run sets up in-process, then repeats the workload's pass until
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) would be
exceeded (at least one pass), times ``setup_s`` in fresh interpreters
between the passes and after them, checks every pass's outputs and prints one metric
per line with its unit.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is a JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 when any check failed and 2
when the package cannot be found.  ``--workload all`` runs every
workload untraced and then traced in fresh interpreters and adds the
tracing overhead (traced minus untraced wall time).
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"
# Set-up is timed in this many fresh interpreters: one before each pass
# and the rest after the last, so that the samples span the run instead
# of one stretch of the machine's speed (which changes every few seconds).
SETUP_SAMPLES = 7
# Run length and the metrics' names, units and order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cpu_seconds():
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Largest peak resident set of this process or any child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def blas_info():
    """BLAS build and thread count, read from the loaded library, never set."""
    import numpy as np

    info = {"build": None, "libraries": []}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and "/" in ln})
    except OSError:
        paths = []
    for path in paths:
        entry = {"library": os.path.basename(path), "threads": None}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None and entry["threads"] is None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    entry["threads"] = fn()
        info["libraries"].append(entry)
    return info


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "multibump").glob("*.py"))
    )
    import multiprocessing

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "start_method": multiprocessing.get_start_method(),
        "src_lines": src_lines,
    }


def measure_setup(workload):
    """Seconds from starting a fresh interpreter until its set-up is done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def check(workload, outputs, reference, state):
    import checks

    if workload.name == "pipeline-light":
        return checks.check_pipeline(outputs, reference)

    import multibump as mb
    from workloads import FIXED

    def ansatz_norm(k, r):
        ctx = mb.build_reduction_context(state["profile"], state["potential"], k, r,
                                         h=FIXED["h"])
        return ctx.norm(ctx.w_ansatz)

    return checks.check_fixed(outputs, reference, ansatz_norm)


def run_workload(name, seed, seconds, trace, reference):
    """Set up, run passes for ``seconds``, check; return the result record."""
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    timed = reference is not None and not trace
    setup_samples = []
    state = workload.setup()
    inputs = workload.inputs(seed)
    work_dir = WORK / f"{name}-{os.getpid()}"
    spool = work_dir / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer(str(spool))
        layers.install(tracer)

    passes = []
    failures = []
    attempted = 0
    spent = 0.0  # passes and checks; the set-up samples do not count
    try:
        while True:
            if timed:
                setup_samples.append(measure_setup(name))
            started = time.perf_counter()
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            raw = workload.run(state, inputs, str(work_dir))
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            record = {"wall_s": wall, "cpu_s": cpu}
            if tracer is not None:
                record.update(layers.layer_metrics(tracer.collect(), wall))
            with tracer.paused() if tracer is not None else nullcontext():
                outputs = workload.outputs(raw)
                ops = [] if reference is None else check(workload, outputs, reference, state)
            attempted += len(ops)
            failures += [(op, problems) for op, problems in ops if problems]
            passes.append(record)
            if reference is None:  # recording the reference: one pass is enough
                return {"outputs": outputs}
            if len(passes) == 1:
                # Resident memory grows from pass to pass (about 30 MB per
                # fixed-radii pass), so the peak is taken through set-up and
                # the first pass only.
                first_peak = peak_rss_mb()
            spent += time.perf_counter() - started
            typical = statistics.median(p["wall_s"] for p in passes)
            if spent + typical > seconds:
                break
        while timed and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(measure_setup(name))
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work_dir, ignore_errors=True)

    names = [(m["name"], m["unit"]) for m in SPEC["per_layer" if trace else "end_to_end"]]
    measured = {}
    for metric, _ in names:
        if metric == "setup_s":
            measured[metric] = statistics.median(setup_samples)
        elif metric == "peak_rss_mb":
            measured[metric] = first_peak
        else:
            measured[metric] = statistics.median(p[metric] for p in passes)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "setup_samples": setup_samples,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {metric: {"value": measured[metric], "unit": unit}
                        for metric, unit in names},
        },
    }


def report(record):
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {len(record['passes'])}")
    for metric, entry in res["metrics"].items():
        print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
    frac = res["failed"] / res["attempted"]
    print(f"  {'ops_failed_frac':36s} {frac:.6g} ratio ({res['failed']} of {res['attempted']} operations)")
    for op, problems in record["failures"]:
        print(f"  FAILED {op}: {'; '.join(problems)}")


def run_all(args):
    """Every workload untraced, then traced, each in a fresh interpreter."""
    from workloads import WORKLOADS

    summary = {}
    ok = True
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results[trace] = json.loads(lines[-1]) if lines else None
            ok = ok and proc.returncode == 0
        if results[0] and results[1]:
            overhead = (results[1]["metrics"]["trace.wall_s"]["value"]
                        - results[0]["metrics"]["wall_s"]["value"])
            print(f"  {'tracing overhead':36s} {overhead:.6g} s")
            results["trace_overhead_s"] = overhead
        summary[name] = results
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full run record (JSON) here")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this workload's seed-0 outputs as its reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "multibump" / "__init__.py").is_file():
        print(f"multibump sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        WORKLOADS[args.workload].setup()
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.write_reference:
        reference = {}
        if REFERENCE.exists():
            reference = json.loads(REFERENCE.read_text())
        reference[args.workload] = run_workload(args.workload, 0, 0, 0, None)["outputs"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0

    reference = json.loads(REFERENCE.read_text())[args.workload]
    env = environment()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, reference)
    record["environment"] = env
    print("environment " + json.dumps(env, sort_keys=True))
    report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
