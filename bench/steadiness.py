"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

    python3 bench/steadiness.py --set-dir bench/baseline/set1 --seeds 1-10
    python3 bench/steadiness.py --compare bench/baseline/set1 bench/baseline/set2

The first form runs ``run.py`` once per workload of BENCHMARK.json and
per seed (trace 0, ``run_seconds`` from BENCHMARK.json), keeps each
run's full record as ``<set-dir>/<workload>/seed<n>.json`` and prints,
per workload and metric, the median and the quartile spread
(Q3 - Q1) / median over the seeds, with Python's
``statistics.quantiles(values, n=4)``.  ``--summarize-only`` only
prints the summary of an existing set.  The second form prints the
shift of each median as a share of the other set's median, read both
ways (first to second and second to first), next to the bound in
BENCHMARK.json: either set may be the parent of a comparison.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(set_dir):
    """{workload: {metric: [values over seeds]}} from a set directory."""
    values = {}
    for path in sorted(Path(set_dir).glob("*/seed*.json")):
        record = json.loads(path.read_text())
        metrics = values.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(set_dir):
    limits = bounds()
    for workload, metrics in load_set(set_dir).items():
        print(workload)
        for name, vals in metrics.items():
            note = ""
            if name in limits and len(vals) >= 2:
                note = f"spread {spread(vals):.4f} (bound {limits[name]})"
            print(f"  {name:14s} median {statistics.median(vals):.6g} over {len(vals)} runs  {note}")


def compare(first, second):
    limits = bounds()
    a, b = load_set(first), load_set(second)
    for workload in a:
        print(workload)
        for name, vals in a[workload].items():
            m1, m2 = statistics.median(vals), statistics.median(b[workload][name])
            print(f"  {name:14s} {m1:.6g} -> {m2:.6g}  shift {(m2 - m1) / m1:+.4f}, "
                  f"read back {(m1 - m2) / m2:+.4f} (bound {limits.get(name)})")


def record_set(set_dir, seeds, seconds, workloads):
    for workload in workloads:
        out_dir = Path(set_dir) / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            out = out_dir / f"seed{seed:02d}.json"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                 "--out", str(out)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed {seed} exit {proc.returncode} {last}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set-dir")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--summarize-only", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="SET_DIR")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.summarize_only:
        workloads = [w["name"] for w in spec["workloads"]]
        record_set(args.set_dir, parse_seeds(args.seeds), spec["run_seconds"], workloads)
    summarize(args.set_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
