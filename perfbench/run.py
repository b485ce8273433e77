"""Benchmark of the kantor solver, driven from outside the library.

    python3 perfbench/run.py --workload grid-euclid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py                       # every workload, untraced then traced

Run it from the repository root.  It imports kantor from ./src, builds
its instances from --seed, checks every answer and prints one line per
metric, then, as its last line, a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run of the same
instances.  --seconds scales the number of instances, so a run takes
about that long on a 2-core x86 machine.  The exit code is 0 only when
every check passed.  Without --workload, each workload runs in its own
process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid-sqeuclid", "grid-euclid", "cloud-l1")
IMPORT_REPS = 5


def run_all(args) -> int:
    """Each workload untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
                return 1
            merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def import_seconds(first: float) -> float:
    """Median time to import kantor (numpy included): `first`, this process's
    import, and fresh interpreters for the other samples."""
    code = "import time; t = time.perf_counter(); import kantor; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [first]
    for _ in range(IMPORT_REPS - 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_one(args) -> int:
    # one thread per workload process: the reference machine has 2 cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "kantor" / "__init__.py").is_file():
        print(f"kantor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import kantor

    import_s = perf_counter() - start
    if not Path(kantor.__file__).resolve().is_relative_to(SRC):
        print(f"imported kantor from {kantor.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    import_s = import_seconds(import_s)
    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1, import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
