"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload circuits --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, each for the
``run_seconds`` that ``BENCHMARK.json`` sets, and prints for each
metric the median, the quartiles and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median.  A benchmark bound should sit well above that spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC_FILE = RUN.parent.parent / "BENCHMARK.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    seconds = json.loads(SPEC_FILE.read_text(encoding="utf-8"))["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True,
                              text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect output\n{done.stderr}", file=sys.stderr)
            return 1
        line = {n: m["value"] for n, m in result["metrics"].items()}
        print(json.dumps({"seed": seed, **line}), flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:12s} median {statistics.median(vals):12.5g}  "
              f"q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {(q3 - q1) / statistics.median(vals):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
