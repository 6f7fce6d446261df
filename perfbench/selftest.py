"""Self-test of the benchmark on its tiny corpora (about half a minute).

    python3 perfbench/selftest.py

Checks, for every workload:

* ``run.py --scale tiny`` exits 0, untraced and traced, and its last line
  is the result object with exactly the metrics ``BENCHMARK.json`` lists
  (end-to-end untraced, per-layer traced), each with its unit;
* the outputs verify: ``correct`` is true, ``failed`` is 0 and the detail
  line's ``failed_frac`` is 0; the traced run wrote its span file;
* the oracles reject a corrupted output, so a wrong answer cannot pass;
* the benchmark's own interlace recursion agrees, on random small graphs,
  with the Aigner-van der Holst formula: q(G;x) is the sum over vertex
  sets S of (x - 1)^n(S), n(S) the GF(2) nullity of the adjacency matrix
  of G[S].

It also checks that, in a directory holding only ``BENCHMARK.json`` and
the benchmark's files, ``run.py`` exits non-zero without printing a result.
Exits 1 at the first failed check.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from itertools import combinations
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402


class Failure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Failure(message)


def invoke(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = invoke(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    expect(done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}")
    *_, detail_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{where}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{where}: outputs failed verification: {detail['failures']}")
    expect(detail["failed_frac"] == 0, f"{where}: failed_frac {detail['failed_frac']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    expect(got == units, f"{where}: metrics/units {got} != {units}")
    for name, metric in result["metrics"].items():
        expect(isinstance(metric["value"], (int, float)), f"{where}: {name} not a number")
    if trace:
        expect((ROOT / detail["trace_file"]).is_file(), f"{where}: no trace file")


def check_oracles() -> None:
    """Each workload's check must flag a corrupted output."""
    workloads.import_program()
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            if name == "sweep-order7":
                continue
            workload = cls("tiny")
            item = workload.prepare(0, Path(tmp) / name)[-1]
            want = workload.expected([item])[0]
            out = workload.run(item)
            expect(workload.check(item, out, want) is None, f"{name}: good output rejected")
            expect(workload.check(item, corrupt(name, out), want) is not None,
                   f"{name}: corrupted output accepted")


def nullity_polynomial(n: int, edges) -> list[int]:
    """q(G) by the Aigner-van der Holst subset formula, coefficients in x."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    by_nullity = [0] * (n + 1)
    for s in range(1 << n):
        basis: list[int] = []
        for v in range(n):
            if s >> v & 1:
                row = adj[v] & s
                for b in basis:
                    row = min(row, row ^ b)
                if row:
                    basis.append(row)
        by_nullity[bin(s).count("1") - len(basis)] += 1
    coeffs = [0] * (n + 1)
    for k, count in enumerate(by_nullity):
        for j in range(k + 1):
            coeffs[j] += count * comb(k, j) * (-1) ** (k - j)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def check_recursion_oracle() -> None:
    rng = random.Random(0)
    for n in list(range(1, 9)) * 8:
        p = rng.random()
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        expect(workloads.interlace_oracle(n, edges) == nullity_polynomial(n, edges),
               f"interlace_oracle disagrees with the subset formula on {n}, {edges}")


def corrupt(name: str, out):
    if name == "engine-gnp":
        code, text = out
        coeffs = json.loads(text)["coeffs"]
        coeffs[-1] = str(int(coeffs[-1]) + 1)
        return code, json.dumps({"coeffs": coeffs})
    r, best, anti, q = out
    return r, best, anti + 1, q


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        done = invoke(Path(tmp), "engine-gnp", 0)
        expect(done.returncode != 0, "ran without the sources")
        expect(not done.stdout.strip(), "printed output without the sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)
    try:
        expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
               "BENCHMARK.json workloads differ from workloads.py")
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_run(spec, workload, trace)
                print(f"ok  {workload} --trace {trace}")
        check_oracles()
        print("ok  oracles reject corrupted outputs")
        check_recursion_oracle()
        print("ok  interlace_oracle agrees with the subset formula")
        check_without_sources()
        print("ok  exits non-zero without the sources")
    except Failure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
