"""Benchmark of interlacepoly: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload engine-gnp --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
The run is a closed loop: one client, one process at a time, no threads.

1. Set-up is timed ``SETUP_SAMPLES`` times, each in a fresh interpreter
   (start, import of interlacepoly and numpy, corpus generation, input
   files written); ``setup_s`` is the median.
2. The expected value of every op is computed once, in a fresh
   interpreter, apart from the program (``Workload.expected``).
3. The workload's fixed work (one round: every op of the corpus, timed,
   then its output checked) repeats for ``--seconds``: at least once, and
   again only while the next round should end in time.  Every round runs
   in a fresh interpreter, so no round can reuse work an earlier one did,
   as one ``interlacepoly`` call per process cannot.  ``wall_s`` is the
   fastest whole round, op and checks included; each op's latency is its
   best over the rounds, and ``op_p50_ms``/``op_p90_ms`` are taken over
   the corpus ops.  A shared 2-vCPU VM was seen to swing between a fast
   state and one up to ~1.7x slower for tens of seconds at a time; taking
   the best keeps those slow phases out where a run sees both states (it
   also hides a slowdown that hits an op in only some rounds).  Every
   round's time is in the detail line.  ``peak_rss_mb`` is the median over
   rounds of the round process's peak resident memory.  This process
   never imports the program: Linux carries a process's peak over into a
   child it starts, so it has to stay smaller than any round.
4. With ``--trace 1`` untraced rounds alternate with rounds run under the
   layer wrappers of ``tracing.py``, in the same ``--seconds``.  The result
   holds the per-layer metrics (medians over traced rounds) and the
   tracing overhead, traced ``wall_s`` minus untraced ``wall_s``; the last
   traced round's spans are written to
   ``perfbench/_out/trace-<workload>-<scale>-seed<n>.json``.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a ``detail`` object with
the machine, the sample counts, the round times, ``failed_frac`` and the
digest of the outputs.
Exit code 2 means the benchmark could not run at all (for example, the
sources are missing); no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = workloads.BENCH_DIR / "_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
MAX_REPORTED_FAILURES = 10

SPEC_FILE = workloads.ROOT / "BENCHMARK.json"


def metric_units(traced: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="corpus size; 'tiny' is for the self-test")
    return p.parse_args(argv)


def child(module: str, function: str, *argv) -> None:
    """``module.function(*argv)`` in a fresh interpreter, from the root."""
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
            f"{module}.{function}(*sys.argv[2:])")
    cmd = [sys.executable, "-c", code, str(workloads.BENCH_DIR), *map(str, argv)]
    subprocess.run(cmd, cwd=workloads.ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def measure_setup(args, workdir: Path) -> list[float]:
    """Wall time of set-up alone, each sample in a fresh interpreter."""
    samples = []
    for k in range(SETUP_SAMPLES):
        target = workdir / f"setup{k}"
        start = time.perf_counter()
        child("workloads", "prepare_only", args.workload, args.scale, args.seed, target)
        samples.append(time.perf_counter() - start)
        shutil.rmtree(target, ignore_errors=True)
    return samples


def play_round(name, scale, seed, inputs, expected_file, trace, result_file,
               span_file) -> None:
    """One round in this interpreter: every op timed, then checked.

    Writes ``wall_s``, per-op ``op_s``, ``failures``, the outputs'
    ``sha256`` and ``rss_mb`` to ``result_file``; a traced round also
    writes ``layers`` there and its spans to ``span_file``.
    """
    workloads.import_program()
    workload = workloads.WORKLOADS[name](scale)
    items = workload.prepare(int(seed), Path(inputs))
    expected = json.loads(Path(expected_file).read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if trace == "1" else None
    uninstall = tracing.install(tracer) if tracer else None
    digest = hashlib.sha256()
    op_s, failures = [], []
    t0 = time.perf_counter()
    for index, (item, want) in enumerate(zip(items, expected, strict=True)):
        if tracer:
            tracer.active = True
            frame = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            out, problem = workload.run(item), None
        except Exception as exc:  # a crashed op counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            out, problem = None, f"raised {exc!r}"
        op_s.append(time.perf_counter() - start)
        if tracer:
            tracer.close(frame)
            tracer.active = False
        if problem is None:
            problem = workload.check(item, out, want)
            digest.update(workload.canonical(item, out))
        if problem:
            failures.append(f"op {index}: {problem}")
    result = {
        "wall_s": time.perf_counter() - t0,
        "op_s": op_s,
        "failures": failures,
        "sha256": digest.hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        uninstall()
        result["layers"] = tracer.layer_metrics()
        Path(span_file).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(result_file).write_text(json.dumps(result), encoding="utf-8")


class Runner:
    """Plays rounds of one workload, each in a fresh interpreter."""

    def __init__(self, args, workdir: Path, span_file: Path):
        self.args = args
        self.workdir = workdir
        self.span_file = span_file
        self.plain: list[dict] = []
        self.traced: list[dict] = []

    def play(self, traced: bool) -> None:
        a = self.args
        result_file = self.workdir / "round.json"
        child("run", "play_round", a.workload, a.scale, a.seed, self.workdir / "inputs",
              self.workdir / "expected.json", int(traced), result_file, self.span_file)
        result = json.loads(result_file.read_text(encoding="utf-8"))
        (self.traced if traced else self.plain).append(result)

    def run(self, seconds: float, trace: bool) -> None:
        """Untraced rounds, or untraced and traced rounds in turn, for
        ``seconds``: at least one round (pair), and another only if it
        should end in time."""
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            self.play(False)
            if trace:
                self.play(True)
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return

    def verdict(self) -> tuple[int, int, list[str]]:
        """Ops attempted, ops failed, failure messages.  All rounds must
        give the same outputs; a round that differs from the first clean
        round fails all its ops."""
        rounds = self.plain + self.traced
        attempted = sum(len(r["op_s"]) for r in rounds)
        failed = sum(len(r["failures"]) for r in rounds)
        failures = [f for r in rounds for f in r["failures"]]
        clean = [r for r in rounds if not r["failures"]]
        for r in clean:
            if r["sha256"] != clean[0]["sha256"]:
                failed += len(r["op_s"])
                failures.append(f"outputs {r['sha256']} != {clean[0]['sha256']}")
        return attempted, failed, failures


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def machine(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.ROOT / "src" / "interlacepoly").is_dir():
        print(f"error: no interlacepoly sources in {workloads.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{args.workload}-{args.scale}-seed{args.seed}.json"
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        setup = measure_setup(args, workdir)
        child("workloads", "write_expected", args.workload, args.scale, args.seed,
              workdir / "inputs", workdir / "expected.json")
        runner = Runner(args, workdir, span_file)
        runner.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, failures = runner.verdict()

    plain_walls = [r["wall_s"] for r in runner.plain]
    best_op_s = [min(op) for op in zip(*(r["op_s"] for r in runner.plain))]
    if args.trace:
        layers = [r["layers"] for r in runner.traced]
        metrics = {name: statistics.median_low(m[name] for m in layers)
                   for name in layers[0]}
        traced_wall = min(r["wall_s"] for r in runner.traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - min(plain_walls)
    else:
        op_ms = [t * 1000 for t in best_op_s]
        metrics = {
            "wall_s": min(plain_walls),
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": percentile(op_ms, 90),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runner.plain),
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "machine": machine(runner.plain[0]["numpy"]),
        "samples": {
            "setup_s": len(setup),
            "rounds": len(runner.plain),
            "ops": len(best_op_s),
            "traced_rounds": len(runner.traced),
        },
        "round_walls_s": plain_walls,
        "traced_round_walls_s": [r["wall_s"] for r in runner.traced],
        "best_op_sum_s": sum(best_op_s),
        "failed_frac": failed / attempted,
        "outputs_sha256": runner.plain[0]["sha256"],
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if args.trace:
        detail["trace_file"] = str(span_file.relative_to(workloads.ROOT))
    for f in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": metrics[n], "unit": u}
            for n, u in metric_units(bool(args.trace)).items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
