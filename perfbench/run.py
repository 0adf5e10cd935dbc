"""Benchmark of the xlramsey CLI workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload chain-dh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each repetition runs the workload's operations in one fresh
single-threaded process (``rep.py``), from cold caches, because every
real CLI call pays the cost of filling them.  With ``--trace 0`` the
repetitions run back to back for ``--seconds`` seconds (at least three)
and the end-to-end metrics are their medians, with times scaled to a
fixed host speed by the in-process probe (``probe.py``).  With
``--trace 1`` one untraced and two traced repetitions run, and the
per-layer metrics come from the first traced one.  Every repetition's
outputs are checked against the witnesses recorded at the seed commit
(``expected.json``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check, operations, spec_strings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_REPS = 3
REP_TIMEOUT_S = 50
# Probe kernel time that scaled timings are expressed at (see probe.py).
PROBE_REFERENCE_S = 3e-4

RATIOS = ("colorings.memo_hit_ratio", "machines.threshold_hit_ratio")


class RepFailed(Exception):
    pass


def run_rep(workload: str, ops, trace: bool = False, spans: Path | None = None) -> dict:
    """Run one repetition in a fresh process and return its report."""
    rep_dir = OUT / f"{workload}-rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    job = {"ops": ops, "specs": spec_strings(ops), "src": str(SRC), "trace": trace,
           "spans": None if spans is None else str(spans)}
    # Bytecode caching on, as for an installed CLI, whatever the caller's
    # environment says; the warm-up repetition writes the cache.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py")],
                              input=json.dumps(job), capture_output=True, text=True,
                              cwd=rep_dir, env=env, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {REP_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition exited {proc.returncode}: {proc.stderr[-2000:]}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return json.loads(lines[-1])


def score(ops, reps, reference) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    unexpected: list[str] = []
    for rep in reps:
        a, f, u = check(ops, rep["results"], reference)
        attempted, failed = attempted + a, failed + f
        unexpected += [p for p in u if p not in unexpected]
    return attempted, failed, unexpected


def summary(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4g} (quartiles {q1:.4g} .. {q3:.4g})"


def measure(workload: str, ops, seconds: float, reference) -> dict:
    """End-to-end metrics: medians over back-to-back repetitions, with
    times scaled to the host speed the probe saw during each one."""
    run_rep(workload, [])  # writes the bytecode cache; not measured
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(workload, ops))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    attempted, failed, unexpected = score(ops, reps, reference)
    scaled = {key: [r[key] * PROBE_REFERENCE_S / r["probe_s"] for r in reps]
              for key in ("wall_s", "setup_s")}
    print(f"{workload}: {len(reps)} repetitions of {len(ops)} CLI operations")
    print(f"  probe_s      {summary([r['probe_s'] for r in reps])}")
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        print(f"  {key:12s} {summary([r[key] for r in reps])}")
    for key, values in scaled.items():
        print(f"  {key:12s} scaled: {summary(values)}")
    print(f"  operations   {attempted} attempted, {failed} failed")
    for problem in unexpected:
        print(f"  FAILED {problem}")
    metrics = {
        "wall_s": (statistics.median(scaled["wall_s"]), "s"),
        "setup_s": (statistics.median(scaled["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "xlramsey").glob("*.py")))


def trace(workload: str, ops, reference) -> dict:
    """Per-layer metrics from a traced repetition, checked against a
    second traced one and an untraced one."""
    plain = run_rep(workload, ops)
    traced = [run_rep(workload, ops, trace=True, spans=OUT / f"{workload}.spans"),
              run_rep(workload, ops, trace=True)]
    attempted, failed, unexpected = score(ops, [plain] + traced, reference)
    for i, rep in enumerate(traced, 1):
        if rep["results"] != plain["results"]:
            unexpected.append(f"traced repetition {i} changed the outputs")
    first, second = (rep["layers"]["counts"] for rep in traced)
    for key in first:
        if first[key] != second[key]:
            unexpected.append(f"count {key} did not repeat: {first[key]} then {second[key]}")

    layers = traced[0]["layers"]
    overhead = statistics.median(r["wall_s"] for r in traced) / plain["wall_s"]
    metrics = {}
    for key, value in layers["counts"].items():
        metrics[key] = (value, "ratio" if key in RATIOS else "count")
    for key, value in layers["times"].items():
        metrics[key] = (value, "s")
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    metrics["src.lines"] = (src_lines(), "lines")

    print(f"{workload}: untraced wall {plain['wall_s']:.3f} s, traced "
          f"{traced[0]['wall_s']:.3f} s and {traced[1]['wall_s']:.3f} s, "
          f"{layers['spans']} spans")
    total = sum(v for k, v in layers["times"].items() if k.endswith(".self_s"))
    print("  layer       self_s   share")
    for key, value in sorted(layers["times"].items(), key=lambda kv: -kv[1]):
        if key.endswith(".self_s"):
            print(f"  {key[:-7]:10s} {value:7.3f}  {value / total:6.1%}")
    for key, (value, unit) in metrics.items():
        if unit != "s":
            print(f"  {key:34s} {value}")
    for problem in unexpected:
        print(f"  FAILED {problem}")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def emit(result: dict) -> None:
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main() -> int:
    # Turn SIGTERM into SystemExit so subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload and the tracer at tiny sizes")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "xlramsey" / "cli.py").is_file():
        print(f"no xlramsey sources under {SRC}", file=sys.stderr)
        return 2
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    OUT.mkdir(exist_ok=True)

    try:
        if args.smoke:
            ok = True
            for workload in WORKLOADS:
                ops = operations(workload, args.seed, "smoke", expected)
                reference = expected["smoke"][workload]
                for result in (measure(workload, ops, 0, reference),
                               trace(workload, ops, reference)):
                    ok = ok and result["correct"]
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        ops = operations(args.workload, args.seed, "full", expected)
        reference = expected["full"][args.workload]
        if args.trace:
            result = trace(args.workload, ops, reference)
        else:
            result = measure(args.workload, ops, args.seconds, reference)
    except RepFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
