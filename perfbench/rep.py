"""One repetition of a workload in a fresh process.

Reads a JSON job on stdin: the operations, the specs to parse during
set-up, the source directory, and whether to trace.  Runs the operations
back to back through ``xlramsey.cli.run_experiment`` in the current
directory and prints one JSON line with the timings, the peak resident
memory, each operation's exit code and outputs, and (traced) the
per-layer metrics.
"""

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time

from probe import HostProbe
from workloads import SEMANTIC_FIELDS


def _read_outputs(op):
    witness = rows = None
    if op["witness"] and os.path.exists(op["witness"]):
        with open(op["witness"], encoding="utf-8") as fh:
            payload = json.load(fh)
        witness = {k: payload.get(k) for k in SEMANTIC_FIELDS}
    if op["csv"] and os.path.exists(op["csv"]):
        with open(op["csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    return witness, rows


def main() -> None:
    job = json.load(sys.stdin)
    ops = job["ops"]

    # Traced repetitions run without the probe, so that its handler's
    # time does not land in the spans it interrupts.
    probe = None if job["trace"] else HostProbe()
    if probe:
        probe.start()
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    from xlramsey import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    specs = job["specs"]
    for u in specs["universe"]:
        cli.parse_universe(u)
    for o in specs["oracle"]:
        oracle = cli.parse_oracle(o)
    for c in specs["coloring"]:
        cli.parse_coloring(c, oracle)
    setup_s = time.perf_counter() - t0
    probe_setup = probe.spent() if probe else 0.0

    codes = []
    sink = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in ops:
            codes.append(cli.run_experiment(op["argv"]))
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe:
        probe.stop()
        wall_s -= probe.spent() - probe_setup
        setup_s -= probe_setup
        peak_rss_mb -= probe.rss_mb

    results = []
    for op, rc in zip(ops, codes):
        witness, rows = _read_outputs(op)
        results.append({"rc": rc, "witness": witness, "rows": rows})
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "probe_s": probe.kernel_s() if probe else None, "results": results}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if job.get("spans"):
            tracer.write(job["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
