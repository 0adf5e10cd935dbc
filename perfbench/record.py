"""Record the reference outputs in ``expected.json``.

Run once, at the commit whose outputs define correct, from the
repository root:

    python3 perfbench/record.py

For each size profile it records the semantic witness fields of every
search and reduce operation, the decode queries whose verdict already
disagrees with the ground truth, and, for search-exhaustive, the
candidates examined per coloring of the reference pool (which splits
the pool the workload seed draws from).
"""

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

from workloads import (SEMANTIC_FIELDS, SIZES, WORKLOADS, chain_ops,
                       exhaustive_ops)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from xlramsey.cli import run_experiment  # noqa: E402


def run_ops(ops, workdir: Path) -> dict:
    """Run the operations; return reference data keyed by op label."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ref = {"witnesses": {}, "known_wrong": [], "costs": {}}
    with contextlib.chdir(workdir):
        for op in ops:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = run_experiment(op["argv"])
            if rc != 0:
                raise SystemExit(f"{op['argv']} exited {rc}")
            if op["witness"]:
                payload = json.loads(Path(op["witness"]).read_text(encoding="utf-8"))
                ref["witnesses"][op["label"]] = {k: payload[k] for k in SEMANTIC_FIELDS}
                mode, _, seed = op["label"].partition(":")
                if mode in ("homogeneous", "min-homogeneous"):
                    examined = payload["budget"]["examined"]
                    ref["costs"][seed] = ref["costs"].get(seed, 0) + examined
            if op["csv"]:
                with open(op["csv"], encoding="utf-8", newline="") as fh:
                    ref["known_wrong"] += [f"{r['level']},{r['element']}"
                                           for r in csv.DictReader(fh)
                                           if r["consistent"] == "0"]
    shutil.rmtree(workdir)
    return ref


def main() -> None:
    expected = {}
    for size, sizes in SIZES.items():
        expected[size] = {}
        for workload in WORKLOADS:
            if workload == "search-exhaustive":
                ops = exhaustive_ops(range(sizes[workload][2]), size)
            else:
                ops = chain_ops(workload, size)
            ref = run_ops(ops, HERE / "out" / "record")
            expected[size][workload] = {k: v for k, v in ref.items() if v}
            print(size, workload, len(ref["witnesses"]), "witnesses,",
                  "known wrong decode verdicts:", ref["known_wrong"], flush=True)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
