"""Byte-for-byte golden outputs of the CLI.

``golden_cli.json`` holds, for each named command in ``COMMANDS``, its
argv, exit code, stdout, stderr and the sha256 of every file it wrote.
The commands run in order, in-process through ``run_experiment``, in
one temporary directory, with the machine caches cleared before each.
So a later command reads the files an earlier one wrote, as the
README's examples do.  To record entries again after an intended change
of output, name them:

    PYTHONPATH=src python tests/test_golden_cli.py chain-dh-m1 readme-verify

Every command runs, but only the named entries, and commands with no
record yet, are written.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

README = [
    ("readme-enumerate", ["enumerate", "--universe", "{2,3,4,5}"]),
    ("readme-color", ["color", "--coloring", "parity-of-min", "--universe", "interval:2..8",
                      "--out", "trace.csv"]),
    ("readme-search-dh", ["search", "--mode", "chain", "--coloring", "dh", "--oracle", "empty",
                          "--universe", "evens:2..40", "--out-witness", "w.json",
                          "--out-report", "r.csv"]),
    ("readme-verify", ["verify", "--witness", "w.json"]),
    ("readme-min-homogeneous", ["search", "--mode", "min-homogeneous",
                                "--coloring", "second-mod-min", "--universe", "interval:2..16",
                                "--k", "5", "--out-witness", "mh.json"]),
    ("readme-search-comega", ["search", "--mode", "chain", "--coloring", "comega",
                              "--universe", "interval:2..14", "--out-witness", "cw.json"]),
    ("readme-decode", ["decode", "--witness", "cw.json", "--query", "1,1",
                       "--out", "verdicts.csv"]),
    ("readme-reduce", ["reduce", "--direction", "rt-via-km", "--coloring", "second-mod-min",
                       "--witness", "mh.json", "--out-witness", "thinned.json"]),
    ("readme-verify-thinned", ["verify", "--witness", "thinned.json"]),
    ("readme-unknown-coloring", ["search", "--coloring", "nope", "--universe", "interval:2..8"]),
]

OTHERS = [
    ("search-homogeneous", ["search", "--mode", "homogeneous", "--coloring", "parity-of-sum",
                            "--universe", "interval:2..12", "--k", "4",
                            "--out-witness", "h.json", "--out-report", "h.csv"]),
    ("search-homogeneous-none", ["search", "--mode", "homogeneous", "--coloring", "random:7",
                                 "--universe", "interval:2..9", "--k", "7"]),
    ("verify-other-coloring", ["verify", "--witness", "w.json", "--coloring", "random:7",
                               "--out", "v.json"]),
]

# Chain runs at small candidate budgets, where the tree search is cut.
SPECS = ["parity-of-min", "parity-of-sum", "sum-mod:3", "constant:2", "random",
         "random:7", "dh", "km-dh", "comega", "min-minus-one", "second-mod-min"]


def _chain(spec, m):
    name = f"chain-{spec.replace(':', '')}-m{m}"
    universe = "evens:2..24" if spec in ("dh", "km-dh") else "interval:2..14"
    seed = ["--seed", "3"] if spec == "random" else []
    return name, ["search", "--mode", "chain", "--coloring", spec, *seed,
                  "--universe", universe, "--max-candidates", str(m),
                  "--out-witness", f"{name}.json"]


COMMANDS = README + OTHERS + [_chain(spec, m) for spec in SPECS for m in (1, 2, 5)]


def _digests(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path(root).iterdir()}


def run_all():
    """Run every command in order in a fresh directory; return one
    record per command."""
    from xlramsey.cli import run_experiment
    from xlramsey.machines import clear_caches

    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv in COMMANDS:
                clear_caches()
                before = _digests(tmp)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_experiment(argv)
                files = {f: h for f, h in sorted(_digests(tmp).items()) if before.get(f) != h}
                records.append({"name": name, "argv": argv, "exit": code,
                                "stdout": out.getvalue(), "stderr": err.getvalue(),
                                "files": files})
        finally:
            os.chdir(cwd)
    return records


def test_cli_outputs_match_golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(r["name"], r["argv"]) for r in recorded] == [(n, a) for n, a in COMMANDS]
    for got, want in zip(run_all(), recorded):
        assert got == want, want["name"]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    names = set(sys.argv[1:])
    unknown = names - {n for n, _ in COMMANDS}
    if unknown:
        sys.exit(f"no such entries: {', '.join(sorted(unknown))}")
    old = {}
    if GOLDEN.exists():
        old = {r["name"]: r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    new = [r if r["name"] in names else old.get(r["name"], r) for r in run_all()]
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
