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


# The smoke-size operations of the four perfbench workloads at seed 1,
# written out: search-exhaustive draws random:2 and random:1.
_GRID = [arg for i in (1, 2, 3) for j in range(8) for arg in ("--query", f"{i},{j}")]
BENCH = [
    ("bench-constant-search", ["search", "--mode", "chain", "--coloring", "parity-of-min",
                               "--universe", "interval:2..16", "--out-witness", "w.json"]),
    ("bench-constant-verify", ["verify", "--witness", "w.json", "--coloring", "parity-of-min"]),
    ("bench-dh-search", ["search", "--mode", "chain", "--coloring", "dh", "--oracle", "empty",
                         "--universe", "evens:2..24", "--out-witness", "w.json"]),
    ("bench-dh-verify", ["verify", "--witness", "w.json", "--coloring", "dh",
                         "--oracle", "empty"]),
    ("bench-comega-search", ["search", "--mode", "chain", "--coloring", "comega",
                             "--universe", "interval:2..14", "--out-witness", "w.json"]),
    ("bench-comega-verify", ["verify", "--witness", "w.json", "--coloring", "comega"]),
    ("bench-comega-decode", ["decode", "--witness", "w.json", "--truth-cutoff", "1000000",
                             "--out", "verdicts.csv", *_GRID]),
    ("bench-exhaustive-homogeneous-2", ["search", "--mode", "homogeneous",
                                        "--coloring", "random:2", "--universe", "interval:3..16",
                                        "--k", "6", "--out-witness", "h2.json"]),
    ("bench-exhaustive-verify-h2", ["verify", "--witness", "h2.json", "--coloring", "random:2"]),
    ("bench-exhaustive-min-homogeneous-2", ["search", "--mode", "min-homogeneous",
                                            "--coloring", "random:2",
                                            "--universe", "interval:3..16", "--k", "6",
                                            "--out-witness", "m2.json"]),
    ("bench-exhaustive-verify-m2", ["verify", "--witness", "m2.json", "--coloring", "random:2"]),
    ("bench-exhaustive-reduce-2", ["reduce", "--direction", "rt-via-km", "--coloring", "random:2",
                                   "--witness", "m2.json", "--out-witness", "r2.json"]),
    ("bench-exhaustive-verify-r2", ["verify", "--witness", "r2.json", "--coloring", "random:2"]),
    ("bench-exhaustive-homogeneous-1", ["search", "--mode", "homogeneous",
                                        "--coloring", "random:1", "--universe", "interval:3..16",
                                        "--k", "6", "--out-witness", "h1.json"]),
    ("bench-exhaustive-verify-h1", ["verify", "--witness", "h1.json", "--coloring", "random:1"]),
    ("bench-exhaustive-min-homogeneous-1", ["search", "--mode", "min-homogeneous",
                                            "--coloring", "random:1",
                                            "--universe", "interval:3..16", "--k", "6",
                                            "--out-witness", "m1.json"]),
    ("bench-exhaustive-verify-m1", ["verify", "--witness", "m1.json", "--coloring", "random:1"]),
    ("bench-exhaustive-reduce-1", ["reduce", "--direction", "rt-via-km", "--coloring", "random:1",
                                   "--witness", "m1.json", "--out-witness", "r1.json"]),
    ("bench-exhaustive-verify-r1", ["verify", "--witness", "r1.json", "--coloring", "random:1"]),
]

# Configuration errors: a universe spec above the element cap, refused
# before it is built, and budget bounds that are out of range or unread.
ERRORS = [
    ("universe-above-cap", ["search", "--mode", "chain", "--coloring", "parity-of-min",
                            "--universe", "interval:2..99999999999"]),
    ("enumerate-universe-above-cap", ["enumerate", "--universe", "evens:2..99999999999"]),
    ("chain-max-universe-zero", ["search", "--coloring", "parity-of-min",
                                 "--universe", "interval:2..12", "--max-universe", "0"]),
    ("homogeneous-max-candidates-zero", ["search", "--mode", "homogeneous",
                                         "--coloring", "parity-of-min",
                                         "--universe", "interval:2..12",
                                         "--max-candidates", "0"]),
]

# Round trips: km-to-rt on a regressive chain witness and on the
# README's min-homogeneous witness, and decode on a dh chain witness;
# verify reads each witness written here.
ROUND_TRIPS = [
    ("roundtrip-chain-min-minus-one", ["search", "--mode", "chain", "--coloring",
                                       "min-minus-one", "--universe", "interval:2..14",
                                       "--out-witness", "mmo.json"]),
    ("roundtrip-verify-chain-min-minus-one", ["verify", "--witness", "mmo.json"]),
    ("roundtrip-reduce-km-to-rt-chain", ["reduce", "--direction", "km-to-rt",
                                         "--witness", "mmo.json", "--out-witness", "mmo-rt.json"]),
    ("roundtrip-verify-km-to-rt-chain", ["verify", "--witness", "mmo-rt.json"]),
    ("roundtrip-reduce-km-to-rt-mh", ["reduce", "--direction", "km-to-rt",
                                      "--witness", "mh.json", "--out-witness", "mh-rt.json"]),
    ("roundtrip-verify-km-to-rt-mh", ["verify", "--witness", "mh-rt.json"]),
    ("roundtrip-chain-dh", ["search", "--mode", "chain", "--coloring", "dh",
                            "--universe", "evens:2..24", "--out-witness", "dhw.json"]),
    ("roundtrip-verify-chain-dh", ["verify", "--witness", "dhw.json"]),
    ("roundtrip-decode-dh", ["decode", "--witness", "dhw.json", "--query", "0,1"]),
]

# enumerate refuses, before counting, a universe above its count cap.
COUNT_CAP = [
    ("enumerate-above-count-cap", ["enumerate", "--universe", "interval:2..21500"]),
]

# reduce --direction km-to-rt exits 3 on a witness that is not
# homogeneous for the derived two-coloring: {2,...,7} under second-mod-min.
KM_TO_RT_REFUSED = [
    ("km-to-rt-source", ["search", "--mode", "homogeneous", "--coloring", "constant:0",
                         "--universe", "interval:2..7", "--k", "6", "--out-witness", "k6.json"]),
    ("reduce-km-to-rt-not-homogeneous", ["reduce", "--direction", "km-to-rt",
                                         "--coloring", "second-mod-min", "--witness", "k6.json"]),
]

# enumerate --out and color without --limit refuse, before writing, a
# universe with more exactly large subsets than the row cap; color
# applies enumerate's element cap first.
ROW_CAP = [
    ("enumerate-out-above-row-cap", ["enumerate", "--universe", "interval:2..60",
                                     "--out", "big.csv"]),
    ("color-above-row-cap", ["color", "--coloring", "parity-of-min",
                             "--universe", "interval:2..60"]),
    ("color-out-above-row-cap", ["color", "--coloring", "parity-of-min",
                                 "--universe", "interval:2..60", "--out", "big.csv"]),
    ("color-above-count-cap", ["color", "--coloring", "parity-of-min",
                               "--universe", "interval:2..21500"]),
]

# comega chains whose universes hold entries on both sides of 46, the
# least querying index: their stages color sets that lie wholly below
# it and sets that reach past it.
CROSSING = [
    ("chain-comega-cross-8", ["search", "--mode", "chain", "--coloring", "comega",
                              "--universe", "{2,3,4,5,6,7,8,46,47,48,49,50,51,52,53}",
                              "--out-witness", "cross8.json"]),
    ("verify-chain-comega-cross-8", ["verify", "--witness", "cross8.json"]),
    ("chain-comega-cross-40", ["search", "--mode", "chain", "--coloring", "comega",
                               "--universe", "{2,3,4,5,40,41,42,43,44,45,46,47,48,49}",
                               "--out-witness", "cross40.json"]),
    ("verify-chain-comega-cross-40", ["verify", "--witness", "cross40.json"]),
]

COMMANDS = (README + OTHERS + [_chain(spec, m) for spec in SPECS for m in (1, 2, 5)] + BENCH
            + ERRORS + ROUND_TRIPS + COUNT_CAP + KM_TO_RT_REFUSED + ROW_CAP + CROSSING)


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
