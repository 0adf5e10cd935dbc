"""Byte-for-byte golden outputs of the chain construction.

``golden_chain.json`` holds the stdout, the exit code and the written
witness file of each command in ``COMMANDS``, recorded from the CLI.
A speed-up of the chain path must leave all three unchanged.  To record
the file again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_chain.json")


def _chain(coloring, universe, *extra):
    return ["search", "--mode", "chain", "--coloring", coloring, *extra,
            "--universe", universe]


COMMANDS = [
    _chain("parity-of-min", "interval:2..16"),
    _chain("constant:2", "interval:2..16"),
    _chain("sum-mod:3", "interval:2..16"),
    _chain("random:7", "interval:2..16"),
    _chain("parity-of-sum", "interval:2..18"),
    _chain("comega", "interval:2..14"),
    _chain("dh", "evens:2..24", "--oracle", "empty"),
    _chain("km-dh", "evens:2..24"),
    # Chains whose universe --max-universe cuts.
    _chain("parity-of-min", "interval:2..20", "--max-universe", "10"),
    _chain("random:7", "interval:2..20", "--max-universe", "10"),
]


def run_command(argv):
    """Run one CLI command in a fresh directory; return its exit code,
    stdout and the text of the witness it wrote."""
    from xlramsey.cli import run_experiment

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.json")
        with contextlib.redirect_stdout(out):
            code = run_experiment([*argv, "--out-witness", path])
        with open(path, encoding="utf-8") as fh:
            witness = fh.read()
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "witness": witness}


def test_chain_outputs_match_golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == COMMANDS
    for want in recorded:
        assert run_command(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.write_text(json.dumps([run_command(a) for a in COMMANDS], indent=1) + "\n",
                      encoding="utf-8")
