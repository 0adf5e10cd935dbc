"""The benchmark's workloads: the CLI operations each one runs, and the
checks applied to their outputs.

Every workload is a closed loop with one client: its operations run back
to back through ``xlramsey.cli.run_experiment`` inside one fresh process.
Sizes come in two profiles, ``full`` for measurement and ``smoke`` for a
quick end-to-end check of the benchmark itself.
"""

from __future__ import annotations

import random

WORKLOADS = ("chain-constant", "chain-dh", "chain-comega", "search-exhaustive")

# Decode query grid of chain-comega: level i in {1,2,3}, element j in 0..7.
DECODE_GRID = tuple(f"{i},{j}" for i in (1, 2, 3) for j in range(8))
TRUTH_CUTOFF = "1000000"

# Full sizes keep one repetition at 2 to 4 s, so that a 30-second run
# holds several (README.md, "Workloads").
SIZES = {
    "full": {
        "chain-constant": "interval:2..26",
        "chain-dh": "evens:2..34",
        "chain-comega": "interval:2..21",
        # search-exhaustive: universe, k, reference pool size, seeds per run
        "search-exhaustive": ("interval:3..30", 7, 48, 4),
    },
    "smoke": {
        "chain-constant": "interval:2..16",
        "chain-dh": "evens:2..24",
        "chain-comega": "interval:2..14",
        "search-exhaustive": ("interval:3..16", 6, 8, 2),
    },
}

CHAIN_SPECS = {
    "chain-constant": ("parity-of-min", None),
    "chain-dh": ("dh", "empty"),
    "chain-comega": ("comega", None),
}

# Witness fields compared with the values recorded at the seed commit.
# File bytes and config keys are not compared, so a witness may gain
# fields without reading as a failure.
SEMANTIC_FIELDS = ("kind", "set", "color", "per_min", "verified")


def _op(label, argv, witness=None, csv=None, queries=0):
    return {"label": label, "argv": argv, "witness": witness, "csv": csv,
            "queries": queries}


def chain_ops(workload: str, size: str) -> list[dict]:
    coloring, oracle = CHAIN_SPECS[workload]
    universe = SIZES[size][workload]
    flags = ["--coloring", coloring] + (["--oracle", oracle] if oracle else [])
    ops = [
        _op("search", ["search", "--mode", "chain", *flags, "--universe", universe,
                       "--out-witness", "w.json"], witness="w.json"),
        _op("verify", ["verify", "--witness", "w.json", *flags]),
    ]
    if workload == "chain-comega":
        argv = ["decode", "--witness", "w.json", "--truth-cutoff", TRUTH_CUTOFF,
                "--out", "verdicts.csv"]
        for q in DECODE_GRID:
            argv += ["--query", q]
        ops.append(_op("decode", argv, csv="verdicts.csv", queries=len(DECODE_GRID)))
    return ops


def exhaustive_ops(coloring_seeds, size: str) -> list[dict]:
    universe, k, _, _ = SIZES[size]["search-exhaustive"]
    ops = []
    for s in coloring_seeds:
        col = ["--coloring", f"random:{s}"]
        h, m, r = f"h{s}.json", f"m{s}.json", f"r{s}.json"
        for mode, path in (("homogeneous", h), ("min-homogeneous", m)):
            ops.append(_op(f"{mode}:{s}", ["search", "--mode", mode, *col,
                                           "--universe", universe, "--k", str(k),
                                           "--out-witness", path], witness=path))
            ops.append(_op("verify", ["verify", "--witness", path, *col]))
        ops.append(_op(f"reduce:{s}", ["reduce", "--direction", "rt-via-km", *col,
                                       "--witness", m, "--out-witness", r], witness=r))
        ops.append(_op("verify", ["verify", "--witness", r, *col]))
    return ops


def exhaustive_seeds(seed: int, size: str, costs: dict) -> list[int]:
    """Coloring seeds for one run of search-exhaustive.

    Search cost per coloring is bimodal (about 20k or 100k candidates
    examined at full size), so a plain random draw of a few colorings
    would make run time depend on the draw more than on the program.
    The reference pool is split at the midpoint of its recorded costs,
    and the workload seed draws half the run's colorings from each side.
    """
    _, _, pool, per_run = SIZES[size]["search-exhaustive"]
    cost = [costs[str(s)] for s in range(pool)]
    mid = (min(cost) + max(cost)) / 2
    rng = random.Random(seed)
    cheap = [s for s in range(pool) if cost[s] <= mid]
    dear = [s for s in range(pool) if cost[s] > mid]
    return rng.sample(cheap, per_run // 2) + rng.sample(dear, per_run - per_run // 2)


def operations(workload: str, seed: int, size: str, expected: dict) -> list[dict]:
    if workload == "search-exhaustive":
        costs = expected[size][workload]["costs"]
        return exhaustive_ops(exhaustive_seeds(seed, size, costs), size)
    return chain_ops(workload, size)


def spec_strings(ops) -> dict:
    """Universe, oracle and coloring specs the operations will parse."""
    specs = {"universe": set(), "oracle": {"empty"}, "coloring": set()}
    for op in ops:
        argv = op["argv"]
        for flag, key in (("--universe", "universe"), ("--oracle", "oracle"),
                          ("--coloring", "coloring")):
            if flag in argv:
                specs[key].add(argv[argv.index(flag) + 1])
    return {k: sorted(v) for k, v in specs.items()}


def check(ops, results, reference: dict) -> tuple[int, int, list[str]]:
    """Score one run's operation results.

    Returns (attempted, failed, unexpected).  Each decode query counts as
    one operation.  An operation fails on a non-zero exit code, a witness
    that is missing, unverified or differs from the reference, or a
    decode verdict with consistent=0.  ``unexpected`` lists every failure
    other than a decode verdict already wrong at the seed commit.
    """
    known_wrong = set(reference.get("known_wrong", ()))
    witnesses = reference.get("witnesses", {})
    attempted = failed = 0
    unexpected = []
    for op, res in zip(ops, results):
        label = op["label"]
        if op["queries"]:
            attempted += op["queries"]
            if res["rc"] != 0 or len(res["rows"]) != op["queries"]:
                failed += op["queries"]
                unexpected.append(f"{label}: exit {res['rc']}")
                continue
            for row in res["rows"]:
                if row["consistent"] == "0":
                    failed += 1
                    q = f"{row['level']},{row['element']}"
                    if q not in known_wrong:
                        unexpected.append(f"{label} {q}: answer {row['answer']} "
                                          f"truth {row['truth']}")
            continue
        attempted += 1
        problem = None
        if res["rc"] != 0:
            problem = f"exit {res['rc']}"
        elif op["witness"]:
            got = res["witness"]
            want = witnesses.get(label)
            if got is None or not got["verified"]:
                problem = "no verified witness"
            elif want is not None and got != want:
                problem = f"witness {got} differs from reference {want}"
            elif want is None:
                problem = "no reference witness recorded"
        if problem:
            failed += 1
            unexpected.append(f"{label}: {problem}")
    return attempted, failed, unexpected
