"""Batch experiment runner.

One verb per construction family: enumerate, color, search, verify,
decode, reduce.  Runs are deterministic given the same flags and seed;
reports embed the resolved configuration so they are self-describing.
Exit codes: 0 success, 2 configuration error, 3 verification failure,
1 other I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
import zlib
from typing import Optional

from .colorings import (
    ExactColoring,
    NotMinHomogeneous,
    RegressiveColoring,
    comega_coloring,
    dh_coloring,
    km_dh_coloring,
    km_to_rt,
    rt_via_km,
)
from .decoders import DEFAULT_TRUTH_CUTOFF, m_decode
from .largesets import FinSet, enumerate_exactly_large
from .machines import EMPTY, ExplicitOracle, load_program_universe
from .ramsey import (
    SearchBudget,
    Witness,
    exact_homog_search,
    iterate_rtomega,
    load_witness,
    min_homog_search,
    verify_exact_homogeneous,
    verify_min_homogeneous,
)

OK, CONFIG_ERROR, VERIFY_FAILURE, IO_ERROR = 0, 2, 3, 1


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# spec parsing

def parse_universe(spec: str) -> FinSet:
    s = spec.strip()
    if s.startswith("{"):
        return FinSet.parse(s)
    if s.startswith("explicit:"):
        return FinSet.parse(s.split(":", 1)[1])
    try:
        kind, rng = s.split(":", 1)
        lo_s, hi_s = rng.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(f"malformed universe: {spec!r}")
    if kind == "interval":
        return FinSet(range(lo, hi + 1))
    if kind == "evens":
        start = lo if lo % 2 == 0 else lo + 1
        return FinSet(range(start, hi + 1, 2))
    raise ConfigError(f"unknown universe kind: {kind!r}")


def parse_oracle(spec: Optional[str]):
    if spec is None or spec.strip() in ("", "empty"):
        return EMPTY
    s = spec.strip()
    if s.startswith("{"):
        return ExplicitOracle(FinSet.parse(s).elems)
    if s.startswith("explicit:"):
        return ExplicitOracle(FinSet.parse(s.split(":", 1)[1]).elems)
    raise ConfigError(f"unknown oracle: {spec!r}")


def _hash_color(seed: int, elems: tuple) -> int:
    data = (str(seed) + ":" + ",".join(map(str, elems))).encode()
    return zlib.crc32(data) & 1


def parse_coloring(spec: str, oracle, seed: int = 0, programs=None) -> ExactColoring:
    s = spec.strip()
    if s == "parity-of-min":
        return ExactColoring(lambda t: t.min() % 2, name=s)
    if s == "parity-of-sum":
        return ExactColoring(lambda t: sum(t.elems) % 2, name=s)
    if s.startswith("sum-mod:"):
        m = int(s.split(":", 1)[1])
        if m < 2:
            raise ConfigError("sum-mod modulus must be at least 2")
        return ExactColoring(lambda t: sum(t.elems) % m, palette=m, name=s)
    if s.startswith("constant:"):
        k = int(s.split(":", 1)[1])
        return ExactColoring(lambda t: k, palette=k + 1, name=s)
    if s == "random" or s.startswith("random:"):
        sd = int(s.split(":", 1)[1]) if ":" in s else seed
        return ExactColoring(lambda t: _hash_color(sd, t.elems), name=f"random:{sd}")
    if s == "dh":
        return dh_coloring(oracle, programs)
    if s == "km-dh":
        return km_dh_coloring(oracle, programs)
    if s == "comega":
        return comega_coloring(oracle)
    if s == "min-minus-one":
        return RegressiveColoring(lambda t: max(t.min() - 1, 0), name=s)
    if s == "second-mod-min":
        return RegressiveColoring(
            lambda t: t.elems[1] % t.min() if t.min() > 0 else 0, name=s
        )
    raise ConfigError(f"unknown coloring: {spec!r}")


# ---------------------------------------------------------------------------
# output helpers

def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _resolved(args, keys) -> dict:
    return {k: getattr(args, k.replace("-", "_"), None) for k in keys}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_enumerate(args) -> int:
    universe = parse_universe(args.universe)
    rows = []
    count = 0
    for s in enumerate_exactly_large(universe):
        count += 1
        if args.out:
            rows.append([s.render()])
    if args.out:
        _write_csv(args.out, ["set"], rows)
    print(f"exactly-large subsets of {universe.render()}: {count}")
    return OK


def _cmd_color(args) -> int:
    oracle = parse_oracle(args.oracle)
    programs = _load_programs(args.programs)
    coloring = parse_coloring(args.coloring, oracle, args.seed, programs)
    universe = parse_universe(args.universe)
    rows = []
    for i, s in enumerate(enumerate_exactly_large(universe)):
        if args.limit is not None and i >= args.limit:
            break
        rows.append([s.render(), coloring(s)])
    if args.out:
        _write_csv(args.out, ["set", "color"], rows)
    else:
        for r in rows:
            print(f"{r[0]},{r[1]}")
    return OK


def _load_programs(path):
    if not path:
        return None
    return [p.index for p in load_program_universe(path)]


def _witness_payload(w: Witness, args, extra_keys) -> dict:
    payload = w.to_dict()
    payload["config"] = _resolved(args, extra_keys)
    return payload


_SEARCH_KEYS = ["mode", "coloring", "oracle", "universe", "k", "start",
                "max_candidates", "max_universe", "seed", "programs"]


def _reject_unread(args, *dests) -> None:
    # A flag the chosen mode never reads would be recorded in the witness
    # as if it had shaped the search.
    for dest in dests:
        if dest in args.given:
            flag = dest.replace("_", "-")
            raise ConfigError(f"--{flag} has no effect in {args.mode} mode")


def _cmd_search(args) -> int:
    oracle = parse_oracle(args.oracle)
    programs = _load_programs(args.programs)
    coloring = parse_coloring(args.coloring, oracle, args.seed, programs)
    universe = parse_universe(args.universe)
    budget = SearchBudget(
        max_universe=args.max_universe, max_candidates=args.max_candidates
    )
    if args.mode == "chain":
        _reject_unread(args, "k")
        start = None if args.start in (None, "min") else int(args.start)
        if start is not None and start not in universe:
            raise ConfigError(f"--start {start} is not an element of --universe "
                              f"{args.universe}")
        witness = iterate_rtomega(coloring, universe, budget, start)
    elif args.mode in ("homogeneous", "min-homogeneous"):
        _reject_unread(args, "max_candidates", "max_universe", "start")
        search = exact_homog_search if args.mode == "homogeneous" else min_homog_search
        result = search(coloring, universe, args.k)
        if result.witness is None:
            print(f"no {args.mode} subset of size {args.k} "
                  f"(exhausted {result.examined} candidates)")
            return VERIFY_FAILURE
        witness = result.witness
    else:
        raise ConfigError(f"unknown mode: {args.mode!r}")

    payload = _witness_payload(witness, args, _SEARCH_KEYS)
    if args.out_witness:
        _write_json(args.out_witness, payload)
    if args.out_report:
        rows = [[witness.kind, witness.set.render(), witness.color,
                 int(witness.verified)]]
        _write_csv(args.out_report, ["kind", "set", "color", "verified"], rows)
    print(f"{witness.kind} witness {witness.set.render()} "
          f"color={witness.color} verified={witness.verified}")
    return OK


_REPLAYED_KEYS = ("coloring", "seed", "oracle", "programs")


def _cmd_verify(args) -> int:
    with open(args.witness, encoding="utf-8") as fh:
        data = json.load(fh)
    witness = Witness.from_dict(data)
    # Witness files emitted by `search` are self-describing: what this
    # run does not set itself is replayed from the recorded config.
    recorded = data.get("config") or {}
    if not isinstance(recorded, dict):
        raise ConfigError("the witness's config is not a JSON object")
    for key in _REPLAYED_KEYS:
        if key not in args.given and key in recorded:
            setattr(args, key, recorded[key])
    if args.coloring is None:
        raise ConfigError("no coloring given and none recorded in the witness")
    oracle = parse_oracle(args.oracle)
    programs = _load_programs(args.programs)
    coloring = parse_coloring(args.coloring, oracle, args.seed, programs)
    verify = (verify_min_homogeneous if witness.kind == "min-homogeneous"
              else verify_exact_homogeneous)
    report = verify(witness.set, coloring)
    if args.out:
        _write_json(args.out, report.to_dict())
    status = "pass" if report.passed else "fail"
    print(f"verify {witness.kind} {witness.set.render()}: {status} "
          f"({report.checked} subsets)")
    return OK if report.passed else VERIFY_FAILURE


def _cmd_decode(args) -> int:
    witness = load_witness(args.witness)
    oracle = parse_oracle(args.oracle)
    cutoff = DEFAULT_TRUTH_CUTOFF if args.truth_cutoff is None else args.truth_cutoff
    if cutoff <= 0:
        raise ConfigError(f"--truth-cutoff must be positive, got {cutoff}")
    rows = []
    header = ["level", "element", "answer", "truth", "consistent", "tuple", "note"]
    for q in args.query:
        try:
            i_s, j_s = q.split(",")
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise ConfigError(f"bad query (want i,j): {q!r}")
        verdict = m_decode(i, j, witness.set, oracle, truth_cutoff=cutoff)
        row = verdict.row()
        rows.append([row[h] for h in header])
    if args.out:
        _write_csv(args.out, header, rows)
    for r in rows:
        print(",".join(str(v) for v in r))
    return OK


def _cmd_reduce(args) -> int:
    oracle = parse_oracle(args.oracle)
    programs = _load_programs(args.programs)
    coloring = parse_coloring(args.coloring, oracle, args.seed, programs)
    witness = load_witness(args.witness)
    if args.direction == "km-to-rt":
        reduction = km_to_rt(coloring)
        report = verify_exact_homogeneous(witness.set, reduction.coloring)
        if not report.passed:
            print("input witness is not homogeneous for the derived two-coloring")
            return VERIFY_FAILURE
        shifted = reduction.transform(witness.set)
        out_report = verify_min_homogeneous(shifted, coloring)
        out = Witness(
            shifted, "min-homogeneous", per_min_colors=out_report.per_min,
            verified=out_report.passed,
            budget_used={"direction": "km-to-rt", "source": list(witness.set.elems)},
        )
    elif args.direction == "rt-via-km":
        try:
            thinned = rt_via_km(coloring, witness.set)
        except NotMinHomogeneous as exc:
            print(f"input witness is {exc}")
            return VERIFY_FAILURE
        out_report = verify_exact_homogeneous(thinned, coloring)
        out = Witness(
            thinned, "homogeneous", color=out_report.color,
            verified=out_report.passed,
            budget_used={"direction": "rt-via-km", "source": list(witness.set.elems)},
        )
    else:
        raise ConfigError(f"unknown direction: {args.direction!r}")
    if args.out_witness:
        _write_json(args.out_witness, _witness_payload(out, args,
                    ["direction", "coloring", "oracle"]))
    print(f"{out.kind} witness {out.set.render()} verified={out.verified}")
    return OK if out.verified else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI file; [experiment] keys supply defaults")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", default=None, help="empty (default) or {a,b,c}")
    p.add_argument("--programs", default=None,
                   help="program-universe file restricting jump contributors")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            raise ConfigError(f"missing required option --{name}")


def build_parser() -> argparse.ArgumentParser:
    # Required-ness is validated after config-file merging, so every
    # option is optional at the argparse level.
    parser = argparse.ArgumentParser(
        prog="xlramsey",
        description="experiments on colorings of exactly large sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream exactly large subsets")
    p.add_argument("--universe")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(fn=_cmd_enumerate, required=("universe",))

    p = sub.add_parser("color", help="trace a coloring over a universe")
    p.add_argument("--coloring")
    p.add_argument("--universe")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(fn=_cmd_color, required=("coloring", "universe"))

    p = sub.add_parser("search", help="find witnesses")
    p.add_argument("--mode", default="chain",
                   choices=["chain", "homogeneous", "min-homogeneous"])
    p.add_argument("--coloring")
    p.add_argument("--universe")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--start", default=None,
                   help="chain start: 'min' (default) or a number")
    p.add_argument("--max-candidates", type=int, default=1_000_000)
    p.add_argument("--max-universe", type=int, default=128)
    p.add_argument("--out-witness")
    p.add_argument("--out-report")
    _add_common(p)
    p.set_defaults(fn=_cmd_search, required=("coloring", "universe"))

    p = sub.add_parser("verify", help="re-verify a witness file")
    p.add_argument("--witness")
    p.add_argument("--coloring", default=None)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify, required=("witness",))

    p = sub.add_parser("decode", help="read jump membership off a witness")
    p.add_argument("--witness")
    p.add_argument("--query", action="append",
                   help="i,j pairs; repeatable")
    p.add_argument("--truth-cutoff", type=int, default=None)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(fn=_cmd_decode, required=("witness", "query"))

    p = sub.add_parser("reduce", help="translate witnesses between principles")
    p.add_argument("--direction",
                   choices=["km-to-rt", "rt-via-km"])
    p.add_argument("--coloring")
    p.add_argument("--witness")
    p.add_argument("--out-witness")
    _add_common(p)
    p.set_defaults(fn=_cmd_reduce, required=("direction", "coloring", "witness"))

    # Config-file values are typed like the command line's; only option
    # destinations may be set from a config file.
    for cmd in sub.choices.values():
        cmd.set_defaults(option_actions={a.dest: a for a in cmd._actions})
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill options not given on the command line from the config file's
    [experiment] section.  An append option takes one item per nonempty
    line.  Every option set here joins ``args.given``."""
    if not getattr(args, "config", None):
        return
    cp = configparser.ConfigParser()
    loaded = cp.read(args.config)
    if not loaded:
        raise ConfigError(f"cannot read config file: {args.config}")
    if not cp.has_section("experiment"):
        raise ConfigError("config file needs an [experiment] section")
    for key, value in cp.items("experiment"):
        attr = key.replace("-", "_")
        action = args.option_actions.get(attr)
        if action is None or attr in args.given:
            continue
        appends = isinstance(action, argparse._AppendAction)
        items = [v.strip() for v in value.splitlines() if v.strip()] if appends else [value]
        if action.type is not None:
            try:
                items = [action.type(v) for v in items]
            except ValueError:
                raise ConfigError(f"bad value for {key} in config: {value!r}")
        setattr(args, attr, items if appends else items[0])
        args.given.add(attr)


def run_experiment(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # Options given on the command line, in any form argparse accepts
    # (abbreviated, --opt=value): a second parse with the verb's defaults
    # suppressed sets only those.  Config files and recorded witness
    # configs only fill in the rest.
    for action in args.option_actions.values():
        action.default = argparse.SUPPRESS
    args.given = set(vars(parser.parse_args(argv))) & set(args.option_actions)
    try:
        _apply_config(args)
        _require(args, *getattr(args, "required", ()))
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


def main() -> None:
    sys.exit(run_experiment())


if __name__ == "__main__":
    main()
