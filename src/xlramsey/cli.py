"""Batch experiment runner.

One verb per construction family: enumerate, color, search, verify,
decode, reduce.  Runs are deterministic given the same flags and seed;
reports embed the resolved configuration so they are self-describing.
Exit codes: 0 success, 2 configuration error, 3 verification failure,
1 other I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from itertools import islice
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
from .largesets import FinSet, count_exactly_large, enumerate_exactly_large
from .machines import EMPTY, ExplicitOracle, load_program_universe
from .ramsey import (
    DEFAULT_BUDGET,
    SearchBudget,
    Witness,
    exact_homog_search,
    iterate_rtomega,
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

def _parse_set(flag: str, spec: str) -> FinSet:
    """The set literal of a ``{...}`` or ``explicit:{...}`` spec given to
    ``--flag``; a bad literal fails with a message naming both."""
    s = spec.strip()
    try:
        return FinSet.parse(s.split(":", 1)[1] if s.startswith("explicit:") else s)
    except ValueError as exc:
        raise ConfigError(f"--{flag} {spec!r}: {exc}") from None


def parse_universe(spec: str) -> FinSet:
    s = spec.strip()
    if s.startswith(("{", "explicit:")):
        return _parse_set("universe", spec)
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
    if spec.strip().startswith(("{", "explicit:")):
        return ExplicitOracle(_parse_set("oracle", spec).elems)
    raise ConfigError(f"unknown oracle: {spec!r}")


def _hash_color(seed: int, elems: tuple) -> int:
    data = (str(seed) + ":" + ",".join(map(str, elems))).encode()
    return zlib.crc32(data) & 1


def parse_coloring(spec: str, oracle, seed: int = 0, programs=None) -> ExactColoring:
    s = spec.strip()

    def number() -> int:
        try:
            return int(s.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"malformed coloring: {spec!r}") from None

    if s == "parity-of-min":
        return ExactColoring(lambda t: t.min() % 2, name=s)
    if s == "parity-of-sum":
        return ExactColoring(lambda t: sum(t.elems) % 2, name=s)
    if s.startswith("sum-mod:"):
        m = number()
        if m < 2:
            raise ConfigError("sum-mod modulus must be at least 2")
        return ExactColoring(lambda t: sum(t.elems) % m, palette=m, name=s)
    if s.startswith("constant:"):
        k = number()
        if k < 0:
            raise ConfigError("constant color must be non-negative")
        return ExactColoring(lambda t: k, palette=k + 1, name=s)
    if s == "random" or s.startswith("random:"):
        sd = number() if ":" in s else seed
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


def _write_csv(path, header: list, rows) -> None:
    import csv  # only verbs that write a CSV pay for the import

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_enumerate(args) -> int:
    universe = parse_universe(args.universe)
    if args.out:
        _write_csv(args.out, ["set"], ([s.render()] for s in enumerate_exactly_large(universe)))
    print(f"exactly-large subsets of {universe.render()}: {count_exactly_large(universe)}")
    return OK


def _cmd_color(args) -> int:
    coloring = _coloring(args)
    universe = parse_universe(args.universe)
    sets = enumerate_exactly_large(universe)
    if args.limit is not None:
        sets = islice(sets, max(args.limit, 0))
    # Rows are made as they are written, as enumerate's are.
    rows = ([s.render(), coloring(s)] for s in sets)
    if args.out:
        _write_csv(args.out, ["set", "color"], rows)
    else:
        for r in rows:
            print(f"{r[0]},{r[1]}")
    return OK


def _coloring(args) -> ExactColoring:
    oracle = parse_oracle(args.oracle)
    programs = ([p.index for p in load_program_universe(args.programs)]
                if args.programs else None)
    return parse_coloring(args.coloring, oracle, args.seed, programs)


# Options that name the files a run reads or writes.  A witness records
# every other option of the verb that wrote it.
_UNRECORDED = {"out_witness", "out_report", "config", "witness"}


def _witness_payload(w: Witness, args) -> dict:
    payload = w.to_dict()
    payload["config"] = {dest: getattr(args, dest) for dest in _options(args.command)
                         if dest not in _UNRECORDED}
    return payload


def _reject_unread(args, *dests) -> None:
    # A flag the chosen mode never reads would be recorded in the witness
    # as if it had shaped the search.
    for dest in dests:
        if dest in args.given:
            flag = dest.replace("_", "-")
            raise ConfigError(f"--{flag} has no effect in {args.mode} mode")


def _cmd_search(args) -> int:
    coloring = _coloring(args)
    universe = parse_universe(args.universe)
    budget = SearchBudget(
        max_universe=args.max_universe, max_candidates=args.max_candidates
    )
    if args.mode == "chain":
        _reject_unread(args, "k")
        start = None
        if args.start not in (None, "min"):
            try:
                start = int(args.start)
            except ValueError:
                raise ConfigError(f"--start takes 'min' or a universe element, "
                                  f"got {args.start!r}")
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

    if args.out_witness:
        _write_json(args.out_witness, _witness_payload(witness, args))
    if args.out_report:
        rows = [[witness.kind, witness.set.render(), witness.color,
                 int(witness.verified)]]
        _write_csv(args.out_report, ["kind", "set", "color", "verified"], rows)
    print(f"{witness.kind} witness {witness.set.render()} "
          f"color={witness.color} verified={witness.verified}")
    return OK


# Recorded config keys a witness replays, with the type each must have.
_REPLAYED_KEYS = {"coloring": str, "seed": int, "oracle": str, "programs": str}


def _replay_witness(args) -> None:
    """Read the witness file of a verb that takes ``--witness`` once, into
    ``args.source``.  The witnesses `search` and `reduce` write are
    self-describing: what this run does not set itself is replayed from
    the recorded config."""
    if not getattr(args, "witness", None):
        return  # _require names the missing flag
    with open(args.witness, encoding="utf-8") as fh:
        data = json.load(fh)
    args.source = Witness.from_dict(data)
    recorded = data.get("config") or {}
    if not isinstance(recorded, dict):
        raise ConfigError("the witness's config is not a JSON object")
    for key, kind in _REPLAYED_KEYS.items():
        if key in args.given or key not in recorded:
            continue
        value = recorded[key]
        if value is not None and not isinstance(value, kind):
            raise ConfigError(f"the witness's recorded {key} is not a "
                              f"{kind.__name__}: {value!r}")
        setattr(args, key, value)


def _cmd_verify(args) -> int:
    witness = args.source
    if args.coloring is None:
        raise ConfigError("no coloring given and none recorded in the witness")
    coloring = _coloring(args)
    verify = (verify_min_homogeneous if witness.kind == "min-homogeneous"
              else verify_exact_homogeneous)
    report = verify(witness.set, coloring)
    false_claim = _false_claim(witness, report) if report.passed else None
    if false_claim:
        report = report._replace(passed=False)
    if args.out:
        _write_json(args.out, report.to_dict())
    status = "pass" if report.passed else "fail"
    print(f"verify {witness.kind} {witness.set.render()}: {status} "
          f"({report.checked} subsets)" + (f": {false_claim}" if false_claim else ""))
    return OK if report.passed else VERIFY_FAILURE


def _false_claim(witness: Witness, report) -> Optional[str]:
    """The first color claim of a witness that its set, verified in
    ``report``, contradicts, or None.  A min-homogeneous witness claims
    the color of every minimum that starts an exactly large subset of the
    set; any other witness claims the set's color, and each of its
    per-min entries at such a minimum claims it too."""
    if witness.kind == "min-homogeneous":
        claimed = witness.per_min_colors or {}
        for m, v in sorted(report.per_min.items()):
            if claimed.get(m) != v:
                return (f"witness field 'per_min' gives minimum {m} color {claimed.get(m)}, "
                        f"the set gives it {v}")
        return None
    if report.color is None:  # no exactly large subset decides a color
        return None
    if witness.color != report.color:
        return f"witness field 'color' is {witness.color}, the set's color is {report.color}"
    elems, claimed = witness.set.elems, witness.per_min_colors or {}
    for i, m in enumerate(elems):
        if m <= len(elems) - i - 1 and claimed.get(m, report.color) != report.color:
            return (f"witness field 'per_min' gives minimum {m} color {claimed[m]}, "
                    f"the set's color is {report.color}")
    return None


def _cmd_decode(args) -> int:
    # m_decode reads comega tuples; a witness that records no coloring
    # is taken to be one.
    recorded = getattr(args, "coloring", None)
    if recorded is not None and recorded.strip() != "comega":
        raise ConfigError(f"no decoder for {recorded} witnesses")
    witness = args.source
    oracle = parse_oracle(args.oracle)
    if args.truth_cutoff <= 0:
        raise ConfigError(f"--truth-cutoff must be positive, got {args.truth_cutoff}")
    rows = []
    header = ["level", "element", "answer", "truth", "consistent", "tuple", "note"]
    for q in args.query:
        try:
            i, j = map(int, q.split(","))
        except ValueError:
            i = j = -1
        if i < 0 or j < 0:
            raise ConfigError(f"bad query (want i,j): {q!r}")
        verdict = m_decode(i, j, witness.set, oracle, truth_cutoff=args.truth_cutoff)
        row = verdict.row()
        rows.append([row[h] for h in header])
    if args.out:
        _write_csv(args.out, header, rows)
    for r in rows:
        print(",".join(str(v) for v in r))
    return OK


def _cmd_reduce(args) -> int:
    coloring = _coloring(args)
    witness = args.source
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
        _write_json(args.out_witness, _witness_payload(out, args))
    print(f"{out.kind} witness {out.set.render()} verified={out.verified}")
    return OK if out.verified else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# argument plumbing

# Per verb: its help line, the function that runs it, the options it
# requires, and its own options, which come before the common ones.
_VERBS = {
    "enumerate": ("stream exactly large subsets", _cmd_enumerate, ("universe",), (
        ("--universe", {}), ("--out", {}))),
    "color": ("trace a coloring over a universe", _cmd_color, ("coloring", "universe"), (
        ("--coloring", {}), ("--universe", {}), ("--limit", {"type": int}), ("--out", {}))),
    "search": ("find witnesses", _cmd_search, ("coloring", "universe"), (
        ("--mode", {"choices": ["chain", "homogeneous", "min-homogeneous"]}),
        ("--coloring", {}), ("--universe", {}), ("--k", {"type": int}),
        ("--start", {"help": "chain start: 'min' (default) or a number"}),
        ("--max-candidates", {"type": int}), ("--max-universe", {"type": int}),
        ("--out-witness", {}), ("--out-report", {}))),
    "verify": ("re-verify a witness file", _cmd_verify, ("witness",), (
        ("--witness", {}), ("--coloring", {}), ("--out", {}))),
    "decode": ("read jump membership off a witness", _cmd_decode, ("witness", "query"), (
        ("--witness", {}),
        ("--query", {"action": "append", "help": "i,j pairs; repeatable"}),
        ("--truth-cutoff", {"type": int}), ("--out", {}))),
    "reduce": ("translate witnesses between principles", _cmd_reduce,
               ("direction", "coloring", "witness"), (
        ("--direction", {"choices": ["km-to-rt", "rt-via-km"]}),
        ("--coloring", {}), ("--witness", {}), ("--out-witness", {}))),
}

_COMMON_OPTIONS = (
    ("--config", {"help": "INI file; [experiment] keys supply defaults"}),
    ("--seed", {"type": int}),
    ("--oracle", {"help": "empty (default) or {a,b,c}"}),
    ("--programs", {"help": "program-universe file restricting jump contributors"}),
)

# The value of an option that neither the command line, the config file
# nor the witness's recorded config sets; any other option takes None.
_DEFAULTS = {"mode": "chain", "k": 4, "seed": 0, "truth_cutoff": DEFAULT_TRUTH_CUTOFF,
             "max_candidates": DEFAULT_BUDGET.max_candidates,
             "max_universe": DEFAULT_BUDGET.max_universe}


def _options(verb: str) -> dict:
    """The verb's options by destination, each with its ``add_argument``
    keywords."""
    return {flag[2:].replace("-", "_"): kwargs
            for flag, kwargs in _VERBS[verb][3] + _COMMON_OPTIONS}


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) in (None, ""):
            raise ConfigError(f"missing required option --{name}")


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Given a verb, it holds that verb's subparser
    alone and reads as the full parser does: usage lines and errors are
    the same.  Without one, or for a name that is no verb, it holds all
    six, for the top-level help and errors."""
    parser = argparse.ArgumentParser(
        prog="xlramsey",
        description="experiments on colorings of exactly large sets",
    )
    single = verb in _VERBS
    # A single verb's usage line names all six verbs, as the full
    # parser's does.  Not on the full parser: there a metavar would also
    # rename ``command`` in the "required" and "invalid choice" errors.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_VERBS) + "}" if single else None)
    for name in [verb] if single else _VERBS:
        help_line, _, _, options = _VERBS[name]
        # The parse sets only the options given on the command line;
        # run_experiment fills in the rest and checks required ones.
        p = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        for flag, kwargs in options + _COMMON_OPTIONS:
            p.add_argument(flag, **kwargs)
    return parser


def _apply_config(args: argparse.Namespace, options: dict) -> None:
    """Fill options not given on the command line from the config file's
    [experiment] section, typed as the verb table types them.  An append
    option takes one item per nonempty line.  Every option set here joins
    ``args.given``."""
    if not getattr(args, "config", None):
        return
    import configparser  # only runs given --config pay for the import

    cp = configparser.ConfigParser()
    loaded = cp.read(args.config)
    if not loaded:
        raise ConfigError(f"cannot read config file: {args.config}")
    if not cp.has_section("experiment"):
        raise ConfigError("config file needs an [experiment] section")
    for key, value in cp.items("experiment"):
        attr = key.replace("-", "_")
        spec = options.get(attr)
        if spec is None or attr in args.given:
            continue
        appends = spec.get("action") == "append"
        items = [v.strip() for v in value.splitlines() if v.strip()] if appends else [value]
        if "type" in spec:
            try:
                items = [spec["type"](v) for v in items]
            except ValueError:
                raise ConfigError(f"bad value for {key} in config: {value!r}")
        setattr(args, attr, items if appends else items[0])
        args.given.add(attr)


def run_experiment(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A fresh parser per call, for the invoked verb only.  Its one parse
    # sets the options given on the command line, in any form argparse
    # accepts (abbreviated, --opt=value).  Config files and recorded
    # witness configs only fill in the rest, then the defaults.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, fn, required, _ = _VERBS[args.command]
    options = _options(args.command)
    args.given = set(vars(args)) & options.keys()
    try:
        _apply_config(args, options)
        _replay_witness(args)
        for dest in options.keys() - vars(args).keys():
            setattr(args, dest, _DEFAULTS.get(dest))
        _require(args, *required)
        return fn(args)
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
