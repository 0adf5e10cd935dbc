import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import xlramsey

import xlramsey.cli as cli
from xlramsey.cli import (
    CONFIG_ERROR,
    OK,
    ConfigError,
    VERIFY_FAILURE,
    build_parser,
    parse_coloring,
    parse_oracle,
    parse_universe,
    run_experiment,
)
from xlramsey.colorings import ExactColoring
from xlramsey.largesets import FinSet
from xlramsey.machines import EMPTY


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_parse_universe_kinds():
    assert parse_universe("interval:2..6") == FinSet([2, 3, 4, 5, 6])
    assert parse_universe("evens:2..10") == FinSet([2, 4, 6, 8, 10])
    assert parse_universe("evens:3..9") == FinSet([4, 6, 8])
    assert parse_universe("{1,5,9}") == FinSet([1, 5, 9])
    with pytest.raises(Exception):
        parse_universe("odds:1..9")


def test_parse_oracle_and_coloring():
    assert parse_oracle(None) is EMPTY
    assert parse_oracle("{3,5}").member(3)
    c = parse_coloring("parity-of-min", EMPTY)
    assert c(FinSet([3, 4, 5, 6])) == 1
    assert parse_coloring("random", EMPTY, seed=4).name == "random:4"
    assert parse_coloring("random:7", EMPTY).name == "random:7"
    for spec in ("nope", "randomly", "random-junk"):
        with pytest.raises(ConfigError, match="unknown coloring"):
            parse_coloring(spec, EMPTY)


def test_enumerate_command(tmp_path, capsys):
    out = tmp_path / "sets.csv"
    code = run_experiment([
        "enumerate", "--universe", "{2,3,4,5}", "--out", str(out),
    ])
    assert code == OK
    rows = read_csv(out)
    assert rows == [["set"], ["{2,3,4}"], ["{2,3,5}"], ["{2,4,5}"]]
    assert "3" in capsys.readouterr().out


def test_color_trace(tmp_path):
    out = tmp_path / "trace.csv"
    code = run_experiment([
        "color", "--coloring", "parity-of-min", "--universe", "interval:2..6",
        "--out", str(out),
    ])
    assert code == OK
    rows = read_csv(out)
    assert rows[0] == ["set", "color"]
    assert rows[1] == ["{2,3,4}", "0"]


def test_color_rows_reach_the_writer_lazily(monkeypatch):
    # When the writer has taken k rows, exactly k sets have been colored.
    colored, taken = [], []

    def counting_coloring(*args):
        return ExactColoring(lambda s: colored.append(s) or 0)

    def checking_write(path, header, rows):
        for row in rows:
            taken.append(row)
            assert len(colored) == len(taken)

    monkeypatch.setattr(cli, "parse_coloring", counting_coloring)
    monkeypatch.setattr(cli, "_write_csv", checking_write)
    argv = ["color", "--coloring", "x", "--universe", "interval:2..10", "--out", "t.csv"]
    assert run_experiment(argv) == OK
    assert len(taken) == len(colored) == 79
    del taken[:], colored[:]
    assert run_experiment(argv + ["--limit", "5"]) == OK
    assert len(taken) == len(colored) == 5


def test_color_stores_no_color(monkeypatch, capsys):
    # Each set is read once, so the coloring's memo stays empty.
    built = []

    def keeping(*args):
        built.append(parse_coloring(*args))
        return built[-1]

    monkeypatch.setattr(cli, "parse_coloring", keeping)
    argv = ["color", "--coloring", "parity-of-min", "--universe", "interval:2..8"]
    assert run_experiment(argv) == OK
    assert capsys.readouterr().out.splitlines()[:2] == ["{2,3,4},0", "{2,3,5},0"]
    assert len(built) == 1 and len(built[0]) == 0


@pytest.mark.parametrize("limit, lines", [("3", 3), ("0", 0), ("-2", 0)])
def test_color_limit(capsys, limit, lines):
    argv = ["color", "--coloring", "parity-of-min", "--universe", "interval:2..8",
            "--limit", limit]
    assert run_experiment(argv) == OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["{2,3,4},0", "{2,3,5},0", "{2,3,6},0"][:lines]


def test_search_chain_and_reverify(tmp_path):
    w = tmp_path / "w.json"
    r = tmp_path / "r.csv"
    code = run_experiment([
        "search", "--mode", "chain", "--coloring", "dh", "--oracle", "empty",
        "--universe", "evens:2..28",
        "--out-witness", str(w), "--out-report", str(r),
    ])
    assert code == OK
    payload = read_json(w)
    assert payload["kind"] == "chain" and payload["verified"]
    assert payload["config"]["coloring"] == "dh"
    code = run_experiment(["verify", "--witness", str(w)])
    assert code == OK


def test_search_min_homogeneous(tmp_path):
    w = tmp_path / "w.json"
    code = run_experiment([
        "search", "--mode", "min-homogeneous", "--coloring", "second-mod-min",
        "--universe", "interval:2..16", "--k", "5", "--out-witness", str(w),
    ])
    assert code == OK
    payload = read_json(w)
    assert payload["kind"] == "min-homogeneous" and payload["verified"]


def test_verify_failure_exit_code(tmp_path):
    w = tmp_path / "w.json"
    # a deliberately non-homogeneous witness for parity-of-min
    payload = {
        "schema": "xlramsey.witness/1", "kind": "homogeneous",
        "set": [2, 3, 4, 5, 6, 7], "color": 0, "per_min": None,
        "verified": True, "budget": {},
    }
    w.write_text(json.dumps(payload))
    code = run_experiment([
        "verify", "--witness", str(w), "--coloring", "parity-of-min",
    ])
    assert code == VERIFY_FAILURE


def test_config_error_exit_codes(tmp_path):
    code = run_experiment([
        "color", "--coloring", "nope", "--universe", "interval:2..6",
    ])
    assert code == CONFIG_ERROR
    code = run_experiment([
        "enumerate", "--universe", "odds:2..6",
    ])
    assert code == CONFIG_ERROR


def test_decode_writes_consistency_csv(tmp_path):
    w = tmp_path / "w.json"
    payload = {
        "schema": "xlramsey.witness/1", "kind": "homogeneous",
        "set": [2, 7000, 7500, 8000], "color": 1, "per_min": None,
        "verified": True, "budget": {},
    }
    w.write_text(json.dumps(payload))
    out = tmp_path / "verdicts.csv"
    code = run_experiment([
        "decode", "--witness", str(w), "--query", "1,1", "--query", "1,0",
        "--oracle", "{0,5}", "--out", str(out),
    ])
    assert code == OK
    rows = read_csv(out)
    assert rows[0][:5] == ["level", "element", "answer", "truth", "consistent"]
    assert rows[1][:5] == ["1", "1", "1", "1", "1"]
    assert rows[2][:5] == ["1", "0", "0", "0", "1"]


def test_reduce_roundtrip(tmp_path):
    w = tmp_path / "w.json"
    out = tmp_path / "out.json"
    # a homogeneous witness for the two-coloring derived from min-minus-one
    code = run_experiment([
        "search", "--mode", "min-homogeneous", "--coloring", "min-minus-one",
        "--universe", "interval:2..12", "--k", "5", "--out-witness", str(w),
    ])
    assert code == OK
    code = run_experiment([
        "reduce", "--direction", "rt-via-km", "--coloring", "parity-of-min",
        "--witness", str(w), "--out-witness", str(out),
    ])
    # parity-of-min is min-homogeneous on any set, so thinning verifies
    assert code == OK
    assert read_json(out)["verified"]


def test_reduce_km_to_rt(tmp_path):
    w = tmp_path / "w.json"
    out = tmp_path / "out.json"
    code = run_experiment([
        "search", "--mode", "homogeneous", "--coloring", "constant:0",
        "--universe", "interval:1..8", "--k", "4", "--out-witness", str(w),
    ])
    assert code == OK
    code = run_experiment([
        "reduce", "--direction", "km-to-rt", "--coloring", "min-minus-one",
        "--witness", str(w), "--out-witness", str(out),
    ])
    assert code == OK
    payload = read_json(out)
    assert payload["kind"] == "min-homogeneous" and payload["verified"]


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run_experiment([
            "search", "--mode", "chain", "--coloring", "random:7",
            "--universe", "interval:2..24", "--out-witness", str(path),
        ])
        assert code == OK
    assert a.read_bytes() == b.read_bytes()


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\nuniverse = interval:2..16\ncoloring = parity-of-min\n"
        "mode = chain\n"
    )
    w = tmp_path / "w.json"
    code = run_experiment([
        "search", "--coloring", "parity-of-min", "--config", str(cfg),
        "--out-witness", str(w),
    ])
    assert code == OK
    assert read_json(w)["config"]["universe"] == "interval:2..16"


def test_config_values_take_the_option_type(tmp_path):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "schema": "xlramsey.witness/1", "kind": "homogeneous",
        "set": [2, 7000, 7500, 8000], "color": 1, "per_min": None,
        "verified": True, "budget": {},
    }))
    cfg = tmp_path / "exp.ini"
    argv = ["decode", "--witness", str(w), "--query", "1,1",
            "--oracle", "{0,5}", "--config", str(cfg)]
    cfg.write_text("[experiment]\ntruth-cutoff = 1000\n")
    assert run_experiment(argv) == OK
    cfg.write_text("[experiment]\ntruth-cutoff = lots\n")
    assert run_experiment(argv) == CONFIG_ERROR
    # keys that name no option are ignored
    cfg.write_text("[experiment]\nfn = oops\n")
    assert run_experiment(argv) == OK


def test_module_runs_as_script():
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "xlramsey.cli", "enumerate", "--universe", "{2,3,4}"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert "exactly-large subsets of {2,3,4}: 1" in proc.stdout


def test_programs_file_restricts_dh(tmp_path):
    # a universe of divergers makes every jump approximation empty, so
    # the dh trace is identically zero
    progs = tmp_path / "programs.txt"
    progs.write_text("0\n\n2\n\n4\n\n7\n\n9\n")
    out = tmp_path / "trace.csv"
    code = run_experiment([
        "color", "--coloring", "dh", "--universe", "evens:2..12",
        "--programs", str(progs), "--out", str(out),
    ])
    assert code == OK
    rows = read_csv(out)
    assert all(r[1] == "0" for r in rows[1:])


def test_nonpositive_truth_cutoff_is_a_config_error(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "schema": "xlramsey.witness/1", "kind": "homogeneous",
        "set": [2, 7000, 7500, 8000], "color": 1, "per_min": None,
        "verified": True, "budget": {},
    }))
    out = tmp_path / "verdicts.csv"
    argv = ["decode", "--witness", str(w), "--query", "1,1", "--out", str(out)]
    cfg = tmp_path / "exp.ini"
    for value in ("0", "-5"):
        cfg.write_text(f"[experiment]\ntruth-cutoff = {value}\n")
        for extra in (["--truth-cutoff", value], ["--config", str(cfg)]):
            assert run_experiment(argv + extra) == CONFIG_ERROR
            assert capsys.readouterr().err.startswith("config error: --truth-cutoff")
            assert not out.exists()
    assert run_experiment(argv + ["--truth-cutoff", "1"]) == OK


def readme_cli_commands():
    # The sh block of README's CLI section, one command per item, with
    # backslash-continued lines joined and comments dropped.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_readme_examples_run(tmp_path, monkeypatch):
    commands = readme_cli_commands()
    assert len(commands) >= 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "xlramsey"
        assert run_experiment(argv[1:]) == OK, argv


def test_verify_replays_the_recorded_config(tmp_path):
    w = tmp_path / "w.json"
    overridden = 0
    for seed in range(1, 8):
        code = run_experiment([
            "search", "--coloring", "random", "--seed", str(seed),
            "--universe", "interval:2..12", "--k", "5",
            "--mode", "homogeneous", "--out-witness", str(w),
        ])
        assert code == OK
        # seed, oracle and programs come from the witness's config block
        assert run_experiment(["verify", "--witness", str(w)]) == OK
        # an explicit flag still wins over the recorded value
        code = run_experiment(["verify", "--witness", str(w), "--seed", "0"])
        overridden += code == VERIFY_FAILURE
    assert overridden > 0


def test_config_file_fills_append_options(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "schema": "xlramsey.witness/1", "kind": "homogeneous",
        "set": [2, 7000, 7500, 8000], "color": 1, "per_min": None,
        "verified": True, "budget": {},
    }))
    cfg = tmp_path / "exp.ini"
    argv = ["decode", "--witness", str(w), "--oracle", "{0,5}", "--config", str(cfg)]
    cfg.write_text("[experiment]\nquery = 1,1\n")
    assert run_experiment(argv) == OK
    assert capsys.readouterr().out.splitlines() == ["1,1,1,1,1,{2,7000,7500},"]
    cfg.write_text("[experiment]\nquery = 1,1\n\n  1,0\n")
    assert run_experiment(argv) == OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:2] for line in lines] == [["1", "1"], ["1", "0"]]


def test_reduce_rt_via_km_rejects_non_min_homogeneous(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "schema": "xlramsey.witness/1", "kind": "min-homogeneous",
        "set": [2, 3, 4, 5, 6], "color": None, "per_min": None,
        "verified": True, "budget": {},
    }))
    # {2,3,4} and {2,3,5} share a minimum but not a sum parity
    code = run_experiment([
        "reduce", "--direction", "rt-via-km", "--coloring", "parity-of-sum",
        "--witness", str(w),
    ])
    assert code == VERIFY_FAILURE
    assert "not min-homogeneous: {2,3,4} has color 1 but {2,3,5} has color 0" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    "[]",
    '{"set": [3, 4]}',
    '{"kind": "homogeneous", "set": 5}',
    '{"kind": "homogeneous", "set": [3, 4], "per_min": [1]}',
    '{"kind": "homogeneous", "set": [3, 4], "config": 5}',
    '{"kind": "homogeneous", "set": [3, 4], "config": {"oracle": 5}}',
    '{"kind": "homogeneous", "set": [3, 4], "config": {"seed": "x"}}',
])
def test_malformed_witness_file_is_a_config_error(tmp_path, capsys, content):
    w = tmp_path / "w.json"
    w.write_text(content)
    for argv in (["verify", "--witness", str(w), "--coloring", "parity-of-min"],
                 ["decode", "--witness", str(w), "--query", "1,1"],
                 ["reduce", "--direction", "rt-via-km", "--coloring", "parity-of-min",
                  "--witness", str(w)]):
        assert run_experiment(argv) == CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: ")


def test_abbreviated_flags_count_as_given(tmp_path):
    w = tmp_path / "w.json"
    assert run_experiment([
        "search", "--coloring", "random", "--seed", "2", "--universe", "interval:2..12",
        "--k", "5", "--mode", "homogeneous", "--out-witness", str(w),
    ]) == OK
    # seed 0 colors the seed-2 witness inhomogeneously, however it is spelled
    for flags in (["--seed", "0"], ["--seed=0"], ["--se", "0"], ["--se=0"]):
        assert run_experiment(["verify", "--witness", str(w)] + flags) == VERIFY_FAILURE
    assert run_experiment(["verify", "--witness", str(w)]) == OK


@pytest.mark.parametrize("block", ["JZ 1", "INC", "INC 0 5", "HALT 3"])
def test_malformed_program_text_is_a_config_error(tmp_path, capsys, block):
    progs = tmp_path / "programs.txt"
    progs.write_text(f"1\n\n{block}\nHALT\n")
    code = run_experiment([
        "search", "--coloring", "dh", "--universe", "evens:2..12",
        "--programs", str(progs),
    ])
    assert code == CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("mode, flags", [
    ("homogeneous", ["--max-candidates", "1", "--max-universe", "3"]),
    ("homogeneous", ["--max-universe", "3"]),
    ("min-homogeneous", ["--start", "3"]),
    ("chain", ["--k", "6"]),
    # unread, so not refused as out of range
    ("homogeneous", ["--max-candidates", "0"]),
    ("min-homogeneous", ["--max-universe", "0"]),
])
def test_search_flags_the_mode_never_reads_are_config_errors(tmp_path, capsys, mode, flags):
    argv = ["search", "--mode", mode, "--coloring", "random:5",
            "--universe", "interval:2..20"] + (["--k", "6"] if mode != "chain" else [])
    assert run_experiment(argv + flags) == CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: --")
    # the same value from a config file
    key, value = flags[0][2:], flags[1]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\n{key} = {value}\n")
    assert run_experiment(argv + ["--config", str(cfg)]) == CONFIG_ERROR
    assert run_experiment(argv) == OK


@pytest.mark.parametrize("flag, value", [("--max-candidates", "0"), ("--max-universe", "0"),
                                         ("--max-universe", "-3")])
def test_a_non_positive_chain_bound_names_its_flag(tmp_path, capsys, flag, value):
    w = tmp_path / "w.json"
    argv = ["search", "--coloring", "parity-of-min", "--universe", "interval:2..12",
            flag, value, "--out-witness", str(w)]
    assert run_experiment(argv) == CONFIG_ERROR and not w.exists()
    assert capsys.readouterr().err == f"config error: {flag} must be positive, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["search", "--mode", "chain", "--coloring", "parity-of-min",
     "--universe", "interval:2..99999999999"],
    ["enumerate", "--universe", "evens:2..99999999999"],
])
def test_a_universe_spec_above_the_cap_is_refused_before_it_is_built(argv):
    # Built whole, either universe would take hundreds of GB; in 2 GiB of
    # address space the build ends in a MemoryError.
    resource = pytest.importorskip("resource")
    cap = 2 * 1024 ** 3

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "xlramsey.cli", *argv],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == CONFIG_ERROR, proc.stderr
    spec = argv[-1]
    count = len(range(2, 10 ** 11)) // (2 if spec.startswith("evens") else 1)
    assert proc.stderr == (f"config error: --universe {spec!r}: {count} elements, "
                           f"above the limit of {cli.MAX_UNIVERSE_ELEMENTS}\n")
    assert proc.stdout == ""


def test_a_universe_spec_at_the_cap_is_built():
    cap = cli.MAX_UNIVERSE_ELEMENTS
    assert len(parse_universe(f"interval:2..{cap + 1}")) == cap
    assert len(parse_universe(f"evens:1..{2 * cap}")) == cap
    for spec in (f"interval:2..{cap + 2}", f"evens:0..{2 * cap}"):
        with pytest.raises(ConfigError, match=f"^--universe '{spec}': {cap + 1} elements"):
            parse_universe(spec)


@pytest.mark.parametrize("universe, start", [
    ("interval:5..12", "3"), ("interval:2..12", "40"), ("interval:2..12", "0"),
])
def test_chain_start_outside_the_universe_is_a_config_error(tmp_path, capsys, universe, start):
    w = tmp_path / "w.json"
    code = run_experiment(["search", "--mode", "chain", "--coloring", "parity-of-min",
                           "--universe", universe, "--start", start, "--out-witness", str(w)])
    assert code == CONFIG_ERROR and not w.exists()
    assert capsys.readouterr().err == (
        f"config error: --start {start} is not an element of --universe {universe}\n")


@pytest.mark.parametrize("start", ["x", "3.5", ""])
def test_chain_start_that_is_not_a_number_names_the_flag(tmp_path, capsys, start):
    w = tmp_path / "w.json"
    code = run_experiment(["search", "--mode", "chain", "--coloring", "parity-of-min",
                           "--universe", "interval:2..12", f"--start={start}",
                           "--out-witness", str(w)])
    assert code == CONFIG_ERROR and not w.exists()
    assert capsys.readouterr().err == (
        f"config error: --start takes 'min' or a universe element, got {start!r}\n")


BAD_COLORING_SPECS = {
    "sum-mod:x": "malformed coloring: 'sum-mod:x'",
    "constant:x": "malformed coloring: 'constant:x'",
    "random:x": "malformed coloring: 'random:x'",
    "constant:-1": "constant color must be non-negative",
}


@pytest.mark.parametrize("spec", BAD_COLORING_SPECS)
def test_bad_coloring_spec_fails_at_parse_time_and_says_why(tmp_path, capsys, spec):
    message = BAD_COLORING_SPECS[spec]
    w = tmp_path / "w.json"
    code = run_experiment(["search", "--mode", "chain", "--coloring", spec,
                           "--universe", "interval:2..12", "--out-witness", str(w)])
    assert code == CONFIG_ERROR and not w.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"
    with pytest.raises(ConfigError, match=message):
        parse_coloring(spec, EMPTY)


def test_verify_reads_the_witness_file_once(tmp_path, monkeypatch):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--coloring", "parity-of-min",
                           "--universe", "interval:2..12", "--out-witness", str(w)]) == OK
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert run_experiment(["verify", "--witness", str(w)]) == OK
    assert opened.count(str(w)) == 1


# ---------------------------------------------------------------------------
# the parser of one verb

def test_decode_queries_do_not_leak_between_runs(tmp_path):
    # Runs in one process: each CSV holds only the queries of its own
    # run, in its order; an append option never carries over.
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        "schema": "xlramsey.witness/1", "kind": "homogeneous",
        "set": [2, 7000, 7500, 8000], "color": 1, "per_min": None,
        "verified": True, "budget": {},
    }))
    for name, queries in (("a.csv", ["1,1", "1,0"]), ("b.csv", ["1,0"]), ("c.csv", ["1,1"])):
        out = tmp_path / name
        argv = ["decode", "--witness", str(w), "--oracle", "{0,5}", "--out", str(out)]
        for q in queries:
            argv += ["--query", q]
        assert run_experiment(argv) == OK
        assert [",".join(r[:2]) for r in read_csv(out)[1:]] == queries


VERBS = ("enumerate", "color", "search", "verify", "decode", "reduce")


def parse_outcome(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("flags", [
    ["-h"], ["--nosuch"], ["--seed", "x"], ["--k", "x"], ["--mode", "x"],
    ["--direction", "x"], ["--nosuch", "1", "--seed", "x"],
])
def test_single_verb_parser_reads_as_the_full_parser(capsys, monkeypatch, verb, flags):
    monkeypatch.setenv("COLUMNS", "80")
    single = build_parser(verb)
    assert list(single._subparsers._group_actions[0].choices) == [verb]
    want = parse_outcome(build_parser(), [verb] + flags, capsys)
    assert want[2] in (0, 2) and want[0] + want[1]
    assert parse_outcome(single, [verb] + flags, capsys) == want


USAGE = "usage: xlramsey [-h] {enumerate,color,search,verify,decode,reduce} ...\n"


@pytest.mark.parametrize("argv, out, err", [
    (["-h"], USAGE + """
experiments on colorings of exactly large sets

positional arguments:
  {enumerate,color,search,verify,decode,reduce}
    enumerate           stream exactly large subsets
    color               trace a coloring over a universe
    search              find witnesses
    verify              re-verify a witness file
    decode              read jump membership off a witness
    reduce              translate witnesses between principles

options:
  -h, --help            show this help message and exit
""", ""),
    ([], "", USAGE + "xlramsey: error: the following arguments are required: command\n"),
    (["nosuch"], "", USAGE + "xlramsey: error: argument command: invalid choice: 'nosuch' "
     "(choose from 'enumerate', 'color', 'search', 'verify', 'decode', 'reduce')\n"),
])
def test_top_level_usage_and_errors(capsys, monkeypatch, argv, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run_experiment(argv)
    assert capsys.readouterr() == (out, err)
    assert exc.value.code == (0 if argv == ["-h"] else 2)


def test_cli_import_loads_no_unused_modules():
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    code = ("import sys; before = set(sys.modules); import xlramsey.cli; "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    added = set(eval(proc.stdout))
    assert "xlramsey.cli" in added
    assert not added & {"dataclasses", "inspect", "configparser", "csv"}


def test_no_record_reaches_json_dump(tmp_path, monkeypatch):
    # json writes any tuple, a NamedTuple record included, as a list.
    dumped = []
    real_dump = json.dump

    def checking_dump(obj, *args, **kwargs):
        dumped.append(obj)
        return real_dump(obj, *args, **kwargs)

    def records(obj):
        if hasattr(obj, "_fields"):
            yield obj
        items = obj.values() if isinstance(obj, dict) else obj
        if isinstance(obj, (dict, list, tuple)):
            for item in items:
                yield from records(item)

    monkeypatch.setattr(json, "dump", checking_dump)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["search", "--coloring", "parity-of-min", "--universe", "interval:2..14",
         "--out-witness", "c.json"],
        ["verify", "--witness", "c.json", "--out", "v.json"],
        ["verify", "--witness", "c.json", "--coloring", "parity-of-sum", "--out", "f.json"],
        ["search", "--mode", "min-homogeneous", "--coloring", "second-mod-min",
         "--universe", "interval:2..12", "--k", "5", "--out-witness", "m.json"],
        ["reduce", "--direction", "rt-via-km", "--coloring", "second-mod-min",
         "--witness", "m.json", "--out-witness", "r.json"],
        ["reduce", "--direction", "km-to-rt", "--coloring", "min-minus-one",
         "--witness", "m.json", "--out-witness", "k.json"],
    ):
        run_experiment(argv)
    assert len(dumped) == 6
    assert [r for obj in dumped for r in records(obj)] == []


# ---------------------------------------------------------------------------
# witnesses replay their recorded config

def test_decode_refuses_a_witness_of_another_coloring(tmp_path, capsys):
    # The parent answered 2,3 with 0 (truth 1) by running the comega
    # decoder on this verified dh witness.
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--mode", "chain", "--coloring", "dh",
                           "--oracle", "empty", "--universe", "evens:2..30",
                           "--out-witness", str(w)]) == OK
    assert read_json(w)["verified"]
    capsys.readouterr()
    out = tmp_path / "verdicts.csv"
    code = run_experiment(["decode", "--witness", str(w), "--query", "2,3",
                           "--truth-cutoff", "10000", "--out", str(out)])
    assert code == CONFIG_ERROR and not out.exists()
    assert capsys.readouterr() == ("", "config error: no decoder for dh witnesses\n")


def test_reduce_replays_the_recorded_coloring(tmp_path):
    w, out = tmp_path / "mh.json", tmp_path / "out.json"
    assert run_experiment(["search", "--mode", "min-homogeneous",
                           "--coloring", "second-mod-min", "--universe", "interval:2..16",
                           "--k", "5", "--out-witness", str(w)]) == OK
    assert run_experiment(["reduce", "--direction", "rt-via-km", "--witness", str(w),
                           "--out-witness", str(out)]) == OK
    payload = read_json(out)
    assert payload["verified"] and payload["config"]["coloring"] == "second-mod-min"
    # an explicit flag still wins over the recorded value
    assert run_experiment(["reduce", "--direction", "rt-via-km", "--coloring",
                           "parity-of-min", "--witness", str(w),
                           "--out-witness", str(out)]) == OK
    assert read_json(out)["config"]["coloring"] == "parity-of-min"


def test_decode_replays_the_recorded_oracle(tmp_path, monkeypatch):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--mode", "chain", "--coloring", "comega",
                           "--oracle", "{0,3}", "--universe", "interval:2..14",
                           "--out-witness", str(w)]) == OK
    # At desk scale every oracle gives the same verdicts, so the oracle
    # the decoder was given is read off the parse.
    specs = []
    real_parse = cli.parse_oracle

    def recording_parse(spec):
        specs.append(spec)
        return real_parse(spec)

    monkeypatch.setattr(cli, "parse_oracle", recording_parse)
    argv = ["decode", "--witness", str(w), "--query", "1,1"]
    assert run_experiment(argv) == OK
    assert run_experiment(argv + ["--oracle", "empty"]) == OK
    assert specs == ["{0,3}", "empty"]


def test_decode_refuses_a_reduction_whose_program_is_too_large(tmp_path):
    # Query 0,0 on this set reduces from level 0 to 2.  Step 1 builds the
    # probe, index 6894; a bound on that value rather than on the INC
    # count would let step 2 build a 6,894-INC program, whose index has
    # about 12 * 2**6894 bits, and never finish.
    resource = pytest.importorskip("resource")
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"kind": "chain", "set": [3, 4, 5, 6, 7],
                             "config": {"coloring": "comega"}}))
    cap = 2 * 1024 ** 3

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "xlramsey.cli", "decode", "--witness", str(w),
         "--query", "0,0"],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert "insufficient data" in proc.stdout


def test_reduce_witness_of_a_seeded_coloring_verifies_without_flags(tmp_path):
    # Were the seed left out of the reduce witness, this verify would
    # replay `random` under seed 0 and exit 3.
    mh, r = tmp_path / "mh.json", tmp_path / "r.json"
    assert run_experiment(["search", "--mode", "min-homogeneous", "--coloring", "random",
                           "--seed", "4", "--universe", "interval:2..14", "--k", "5",
                           "--out-witness", str(mh)]) == OK
    assert run_experiment(["reduce", "--direction", "rt-via-km", "--witness", str(mh),
                           "--out-witness", str(r)]) == OK
    config = read_json(r)["config"]
    assert config["seed"] == 4 and config["programs"] is None
    assert run_experiment(["verify", "--witness", str(r)]) == OK


def test_witnesses_record_every_replayed_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["search", "--coloring", "parity-of-min", "--universe", "interval:2..12",
         "--out-witness", "c.json"],
        ["search", "--mode", "homogeneous", "--coloring", "constant:0",
         "--universe", "interval:1..8", "--k", "4", "--out-witness", "h.json"],
        ["search", "--mode", "min-homogeneous", "--coloring", "min-minus-one",
         "--universe", "interval:2..12", "--k", "5", "--out-witness", "m.json"],
        ["reduce", "--direction", "rt-via-km", "--witness", "m.json",
         "--out-witness", "r.json"],
        ["reduce", "--direction", "km-to-rt", "--coloring", "min-minus-one",
         "--witness", "h.json", "--out-witness", "k.json"],
    ):
        assert run_experiment(argv) == OK, argv
        assert set(cli._REPLAYED_KEYS) <= set(read_json(argv[-1])["config"]), argv


HAND_WITNESS = {
    "schema": "xlramsey.witness/1", "kind": "homogeneous",
    "set": [2, 7000, 7500, 8000], "color": 1, "per_min": None,
    "verified": True, "budget": {},
}


@pytest.mark.parametrize("verb, flags", [
    ("enumerate", ["--universe", "{2,3,4}"]),
    ("color", ["--coloring", "parity-of-min", "--universe", "interval:2..6"]),
    ("search", ["--coloring", "random", "--se", "3", "--universe", "interval:2..12"]),
    ("verify", ["--witness", "m.json"]),
    ("decode", ["--witness", "hand.json", "--query", "1,1", "--oracle", "{0,5}",
                "--config", "exp.ini"]),
    ("reduce", ["--direction", "rt-via-km", "--witness", "m.json"]),
])
def test_argv_is_parsed_once_per_invocation(tmp_path, monkeypatch, verb, flags):
    monkeypatch.chdir(tmp_path)
    assert run_experiment(["search", "--mode", "min-homogeneous", "--coloring",
                           "min-minus-one", "--universe", "interval:2..12", "--k", "5",
                           "--out-witness", "m.json"]) == OK
    (tmp_path / "hand.json").write_text(json.dumps(HAND_WITNESS))
    (tmp_path / "exp.ini").write_text("[experiment]\ntruth-cutoff = 1000\n")
    parsed = []
    real_parse = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **kw: parsed.append(a) or real_parse(self, *a, **kw))
    assert run_experiment([verb] + flags) == OK
    assert len(parsed) == 1


@pytest.mark.parametrize("query", ["-1,2", "1,-3", "1", "1,2,3", "a,1"])
def test_decode_rejects_a_query_that_is_not_two_naturals(tmp_path, capsys, query):
    # Not a verdict row for level -1, nor "index must be a natural",
    # which names no query.
    w, cfg = tmp_path / "w.json", tmp_path / "exp.ini"
    w.write_text(json.dumps(HAND_WITNESS))
    cfg.write_text(f"[experiment]\nquery = {query}\n")
    for flags in ([f"--query={query}"], ["--config", str(cfg)]):
        assert run_experiment(["decode", "--witness", str(w)] + flags) == CONFIG_ERROR
        assert capsys.readouterr() == ("", f"config error: bad query (want i,j): {query!r}\n")


BAD_SET_SPECS = {
    ("enumerate", "universe", "{a,b}"): "--universe '{a,b}': not a natural number: 'a'",
    ("enumerate", "universe", "explicit:{x}"):
        "--universe 'explicit:{x}': not a natural number: 'x'",
    ("enumerate", "universe", "{3,2}"): "--universe '{3,2}': elements must be strictly increasing",
    ("search", "oracle", "{a}"): "--oracle '{a}': not a natural number: 'a'",
}


@pytest.mark.parametrize("verb, flag, spec", BAD_SET_SPECS)
def test_bad_set_literal_names_the_flag_and_the_spec(capsys, verb, flag, spec):
    argv = [verb, f"--{flag}", spec]
    if verb == "search":
        argv += ["--mode", "chain", "--coloring", "dh", "--universe", "evens:2..12"]
    assert run_experiment(argv) == CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {BAD_SET_SPECS[verb, flag, spec]}\n"


# Configuration errors, each raised by its own line of the CLI.  {tmp}
# stands for the test's directory; a config file, when given, is written
# to {tmp}/exp.ini.  A mode or direction from a config file skips
# argparse's choices, so the verb itself refuses it.
CONFIG_ERRORS = {
    "malformed-universe": (["enumerate", "--universe", "interval:2-8"], None,
                           "malformed universe: 'interval:2-8'"),
    "unknown-oracle": (["search", "--coloring", "dh", "--universe", "evens:2..12",
                        "--oracle", "full"], None, "unknown oracle: 'full'"),
    "sum-mod-1": (["search", "--coloring", "sum-mod:1", "--universe", "interval:2..8"], None,
                  "sum-mod modulus must be at least 2"),
    "unknown-mode": (["search", "--config", "{tmp}/exp.ini", "--coloring", "parity-of-min",
                      "--universe", "interval:2..8"], "[experiment]\nmode = sideways\n",
                     "unknown mode: 'sideways'"),
    "unknown-direction": (["reduce", "--config", "{tmp}/exp.ini", "--coloring", "parity-of-min",
                           "--witness", "{tmp}/w.json"], "[experiment]\ndirection = up\n",
                          "unknown direction: 'up'"),
    "missing-coloring": (["search", "--universe", "interval:2..8"], None,
                         "missing required option --coloring"),
    "unreadable-config": (["enumerate", "--universe", "interval:2..8",
                           "--config", "{tmp}/none.ini"], None,
                          "cannot read config file: {tmp}/none.ini"),
    "config-without-experiment": (["enumerate", "--universe", "interval:2..8",
                                   "--config", "{tmp}/exp.ini"], "[search]\nk = 3\n",
                                  "config file needs an [experiment] section"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_error_exits_2_with_its_message(tmp_path, capsys, case):
    argv, config, message = CONFIG_ERRORS[case]
    assert run_experiment(["search", "--coloring", "parity-of-min", "--universe",
                           "interval:2..8", "--out-witness", str(tmp_path / "w.json")]) == OK
    if config is not None:
        (tmp_path / "exp.ini").write_text(config)
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert run_experiment(argv) == CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: {message.format(tmp=tmp_path)}\n")


@pytest.mark.parametrize("field, value, message", [
    ("color", "0", "witness field 'color' must be an integer or null, got '0'"),
    ("color", True, "witness field 'color' must be an integer or null, got True"),
    ("per_min", {"2": "0"},
     "witness field 'per_min' must be null or an object from naturals to integers, "
     "got {'2': '0'}"),
    ("per_min", {"x": 0},
     "witness field 'per_min' must be null or an object from naturals to integers, "
     "got {'x': 0}"),
    ("verified", "yes", "witness field 'verified' must be true or false, got 'yes'"),
    ("budget", [], "witness field 'budget' must be an object, got []"),
    ("budget", {"start": "2"}, "witness field 'start' must be an integer, got '2'"),
    ("budget", {"pigeonhole_color": True},
     "witness field 'pigeonhole_color' must be an integer, got True"),
    ("budget", {"verified_subsets": "3"},
     "witness field 'verified_subsets' must be an integer, got '3'"),
    ("budget", {"chain_before_thinning": [2, "3"]},
     "witness field 'chain_before_thinning' must be a list of integers, got [2, '3']"),
    ("budget", {"stages": [{"a": 2}]},
     "witness field 'stages' must be a list of objects with integer 'a' and 'color', "
     "got [{'a': 2}]"),
])
def test_witness_field_of_the_wrong_type_is_a_config_error(tmp_path, capsys, field, value,
                                                           message):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--coloring", "parity-of-min",
                           "--universe", "interval:2..14", "--out-witness", str(w)]) == OK
    payload = json.loads(w.read_text())
    payload[field] = value
    w.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w)]) == CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: --witness {str(w)!r}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda config: {**config, "seed": "3"},
                 "--witness {w!r}: the witness's recorded seed is not an integer: '3'",
                 id="string-seed"),
    pytest.param(lambda config: [1],
                 "--witness {w!r}: the witness's config is not a JSON object", id="list"),
    pytest.param(lambda config: {k: v for k, v in config.items() if k != "coloring"},
                 "no coloring given and none recorded in the witness", id="no-coloring"),
])
def test_a_bad_recorded_config_is_a_config_error(tmp_path, capsys, edit, message):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--coloring", "parity-of-min",
                           "--universe", "interval:2..14", "--out-witness", str(w)]) == OK
    payload = json.loads(w.read_text())
    payload["config"] = edit(payload["config"])
    w.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w)]) == CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message.format(w=str(w))}\n"


@pytest.mark.parametrize("field, value, message", [
    ("kind", "bogus", "unknown witness kind: 'bogus'"),
    ("schema", "xlramsey.witness/99", "unknown witness schema: 'xlramsey.witness/99'"),
])
def test_witness_of_an_unknown_kind_or_schema_is_a_config_error(tmp_path, capsys, field,
                                                                  value, message):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--coloring", "parity-of-min",
                           "--universe", "interval:2..14", "--out-witness", str(w)]) == OK
    assert run_experiment(["verify", "--witness", str(w)]) == OK
    payload = json.loads(w.read_text())
    payload[field] = value
    w.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w)]) == CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: --witness {str(w)!r}: {message}\n"


@pytest.mark.parametrize("field, edit", [
    ("set", {"set": [4, 2]}),
    ("set", {"set": [2, 2]}),
    ("set", {"set": [-1, 3]}),
    ("chain_before_thinning", {"budget": {"chain_before_thinning": [3, 2],
                                          "stages": [{"a": 3, "color": 1}]}}),
])
def test_a_witness_list_that_does_not_increase_names_its_field(tmp_path, capsys, field, edit):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--coloring", "parity-of-min",
                           "--universe", "interval:2..14", "--out-witness", str(w)]) == OK
    payload = {**json.loads(w.read_text()), **edit}
    w.write_text(json.dumps(payload))
    elems = payload["set"] if field == "set" else payload["budget"][field]
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w)]) == CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: --witness {str(w)!r}: witness field "
                                       f"{field!r} must be strictly increasing naturals, "
                                       f"got {elems!r}\n")


def _tampered(tmp_path, argv, edit):
    w = tmp_path / "w.json"
    assert run_experiment(argv + ["--out-witness", str(w)]) == OK
    assert run_experiment(["verify", "--witness", str(w)]) == OK
    payload = json.loads(w.read_text())
    edit(payload)
    w.write_text(json.dumps(payload))
    return w


_CHAIN = ["search", "--mode", "chain", "--coloring", "parity-of-min",
          "--universe", "interval:2..14"]
_PARITY_OF_SUM_CHAIN = ["search", "--mode", "chain", "--coloring", "parity-of-sum",
                        "--universe", "interval:2..14"]
_MIN_HOMOGENEOUS = ["search", "--mode", "min-homogeneous", "--coloring", "random:3",
                    "--universe", "interval:3..20", "--k", "6"]


def _flip_min(payload, m):
    payload["per_min"][m] = 1 - payload["per_min"][m]


@pytest.mark.parametrize("argv, edit, message", [
    (_CHAIN, lambda p: p.update(color=1),
     "witness field 'color' is 1, the set's color is 0"),
    (_CHAIN, lambda p: p.update(per_min={k: 1 - v for k, v in p["per_min"].items()}),
     "witness field 'per_min' gives minimum 2 color 1, the set's color is 0"),
    (_MIN_HOMOGENEOUS, lambda p: _flip_min(p, "4"),
     "witness field 'per_min' gives minimum 4 color 1, the set gives it 0"),
    (_MIN_HOMOGENEOUS, lambda p: p["per_min"].pop("3"),
     "witness field 'per_min' gives minimum 3 color None, the set gives it 0"),
    (_CHAIN, lambda p: p["budget"].update(chain_before_thinning=[]),
     "witness field 'stages' has minima [2, 3, 4, 5, 6, 7], 'chain_before_thinning' before "
     "its last element is []"),
    (_CHAIN, lambda p: p["budget"].update(pigeonhole_color=1),
     "witness field 'pigeonhole_color' is 1, the chain gives 0"),
    (_CHAIN, lambda p: p["budget"]["stages"][0].update(color=1),
     "witness field 'stages' gives minimum 2 color 1, the chain gives it 0"),
    (_CHAIN, lambda p: p["budget"].update(start=99),
     "witness field 'start' is 99, the chain gives 2"),
    (_CHAIN, lambda p: p["budget"].update(stages=[]),
     "witness field 'stages' has minima [], 'chain_before_thinning' before its last "
     "element is [2, 3, 4, 5, 6, 7]"),
    (_CHAIN, lambda p: p["budget"].update(verified_subsets=99),
     "witness field 'verified_subsets' is 99, the chain gives 3"),
    (_CHAIN, lambda p: p["budget"]["stages"][1].update(color=0),
     "witness field 'stages' gives minimum 3 color 0, the chain gives it 1"),
    (_CHAIN, lambda p: p["budget"]["stages"][5].update(color=0),
     "witness field 'set' is [2, 4, 6, 8], the chain gives [2, 4, 6, 7, 8]"),
    (_CHAIN, lambda p: (p.update(set=[2, 4, 6], per_min={"2": 0, "4": 0, "6": 0}),
                        p["budget"].update(verified_subsets=1)),
     "witness field 'set' is [2, 4, 6], the chain gives [2, 4, 6, 8]"),
    (_PARITY_OF_SUM_CHAIN, lambda p: p["budget"].update(
        chain_before_thinning=[2, 3, 4, 5],
        stages=[{"a": a, "color": 0} for a in (2, 3, 4)]),
     "witness field 'chain_before_thinning' gives (2, 3, 4) color 1, (2, 3, 5) color 0"),
], ids=["chain color", "chain per_min", "min-homogeneous per_min", "min-homogeneous missing",
        "chain emptied", "chain pigeonhole color", "chain first stage color", "chain start",
        "chain stages emptied", "chain verified_subsets", "chain stage color off the set",
        "chain last stage color", "chain set cut", "chain not min-homogeneous"])
def test_verify_checks_the_color_claims_of_a_witness(tmp_path, capsys, argv, edit, message):
    # The set {2,4,6,8} has color 0 and per-min colors {2:0,4:0,6:0}; it
    # thins the chain 2,...,8, whose stages at minima 2,...,7 have colors
    # 0,1,0,1,0,1, to color 0.  The chain decides the colors at minima 2,
    # 3 and 4 only.  The set {3,4,5,12,18,19} has per-min colors
    # {3:0,4:0}.  A false claim fails verification and the report says so.
    w = _tampered(tmp_path, argv, edit)
    out = tmp_path / "v.json"
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w), "--out", str(out)]) == VERIFY_FAILURE
    assert capsys.readouterr().out.endswith(f" subsets): {message}\n")
    assert read_json(out)["passed"] is False


@pytest.mark.parametrize("coloring, found", [("min-minus-one", [2, 8]),
                                             ("second-mod-min", [2, 5])])
def test_regressive_chains_give_verified_witnesses(tmp_path, coloring, found):
    # A regressive stage at minimum a has palette a, so a color of 2 or
    # more at a stage above 2 is no configuration error.
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--mode", "chain", "--coloring", coloring,
                           "--universe", "interval:2..14", "--out-witness", str(w)]) == OK
    payload = read_json(w)
    assert payload["verified"] is True and payload["set"] == found
    assert run_experiment(["verify", "--witness", str(w)]) == OK


def test_enumerate_counts_a_large_universe_by_formula():
    # interval:2..60 holds 2,504,730,781,901 exactly large subsets: far too
    # many to walk, so the count is the binomial sum.
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "xlramsey.cli", "enumerate", "--universe", "interval:2..60"],
        capture_output=True, text=True, timeout=30, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(": 2504730781901\n")


@pytest.mark.parametrize("universe", ["interval:0..9", "interval:1..10", "interval:2..13",
                                      "evens:0..18", "evens:2..20", "{0}", "{1}", "{0,1}",
                                      "{0,1,2,3}", "{1,2,5,6,9}", "{3,4,5,6}", "{}"])
def test_enumerate_count_is_the_number_of_rows_written(tmp_path, capsys, universe):
    out = tmp_path / "sets.csv"
    assert run_experiment(["enumerate", "--universe", universe, "--out", str(out)]) == OK
    printed = capsys.readouterr().out
    rows = read_csv(out)
    assert rows[0] == ["set"]
    assert printed.endswith(f": {len(rows) - 1}\n")


def test_reduction_note_is_the_same_under_any_integer_string_limit(tmp_path):
    # Query 0,11 on a set with minimum 12 reduces an 11-INC program's
    # index, 24,069 bits, one level further.  Its note names the index by
    # its length rather than print it, whatever PYTHONINTMAXSTRDIGITS says.
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"kind": "chain", "set": list(range(12, 25)),
                             "config": {"coloring": "comega"}}))
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    notes = []
    for limit in (None, "0"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        out = tmp_path / f"verdicts{limit}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "xlramsey.cli", "decode", "--witness", str(w),
             "--query", "0,11", "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=dict(env, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        notes.append(read_csv(out)[1][-1])
    assert notes[0] == notes[1] == ("insufficient data: halt0 reduction of a 24069-bit index "
                                    "exceeds the desk-scale program size limit")


def test_a_deeply_nested_witness_is_a_config_error(tmp_path, capsys):
    # json.load recurses once per bracket, past any recursion limit.
    w = tmp_path / "deep.json"
    w.write_text("[" * 100000 + "]" * 100000)
    assert run_experiment(["verify", "--witness", str(w),
                           "--coloring", "parity-of-min"]) == CONFIG_ERROR
    assert capsys.readouterr().err == (f"config error: --witness {str(w)!r}: "
                                       f"JSON nested too deeply to read\n")


@pytest.mark.parametrize("content, reason", [
    (b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"kind": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 10: "
                           "invalid start byte"),
])
def test_a_witness_that_is_not_json_names_the_flag_and_the_file(tmp_path, capsys, content,
                                                                reason):
    w = tmp_path / "bad.json"
    w.write_bytes(content)
    assert run_experiment(["verify", "--witness", str(w),
                           "--coloring", "parity-of-min"]) == CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: --witness {str(w)!r}: not JSON: {reason}\n"


@pytest.mark.parametrize("limit", [None, "0"])
def test_enumerate_refuses_a_universe_above_the_count_cap(limit):
    # Counted, interval:2..21500 takes about 26 s, and its count is too
    # long to print under the default integer string limit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    if limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = limit
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "xlramsey.cli", "enumerate", "--universe", "interval:2..21500"],
        capture_output=True, text=True, timeout=15, env=dict(env, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout) == (CONFIG_ERROR, "")
    assert proc.stderr == ("config error: --universe 'interval:2..21500': 21499 elements, "
                           "above enumerate's limit of 8192\n")


def test_enumerate_counts_a_universe_at_the_count_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_COUNTED_ELEMENTS", 5)
    assert run_experiment(["enumerate", "--universe", "interval:2..6"]) == OK
    assert capsys.readouterr().out == "exactly-large subsets of {2,3,4,5,6}: 7\n"
    assert run_experiment(["enumerate", "--universe", "{2,3,4,5,6,7}"]) == CONFIG_ERROR
    assert capsys.readouterr().err == ("config error: --universe '{2,3,4,5,6,7}': 6 elements, "
                                       "above enumerate's limit of 5\n")


@pytest.mark.parametrize("spec, universe, budget", [
    ("parity-of-min", "interval:2..14", "1000000"), ("random:7", "interval:2..14", "1"),
    ("random:7", "interval:2..14", "5"), ("min-minus-one", "interval:2..14", "1000000"),
    ("second-mod-min", "interval:2..14", "2"), ("comega", "interval:2..14", "1000000"),
    ("km-dh", "evens:2..24", "1000000"), ("sum-mod:3", "interval:2..14", "5"),
])
def test_verify_passes_the_chain_claims_of_genuine_witnesses(tmp_path, capsys, spec, universe,
                                                             budget):
    w = tmp_path / "w.json"
    assert run_experiment(["search", "--mode", "chain", "--coloring", spec,
                           "--universe", universe, "--max-candidates", budget,
                           "--out-witness", str(w)]) == OK
    assert read_json(w)["budget"]["stages"]
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w)]) == OK
    assert ": pass (" in capsys.readouterr().out


@pytest.mark.parametrize("budget, missing, held", [
    ({"start": 2}, "chain_before_thinning", "start"),
    ({"pigeonhole_color": 0, "stages": []}, "chain_before_thinning", "stages"),
    ({"verified_subsets": 3, "chain_before_thinning": [2, 3]}, "stages",
     "chain_before_thinning"),
    ({"chain_before_thinning": [2, 3, 4, 5, 6, 7, 8]}, "stages", "chain_before_thinning"),
])
def test_a_chain_budget_without_its_chain_or_stages_names_the_missing_field(
        tmp_path, capsys, budget, missing, held):
    # The other claims are derived from the chain and its stages, so a
    # budget that makes any claim about a chain must give both.
    w = _tampered(tmp_path, _CHAIN, lambda p: p.update(budget=budget))
    capsys.readouterr()
    assert run_experiment(["verify", "--witness", str(w)]) == CONFIG_ERROR
    assert capsys.readouterr().err == (f"config error: --witness {str(w)!r}: witness field "
                                       f"{missing!r} must be present when the budget "
                                       f"holds {held!r}\n")


def test_a_chain_budget_without_chain_fields_claims_no_chain(tmp_path):
    w = _tampered(tmp_path, _CHAIN, lambda p: p.update(budget={"note": "hand-made"}))
    assert run_experiment(["verify", "--witness", str(w)]) == OK


@pytest.mark.parametrize("chain, stages", [
    ([], []), ([3, 2], None), ([3, 2], [{"a": 3, "color": 1}]),
])
def test_an_empty_or_decreasing_chain_is_refused_without_a_traceback(tmp_path, chain,
                                                                      stages):
    def edit(p):
        p["budget"]["chain_before_thinning"] = chain
        if stages is not None:
            p["budget"]["stages"] = stages

    w = _tampered(tmp_path, _CHAIN, edit)
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run([sys.executable, "-m", "xlramsey.cli", "verify", "--witness", str(w)],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode in (CONFIG_ERROR, VERIFY_FAILURE), proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--universe", "interval:2..60", "--out", "big.csv"],
     "--universe 'interval:2..60': 2504730781901 exactly large subsets, above the limit of "
     "2097152 rows for --out"),
    (["color", "--coloring", "parity-of-min", "--universe", "interval:2..60"],
     "--universe 'interval:2..60': 2504730781901 exactly large subsets, above the limit of "
     "2097152 rows without --limit"),
    (["color", "--coloring", "parity-of-min", "--universe", "interval:2..60",
      "--out", "big.csv"],
     "--universe 'interval:2..60': 2504730781901 exactly large subsets, above the limit of "
     "2097152 rows without --limit"),
    (["color", "--coloring", "parity-of-min", "--universe", "interval:2..21500"],
     "--universe 'interval:2..21500': 21499 elements, above color's limit of 8192"),
])
def test_rows_past_the_cap_are_refused_before_any_is_written(tmp_path, argv, message):
    # Each of these once streamed rows until it was killed.
    src = os.path.dirname(os.path.dirname(xlramsey.__file__))
    proc = subprocess.run([sys.executable, "-m", "xlramsey.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=15,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (CONFIG_ERROR, "")
    assert proc.stderr == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_rows_at_the_cap_are_written(tmp_path, capsys, monkeypatch):
    # {2,...,7} has 14 exactly large subsets; {2,...,8} has 26.
    monkeypatch.setattr(cli, "MAX_ROWS", 14)
    out = tmp_path / "sets.csv"
    assert run_experiment(["enumerate", "--universe", "interval:2..7", "--out", str(out)]) == OK
    assert len(read_csv(out)) == 15
    assert capsys.readouterr().out.endswith(": 14\n")
    assert run_experiment(["color", "--coloring", "parity-of-min",
                           "--universe", "interval:2..7"]) == OK
    assert len(capsys.readouterr().out.splitlines()) == 14
    for argv in (["enumerate", "--universe", "interval:2..8", "--out", str(out)],
                 ["color", "--coloring", "parity-of-min", "--universe", "interval:2..8"]):
        assert run_experiment(argv) == CONFIG_ERROR
        assert "26 exactly large subsets, above the limit of 14 rows" in capsys.readouterr().err
    # enumerate without --out and color with --limit write no row per subset.
    assert run_experiment(["enumerate", "--universe", "interval:2..8"]) == OK
    assert run_experiment(["color", "--coloring", "parity-of-min",
                           "--universe", "interval:2..8", "--limit", "3"]) == OK
