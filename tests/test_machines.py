import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UnkeyedOracle

from xlramsey import machines
from xlramsey.largesets import FinSet
from xlramsey.machines import (
    DEC,
    EMPTY,
    HALT,
    INC,
    JZ,
    QUERY,
    CutoffJumpOracle,
    ExplicitOracle,
    Program,
    ProgramSet,
    clear_caches,
    decode_program,
    encode_program,
    halt_threshold,
    jump_pairs_approx,
    mone_reduction,
    pair,
    run_bounded,
    staged_jump,
    staged_jump_levels,
    unpair,
)

HALT_INDEX = 1  # encode([HALT])

ZERO_PROG = Program([
    (JZ, 0, 3), (DEC, 0, 0), (JZ, 3, -2), (HALT, 0, 0),
])

# The membership probe: halts on input m iff m is in the oracle.
PROBE = Program([(QUERY, 0, 0), (JZ, 0, 0), (HALT, 0, 0)]).index


def random_program(rng, max_len=6):
    ops = []
    for _ in range(rng.randrange(0, max_len)):
        kind = rng.randrange(5)
        if kind == 0:
            ops.append((HALT, 0, 0))
        elif kind == 1:
            ops.append((INC, rng.randrange(4), 0))
        elif kind == 2:
            ops.append((DEC, rng.randrange(4), 0))
        elif kind == 3:
            ops.append((QUERY, rng.randrange(4), 0))
        else:
            ops.append((JZ, rng.randrange(4), rng.randrange(-4, 5)))
    return Program(ops)


# ---------------------------------------------------------------------------
# pairing

def test_pair_fixed_values():
    assert pair(0, 0) == 0
    assert pair(1, 0) == 1
    assert pair(1, 1) == 2
    assert pair(2, 0) == 3


def test_unpair_inverts_on_canonical_domain():
    for x in range(1000):
        for y in range(x + 1):
            assert unpair(pair(x, y)) == (x, y)


def test_pair_of_unpair_prefix():
    for n in range(20000):
        x, y = unpair(n)
        assert y <= x
        assert pair(x, y) == n


# ---------------------------------------------------------------------------
# program coding

def test_program_coding_base_cases():
    assert decode_program(0) == Program([])
    assert encode_program(Program([(HALT, 0, 0)])) == HALT_INDEX


def test_program_coding_roundtrip_random():
    rng = random.Random(3)
    for _ in range(10 ** 4):
        p = random_program(rng)
        assert decode_program(encode_program(p)) == p
    for e in range(3000):
        assert encode_program(decode_program(e)) == e


def test_program_text_roundtrip():
    text = "INC 0\nDEC 2\nJZ 1 -3\nQUERY 0\nHALT"
    p = Program.parse(text)
    assert p.render() == text
    assert Program.parse(p.render()) == p
    for bad in ("BLORP 1", "JZ 1", "INC", "INC 0 5", "HALT 3", "INC x"):
        with pytest.raises(ValueError):
            Program.parse(bad)
    for bad in ((INC, 9, 0), (INC, 0, 5), (HALT, 3, 0), (5, 0, 0), ("INC", 0, 0), (INC, 0)):
        with pytest.raises(ValueError):
            Program([bad])


def test_program_universe_file(tmp_path):
    path = tmp_path / "programs.txt"
    path.write_text("# curated list\n17\n\nINC 0\nHALT\n\n1\n")
    from xlramsey.machines import load_program_universe

    programs = load_program_universe(path)
    assert programs[0] == decode_program(17)
    assert programs[1] == Program([(INC, 0, 0), (HALT, 0, 0)])
    assert programs[2] == Program([(HALT, 0, 0)])


instructions = st.one_of(
    st.just((HALT, 0, 0)),
    st.tuples(st.sampled_from((INC, DEC, QUERY)), st.integers(0, 3), st.just(0)),
    st.tuples(st.just(JZ), st.integers(0, 3), st.integers(-40, 40)),
)
programs_st = st.lists(instructions, max_size=8).map(Program)


@settings(max_examples=300, deadline=None)
@given(e=st.integers(0, 10 ** 30))
def test_encode_inverts_decode(e):
    assert encode_program(decode_program(e)) == e


@settings(max_examples=300, deadline=None)
@given(p=programs_st)
def test_decode_inverts_encode_and_text_round_trips(p):
    assert decode_program(encode_program(p)) == p
    assert Program.parse(p.render()) == p


# The numbering as a composition of small helpers: a sequence of naturals
# is coded by a full-plane pairing, and each instruction by its code with
# a zigzag jump offset.  Round trips alone would pass under any bijection;
# these pin the one every index in README and the tests refers to.

def _cantor(a, b):
    return pair(a + b, b)


def _uncantor(n):
    x, y = unpair(n)
    return x - y, y


def encode_list(values):
    code = 0
    for v in reversed(values):
        code = _cantor(v, code) + 1
    return code


def decode_list(code):
    out = []
    while code:
        head, code = _uncantor(code - 1)
        out.append(head)
    return out


def _zigzag(off):
    return 2 * off if off >= 0 else -2 * off - 1


def _unzigzag(z):
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def _instr_code(ins):
    op, reg, off = ins
    return 0 if op == HALT else 1 + reg + 4 * (op - 1 + _zigzag(off))


def _code_instr(c):
    if c == 0:
        return (HALT, 0, 0)
    q, reg = divmod(c - 1, 4)
    return (q + 1, reg, 0) if q < 3 else (JZ, reg, _unzigzag(q - 3))


def reference_encode(instructions):
    return encode_list([_instr_code(i) for i in instructions])


def reference_decode(e):
    return tuple(map(_code_instr, decode_list(e)))


def test_numbering_matches_the_reference_below_10_to_the_5():
    for e in range(10 ** 5):
        assert decode_program(e).instructions == reference_decode(e), e


@settings(max_examples=300, deadline=None)
@given(e=st.integers(0, 2 ** 256 - 1))
def test_numbering_matches_the_reference_on_large_indices(e):
    assert decode_program(e).instructions == reference_decode(e)


@settings(max_examples=300, deadline=None)
@given(p=programs_st)
def test_encoding_matches_the_reference(p):
    assert encode_program(p) == reference_encode(p.instructions)


def test_numbering_fixed_indices():
    assert decode_program(1) == Program([(HALT, 0, 0)])
    assert decode_program(46) == Program([(QUERY, 0, 0)])
    assert decode_program(57) == Program([(QUERY, 0, 0), (HALT, 0, 0)])
    assert decode_program(6894) == Program([(QUERY, 0, 0), (JZ, 0, 0), (HALT, 0, 0)])
    assert PROBE == 6894


# ---------------------------------------------------------------------------
# bounded runs

def test_run_bounded_halt_example():
    for s in (2, 5, 100, 10 ** 6):
        out = run_bounded(HALT_INDEX, EMPTY, 0, s)
        assert out.halted and out.value == 0
    # bound must clear the index and allow one step
    assert not run_bounded(HALT_INDEX, EMPTY, 0, 1).halted


def test_run_bounded_zero_bound():
    assert not run_bounded(5, EMPTY, 3, 0).halted


def test_run_bounded_halt_invariant():
    rng = random.Random(11)
    for _ in range(300):
        e = rng.randrange(0, 5000)
        x = rng.randrange(0, 8)
        s = rng.randrange(1, 60)
        out = run_bounded(e, EMPTY, x, s)
        if out.halted:
            assert out.steps_used < s
            assert out.max_value_seen < s
            assert out.value < s


def test_run_bounded_monotone_in_bound():
    rng = random.Random(5)
    for _ in range(500):
        e = rng.randrange(0, 20000)
        x = rng.randrange(0, 10)
        s = rng.randrange(1, 80)
        oracle = ExplicitOracle(rng.sample(range(0, 30), rng.randrange(0, 5)))
        out = run_bounded(e, oracle, x, s)
        if out.halted:
            for s2 in (s + 1, 2 * s):
                out2 = run_bounded(e, oracle, x, s2)
                assert out2.halted and out2.value == out.value


def test_run_bounded_oracle_use_locality():
    rng = random.Random(17)
    for _ in range(400):
        e = rng.randrange(0, 20000)
        x = rng.randrange(0, 10)
        s = rng.randrange(1, 60)
        members = rng.sample(range(0, 200), rng.randrange(0, 8))
        full = ExplicitOracle(members)
        trimmed = ExplicitOracle([m for m in members if m < s])
        a = run_bounded(e, full, x, s)
        b = run_bounded(e, trimmed, x, s)
        assert (a.halted, a.value) == (b.halted, b.value)


run_args = dict(
    e=st.integers(0, 20000), x=st.integers(0, 10), s=st.integers(0, 80),
    members=st.frozensets(st.integers(0, 200), max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(extra=st.integers(1, 200), **run_args)
def test_run_bounded_monotone_property(e, x, s, members, extra):
    oracle = ExplicitOracle(members)
    out = run_bounded(e, oracle, x, s)
    if out.halted:
        later = run_bounded(e, oracle, x, s + extra)
        assert later.halted and later.value == out.value


@settings(max_examples=200, deadline=None)
@given(other=st.frozensets(st.integers(0, 200), max_size=8), **run_args)
def test_run_bounded_locality_property(e, x, s, members, other):
    # oracles that agree below s give the same outcome under bound s
    a = run_bounded(e, ExplicitOracle(members), x, s)
    mixed = {m for m in members if m < s} | {m for m in other if m >= s}
    b = run_bounded(e, ExplicitOracle(mixed), x, s)
    assert (a.halted, a.value) == (b.halted, b.value)


def test_divergence_detected_quickly():
    # query-loop spins on a missing member; the cycle is caught without
    # burning the whole bound
    out = run_bounded(PROBE, EMPTY, 3, 10 ** 6)
    assert not out.halted
    assert out.steps_used < 100


def test_zero_prog_outputs_zero():
    e = ZERO_PROG.index
    out = run_bounded(e, EMPTY, 17, e + 100)
    assert out.halted and out.value == 0


def test_halt_threshold_consistent_with_run_bounded():
    rng = random.Random(23)
    for _ in range(300):
        e = rng.randrange(0, 3000)
        x = rng.randrange(0, 6)
        oracle = ExplicitOracle(rng.sample(range(0, 20), rng.randrange(0, 4)))
        tau = halt_threshold(e, oracle, x, 200)
        for s in (2, 7, 31, 200):
            assert run_bounded(e, oracle, x, s).halted == (
                tau is not None and tau <= s
            )


def threshold_reference(e, oracle, x, cap):
    # Uncached: the least bound s <= cap under which run_bounded halts.
    return next((s for s in range(1, cap + 1) if run_bounded(e, oracle, x, s).halted), None)


# Keyed and unkeyed oracles; the membership probe (index 6894) is the
# least index found whose halting depends on the oracle.
THRESHOLD_ORACLES = (
    EMPTY,
    ExplicitOracle([0, 2, 3]),
    CutoffJumpOracle(EMPTY, 30),
    UnkeyedOracle(lambda n: n % 2 == 0),
    UnkeyedOracle(lambda n: n < 4),
)
threshold_calls = st.lists(
    st.tuples(
        st.integers(0, 400) | st.sampled_from((1, 46, 57, PROBE)),
        st.integers(0, len(THRESHOLD_ORACLES) - 1),
        st.integers(0, 5),
        st.integers(-3, 60),
    ),
    min_size=1, max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(calls=threshold_calls, cold=st.booleans())
def test_halt_threshold_matches_uncached_reference(calls, cold):
    # Interleaved calls across oracles, from a cleared or a warm memo.
    if cold:
        clear_caches()
    for e, which, x, extra in calls:
        oracle = THRESHOLD_ORACLES[which]
        cap = e + extra
        assert halt_threshold(e, oracle, x, cap) == threshold_reference(e, oracle, x, cap)


def test_query_free_threshold_is_simulated_once_for_all_oracles(monkeypatch):
    clear_caches()
    runs = []
    real = machines._simulate
    monkeypatch.setattr(machines, "_simulate", lambda *a: runs.append(a) or real(*a))
    assert halt_threshold(HALT_INDEX, EMPTY, 0, 50) == 2
    assert halt_threshold(HALT_INDEX, ExplicitOracle([3]), 0, 50) == 2
    assert halt_threshold(HALT_INDEX, UnkeyedOracle(lambda n: True), 0, 50) == 2
    assert len(runs) == 1
    # a querying program keeps one memo entry per oracle
    q, five = PROBE, ExplicitOracle([5])
    assert halt_threshold(q, EMPTY, 5, q + 10) is None
    assert halt_threshold(q, five, 5, q + 10) == q + 1
    assert len(runs) == 3
    assert decode_program(HALT_INDEX).query_free and not decode_program(q).query_free


@settings(max_examples=100, deadline=None)
@given(e=st.integers(-1000, 5000), x=st.integers(0, 5), cap=st.integers(-50, 0))
def test_halt_threshold_is_none_at_nonpositive_cap(e, x, cap):
    if e >= 0:
        halt_threshold(e, EMPTY, x, e + 10)  # warm the memo
    assert halt_threshold(e, EMPTY, x, cap) is None
    assert halt_threshold(e, UnkeyedOracle(lambda n: True), x, cap) is None


# ---------------------------------------------------------------------------
# jumps

def test_jump_pairs_approx_stage_zero():
    assert jump_pairs_approx(EMPTY, 0) == FinSet()


def test_jump_pairs_approx_halting_program_code():
    # pair(0, e_HALT) = e_HALT enters once the stage clears its threshold
    code = pair(0, HALT_INDEX)
    assert code == HALT_INDEX
    assert code not in jump_pairs_approx(EMPTY, 2)
    for s in (3, 5, 20):
        assert code in jump_pairs_approx(EMPTY, s)


def test_jump_pairs_approx_monotone():
    prev = FinSet()
    for s in range(0, 65):
        cur = jump_pairs_approx(EMPTY, s)
        assert set(prev) <= set(cur)
        prev = cur


def test_staged_jump_single_stage_and_zero():
    assert staged_jump(EMPTY, (16,)) == jump_pairs_approx(EMPTY, 16)
    assert staged_jump(EMPTY, (0, 0)) == FinSet()
    for bad in ((), (3, -1)):
        with pytest.raises(ValueError):
            staged_jump(EMPTY, bad)


def test_staged_jump_matches_hand_unrolled():
    inner = jump_pairs_approx(EMPTY, 8)
    outer = jump_pairs_approx(ExplicitOracle(inner.elems), 16)
    assert staged_jump(EMPTY, (8, 16)) == outer


def fold_reference(oracle, stages, programs):
    current = oracle
    for u in stages:
        result = jump_pairs_approx(current, u, programs)
        current = ExplicitOracle(result.elems)
    return result


small_sets = st.frozensets(st.integers(0, 40), max_size=8)
program_lists = st.none() | st.lists(st.integers(0, 12), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    elems=small_sets,
    stages=st.lists(st.integers(0, 8), min_size=1, max_size=4),
    programs=program_lists,
    rnd=st.randoms(use_true_random=False),
)
def test_staged_jump_matches_plain_fold(elems, stages, programs, rnd):
    oracle = ExplicitOracle(elems)
    clear_caches()
    want = fold_reference(oracle, stages, programs)
    clear_caches()
    got = staged_jump(oracle, stages, programs)
    assert got == want
    assert list(staged_jump_levels(oracle, stages, programs)) == [
        fold_reference(oracle, stages[:i], programs) for i in range(1, len(stages) + 1)]
    assert staged_jump(oracle, stages, programs) == want
    if programs is not None:
        shuffled = list(programs)
        rnd.shuffle(shuffled)
        assert staged_jump(oracle, stages, shuffled) == want
        # a pre-keyed set shares the cache entries of the plain list
        assert staged_jump(oracle, stages, ProgramSet(shuffled)) == want
        clear_caches()
        assert staged_jump(oracle, stages, ProgramSet(programs)) == want
    # an unkeyed oracle with the same members takes the uncached path
    assert staged_jump(UnkeyedOracle(oracle.member), stages, programs) == want


def test_program_set_key_is_computed_once(monkeypatch):
    progs = ProgramSet([9, 3, 3, 5])
    assert progs == {3, 5, 9}
    staged_jump(EMPTY, (4, 3), progs)
    interned = []
    real = machines._content_token
    monkeypatch.setattr(machines, "_content_token",
                        lambda elems: interned.append(elems) or real(elems))
    for _ in range(3):
        staged_jump(EMPTY, (4, 3), progs)
        jump_pairs_approx(EMPTY, 4, progs)
    assert interned == []
    staged_jump(EMPTY, (4, 3), [9, 3, 5])
    assert interned[-1] == (3, 5, 9)  # a plain list is keyed on every call


@settings(max_examples=60, deadline=None)
@given(elems=small_sets, s=st.integers(0, 12), programs=program_lists)
def test_jump_pairs_approx_monotone_property(elems, s, programs):
    oracle = ExplicitOracle(elems)
    lower = jump_pairs_approx(oracle, s, programs)
    assert set(lower) <= set(jump_pairs_approx(oracle, s + 1, programs))


def code_in_jump(oracle, s, c, programs=None):
    # Reference: probe every decomposition c = pair(m, e) = m(m+1)/2 + e.
    m = 0
    while m * (m + 1) // 2 <= c:
        e = c - m * (m + 1) // 2
        if programs is None or e in programs:
            tau = halt_threshold(e, oracle, m, s - 1) if s > 0 else None
            if tau is not None:
                return True
        m += 1
    return False


@settings(max_examples=80, deadline=None)
@given(elems=small_sets, s=st.integers(0, 14), programs=program_lists)
def test_jump_loop_matches_probe_reference(elems, s, programs):
    oracle = ExplicitOracle(elems)
    progset = None if programs is None else set(programs)
    clear_caches()
    want = FinSet(c for c in range(pair(s, 0)) if code_in_jump(oracle, s, c, progset))
    clear_caches()
    assert jump_pairs_approx(oracle, s, programs) == want
    # the unkeyed path runs the same loop
    assert jump_pairs_approx(UnkeyedOracle(oracle.member), s, programs) == want


def test_clear_caches_forgets_content_tokens():
    ExplicitOracle((1, 2, 3))
    clear_caches()
    assert machines._CONTENT_TOKENS == {}
    five = ExplicitOracle((5,))
    assert five.key != EMPTY.key
    q, cap = PROBE, 10 ** 4
    assert halt_threshold(q, EMPTY, 5, cap) is None
    assert halt_threshold(q, five, 5, cap) == q + 1


def test_least_querying_index_is_read_off_decoded_programs():
    q = machines._least_querying_index()
    assert not decode_program(q).query_free
    assert all(decode_program(e).query_free for e in range(q))
    assert decode_program(q) == Program([(QUERY, 0, 0)])
    clear_caches()
    assert machines._least_querying_index.cache_info().currsize == 0


def test_jump_halt0_members():
    j = CutoffJumpOracle(EMPTY, 100)
    assert j.member(HALT_INDEX)
    assert not j.member(0)  # empty program diverges by convention
    with pytest.raises(ValueError):
        CutoffJumpOracle(EMPTY, 0)


def test_jump_halt0_monotone_in_cutoff():
    rng = random.Random(29)
    for _ in range(100):
        e = rng.randrange(0, 2000)
        lo, hi = 50, 500
        if CutoffJumpOracle(EMPTY, lo).member(e):
            assert CutoffJumpOracle(EMPTY, hi).member(e)


# ---------------------------------------------------------------------------
# many-one reductions

def test_mone_identity_and_validation():
    assert mone_reduction(3, 3, 14) == 14
    with pytest.raises(ValueError):
        mone_reduction(4, 2, 1)


def test_mone_halt0_flavor():
    X = ExplicitOracle([3])
    f3 = mone_reduction(0, 1, 3)
    f4 = mone_reduction(0, 1, 4)
    assert CutoffJumpOracle(X, f3 + 10 ** 4).member(f3)
    assert not CutoffJumpOracle(X, f4 + 10 ** 4).member(f4)


def test_mone_halt0_desk_scale_guard():
    with pytest.raises(ValueError):
        mone_reduction(0, 1, 10 ** 6)


# ---------------------------------------------------------------------------
# concurrency smoke test

def test_cutoff_jump_shared_across_threads():
    j = CutoffJumpOracle(EMPTY, 500)
    results = {}

    def probe(lo, hi, slot):
        results[slot] = [j.member(e) for e in range(lo, hi)]

    threads = [
        threading.Thread(target=probe, args=(0, 40, i)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(results[i] == results[0] for i in range(4))


def test_unlocked_caches_agree_under_thread_switching():
    # Racing threads may lose memo writes, which only costs re-runs: no
    # answer changes and one set content never gets two tokens.
    cases = [(e, x, cap) for e in range(0, 400, 3) for x in (0, 3) for cap in (5, 40, 200)]
    oracles = (EMPTY, ExplicitOracle([0, 3]))
    want = [[threshold_reference(e, o, x, cap) for e, x, cap in cases] for o in oracles]
    clear_caches()
    results, keys = {}, {}

    def work(slot):
        oracle = EMPTY if slot % 2 == 0 else ExplicitOracle([0, 3])
        keys[slot] = oracle.key
        order = cases if slot % 4 < 2 else cases[::-1]
        got = {c: halt_threshold(c[0], oracle, c[1], c[2]) for c in order}
        results[slot] = [got[c] for c in cases]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == want[i % 2] for i in range(8))
    assert len({keys[i] for i in range(1, 8, 2)}) == 1
