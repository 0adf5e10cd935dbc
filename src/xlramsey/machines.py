"""Toy oracle machines under a total program numbering.

The machine is a 4-register counter machine with one oracle-query
instruction.  Registers hold naturals; the input arrives in register 0
and the output is register 0 at HALT.  ``QUERY r`` replaces the value of
r by 1 if that value is a member of the oracle, else 0.  Decoding is a
total bijection between naturals and instruction sequences, so "index e"
ranges over all naturals; index 0 is the empty program, which diverges
by convention (the program counter leaves the program and never halts).

Step-bounded runs follow the convention that a run halts under bound s
only when the index, input, and output are all below s, the run takes
fewer than s steps, and every register value (hence every queried value)
stays below s.  This makes halting-under-s decidable, monotone in s, and
dependent on the oracle only through values below s.

Two jump flavors are provided and never mixed implicitly:

* pair-coded jumps: stage-s sets of codes ``pair(m, e)`` with m in the
  stage-s domain of program e;
* halt-on-0 jumps: cutoff-semantic sets of indices that halt on input 0.

Divergence is detected early where possible (program counter out of
range, repeated machine state via Brent's cycle finding); otherwise runs
are cut off at the requested bound.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Optional

from .largesets import FinSet

REGISTERS = 4

# Opcodes in instruction-code order: code 0 is HALT, codes 1-12 are INC,
# DEC and QUERY on registers 0-3, and codes from 13 on are JZ.  An
# instruction is a triple (op, reg, off); operands an op does not read
# are 0.
HALT, INC, DEC, QUERY, JZ = range(5)
_OPS = ("HALT", "INC", "DEC", "QUERY", "JZ")
_ARITY = (0, 1, 1, 1, 2)


# ---------------------------------------------------------------------------
# pairing

def pair(x: int, y: int) -> int:
    """Diagonal pairing x(x+1)/2 + y.

    Bijective from {(x, y) : y <= x} onto N, with x read as the diagonal
    index.  Total on all pairs; off the canonical domain distinct inputs
    can share a code, so consumers always speak in codes.
    """
    return x * (x + 1) // 2 + y


def unpair(n: int) -> tuple[int, int]:
    """Inverse of ``pair`` on the canonical domain, via triangular root."""
    x = (isqrt(8 * n + 1) - 1) // 2
    return x, n - x * (x + 1) // 2


# ---------------------------------------------------------------------------
# instruction and program coding

class Program:
    """An immutable instruction sequence with its numeric index.

    Instructions are (op, reg, off) triples of integers, op one of HALT,
    INC, DEC, QUERY, JZ; the machine runs them as they are.
    ``query_free`` is true when no instruction is a QUERY, so the program
    runs the same under every oracle.
    """

    __slots__ = ("instructions", "query_free")

    def __init__(self, instructions: Iterable[tuple] = ()):
        ins = tuple(tuple(i) for i in instructions)
        for i in ins:
            if len(i) != 3 or i[0] not in range(len(_OPS)):
                raise ValueError(f"not an (op, reg, off) instruction: {i!r}")
            op, reg, off = i
            if not 0 <= reg < REGISTERS:
                raise ValueError(f"register out of range: {_OPS[op]} {reg}")
            if any((reg, off)[_ARITY[op]:]):
                raise ValueError(f"{_OPS[op]} takes {_ARITY[op]} operand(s): {i!r}")
        self._hold(ins)

    def _hold(self, ins: tuple) -> None:
        self.instructions = ins
        self.query_free = all(op != QUERY for op, _, _ in ins)

    @property
    def index(self) -> int:
        return encode_program(self)

    def render(self) -> str:
        return "\n".join(
            " ".join(map(str, (_OPS[op], reg, off)[: 1 + _ARITY[op]]))
            for op, reg, off in self.instructions
        )

    @classmethod
    def parse(cls, text: str) -> "Program":
        ins = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, *operands = line.split()
            op = _OPS.index(name.upper()) if name.upper() in _OPS else None
            if op is None or len(operands) != _ARITY[op]:
                raise ValueError(f"bad instruction: {raw!r}")
            reg, off = [int(v) for v in operands] + [0] * (2 - len(operands))
            ins.append((op, reg, off))
        return cls(ins)

    def __eq__(self, other) -> bool:
        return isinstance(other, Program) and self.instructions == other.instructions

    def __repr__(self) -> str:
        body = ", ".join(f"({_OPS[op]}, {reg}, {off})" for op, reg, off in self.instructions)
        return f"Program([{body}])"


def encode_program(program: Program) -> int:
    """0 for the empty program, else 1 + pair(h + r, r): h the head's code, r the rest's index."""
    code = 0
    for op, reg, off in reversed(program.instructions):
        z = 2 * off if off >= 0 else -2 * off - 1  # zigzag: 0, -1, 1, ... to 0, 1, 2, ...
        h = 0 if op == HALT else 1 + reg + 4 * (op - 1 + z)
        d = h + code
        code = d * (d + 1) // 2 + code + 1
    return code


@lru_cache(maxsize=65536)
def decode_program(e: int) -> Program:
    """The program of index e; the inverse of ``encode_program``."""
    if e < 0:
        raise ValueError("index must be a natural")
    ins = []
    while e:
        # e - 1 = pair(d, e') with d = h + e'; isqrt keeps it exact past 2**53.
        n = e - 1
        d = (isqrt(8 * n + 1) - 1) // 2
        e = n - d * (d + 1) // 2
        h = d - e
        q, reg = divmod(h - 1, 4)
        if h == 0:
            ins.append((HALT, 0, 0))
        elif q < 3:
            ins.append((q + 1, reg, 0))
        else:
            z = q - 3  # the zigzag of the jump offset
            ins.append((JZ, reg, z // 2 if z % 2 == 0 else -(z + 1) // 2))
    # Every code decodes to a valid instruction, so no check is needed.
    program = Program.__new__(Program)
    program._hold(tuple(ins))
    return program


@lru_cache(maxsize=1)
def _least_querying_index() -> int:
    # Every program below the least index with a QUERY runs the same
    # under every oracle.
    return next(e for e in itertools.count() if not decode_program(e).query_free)


@lru_cache(maxsize=1)
def _least_late_index() -> int:
    # The least index e whose program neither diverges nor halts on input
    # 0 within e steps and values (threshold at most e + 1), else the least
    # querying index: below it every program halts that soon or never.
    querying = _least_querying_index()
    return next((e for e in range(querying) if _simulate(
        decode_program(e).instructions, EMPTY, 0, e)[0] == "cap"), querying)


def load_program_universe(path) -> list[Program]:
    """Read a program-universe file: blocks separated by blank lines.

    A block that is a single decimal number names a program by index;
    any other block is parsed as instruction text.  '#' starts a comment.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    programs = []
    for block in text.split("\n\n"):
        lines = [ln.split("#", 1)[0].strip() for ln in block.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines:
            continue
        if len(lines) == 1 and lines[0].isdigit():
            programs.append(decode_program(int(lines[0])))
        else:
            programs.append(Program.parse("\n".join(lines)))
    return programs


# ---------------------------------------------------------------------------
# oracles

class OracleSet:
    """A pure membership predicate on naturals.

    Implementations must be deterministic and side-effect-free; repeated
    queries agree.  ``key`` is a hashable structural identity used by the
    run caches, or None when the oracle cannot be keyed.
    """

    def member(self, n: int) -> bool:
        raise NotImplementedError

    @property
    def key(self):
        return None


class ExplicitOracle(OracleSet):
    """Membership in an explicit finite set, keyed by its contents."""

    def __init__(self, elems: Iterable[int] = ()):
        self.elems = tuple(sorted(set(elems)))
        self._set = frozenset(self.elems)
        self._key = self.key_of(self._set)

    @staticmethod
    def key_of(elems: Iterable[int]) -> tuple:
        """The key of the oracle on these elements: a frozenset, whose
        hash is computed once, so a cache lookup under it is O(1)."""
        return ("fin", frozenset(elems))

    def member(self, n: int) -> bool:
        return n in self._set

    @property
    def key(self):
        return self._key

    def __repr__(self) -> str:
        return f"ExplicitOracle({list(self.elems)!r})"


EMPTY = ExplicitOracle(())


class CutoffJumpOracle(OracleSet):
    """Halt-on-0 jump with cutoff semantics: e is in iff {e} with the
    base oracle halts on input 0 under the cutoff bound."""

    def __init__(self, base: OracleSet, cutoff: int):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.base, self.cutoff = base, cutoff

    def member(self, e: int) -> bool:
        return halt_threshold(e, self.base, 0, self.cutoff) is not None

    @property
    def key(self):
        kb = self.base.key
        return None if kb is None else ("halt0", kb, self.cutoff)


# ---------------------------------------------------------------------------
# bounded runs

class RunOutcome(NamedTuple):
    """Result of a step-bounded run; value is None when the bound was
    exceeded (divergence is a value here, not an error)."""

    value: Optional[int]
    steps_used: int
    max_value_seen: int

    @property
    def halted(self) -> bool:
        return self.value is not None


def _simulate(instructions, oracle: OracleSet, x: int, step_cap: int):
    """Run until HALT, detected divergence, or a cap.

    Returns (status, steps, maxval, y) with status one of "halt",
    "diverge" (pc left the program or the state cycled), or "cap"
    (step_cap steps taken or an INC past step_cap; behavior beyond is
    unknown).
    """
    n = len(instructions)
    r = [x, 0, 0, 0]
    pc = 0
    steps = 0
    maxval = x
    # Brent cycle detection: compare against a saved state, resaving at
    # powers of two.  Sound because runs are deterministic.
    saved = (0, x, 0, 0, 0)
    power = 1
    lam = 0
    while True:
        if pc < 0 or pc >= n:
            return ("diverge", steps, maxval, None)
        if steps >= step_cap:
            return ("cap", steps, maxval, None)
        op, reg, off = instructions[pc]
        steps += 1
        if op == HALT:
            return ("halt", steps, maxval, r[0])
        if op == INC:
            v = r[reg] + 1
            if v > step_cap:
                return ("cap", steps, maxval, None)
            r[reg] = v
            if v > maxval:
                maxval = v
            pc += 1
        elif op == DEC:
            if r[reg]:
                r[reg] -= 1
            pc += 1
        elif op == JZ:
            pc = pc + off if r[reg] == 0 else pc + 1
        else:  # QUERY
            v = 1 if oracle.member(r[reg]) else 0
            r[reg] = v
            if v > maxval:
                maxval = v
            pc += 1
        state = (pc, r[0], r[1], r[2], r[3])
        if state == saved:
            return ("diverge", steps, maxval, None)
        lam += 1
        if lam == power:
            saved = state
            power *= 2
            lam = 0


def run_bounded(e: int, oracle: OracleSet, x: int, s: int) -> RunOutcome:
    """Step-bounded run of program e on input x.

    Halts with value y iff e, x, y < s, s > 0, the run takes fewer than
    s steps, and every register value stays below s.  Anything else is
    an exceeded-bound outcome.
    """
    if s <= 0 or e >= s or x >= s:
        return RunOutcome(None, 0, x)
    status, steps, maxval, y = _simulate(
        decode_program(e).instructions, oracle, x, s - 1
    )
    if status == "halt":
        return RunOutcome(y, steps, maxval)
    return RunOutcome(None, steps, maxval)


_THRESHOLD_CACHE: dict[tuple, tuple[int, Optional[int]]] = {}
# key -> (checked_cap, tau); tau None means "no halt found up to checked_cap".
# checked_cap == -1 marks a definite diverger (valid at every cap).  A
# query-free program is keyed (e, x), a querying one (oracle key, e, x).
# The caches take no lock: every entry is a true fact about its run, so a
# write lost to a racing thread only costs a later re-simulation.


def halt_threshold(e: int, oracle: OracleSet, x: int, cap: int) -> Optional[int]:
    """Least bound s <= cap under which run_bounded(e, oracle, x, s)
    halts, or None if there is none up to cap (always None for cap <= 0).

    The threshold is max(e, x, y, steps, values) + 1 for a halting run,
    so one simulation answers every bound at once.  Results are memoized
    per (e, x) when program e has no QUERY instruction, since the run
    then never reads the oracle, and per (oracle key, e, x) otherwise
    when the oracle is keyable.
    """
    if cap <= 0:
        return None
    mkey = (e, x)
    entry = _THRESHOLD_CACHE.get(mkey)
    if entry is None and not decode_program(e).query_free:
        okey = oracle.key
        mkey = None if okey is None else (okey, e, x)
        entry = _THRESHOLD_CACHE.get(mkey)
    if entry is None or (entry[1] is None and 0 <= entry[0] < cap):
        status, steps, maxval, y = _simulate(
            decode_program(e).instructions, oracle, x, cap - 1
        )
        if status == "halt":
            entry = (cap, max(e, x, y, steps, maxval) + 1)
        elif status == "diverge":
            entry = (-1, None)
        else:
            entry = (cap, None)
        if mkey is not None:
            _THRESHOLD_CACHE[mkey] = entry
    tau = entry[1]
    return tau if tau is not None and tau <= cap else None


def clear_caches() -> None:
    """Drop all memoized run and jump data and the decoded programs."""
    _THRESHOLD_CACHE.clear()
    _JUMP_CACHE.clear()
    decode_program.cache_clear()
    _least_querying_index.cache_clear()
    _least_late_index.cache_clear()


# ---------------------------------------------------------------------------
# jumps

_JUMP_CACHE: dict[tuple, tuple] = {}  # staged-jump steps, see staged_jump_levels


def jump_pairs_approx(oracle: OracleSet, s: int, programs=None) -> FinSet:
    """Stage-s pair-coded jump: all codes pair(m, e) such that m enters
    the domain of program e over the oracle at some stage t < s.

    Monotone nondecreasing in s.  ``programs`` optionally restricts the
    contributing indices e to a curated finite list.  Only m, e < s can
    halt under bound s - 1, so the loop visits those pairs alone.
    """
    es = range(s) if programs is None else sorted(e for e in set(programs) if 0 <= e < s)
    codes = set()
    for m in range(s):
        base = pair(m, 0)
        for e in es:
            if halt_threshold(e, oracle, m, s - 1) is not None:
                codes.add(base + e)
    return FinSet(sorted(codes))


def staged_jump_levels(oracle: OracleSet, stages, programs=None) -> Iterator[FinSet]:
    """The staged jump after each stage in turn, innermost first: level
    i is the stage-u pair-coded jump over level i-1, the base oracle
    being level 0.  Lazy, so a caller that stops early folds no further.

    A step is memoized in the jump cache under (previous level's oracle
    key, stage, program set as a frozenset) with its result's oracle
    key, so a hit is one lookup and builds no oracle.  A step at a stage
    of at most the least querying index runs only query-free programs,
    all below the stage, so its jump set is the same over every oracle:
    it is keyed (stage, program set), as ``halt_threshold`` keys a
    query-free run (e, x).  Over an oracle without a key the first step
    runs afresh.
    """
    pkey = None if programs is None else frozenset(programs)
    blind = _least_querying_index()
    over, okey = oracle, oracle.key
    for u in stages:
        ckey = None if okey is None else (u, pkey) if u <= blind else (okey, u, pkey)
        step = None if ckey is None else _JUMP_CACHE.get(ckey)
        if step is None:
            if over is None:
                over = ExplicitOracle(result.elems)
            result = jump_pairs_approx(over, u, programs)
            step = (result, ExplicitOracle.key_of(result.elems))
            if ckey is not None:
                _JUMP_CACHE[ckey] = step
        result, okey = step
        over = None
        yield result


def staged_jump(oracle: OracleSet, stages, programs=None) -> FinSet:
    """Fold the pair-coded jump along a nonempty list of natural stages,
    innermost first: the last of ``staged_jump_levels``."""
    stages = tuple(stages)
    if not stages:
        raise ValueError("stage list must be nonempty")
    if any(u < 0 for u in stages):
        raise ValueError("stages must be naturals")
    *_, last = staged_jump_levels(oracle, stages, programs)
    return last


# ---------------------------------------------------------------------------
# many-one reductions between jump levels

# The membership probe: halts on input m iff m is in the oracle;
# otherwise spins forever.
_PROBE = ((QUERY, 0, 0), (JZ, 0, 0), (HALT, 0, 0))

# The most INCs a reduction step loads: m INCs before the probe give an index
# of about 12 * 2**m bits (770,158 at m = 16), so m is bounded, not the index.
_REDUCTION_LIMIT = 16


def mone_reduction(i: int, j: int, m: int) -> int:
    """Map m through the level-raising reduction from halt-on-0 jump
    level i to j: one step sends m to the index of a program that loads
    m, probes the oracle, and halts exactly on membership.  Rejects
    i > j.
    """
    if i > j:
        raise ValueError("reduction requires i <= j")
    for _ in range(j - i):
        if m > _REDUCTION_LIMIT:
            # An index above 14,000 bits is named by its length: its
            # digits may pass the interpreter's integer-string limit
            # (4,300 by default), so printing them depends on a setting.
            name = m if m.bit_length() <= 14_000 else f"a {m.bit_length()}-bit index"
            raise ValueError(
                f"halt0 reduction of {name} exceeds the desk-scale program size limit"
            )
        m = Program(((INC, 0, 0),) * m + _PROBE).index
    return m
