"""Reading jump information back out of homogeneous tuples.

The level-n decoder is total on every well-typed input; its verdicts are
only guaranteed to match the true jump when the tuple comes from a
homogeneous set of the matching coloring, so every experiment checks
verdicts against cutoff-semantic ground truth.

Ground truth for "really halts" is halting within a global cutoff
(default ``DEFAULT_TRUTH_CUTOFF`` = 10**6 steps; the CLI takes another
through ``--truth-cutoff`` or the config key ``truth-cutoff``) on
curated program universes whose halters all stop within 10**3 steps;
the gap makes cutoff truth reliable.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .largesets import FinSet, enumerate_exactly_large
from .machines import (
    CutoffJumpOracle,
    OracleSet,
    ProgramSet,
    halt_threshold,
    mone_reduction,
    staged_jump,
)

DEFAULT_TRUTH_CUTOFF = 10 ** 6


def _halts(e: int, oracle: OracleSet, bound: int) -> bool:
    return halt_threshold(e, oracle, 0, bound) is not None


def _no_threshold_in(k: int, oracle: OracleSet, lo: int, hi: int) -> bool:
    """True when no index e <= k halts on input 0 under bound hi but not
    under bound lo, that is, none has its threshold in (lo, hi].

    The threshold is the least halting bound, so one call per index at
    bound hi answers both bounds.
    """
    for e in range(k + 1):
        tau = halt_threshold(e, oracle, 0, hi)
        if tau is not None and tau > lo:
            return False
    return True


class DecodeVerdict(NamedTuple):
    """One decoded membership answer.

    ``answer`` is None for an explicit insufficient-data verdict;
    ``truth`` and ``consistent`` are None unless cutoff ground truth was
    requested.
    """

    query: tuple
    answer: Optional[bool]
    tuple_used: Optional[FinSet] = None
    truth: Optional[bool] = None
    consistent: Optional[bool] = None
    note: str = ""

    def row(self) -> dict:
        i, j = self.query
        return {
            "level": i,
            "element": j,
            "answer": "" if self.answer is None else int(self.answer),
            "truth": "" if self.truth is None else int(self.truth),
            "consistent": "" if self.consistent is None else int(self.consistent),
            "tuple": self.tuple_used.render() if self.tuple_used else "",
            "note": self.note,
        }


def m2_decode(e: int, triple, A: OracleSet) -> bool:
    """Search for a halt-on-0 computation of e below the middle bound.

    Decides the first jump of A up to k whenever (k, b, b') extends into
    a homogeneous set of the matching capture-mode coloring.
    """
    return mn_decode(2, e, triple, A)


class _ApproxJumpOracle(OracleSet):
    """The decoder-built oracle: elements up to the first tuple entry
    whose one-level-down verdict accepts.  Lazy and memoized."""

    def __init__(self, level: int, tpl: tuple, A: OracleSet):
        self.level, self.tpl, self.A = level, tpl, A
        self._memo: dict[int, bool] = {}

    def member(self, i: int) -> bool:
        if i > self.tpl[0]:
            return False
        hit = self._memo.get(i)
        if hit is None:
            hit = mn_raw(self.level, i, self.tpl, self.A)
            self._memo[i] = hit
        return hit

    @property
    def key(self):
        ka = self.A.key
        return None if ka is None else ("mnY", self.level, ka, self.tpl)


def mn_raw(n: int, e: int, tpl, A: OracleSet) -> bool:
    """Level-n verdict without the index guard.

    Grounded at the level-2 search; above that, builds the approximated
    oracle from the tail tuple and checks bounded halting against it.
    Total on every input; no correctness contract off homogeneous sets.
    """
    tpl = tuple(tpl)
    if n < 2:
        raise ValueError("decoder levels start at 2")
    if len(tpl) != n + 1:
        raise ValueError(f"level {n} needs an {n + 1}-tuple, got {tpl}")
    if any(a >= b for a, b in zip(tpl, tpl[1:])):
        raise ValueError(f"tuple must increase: {tpl}")
    if n == 2:
        return _halts(e, A, tpl[1])
    y = _ApproxJumpOracle(n - 1, tpl[1:], A)
    return _halts(e, y, tpl[1])


def mn_decode(n: int, e: int, tpl, A: OracleSet) -> bool:
    """Level-n decoder with the published index guard e <= a1."""
    tpl = tuple(tpl)
    if e > tpl[0]:
        raise ValueError(f"index {e} above the tuple's guard {tpl[0]}")
    return mn_raw(n, e, tpl, A)


def halt0_tower_member(A: OracleSet, level: int, j: int, cutoff: int) -> bool:
    """Cutoff ground truth for "j is in the level-th halt-on-0 jump of A"."""
    if level == 0:
        return A.member(j)
    oracle = A
    for _ in range(level - 1):
        oracle = CutoffJumpOracle(oracle, cutoff)
    return _halts(j, oracle, cutoff)


def adequate_tuple(H: FinSet, above: int) -> Optional[tuple]:
    """The exactly large tuple drawn from H whose minimum is the least
    element above ``above``: the minimum plus the next min-many
    elements.  None when H is too short.
    """
    elems = H.elems
    for idx, a1 in enumerate(elems):
        if a1 > above and a1 >= 2:
            tail = elems[idx + 1:]
            if len(tail) < a1:
                return None
            return (a1,) + tail[:a1]
    return None


def m_decode(
    i: int,
    j: int,
    H: FinSet,
    A: OracleSet,
    truth_cutoff: Optional[int] = None,
) -> DecodeVerdict:
    """Top-level reader for queries "is j in the i-th jump of A".

    Finds the least adequate element of H above i and j, gathers that
    many following elements, maps j down the halt-on-0 reduction to the
    tuple's decoder level, and dispatches.  H too short (or a reduction
    past the desk-scale size limit) yields an insufficient-data verdict.
    """
    tpl = adequate_tuple(H, max(i, j))
    if tpl is None:
        return DecodeVerdict((i, j), None, note="insufficient data: H too short")
    a1 = tpl[0]
    try:
        e = mone_reduction(i, a1 - 1, j)
    except ValueError as exc:
        return DecodeVerdict((i, j), None, FinSet(tpl), note=f"insufficient data: {exc}")
    answer = mn_raw(a1, e, tpl, A)
    truth = consistent = None
    if truth_cutoff is not None:
        truth = halt0_tower_member(A, i, j, truth_cutoff)
        consistent = answer == truth
    return DecodeVerdict((i, j), answer, FinSet(tpl), truth, consistent)


# ---------------------------------------------------------------------------
# reconstruction from disagreement-hardness witnesses

class LevelReconstruction(NamedTuple):
    level: int
    members: FinSet
    covered_below: int


class DhReconstruction(NamedTuple):
    levels: tuple[LevelReconstruction, ...]
    partial: bool
    uncovered: dict


def _lex_least_tuple(H: FinSet, h: int, bound_index: int, code: int) -> Optional[tuple]:
    # First (lexicographically) exactly large subset of H with minimum h
    # whose entry at bound_index exceeds code.  Streams the enumeration;
    # sets with minimum above h cannot appear before those with h, so
    # this stops early.
    for S in enumerate_exactly_large(H):
        m = S.min()
        if m < h:
            continue
        if m > h:
            return None
        if S.elems[bound_index] > code:
            return S.elems
    return None


def dh_reconstruct(
    H: FinSet,
    h: int,
    X: OracleSet,
    programs=None,
    code_bound: Optional[int] = None,
) -> DhReconstruction:
    """Rebuild the staged jump levels encoded by a homogeneous set of the
    disagreement coloring.

    For each level i in [1, n) with h = 2n, membership of a code is read
    off the staged jump along the lexicographically least exactly large
    tuple in H (minimum h) whose relevant entry bounds the code.  Levels
    are reported with the range of codes they cover; an explicit partial
    result lists what a larger H would have been needed for.
    """
    if h % 2 != 0:
        raise ValueError("h must be even")
    if h not in H:
        raise ValueError(f"{h} is not an element of H")
    if any(x % 2 for x in H.elems):
        raise ValueError("H must consist of even numbers")
    n = h // 2
    above = H.above(h).elems
    programs = None if programs is None else ProgramSet(programs)

    base_probe = code_bound if code_bound is not None else (max(H.elems) if H.elems else 0)
    level0 = FinSet([c for c in range(base_probe) if X.member(c)])
    levels = [LevelReconstruction(0, level0, base_probe)]
    uncovered: dict[int, tuple[int, int]] = {}

    for i in range(1, n):
        # a_{n-i} sits at index n-i-1 among the elements above h and must
        # leave n+i elements after it to complete the tuple.
        pos_above = n - i - 1
        idx = len(above) - (n + i) - 1
        coverage = above[idx] if idx >= pos_above else 0
        want = coverage if code_bound is None else min(coverage, code_bound)
        members = []
        for c in range(want):
            tpl = _lex_least_tuple(H, h, n - i, c)
            if tpl is None:
                coverage = want = c
                break
            stages = tuple(reversed(tpl[n - i + 1: n + 1]))
            jump = staged_jump(X, stages, programs)
            if c in jump:
                members.append(c)
        levels.append(LevelReconstruction(i, FinSet(members), want))
        target = code_bound if code_bound is not None else None
        if target is not None and want < target:
            uncovered[i] = (want, target)
        elif coverage == 0:
            uncovered[i] = (0, 0)
    partial = bool(uncovered)
    return DhReconstruction(tuple(levels), partial, uncovered)
