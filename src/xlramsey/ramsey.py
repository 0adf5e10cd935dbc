"""Search, extraction, and verification for homogeneous sets.

The verifiers here are the ground truth for every other module: they
are pure enumerations with no shared search state, so a Witness marked
verified has actually been re-checked against them.  All infinitary
questions (does a branch extend forever, does a color class recur) are
answered by budgeted search with the budget recorded in the witness, so
every run is reproducible and every approximation visible.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import combinations, repeat
from math import comb
from operator import eq
from typing import NamedTuple, Optional

from .colorings import ExactColoring, FiniteColoring, _pigeonhole, _Subsets
from .largesets import FinSet, enumerate_exactly_large


class _BudgetFields(NamedTuple):
    max_universe: int
    max_candidates: int


class SearchBudget(_BudgetFields):
    """Caps the finite searches standing in for infinitary questions."""

    __slots__ = ()

    def __new__(cls, max_universe: int = 128, max_candidates: int = 1_000_000):
        if max_universe <= 0 or max_candidates <= 0:
            raise ValueError("budget bounds must be positive")
        return super().__new__(cls, max_universe, max_candidates)


DEFAULT_BUDGET = SearchBudget()


# The version a witness's "schema" field names, and the kinds it may be.
WITNESS_SCHEMA = "xlramsey.witness/1"
WITNESS_KINDS = ("homogeneous", "min-homogeneous", "chain")


class _WitnessFields(NamedTuple):
    set: FinSet
    kind: str  # "homogeneous" | "min-homogeneous" | "chain"
    color: Optional[int]
    per_min_colors: Optional[dict[int, int]]
    verified: bool
    budget_used: dict


class Witness(_WitnessFields):
    """A found set together with its color data and verification state.

    ``verified`` is only set after the matching verifier has passed.
    Each witness built without ``budget_used`` gets a fresh dict.
    """

    __slots__ = ()

    def __new__(cls, set: FinSet, kind: str, color: Optional[int] = None,
                per_min_colors: Optional[dict[int, int]] = None,
                verified: bool = False, budget_used: Optional[dict] = None):
        return super().__new__(cls, set, kind, color, per_min_colors, verified,
                               {} if budget_used is None else budget_used)

    def to_dict(self) -> dict:
        return {
            "schema": WITNESS_SCHEMA,
            "kind": self.kind,
            "set": list(self.set.elems),
            "color": self.color,
            "per_min": (
                None
                if self.per_min_colors is None
                else {str(k): v for k, v in sorted(self.per_min_colors.items())}
            ),
            "verified": self.verified,
            "budget": self.budget_used,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Witness":
        if not (isinstance(d, dict) and isinstance(d.get("set"), list) and "kind" in d):
            raise ValueError("a witness needs a 'set' list and a 'kind'")
        if d["kind"] not in WITNESS_KINDS:
            raise ValueError(f"unknown witness kind: {d['kind']!r}")
        if d.get("schema", WITNESS_SCHEMA) != WITNESS_SCHEMA:
            raise ValueError(f"unknown witness schema: {d['schema']!r}")
        color, per_min = d.get("color"), d.get("per_min")
        verified, budget = d.get("verified", False), d.get("budget", {})
        for key, value, ok, want in (
                ("color", color, type(color) in (int, type(None)), "an integer or null"),
                ("per_min", per_min, per_min is None or type(per_min) is dict and all(
                    k.isascii() and k.isdigit() and type(v) is int for k, v in per_min.items()),
                 "null or an object from naturals to integers"),
                ("verified", verified, type(verified) is bool, "true or false"),
                ("budget", budget, type(budget) is dict, "an object")):
            if not ok:
                raise ValueError(f"witness field {key!r} must be {want}, got {value!r}")
        return cls(
            set=FinSet(d["set"]),
            kind=d["kind"],
            color=color,
            per_min_colors=None if per_min is None else {int(k): v for k, v in per_min.items()},
            verified=verified,
            budget_used=budget,
        )


class SearchResult(NamedTuple):
    """Outcome of an exhaustive search; a None witness together with
    exhaustive=True is a certificate that the whole space was scanned."""

    witness: Optional[Witness]
    examined: int
    exhaustive: bool


# ---------------------------------------------------------------------------
# verifiers (the independent oracles)

class VerifyReport(NamedTuple):
    passed: bool
    kind: str
    checked: int
    color: Optional[int] = None
    per_min: Optional[dict[int, int]] = None
    counterexample: Optional[tuple] = None

    def to_dict(self) -> dict:
        ce = None
        if self.counterexample:
            a, ca, b, cb = self.counterexample
            ce = {"set_a": list(a), "color_a": ca, "set_b": list(b), "color_b": cb}
        return {
            "passed": self.passed,
            "kind": self.kind,
            "checked": self.checked,
            "color": self.color,
            "per_min": (
                None if self.per_min is None
                else {str(k): v for k, v in sorted(self.per_min.items())}
            ),
            "counterexample": ce,
        }


def _verify(H: FinSet, c: ExactColoring, by_min: bool) -> VerifyReport:
    kind = "min-homogeneous" if by_min else "homogeneous"
    seen: dict = {}  # minimum (or None) -> (color, first set with it)
    checked = 0
    for s in enumerate_exactly_large(H):
        v = c(s)
        checked += 1
        key = s.min() if by_min else None
        prev = seen.get(key)
        if prev is None:
            seen[key] = (v, s.elems)
        elif prev[0] != v:
            return VerifyReport(False, kind, checked,
                                counterexample=(prev[1], prev[0], s.elems, v))
    colors = {m: v for m, (v, _) in seen.items()}
    return VerifyReport(True, kind, checked, color=None if by_min else colors.get(None),
                        per_min=colors if by_min else None)


def verify_exact_homogeneous(H: FinSet, c: ExactColoring) -> VerifyReport:
    """Stream every exactly large subset of H and demand one color.
    A set with no exactly large subsets passes vacuously."""
    return _verify(H, c, by_min=False)


def verify_min_homogeneous(H: FinSet, c: ExactColoring) -> VerifyReport:
    """Stream every exactly large subset of H and demand that color
    depend only on the minimum."""
    return _verify(H, c, by_min=True)


# ---------------------------------------------------------------------------
# exhaustive search

def _first_subset(elems: tuple, k: int, new_subsets, by_min: bool, c):
    """The lexicographically first k-subset of elems on which c's colors
    agree (one color per minimum when by_min, else one in all), as
    (subset or None, examined, its colors keyed by minimum or None).

    Agreement is hereditary, so a depth-first search over prefixes that
    appends a larger element x colors only ``new_subsets(prefix, x)``,
    the subsets containing x.  The k-subsets of a failing prefix are
    skipped but counted, as a plain lexicographic scan counts them.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n, examined = len(elems), 0
    prefix, j = [], 0
    stack = [(-1, {})]  # per prefix length: (index of its last element, colors)
    read = c.read
    while True:
        p = len(prefix)
        if p == k:
            return tuple(prefix), examined + 1, stack[-1][1]
        if j > n - k + p:
            if not prefix:
                return None, examined, None
            prefix.pop()
            j = stack.pop()[0] + 1
            continue
        x, colors = elems[j], stack[-1][1]
        for s in new_subsets(prefix, x):
            v, key = read(s), s[0] if by_min else None
            want = colors.get(key)
            if want is None:
                colors = {**colors, key: v}
            elif want != v:
                examined += comb(n - j - 1, k - p - 1)
                break
        else:
            prefix.append(x)
            stack.append((j, colors))
        j += 1


def _exactly_large_ending(prefix, x):
    """The exactly large subsets of prefix + [x] that contain x."""
    if x == 0:
        yield (0,)
    for i, m in enumerate(prefix):
        if 0 < m <= len(prefix) - i:
            for combo in combinations(prefix[i + 1:], m - 1):
                yield (m,) + combo + (x,)


def brute_homogeneous(c: FiniteColoring, universe: FinSet, k: int) -> SearchResult:
    """The lexicographically first size-k subset monochromatic under c,
    or a None witness with an exhaustiveness certificate."""
    if k < c.dimension:
        raise ValueError(f"k={k} below coloring dimension {c.dimension}")

    def tuples_ending(prefix, x):
        return (sub + (x,) for sub in combinations(prefix, c.dimension - 1))

    found, examined, colors = _first_subset(universe.elems, k, tuples_ending, False, c)
    if found is None:
        return SearchResult(None, examined, True)
    w = Witness(FinSet(found), "homogeneous", color=colors[None], verified=True,
                budget_used={"examined": examined, "k": k})
    return SearchResult(w, examined, False)


def _exact_search(c: ExactColoring, universe: FinSet, k: int, by_min: bool) -> SearchResult:
    found, examined, _ = _first_subset(universe.elems, k, _exactly_large_ending, by_min, c)
    if found is None:
        return SearchResult(None, examined, True)
    # The witness's colors and verified flag come from the verifier.
    H = FinSet(found)
    report = (verify_min_homogeneous if by_min else verify_exact_homogeneous)(H, c)
    w = Witness(H, report.kind, color=report.color, per_min_colors=report.per_min,
                verified=report.passed, budget_used={"examined": examined, "k": k})
    return SearchResult(w, examined, False)


def exact_homog_search(c: ExactColoring, universe: FinSet, k: int) -> SearchResult:
    """The lexicographically first size-k subset all of whose exactly
    large subsets get one color under c."""
    return _exact_search(c, universe, k, by_min=False)


def min_homog_search(c: ExactColoring, universe: FinSet, k: int) -> SearchResult:
    """The lexicographically first size-k subset whose exactly large
    subsets get colors depending only on their minimum."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _exact_search(c, universe, k, by_min=True)


# ---------------------------------------------------------------------------
# the branching-tree extraction machinery

class ChildSet(NamedTuple):
    values: tuple[int, ...]
    complete: bool
    # Per child, the candidates that survive at the child node: the
    # members of its class above it.  leftmost_path carries them down.
    classes: tuple[tuple[int, ...], ...] = ()


def _split(node: tuple, pool, c: FiniteColoring) -> dict:
    """Group the increasing candidates j in pool (a sequence) by the
    colors of the tuples sub + (t, j), for t the node's last entry and
    sub in C(node[:-1], a-1) with a = c.dimension - 1.  Classes come in
    order of their minima.  The heads sub + (t,) are fixed per node, so
    each candidate's colors are one row read (``c.row``) of the end (j,)."""
    if not node or len(node) < c.dimension - 1:  # no heads, so no colors
        return {(): list(pool)} if pool else {}
    read = c.row(_Subsets(node[:-1], c.dimension - 2, node[-1:]))
    classes: dict = {}
    for j, key in zip(pool, map(read, zip(pool))):
        members = classes.get(key)
        if members is None:
            classes[key] = [j]
        else:
            members.append(j)
    return classes


def er_children(node, c: FiniteColoring, universe: FinSet,
                budget: SearchBudget = DEFAULT_BUDGET,
                survivors=None) -> ChildSet:
    """Children of a tree node.

    A candidate must lie above every node entry and must agree with the
    colors the node has already committed to: every tuple it finishes
    must get the same color as the tuple finished by any existing later
    entry.  Surviving candidates are grouped by their color signature
    (the colors of every way to finish a tuple from the node with the
    candidate) and the least member of each class is a child, ordered by
    value.  Nodes shorter than the signature arity have a single child,
    the least candidate.  Only the first ``max_candidates`` universe
    elements above the node can be children; a longer candidate list
    flags the child list incomplete.

    The tree is built incrementally.  Let t be the node's last entry and
    p the node before it.  The survivors at the node are exactly the
    candidates above t in t's signature class at p, because every
    committed color below t was fixed at p.  So survivors differ only in
    the colors of the tuples that end in (t, j), and the node groups them
    by those alone.  ``survivors`` is the carried class (the candidates
    above t that survive at the node, from the parent's ``classes``);
    when it is None the class is rebuilt by replaying the same split
    from the root.  Classes are never truncated by the budget, so the
    carried class is the same as the replayed one.
    """
    node = tuple(node)
    elems = universe.elems
    start = bisect_right(elems, node[-1]) if node else 0
    if survivors is None:
        survivors = elems
        for k, u in enumerate(node):
            above = [j for j in survivors if j > u]
            # u heads its own class, which holds the survivors at node[:k+1]
            survivors = next(iter(_split(node[:k], [u] + above, c).values()))[1:]
    complete = len(elems) - start <= budget.max_candidates
    edge = None if complete else elems[start + budget.max_candidates]
    values, classes = [], []
    for members in _split(node, survivors, c).values():
        if edge is None or members[0] < edge:
            values.append(members[0])
            classes.append(tuple(members[1:]))
    return ChildSet(tuple(values), complete, tuple(classes))


class PathResult(NamedTuple):
    path: FinSet
    stable: bool
    expanded: int


def leftmost_path(c: FiniteColoring, universe: FinSet, length: int,
                  budget: SearchBudget = DEFAULT_BUDGET) -> PathResult:
    """The lexicographically least length-`length` branch of the tree,
    found by one first-child depth-first search that expands each node
    at most once.

    The search's first descent follows the first child down from the
    root, to `length` or to the first node with no children.  The node
    budget does not cut it (the universe bounds it), but cuts every node
    off it.  When no branch reaches `length`, the first descent's end,
    the longest leftmost prefix, is returned unstable; so the result is
    never longer than asked for.  The stability flag is true when the
    requested length was reached and no abandoned subtree was cut short
    by the candidate budget rather than by the universe.

    Each child is expanded with its carried class (``er_children``'s
    ``classes``), so a node colors only the tuples that end in its last
    entry.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    truncated = False
    expanded = 0
    end = None  # the last node of the first descent, once it has ended
    # A loop, not a recursive closure: a closure that calls itself is a
    # reference cycle, which would keep c and its memo alive after return.
    stack = [((), universe.elems)]  # (node, survivors) to visit, next on top
    while stack:
        node, survivors = stack.pop()
        if len(node) == length:
            return PathResult(FinSet(node), not truncated, expanded)
        if end is not None and expanded >= budget.max_candidates:
            # Global node budget: give up on this region rather than
            # exploring an adversarial tree forever.
            truncated = True
            continue
        ch = er_children(node, c, universe, budget, survivors)
        expanded += 1
        if not ch.complete:
            truncated = True
        if end is None and not ch.values:
            end = node
        stack += [(node + (j,), below) for j, below in zip(ch.values, ch.classes)][::-1]
    return PathResult(FinSet(end), False, expanded)


class _Restricted:
    """A coloring along a branch read one dimension lower: each tuple is
    finished with the next branch element above it and colored by the
    coloring beneath.  Sound because the branch makes colors independent
    of the last element.

    A view over a view is flat: it keeps the memoizing coloring at the
    bottom (``c``) and, per element y of its own branch, the whole suffix
    that finishes a tuple whose next branch element is y, read off the
    stack of branches.  So a row restricted k levels deep costs one
    lookup per read, and one memo read per tuple.  Keeps no memo:
    the bottom coloring has one, and it validates the finished tuple on a
    miss."""

    __slots__ = ("c", "path", "tails", "dimension")

    def __init__(self, c, path: tuple):
        self.path, self.dimension = path, c.dimension - 1
        if isinstance(c, _Restricted):
            # The suffixes stop where the view beneath has no element
            # above y: a tuple past them cannot be finished.
            self.c, below = c.c, c.tails
            self.tails = [(y,) + below[i] for y in path
                          if (i := bisect_right(c.path, y)) < len(below)]
        else:
            self.c, self.tails = c, [(y,) for y in path]

    def colors(self, tuples):
        """The colors of the finished tuples, lazily and in order."""
        path, tails = self.path, self.tails
        return self.c.colors(t + tails[bisect_right(path, t[-1])] for t in tuples)

    def row(self, heads):
        """A reader of rows of the finished tuples: the bottom coloring's,
        each end finished as ``colors`` finishes a tuple."""
        read = self.c.row(heads)
        path, tails = self.path, self.tails

        def finished(end, color=None):
            return read(end + tails[bisect_right(path, end[-1])], color)

        return finished


def _greedy_extend(c: FiniteColoring, base: FinSet, color: Optional[int],
                   universe: FinSet, target: int) -> FinSet:
    """Grow a monochromatic set with universe elements that keep every
    tuple the same color, capped at the target size.  Each candidate x is
    checked against all tuples it completes, x inserted into each
    (a-1)-subset of the set in lexicographic order, so the result stays
    exactly as verified as the input.  A candidate above every chosen
    element ends each tuple: its tuples are one row read, whose heads
    (``_Subsets``, ranked as a whole) change only when an element is
    added."""
    if color is None or len(base) >= target:
        return base
    chosen = list(base.elems)
    pool = set(chosen)
    a = c.dimension
    agrees = None
    for x in universe.elems:
        if len(chosen) >= target:
            break
        if x in pool:
            continue
        if chosen and x < chosen[-1]:
            tuples = (tuple(sorted(sub + (x,))) for sub in combinations(chosen, a - 1))
            ok = all(map(eq, c.colors(tuples), repeat(color)))
        else:
            if agrees is None:
                agrees = c.row(_Subsets(chosen, a - 1))
            ok = agrees((x,), color)
        if ok:
            insort(chosen, x)
            pool.add(x)
            agrees = None
    return FinSet(chosen)


def f_a_extract(a: int, c: FiniteColoring, universe: FinSet, target: int,
                budget: SearchBudget = DEFAULT_BUDGET) -> Witness:
    """Extract a homogeneous set for an a-ary coloring by iterated
    branch restriction.

    Arity 1 is the budgeted stand-in for "does some color recur
    forever": the first color class, in color order, that reaches the
    target is taken; failing that, the largest class (ties to the least
    color, color 0 on an empty universe) as a flagged best effort.
    Higher arities build the leftmost branch, restrict the coloring to
    it, and recurse.  Shortfall or a budget cut leaves the witness
    unverified.  The set is not read again: every branch that
    ``leftmost_path`` returns is end-homogeneous (Erdos & Rado 1956), so
    an a-subset of the branch has the inner set's color, and
    ``_greedy_extend`` reads every a-subset that holds an element before
    it adds the element.
    """
    if a < 1:
        raise ValueError("arity must be at least 1")
    if c.dimension != a:
        raise ValueError(f"coloring has dimension {c.dimension}, expected {a}")
    elems = universe.elems[: budget.max_universe]

    if a == 1:
        classes: dict[int, list] = {}
        for x, v in zip(elems, c.colors(zip(elems))):
            classes.setdefault(v, []).append(x)
        ordered = [classes.get(v, []) for v in range(max(classes, default=0) + 1)]
        color = next((v for v, cls in enumerate(ordered) if len(cls) >= target),
                     max(range(len(ordered)), key=lambda v: len(ordered[v])))
        chosen = ordered[color][:target]
        return Witness(
            FinSet(chosen), "homogeneous", color=color,
            verified=len(chosen) >= target,
            budget_used={"arity": 1, "target": target, "achieved": len(chosen)},
        )

    want = min(len(elems), target + a - 1)
    pr = leftmost_path(c, FinSet(elems), want, budget) if want else PathResult(FinSet(), False, 0)
    path = pr.path.elems
    if len(path) < 2:
        return Witness(
            FinSet(path[:1]), "homogeneous", color=None, verified=False,
            budget_used={"arity": a, "target": target, "achieved": len(path[:1]),
                         "path_len": len(path), "path_stable": pr.stable},
        )
    inner = f_a_extract(
        a - 1, _Restricted(c, path), FinSet(path[:-1]), target, budget
    )
    chosen = _greedy_extend(c, inner.set, inner.color, FinSet(elems), target)
    recheck = inner.color is not None
    stats = {
        "arity": a, "target": target, "achieved": len(chosen),
        "path_len": len(path), "path_stable": pr.stable,
        "homogeneous_recheck": recheck,
        "inner": inner.budget_used,
    }
    return Witness(
        chosen, "homogeneous", color=inner.color,
        verified=recheck and len(chosen) >= target,
        budget_used=stats,
    )


# ---------------------------------------------------------------------------
# the iterated chain construction

def iterate_rtomega(c: ExactColoring, universe: FinSet,
                    budget: SearchBudget = DEFAULT_BUDGET,
                    start: Optional[int] = None) -> Witness:
    """Build a chain by repeatedly extracting a homogeneous set for the
    stage coloring induced by the current minimum.

    Stage i colors the a_i-tuples of the current universe (the
    previous stage's set without its minimum) by the exact coloring
    applied to the tuple with a_i prepended; extraction supplies the stage's
    homogeneous set, whose minimum becomes the next chain element.  The
    chain stops when a stage search fails inside its budget.  A final
    pigeonhole pass thins the chain to one induced per-minimum color
    class (the most frequent color, ties to the least); elements with
    no induced color are kept, since no exactly large subset starts at
    them.  A given ``start`` must be a universe element.
    """
    if not universe:
        raise ValueError("universe must be nonempty")
    if universe.min() < 2:
        raise ValueError("universe must start at 2 or above")
    if start is not None and start not in universe:
        raise ValueError(f"start {start} is not an element of the universe")
    a0 = universe.min() if start is None else start
    chain = [a0]
    stage_colors: dict[int, int] = {}
    stages = []
    current = universe.above(a0).elems[: budget.max_universe]
    while True:
        a = chain[-1]
        if len(current) < a:
            break
        stage_universe = FinSet(current)
        w = f_a_extract(a, c.at_min(a, stage_universe), stage_universe, len(current), budget)
        if not w.set or w.color is None:
            break
        stage_colors[a] = w.color
        stages.append({
            "a": a, "size": len(w.set), "color": w.color, "verified": w.verified,
        })
        nxt = w.set.elems
        chain.append(nxt[0])
        current = nxt[1:]
        if not current:
            break

    thinned, chosen = _pigeonhole(chain, stage_colors)
    result = FinSet(thinned)
    report = verify_exact_homogeneous(result, c)
    return Witness(
        result, "chain",
        color=report.color,
        per_min_colors={x: stage_colors[x] for x in thinned if x in stage_colors},
        verified=report.passed,
        budget_used={
            "start": a0,
            "stages": stages,
            "chain_before_thinning": chain,
            "pigeonhole_color": chosen,
            "verified_subsets": report.checked,
        },
    )
