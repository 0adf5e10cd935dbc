"""The branch-restriction extraction as it was before batched memo
reads, kept as a reference: nested per-call restriction views, a greedy
step that filters every combination of the trial set, and a recheck
that calls the coloring once per tuple.  Only the carried-class path of
the tree step is kept, the one ``leftmost_path`` takes.
"""

from bisect import bisect_right
from itertools import combinations
from typing import Optional

from xlramsey.largesets import FinSet
from xlramsey.ramsey import DEFAULT_BUDGET, ChildSet, PathResult, Witness


def _split(node, pool, c):
    heads = ()
    if node:
        t = node[-1]
        heads = [sub + (t,) for sub in combinations(node[:-1], c.dimension - 2)]
    classes = {}
    for j in pool:
        key = tuple([c(h + (j,)) for h in heads])
        members = classes.get(key)
        if members is None:
            classes[key] = [j]
        else:
            members.append(j)
    return classes


def er_children(node, c, universe, budget, survivors):
    node = tuple(node)
    elems = universe.elems
    start = bisect_right(elems, node[-1]) if node else 0
    complete = len(elems) - start <= budget.max_candidates
    edge = None if complete else elems[start + budget.max_candidates]
    values, classes = [], []
    for members in _split(node, survivors, c).values():
        if edge is None or members[0] < edge:
            values.append(members[0])
            classes.append(tuple(members[1:]))
    return ChildSet(tuple(values), complete, tuple(classes))


def leftmost_path(c, universe, length, budget=DEFAULT_BUDGET):
    if length < 1:
        raise ValueError("length must be at least 1")
    truncated = False
    expanded = 0
    end = None  # the node that ends the first descent

    def extend(node, survivors):
        nonlocal truncated, expanded, end
        if len(node) == length:
            return node
        if end is not None and expanded >= budget.max_candidates:
            truncated = True
            return None
        ch = er_children(node, c, universe, budget, survivors)
        expanded += 1
        if not ch.complete:
            truncated = True
        if end is None and not ch.values:
            end = node
        for j, below in zip(ch.values, ch.classes):
            found = extend(node + (j,), below)
            if found is not None:
                return found
        return None

    best = extend((), universe.elems)
    if best is None:
        return PathResult(FinSet(end), False, expanded)
    return PathResult(FinSet(best), not truncated, expanded)


class Restricted:
    def __init__(self, c, path):
        self.c, self.path, self.dimension = c, path, c.dimension - 1

    def __call__(self, tpl):
        tpl = tuple(tpl)
        return self.c(tpl + (self.path[bisect_right(self.path, tpl[-1])],))


def greedy_extend(c, base, color: Optional[int], universe, target):
    if color is None or len(base) >= target:
        return base
    chosen = list(base.elems)
    pool = set(chosen)
    a = c.dimension
    for x in universe.elems:
        if len(chosen) >= target:
            break
        if x in pool:
            continue
        trial = sorted(chosen + [x])
        if len(trial) < a:
            ok = True
        else:
            ok = all(c(sub) == color for sub in combinations(trial, a) if x in sub)
        if ok:
            chosen = trial
            pool.add(x)
    return FinSet(chosen)


def f_a_extract(a, c, universe, target, budget=DEFAULT_BUDGET):
    if a < 1:
        raise ValueError("arity must be at least 1")
    if c.dimension != a:
        raise ValueError(f"coloring has dimension {c.dimension}, expected {a}")
    elems = universe.elems[: budget.max_universe]

    if a == 1:
        classes = {}
        for x in elems:
            classes.setdefault(c((x,)), []).append(x)
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
    inner = f_a_extract(a - 1, Restricted(c, path), FinSet(path[:-1]), target, budget)
    chosen = greedy_extend(c, inner.set, inner.color, FinSet(elems), target)
    recheck = all(
        c(sub) == inner.color for sub in combinations(chosen.elems, a)
    ) if inner.color is not None else False
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
