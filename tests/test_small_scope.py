"""Every two-coloring of the exactly large subsets of {2,...,7}.

Hypothesis samples colorings; it cannot say that none is missed.  At
this size the whole space is affordable: {2,...,7} has 14 exactly large
subsets, so 16,384 two-colorings.  What each check expects is decided
by a scan written here, not by the verifiers under test.
"""

from itertools import combinations

from xlramsey.cli import _false_chain_claim
from xlramsey.colorings import ExactColoring
from xlramsey.largesets import FinSet
from xlramsey.ramsey import iterate_rtomega, verify_exact_homogeneous

UNIVERSE = tuple(range(2, 8))
SUBSETS = [(m, *rest) for i, m in enumerate(UNIVERSE)
           for rest in combinations(UNIVERSE[i + 1:], m)]


def _decided(chain, color):
    """The color of every exactly large subset of the chain with minimum
    m, for each m that starts one; the scan fails if two differ."""
    decided = {}
    for i, m in enumerate(chain):
        colors = {color[(m, *rest)] for rest in combinations(chain[i + 1:], m)}
        assert len(colors) <= 1, (chain, m, colors)
        if colors:
            decided[m] = colors.pop()
    return decided


def test_every_chain_is_min_homogeneous_with_its_stage_colors():
    # verify rebuilds a chain witness on this ground: stage i's set holds
    # every later chain element, so an exactly large subset of the chain
    # with minimum a_i has stage i's color.
    assert len(SUBSETS) == 14
    decided_at = {}
    for mask in range(1 << len(SUBSETS)):
        color = {s: mask >> i & 1 for i, s in enumerate(SUBSETS)}
        c = ExactColoring(lambda t: color[t.elems])
        w = iterate_rtomega(c, FinSet(UNIVERSE))
        budget = w.budget_used
        chain, stages = budget["chain_before_thinning"], budget["stages"]
        assert set(chain) <= set(UNIVERSE) and chain == sorted(chain)
        decided = _decided(chain, color)
        assert {s["a"]: s["color"] for s in stages if s["a"] in decided} == decided
        report = verify_exact_homogeneous(w.set, c)
        assert report.passed and _false_chain_claim(w, report, c) is None
        # A stage color flipped where the chain decides one is a false claim.
        for m, v in decided.items():
            flipped = [dict(s, color=1 - v) if s["a"] == m else s for s in stages]
            false = w._replace(budget_used=dict(budget, stages=flipped))
            assert _false_chain_claim(false, report, c) == (
                f"witness field 'stages' gives minimum {m} color {1 - v}, the chain gives it {v}")
        key = tuple(decided)
        decided_at[key] = decided_at.get(key, 0) + 1
    # Most chains are too short to decide a color: {2,a,b} is the least
    # chain with an exactly large subset, and no chain here decides one
    # at a minimum above 2.
    assert decided_at == {(): 14976, (2,): 1408}
