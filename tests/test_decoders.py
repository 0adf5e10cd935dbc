from itertools import combinations

import pytest

from xlramsey.colorings import c2_coloring, cn_coloring, dh_coloring
from xlramsey import decoders
from xlramsey.decoders import (
    DecodeVerdict,
    _ApproxJumpOracle,
    _lex_least_tuple,
    adequate_tuple,
    dh_reconstruct,
    halt0_tower_member,
    m2_decode,
    m_decode,
    mn_decode,
    mn_raw,
)
from xlramsey.largesets import FinSet
from xlramsey.machines import (
    EMPTY,
    CutoffJumpOracle,
    ExplicitOracle,
    halt_threshold,
    jump_pairs_approx,
)
from xlramsey.ramsey import brute_homogeneous, verify_exact_homogeneous

HALT_INDEX = 1
CUTOFF = 10 ** 6

# All halting behavior of indices 0..15 is settled within a handful of
# steps, so these are safe guards for decoder experiments.
CURATED = tuple(range(16))
HALTERS = (1, 3, 5, 6, 8, 10, 12, 14, 15)


def test_m2_basic_verdicts():
    A = EMPTY
    assert m2_decode(HALT_INDEX, (3, 50, 60), A) is True
    assert m2_decode(0, (3, 50, 60), A) is False  # empty program
    with pytest.raises(ValueError):
        m2_decode(5, (3, 50, 60), A)
    with pytest.raises(ValueError):
        m2_decode(1, (3, 60, 50), A)


def test_m2_verdicts_match_cutoff_jump_on_homogeneous_triple():
    A = ExplicitOracle([0, 2])
    U = FinSet([3, 5, 9, 15, 1600, 1700, 1800])
    res = brute_homogeneous(c2_coloring(A, "capture"), U, 4)
    assert res.witness is not None
    H = res.witness.set
    truth = CutoffJumpOracle(A, CUTOFF)
    for triple in combinations(H.elems, 3):
        for e in range(triple[0] + 1):
            assert m2_decode(e, triple, A) == truth.member(e)


def test_mn_level_two_is_the_m2_path():
    # level 2 is a plain bounded halt-on-0 search below the middle bound
    A = ExplicitOracle([4])
    for e in (0, 1, 3):
        assert mn_decode(2, e, (3, 40, 60), A) == (halt_threshold(e, A, 0, 40) is not None)


def test_mn_rejects_index_above_guard():
    with pytest.raises(ValueError):
        mn_decode(2, 9, (3, 40, 60), EMPTY)
    with pytest.raises(ValueError):
        mn_raw(2, 1, (3, 40), EMPTY)  # wrong tuple length
    with pytest.raises(ValueError):
        mn_raw(2, 1, (40, 3, 60), EMPTY)  # not increasing


def test_mn_oracle_free_index_ignores_tail():
    # the halting program consults nothing, so any adequate tuple agrees
    A = ExplicitOracle([7])
    assert mn_decode(3, HALT_INDEX, (2, 30, 40, 50), A) is True
    assert mn_decode(3, HALT_INDEX, (2, 100, 300, 900), A) is True
    assert mn_decode(3, 0, (2, 30, 40, 50), A) is False


def test_mn_verdicts_match_two_fold_jump_on_homogeneous_tuple():
    A = ExplicitOracle([0, 2])
    U = FinSet([3, 5, 9, 15, 1600, 1700, 1800, 1900])
    res = brute_homogeneous(cn_coloring(3, A), U, 5)
    assert res.witness is not None
    H = res.witness.set
    for quad in combinations(H.elems, 4):
        if quad[0] > 15:
            continue  # stay on curated guards
        for e in range(quad[0] + 1):
            want = halt0_tower_member(A, 2, e, CUTOFF)
            assert mn_decode(3, e, quad, A) == want


def test_halt0_tower_member_levels():
    A = ExplicitOracle([3])
    assert halt0_tower_member(A, 0, 3, CUTOFF) is True
    assert halt0_tower_member(A, 0, 4, CUTOFF) is False
    assert halt0_tower_member(A, 1, HALT_INDEX, CUTOFF) is True
    assert halt0_tower_member(A, 2, HALT_INDEX, CUTOFF) is True
    assert halt0_tower_member(A, 2, 0, CUTOFF) is False


def test_adequate_tuple_selection():
    H = FinSet([2, 7000, 7500, 8000])
    assert adequate_tuple(H, 1) == (2, 7000, 7500)
    assert adequate_tuple(H, 7000) is None  # not enough room above
    assert adequate_tuple(FinSet(), 0) is None


def test_m_decode_direct_queries():
    A = ExplicitOracle([0, 5])
    H = FinSet([2, 7000, 7500, 8000])
    # level 1, the always-halting index: true everywhere
    v = m_decode(1, HALT_INDEX, H, A, truth_cutoff=CUTOFF)
    assert v.answer is True and v.consistent is True
    assert v.tuple_used == FinSet([2, 7000, 7500])
    # level 1, the empty program: never halts
    v = m_decode(1, 0, H, A, truth_cutoff=CUTOFF)
    assert v.answer is False and v.consistent is True


def test_m_decode_level_zero_via_reduction():
    # one reduction step turns a level-0 query into a membership probe
    A = ExplicitOracle([0, 5])
    H = FinSet([2, 7000, 7500, 8000])
    v0 = m_decode(0, 0, H, A, truth_cutoff=CUTOFF)
    assert v0.answer is True and v0.consistent is True
    v1 = m_decode(0, 1, H, A, truth_cutoff=CUTOFF)
    assert v1.answer is False and v1.consistent is True


def test_m_decode_level_two():
    A = ExplicitOracle([0, 5])
    H = FinSet([3, 7000, 7100, 7200, 7300])
    v = m_decode(2, HALT_INDEX, H, A, truth_cutoff=CUTOFF)
    assert v.answer is True and v.consistent is True
    v = m_decode(2, 0, H, A, truth_cutoff=CUTOFF)
    assert v.answer is False and v.consistent is True


def test_m_decode_insufficient_data():
    v = m_decode(1, 1, FinSet(), EMPTY)
    assert v.answer is None and "insufficient" in v.note
    # reduction size explosion is reported, not attempted
    v = m_decode(0, 900, FinSet([2000, 7000, 7500, 8000]), EMPTY)
    assert v.answer is None or isinstance(v, DecodeVerdict)


def test_m_decode_stable_across_tails():
    A = ExplicitOracle([0, 5])
    H = FinSet([2, 7000, 7500, 8000, 9000])
    for i, j in ((1, 0), (1, 1), (0, 0), (0, 1)):
        v1 = m_decode(i, j, H, A)
        # H without 7000: the same minimum, its tail one element on
        v2 = m_decode(i, j, FinSet([2, 7500, 8000, 9000]), A)
        assert v2.tuple_used == FinSet([2, 7500, 8000])
        assert v1.answer == v2.answer


def test_verdict_csv_row():
    v = m_decode(1, 1, FinSet([2, 7000, 7500, 8000]), EMPTY, truth_cutoff=CUTOFF)
    row = v.row()
    assert row["level"] == 1 and row["element"] == 1
    assert row["answer"] == 1 and row["consistent"] == 1


# ---------------------------------------------------------------------------
# reconstruction

def test_dh_reconstruct_level_zero_verbatim():
    X = ExplicitOracle([3])
    H = FinSet([4, 60, 80, 100, 120, 140])
    rec = dh_reconstruct(H, 4, X)
    assert rec.levels[0].level == 0
    assert list(rec.levels[0].members.elems) == [3]


def test_dh_reconstruct_empty_with_no_halters():
    divergers = (0, 2, 4, 7, 9)
    H = FinSet([4, 60, 80, 100, 120, 140])
    rec = dh_reconstruct(H, 4, EMPTY, programs=divergers)
    assert all(len(lv.members) == 0 for lv in rec.levels)


def test_dh_reconstruct_matches_stabilized_jump():
    X = ExplicitOracle([3])
    H = FinSet([4, 60, 80, 100, 120, 140])
    assert verify_exact_homogeneous(H, dh_coloring(X)).passed
    rec = dh_reconstruct(H, 4, X)
    lvl1 = rec.levels[1].members
    for s in (90, 120, 200):
        assert lvl1.below(60) == jump_pairs_approx(X, s).below(60)


def test_dh_reconstruct_second_level_is_jump_of_first():
    X = ExplicitOracle([3])
    H = FinSet([6, 60, 80, 100, 120, 140, 160])
    assert verify_exact_homogeneous(H, dh_coloring(X)).passed
    rec = dh_reconstruct(H, 6, X)
    assert [lv.level for lv in rec.levels] == [0, 1, 2]
    x1 = ExplicitOracle(rec.levels[1].members.elems)
    cov2 = rec.levels[2].covered_below
    for s in (80, 120):
        assert jump_pairs_approx(x1, s).below(cov2) == rec.levels[2].members


def test_dh_reconstruct_partial_results():
    X = ExplicitOracle([3])
    rec = dh_reconstruct(FinSet([4, 60, 80]), 4, X)
    assert rec.partial and rec.uncovered.get(1) is not None
    rec2 = dh_reconstruct(FinSet([4, 60, 80, 100, 120, 140]), 4, X, code_bound=500)
    assert rec2.partial and rec2.uncovered[1] == (80, 500)


def test_dh_reconstruct_monotone_under_larger_h():
    X = ExplicitOracle([3])
    small = dh_reconstruct(FinSet([4, 60, 80, 100, 120, 140]), 4, X)
    large = dh_reconstruct(FinSet([4, 60, 80, 100, 120, 140, 160, 180]), 4, X)
    cov = small.levels[1].covered_below
    assert small.levels[1].members.below(cov) == large.levels[1].members.below(cov)


def test_dh_reconstruct_validation():
    with pytest.raises(ValueError):
        dh_reconstruct(FinSet([4, 60]), 5, EMPTY)
    with pytest.raises(ValueError):
        dh_reconstruct(FinSet([4, 61]), 4, EMPTY)
    with pytest.raises(ValueError):
        dh_reconstruct(FinSet([60, 80]), 4, EMPTY)


def test_approx_oracle_holds_nothing_above_its_first_entry(monkeypatch):
    A, tpl = ExplicitOracle([1]), (5, 9, 14)
    runs = []
    monkeypatch.setattr(decoders, "mn_raw", lambda *args: runs.append(args) or True)
    y = _ApproxJumpOracle(2, tpl, A)
    assert not y.member(6) and not y.member(100) and runs == []
    assert y.member(5) and y.member(5) and runs == [(2, 5, tpl, A)]


def test_lex_least_tuple_skips_minima_below_h():
    # Sets with minimum 2 and 3 come first in the enumeration; (2, 5, 6)
    # would match the entry bound, but only minimum 4 counts.  No set
    # with minimum 4 has a second entry above 7, and the first with
    # minimum 5, (5, 6, 7, 8, 9, 10), ends the search; without 10 there
    # is none, and the enumeration runs out.
    H = FinSet(range(2, 11))
    assert _lex_least_tuple(H, 4, 1, 4) == (4, 5, 6, 7, 8)
    assert _lex_least_tuple(H, 4, 1, 7) is None
    assert _lex_least_tuple(H.below(10), 4, 1, 6) is None
