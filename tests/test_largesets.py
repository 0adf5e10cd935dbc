import random
from itertools import combinations

import pytest

from xlramsey.largesets import (
    ExactlyLargeSet,
    FinSet,
    count_exactly_large,
    enumerate_exactly_large,
)


def powerset_exactly_large(universe):
    """Independent oracle: filter the whole power set."""
    elems = tuple(universe)
    out = []
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            if combo and len(combo) == combo[0] + 1:
                out.append(combo)
    return out


def test_finset_validation():
    assert FinSet([1, 2, 5]).elems == (1, 2, 5)
    assert FinSet().elems == ()
    with pytest.raises(ValueError):
        FinSet([2, 2])
    with pytest.raises(ValueError):
        FinSet([3, 1])
    with pytest.raises(ValueError):
        FinSet([-1])


def test_finset_render_parse_roundtrip():
    s = FinSet([2, 3, 10])
    assert s.render() == "{2,3,10}"
    assert FinSet.parse("{2,3,10}") == s
    assert FinSet.parse(" { 2 , 3 , 10 } ") == s
    assert FinSet.parse("{}") == FinSet()
    with pytest.raises(ValueError):
        FinSet.parse("2,3")


def test_finset_helpers():
    s = FinSet([2, 5, 9])
    assert 5 in s and 4 not in s
    assert s.min() == 2 and len(s) == 3
    assert s.above(5) == FinSet([9])
    assert s.below(9) == FinSet([2, 5])


def test_is_exactly_large_examples():
    # the predicate is the ExactlyLargeSet constructor's check
    for yes in ([2, 3, 4], [0]):
        assert ExactlyLargeSet(FinSet(yes)).elems == tuple(yes)
    for no in ([3, 4, 5], []):
        with pytest.raises(ValueError):
            ExactlyLargeSet(FinSet(no))


def test_exactly_large_set_constructor():
    s = ExactlyLargeSet(FinSet([2, 5, 9]))
    assert s.min() == 2 and len(s) == 3
    with pytest.raises(ValueError):
        ExactlyLargeSet(FinSet([3, 4, 5]))


def test_exactly_large_set_is_not_the_finset_of_its_elements():
    e, f = ExactlyLargeSet((2, 5, 9)), FinSet((2, 5, 9))
    assert e != f and f != e and not e == f and not f == e
    assert hash(e) != hash(f) and len({e, f}) == 2
    assert e == ExactlyLargeSet(f) and f == FinSet(e) and type(FinSet(e)) is FinSet
    assert e.elems is ExactlyLargeSet(e).elems  # a FinSet argument is not copied
    assert repr(e) == "ExactlyLargeSet((2, 5, 9))" and str(e) == "{2,5,9}"
    assert e.min() == 2 and 5 in e and e.above(2) == FinSet((5, 9))


@pytest.mark.parametrize("elems, message", [
    ((True,), "not a natural number: True"),
    ((0.0,), "not a natural number: 0.0"),
    ((-1,), "negative element: -1"),
    ((2, 4, 3), "elements must be strictly increasing"),
    ((3, 4, 5), "not exactly large: {3,4,5}"),
    ((), "not exactly large: {}"),
], ids=["bool", "float", "negative", "not increasing", "not exactly large", "empty"])
def test_exactly_large_set_rejects_tuples_and_finsets_alike(elems, message):
    for build in (lambda: ExactlyLargeSet(elems), lambda: ExactlyLargeSet(FinSet(elems))):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_enumerate_examples():
    got = [s.elems for s in enumerate_exactly_large(FinSet([2, 3, 4, 5]))]
    assert got == [(2, 3, 4), (2, 3, 5), (2, 4, 5)]
    assert [s.elems for s in enumerate_exactly_large(FinSet([1, 2]))] == [(1, 2)]
    assert list(enumerate_exactly_large(FinSet())) == []


def test_enumerate_is_lexicographic_and_lazy():
    universe = FinSet(range(0, 25))
    it = enumerate_exactly_large(universe)
    first = next(it)  # must not materialize the whole family
    assert first.elems == (0,)
    prev = first.elems
    for s in (next(it) for _ in range(500)):
        assert s.elems > prev
        prev = s.elems


def test_enumerate_members_are_exactly_large_subsets():
    universe = FinSet([1, 2, 4, 6, 7, 9])
    for s in enumerate_exactly_large(universe):
        assert len(s) == s.min() + 1
        assert set(s) <= set(universe)


def test_counts_match_powerset_filter():
    rng = random.Random(13)
    universes = [tuple(range(n)) for n in range(0, 11)]
    for _ in range(25):
        size = rng.randrange(0, 11)
        universes.append(tuple(sorted(rng.sample(range(0, 18), size))))
    for elems in universes:
        u = FinSet(elems)
        oracle = powerset_exactly_large(elems)
        streamed = [s.elems for s in enumerate_exactly_large(u)]
        assert sorted(streamed) == sorted(oracle)
        assert count_exactly_large(u) == len(oracle) == len(streamed)
