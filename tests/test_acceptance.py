"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated runtime bound."""

import random
import time
from itertools import combinations

from conftest import random_finite_coloring, random_regressive_coloring

from xlramsey.colorings import (
    ExactColoring,
    c2_coloring,
    cn_coloring,
    dh_coloring,
    km_dh_coloring,
    km_to_rt,
    rt_via_km,
)
from xlramsey.decoders import dh_reconstruct, halt0_tower_member, m2_decode, mn_decode
from xlramsey.largesets import (
    FinSet,
    count_exactly_large,
    enumerate_exactly_large,
)
from xlramsey.machines import (
    EMPTY,
    ExplicitOracle,
    decode_program,
    encode_program,
    jump_pairs_approx,
    pair,
    run_bounded,
    unpair,
)
from xlramsey.ramsey import (
    brute_homogeneous,
    exact_homog_search,
    f_a_extract,
    iterate_rtomega,
    leftmost_path,
    min_homog_search,
    verify_exact_homogeneous,
    verify_min_homogeneous,
)


def report(num, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.2f}s) {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_1_finite_ramsey_oracle():
    t0 = time.time()
    edges = list(combinations(range(6), 2))
    index = {e: i for i, e in enumerate(edges)}
    triangles = [
        tuple(index[tuple(sorted(p))] for p in combinations(tri, 2))
        for tri in combinations(range(6), 3)
    ]
    all_have_triangle = True
    for mask in range(1 << 15):
        mono = False
        for e1, e2, e3 in triangles:
            b1, b2, b3 = mask >> e1 & 1, mask >> e2 & 1, mask >> e3 & 1
            if b1 == b2 == b3:
                mono = True
                break
        if not mono:
            all_have_triangle = False
            break

    # the 5-cycle adjacency coloring has no monochromatic triangle
    from xlramsey.colorings import FiniteColoring

    pentagon = FiniteColoring(2, lambda t: 1 if (t[1] - t[0]) % 5 in (1, 4) else 0)
    res = brute_homogeneous(pentagon, FinSet(range(5)), 3)
    elapsed = time.time() - t0
    report(
        1,
        all_have_triangle and res.witness is None and res.exhaustive and elapsed < 1.0,
        elapsed,
        "R(3,3)=6 exhaustive + 5-point counterexample",
    )


def test_criterion_2_enumeration_vs_powerset():
    t0 = time.time()
    rng = random.Random(2024)
    universes = [tuple(range(n + 1)) for n in range(18)]
    for _ in range(30):
        size = rng.randrange(0, 15)
        universes.append(tuple(sorted(rng.sample(range(18), size))))
    ok = True
    for elems in universes:
        naive = 0
        n = len(elems)
        for mask in range(1 << n):
            sub = [elems[i] for i in range(n) if mask >> i & 1]
            if sub and len(sub) == sub[0] + 1:
                naive += 1
        streamed = sum(1 for _ in enumerate_exactly_large(FinSet(elems)))
        if not (streamed == naive == count_exactly_large(FinSet(elems))):
            ok = False
            break
    elapsed = time.time() - t0
    report(2, ok and elapsed < 10.0, elapsed,
           f"{len(universes)} universes within {{0..17}}")


def test_criterion_3_machine_semantics():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    for _ in range(10 ** 4):
        e = rng.randrange(0, 30000)
        x = rng.randrange(0, 10)
        s = rng.randrange(1, 64)
        members = rng.sample(range(0, 120), rng.randrange(0, 6))
        oracle = ExplicitOracle(members)
        out = run_bounded(e, oracle, x, s)
        if out.halted:
            nxt = run_bounded(e, oracle, x, s + 1)
            if not (nxt.halted and nxt.value == out.value):
                ok = False
                break
        trimmed = ExplicitOracle([m for m in members if m < s])
        loc = run_bounded(e, trimmed, x, s)
        if (loc.halted, loc.value) != (out.halted, out.value):
            ok = False
            break
    for n in range(10 ** 6):
        xy = unpair(n)
        if pair(*xy) != n:
            ok = False
            break
    decode_program.cache_clear()
    for e in range(10 ** 6):
        if encode_program(decode_program(e)) != e:
            ok = False
            break
    elapsed = time.time() - t0
    report(3, ok and elapsed < 30.0, elapsed,
           "monotone+local on 1e4 triples; 1e6-point coding prefixes")


def test_criterion_4_erdos_rado_property():
    t0 = time.time()
    ok = True
    for seed in range(50):
        c = random_finite_coloring(seed, 3)
        pr = leftmost_path(c, FinSet(range(41)), 8)
        p = pr.path.elems
        if len(p) != 8:
            ok = False
            break
        for x, y in combinations(p, 2):
            later = [z for z in p if z > y]
            if len({c((x, y, z)) for z in later}) > 1:
                ok = False
                break
        if not ok:
            break
    elapsed = time.time() - t0
    report(4, ok and elapsed < 30.0, elapsed,
           "50 seeded colorings, exhaustive last-element independence")


def test_criterion_5_extraction_soundness():
    t0 = time.time()
    rng = random.Random(555)
    failures = 0
    for run in range(100):
        a = 1 + run % 3
        n = rng.randrange(max(10, 4 * a), 61)
        target = rng.randrange(a + 1, 7)
        c = random_finite_coloring(1000 + run, a)
        w = f_a_extract(c, FinSet(range(n)), target)
        if w.color is None:
            failures += 1
            continue
        colors = {c(sub) for sub in combinations(w.set.elems, a)}
        if len(colors) > 1:
            failures += 1
        if w.verified and len(w.set) < target:
            failures += 1
    elapsed = time.time() - t0
    report(5, failures == 0, elapsed, f"100 seeded runs, {failures} failures")


def test_criterion_6_chain_construction():
    colorings = [
        ("parity-of-min", ExactColoring(lambda s: s.min() % 2)),
        ("parity-of-sum", ExactColoring(lambda s: sum(s.elems) % 2)),
        ("dh(empty)", dh_coloring(EMPTY)),
    ]
    evens = FinSet(range(2, 41, 2))
    ok = True
    details = []
    for name, c in colorings:
        t0 = time.time()
        w = iterate_rtomega(c, evens)
        elapsed = time.time() - t0
        good = len(w.set) >= 5 and verify_exact_homogeneous(w.set, c).passed
        details.append(f"{name}: len {len(w.set)} in {elapsed:.1f}s")
        if not (good and elapsed < 60.0):
            ok = False
    report(6, ok, 0.0, "; ".join(details))


def test_criterion_7_decoder_correctness():
    t0 = time.time()
    cutoff = 10 ** 6
    A = ExplicitOracle([0, 2])
    # curated universe: all halting of indices 0..15 settles within a
    # handful of steps; guards stay at or below 15 and bounds sit past
    # the 10**3 stabilization gap
    U = FinSet([3, 5, 9, 15, 1600, 1700, 1800, 1900, 2000])
    checks = 0
    agree = True

    res2 = brute_homogeneous(c2_coloring(A, "capture"), U, 5)
    assert res2.witness is not None and res2.witness.verified
    for tri in combinations(res2.witness.set.elems, 3):
        for e in range(tri[0] + 1):
            checks += 1
            if m2_decode(e, tri, A) != halt0_tower_member(A, 1, e, cutoff):
                agree = False

    res3 = brute_homogeneous(cn_coloring(3, A), U, 5)
    assert res3.witness is not None
    for quad in combinations(res3.witness.set.elems, 4):
        for e in range(quad[0] + 1):
            checks += 1
            if mn_decode(3, e, quad, A) != halt0_tower_member(A, 2, e, cutoff):
                agree = False

    # reconstruction against the pair-coded jump at stabilized stages
    X = ExplicitOracle([3])
    H = FinSet([4, 60, 80, 100, 120, 140])
    assert verify_exact_homogeneous(H, dh_coloring(X)).passed
    rec = dh_reconstruct(H, 4, X)
    lvl1 = rec.levels[1].members.below(60)
    for stage in (90, 120):
        if jump_pairs_approx(X, stage).below(60) != lvl1:
            agree = False
    elapsed = time.time() - t0
    report(7, agree, elapsed, f"{checks} decoder checks, 100% agreement")


def test_criterion_8_regressive_suite():
    t0 = time.time()
    ok = True
    km = km_dh_coloring(EMPTY)
    for s in enumerate_exactly_large(FinSet(range(2, 15))):
        v = km(s)
        if s.min() > 0 and v >= s.min():
            ok = False
            break

    # round trips on 10-element universes
    universe = FinSet(range(1, 11))
    for seed in range(8):
        c = random_regressive_coloring(seed)
        red = km_to_rt(c)
        found = exact_homog_search(red.coloring, universe, 5)
        if found.witness is None:
            continue
        shifted = red.transform(found.witness.set)
        if not verify_min_homogeneous(shifted, c).passed:
            ok = False
            break

    two = ExactColoring(lambda s: (s.elems[1] - s.min()) % 2)
    u2 = FinSet(range(2, 12))
    for k in (7, 6, 5):
        found = min_homog_search(two, u2, k)
        if found.witness is not None:
            thinned = rt_via_km(two, found.witness.set)
            if not verify_exact_homogeneous(thinned, two).passed:
                ok = False
            break
    elapsed = time.time() - t0
    report(8, ok, elapsed, "regressivity exhaustive on {2..14}; round trips clean")


def test_criterion_9_literal_mode_degeneracy():
    t0 = time.time()
    rng = random.Random(9)
    c = c2_coloring(EMPTY, "literal")
    ok = True
    for _ in range(10 ** 3):
        k = rng.randrange(0, 40)
        y = k + 1 + rng.randrange(0, 40)
        z = y + 1 + rng.randrange(0, 40)
        if c((k, y, z)) != 1:
            ok = False
            break
    elapsed = time.time() - t0
    report(9, ok, elapsed, "literal mode constant 1 on 1e3 random triples")
