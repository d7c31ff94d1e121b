"""Acceptance criteria for the package, one test per criterion.

Each test prints a single "criterion N: PASS" line once its assertions
hold, states its numeric tolerances inline, and enforces its runtime
budget with a monotonic clock.
"""

import random
import time
from math import log, sqrt

from conftest import (MEASURE_PAIRS, image_measure, random_triple,
                      ref_block_optimizer, ref_uniform_conditional_diagnostic)
from factorcode import (
    PeriodicPoint,
    build_fiber_graph,
    class_count_for_measure,
    degree,
    entropy_rate,
    extract_transition_block,
    find_minimal_transition_block,
    fixtures,
    higher_block,
    is_finite_to_one,
    is_transition_block,
    minimal_depth_at,
    parry_measure,
    periodic_image_points,
    pqs_bound,
    relative_entropy_upper_bound,
    routable_symbols,
    synchronizing_extension,
    transition_classes,
    window_blocks,
)

FIXTURE_NAMES = ("fix_a", "fix_b", "fix_c", "fix_d", "fix_e", "fix_g")
FINITE_TO_ONE_PAIRS = (("fix_a", "parry"), ("fix_b", "point"),
                       ("fix_g", "parry"))


def exhaustive_min_depth(t, y, horizon):
    """Smallest depth of any transition block over windows of y up to the
    horizon, by direct minimization at every length and phase."""
    best = None
    for length in range(3, horizon + 1):
        for phase in range(len(y.word)):
            word = y.window(phase, phase + length - 1)
            _, symbols = minimal_depth_at(t, word)
            depth = len(symbols)
            if best is None or depth < best:
                best = depth
    return best


def test_criterion_01_depth_one_witness():
    start = time.monotonic()
    t = fixtures.load("fix_d")
    res = find_minimal_transition_block(t)
    assert res.value == 1
    assert res.certified
    assert res.witness.word == ("0", "0", "1")
    assert res.witness.index == 1
    assert res.witness.symbols == frozenset({"b"})
    assert is_transition_block(t, ("0", "0", "1"), 1, frozenset({"b"}))
    assert "b" in routable_symbols(t, ("0", "0", "1"), 1, ("a", "a", "c"))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "criterion 1 exceeded 1 s: %.2fs" % elapsed
    print("criterion 1: PASS - class degree 1 with witness (001,1,{b}); "
          "aac routable through b at time 1 (%.3fs)" % elapsed)


def test_criterion_02_three_classes_with_transient_symbol():
    start = time.monotonic()
    t = fixtures.load("fix_e")
    report = transition_classes(
        build_fiber_graph(t, PeriodicPoint(("0", "1"))))
    assert report.class_count == 3
    assert tuple(c.name for c in report.classes) == ("C1", "C2", "C3")
    assert set(report.reaches) == {("C1", "C2"), ("C1", "C3")}
    for phase in range(report.period):
        at_phase = {v for v in report.transient[phase]}
        preimages_here = set(t.preimages(report.word[phase]))
        if "c" in preimages_here:
            assert "c" in at_phase
        for cls in report.s_sets.values():
            assert "c" not in cls[phase]
    assert report.transient_symbols == frozenset({"c"})
    res = find_minimal_transition_block(t)
    assert res.value == 2
    assert res.certified
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "criterion 2 exceeded 1 s: %.2fs" % elapsed
    print("criterion 2: PASS - fiber over (01) has classes C1->C2, C1->C3 "
          "with c transient; class degree 2 (%.3fs)" % elapsed)


def test_criterion_03_class_degree_beats_symbol_count_bound():
    t = fixtures.load("fix_c")
    res = find_minimal_transition_block(t)
    assert res.certified
    c_star = res.value
    _, measure = image_measure(t, "point")
    pqs = pqs_bound(t, measure)
    assert c_star == 1
    assert pqs == 2
    assert c_star < pqs
    print("criterion 3: PASS - c* = 1 beats the symbol-count bound 2, "
          "exact integers")


def test_criterion_04_finite_to_one_degree_equality():
    start = time.monotonic()
    for name, expected in (("fix_a", 1), ("fix_b", 2)):
        t = fixtures.load(name)
        res = find_minimal_transition_block(t)
        assert res.certified
        assert degree(t) == res.value == expected
    rng = random.Random(20260816)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 10000:
        attempts += 1
        t = random_triple(rng)
        if not is_finite_to_one(t):
            continue
        assert len(t.x.symbols) <= 5
        res = find_minimal_transition_block(t)
        assert res.certified, "uncertified random finite-to-one triple"
        assert degree(t) == res.value, \
            "degree != class degree on a finite-to-one triple"
        checked += 1
    assert checked == 100
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "criterion 4 exceeded 60 s: %.2fs" % elapsed
    print("criterion 4: PASS - degree equals certified class degree on "
          "fix_a, fix_b, and 100/100 random finite-to-one triples "
          "(%.2fs)" % elapsed)


def test_criterion_05_conjugacy_invariance_of_recodings():
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        fto = is_finite_to_one(t)
        base_degree = degree(t) if fto else None
        base_res = find_minimal_transition_block(t)
        assert base_res.certified
        points = periodic_image_points(t, 3)
        base_counts = {
            y.word: transition_classes(build_fiber_graph(t, y)).class_count
            for y in points}
        for n in (2, 3):
            rt, _ = higher_block(t, n)
            assert is_finite_to_one(rt) == fto
            if fto:
                assert degree(rt) == base_degree
            res = find_minimal_transition_block(rt)
            assert res.certified
            assert res.value == base_res.value
            for y in points:
                count = transition_classes(
                    build_fiber_graph(rt, y)).class_count
                assert count == base_counts[y.word]
    print("criterion 5: PASS - degree, class degree, and per-point class "
          "counts unchanged under 2- and 3-block recodings of every "
          "fixture, exact")


def test_criterion_06_recurrent_point_depth_equality():
    pairs = 0
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for y in periodic_image_points(t, 4):
            report = transition_classes(build_fiber_graph(t, y))
            assert report.stable_under_doubling, \
                "unrolling stability certificate failed"
            assert exhaustive_min_depth(t, y, 8) == report.class_count
            pairs += 1
    assert pairs >= 14
    print("criterion 6: PASS - exhaustive min depth at horizon 8 equals "
          "the fiber class count on all %d periodic points" % pairs)


def test_criterion_07_class_count_bounded_by_symbol_preimages():
    checked = 0
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for y in periodic_image_points(t, 4):
            count = transition_classes(
                build_fiber_graph(t, y)).class_count
            for c in y.word:
                assert count <= len(t.preimages(c))
                checked += 1
    print("criterion 7: PASS - class count never exceeds any symbol "
          "preimage count (%d symbol checks, zero violations)" % checked)


def test_criterion_08_synchronizing_extension_of_a_window():
    t = fixtures.load("fix_g")
    y = PeriodicPoint(("0",))
    ext = synchronizing_extension(t, y, (0, 0))
    assert ext.radius == 1
    assert ext.blocks == (("p",),)
    assert window_blocks(t, y, (0, 0), radius=1) == \
        window_blocks(t, y, (0, 0), radius=2)
    assert window_blocks(t, y, (0, 0), radius=0) != ext.blocks
    print("criterion 8: PASS - window [0,0] over 0^inf synchronizes at "
          "l = 1 with S = {p}, and S^1 = S^2")


def test_criterion_09_extracted_blocks_have_class_count_depth():
    pairs = 0
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for y in periodic_image_points(t, 4):
            res = extract_transition_block(t, y)
            count = transition_classes(
                build_fiber_graph(t, y)).class_count
            assert res.class_count == count
            assert res.block.depth == count
            assert len(res.block.symbols) == count
            assert is_transition_block(t, res.block.word, res.block.index,
                                       res.block.symbols)
            pairs += 1
    print("criterion 9: PASS - extraction returns a verified transition "
          "block of depth equal to the class count on all %d points"
          % pairs)


def test_criterion_10_entropy_numerics():
    start = time.monotonic()
    golden = (1 + sqrt(5)) / 2
    t = fixtures.load("fix_a")
    assert abs(entropy_rate(parry_measure(t.x)) - log(golden)) < 1e-14

    for name, kind in FINITE_TO_ONE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        h = entropy_rate(measure)
        values = [relative_entropy_upper_bound(t, measure, k).value
                  for k in (1, 2, 3, 4)]
        for lower_k, higher_k in zip(values, values[1:]):
            assert higher_k <= lower_k + 1e-7, \
                "bound not monotone in k on %s" % name
        assert abs(values[-1] - h) < 1e-6, \
            "k=4 bound missed h(nu) on %s" % name

    for name in ("fix_d", "fix_e"):
        t = fixtures.load(name)
        _, measure = image_measure(t, "parry")
        values = [relative_entropy_upper_bound(t, measure, k).value
                  for k in (1, 2, 3, 4)]
        for lower_k, higher_k in zip(values, values[1:]):
            assert higher_k <= lower_k + 1e-7, \
                "bound not monotone in k on %s" % name

    for name, kind in (("fix_a", "parry"), ("fix_b", "point"),
                       ("fix_c", "point")):
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        bound = relative_entropy_upper_bound(t, measure, 2)
        assert ref_uniform_conditional_diagnostic(
            t, 2, ref_block_optimizer(t, bound)) <= 1e-8

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "criterion 10 exceeded 30 s: %.2fs" % elapsed
    print("criterion 10: PASS - parry entropy within 1e-14, bounds "
          "monotone within 1e-7 and tight within 1e-6 by k=4 on "
          "finite-to-one fixtures, optimizers' conditionals uniform within "
          "1e-8 (%.2fs)"
          % elapsed)


def test_criterion_11_class_count_below_symbol_count_bound():
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        res = class_count_for_measure(t, measure, horizon=8)
        assert res.certified
        pqs = pqs_bound(t, measure)
        assert isinstance(res.value, int) and isinstance(pqs, int)
        assert res.value <= pqs
    print("criterion 11: PASS - certified measure class count is at most "
          "the positive-symbol preimage bound on all %d measure pairs"
          % len(MEASURE_PAIRS))
