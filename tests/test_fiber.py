"""Tests for fiber graphs, transition classes, windows, and extraction."""

import random
from math import gcd, inf

import pytest

from conftest import (
    FIXTURE_NAMES,
    brute_is_transition_block,
    brute_periodic_preimages,
    brute_pruned_phase_vertices,
    brute_window_blocks,
    brute_window_blocks_at_radius,
    random_code,
    random_triple,
    ref_unrolled,
    ref_window_radii,
)
from factorcode import (
    PeriodicPoint,
    PreconditionError,
    build_fiber_graph,
    class_of_preimage,
    enumerate_periodic_preimages,
    extract_transition_block,
    fixtures,
    minimal_depth_at,
    periodic_image_points,
    synchronizing_extension,
    transition_classes,
    window_blocks,
)
from factorcode import graphs, make_sft
from factorcode.core import FactorTriple
from factorcode.fiber import _unrolled


def fixture_points(name, max_period=4):
    t = fixtures.load(name)
    return t, periodic_image_points(t, max_period)


def transient_chain_triple():
    """Over the fixed point 0 the phase graph is a self-loop at a and the
    dead chain p0 p1 s2 w q1 q2, which s1 also enters at w: the block
    radii peak inside the chain, and only at s2 w among the windows of
    width 2."""
    syms = ("a", "p0", "p1", "s2", "s1", "w", "q1", "q2", "z")
    edges = [("a", "a"), ("a", "z"), ("z", "a"), ("z", "p0"), ("z", "s1"),
             ("p0", "p1"), ("p1", "s2"), ("s2", "w"), ("s1", "w"),
             ("w", "q1"), ("q1", "q2"), ("q2", "z")]
    label = {s: "1" if s == "z" else "0" for s in syms}
    return FactorTriple(make_sft(syms, edges), label, ("0", "1"))


def test_build_fiber_graph_validates_input():
    t = fixtures.load("fix_a")
    with pytest.raises(ValueError, match="unknown image symbol"):
        build_fiber_graph(t, PeriodicPoint(("z",)))
    with pytest.raises(PreconditionError, match="no preimage"):
        build_fiber_graph(t, PeriodicPoint(("1",)))


def test_fiber_graph_shape_on_golden_mean_orbit():
    t = fixtures.load("fix_e")
    g = build_fiber_graph(t, PeriodicPoint(("0", "1")))
    assert g.word == ("0", "1")
    assert g.period == 2
    assert set(g.vertices) == {
        ("b", 0), ("d", 0), ("e", 0), ("a", 1), ("c", 1), ("f", 1),
        ("g", 1)}
    assert set(g.pruned) == set(g.vertices)


def test_two_fixed_point_fiber_report():
    t = fixtures.load("fix_b")
    report = transition_classes(build_fiber_graph(t, PeriodicPoint(("0",))))
    assert report.class_count == 2
    assert report.unrolled_period == 2
    assert [c.name for c in report.classes] == ["C1", "C2"]
    assert [c.representative.word for c in report.classes] == [
        ("a", "b"), ("b", "a")]
    assert report.reaches == ()
    assert report.transient_symbols == frozenset()
    assert report.stable_under_doubling


def test_full_shift_point_fiber_report():
    t = fixtures.load("fix_c")
    report = transition_classes(build_fiber_graph(t, PeriodicPoint(("0",))))
    assert report.class_count == 1
    assert report.s_sets["C1"][0] == frozenset({"0", "1"})


def test_three_class_orbit_report_in_full():
    t = fixtures.load("fix_e")
    y = PeriodicPoint(("0", "1"))
    report = transition_classes(build_fiber_graph(t, y))
    assert report.word == ("0", "1")
    assert report.period == 2
    assert report.unrolled_period == 2
    assert report.class_count == 3
    assert [c.name for c in report.classes] == ["C1", "C2", "C3"]
    assert [c.representative.word for c in report.classes] == [
        ("b", "a"), ("d", "f"), ("e", "g")]
    assert set(report.reaches) == {("C1", "C2"), ("C1", "C3")}
    assert report.s_sets["C1"][0] == frozenset({"b"})
    assert report.s_sets["C1"][1] == frozenset({"a"})
    assert report.s_sets["C2"][0] == frozenset({"d"})
    assert report.s_sets["C2"][1] == frozenset({"f"})
    assert report.s_sets["C3"][0] == frozenset({"e"})
    assert report.s_sets["C3"][1] == frozenset({"g"})
    assert report.transient == (frozenset(), frozenset({"c"}))
    assert report.transient_symbols == frozenset({"c"})
    assert report.stable_under_doubling


def test_two_class_reports_on_other_orbits():
    t = fixtures.load("fix_e")
    rep1 = transition_classes(build_fiber_graph(t, PeriodicPoint(("1",))))
    assert rep1.class_count == 2
    assert [c.representative.word for c in rep1.classes] == [
        ("f", "g"), ("g", "f")]
    assert rep1.transient_symbols == frozenset({"a", "c"})
    td = fixtures.load("fix_d")
    repd = transition_classes(build_fiber_graph(td, PeriodicPoint(("0",))))
    assert repd.class_count == 2
    assert [c.representative.word for c in repd.classes] == [
        ("a",), ("b",)]
    assert set(repd.reaches) == {("C1", "C2")}
    tg = fixtures.load("fix_g")
    repg = transition_classes(
        build_fiber_graph(tg, PeriodicPoint(("0", "0", "1"))))
    assert repg.class_count == 1
    assert repg.classes[0].representative.word == ("p", "q", "t")


def oracle_cases():
    """Every fixture point of period at most 4, and up to three points of
    period at most 3 of each of 20 seeded random codes."""
    cases = []
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        cases.extend((t, y) for y in points)
    rng = random.Random(67)
    for i in range(20):
        t = (random_triple(rng) if i % 2 else
             random_code(rng, rng.randint(3, 8), reducible=i % 4 == 0))
        cases.extend((t, y) for y in periodic_image_points(t, 3)[:3])
    return cases


def test_one_pass_depths_and_pruning_match_their_definitions():
    for t, y in oracle_cases():
        g = build_fiber_graph(t, y)
        adj = g.adjacency
        assert list(g.cyclic) == graphs.nontrivial_components(adj)
        wants = (graphs.walk_depths(adj),
                 graphs.walk_depths(graphs.invert(adj)))
        for got, want in zip(g.depths, wants):
            assert got == {v: inf if d is None else d for v, d in want.items()}
        assert g.pruned == graphs.bi_essential_nodes(adj)
        assert g.pruned == brute_pruned_phase_vertices(t, g.word)


def test_covers_match_the_direct_unrolled_build():
    # the lift keeps the direct build's vertex, neighbour and component
    # orders, which fix the class names and representatives
    for t, y in oracle_cases():
        g = build_fiber_graph(t, y)
        m = transition_classes(g).unrolled_period // g.period
        for fold in sorted({1, 2, m, 2 * m}):
            cover = _unrolled(t, g.word, fold * g.period)
            adj, order = ref_unrolled(t, g.word, fold)
            assert list(cover.adjacency.items()) == list(adj.items())
            assert cover.components == order
            assert list(cover.cyclic) == [
                c for c in order if graphs.is_cyclic(adj, c)]


def test_cyclic_components_are_those_of_the_pruned_graph():
    # the phase graph keeps those of its one Tarjan pass; the class order
    # and the doubling certificate read one pass per cover. Over a base
    # component of cyclicity c the m-fold cover has gcd(c / p, m) cyclic
    # components, each lying over all of it
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            g = build_fiber_graph(t, y)
            assert {frozenset(c) for c in g.cyclic} == {
                frozenset(c) for c in
                graphs.nontrivial_components(g.pruned_adjacency())}
            p = g.period
            big_p = transition_classes(g).unrolled_period
            base = {v: i for i, comp in enumerate(g.cyclic) for v in comp}
            for period in (big_p, 2 * big_p):
                h = _unrolled(t, g.word, period)
                assert h.components == \
                    graphs.strongly_connected_components(h.adjacency)
                assert list(h.cyclic) == \
                    graphs.nontrivial_components(h.adjacency)
                over = [0] * len(g.cyclic)
                for comp in h.cyclic:
                    shadow = {(s, k % p) for s, k in comp}
                    i = base[next(iter(shadow))]
                    assert shadow == set(g.cyclic[i])
                    over[i] += 1
                assert over == [
                    gcd(graphs.component_cyclicity(g.adjacency, c) // p,
                        period // p) for c in g.cyclic]


def test_report_invariants_on_all_fixture_points():
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            g = build_fiber_graph(t, y)
            report = transition_classes(g)
            big_p = report.unrolled_period
            assert big_p % y.period == 0
            assert report.class_count == len(report.classes) >= 1
            assert [c.name for c in report.classes] == [
                "C%d" % (i + 1) for i in range(report.class_count)]
            seen = set()
            for c in report.classes:
                assert not (c.vertices & seen)
                seen |= c.vertices
                rep = c.representative
                assert t.x.admits_cycle(rep.word)
                assert t.label_word(rep.word) == y.window(0, rep.period - 1)
                assert rep.period % y.period == 0
                assert class_of_preimage(t, report, rep) == c.name
            # reaches is a strict partial order on the class names
            names = {c.name for c in report.classes}
            for a, b in report.reaches:
                assert a in names and b in names and a != b
                assert (b, a) not in report.reaches
            for a, b in report.reaches:
                for c, d in report.reaches:
                    if b == c:
                        assert (a, d) in report.reaches
            # the S-sets and the transient symbols tile each phase
            for n in range(big_p):
                placed = set()
                for c in report.classes:
                    phase_set = report.s_sets[c.name][n]
                    assert not (phase_set & placed)
                    placed |= phase_set
                fiber_symbols = set(t.preimages(y.symbol_at(n)))
                assert placed | report.transient[n] == fiber_symbols
                assert not (placed & report.transient[n])
            assert report.stable_under_doubling


def test_class_count_never_exceeds_symbol_preimage_count():
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            report = transition_classes(build_fiber_graph(t, y))
            bound = min(len(t.preimages(c)) for c in y.word)
            assert report.class_count <= bound


def test_class_of_preimage_validates_arguments():
    t = fixtures.load("fix_b")
    report = transition_classes(build_fiber_graph(t, PeriodicPoint(("0",))))
    with pytest.raises(ValueError, match="periodic point of the domain"):
        class_of_preimage(t, report, PeriodicPoint(("a",)))


def test_enumerate_periodic_preimages_frozen_and_brute_checked():
    t = fixtures.load("fix_c")
    pts = enumerate_periodic_preimages(t, PeriodicPoint(("0",)), 2)
    assert [p.word for p in pts] == [("0",), ("1",), ("0", "1"),
                                     ("1", "0")]
    tb = fixtures.load("fix_b")
    ptsb = enumerate_periodic_preimages(tb, PeriodicPoint(("0",)), 4)
    assert [p.word for p in ptsb] == [("a", "b"), ("b", "a")]
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            got = {p.word for p in enumerate_periodic_preimages(t, y, 4)}
            assert got == set(brute_periodic_preimages(t, y, 4))


def test_enumerated_preimages_label_onto_the_point():
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            for p in enumerate_periodic_preimages(t, y, 4):
                assert t.x.admits_cycle(p.word)
                span = max(p.period, y.period) * 2
                assert all(t.label[p.symbol_at(i)] == y.symbol_at(i)
                           for i in range(span))


def test_window_blocks_true_blocks_match_brute():
    rng = random.Random(53)
    cases = []
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        cases.extend((t, y) for y in points)
    for _ in range(10):
        t = random_triple(rng)
        pts = periodic_image_points(t, 3)
        cases.extend((t, y) for y in pts[:2])
    for t, y in cases:
        for interval in ((0, 0), (0, 2), (-1, 1), (1, 4)):
            got = set(window_blocks(t, y, interval))
            assert got == brute_window_blocks(t, y, interval)


def test_window_blocks_radius_filtration_is_monotone():
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            interval = (0, 1)
            true_blocks = set(window_blocks(t, y, interval))
            previous = None
            for radius in range(0, 4):
                s_r = set(window_blocks(t, y, interval, radius))
                assert s_r >= true_blocks
                if previous is not None:
                    assert previous >= s_r
                previous = s_r


def test_window_blocks_at_radius_match_brute():
    rng = random.Random(59)
    cases = []
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name, max_period=3)
        cases.extend((t, y) for y in points)
    for i in range(16):
        t = (random_triple(rng) if i % 2 else
             random_code(rng, rng.randint(3, 6), reducible=True))
        pts = periodic_image_points(t, 2)
        cases.extend((t, y) for y in pts[:2])
    radii_seen = set()
    for t, y in cases:
        for interval in ((0, 0), (0, 2), (-1, 1)):
            true_blocks = set(window_blocks(t, y, interval))
            for radius in range(5):
                got = set(window_blocks(t, y, interval, radius))
                assert got == brute_window_blocks_at_radius(
                    t, y, interval, radius), (t, y, interval, radius)
                if got != true_blocks:
                    radii_seen.add(radius)
            radius = synchronizing_extension(t, y, interval).radius
            if radius < 5:
                assert brute_window_blocks_at_radius(
                    t, y, interval, radius) == true_blocks
            if 0 < radius <= 5:
                assert brute_window_blocks_at_radius(
                    t, y, interval, radius - 1) != true_blocks
    # the population has windows that settle only after several radii
    assert {0, 1, 2} <= radii_seen


def test_window_blocks_validates_arguments():
    t = fixtures.load("fix_b")
    y = PeriodicPoint(("0",))
    with pytest.raises(ValueError, match="radius"):
        window_blocks(t, y, (0, 1), -1)
    with pytest.raises(ValueError, match="empty interval"):
        window_blocks(t, y, (2, 1))


def test_synchronizing_extension_frozen_cases():
    tg = fixtures.load("fix_g")
    ext = synchronizing_extension(tg, PeriodicPoint(("0",)), (0, 0))
    assert ext.radius == 1
    assert ext.blocks == (("p",),)
    assert ext.per_coordinate == (frozenset({"p"}),)
    ext2 = synchronizing_extension(
        tg, PeriodicPoint(("0", "0", "1")), (0, 2))
    assert ext2.radius == 0
    assert ext2.blocks == (("p", "q", "t"),)
    tc = transient_chain_triple()
    for interval in ((0, 0), (0, 1)):
        ext = synchronizing_extension(tc, PeriodicPoint(("0",)), interval)
        assert ext.radius == 3
        assert ext.blocks == (("a",) * len(ext.per_coordinate),)
    te = fixtures.load("fix_e")
    ext3 = synchronizing_extension(te, PeriodicPoint(("0", "1")), (0, 3))
    assert ext3.radius == 0
    assert {tuple(b) for b in ext3.blocks} == {
        ("b", "a", "b", "a"), ("b", "a", "b", "c"), ("b", "c", "d", "f"),
        ("b", "c", "e", "g"), ("d", "f", "d", "f"), ("e", "g", "e", "g")}
    tb = fixtures.load("fix_b")
    ext4 = synchronizing_extension(tb, PeriodicPoint(("0",)), (0, 1))
    assert ext4.radius == 0
    assert ext4.blocks == (("a", "b"), ("b", "a"))
    with pytest.raises(ValueError, match="empty interval"):
        synchronizing_extension(tb, PeriodicPoint(("0",)), (1, 0))


def test_synchronizing_radius_is_minimal_and_stable():
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name, max_period=3)
        for y in points:
            for interval in ((0, 0), (0, 2)):
                ext = synchronizing_extension(t, y, interval)
                at = set(window_blocks(t, y, interval, ext.radius))
                beyond = set(window_blocks(t, y, interval, ext.radius + 1))
                true_blocks = set(window_blocks(t, y, interval))
                assert at == beyond == true_blocks
                assert set(ext.blocks) == true_blocks
                if ext.radius > 0:
                    before = set(
                        window_blocks(t, y, interval, ext.radius - 1))
                    assert before != true_blocks
                for i, column in enumerate(ext.per_coordinate):
                    assert column == {b[i] for b in ext.blocks}


def test_radius_sweep_matches_window_walk_oracle():
    rng = random.Random(61)
    cases = []
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name, max_period=3)
        cases.extend((t, y) for y in points)
    for i in range(32):
        t = (random_triple(rng) if i % 2 else
             random_code(rng, rng.randint(3, 6), reducible=True))
        cases.extend((t, y) for y in periodic_image_points(t, 3)[:2])
    cases.append((transient_chain_triple(), PeriodicPoint(("0",))))
    radii_seen, extract_radii = set(), set()
    for t, y in cases:
        for width in range(1, 10):
            for m in (-2, 0, 3):
                interval = (m, m + width - 1)
                radii = ref_window_radii(t, y, interval)
                radius = 1 + max((r for r in radii.values() if r != inf),
                                 default=-1)
                true_blocks = [w for w, r in radii.items() if r == inf]
                ext = synchronizing_extension(t, y, interval)
                assert ext.radius == radius, (t, y, interval)
                assert ext.blocks == tuple(true_blocks)
                assert window_blocks(t, y, interval) == true_blocks
                for level in (0, 1, radius):
                    assert window_blocks(t, y, interval, level) == [
                        w for w, r in radii.items() if r >= level]
                radii_seen.add(radius)
        res = extract_transition_block(t, y)
        radii = ref_window_radii(t, y, (0, res.n4))
        assert res.radius == 1 + max(
            (r for r in radii.values() if r != inf), default=-1)
        extract_radii.add(res.radius)
    # windows that settle only after several radii, in both callers
    assert {0, 1, 2, 3} <= radii_seen
    assert extract_radii - {0}


EXTRACT_EXPECTED = {
    ("fix_b", ("0",)): (("0", "0", "0"), 1, {"a", "b"}, 0, 1, 2, 0),
    ("fix_c", ("0",)): (("0", "0", "0"), 1, {"0"}, 0, 1, 2, 0),
    ("fix_a", ("0", "1")): (("0", "1", "0"), 1, {"1"}, 0, 1, 2, 0),
    ("fix_e", ("0", "1")): (("0", "1", "0", "1", "0"), 2, {"b", "d", "e"},
                            1, 2, 4, 0),
    ("fix_e", ("1",)): (("1", "1", "1", "1", "1"), 2, {"f", "g"},
                        0, 1, 2, 1),
    ("fix_d", ("0",)): (("0", "0", "0"), 1, {"a", "b"}, 0, 1, 2, 0),
    ("fix_g", ("0", "0", "1")): (("0", "0", "1"), 1, {"q"}, 0, 1, 2, 0),
}


def test_extraction_frozen_cases():
    for (name, word), expected in EXTRACT_EXPECTED.items():
        t = fixtures.load(name)
        res = extract_transition_block(t, PeriodicPoint(word))
        got = (res.block.word, res.block.index, set(res.block.symbols),
               res.n2, res.n3, res.n4, res.radius)
        assert got == expected, (name, word, got)


def test_extraction_depth_equals_class_count_everywhere():
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            report = transition_classes(build_fiber_graph(t, y))
            res = extract_transition_block(t, y)
            b = res.block
            assert b.depth == res.class_count == report.class_count
            assert brute_is_transition_block(t, b.word, b.index, b.symbols)
            assert 0 <= res.n2 < res.n3 < res.n4
            assert res.radius >= 0
            assert len(b.word) == res.n4 + 1 + 2 * res.radius
            assert 0 < b.index < len(b.word) - 1
            offsets = [s for s in range(y.period)
                       if y.window(s, s + len(b.word) - 1) == b.word]
            assert offsets


def test_extraction_depth_is_reached_by_plain_depth_search():
    # the extracted block is minimal over the point: no shorter window of
    # the same point gives a smaller depth than the class count
    for name in FIXTURE_NAMES:
        t, points = fixture_points(name)
        for y in points:
            res = extract_transition_block(t, y)
            best = None
            for length in range(3, 9):
                for phase in range(y.period):
                    w = y.window(phase, phase + length - 1)
                    _, syms = minimal_depth_at(t, w)
                    if best is None or len(syms) < best:
                        best = len(syms)
            assert best == res.class_count
