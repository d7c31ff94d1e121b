"""Tests for preimage analysis, the degree, and the image presentation."""

import random
import time
from pathlib import Path

import pytest

from conftest import (
    FIXTURE_NAMES,
    PLUS_TRIPLE,
    all_words,
    backward_sets,
    brute_image_words,
    brute_periodic_image_words,
    brute_preimage_blocks,
    brute_profile,
    forward_sets,
    preimage_blocks,
    preimage_profile,
    preimage_profiles,
    random_code,
    random_triple,
    ref_pair_graph,
)
from factorcode import (
    PeriodicPoint,
    PreconditionError,
    cli,
    codes,
    d_star,
    degree,
    degree_witness,
    fixtures,
    image_blocks,
    image_irreducible,
    is_finite_to_one,
    make_sft,
    parse_triple,
    periodic_image_points,
    sofic_image,
)
from factorcode import core, graphs, measures
from factorcode.core import FactorTriple

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


D_STAR_EXPECTED = {
    "fix_a": (("0",), 0, 1),
    "fix_b": (("0",), 0, 2),
    "fix_c": (("0",), 0, 2),
    "fix_d": (("0", "1"), 1, 1),
    "fix_e": (("1", "1"), 0, 2),
    "fix_g": (("1",), 0, 1),
}

FINITE_TO_ONE_EXPECTED = {
    "fix_a": True, "fix_b": True, "fix_c": False,
    "fix_d": False, "fix_e": False, "fix_g": True,
}

PRESENTATION_EXPECTED = {
    "fix_a": ("0", "1"),
    "fix_b": ("a+b",),
    "fix_c": ("0+1",),
    "fix_d": ("a+b", "c", "a", "d"),
    "fix_e": ("b+d+e", "a+c+f+g", "a+f+g"),
    "fix_g": ("p+q", "t", "p"),
}

PERIODIC_POINTS_EXPECTED = {
    "fix_a": ["0", "01", "001", "0001"],
    "fix_b": ["0"],
    "fix_c": ["0"],
    "fix_d": ["0", "01", "001", "011", "0001", "0011"],
    "fix_e": ["1", "01", "011", "0111"],
    "fix_g": ["0", "001", "0001"],
}


def test_sweep_sets_on_a_hand_example():
    t = fixtures.load("fix_d")
    fwd = forward_sets(t, ("0", "0", "1"))
    bwd = backward_sets(t, ("0", "0", "1"))
    assert [set(s) for s in fwd] == [{"a", "b"}, {"a", "b"}, {"c"}]
    assert [set(s) for s in bwd] == [{"a", "b"}, {"a", "b"}, {"c", "d"}]
    profiles = preimage_profiles(t, ("0", "0", "1"))
    assert [p.symbols for p in profiles] == [f & b for f, b in zip(fwd, bwd)]
    assert preimage_blocks(t, ("0", "0", "1")) == [
        ("a", "a", "c"), ("a", "b", "c"), ("b", "b", "c")]


def test_preimage_blocks_match_brute_enumeration():
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for n in (1, 2, 3, 4):
            for word in sorted(brute_image_words(t, n)):
                got = preimage_blocks(t, word)
                want = brute_preimage_blocks(t, word)
                xorder = {s: i for i, s in enumerate(t.x.symbols)}
                assert sorted(got) == sorted(want)
                assert got == sorted(
                    got, key=lambda u: tuple(xorder[s] for s in u))


def test_profiles_match_brute_enumeration():
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for n in (1, 2, 3, 4):
            for word in sorted(brute_image_words(t, n)):
                for i in range(n):
                    assert preimage_profile(t, word, i).symbols == \
                        brute_profile(t, word, i)


def test_profile_of_word_outside_language_is_empty():
    t = fixtures.load("fix_a")
    assert preimage_profile(t, ("1", "1"), 0).symbols == frozenset()
    with pytest.raises(ValueError, match="unknown image symbol"):
        preimage_profiles(t, ("1", "z"))
    with pytest.raises(ValueError):
        preimage_profiles(t, ())
    with pytest.raises(ValueError, match="index"):
        preimage_profile(t, ("0",), 3)


def test_symbol_separation_on_a_two_point_fiber():
    t = fixtures.load("fix_b")
    for n in (2, 4, 6):
        word = ("0",) * n
        blocks = preimage_blocks(t, word)
        assert len(blocks) == 2
        u, v = blocks
        assert all(u[i] != v[i] for i in range(n))


def test_d_star_frozen_values_and_witness_profiles():
    for name, (word, index, value) in D_STAR_EXPECTED.items():
        t = fixtures.load(name)
        w = d_star(t)
        assert (w.word, w.index, w.value) == (word, index, value)
        assert len(preimage_profile(t, w.word, w.index).symbols) == value


def test_d_star_is_a_global_minimum_at_desk_scale():
    rng = random.Random(23)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(25)]
    for t in triples:
        w = d_star(t)
        horizon = min(len(w.word) + 2, 6)
        floor = min(
            len(brute_profile(t, word, i))
            for n in range(1, horizon + 1)
            for word in brute_image_words(t, n)
            for i in range(n)
            if brute_profile(t, word, i))
        assert w.value == floor
        assert len(brute_profile(t, w.word, w.index)) == w.value


def test_pair_graph_shape():
    """The label product that the finite-to-one test walks as masks,
    pinned on the reference that its oracle searches."""
    t = fixtures.load("fix_b")
    vertices, edges, _ = ref_pair_graph(t)
    assert set(vertices) == {("a", "a"), ("a", "b"), ("b", "a"),
                             ("b", "b")}
    assert set(edges) == {(("a", "a"), ("b", "b")),
                          (("b", "b"), ("a", "a")),
                          (("a", "b"), ("b", "a")),
                          (("b", "a"), ("a", "b"))}
    sizes = {name: tuple(map(len, ref_pair_graph(fixtures.load(name))[:2]))
             for name in FIXTURE_NAMES}
    assert sizes == {"fix_a": (2, 3), "fix_b": (4, 4), "fix_c": (4, 16),
                     "fix_d": (8, 18), "fix_e": (25, 50), "fix_g": (5, 6)}


def test_finite_to_one_frozen_and_diamond_free():
    for name, expected in FINITE_TO_ONE_EXPECTED.items():
        t = fixtures.load(name)
        assert is_finite_to_one(t) == expected


def diamond_up_to(t, max_len):
    """Two distinct equally labeled words with equal endpoints."""
    for n in range(2, max_len + 1):
        seen = {}
        for u in all_words(t.x, n):
            key = (t.label_word(u), u[0], u[-1])
            if key in seen and seen[key] != u:
                return True
            seen[key] = u
    return False


def test_finite_to_one_claims_imply_no_short_diamond():
    rng = random.Random(29)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(40)]
    for t in triples:
        if is_finite_to_one(t):
            assert not diamond_up_to(t, 7)
        else:
            assert diamond_up_to(t, 2 * len(t.x.symbols) ** 2 + 2)


def test_degree_frozen_values():
    assert degree(fixtures.load("fix_a")) == 1
    assert degree(fixtures.load("fix_b")) == 2
    assert degree(fixtures.load("fix_g")) == 1
    for name in ("fix_a", "fix_b", "fix_g"):
        t = fixtures.load(name)
        assert degree_witness(t) == d_star(t)
    with pytest.raises(PreconditionError, match="infinite-to-one"):
        degree(fixtures.load("fix_c"))


def test_degree_strict_requires_irreducible_domain():
    x = make_sft(("a", "b", "c", "d"),
                 [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    t = FactorTriple(x, {"a": "0", "b": "1", "c": "0", "d": "1"},
                     ("0", "1"))
    assert is_finite_to_one(t)
    assert degree(t) == 2
    with pytest.raises(PreconditionError, match="domain shift"):
        degree(t, strict=True)


def test_degree_needs_certified_irreducible_image():
    x = make_sft(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")])
    t = FactorTriple(x, {"a": "0", "b": "1"}, ("0", "1"))
    assert is_finite_to_one(t)
    assert not image_irreducible(t)
    with pytest.raises(PreconditionError, match="image shift"):
        degree(t)


def test_presentation_shape_frozen():
    for name, states in PRESENTATION_EXPECTED.items():
        image = sofic_image(fixtures.load(name))
        assert image.triple.x.symbols == states
        assert image.irreducible


def test_check_on_an_irreducible_domain_runs_no_tarjan_pass_over_the_image(
        monkeypatch):
    """``check`` reads the image's irreducibility off an irreducible
    domain, so no strongly connected components pass runs over the
    presentation; on a reducible domain one runs, when the image's
    irreducibility is first read."""
    seen = []
    tarjan = graphs.strongly_connected_components

    def recorded(adj):
        seen.append(adj)
        return tarjan(adj)

    monkeypatch.setattr(graphs, "strongly_connected_components", recorded)
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        assert t.x.is_irreducible
        cli._cmd_check(t, None, {})
        image = sofic_image(t)
        assert "components" not in vars(image)
        assert all(adj is not image.successors for adj in seen)
    x = make_sft(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")])
    t = FactorTriple(x, {"a": "0", "b": "1"}, ("0", "1"))
    cli._cmd_check(t, None, {})
    image = sofic_image(t)
    assert [adj is image.successors for adj in seen].count(True) == 1


def test_check_reads_forward_tables_only(monkeypatch):
    """The diamond test, the image presentation and the image's
    irreducibility build no backward table and invert no graph."""
    def refuse(adj):
        raise AssertionError("a graph was inverted")

    monkeypatch.setattr(graphs, "invert", refuse)
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        is_finite_to_one(t)
        sofic_image(t)
        image_irreducible(t)
        assert (codes._subset_search.__wrapped__, True) in t.derived
        assert not any(arg is False for key in t.derived for arg in key[1:])


def test_presentation_is_right_resolving_and_label_homogeneous():
    rng = random.Random(31)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(25)]
    for t in triples:
        image = sofic_image(t)
        pres = image.triple
        members_of = {name: codes._symbols(t, mask)
                      for name, mask in zip(image.names, image.masks)}
        for state in pres.x.symbols:
            members = members_of[state]
            assert len({t.label[s] for s in members}) == 1
            labels = [pres.label[u] for u in pres.x.successors(state)]
            assert len(labels) == len(set(labels))
            for nxt in pres.x.successors(state):
                grown = {u for s in members for u in t.x.successors(s)
                         if t.label[u] == pres.label[nxt]}
                assert grown == members_of[nxt]


def test_presentation_language_equals_image_language():
    rng = random.Random(37)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(25)]
    for t in triples:
        pres = sofic_image(t).triple
        for n in (1, 2, 3, 4):
            presented = {pres.label_word(u) for u in all_words(pres.x, n)}
            assert presented == brute_image_words(t, n)


def assert_image_blocks_are_the_image_words(t, lengths):
    yorder = {c: i for i, c in enumerate(t.y_alphabet)}
    for n in lengths:
        got = image_blocks(t, n)
        assert set(got) == brute_image_words(t, n)
        assert got == sorted(got, key=lambda w: tuple(yorder[c] for c in w))


def test_image_blocks_sorted_in_image_alphabet_order():
    for name in FIXTURE_NAMES:
        assert_image_blocks_are_the_image_words(fixtures.load(name),
                                                (1, 2, 3, 4))
    with pytest.raises(ValueError):
        image_blocks(fixtures.load("fix_a"), 0)


def test_image_blocks_are_the_image_words_on_random_codes():
    """The walks of the subset automaton spell every image word once, in
    order, on irreducible and on non-essential domains alike."""
    rng = random.Random(30)
    triples = [random_triple(rng) for _ in range(20)]
    triples += [random_code(rng, rng.randint(2, 5), i % 2 == 0)
                for i in range(20)]
    assert any(not t.x.is_essential for t in triples)
    for t in triples:
        assert_image_blocks_are_the_image_words(t, range(1, 7))


def test_image_blocks_are_the_image_words_on_the_pool_measure_supports():
    """The measure-positive words that the class degree search and the
    entropy bound read are the image blocks of each support."""
    supports = 0
    for path in sorted(POOL.glob("*.measure")):
        t = parse_triple((POOL / (path.stem.rpartition("_")[0]
                                  + ".triple")).read_text())
        measure = measures.parse_measure(path.read_text(),
                                         sofic_image(t).triple.x)
        support = measures._measure_support(t, measure)
        assert_image_blocks_are_the_image_words(support, range(1, 7))
        supports += 1
    assert supports == 26


def test_image_blocks_refuse_a_length_over_the_word_budget():
    # the golden mean shift has 28,657 words of length 21 and 46,368 of
    # length 22: the words of length 2 to 22 are 121,388 walks of the
    # subset automaton, those of length 2 to 21 75,020
    t = fixtures.load("fix_a")
    with pytest.raises(PreconditionError) as info:
        image_blocks(t, 40)
    assert str(info.value) == (
        "the image words of length 40 take more than %d walks of the "
        "subset automaton, the limit" % core.WALK_BUDGET)
    assert len(image_blocks(t, 21)) == 28657
    with pytest.raises(PreconditionError, match="length 22 take more"):
        image_blocks(t, 22)


def test_image_blocks_stop_listing_a_level_at_the_word_budget(monkeypatch):
    """The full shift on 40 symbols has 1,600 words of length 2, one walk
    of one edge each: the walks are counted, and a count past the budget
    refuses the listing before any word is listed. The limit is exact."""
    syms = ["s%d" % i for i in range(40)]
    t = FactorTriple(make_sft(syms, [(a, b) for a in syms for b in syms]),
                     {s: s for s in syms}, tuple(syms))
    listed = []
    real = graphs.walks

    def spy(*args):
        listed.append(real(*args))
        return listed[-1]

    monkeypatch.setattr(graphs, "walks", spy)
    monkeypatch.setattr(core, "WALK_BUDGET", 1599)
    with pytest.raises(PreconditionError,
                       match="length 2 take more than 1599 walks"):
        image_blocks(t, 2)
    assert listed == [None]
    monkeypatch.setattr(core, "WALK_BUDGET", 1600)
    assert len(image_blocks(t, 2)) == 1600
    assert len(listed[-1][-1]) == 1600


def test_periodic_image_points_frozen_and_brute_checked():
    for name, words in PERIODIC_POINTS_EXPECTED.items():
        t = fixtures.load(name)
        pts = periodic_image_points(t, 4)
        assert [''.join(p.word) for p in pts] == words
        assert {p.word for p in pts} == brute_periodic_image_words(t, 4)
    with pytest.raises(ValueError):
        periodic_image_points(fixtures.load("fix_a"), 0)


def test_periodic_image_points_refuse_a_period_over_the_walk_budget(
        monkeypatch):
    # the walks are counted, not listed, before any point is: a long
    # period is refused at once
    t = fixtures.load("fix_a")
    start = time.perf_counter()
    with pytest.raises(PreconditionError,
                       match="period up to 60 take more than %d walks"
                       % core.WALK_BUDGET):
        periodic_image_points(t, 60)
    assert time.perf_counter() - start < 1.0
    # fix_d needs 592 walks at period 8: the limit is exact
    t = fixtures.load("fix_d")
    want = periodic_image_points(t, 8)
    monkeypatch.setattr(core, "WALK_BUDGET", 592)
    assert periodic_image_points(t, 8) == want
    monkeypatch.setattr(core, "WALK_BUDGET", 591)
    with pytest.raises(PreconditionError, match="more than 591 walks"):
        periodic_image_points(t, 8)


def test_a_plus_in_a_domain_symbol_shares_a_state_name():
    """The int-indexed presentation lists the periodic points of a triple
    whose states share a name; only its named triple, which a measure
    file needs, is refused, naming the shared name."""
    t = parse_triple(PLUS_TRIPLE)
    image = sofic_image(t)
    assert image.names == ("c", "d", "a+b", "a+b")
    pts = periodic_image_points(t, 3)
    assert len(pts) == 6
    assert {p.word for p in pts} == brute_periodic_image_words(t, 3)
    with pytest.raises(PreconditionError, match="both named 'a\\+b'"):
        image.triple


def test_periodic_image_points_on_random_triples():
    rng = random.Random(41)
    for _ in range(25):
        t = random_triple(rng)
        got = {p.word for p in periodic_image_points(t, 3)}
        assert got == brute_periodic_image_words(t, 3)
