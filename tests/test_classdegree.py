"""Tests for transition blocks, routing, and the class degree search."""

import itertools
import random
from pathlib import Path

import pytest

from conftest import (
    FIXTURE_NAMES,
    MEASURE_PAIRS,
    brute_image_words,
    brute_is_transition_block,
    brute_min_depth,
    brute_preimage_blocks,
    brute_routable,
    exact_backward_sweep,
    exact_forward_sweep,
    image_measure,
    labelled_successors,
    random_code,
    random_triple,
    ref_class_degree,
    ref_close_word,
    ref_depth_search,
    ref_min_hitting_set,
    ref_minimal_depth_at,
    ref_route_table,
)
from factorcode import (
    EmptyShiftError,
    PeriodicPoint,
    PreconditionError,
    TransitionBlock,
    build_fiber_graph,
    class_count_for_measure,
    find_minimal_transition_block,
    fixtures,
    is_transition_block,
    make_sft,
    minimal_depth_at,
    parse_triple,
    routable_symbols,
    sofic_image,
    transition_block,
    transition_classes,
)
from factorcode import classdegree, codes, graphs
from factorcode.classdegree import (_close_word, _min_hitting_set,
                                    _pad_to_interior, _Routes)
from factorcode.codes import _symbols, d_star, image_blocks
from factorcode.core import FactorTriple, sub_triple


SEARCH_EXPECTED = {
    "fix_a": (("0", "0", "0"), 1, {"0"}, 1),
    "fix_b": (("0", "0", "0"), 1, {"a", "b"}, 2),
    "fix_c": (("0", "0", "0"), 1, {"0"}, 1),
    "fix_d": (("0", "0", "1"), 1, {"b"}, 1),
    "fix_e": (("0", "1", "1"), 1, {"f", "g"}, 2),
    "fix_g": (("0", "0", "0"), 1, {"p"}, 1),
}

MEASURE_EXPECTED = {
    ("fix_a", "parry"): 1,
    ("fix_b", "point"): 2,
    ("fix_c", "point"): 1,
    ("fix_d", "parry"): 1,
    ("fix_e", "parry"): 2,
    ("fix_e", "orbit01"): 3,
    ("fix_g", "parry"): 1,
}

# Fixtures whose certified class degree is above the exact one: the
# certificate compares two upper bounds at one periodic point, which
# proves a value only when it is 1
KNOWN_UNSOUND = {"fix_e"}

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"

INFINITE_TO_ONE_PROBE = """
xsymbols: u v w
ysymbols: 0
map: u>0 v>0 w>0
edges: u>u u>v v>w w>u
"""


def test_routable_symbols_reroutes_a_specific_preimage():
    t = fixtures.load("fix_d")
    routes = routable_symbols(t, ("0", "0", "1"), 1, ("a", "a", "c"))
    assert "b" in routes
    assert routes == brute_routable(t, ("0", "0", "1"), 1, ("a", "a", "c"))
    # wrong labels, wrong length, and a>d is no edge of the domain
    for path in (("a", "a", "a"), ("a", "c"), ("a", "d", "c")):
        with pytest.raises(ValueError, match="not a preimage"):
            routable_symbols(t, ("0", "0", "1"), 1, path)


def test_routable_symbols_matches_brute_on_fixtures():
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for n in (3, 4):
            for word in sorted(brute_image_words(t, n)):
                blocks = brute_preimage_blocks(t, word)
                for u in blocks:
                    for i in range(1, n - 1):
                        assert routable_symbols(t, word, i, u) == \
                            brute_routable(t, word, i, u, blocks)


def test_transition_block_factory_checks_the_routing_property():
    t = fixtures.load("fix_d")
    block = transition_block(t, ("0", "0", "1"), 1, frozenset({"b"}))
    assert block.depth == 1
    assert is_transition_block(t, ("0", "0", "1"), 1, frozenset({"b"}))
    with pytest.raises(PreconditionError):
        transition_block(t, ("0", "0", "0"), 1, frozenset({"a"}))
    with pytest.raises(ValueError, match="interior"):
        transition_block(t, ("0", "0", "1"), 0, frozenset({"a"}))
    # an empty set routes nothing, and neither does {"b"} with "c", no
    # preimage of the "0" at the index
    for symbols in (frozenset(), frozenset({"b", "c"})):
        assert not is_transition_block(t, ("0", "0", "1"), 1, symbols)
        with pytest.raises(PreconditionError, match="routing fails"):
            transition_block(t, ("0", "0", "1"), 1, symbols)


def _block_candidates(seed):
    """(t, word, index, symbols) for every word of length 3 to 5 over the
    image alphabet, every interior index and every nonempty set of
    preimages of the symbol there, over the fixtures and 20 seeded
    random triples."""
    rng = random.Random(seed)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(20)]
    for t in triples:
        for n in (3, 4, 5):
            for word in itertools.product(t.y_alphabet, repeat=n):
                for index in range(1, n - 1):
                    pre = t.preimages(word[index])
                    for size in range(1, len(pre) + 1):
                        for symbols in itertools.combinations(pre, size):
                            yield t, word, index, symbols


def test_is_transition_block_matches_brute_on_every_symbol_set():
    """The check sweeps forward only up to the index and backward only
    down to it. It agrees with the brute check on every candidate of
    ``_block_candidates``."""
    answers = set()
    for t, word, index, symbols in _block_candidates(71):
        got = is_transition_block(t, word, index, symbols)
        assert got == brute_is_transition_block(t, word, index, symbols), \
            (t, word, index)
        answers.add(got)
    assert answers == {True, False}


def test_transition_block_errors_split_on_the_one_sweep():
    """``transition_block`` raises ValueError exactly when the word has no
    preimage block, PreconditionError exactly when it has one but the
    symbols fail the brute check, and returns the block otherwise; a word
    with an unknown symbol is still named as such."""
    outcomes = set()
    for t, word, index, symbols in _block_candidates(72):
        if not brute_preimage_blocks(t, word):
            with pytest.raises(ValueError, match="not an image block"):
                transition_block(t, word, index, symbols)
            outcomes.add("not an image block")
        elif not brute_is_transition_block(t, word, index, symbols):
            with pytest.raises(PreconditionError, match="routing fails"):
                transition_block(t, word, index, symbols)
            outcomes.add("routing fails")
        else:
            block = transition_block(t, word, index, symbols)
            assert block == TransitionBlock(word, index, frozenset(symbols))
            outcomes.add("block")
    assert len(outcomes) == 3
    t = fixtures.load("fix_d")
    for word in (("0", "z", "1"), ("z", "0", "1"), ("0", "0", "z")):
        with pytest.raises(ValueError, match="unknown image symbol"):
            transition_block(t, word, 1, frozenset({"b"}))


def test_the_block_check_validates_its_word_before_its_symbols():
    """Both forms of the check raise ValueError for an index that is not
    interior, the empty word included, before looking at the word, and
    for an unknown image symbol at the start, at the index or at the end
    whatever the symbols: {"b"} routes ("0", "0", "1") at 1 on fix_d,
    and {"c"} holds no preimage of the "0" there."""
    t = fixtures.load("fix_d")
    for check in (is_transition_block, transition_block):
        for symbols in ({"b"}, {"c"}):
            for word, index in ((("0", "0", "1"), 0), (("0", "0", "1"), 2),
                                ((), 0), (("z", "0", "1"), 0),
                                (("0", "0", "z"), 2)):
                with pytest.raises(ValueError, match="index must be interior"):
                    check(t, word, index, symbols)
            for word in (("z", "0", "1"), ("0", "z", "1"), ("0", "0", "z")):
                with pytest.raises(ValueError,
                                   match="unknown image symbol 'z'"):
                    check(t, word, 1, symbols)


def test_minimal_depth_matches_brute_and_is_valid():
    rng = random.Random(43)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(20)]
    for t in triples:
        for n in (3, 4, 5):
            for word in sorted(brute_image_words(t, n)):
                index, symbols = minimal_depth_at(t, word)
                assert len(symbols) == brute_min_depth(t, word)
                assert brute_is_transition_block(t, word, index, symbols)


def _random_route_sets(rng, size):
    """Route sets over symbols 0..size-1, with duplicates and sets nested
    in or around earlier ones mixed in."""
    sets = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if sets and roll < 0.2:
            sets.append(rng.choice(sets))
        elif sets and roll < 0.4:
            base = sorted(rng.choice(sets))
            sets.append(frozenset(rng.sample(base, rng.randint(1, len(base)))))
        elif sets and roll < 0.5:
            sets.append(rng.choice(sets) | {rng.randrange(size)})
        else:
            sets.append(frozenset(rng.sample(range(size),
                                             rng.randint(1, size))))
    return sets


def _as_mask(symbols):
    return sum(1 << s for s in symbols)


def test_min_hitting_set_matches_exhaustive_oracle():
    # below 1 admits no set and below 2 only the intersection's lowest
    # bit; both return before the branch and bound
    rng = random.Random(59)
    outcomes = set()
    from_two = 0
    for _ in range(3000):
        sets = _random_route_sets(rng, rng.randint(1, 9))
        pool = sorted(set().union(*sets))
        for below in range(1, len(pool) + 2):
            found = _min_hitting_set([_as_mask(rs) for rs in sets], below)
            got = None if found is None else tuple(
                i for i in pool if found >> i & 1)
            assert got == ref_min_hitting_set(sets, pool, below)
            if below <= 2:
                outcomes.add((below, got is None))
            elif _min_hitting_set([_as_mask(rs) for rs in sets], 2) is None:
                # no size-1 set: starting at size 2 changes nothing
                assert _min_hitting_set([_as_mask(rs) for rs in sets],
                                        below, 2) == found
                from_two += 1
    assert outcomes == {(1, True), (2, True), (2, False)}
    assert from_two


def test_min_hitting_set_without_solution_gives_none():
    # an empty route set cannot be met
    sets = [frozenset({0, 1}), frozenset(), frozenset({2})]
    assert ref_min_hitting_set(sets, [0, 1, 2], 4) is None
    assert _min_hitting_set([_as_mask(rs) for rs in sets], 4) is None
    # three disjoint route sets need three symbols
    sets = [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})]
    assert ref_min_hitting_set(sets, [0, 1, 2, 3, 4], 3) is None
    assert _min_hitting_set([_as_mask(rs) for rs in sets], 3) is None
    assert _min_hitting_set([_as_mask(rs) for rs in sets], 4) == 0b1101


def test_minimal_depth_keeps_tie_order():
    # random_code names s0 ... s15 sort differently as strings than in
    # symbol order (s10 < s2), so a mask in name order would show here
    rng = random.Random(67)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(10)]
    triples += [random_code(rng, rng.randint(11, 16), reducible=False)
                for _ in range(6)]
    deepest = 0
    for t in triples:
        for n in (3, 4, 5):
            for word in image_blocks(t, n):
                index, symbols = minimal_depth_at(t, word)
                assert (index, symbols) == ref_minimal_depth_at(t, word)
                deepest = max(deepest, len(symbols))
    assert deepest >= 3


def test_bounded_minimal_depth_matches_the_unbounded_one():
    """With a bound, a word whose least depth reaches the bound gives
    None, and any other gives the unbounded (index, symbols)."""
    rng = random.Random(71)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(20)]
    triples += [random_code(rng, rng.randint(6, 12), reducible=False)
                for _ in range(4)]
    cut = kept = 0
    for t in triples:
        routes = _Routes(t)
        for n in (3, 4, 5, 6):
            for word in image_blocks(t, n):
                want = ref_minimal_depth_at(t, word)
                for below in range(1, len(want[1]) + 3):
                    got = minimal_depth_at(t, word, below, routes)
                    assert got == minimal_depth_at(t, word, below)
                    if len(want[1]) >= below:
                        assert got is None
                        cut += 1
                    else:
                        assert got == want
                        kept += 1
    assert cut and kept


def test_route_memo_matches_whole_word_sweeps():
    """The memo's family at every coordinate is the set of nonzero masks
    of the sweeps from every start (forward) or end symbol across the
    whole word, whether the memo is fresh (as for a word checked on its
    own) or already holds the steps along the word. At an interior
    index, the nonzero meets of the two families are the route sets of
    the start and end pairs that a preimage path joins."""
    rng = random.Random(73)
    cases = [(fixtures.load(name), 8) for name in FIXTURE_NAMES]
    cases += [(random_triple(rng), 6) for _ in range(40)]
    for t, longest in cases:
        shared = _Routes(t)
        for n in range(1, longest + 1):
            for word in image_blocks(t, n):
                fsweeps = [exact_forward_sweep(t, s, word)
                           for s in t.preimages(word[0])]
                bsweeps = [exact_backward_sweep(t, e, word)
                           for e in t.preimages(word[-1])]
                pairs, fsw, bsw = ref_route_table(t, word)
                for routes in (shared, _Routes(t)):
                    fcol = routes.column(word, True)
                    bcol = routes.column(word, False)
                    for col, sweeps in ((fcol, fsweeps), (bcol, bsweeps)):
                        assert [{_symbols(t, m) for m in family}
                                for family in col] == \
                            [{sweep[i] for sweep in sweeps if sweep[i]}
                             for i in range(n)]
                        assert all(all(family) for family in col)
                    for i in range(1, n - 1):
                        assert {_symbols(t, f & b) for f in fcol[i]
                                for b in bcol[i] if f & b} == \
                            {fsw[s][i] & bsw[e][i] for s, e in pairs}


def test_minimal_depth_rejects_bad_words():
    """An unknown image symbol raises the same ValueError at the start, in
    the middle and at the end of the word, with or without a shared
    memo, before any family is looked up."""
    t = fixtures.load("fix_a")
    with pytest.raises(ValueError, match="length"):
        minimal_depth_at(t, ("0", "0"))
    with pytest.raises(ValueError, match="not an image block"):
        minimal_depth_at(t, ("1", "1", "1"))
    routes = _Routes(t)
    minimal_depth_at(t, ("0", "0", "1"), routes=routes)
    for word in (("z", "0", "1"), ("0", "z", "1"), ("0", "0", "z")):
        for memo in (None, routes):
            with pytest.raises(ValueError, match="unknown image symbol"):
                minimal_depth_at(t, word, routes=memo)


def test_search_frozen_results():
    for name, (word, index, symbols, value) in SEARCH_EXPECTED.items():
        t = fixtures.load(name)
        res = find_minimal_transition_block(t)
        assert res.value == value
        assert res.certified
        assert res.witness.word == word
        assert res.witness.index == index
        assert set(res.witness.symbols) == symbols
        # every fixture certifies during the first (length 3) pass
        assert res.horizon == 3


def test_search_matches_the_unbounded_reference():
    """The search passes each word the bound that its best block so far
    sets; every field of the result equals that of the search that takes
    the least block of every word and compares whole keys, except that a
    value of 1 has no certificate, where the reference closes the word
    into a point and checks that it carries one class."""
    cases = [(fixtures.load(name), None, horizon)
             for name in FIXTURE_NAMES for horizon in range(3, 9)]
    cases += [(fixtures.load(name), image_measure(fixtures.load(name),
                                                  kind)[1], horizon)
              for name, kind in MEASURE_PAIRS for horizon in range(3, 9)]
    rng = random.Random(79)
    triples = [random_triple(rng) for _ in range(300)]
    triples += [random_code(rng, rng.randint(5, 12), reducible=False)
                for _ in range(60)]
    cases += [(t, None, horizon) for t in triples for horizon in (6, 8)]
    uncertified = 0
    for t, measure, horizon in cases:
        try:
            if measure is None:
                got = find_minimal_transition_block(t, horizon)
            else:
                got = class_count_for_measure(t, measure, horizon)
        except (PreconditionError, EmptyShiftError):
            continue
        want = ref_depth_search(t, horizon, measure)
        assert (got.value, got.witness, got.horizon, got.certified) == \
            (want.value, want.witness, want.horizon, want.certified)
        # a value of 1 needs no point; the reference closes one anyway
        assert got.certificate == (want.certificate if got.value > 1
                                   else None)
        uncertified += not got.certified
    assert uncertified


@pytest.mark.parametrize("name, witness", [
    ("fix_d", (("0", "0", "1"), 1, {"b"})),
    ("fix_g", (("0", "0", "0"), 1, {"p"})),
])
def test_seed_word_loses_ties_to_earlier_words(name, witness):
    """The seed word padded out of d*'s witness has depth 1 but comes
    after a length-3 word of depth 1, which must win the tie: a word
    ordered before the best one is searched for blocks of the best depth
    itself, not only for smaller ones."""
    t = fixtures.load(name)
    magic = d_star(t)
    seed_word, _ = _pad_to_interior(t, magic.word, magic.index, _Routes(t))
    assert seed_word == ("0", "1", "0")
    assert len(minimal_depth_at(t, seed_word)[1]) == 1
    res = find_minimal_transition_block(t, horizon=8)
    w = res.witness
    assert (w.word, w.index, set(w.symbols)) == witness
    assert res.value == 1 and res.certified


@pytest.mark.parametrize("name, horizon, steps, masks", [
    ("probe", 4, 6, 18),
    ("fix_e", 8, 15, 46),
])
def test_labelled_steps_per_search(name, horizon, steps, masks,
                                   monkeypatch):
    """Words of one search, and the padding of its seed word, share one
    memo of family steps, so each family steps to each image symbol once
    per direction, by one labelled step of each of its masks. The image
    words themselves are walks of the subset automaton, which takes no
    labelled step. (Before the families, the search took 18 and 52
    labelled steps, one per start or end and coordinate; 50 and 98 when
    every word swept its own route table, 26 and 64 when the padding
    swept on its own, and 23 and 62 before the words became walks, with
    the 5 and 10 steps that listing the words level by level took.)"""
    t = parse_triple(INFINITE_TO_ONE_PROBE) if name == "probe" else \
        fixtures.load(name)
    families, labelled = [], []
    real_family = classdegree._Routes._step
    real_step = codes.step

    def family_step(routes, family, c, forward):
        families.append((id(routes), family, c, forward))
        return real_family(routes, family, c, forward)

    def count(table, mask, c):
        labelled.append(c)
        return real_step(table, mask, c)

    monkeypatch.setattr(classdegree._Routes, "_step", family_step)
    monkeypatch.setattr(codes, "step", count)
    monkeypatch.setattr(classdegree, "step", count)
    find_minimal_transition_block(t, horizon)
    assert len(families) == len(set(families)) == steps
    assert len(labelled) == masks


def test_search_certificate_contains_witness_and_counts_match():
    """A certified value above 1 comes with a periodic point that contains
    the witness word and carries that many classes. A value of 1 comes
    with none; its witness word, closed here, carries one class."""
    rng = random.Random(47)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    triples += [random_triple(rng) for _ in range(30)]
    values = set()
    for t in triples:
        res = find_minimal_transition_block(t, horizon=6)
        w = res.witness
        assert res.value == len(w.symbols)
        assert brute_is_transition_block(t, w.word, w.index, w.symbols)
        short = [brute_min_depth(t, word)
                 for n in (3, 4, 5)
                 for word in brute_image_words(t, n)
                 if brute_min_depth(t, word) is not None]
        assert res.value <= min(short)
        y = res.certificate
        if res.value == 1:
            assert res.certified and y is None
            image = sofic_image(t)
            y = _close_word(image.successors, image.labels,
                            image.components, w.word)
        elif not res.certified:
            assert y is None
            continue
        values.add(res.value)
        assert y.window(0, len(w.word) - 1) == w.word
        report = transition_classes(build_fiber_graph(t, y))
        assert report.class_count == res.value
    assert {1, 2} <= values


def test_search_rejects_small_horizon_and_uncertified_image():
    t = fixtures.load("fix_a")
    with pytest.raises(ValueError, match="horizon"):
        find_minimal_transition_block(t, horizon=2)
    _, measure = image_measure(t, "parry")
    with pytest.raises(ValueError, match="horizon"):
        class_count_for_measure(t, measure, horizon=2)
    x = make_sft(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")])
    bad = FactorTriple(x, {"a": "0", "b": "1"}, ("0", "1"))
    with pytest.raises(PreconditionError, match="image shift"):
        find_minimal_transition_block(bad)


def test_uncertified_horizon_then_certified_at_longer_horizon():
    t = parse_triple(INFINITE_TO_ONE_PROBE)
    early = find_minimal_transition_block(t, horizon=4)
    assert (early.value, early.certified) == (2, False)
    assert early.certificate is None
    late = find_minimal_transition_block(t, horizon=5)
    assert (late.value, late.certified) == (1, True)
    assert late.value < early.value


def test_transient_state_in_presentation_still_certifies():
    # The presentation of this code has a state {a, c, d} that the other
    # cyclic component never returns to; closing words must happen inside
    # a cyclic component. A value of 1 needs no closed point, so the test
    # closes the witness word itself.
    t = parse_triple("""
    xsymbols: a b c d
    ysymbols: 0 1
    map: a>0 b>1 c>0 d>0
    edges: a>b b>b b>c c>d d>a d>c
    """)
    res = find_minimal_transition_block(t)
    assert (res.value, res.certified, res.certificate) == (1, True, None)
    image = sofic_image(t)
    word = res.witness.word
    # from the first state carrying its first symbol, {a, c, d}, the word
    # leaves that state's component for one that never returns to it, so
    # the closure must present it from a later start, inside one component
    first = image.labels.index(word[0])
    path = [first]
    for c in word[1:]:
        path += [q for q in image.successors[path[-1]]
                 if image.labels[q] == c]
    assert len(path) == len(word)
    assert not any(set(path) <= set(comp) for comp in image.components)
    y = _close_word(image.successors, image.labels, image.components, word)
    assert y.window(0, 2) == word
    assert transition_classes(build_fiber_graph(t, y)).class_count == 1


def images_built(t):
    """The image presentations kept on ``t``."""
    return [v for v in t.derived.values() if isinstance(v, codes.SoficImage)]


def test_plain_classdegree_builds_no_named_triple():
    """The plain search builds the image presentation only to certify a
    value above 1, and then closes its best word on the int-indexed
    presentation, following its successor mapping and labels, so neither
    the state names nor the named triple of the presentation is built:
    only a measure file, whose states are named, needs them."""
    checked = []
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        result = find_minimal_transition_block(t)
        assert result.certified
        if result.value == 1:
            assert images_built(t) == []
            continue
        [image] = images_built(t)
        assert not {"names", "triple"} & set(vars(image))
        checked.append(name)
    assert "fix_b" in checked
    t = parse_triple(INFINITE_TO_ONE_PROBE)
    assert find_minimal_transition_block(t, horizon=5).certified
    [image] = images_built(t)
    assert "triple" not in vars(image)


def test_close_word_matches_the_sub_triple_oracle():
    """``_close_word`` walks the presentation itself inside each cyclic
    component it is given; the oracle sweeps a ``sub_triple`` copy of
    each component of the named presentation. Both must give the same
    point, or None, for every image word of length 3-5 of the fixtures'
    presentations, their measure supports and reducible random codes,
    whether the closure reads an image int-indexed or by name."""
    images = [sofic_image(fixtures.load(name)) for name in FIXTURE_NAMES]
    rng = random.Random(307)
    for _ in range(16):
        try:
            images.append(sofic_image(
                random_code(rng, rng.randint(4, 10), reducible=True)))
        except EmptyShiftError:
            pass
    # (named presentation, the successor mapping, labels and cyclic
    # components the closure reads)
    cases = [(image.triple,
              (image.successors, image.labels, image.components))
             for image in images]
    presentations = [image.triple for image in images]
    for name, kind in MEASURE_PAIRS:
        pres, measure = image_measure(fixtures.load(name), kind)
        keep = set(measure.support_states())
        presentations.append(sub_triple(
            pres, keep, (e for e in measure.kernel
                         if e[0] in keep and e[1] in keep)))
    for pres in presentations:
        succ = pres.x.successor_map
        cases.append((pres, (succ, pres.label,
                             graphs.nontrivial_components(succ))))
    results = []
    starts_outside = 0
    for pres, closure in cases:
        cyclic = set().union(
            *graphs.nontrivial_components(pres.x.successor_map))
        for n in (3, 4, 5):
            for word in image_blocks(pres, n):
                got = _close_word(*closure, word)
                assert got == ref_close_word(pres, word)
                results.append(got)
                first = next(s for s in pres.preimage_map[word[0]]
                             if presents(pres, s, word))
                starts_outside += first not in cyclic
    assert None in results
    assert starts_outside


def presents(pres, start, word):
    """Whether the walk of ``word`` from ``start`` exists in ``pres``."""
    state = start
    for c in word[1:]:
        nxt = labelled_successors(pres, state, c)
        if not nxt:
            return False
        state = nxt[0]
    return True


def test_class_count_for_measure_frozen_values():
    for (name, kind), value in MEASURE_EXPECTED.items():
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        res = class_count_for_measure(t, measure)
        assert res.value == value
        assert res.certified


def test_class_count_for_measure_rejects_foreign_measure():
    t = fixtures.load("fix_e")
    other = fixtures.load("fix_c")
    _, measure = image_measure(other, "point")
    with pytest.raises(PreconditionError, match="presentation"):
        class_count_for_measure(t, measure)


def assert_measure_pairs_cover_all_kinds():
    kinds = {kind for _, kind in MEASURE_PAIRS}
    assert kinds == {"parry", "point", "orbit01"}


def test_parry_class_count_equals_the_class_degree():
    # the bound on the number of relative maximal entropy measures over an
    # ergodic, fully supported image measure equals the class degree; the
    # Parry measure of the image presentation is one such measure. The
    # restricted search bounds it from above, and a certified value equals
    # the exact class degree off the registry of known unsound ones
    rng = random.Random(8)
    triples = [(name, fixtures.load(name)) for name in FIXTURE_NAMES]
    triples += [(None, random_code(rng, rng.randint(5, 8), reducible=False))
                for _ in range(30)]
    agreed = 0
    for name, t in triples:
        try:
            _, measure = image_measure(t, "parry")
        except PreconditionError:
            # a reducible presentation has no Parry measure
            continue
        restricted = class_count_for_measure(t, measure)
        exact = ref_class_degree(t)
        assert restricted.value >= exact
        if restricted.certified and name not in KNOWN_UNSOUND:
            assert restricted.value == exact
            agreed += 1
    assert agreed >= 30


def test_certified_values_are_exact_off_the_unsound_registry():
    """On the fixtures the plain search and the Parry-restricted one are
    certified, above or at the exact class degree of the mask-family
    pairing, and equal to it exactly off ``KNOWN_UNSOUND``. fix_e's class
    degree is 1, witnessed by a block of depth 1 on a word of length 10,
    while its certificate closes a word into a point with 2 classes."""
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        exact = ref_class_degree(t)
        results = [find_minimal_transition_block(t)]
        if (name, "parry") in MEASURE_PAIRS:
            results.append(class_count_for_measure(
                t, image_measure(t, "parry")[1]))
        for res in results:
            assert res.certified and res.value >= exact
            assert (res.value == exact) == (name not in KNOWN_UNSOUND)
    t = fixtures.load("fix_e")
    assert ref_class_degree(t) == 1
    assert is_transition_block(t, "1101011010", 4, {"e"})


def least_word_depth(t, longest):
    """The least depth of the image words of lengths 3 to ``longest``,
    through one shared memo."""
    routes = _Routes(t)
    return min(len(minimal_depth_at(t, w, None, routes)[1])
               for n in range(3, longest + 1) for w in image_blocks(t, n))


def test_search_values_bound_the_exact_class_degree():
    """On seeded codes every search value is at least the exact class
    degree, and every certified one equals it. So is the least depth of
    the image words up to length 10, on the seeded codes and on the
    fixtures, where it equals the class degree (fix_e first reaches 1 at
    length 10). Some codes need longer words: one of 150 seeds at length
    10, six at length 6."""
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        assert least_word_depth(t, 10) == ref_class_degree(t)
    longer = 0
    for seed in range(150):
        t = random_triple(random.Random(seed))
        res = find_minimal_transition_block(t)
        exact = ref_class_degree(t)
        assert res.value >= exact
        assert not res.certified or res.value == exact
        least = least_word_depth(t, 10)
        assert least >= exact
        longer += least > exact
    assert longer


def test_regression_depth_two_word_over_a_two_class_point():
    """On this code the word 010 has least depth 2 and closes into a point
    with 2 classes, (01)^inf, yet the class degree is 1: the search finds
    a block of depth 1 on 011."""
    t = random_triple(random.Random(5))
    assert minimal_depth_at(t, "010") == (1, frozenset({"b", "e"}))
    g = build_fiber_graph(t, PeriodicPoint(("0", "1")))
    assert transition_classes(g).class_count == 2
    assert ref_class_degree(t) == 1
    res = find_minimal_transition_block(t)
    w = res.witness
    assert (res.value, w.word, w.index, w.symbols) == \
        (1, ("0", "1", "1"), 1, frozenset({"d"}))


def test_search_work_on_a_twin_code(monkeypatch):
    """One search on twin-12-s150 up to length 8 weighs 505 words through
    402 families, 488 family steps, 1,136 family pairs and 36 hitting-set
    solves, one per route family; its value stays 2, uncertified. Before
    the families, its prefixes and suffixes (510 each) were swept one
    preimage at a time, and 291 (word, index) hitting-set problems were
    solved; until the columns became folds of the family steps, the memo
    also kept a column for each of those prefixes and suffixes."""
    t = parse_triple((POOL / "twin-12-s150.triple").read_text())
    made, words, solves = [], [], []
    real_routes = classdegree._Routes
    real_depth = classdegree.minimal_depth_at
    real_solve = classdegree._min_hitting_set

    class Routes(real_routes):
        def __init__(self, t):
            super().__init__(t)
            made.append(self)

    def depth(*args):
        words.append(args[1])
        return real_depth(*args)

    def solve(*args):
        solves.append(args[0])
        return real_solve(*args)

    monkeypatch.setattr(classdegree, "_Routes", Routes)
    monkeypatch.setattr(classdegree, "minimal_depth_at", depth)
    monkeypatch.setattr(classdegree, "_min_hitting_set", solve)
    res = find_minimal_transition_block(t, 8)
    assert (res.value, res.certified) == (2, False)
    (routes,) = made
    assert len(words) == 505
    assert len(routes.families) == 402
    assert len(routes.pairs) == 1136
    assert len(solves) == len(set(solves)) == len(routes.solved) == 36
    assert len(routes.steps[True]) + len(routes.steps[False]) == 488


@pytest.mark.parametrize("name", sorted(
    p.stem for p in POOL.glob("twin-16-*.triple")) + [
    "twin-12-s150", "twin-12-s393"])
def test_twin_codes_have_class_degree_1(name):
    """The benchmark's twin codes have class degree 1: the search value
    bounds it, certified on the 16-symbol codes and uncertified at 2 on
    the 12-symbol ones, the two whose pairing is cheap of twelve."""
    t = parse_triple((POOL / (name + ".triple")).read_text())
    res = find_minimal_transition_block(t)
    assert ref_class_degree(t) == 1
    assert (res.value, res.certified) == ((1, True) if "-16-" in name
                                          else (2, False))
