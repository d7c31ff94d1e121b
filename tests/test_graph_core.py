"""The linear-time graph core against its definitions.

The library builds neighbour maps, essentializations, the subset
automata, the sofic image, the finite-to-one test and d* in time linear
in the graphs involved; the reference versions in conftest build the
same objects by definition, in quadratic time or worse. Every output order is part of the comparison,
because the CLI reports depend on it. The population mixes irreducible
codes with reducible ones, whose domains carry transient and
non-essential symbols, at up to 30 domain symbols.
"""

import random
import time
from itertools import count, product
from math import inf
from pathlib import Path

import pytest

from conftest import (
    FIXTURE_NAMES,
    brute_walk_depths,
    random_code,
    ref_bi_essential_nodes,
    ref_d_star,
    ref_essentialize,
    ref_is_finite_to_one,
    ref_predecessor_map,
    ref_sofic_image,
    ref_strongly_connected_components,
    ref_subset_automaton,
    ref_successor_map,
)
from factorcode import (
    EmptyShiftError,
    FactorTriple,
    build_fiber_graph,
    d_star,
    essentialize,
    essentialize_triple,
    fixtures,
    is_finite_to_one,
    make_sft,
    periodic_image_points,
    sofic_image,
    synchronizing_extension,
    transition_classes,
)
from factorcode.codes import (_label_masks, _subset_search,
                              _SubsetAutomaton, _symbols, step)
from factorcode.core import parse_triple, sub_triple
from factorcode.graphs import (bi_essential_nodes, invert,
                               nontrivial_components, shortest_walk,
                               strongly_connected_components, walk_depths,
                               walks)

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def population(seed):
    rng = random.Random(seed)
    triples = [fixtures.load(name) for name in FIXTURE_NAMES]
    for _ in range(30):
        n = rng.randint(1, 30)
        triples.append(random_code(rng, n, reducible=rng.random() < 0.5))
    return triples


def test_population_has_reducible_and_non_essential_domains():
    triples = population(43)
    assert any(ref_essentialize(t.x) != t.x for t in triples)
    assert any(not sofic_image(t).irreducible for t in triples
               if ref_sofic_image(t) is not None)


def test_neighbour_maps_match_definition():
    for t in population(47):
        assert t.x.successor_map == ref_successor_map(t.x)
        assert t.x.predecessor_map == ref_predecessor_map(t.x)


def test_label_tables_and_the_essential_check_match_the_neighbour_maps():
    # both read the transitions only; the references read the maps, on
    # domains that are not essential and on one with no transitions
    bare = FactorTriple(make_sft(("a", "b"), ()), {"a": "0", "b": "1"},
                        ("0", "1"))
    triples = population(59) + [bare]
    assert any(ref_essentialize(t.x) != t.x for t in triples)
    for t in triples:
        bit = {s: 1 << i for i, s in enumerate(t.x.symbols)}
        for forward in (True, False):
            neighbours = (t.x.successor_map if forward
                          else t.x.predecessor_map)
            want = [{} for _ in t.x.symbols]
            for row, s in zip(want, t.x.symbols):
                for u in neighbours[s]:
                    row[t.label[u]] = row.get(t.label[u], 0) | bit[u]
            assert _label_masks(t, forward) == want
        assert t.x.is_essential == all(
            t.x.successor_map[s] and t.x.predecessor_map[s]
            for s in t.x.symbols)
    assert not bare.x.is_essential


def test_essentialize_matches_fixed_point_reference():
    for t in population(53):
        want = ref_essentialize(t.x)
        if want is None:
            with pytest.raises(EmptyShiftError):
                essentialize(t.x)
            continue
        got = essentialize(t.x)
        assert got.symbols == want.symbols
        assert got.transitions == want.transitions


def with_dangling_chains(rng, t):
    """``t`` with chains of new symbols hung off its domain: heads that
    start at a source and lead into it, and tails that leave it and end
    in a sink, each joined to it at one or two places. The new
    symbols take old image symbols or a new one, which then labels
    nothing that survives."""
    syms = list(t.x.symbols)
    edges = set(t.x.transitions)
    label = dict(t.label)
    images = list(t.y_alphabet) + ["dead"]
    for i in range(rng.randint(1, 4)):
        chain = ["h%d_%d" % (i, j) for j in range(rng.randint(1, 3))]
        edges.update(zip(chain, chain[1:]))
        head = rng.random() < 0.5
        for _ in range(rng.randint(1, 2)):
            edges.add((chain[-1], rng.choice(syms)) if head
                      else (rng.choice(syms), chain[0]))
        for s in chain:
            label[s] = rng.choice(images)
        syms.extend(chain)
    used = set(label.values())
    return FactorTriple(make_sft(syms, edges), label,
                        tuple(c for c in images if c in used))


def test_essential_domains_are_kept_whole():
    # an essential domain is its own essentialization: the same Sft and
    # triple, keeping everything derived on it; neither that check, the
    # sofic image nor a fiber or sync op builds a neighbour map
    kept_whole = 0
    for t in population(103):
        if ref_essentialize(t.x) != t.x:
            continue
        kept_whole += 1
        for y in periodic_image_points(t, 4)[-1:]:
            transition_classes(build_fiber_graph(t, y))
            synchronizing_extension(t, y, (0, y.period))
        kept = dict(t.derived)
        assert essentialize(t.x) is t.x
        assert not {"successor_map", "predecessor_map"} & set(vars(t.x))
        assert essentialize_triple(t) is t
        assert t.derived == kept
    assert kept_whole > len(FIXTURE_NAMES)


def test_essentialize_prunes_dangling_chains_as_the_reference():
    rng = random.Random(107)
    pruned = 0
    for t in population(109)[:20]:
        try:
            essential = essentialize_triple(t)
        except EmptyShiftError:
            continue
        u = with_dangling_chains(rng, essential)
        want = ref_essentialize(u.x)
        assert want is not None and want != u.x
        got = essentialize_triple(u)
        assert got is not u
        assert got.x.symbols == want.symbols == essential.x.symbols
        assert got.x.transitions == want.transitions
        assert got == sub_triple(u, set(want.symbols), want.transitions)
        assert got.y_alphabet == essential.y_alphabet
        pruned += len(u.x.symbols) - len(got.x.symbols)
    assert pruned


def assert_sofic_image_is_the_reference(t):
    want = ref_sofic_image(t)
    if want is None:
        with pytest.raises(EmptyShiftError):
            sofic_image(t)
        return
    names, edges, label, members, connected = want
    image = sofic_image(t)
    assert image.triple.x.symbols == names
    assert image.triple.x.transitions == edges
    assert image.triple.label == label
    assert image.triple.y_alphabet == tuple(
        c for c in t.y_alphabet if c in set(label.values()))
    assert image.names == names
    assert {name: _symbols(t, mask) for name, mask in
            zip(image.names, image.masks)} == members
    assert image.irreducible == connected
    assert [[names[p] for p in comp] for comp in image.components] == \
        nontrivial_components(image.triple.x.successor_map)


def test_sofic_image_matches_reference():
    for t in population(59):
        assert_sofic_image_is_the_reference(t)


def test_sofic_image_peels_a_dead_end_as_the_reference():
    """A domain built in code need not be essential, and then a subset
    state can have no successor. Here fix_e gets a source h leading in, a
    sink i and a chain j k into a sink, and is not essentialized: the
    step under 2 from a state holding j is {k}, a dead end."""
    symbols = tuple("habcdefgijk")
    x = make_sft(symbols, [tuple(e) for e in (
        "ha ab ba bc cd ce df fd eg ge fg gf ga di gj jk".split())])
    t = FactorTriple(x, dict(zip(symbols, "21010011012")), ("0", "1", "2"))
    assert not all(_subset_search(t, True).grow().succ)
    assert_sofic_image_is_the_reference(t)


def test_finite_to_one_matches_pair_graph_reachability():
    """The mask walk of the label product against reachability over the
    all-pairs product, on the population and on codes of 40 to 60
    domain symbols."""
    rng = random.Random(79)
    triples = population(61) + [
        random_code(rng, rng.randint(40, 60), reducible=rng.random() < 0.5)
        for _ in range(3)]
    answers = [is_finite_to_one(t) for t in triples]
    assert answers == [ref_is_finite_to_one(t) for t in triples]
    assert set(answers) == {True, False}


def right_resolving_part(t):
    """``t`` keeping, out of each domain symbol, only its first successor
    under each image symbol: a right-resolving code."""
    edges = set()
    for a in t.x.symbols:
        first = {}
        for u in t.x.successor_map[a]:
            first.setdefault(t.label[u], u)
        edges.update((a, u) for u in first.values())
    return FactorTriple(make_sft(t.x.symbols, edges), t.label, t.y_alphabet)


def transpose(t):
    """``t`` with every domain edge reversed."""
    return FactorTriple(make_sft(t.x.symbols,
                                 [(b, a) for a, b in t.x.transitions]),
                        t.label, t.y_alphabet)


def test_finite_to_one_on_right_resolving_codes_and_their_transposes():
    """Right-resolving codes and their edge-reversed transposes are all
    finite-to-one. The walk of a right-resolving code stays on the
    diagonal; a transpose's leaves it, and its first return to the
    diagonal must not be taken for a diamond."""
    rr = [right_resolving_part(t) for t in population(113)]
    rr += [parse_triple((POOL / ("rr-40-s%d.triple" % seed)).read_text())
           for seed in range(3)]
    triples = rr + [transpose(t) for t in rr]
    assert all(ref_is_finite_to_one(t) for t in triples)
    assert all(map(is_finite_to_one, triples))
    # the transposes' forward walks leave the diagonal
    assert any(mask.bit_count() > 1 for t in triples[len(rr):]
               for row in _label_masks(t, True) for mask in row.values())


@pytest.mark.parametrize("forward", [True, False])
def test_subset_automaton_matches_frozenset_construction(forward):
    """Every field of the packed-row construction against the frozenset
    one: states in breadth-first order, their labels, the parent that
    first reached each, depths, and successors in image alphabet
    order."""
    for t in population(89):
        found, edges = ref_subset_automaton(t, forward)
        auto = _subset_search(t, forward).grow()
        states = list(found)
        words = [found[s][0] for s in states]
        index = {s: i for i, s in enumerate(states)}
        by_word = {w: i for i, w in enumerate(words)}
        yorder = {c: k for k, c in enumerate(t.y_alphabet)}
        out = [[] for _ in states]
        for a, b in edges:
            out[index[a]].append(index[b])
        assert auto.masks == [
            sum(1 << i for i, u in enumerate(t.x.symbols) if u in s)
            for s in states]
        assert auto.labels == [found[s][1] for s in states]
        assert auto.parent == [by_word.get(w[:-1]) for w in words]
        assert auto.depth == [len(w) - 1 for w in words]
        assert auto.succ == [sorted(js, key=lambda j: yorder[auto.labels[j]])
                             for js in out]


def test_d_star_matches_frozenset_scan():
    values = set()
    for t in population(67):
        if ref_sofic_image(t) is None:
            continue
        w = d_star(t)
        assert (w.word, w.index, w.value) == ref_d_star(t)
        values.add(w.value)
    # the length cut of the scan applies only once the best value is 1
    assert values - {1}


@pytest.mark.parametrize("forward", [True, False])
def test_subset_automaton_grown_by_depth_is_a_prefix_of_the_complete_one(
        forward):
    """Grown one depth at a time, the construction has found exactly the
    states up to that depth and processed exactly those below it, each
    with the number, mask, label, parent and depth, and each processed one
    with the successors, of the complete construction; grown in full, it
    is the complete construction in every field."""
    for t in population(89):
        full = _subset_search(t, forward).grow()
        part = _SubsetAutomaton(t, forward)
        for depth in count():
            part.grow(depth)
            found = sum(d <= depth for d in full.depth)
            assert part.head == sum(d < depth for d in full.depth)
            assert part.masks == full.masks[:found]
            assert part.labels == full.labels[:found]
            assert part.parent == full.parent[:found]
            assert part.depth == full.depth[:found]
            assert part.succ[:part.head] == full.succ[:part.head]
            assert part.succ[part.head:] == [None] * (found - part.head)
            if part.complete:
                break
        assert vars(part.grow()) == vars(full)


# a twin code of the benchmark pool: two copies of one right-resolving
# code, joined by one edge each way, with d* = 2 and a forward automaton
# 20 deep
TWIN = POOL / "twin-12-s11.triple"


def test_d_star_grows_the_automata_only_as_deep_as_its_witness():
    """Where d* is 1, no state as deep as the witness word is long is
    processed in either direction: a pair with a deeper state is longer
    than the witness. Where d* is above 1, both automata are grown in
    full. Either way the answer is the frozenset scan's."""
    rng = random.Random(97)
    fixed = {name: fixtures.load(name) for name in FIXTURE_NAMES}
    twin = parse_triple(TWIN.read_text())
    triples = [*fixed.values(), twin]
    triples += [random_code(rng, rng.randint(1, 30), reducible=False)
                for _ in range(40)]
    values, cut = set(), 0
    for t in triples:
        w = d_star(t)
        assert (w.word, w.index, w.value) == ref_d_star(t)
        autos = [_subset_search(t, forward) for forward in (True, False)]
        if w.value == 1:
            for auto in autos:
                assert max(auto.depth[:auto.head], default=-1) < len(w.word)
            cut += not all(auto.complete for auto in autos)
        else:
            assert all(auto.complete for auto in autos)
        values.add(w.value)
    assert [d_star(t).value for t in (fixed["fix_b"], fixed["fix_c"],
                                      fixed["fix_e"], twin)] == [2, 2, 2, 2]
    assert 1 in values and cut


def test_labelled_tables_and_step_match_definition():
    rng = random.Random(71)
    for t in population(73):

        def mask(symbols):
            return sum(1 << i for i, u in enumerate(t.x.symbols)
                       if u in symbols)

        for forward, nbrs in ((True, ref_successor_map(t.x)),
                              (False, ref_predecessor_map(t.x))):
            masks = _label_masks(t, forward)
            for i, s in enumerate(t.x.symbols):
                assert masks[i] == {
                    c: mask({u for u in nbrs[s] if t.label[u] == c})
                    for c in {t.label[u] for u in nbrs[s]}}
            subset = [s for s in t.x.symbols if rng.random() < 0.5]
            for c in t.y_alphabet:
                assert step(masks, mask(subset), c) == mask(
                    {u for s in subset for u in nbrs[s] if t.label[u] == c})


def test_shortest_walk_is_a_shortest_walk_inside_members():
    rng = random.Random(79)
    for _ in range(200):
        n = rng.randint(1, 8)
        adj = {v: sorted(rng.sample(range(n), rng.randint(0, n)))
               for v in range(n)}
        members = {v for v in range(n) if rng.random() < 0.8}
        source, target = rng.randrange(n), rng.randrange(n)
        # walks by length, breadth first: length l reaches ``frontier``
        frontier, distance = {source}, None
        for length in range(1, n + 1):
            frontier = {u for v in frontier for u in adj[v] if u in members}
            if target in frontier:
                distance = length
                break
        walk = shortest_walk(adj, source, target, members)
        if distance is None:
            assert walk is None
            continue
        assert len(walk) == distance and walk[-1] == target
        assert all(u in members for u in walk)
        assert all(b in adj[a] for a, b in zip([source] + walk, walk))


def test_walk_depths_match_bounded_enumeration():
    rng = random.Random(83)
    unbounded = finite = pruned_seen = 0
    for trial in range(300):
        n = rng.randint(1, 9)
        acyclic = trial % 2 == 0
        adj = {v: sorted(u for u in rng.sample(range(n), rng.randint(0, n))
                         if not acyclic or u > v)
               for v in range(n)}
        # the longest walk ending at a node is the longest walk starting
        # at it in the inverted graph, and the converse
        inverse = invert(adj)
        got = walk_depths(adj)
        assert got == brute_walk_depths(inverse)
        assert walk_depths(inverse) == brute_walk_depths(adj)
        # where both are unbounded is the bi-infinite part, by reachability
        pruned = bi_essential_nodes(adj)
        assert pruned == ref_bi_essential_nodes(adj)
        pruned_seen += bool(pruned) and len(pruned) < n
        unbounded += sum(d == inf for d in got.values())
        finite += sum(1 < d < inf for d in got.values())
    assert unbounded and finite and pruned_seen


def random_multigraph(rng, n):
    """Neighbour lists drawn with repetition, so self-loops and repeated
    neighbours occur, and some nodes get no neighbour at all."""
    return {v: rng.choices(range(n), k=rng.choice((0, 0, 1, 2, 3)))
            for v in range(n)}


def test_peeling_matches_its_definitions_on_multigraphs():
    rng = random.Random(89)
    seen = {"self_loop": 0, "repeat": 0, "isolated": 0, "partial": 0}
    for _ in range(400):
        n = rng.randint(1, 10)
        adj = random_multigraph(rng, n)
        inverse = invert(adj)
        depths = walk_depths(adj)
        assert depths == brute_walk_depths(inverse)
        assert walk_depths(inverse) == brute_walk_depths(adj)
        assert bi_essential_nodes(adj) == ref_bi_essential_nodes(adj)
        seen["self_loop"] += any(v in adj[v] for v in adj)
        seen["repeat"] += any(len(set(vs)) < len(vs) for vs in adj.values())
        seen["isolated"] += any(not adj[v] and all(v not in vs for vs in
                                                   adj.values())
                                for v in adj)
        # unbounded, though some predecessor is peeled
        seen["partial"] += any(depths[v] == inf and
                               any(depths[u] < inf for u in inverse[v])
                               for v in adj)
    assert all(seen.values()), seen


def test_partial_peeling_leaks_no_finite_depth():
    # a has one source predecessor and one, twice, that the loop at c
    # reaches: the source peels one of a's three in-edges, and a must
    # stay unbounded. The isolated node d and the repeated edge s -> b of
    # the chain peel as they should; the chain's nodes are not 0 to n - 1
    a, b, c, s, d = range(5)
    adj = {a: [], b: [a, a], c: [b, c], s: [a], d: []}
    assert walk_depths(adj) == {a: inf, b: inf, c: inf, s: 0, d: 0}
    assert walk_depths(invert(adj)) == {a: 0, b: 1, c: inf, s: 1, d: 0}
    assert bi_essential_nodes(adj) == {c}
    chain = {s: [b, b], b: [a], a: []}
    assert walk_depths(chain) == {a: 2, b: 1, s: 0}
    assert bi_essential_nodes(chain) == set()


def test_tarjan_matches_the_reference_exactly():
    # the same list of lists: emission order and the order inside each
    # component, on simple graphs and on multigraphs
    rng = random.Random(97)
    for trial in range(300):
        n = rng.randint(1, 12)
        if trial % 2:
            adj = random_multigraph(rng, n)
        else:
            adj = {v: rng.sample(range(n), rng.randint(0, n))
                   for v in range(n)}
        assert strongly_connected_components(adj) == \
            ref_strongly_connected_components(adj)
    for t in population(101):
        adj = t.x.successor_map
        assert strongly_connected_components(adj) == \
            ref_strongly_connected_components(adj)


def product_walks(adj, starts, edges):
    """The walks of ``edges`` edges out of the ``starts`` by definition:
    every choice of a start and of a neighbour position at each step, in
    product order, kept where every position exists."""
    width = max(map(len, adj.values()), default=0)
    found = []
    for first, *picks in product(starts, *[range(width)] * edges):
        walk = (first,)
        for i in picks:
            if i >= len(adj[walk[-1]]):
                break
            walk += (adj[walk[-1]][i],)
        else:
            found.append(walk)
    return found


def test_walks_match_a_product_enumeration():
    rng = random.Random(113)
    for _ in range(200):
        n = rng.randint(1, 6)
        adj = random_multigraph(rng, n)
        starts = rng.sample(range(n), rng.randint(0, n))
        max_edges = rng.randint(0, 5)
        levels = [product_walks(adj, starts, edges)
                  for edges in range(max_edges + 1)]
        total = sum(map(len, levels[1:]))
        # None exactly when the walks of 1 to max_edges edges pass limit
        for limit in range(max(total - 2, 0), total + 2):
            got = walks(adj, starts, max_edges, limit)
            assert got == (None if total > limit else levels)


def test_walks_are_counted_before_any_is_listed():
    complete = {v: [0, 1, 2, 3] for v in range(4)}
    start = time.perf_counter()
    # 4^40 walks of 40 edges: listing them would never end
    assert walks(complete, complete, 40, 10 ** 6) is None
    assert time.perf_counter() - start < 1.0
