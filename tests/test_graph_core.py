"""The linear-time graph core against its definitions.

The library builds neighbour maps, essentializations, the sofic image,
the pair graph and d* in time linear in the graphs involved; the
reference versions in conftest build the same objects by definition, in
quadratic time or worse. Every output order is part of the comparison,
because the CLI reports depend on it. The population mixes irreducible
codes with reducible ones, whose domains carry transient and
non-essential symbols, at up to 30 domain symbols.
"""

import random

import pytest

from conftest import (
    FIXTURE_NAMES,
    brute_walk_depths,
    random_code,
    ref_d_star,
    ref_essentialize,
    ref_pair_graph,
    ref_predecessor_map,
    ref_sofic_image,
    ref_successor_map,
)
from factorcode import (
    EmptyShiftError,
    d_star,
    essentialize,
    fixtures,
    pair_graph,
    sofic_image,
)
from factorcode.codes import _label_masks, step
from factorcode.graphs import (invert, shortest_walk,
                               strongly_connected_components, walk_depths)


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


def test_sofic_image_matches_reference():
    for t in population(59):
        want = ref_sofic_image(t)
        if want is None:
            with pytest.raises(EmptyShiftError):
                sofic_image(t)
            continue
        names, edges, label, members, connected = want
        image = sofic_image(t)
        assert image.triple.x.symbols == names
        assert image.triple.x.transitions == edges
        assert image.triple.label == label
        assert image.triple.y_alphabet == tuple(
            c for c in t.y_alphabet if c in set(label.values()))
        assert image.members == members
        assert list(image.members) == list(names)
        assert image.irreducible == connected


def test_pair_graph_matches_all_pairs_reference():
    for t in population(61):
        vertices, edges, adjacency = ref_pair_graph(t)
        pg = pair_graph(t)
        assert pg.vertices == vertices
        assert pg.edges == edges
        assert list(pg.adjacency) == list(adjacency)
        assert pg.adjacency == adjacency


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


def test_labelled_tables_and_step_match_definition():
    rng = random.Random(71)
    for t in population(73):

        def mask(symbols):
            return sum(1 << i for i, u in enumerate(t.x.symbols)
                       if u in symbols)

        succ = ref_successor_map(t.x)
        for s in t.x.symbols:
            assert t.successors_by_label[s] == {
                c: [u for u in succ[s] if t.label[u] == c]
                for c in {t.label[u] for u in succ[s]}}
        for forward, nbrs in ((True, succ),
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
    unbounded = finite = 0
    for trial in range(300):
        n = rng.randint(1, 9)
        acyclic = trial % 2 == 0
        adj = {v: sorted(u for u in rng.sample(range(n), rng.randint(0, n))
                         if not acyclic or u > v)
               for v in range(n)}
        order = strongly_connected_components(adj)
        got = walk_depths(adj, order)
        assert got == walk_depths(adj) == brute_walk_depths(adj)
        # reversed, Tarjan's emission order serves the inverted graph
        inverse = invert(adj)
        assert walk_depths(inverse, order[::-1]) == brute_walk_depths(inverse)
        unbounded += sum(d is None for d in got.values())
        finite += sum(d is not None and d > 1 for d in got.values())
    assert unbounded and finite
