"""Fiber analysis of periodic image points: classes, windows, preimages.

The fiber of a periodic point y of period p is carried by the phase graph:
vertices are pairs (symbol, phase) whose label matches y at that phase,
numbered as ints (see below), and edges act by the transition relation
while advancing the phase. Preimages of y are exactly the bi-infinite
walks, so the graph is pruned to vertices lying on such walks. Peeling it
and its inverse on in-degrees (``graphs.walk_depths``) gives the backward
and forward walk depths and so the pruned part, with no Tarjan pass; one
runs over the pruned part only where its components are read.

Transition classes (mutual-reachability classes of preimages under
coordinate splicing) are read off as the nontrivial strongly connected
components after unrolling the phase graph to the least common multiple P
of the component cyclicities; at that period every component has settled
into its terminal splitting and the count is stable under any further
unrolling, which the doubling certificate re-checks explicitly with a
real Tarjan pass over the reading at 2P. Only the fiber report builds
that doubling cover: ``classdegree`` reads the cover at P and its class
data, and nothing else of the report. Reading y with a multiple
of its period gives a cyclic cover of the phase graph, and a walk lifts
uniquely once its starting phase is fixed, so the unrolled readings are
lifted from the pruned graph rather than rebuilt from the triple.

A vertex is an int: the pair (``t.x.symbols[i]``, phase k) is
``k * n + i`` for n domain symbols, so ``v // n`` is its phase, ``v % n``
its symbol index, and integer order is phase order, then symbol order.
Names are decoded only where a public result names a symbol.

Window questions read the same graph. The synchronizing radius of a
window comes from one sweep across it that carries the backward walk
depths of its start vertices forward, so it lists no path. The true
blocks of a window are exactly the paths across it in the pruned graph,
and only they are listed, once a count of those paths has shown that
they stay within a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import inf, lcm
from operator import or_

from . import graphs
from .core import (InputError, PeriodicPoint, PreconditionError, _walks,
                   per_triple, primitive_root)
from .codes import _bits, _check_image_word, _label_masks, _symbols


@dataclass
class FiberGraph:
    """Phase graph of a periodic image point.

    Its vertices are ints, ``k * n + i`` standing for the pair
    (``triple.x.symbols[i]``, phase k) with n domain symbols.
    ``vertices`` lists every label-compatible one in integer order and
    ``adjacency`` covers them all; restrict to ``pruned`` for fiber
    content. Two peels (``graphs.walk_depths``) give the rest: ``depths``,
    the longest forward walk out of and the longest backward walk into
    each vertex (``inf`` where unbounded); and ``pruned``, the vertices
    where both are unbounded, which are those on bi-infinite walks, with
    their edges in ``pruned_adjacency`` (not to be modified), which every
    command reads.
    The cyclic components lie in ``pruned``; the 1-fold cover
    (``_unrolled(triple, word, period)``) finds them by one Tarjan pass
    over the pruned graph when they are first read.
    """

    triple: object
    word: tuple
    period: int
    vertices: tuple
    adjacency: dict
    pruned: frozenset
    pruned_adjacency: dict
    depths: tuple


def build_fiber_graph(t, y):
    """Phase graph of y, pruned to the bi-infinite part.

    Raises PreconditionError when y has no preimage (y not in the image).
    The graph is built once per triple and word and shared by every caller.
    """
    g = _phase_graph(t, _check_image_word(
        t, y.word if isinstance(y, PeriodicPoint) else y))
    if not g.pruned:
        raise PreconditionError("point has no preimage in the domain")
    return g


@per_triple
def _phase_graph(t, word):
    """The vertices k * n + i by phase k, then symbol index i, and their
    neighbours in symbol order, read off the rows of the labelled
    neighbour table ``codes._label_masks`` by the low-bit loop of
    ``codes.step``: a bit index is a symbol index, so no name is looked
    up."""
    p = len(word)
    n = len(t.x.symbols)
    table = _label_masks(t, True)
    preimages = _bits(t)[1]
    adjacency = {}
    for k in range(p):
        nxt = (k + 1) % p
        c, base = word[nxt], nxt * n
        here = preimages[word[k]]
        while here:
            low = here & -here
            here ^= low
            i = low.bit_length() - 1
            heads = table[i].get(c, 0)
            out = adjacency[k * n + i] = []
            while heads:
                low = heads & -heads
                heads ^= low
                out.append(base + low.bit_length() - 1)
    vertices = tuple(adjacency)
    fwd = graphs.walk_depths(graphs.invert(adjacency))
    back = graphs.walk_depths(adjacency)
    pruned = frozenset(v for v in vertices if fwd[v] == back[v] == inf)
    return FiberGraph(t, word, p, vertices, adjacency, pruned,
                      {v: [w for w in adjacency[v] if w in pruned]
                       for v in vertices if v in pruned}, (fwd, back))


# Most vertices a fiber report may lift into the cover of its doubling
# certificate, which has 2 * (P / p) * |pruned| of them; the bundled
# fixtures and the benchmark pools need a few hundred at most.
COVER_VERTEX_BUDGET = 250_000


@dataclass
class PhaseCover:
    """The pruned phase graph of a point read with a multiple P = m * p
    of its period p: its m-fold cyclic cover.

    Vertex v = k * n + i (symbol index i at phase k, n domain symbols)
    lifts to v + j * p * n, at phase k + j * p, for j < m, and each edge
    advances the lifted phase modulo P. ``adjacency`` lists the lift in
    the vertex and neighbour order of the pruned phase graph built
    directly from the P-periodic word; ``components`` are its strongly
    connected components in Tarjan emission order (each after every
    component it reaches) and ``cyclic`` the nontrivial ones among them.
    """

    period: int
    adjacency: dict
    components: list
    cyclic: tuple


@per_triple
def _unrolled(t, word, period):
    """Cover of the pruned phase graph of ``word`` at the given multiple
    of its period, searched by one Tarjan pass. At the period itself the
    cover is the pruned graph; at a larger multiple it is lifted from
    that graph."""
    adjacency = _phase_graph(t, word).pruned_adjacency
    if period != len(word):
        n = len(t.x.symbols)
        base = [(v, v // n + 1, [u % n for u in nbrs])
                for v, nbrs in adjacency.items()]
        adjacency = {}
        for shift in range(0, period, len(word)):
            for v, after, heads in base:
                nxt = (after + shift) % period * n
                adjacency[v + shift * n] = [nxt + i for i in heads]
    components = graphs.strongly_connected_components(adjacency)
    cyclic = tuple(c for c in components if graphs.is_cyclic(adjacency, c))
    return PhaseCover(period, adjacency, components, cyclic)


@dataclass
class TransitionClass:
    """One transition class: its unrolled SCC and a periodic preimage."""

    name: str
    vertices: frozenset
    representative: PeriodicPoint


@dataclass
class TransitionClassReport:
    """Everything the fiber of one periodic point exposes.

    ``reaches`` lists the strict reachability pairs between classes (the
    induced order is reflexive; self-pairs are omitted from the listing).
    ``s_sets`` and ``transient`` are indexed by phase modulo the unrolled
    period: s_sets[C][n] holds the preimage symbols whose future options
    match class C exactly at phase n, and transient[n] the preimage
    symbols matching no class there. ``transient_symbols`` are the symbols
    transient at every phase where they are preimage symbols at all.
    ``class_of_vertex`` maps each vertex of the unrolled phase graph lying
    in a class to that class; ``class_match`` maps each vertex whose
    future options match a class exactly (its reachable classes are that
    class's) to the class.
    """

    word: tuple
    period: int
    unrolled_period: int
    class_count: int
    classes: tuple
    reaches: tuple
    s_sets: dict
    transient: tuple
    transient_symbols: frozenset
    stable_under_doubling: bool
    class_of_vertex: dict
    class_match: dict


def class_cover(g):
    """Cover of the pruned phase graph of fiber graph ``g`` at the class
    period P, the lcm of the cyclicities of its cyclic components: its
    cyclic components are the transition classes. Raises
    PreconditionError, before building anything, when the cover at 2P
    that ``transition_classes`` certifies against would exceed
    ``COVER_VERTEX_BUDGET`` vertices."""
    p = g.period
    base = _unrolled(g.triple, g.word, p)
    cyclicities = [graphs.component_cyclicity(base.adjacency, comp)
                   for comp in base.cyclic]
    big_p = lcm(*cyclicities) if cyclicities else p
    size = 2 * (big_p // p) * len(g.pruned)
    if size > COVER_VERTEX_BUDGET:
        raise PreconditionError(
            "unrolling the fiber to period %d needs %d vertices, over the "
            "limit of %d" % (big_p, size, COVER_VERTEX_BUDGET))
    return _unrolled(g.triple, g.word, big_p)


def _class_data(g):
    """What the transition classes over fiber graph ``g`` are read from:
    ``(cover, comps, class_reach, class_match)``. ``cover`` is the cover
    at the class period P; ``comps`` its cyclic components in name order,
    that of their least vertices, so class j is named C(j + 1);
    ``class_reach[j]`` the mask of the classes class j reaches, bit k
    standing for class k; and ``class_match`` maps each cover vertex
    whose future options match one class exactly (its reachable classes
    are that class's) to the index of the class."""
    cover = class_cover(g)
    adj = cover.adjacency
    comps = sorted(cover.cyclic, key=min)
    class_bit = {v: 1 << j for j, comp in enumerate(comps) for v in comp}
    # the mask of the classes reachable from each vertex; Tarjan emits
    # every component after all the components it reaches
    reach = {}
    for comp in cover.components:
        found = class_bit.get(comp[0], 0)
        for v in comp:
            for w in adj[v]:
                found |= reach.get(w, 0)
        for v in comp:
            reach[v] = found
    class_reach = [reach[comp[0]] for comp in comps]
    # distinct classes reach distinct class sets (each reaches itself)
    class_by_reach = {r: j for j, r in enumerate(class_reach)}
    class_match = {v: class_by_reach[r] for v, r in reach.items()
                   if r in class_by_reach}
    return cover, comps, class_reach, class_match


def transition_classes(g):
    """Transition classes over the point presented by fiber graph ``g``.
    The report names its vertices as (symbol, phase) pairs."""
    t = g.triple
    p = g.period
    cover, comps, class_reach, class_match = _class_data(g)
    big_p = cover.period
    adj_p = cover.adjacency
    symbols = t.x.symbols
    n = len(symbols)

    def pair(v):
        return symbols[v % n], v // n

    names = ["C%d" % (j + 1) for j in range(len(comps))]
    reaches = tuple((names[a], names[b]) for a in range(len(comps))
                    for b in range(len(comps))
                    if a != b and class_reach[a] >> b & 1)

    # symbol masks per class and phase, and of all matched symbols per
    # phase
    members = [[0] * big_p for _ in comps]
    placed = [0] * big_p
    for v, j in class_match.items():
        k, bit = v // n, 1 << v % n
        members[j][k] |= bit
        placed[k] |= bit
    s_sets = {name: tuple(_symbols(t, m) for m in members[j])
              for j, name in enumerate(names)}
    preimages = _bits(t)[1]
    unmatched = [preimages[g.word[k % p]] & ~placed[k] for k in range(big_p)]
    transient = tuple(_symbols(t, m) for m in unmatched)
    transient_symbols = _symbols(
        t, reduce(or_, unmatched) & ~reduce(or_, placed))

    classes = []
    for name, comp in zip(names, comps):
        rep_start = min(v for v in comp if v < n)
        walk = graphs.shortest_walk(adj_p, rep_start, rep_start, set(comp))
        rep_word = tuple(symbols[v % n] for v in [rep_start] + walk[:-1])
        classes.append(TransitionClass(name, frozenset(map(pair, comp)),
                                       PeriodicPoint(rep_word)))

    stable = len(_unrolled(t, g.word, 2 * big_p).cyclic) == len(comps)

    return TransitionClassReport(
        word=tuple(g.word), period=p, unrolled_period=big_p,
        class_count=len(comps), classes=tuple(classes), reaches=reaches,
        s_sets=s_sets, transient=transient,
        transient_symbols=transient_symbols, stable_under_doubling=stable,
        class_of_vertex={pair(v): name for name, comp in zip(names, comps)
                         for v in comp},
        class_match={pair(v): names[j] for v, j in class_match.items()})


def enumerate_periodic_preimages(t, y, max_period):
    """Periodic preimages of y with period at most max_period, as points.

    Each result is phase aligned with y (coordinate 0 maps to y_0); both
    members of a rotation pair are reported when they are distinct points.
    PreconditionError, before any is listed, past ``WALK_BUDGET`` walks of
    the pruned phase graph.
    """
    g = build_fiber_graph(t, y)
    if max_period < g.period:
        raise InputError("max_period is smaller than the point's period")
    adj = g.pruned_adjacency
    symbols = t.x.symbols
    n = len(symbols)

    # the phase-0 vertices, in symbol order, are their own symbol
    # indices; words are tuples of symbol indices until they are sorted
    starts = [v for v in adj if v < n]
    levels = _walks(adj, starts, max_period - 1,
                    "the periodic preimages of period up to %d" % max_period,
                    "the phase graph")
    words = (tuple(v % n for v in w) for level in levels for w in level
             if w[0] in adj[w[-1]])
    found = {w for w in words if primitive_root(w) == w}
    return [PeriodicPoint(tuple(map(symbols.__getitem__, w)))
            for w in sorted(found, key=lambda w: (len(w), w))]


@dataclass
class SynchronizingExtension:
    """Result of stabilizing finite-window preimage blocks.

    ``blocks`` are the true preimage blocks over the interval (the ones
    extending to full preimages of y); ``radius`` is the least l such that
    every preimage block of the l-extended window already restricts to a
    true block. ``per_coordinate`` projects the blocks to symbol sets."""

    interval: tuple
    radius: int
    blocks: tuple
    per_coordinate: tuple


def _window_graph(t, y, interval):
    """Phase graph of y, once the window is known to be nonempty."""
    m, n = interval
    if m > n:
        raise InputError("empty interval")
    return build_fiber_graph(t, y)


def _window_paths(g, adjacency, interval, keep_start=None, keep_end=None):
    """Symbol blocks of the paths across the window in ``adjacency`` whose
    start passes ``keep_start`` and whose end passes ``keep_end`` (None
    keeps every vertex), in symbol order: the last level of the walks out
    of the starts, which ascend, as does each adjacency list, so a path's
    vertices and its block sort alike; a block fixes its path.
    PreconditionError, before any is listed, past ``WALK_BUDGET`` walks
    of ``adjacency``."""
    m, n = interval
    symbols = g.triple.x.symbols
    size = len(symbols)
    starts = [v for v in adjacency if v // size == m % g.period
              and (keep_start is None or keep_start(v))]
    levels = _walks(adjacency, starts, n - m,
                    "the blocks of the window %d..%d" % (m, n),
                    "the phase graph")
    # vertex k * size + i names symbol i at every phase k
    names = symbols * g.period
    return [tuple(map(names.__getitem__, path)) for path in levels[-1]
            if keep_end is None or keep_end(path[-1])]


def _synchronizing_radius(g, interval):
    """One more than the largest finite block radius of the window, or 0
    when there is none.

    A block of the window is the symbol sequence of a path across it in
    the label-compatible phase graph. Its radius r is the lesser of the
    longest backward walk into the path's start and the longest forward
    walk out of its end, infinite where that walk is unbounded. The block
    survives the l-extended local condition iff r >= l, and it is a true
    block iff r is infinite.

    One forward sweep across the window finds the largest finite r and
    lists no path. Each vertex carries the largest backward depth of the
    starts that reach it, and the largest finite one (-1 for none). At an
    end vertex of finite forward depth d the best r is the lesser of d and
    the first; where d is unbounded it is the second. The sweep costs the
    window width times the edges of the graph."""
    m, n = interval
    adjacency = g.adjacency
    size = len(g.triple.x.symbols)
    fwd, back = g.depths
    best, finite = {}, {}
    for v in adjacency:
        if v // size == m % g.period:
            best[v] = back[v]
            finite[v] = back[v] if back[v] < inf else -1
    for _ in range(n - m):
        next_best, next_finite = {}, {}
        for v, b in best.items():
            f = finite[v]
            for w in adjacency[v]:
                if w not in next_best:
                    next_best[w] = b
                    next_finite[w] = f
                else:
                    if b > next_best[w]:
                        next_best[w] = b
                    if f > next_finite[w]:
                        next_finite[w] = f
        best, finite = next_best, next_finite
    # a bi-infinite preimage crosses the window, so some end is reached
    return 1 + max(finite[v] if fwd[v] == inf else min(b, fwd[v])
                   for v, b in best.items())


def window_blocks(t, y, interval, radius=None):
    """Preimage symbol blocks of a periodic point over a coordinate window.

    With ``radius=None``: the true blocks, i.e. restrictions of bi-infinite
    preimages of y to the window, listed as the paths across the window
    in the pruned phase graph. With an integer radius l: the blocks of
    the l-extended local condition, paths in the label-compatible phase
    graph whose endpoints extend at least l more steps backward and
    forward, listed by one walk from the starts with backward depth at
    least l. The latter decrease with l and reach the true blocks at a
    finite radius (the synchronizing radius). Blocks come in symbol order.
    """
    g = _window_graph(t, y, interval)
    if radius is None:
        return _window_paths(g, g.pruned_adjacency, interval)
    if radius < 0:
        raise InputError("radius must be >= 0")
    fwd, back = g.depths
    return _window_paths(g, g.adjacency, interval,
                         lambda v: back[v] >= radius,
                         lambda v: fwd[v] >= radius)


def synchronizing_extension(t, y, interval):
    """True blocks of the window and its synchronizing radius.

    The radius is one more than the largest finite block radius, or 0 when
    there is none, and comes from one sweep across the window in the
    label-compatible phase graph. The true blocks are listed as the paths
    across the window in the pruned phase graph: every such path is a
    true block, and every true block is one. So the cost is the radius
    sweep plus the size of the output."""
    g = _window_graph(t, y, interval)
    # listed first, so that a window over the walk budget is refused
    # before the sweep, which costs its width
    true_blocks = tuple(_window_paths(g, g.pruned_adjacency, interval))
    radius = _synchronizing_radius(g, interval)
    m, n = interval
    # every block has n - m + 1 symbols, and there is at least one (a
    # preimage of y, which build_fiber_graph requires, crosses the
    # window), so the transpose has one set per coordinate
    per_coordinate = tuple(map(frozenset, zip(*true_blocks)))
    return SynchronizingExtension((m, n), radius, true_blocks,
                                  per_coordinate)
