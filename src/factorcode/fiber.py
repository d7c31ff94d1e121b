"""Fiber analysis over periodic image points.

The fiber of a periodic point y of period p is carried by the phase graph:
vertices are pairs (symbol, phase) whose label matches y at that phase,
edges act by the transition relation while advancing the phase. Preimages
of y are exactly the bi-infinite walks, so the graph is pruned to vertices
lying on such walks. Peeling it from its sinks and from its sources gives
the forward and backward walk depths and so the pruned part, with no
Tarjan pass; one runs over the pruned part only where its components are
read.

Transition classes (mutual-reachability classes of preimages under
coordinate splicing) are read off as the nontrivial strongly connected
components after unrolling the phase graph to the least common multiple P
of the component cyclicities; at that period every component has settled
into its terminal splitting and the count is stable under any further
unrolling, which the doubling certificate re-checks explicitly with a
real Tarjan pass over the reading at 2P. Reading y with a multiple of
its period gives a cyclic cover of the phase graph, and a walk lifts
uniquely once its starting phase is fixed, so the unrolled readings are
lifted from the pruned graph rather than rebuilt from the triple.

Window questions read the same graph. The synchronizing radius of a
window comes from one sweep across it that carries the backward walk
depths of its start vertices forward, so it lists no path. The true
blocks of a window are exactly the paths across it in the pruned graph,
and only they are listed, once a count of those paths has shown that
they stay within a budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, lcm

from . import graphs
from .core import PeriodicPoint, PreconditionError, per_triple, primitive_root
from .classdegree import TransitionBlock, transition_block
from .codes import _bits, _check_image_word, _label_masks


@dataclass
class FiberGraph:
    """Phase graph of a periodic image point.

    ``vertices`` lists every label-compatible (symbol, phase) pair and
    ``adjacency`` covers them all; restrict to ``pruned`` for fiber
    content. Two peels of ``adjacency`` give the rest: ``depths``, the
    longest forward walk out of and the longest backward walk into each
    vertex (``inf`` where unbounded), one peel from the sinks and one
    from the sources; and ``pruned``, the vertices where both are
    unbounded, which are those on bi-infinite walks. The cyclic
    components lie in ``pruned``; the 1-fold cover
    (``_unrolled(triple, word, period)``) finds them by one Tarjan pass
    over the pruned graph when they are first read.
    """

    triple: object
    word: tuple
    period: int
    vertices: tuple
    adjacency: dict
    pruned: frozenset
    depths: tuple
    _pruned_adjacency: dict = field(default=None, init=False, repr=False,
                                    compare=False)

    def pruned_adjacency(self):
        """``adjacency`` restricted to ``pruned``, built on first use and
        kept; callers must not modify it."""
        if self._pruned_adjacency is None:
            self._pruned_adjacency = {
                v: [w for w in self.adjacency[v] if w in self.pruned]
                for v in self.vertices if v in self.pruned}
        return self._pruned_adjacency


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
    """The vertices (s, k) by phase k, then s in symbol order, and their
    neighbours in symbol order, read off the labelled neighbour table
    ``codes._label_masks`` by the low-bit loop of ``codes.step``."""
    p = len(word)
    symbols = t.x.symbols
    table = _label_masks(t, True)
    bit = _bits(t)[0]
    adjacency = {}
    for k in range(p):
        nxt = (k + 1) % p
        c = word[nxt]
        for s in t.preimages(word[k]):
            heads = table[bit[s].bit_length() - 1].get(c, 0)
            out = adjacency[(s, k)] = []
            while heads:
                low = heads & -heads
                heads ^= low
                out.append((symbols[low.bit_length() - 1], nxt))
    vertices = tuple(adjacency)
    pred = graphs.invert(adjacency)
    fwd = graphs.walk_depths(adjacency, pred)
    back = graphs.walk_depths(pred, adjacency)
    pruned = frozenset(v for v in vertices
                       if fwd[v] is None and back[v] is None)
    depths = tuple({v: inf if d is None else d for v, d in side.items()}
                   for side in (fwd, back))
    return FiberGraph(t, word, p, vertices, adjacency, pruned, depths)


# Most vertices a fiber report may lift into the cover of its doubling
# certificate, which has 2 * (P / p) * |pruned| of them; the bundled
# fixtures and the benchmark pools need a few hundred at most.
COVER_VERTEX_BUDGET = 250_000


@dataclass
class PhaseCover:
    """The pruned phase graph of a point read with a multiple P = m * p
    of its period p: its m-fold cyclic cover.

    Vertex (s, k) lifts to (s, k + j * p) for j < m, and each edge
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
    adjacency = _phase_graph(t, word).pruned_adjacency()
    if period != len(word):
        base, adjacency = adjacency, {}
        for shift in range(0, period, len(word)):
            for (s, k), nbrs in base.items():
                nxt = (k + shift + 1) % period
                adjacency[(s, k + shift)] = [(u, nxt) for u, _ in nbrs]
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


def transition_classes(g):
    """Transition classes over the point presented by fiber graph ``g``."""
    t = g.triple
    p = g.period
    cover = class_cover(g)
    big_p = cover.period
    adj_p = cover.adjacency

    xorder = {s: i for i, s in enumerate(t.x.symbols)}

    def vkey(v):
        return (v[1], xorder[v[0]])

    order = cover.components
    comps = sorted(cover.cyclic, key=lambda comp: min(vkey(v) for v in comp))
    names = ["C%d" % (i + 1) for i in range(len(comps))]
    class_of_vertex = {}
    for name, comp in zip(names, comps):
        for v in comp:
            class_of_vertex[v] = name

    # class names reachable from each vertex; Tarjan emits every component
    # after all the components it reaches
    reach = {}
    for comp in order:
        found = set()
        if comp[0] in class_of_vertex:
            found.add(class_of_vertex[comp[0]])
        for v in comp:
            for w in adj_p[v]:
                if w in reach:
                    found |= reach[w]
        found = frozenset(found)
        for v in comp:
            reach[v] = found
    reach_of_class = {name: reach[comp[0]]
                      for name, comp in zip(names, comps)}
    reaches = tuple((a, b) for a in names for b in names
                    if a != b and b in reach_of_class[a])

    # distinct classes reach distinct class sets (each reaches itself)
    class_by_reach = {r: name for name, r in reach_of_class.items()}
    class_match = {v: class_by_reach[r] for v, r in reach.items()
                   if r in class_by_reach}
    members = {name: [set() for _ in range(big_p)] for name in names}
    placed = [set() for _ in range(big_p)]
    for (s, n), name in class_match.items():
        members[name][n].add(s)
        placed[n].add(s)
    s_sets = {name: tuple(map(frozenset, members[name])) for name in names}
    transient = tuple(
        frozenset(s for s in t.preimages(g.word[n % p]) if s not in placed[n])
        for n in range(big_p))
    matched = set().union(*placed)
    transient_symbols = frozenset(
        s for phase in transient for s in phase if s not in matched)

    classes = []
    for name, comp in zip(names, comps):
        rep_start = min((v for v in comp if v[1] == 0), key=vkey)
        rep_word = _shortest_cycle_word(adj_p, set(comp), rep_start)
        classes.append(TransitionClass(name, frozenset(comp),
                                       PeriodicPoint(rep_word)))

    stable = len(_unrolled(t, g.word, 2 * big_p).cyclic) == len(comps)

    return TransitionClassReport(
        word=tuple(g.word), period=p, unrolled_period=big_p,
        class_count=len(comps), classes=tuple(classes), reaches=reaches,
        s_sets=s_sets, transient=transient,
        transient_symbols=transient_symbols, stable_under_doubling=stable,
        class_of_vertex=class_of_vertex, class_match=class_match)


def _shortest_cycle_word(adj, members, start):
    """Symbols along a shortest closed walk through ``start`` inside one
    strongly connected component."""
    walk = graphs.shortest_walk(adj, start, start, members)
    return tuple(v[0] for v in [start] + walk[:-1])


# Most walks of the pruned phase graph that ``enumerate_periodic_preimages``
# may list; their number grows exponentially with the period. The
# fixtures need 508 at most, over their points of period up to 8 listed
# to period 8.
PREIMAGE_WALK_BUDGET = 50_000


def enumerate_periodic_preimages(t, y, max_period):
    """Periodic preimages of y with period at most max_period, as points.

    Each result is phase aligned with y (coordinate 0 maps to y_0); both
    members of a rotation pair are reported when they are distinct points.
    PreconditionError, before any is listed, when that takes more than
    ``PREIMAGE_WALK_BUDGET`` walks of the pruned phase graph.
    """
    g = build_fiber_graph(t, y)
    if max_period < g.period:
        raise ValueError("max_period is smaller than the point's period")
    adj = g.pruned_adjacency()
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    found = set()

    starts = sorted((v for v in adj if v[1] == 0), key=lambda v: xorder[v[0]])
    if graphs.count_walks(adj, starts, max_period - 1,
                          PREIMAGE_WALK_BUDGET) > PREIMAGE_WALK_BUDGET:
        raise PreconditionError(
            "the periodic preimages of period up to %d take more than %d "
            "walks of the phase graph, the limit"
            % (max_period, PREIMAGE_WALK_BUDGET))
    for v0 in starts:
        stack = [(v0, (v0[0],))]
        while stack:
            node, word = stack.pop()
            for nxt in adj[node]:
                if nxt == v0 and len(word) % g.period == 0:
                    if primitive_root(word) == word:
                        found.add(word)
                if len(word) < max_period:
                    stack.append((nxt, word + (nxt[0],)))

    words = sorted(found, key=lambda w: (len(w),
                                         tuple(xorder[s] for s in w)))
    return [PeriodicPoint(w) for w in words]


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
        raise ValueError("empty interval")
    return build_fiber_graph(t, y)


# Most walks of a phase graph that the listing of a window's blocks may
# try; their number grows exponentially with the width of the window.
# The sync ops of the benchmark pools try 1,364 at most, and a window of
# 1,501 coordinates with one block tries 1,500.
WINDOW_WALK_BUDGET = 100_000


def _window_paths(g, adjacency, interval, keep_start=None, keep_end=None):
    """Symbol blocks of the paths across the window in ``adjacency`` whose
    start passes ``keep_start`` and whose end passes ``keep_end`` (None
    keeps every vertex), in symbol order; a block fixes its path. One
    iterative depth first walk, so it costs the paths it tries.
    PreconditionError, before any is listed, when that takes more than
    ``WINDOW_WALK_BUDGET`` walks of ``adjacency``."""
    m, n = interval
    width = n - m + 1
    starts = [v for v in adjacency if v[1] == m % g.period
              and (keep_start is None or keep_start(v))]
    if graphs.count_walks(adjacency, starts, width - 1,
                          WINDOW_WALK_BUDGET) > WINDOW_WALK_BUDGET:
        raise PreconditionError(
            "the blocks of the window %d..%d take more than %d walks of "
            "the phase graph, the limit" % (m, n, WINDOW_WALK_BUDGET))
    blocks = []
    for v in starts:
        path, todo = [v], [iter(adjacency[v])]
        while path:
            if len(path) < width:
                u = next(todo[-1], None)
                if u is not None:
                    path.append(u)
                    todo.append(iter(adjacency[u]))
                    continue
            elif keep_end is None or keep_end(path[-1]):
                blocks.append(tuple(u[0] for u in path))
            path.pop()
            todo.pop()
    xorder = {s: i for i, s in enumerate(g.triple.x.symbols)}
    return sorted(blocks, key=lambda w: tuple(xorder[s] for s in w))


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
    fwd, back = g.depths
    best, finite = {}, {}
    for v in adjacency:
        if v[1] == m % g.period:
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
        return _window_paths(g, g.pruned_adjacency(), interval)
    if radius < 0:
        raise ValueError("radius must be >= 0")
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
    true_blocks = tuple(_window_paths(g, g.pruned_adjacency(), interval))
    radius = _synchronizing_radius(g, interval)
    m, n = interval
    per_coordinate = tuple(frozenset(w[i] for w in true_blocks)
                           for i in range(n - m + 1))
    return SynchronizingExtension((m, n), radius, true_blocks,
                                  per_coordinate)


@dataclass
class ExtractionResult:
    """A transition block extracted from the fiber of a periodic point,
    together with the stage data that produced it."""

    block: TransitionBlock
    class_count: int
    n2: int
    n3: int
    n4: int
    radius: int


def extract_transition_block(t, y):
    """Construct a transition block whose depth equals the number of
    transition classes over the periodic point y.

    Stage 1 bounds the time by which every preimage shows a non-transient
    vertex; stage 2 finds a common routing target per class at one time
    n3; stage 3 grows the window until every preimage provably merges back
    out of its routing target; stage 4 pads the window by the
    synchronizing radius so that finite preimage blocks behave like the
    bi-infinite fiber. The result is machine-checked on construction.
    """
    g = build_fiber_graph(t, y)
    report = transition_classes(g)
    big_p = report.unrolled_period
    cover = _unrolled(t, g.word, big_p)
    adj = cover.adjacency
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    class_match = report.class_match

    # n2: vertices on the longest walk through transient vertices
    transient_sub = {v: [w for w in adj[v] if w not in class_match]
                     for v in adj if v not in class_match}
    depths = graphs.walk_depths(transient_sub)
    if None in depths.values():
        raise AssertionError("transient vertex reaches a cycle")
    n2 = 1 + max(depths.values(), default=-1)

    def step(frontier):
        return {w for v in frontier for w in adj[v]}

    # seeds: non-transient vertices at times 0..n2. Each keeps one
    # frontier, the vertices its walks reach at the current time, and is
    # stepped once per time
    frontiers = []
    for time in range(n2 + 1):
        frontiers = [(name, step(f)) for name, f in frontiers]
        frontiers += [(class_match[v], {v}) for v in adj
                      if v[1] == time % big_p and v in class_match]
    names = [cls.name for cls in report.classes]
    if {name for name, _ in frontiers} != set(names):
        raise AssertionError("class without early seed vertices")

    max_n3 = n2 + 1 + 4 * big_p * (len(adj) + 1)
    dp_budget = len(adj) * (2 ** len(names)) + 2 * big_p + 8

    early = None
    for n3 in range(n2 + 1, max_n3 + 1):
        # stage 2: per class, the first vertex in symbol order that every
        # seed of the class reaches at time n3
        frontiers = [(name, step(f)) for name, f in frontiers]
        reached = {cls.name: cls.vertices for cls in report.classes}
        for name, f in frontiers:
            reached[name] = reached[name] & f
        if not all(reached.values()):
            continue
        targets = {name: min(vs, key=lambda v: xorder[v[0]])
                   for name, vs in reached.items()}

        # stage 3: product sweep over (vertex, collected class set), run
        # to n2 once; every attempt advances it from there
        if early is None:
            early = {(v, frozenset([class_match[v]] if v in class_match
                                   else ()))
                     for v in adj if v[1] == 0}
            for _ in range(n2):
                early = {(w, collected | {class_match[w]}
                          if w in class_match else collected)
                         for v, collected in early for w in adj[v]}
            if any(not collected for _, collected in early):
                raise AssertionError(
                    "preimage path with no early class visit")
        states, time = early, n2
        b_front = {name: step({v}) for name, v in targets.items()}
        for n4 in range(n3 + 1, n3 + dp_budget + 1):
            while time < n4:
                time += 1
                states = {(w, collected) for v, collected in states
                          for w in adj[v]}
            if all(any(v in b_front[name] for name in collected)
                   for v, collected in states):
                break
            b_front = {name: step(f) for name, f in b_front.items()}
        else:
            # no merge within the budget: try the next n3
            continue
        break
    else:
        raise RuntimeError("transition block extraction exhausted its caps")

    radius = _synchronizing_radius(g, (0, n4))
    window = tuple(PeriodicPoint(report.word).window(-radius, n4 + radius))
    index = n3 + radius
    symbols = frozenset(v[0] for v in targets.values())
    if len(symbols) != len(names):
        raise AssertionError("routing targets share a symbol")
    block = transition_block(t, window, index, symbols)
    return ExtractionResult(block, report.class_count, n2, n3, n4, radius)
