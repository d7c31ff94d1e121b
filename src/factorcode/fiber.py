"""Fiber analysis over periodic image points.

The fiber of a periodic point y of period p is carried by the phase graph:
vertices are pairs (symbol, phase) whose label matches y at that phase,
edges act by the transition relation while advancing the phase. Preimages
of y are exactly the bi-infinite walks, so the graph is pruned to vertices
lying on such walks. One Tarjan pass gives the cyclic components, the
forward and backward walk depths and so the pruned part.

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
and only they are listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, lcm

from . import graphs
from .core import PeriodicPoint, PreconditionError, per_triple, primitive_root
from .classdegree import TransitionBlock, transition_block


@dataclass
class FiberGraph:
    """Phase graph of a periodic image point.

    ``vertices`` lists every label-compatible (symbol, phase) pair and
    ``adjacency`` covers them all; restrict to ``pruned`` for fiber
    content. One Tarjan pass over ``adjacency`` gives the rest:
    ``cyclic``, its nontrivial strongly connected components; ``depths``,
    the longest forward walk out of and the longest backward walk into
    each vertex (``inf`` where unbounded), read along the emission order
    and, on the inverted graph, along its reverse; and ``pruned``, the
    vertices where both are unbounded, which are those on bi-infinite
    walks. The cyclic components all lie in ``pruned`` and are exactly
    the nontrivial components of the pruned graph.
    """

    triple: object
    word: tuple
    period: int
    vertices: tuple
    adjacency: dict
    pruned: frozenset
    cyclic: tuple
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
    word = tuple(y.word) if isinstance(y, PeriodicPoint) else tuple(y)
    for c in word:
        if c not in t.preimage_map:
            raise ValueError("unknown image symbol %r" % (c,))
    g = _phase_graph(t, word)
    if not g.pruned:
        raise PreconditionError("point has no preimage in the domain")
    return g


@per_triple
def _phase_graph(t, word):
    p = len(word)
    vertices = tuple((s, k) for k in range(p) for s in t.preimages(word[k]))
    adjacency = {}
    for s, k in vertices:
        nxt = (k + 1) % p
        adjacency[(s, k)] = [(u, nxt) for u in
                             t.successors_by_label[s].get(word[nxt], ())]
    order = graphs.strongly_connected_components(adjacency)
    cyclic = tuple(c for c in order if graphs.is_cyclic(adjacency, c))
    fwd = graphs.walk_depths(adjacency, order)
    back = graphs.walk_depths(graphs.invert(adjacency), order[::-1])
    pruned = frozenset(v for v in vertices
                       if fwd[v] is None and back[v] is None)
    depths = tuple({v: inf if d is None else d for v, d in side.items()}
                   for side in (fwd, back))
    return FiberGraph(t, word, p, vertices, adjacency, pruned, cyclic,
                      depths)


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
    of its period, lifted from that graph and searched by one Tarjan
    pass."""
    base = _phase_graph(t, word).pruned_adjacency()
    adjacency = {}
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


def transition_classes(g):
    """Transition classes over the point presented by fiber graph ``g``."""
    t = g.triple
    p = g.period
    cyclicities = [graphs.component_cyclicity(g.adjacency, comp)
                   for comp in g.cyclic]
    big_p = lcm(*cyclicities) if cyclicities else p
    size = 2 * (big_p // p) * len(g.pruned)
    if size > COVER_VERTEX_BUDGET:
        raise PreconditionError(
            "unrolling the fiber to period %d needs %d vertices, over the "
            "limit of %d" % (big_p, size, COVER_VERTEX_BUDGET))
    cover = _unrolled(t, g.word, big_p)
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


def class_of_preimage(t, report, x):
    """Name of the transition class containing a periodic preimage x."""
    if not t.x.admits_cycle(x.word):
        raise ValueError("not a periodic point of the domain")
    span = lcm(x.period, len(report.word))
    for j in range(span):
        if t.label[x.symbol_at(j)] != report.word[j % len(report.word)]:
            raise ValueError("point is not a preimage of the fiber's point")
    vertex = (x.symbol_at(0), 0)
    if vertex not in report.class_of_vertex:
        raise ValueError("point is not a preimage of the fiber's point")
    return report.class_of_vertex[vertex]


def enumerate_periodic_preimages(t, y, max_period):
    """Periodic preimages of y with period at most max_period, as points.

    Each result is phase aligned with y (coordinate 0 maps to y_0); both
    members of a rotation pair are reported when they are distinct points.
    """
    g = build_fiber_graph(t, y)
    if max_period < g.period:
        raise ValueError("max_period is smaller than the point's period")
    adj = g.pruned_adjacency()
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    found = set()

    starts = sorted((v for v in adj if v[1] == 0), key=lambda v: xorder[v[0]])
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


def _window_paths(g, adjacency, interval, keep_start=None, keep_end=None):
    """Symbol blocks of the paths across the window in ``adjacency`` whose
    start passes ``keep_start`` and whose end passes ``keep_end`` (None
    keeps every vertex), in symbol order; a block fixes its path. One
    iterative depth first walk, so it costs the paths it tries."""
    m, n = interval
    width = n - m + 1
    blocks = []
    for v in adjacency:
        if v[1] != m % g.period or not (keep_start is None or keep_start(v)):
            continue
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
    radius = _synchronizing_radius(g, interval)
    true_blocks = tuple(_window_paths(g, g.pruned_adjacency(), interval))
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
    adj = _unrolled(t, g.word, big_p).adjacency
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
        nxt = set()
        for v in frontier:
            nxt.update(adj[v])
        return nxt

    # seeds: non-transient vertices at times 0..n2, grouped by class
    names = [cls.name for cls in report.classes]
    seeds = {name: [] for name in names}
    for time in range(n2 + 1):
        for v in adj:
            if v[1] == time % big_p and v in class_match:
                seeds[class_match[v]].append((v, time))
    for name in names:
        if not seeds[name]:
            raise AssertionError("class without early seed vertices")
    scc_vertices = {cls.name: cls.vertices for cls in report.classes}

    max_n3 = n2 + 1 + 4 * big_p * (len(adj) + 1)
    dp_budget = len(adj) * (2 ** len(names)) + 2 * big_p + 8

    chosen = None
    for n3 in range(n2 + 1, max_n3 + 1):
        targets = {}
        for name in names:
            candidates = sorted(
                (v for v in scc_vertices[name] if v[1] == n3 % big_p),
                key=lambda v: xorder[v[0]])
            pick = None
            for cand in candidates:
                ok = True
                for v, time in seeds[name]:
                    frontier = {v}
                    for _ in range(n3 - time):
                        frontier = step(frontier)
                    if cand not in frontier:
                        ok = False
                        break
                if ok:
                    pick = cand
                    break
            if pick is None:
                targets = None
                break
            targets[name] = pick
        if targets is None:
            continue

        # stage 3: product sweep over (vertex, collected class set)
        states = {(v, frozenset([class_match[v]] if v in class_match else ()))
                  for v in adj if v[1] == 0}
        time = 0
        while time < n2:
            time += 1
            nxt = set()
            for v, collected in states:
                for w in adj[v]:
                    extra = class_match.get(w)
                    nxt.add((w, collected | {extra}) if extra
                            else (w, collected))
            states = nxt
        if any(not collected for _, collected in states):
            raise AssertionError("preimage path with no early class visit")

        b_front = {name: {targets[name]} for name in names}
        b_time = n3
        found_n4 = None
        while b_time - n3 <= dp_budget:
            while time < b_time:
                time += 1
                states = {(w, collected) for v, collected in states
                          for w in adj[v]}
            if b_time > n3:
                good = all(
                    any(v in b_front[name] for name in collected)
                    for v, collected in states)
                if good:
                    found_n4 = b_time
                    break
            for name in names:
                b_front[name] = step(b_front[name])
            b_time += 1
        if found_n4 is None:
            continue
        chosen = (n3, found_n4, targets)
        break
    if chosen is None:
        raise RuntimeError("transition block extraction exhausted its caps")

    n3, n4, targets = chosen
    radius = _synchronizing_radius(g, (0, n4))
    window = tuple(PeriodicPoint(report.word).window(-radius, n4 + radius))
    index = n3 + radius
    symbols = frozenset(targets[name][0] for name in names)
    if len(symbols) != len(names):
        raise AssertionError("routing targets share a symbol")
    block = transition_block(t, window, index, symbols)
    return ExtractionResult(block, report.class_count, n2, n3, n4, radius)
