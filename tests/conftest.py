"""Shared brute-force oracles and random generators for the test suite.

Every oracle here recomputes its answer by exhaustive enumeration with
itertools, independently of the library's sweeps, automata, and graph
algorithms, so agreement between the two is meaningful evidence. Oracles
are only usable at desk scale (alphabets of a handful of symbols, words of
length at most eight or so); the tests keep within that envelope.
"""

import itertools
import string
from math import inf, lcm, log, sqrt
from types import SimpleNamespace

import numpy as np

from factorcode import (
    PeriodicPoint,
    build_fiber_graph,
    canonical_orbit_word,
    fixtures,
    make_sft,
    markov_measure,
    orbit_measure,
    parry_measure,
    parse_measure,
    primitive_root,
    sofic_image,
    transition_classes,
)
from factorcode import graphs
from factorcode.classdegree import (_close_word, _min_hitting_set,
                                    _pad_to_interior, _result, _Routes,
                                    minimal_depth_at)
from factorcode.codes import (_bits, _check_image_word, _label_masks, d_star,
                              image_blocks, step)
from factorcode.core import FactorTriple, enumerate_blocks, sub_triple
from factorcode.fiber import _unrolled, class_cover
from factorcode.measures import _gibbs_chain, _presentation, _prune_support


FIXTURE_NAMES = ("fix_a", "fix_b", "fix_c", "fix_d", "fix_e", "fix_g")

# State names join member symbols with '+', so a '+' in a domain symbol
# gives the presentation states {a, b} and {a+b} the one name a+b.
PLUS_TRIPLE = """\
xsymbols: a b a+b c d
ysymbols: 0 1 2
map: a>0 b>0 a+b>0 c>1 d>2
edges: c>a c>b a>c b>c a+b>c a>a b>b d>a+b a+b>d c>d d>c
"""

# The image-measure pairs exercised throughout: Parry measures of the
# image presentation, point masses on fixed points of the presentation,
# and the bundled empirical measure of the (01)-periodic image orbit.
MEASURE_PAIRS = (
    ("fix_a", "parry"),
    ("fix_b", "point"),
    ("fix_c", "point"),
    ("fix_d", "parry"),
    ("fix_e", "parry"),
    ("fix_e", "orbit01"),
    ("fix_g", "parry"),
)


def labelled_successors(t, s, c):
    """The successors of ``s`` in the domain of ``t`` that carry the image
    symbol ``c``, in symbol order, read off the successor map and the
    labels: the oracles' labelled step, independent of the library's
    mask table."""
    return [u for u in t.x.successor_map[s] if t.label[u] == c]


def decode(t, x):
    """The (symbol, phase) name of an int phase-graph vertex, v = k * n + i
    standing for (t.x.symbols[i], k) with n domain symbols; of each member
    of a list, tuple, set or frozenset, kept as that type; and of the keys
    of a dict and of its list values, as in an adjacency or a depth map."""
    if isinstance(x, int):
        n = len(t.x.symbols)
        return t.x.symbols[x % n], x // n
    if isinstance(x, dict):
        return {decode(t, k): decode(t, v) if isinstance(v, list) else v
                for k, v in x.items()}
    return type(x)(decode(t, v) for v in x)


def reachable_from(adj, starts):
    """All nodes reachable from ``starts`` (the starts included)."""
    seen = set()
    stack = list(starts)
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        for v in adj[u]:
            if v not in seen:
                stack.append(v)
    return seen


def image_measure(t, kind):
    """Build one of the standard image measures for a fixture triple."""
    pres = sofic_image(t).triple
    if kind == "parry":
        return pres, parry_measure(pres.x)
    if kind == "point":
        return pres, orbit_measure(pres.x,
                                   PeriodicPoint((pres.x.symbols[0],)))
    if kind == "orbit01":
        text = fixtures.load_text("fix_e_orbit01.measure")
        return pres, parse_measure(text, pres.x)
    raise ValueError(kind)


def closed_class_measure(x, rows):
    """The Markov measure on the SFT ``x`` with the kernel entries
    ``rows`` ({(s, t): p}) on a closed class; every other state steps
    along a shortest path into the class (to its first successor in
    breadth-first order from the class), so the class is the only closed
    one. perfbench/pool.py builds its orbit measures the same way."""
    kernel = dict(rows)
    frontier = list(dict.fromkeys(s for s, _ in rows))
    seen = set(frontier)
    for v in frontier:
        for u in x.symbols:
            if u not in seen and x.allows(u, v):
                seen.add(u)
                kernel[(u, v)] = 1.0
                frontier.append(u)
    return markov_measure(x, kernel)


def measure_text(measure):
    """The text of a measure file for a Markov measure."""
    states = measure.base.symbols
    return "states: %s\n" % " ".join(states) + "".join(
        "row %s: %s\n" % (s, " ".join(repr(measure.kernel.get((s, u), 0.0))
                                       for u in states))
        for s in states)


def all_words(x, n):
    """Every admissible n-word of the SFT, by raw product enumeration."""
    out = []
    for u in itertools.product(x.symbols, repeat=n):
        if all(x.allows(u[i], u[i + 1]) for i in range(n - 1)):
            out.append(u)
    return out


def all_cycle_words(x, n):
    """Admissible n-words that close into a cycle (u[-1] -> u[0])."""
    return [u for u in all_words(x, n) if x.allows(u[-1], u[0])]


def brute_preimage_blocks(t, word):
    """All domain words mapping onto ``word``.

    Grown one coordinate at a time with the label filter applied eagerly,
    which keeps long low-preimage words tractable; no sweeps, no automata.
    """
    word = tuple(word)
    paths = [(s,) for s in t.x.symbols if t.label[s] == word[0]]
    for c in word[1:]:
        paths = [p + (u,) for p in paths for u in t.x.successors(p[-1])
                 if t.label[u] == c]
    return paths


def brute_profile(t, word, index):
    return frozenset(u[index] for u in brute_preimage_blocks(t, word))


def brute_image_words(t, n):
    return {t.label_word(u) for u in all_words(t.x, n)}


def brute_routable(t, word, index, u, blocks=None):
    """The full route set of one preimage at one index."""
    if blocks is None:
        blocks = brute_preimage_blocks(t, word)
    return frozenset(v[index] for v in blocks
                     if v[0] == u[0] and v[-1] == u[-1])


def brute_min_depth(t, word):
    """Minimal transition-block depth of a word by exhaustive hitting sets.

    Returns None when the word has no preimage. Only the depth value is
    canonical; index and symbol-set tie-breaking is the library's policy
    and is tested separately against frozen expectations.
    """
    word = tuple(word)
    blocks = brute_preimage_blocks(t, word)
    if not blocks:
        return None
    best = None
    for index in range(1, len(word) - 1):
        pool = sorted({u[index] for u in blocks})
        routes = [brute_routable(t, word, index, u, blocks) for u in blocks]
        found = None
        for size in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool, size):
                chosen = frozenset(combo)
                if all(r & chosen for r in routes):
                    found = size
                    break
            if found is not None:
                break
        if best is None or found < best:
            best = found
    return best


def brute_is_transition_block(t, word, index, symbols):
    blocks = brute_preimage_blocks(t, word)
    if not blocks:
        return False
    symbols = frozenset(symbols)
    return all(brute_routable(t, word, index, u, blocks) & symbols
               for u in blocks)


def brute_periodic_preimages(t, y, max_period):
    """Primitive periodic preimage words of y, phase aligned at zero.

    A candidate word u of length n is a preimage point iff u closes into a
    cycle and label(u) repeated agrees with y over a full common period.
    """
    out = []
    for n in range(1, max_period + 1):
        span = lcm(n, y.period)
        for u in all_cycle_words(t.x, n):
            if primitive_root(u) != u:
                continue
            if all(t.label[u[i % n]] == y.symbol_at(i) for i in range(span)):
                out.append(u)
    return sorted(out, key=lambda u: (len(u), u))


def brute_in_image_periodic(t, word):
    """Whether the ``word``-periodic point lies in the image shift.

    Builds the phase graph over one period by hand and trims vertices
    without successors or predecessors to a fixed point; the point has a
    bi-infinite preimage iff anything survives.
    """
    n = len(word)
    vertices = {(s, i) for i in range(n) for s in t.x.symbols
                if t.label[s] == word[i]}
    while True:
        succ = {v: [(u, (v[1] + 1) % n) for u in t.x.successors(v[0])
                    if (u, (v[1] + 1) % n) in vertices] for v in vertices}
        pred = {v: [(u, (v[1] - 1) % n) for u in t.x.predecessors(v[0])
                    if (u, (v[1] - 1) % n) in vertices] for v in vertices}
        dead = {v for v in vertices if not succ[v] or not pred[v]}
        if not dead:
            return bool(vertices)
        vertices -= dead


def brute_pruned_phase_vertices(t, word):
    """(symbol, phase) pairs on bi-infinite preimages of the word-periodic
    point, by iterative trimming of the phase graph."""
    n = len(word)
    vertices = {(s, i) for i in range(n) for s in t.x.symbols
                if t.label[s] == word[i]}
    while True:
        succ = {v: [(u, (v[1] + 1) % n) for u in t.x.successors(v[0])
                    if (u, (v[1] + 1) % n) in vertices] for v in vertices}
        pred = {v: [(u, (v[1] - 1) % n) for u in t.x.predecessors(v[0])
                    if (u, (v[1] - 1) % n) in vertices] for v in vertices}
        dead = {v for v in vertices if not succ[v] or not pred[v]}
        if not dead:
            return vertices
        vertices -= dead


def ref_unrolled(t, word, m):
    """The pruned phase graph of ``word`` read with m times its period,
    built directly from the triple for the m-fold word, and its strongly
    connected components in Tarjan emission order; the cover
    ``fiber._unrolled`` lifts from the base graph must equal both, down
    to every order."""
    word = tuple(word) * m
    n = len(word)
    vertices = [(s, k) for k in range(n) for s in t.preimages(word[k])]
    adj = {(s, k): [(u, (k + 1) % n) for u in
                    labelled_successors(t, s, word[(k + 1) % n])]
           for s, k in vertices}
    pruned = ref_bi_essential_nodes(adj)
    pruned_adj = {v: [w for w in adj[v] if w in pruned]
                  for v in vertices if v in pruned}
    return pruned_adj, ref_strongly_connected_components(pruned_adj)


def ref_bi_essential_nodes(adj):
    """Nodes on some bi-infinite walk by reachability: those reachable
    from a cycle that also reach a cycle, i.e. the closed hull of the
    nontrivial strongly connected components."""
    cyc = {u for comp in ref_strongly_connected_components(adj)
           if graphs.is_cyclic(adj, comp) for u in comp}
    starts = [u for u in adj if u in cyc]
    fwd = reachable_from(adj, starts)
    bwd = reachable_from(graphs.invert(adj), starts)
    return {u for u in adj if u in fwd and u in bwd}


def ref_extract_stages(t, y):
    """(n2, n3, n4, targets) of stages 1-3 of
    ``classdegree.extract_transition_block`` by the direct stage loop: every
    routing candidate re-steps every seed from the seed's own time, and
    every attempt reruns the product sweep from time 0."""
    g = build_fiber_graph(t, y)
    report = transition_classes(g)
    big_p = report.unrolled_period
    adj = decode(t, _unrolled(t, g.word, big_p).adjacency)
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    class_match = report.class_match

    transient_sub = {v: [w for w in adj[v] if w not in class_match]
                     for v in adj if v not in class_match}
    depths = brute_walk_depths(transient_sub)
    n2 = 1 + max(depths.values(), default=-1)

    def step(frontier):
        return {w for v in frontier for w in adj[v]}

    names = [cls.name for cls in report.classes]
    seeds = {name: [] for name in names}
    for time in range(n2 + 1):
        for v in adj:
            if v[1] == time % big_p and v in class_match:
                seeds[class_match[v]].append((v, time))
    scc_vertices = {cls.name: cls.vertices for cls in report.classes}
    max_n3 = n2 + 1 + 4 * big_p * (len(adj) + 1)
    dp_budget = len(adj) * (2 ** len(names)) + 2 * big_p + 8

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

        states = {(v, frozenset([class_match[v]] if v in class_match
                                else ()))
                  for v in adj if v[1] == 0}
        time = 0
        while time < n2:
            time += 1
            states = {(w, collected | {class_match[w]}
                       if w in class_match else collected)
                      for v, collected in states for w in adj[v]}
        assert all(collected for _, collected in states)

        b_front = {name: {targets[name]} for name in names}
        b_time = n3
        while b_time - n3 <= dp_budget:
            while time < b_time:
                time += 1
                states = {(w, collected) for v, collected in states
                          for w in adj[v]}
            if b_time > n3 and all(
                    any(v in b_front[name] for name in collected)
                    for v, collected in states):
                return n2, n3, b_time, targets
            for name in names:
                b_front[name] = step(b_front[name])
            b_time += 1
    return None


def brute_window_blocks(t, y, interval):
    """True preimage blocks over the window, via the trimmed phase graph."""
    m, n = interval
    vertices = brute_pruned_phase_vertices(t, y.word)
    p = y.period
    walks = [[v] for v in vertices if v[1] == m % p]
    for i in range(m + 1, n + 1):
        walks = [w + [v] for w in walks for v in vertices
                 if v[1] == i % p and t.x.allows(w[-1][0], v[0])]
    return {tuple(v[0] for v in w) for w in walks}


def brute_window_blocks_at_radius(t, y, interval, radius):
    """Blocks of the ``radius``-extended local condition: label-compatible
    symbol paths over the window whose start has a backward walk of at
    least ``radius`` steps and whose end a forward walk of at least
    ``radius`` steps, i.e. the restrictions to the window of the
    label-compatible paths over the window widened by ``radius`` on both
    sides."""
    m, n = interval
    walks = [(s,) for s in t.x.symbols
             if t.label[s] == y.symbol_at(m - radius)]
    for i in range(m - radius + 1, n + radius + 1):
        walks = [w + (s,) for w in walks for s in t.x.symbols
                 if t.label[s] == y.symbol_at(i) and t.x.allows(w[-1], s)]
    return {w[radius:radius + n - m + 1] for w in walks}


def brute_walk_depths(adj):
    """Longest walk from each node, by the endpoint sets of the walks of
    each length; a walk of len(adj) steps repeats a node, so its start
    reaches a cycle and gets ``inf``. Nodes may be any hashable."""
    out = {}
    for v in adj:
        frontier, length = {v}, 0
        while length < len(adj):
            frontier = {u for w in frontier for u in adj[w]}
            if not frontier:
                break
            length += 1
        out[v] = inf if length == len(adj) else length
    return out


def brute_periodic_image_words(t, max_period):
    """Canonical periodic image orbit words, by trying every candidate."""
    out = set()
    for n in range(1, max_period + 1):
        for w in itertools.product(t.y_alphabet, repeat=n):
            if brute_in_image_periodic(t, w):
                out.add(canonical_orbit_word(w))
    return {w for w in out if len(w) <= max_period}


def random_triple(rng):
    """A random essential triple with at most five domain symbols.

    The domain always contains a full cycle through every symbol, so it is
    irreducible (hence essential); extra random edges and a random label
    map with forced image coverage give a varied population of codes.
    """
    n = rng.randint(1, 5)
    syms = tuple(string.ascii_lowercase[:n])
    edges = {(syms[i], syms[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randint(0, n)):
        edges.add((rng.choice(syms), rng.choice(syms)))
    y_size = rng.randint(1, n)
    y_syms = tuple(str(i) for i in range(y_size))
    label = {s: rng.choice(y_syms) for s in syms}
    for i in range(y_size):
        label[syms[i]] = y_syms[i]
    return FactorTriple(make_sft(syms, edges), dict(label), y_syms)


# Reference implementations of the graph core by definition: quadratic
# or worse, but each a direct transcription of what the fast version in
# the library must reproduce, down to every output order.

def ref_strongly_connected_components(adj):
    """Tarjan's algorithm in its textbook iterative form: an on-stack set,
    and each component popped node by node. The library's version must
    give the same list of lists, in the same order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in adj:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
    return components


def ref_successor_map(x):
    return {s: tuple(u for u in x.symbols if (s, u) in x.transitions)
            for s in x.symbols}


def ref_predecessor_map(x):
    return {s: tuple(u for u in x.symbols if (u, s) in x.transitions)
            for s in x.symbols}


def ref_essential_nodes(nodes, edges):
    """Remove nodes without a live successor or predecessor until nothing
    changes."""
    alive = set(nodes)
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            if not any(a == s and b in alive for (a, b) in edges) or \
                    not any(b == s and a in alive for (a, b) in edges):
                alive.discard(s)
                changed = True
    return alive


def ref_essentialize(x):
    alive = ref_essential_nodes(x.symbols, x.transitions)
    if not alive:
        return None
    return make_sft([s for s in x.symbols if s in alive],
                    [(a, b) for (a, b) in x.transitions
                     if a in alive and b in alive])


def _ref_step(t, state, c, forward):
    return frozenset(u for s in state for u in t.x.symbols
                     if t.label[u] == c
                     and t.x.allows(*((s, u) if forward else (u, s))))


def ref_subset_automaton(t, forward):
    """Frozenset subset construction: state -> (witness word, label) in
    breadth-first order, and the set of state graph edges."""
    found = {}
    queue = []
    edges = set()
    for c in t.y_alphabet:
        state = frozenset(t.preimages(c))
        found[state] = ((c,), c)
        queue.append(state)
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        word, _ = found[state]
        for c in t.y_alphabet:
            nxt = _ref_step(t, state, c, forward)
            if not nxt:
                continue
            if nxt not in found:
                found[nxt] = (word + (c,), c)
                queue.append(nxt)
            edges.add((state, nxt))
    return found, edges


def ref_sofic_image(t):
    """(state names, edges by name, label by name, members by name,
    strongly connected) of the essentialized forward subset construction,
    or None when no state survives."""
    found, edges = ref_subset_automaton(t, forward=True)
    alive = ref_essential_nodes(found, edges)
    if not alive:
        return None
    xorder = {s: i for i, s in enumerate(t.x.symbols)}

    def name(state):
        return "+".join(sorted(state, key=xorder.get))

    kept = [s for s in found if s in alive]
    names = tuple(name(s) for s in kept)
    named_edges = frozenset((name(a), name(b)) for (a, b) in edges
                            if a in alive and b in alive)
    succ = {s: {b for (a, b) in named_edges if a == s} for s in names}
    reach = {}
    for s in names:
        seen = {s}
        stack = [s]
        while stack:
            for b in succ[stack.pop()] - seen:
                seen.add(b)
                stack.append(b)
        reach[s] = seen
    connected = all(reach[s] == set(names) for s in names)
    return (names, named_edges, {name(s): found[s][1] for s in kept},
            {name(s): s for s in kept}, connected)


def ref_pair_graph(t):
    """(vertices, edges, adjacency) of the label product, from all pairs
    of vertices."""
    vertices = tuple((a, b) for a in t.x.symbols for b in t.x.symbols
                     if t.label[a] == t.label[b])
    edges = frozenset(((a, b), (c, d)) for (a, b) in vertices
                      for (c, d) in vertices
                      if t.x.allows(a, c) and t.x.allows(b, d))
    adjacency = {v: [w for w in vertices if (v, w) in edges]
                 for v in vertices}
    return vertices, edges, adjacency


def ref_is_finite_to_one(t):
    """No off-diagonal vertex of the all-pairs label product lies on a
    path from its diagonal back to it, by reachability both ways."""
    vertices, _, adjacency = ref_pair_graph(t)
    diagonal = [v for v in vertices if v[0] == v[1]]
    fwd = reachable_from(adjacency, diagonal)
    bwd = reachable_from(graphs.invert(adjacency), diagonal)
    return not any(v[0] != v[1] and v in fwd and v in bwd for v in vertices)


def ref_d_star(t):
    """(word, index, value) minimizing (value, length, word) over every
    pair of forward and backward frozenset states with a common label,
    the first pair in scan order winning exact ties."""
    fwd, _ = ref_subset_automaton(t, forward=True)
    bwd, _ = ref_subset_automaton(t, forward=False)
    best = None
    for c in t.y_alphabet:
        for fstate, (fword, fc) in fwd.items():
            if fc != c:
                continue
            for bstate, (bword, bc) in bwd.items():
                meet = fstate & bstate
                if bc != c or not meet:
                    continue
                word = fword + tuple(reversed(bword))[1:]
                key = (len(meet), len(word), word)
                if best is None or key < best[0]:
                    best = (key, (word, len(fword) - 1, len(meet)))
    return best[1]


# Frozenset sweeps along image words by ``_ref_step``, independent of the
# library's mask sweeps, which the tests compare with the brute-force
# oracles above and use to build the references below.

def _ref_sweep(t, start, word, forward):
    """``_ref_step`` along ``word`` from the set ``start`` at its first
    (forward) or last coordinate: one set per coordinate, in coordinate
    order."""
    sets = [frozenset(start)]
    for c in (word[1:] if forward else word[-2::-1]):
        sets.append(_ref_step(t, sets[-1], c, forward))
    return sets if forward else sets[::-1]


def forward_sets(t, word):
    """F_i sweep: F_0 = preimages(w_0), F_{i+1} = succ(F_i) & preimages."""
    word = _check_image_word(t, word)
    return _ref_sweep(t, t.preimages(word[0]), word, True)


def backward_sets(t, word):
    """B_i sweep from the right end, mirror image of forward_sets."""
    word = _check_image_word(t, word)
    return _ref_sweep(t, t.preimages(word[-1]), word, False)


def preimage_profiles(t, word):
    """The symbols shown at every coordinate of ``word`` by its preimages,
    as (word, index, symbols) records: F_i & B_i, empty everywhere iff
    the word is not in the image language."""
    word = _check_image_word(t, word)
    return [SimpleNamespace(word=word, index=i, symbols=f & b)
            for i, (f, b) in enumerate(zip(forward_sets(t, word),
                                           backward_sets(t, word)))]


def preimage_profile(t, word, index):
    profiles = preimage_profiles(t, word)
    if not 0 <= index < len(profiles):
        raise ValueError("index out of range")
    return profiles[index]


def preimage_blocks(t, word):
    """All X-paths labeled by ``word``, lexicographic in symbol order,
    each prefix kept only while the backward sweep says it extends."""
    bwd = backward_sets(t, word)
    paths = [(s,) for s in t.preimages(word[0]) if s in bwd[0]]
    for i in range(1, len(word)):
        paths = [path + (u,) for path in paths
                 for u in labelled_successors(t, path[-1], word[i])
                 if u in bwd[i]]
    return paths


def exact_forward_sweep(t, start, word):
    """Symbols reachable from ``start`` along paths labeled by the
    prefixes of ``word`` (start must carry word[0]), one set per
    coordinate."""
    return _ref_sweep(t, {start} if t.label[start] == word[0] else (),
                      word, True)


def exact_backward_sweep(t, end, word):
    """Mirror image of exact_forward_sweep, from ``end`` at the last
    coordinate."""
    return _ref_sweep(t, {end} if t.label[end] == word[-1] else (), word,
                      False)


def ref_min_hitting_set(route_sets, pool, below):
    """Smallest subset of ``pool`` meeting every route set, among those of
    fewer than ``below`` symbols (None if there is none); the first
    combination in lexicographic pool order wins ties."""
    for size in range(1, below):
        for combo in itertools.combinations(pool, size):
            chosen = set(combo)
            if all(chosen & rs for rs in route_sets):
                return combo
    return None


def ref_minimal_depth_at(t, word):
    """``minimal_depth_at`` with exhaustive hitting sets over the route
    pool of each index, sorted in domain symbol order; the route sets come
    from the public frozenset sweeps."""
    word = tuple(word)
    fsweeps = {s: exact_forward_sweep(t, s, word)
               for s in t.preimages(word[0])}
    bsweeps = {e: exact_backward_sweep(t, e, word)
               for e in t.preimages(word[-1])}
    pairs = [(s, e) for s in fsweeps for e in bsweeps
             if e in fsweeps[s][-1]]
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    best = None
    for n in range(1, len(word) - 1):
        route_sets = [fsweeps[s][n] & bsweeps[e][n] for s, e in pairs]
        pool = sorted(set().union(*route_sets), key=xorder.get)
        below = len(pool) + 1 if best is None else len(best[1])
        found = ref_min_hitting_set(route_sets, pool, below)
        if found:
            best = (n, found)
    return best[0], frozenset(best[1])


def ref_route_table(t, word):
    """Route sets of an image word, keyed by realizable endpoint pairs,
    from one whole-word frozenset sweep per start and per end symbol.

    Returns (pairs, fsweeps, bsweeps) where ``pairs`` lists the (start,
    end) symbol pairs realized by some preimage path and the sweeps give
    R(start, end, n) = fsweeps[start][n] & bsweeps[end][n].
    """
    word = tuple(word)
    fsweeps = {}
    for s in t.preimages(word[0]):
        sweep = exact_forward_sweep(t, s, word)
        if sweep[-1]:
            fsweeps[s] = sweep
    bsweeps = {}
    for e in t.preimages(word[-1]):
        sweep = exact_backward_sweep(t, e, word)
        if sweep[0]:
            bsweeps[e] = sweep
    pairs = [(s, e) for s in fsweeps for e in bsweeps
             if e in fsweeps[s][-1]]
    return pairs, fsweeps, bsweeps


def ref_depth_search(t, horizon, measure=None):
    """``find_minimal_transition_block`` (or, with a measure,
    ``class_count_for_measure``) with the unbounded ``minimal_depth_at``
    of every word: each word's least block is compared with the best by
    its whole key (depth, length, word, index, symbols). The presentation
    is built up front, and every best block, a depth-1 one included, is
    closed into a periodic point, which is the certificate; over a
    depth-1 block's point the class count must be 1."""
    if measure is None:
        witness = d_star(t)
        seed_word, _ = _pad_to_interior(t, witness.word, witness.index,
                                        _Routes(t))
        image = sofic_image(t)
        closure = (image.successors, image.labels, image.components)
    else:
        seed_word = None
        full = sofic_image(t).triple
        keep = set(measure.support_states())
        pres = sub_triple(full, keep, (e for e in measure.kernel
                                       if e[0] in keep and e[1] in keep))
        succ = pres.x.successor_map
        closure = (succ, pres.label, graphs.nontrivial_components(succ))
    yorder = {c: i for i, c in enumerate(t.y_alphabet)}
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    best = None
    failed = set()
    top_length = 0

    def consider(word):
        nonlocal best
        n, m = minimal_depth_at(t, word)
        key = (len(m), len(word), tuple(yorder[c] for c in word), n,
               tuple(sorted(xorder[s] for s in m)))
        if best is None or key < best[0]:
            best = (key, word, n, m)
            return True
        return False

    def certify():
        y = _close_word(*closure, best[1])
        count = None if y is None else \
            len(class_cover(build_fiber_graph(t, y)).cyclic)
        if len(best[3]) == 1:
            # the search takes a depth-1 block as its own proof; its word
            # still closes into a point with one class
            assert count == 1
        return y if count == len(best[3]) else None

    if seed_word is not None:
        consider(seed_word)
        top_length = len(seed_word)
    for length in range(3, horizon + 1):
        top_length = max(top_length, length)
        for word in image_blocks(t if measure is None else pres, length):
            if consider(word) and len(best[3]) == 1:
                return _result(best, top_length, True, certify())
        if best[0] not in failed:
            certificate = certify()
            if certificate is not None:
                return _result(best, top_length, True, certificate)
            failed.add(best[0])
    return _result(best, top_length, False, None)


def ref_class_degree(t):
    """The class degree of ``t``, exactly: the least depth of a transition
    block over every image word and interior index, by pairing mask
    families as ``d_star`` pairs subset states (None when nothing pairs).

    The forward family of an image word u is the set of nonzero masks the
    labelled steps along u reach from the preimages of its first symbol;
    the backward family of v is the same from its last symbol. When u
    ends with the symbol v starts with, the route masks of the joined
    word u + v[1:] at the joint are the nonzero meets of a mask of the
    one family and a mask of the other, so its least depth there is a
    minimum hitting set of them. Both sides grow breadth first,
    interleaved, and each new family of a label is paired with every
    opposite family of that label known so far. Families count from one
    step on, so the joint is interior: the one-symbol start families are
    stepped but neither paired nor seen, since a longer word whose family
    equals one must still pair. Families are finite, so the pairing ends;
    it stops at depth 1, below which nothing lies."""
    bit = _bits(t)[0]
    tables = [_label_masks(t, True), _label_masks(t, False)]
    starts = [frozenset(bit[s] for s in t.preimages(c)) for c in t.y_alphabet]
    frontiers = [starts, starts]
    # the families of each side by label, from one step on
    known = [{c: set() for c in t.y_alphabet} for _ in tables]
    best = len(t.x.symbols) + 1
    while best > 1 and any(frontiers):
        for side, table in enumerate(tables):
            grown = []
            for family in frontiers[side]:
                for c in t.y_alphabet:
                    new = frozenset(m for f in family
                                    if (m := step(table, f, c)))
                    if not new or new in known[side][c]:
                        continue
                    grown.append(new)
                    for other in known[1 - side][c]:
                        meets = [m for f in new for b in other
                                 if (m := f & b)]
                        found = meets and _min_hitting_set(meets, best)
                        if found:
                            best = found.bit_count()
                    known[side][c].add(new)
            frontiers[side] = grown
    return None if best > len(t.x.symbols) else best


def ref_close_word(pres, word):
    """``classdegree._close_word`` as a frozenset sweep through the part
    (``sub_triple``) of the presentation on each cyclic component in
    turn, from the first start state that carries the word there."""
    adj = pres.x.successor_map
    for comp in graphs.nontrivial_components(adj):
        members = set(comp)
        piece = sub_triple(pres, members, ((a, b) for a in comp
                                           for b in adj[a] if b in members))
        for start in piece.preimage_map.get(word[0], ()):
            path = [frozenset([start])]
            for c in word[1:]:
                path.append(_ref_step(piece, path[-1], c, True))
            if path[-1]:
                break
        else:
            continue
        # right-resolving: every set holds exactly one state
        path = [next(iter(states)) for states in path]
        back = graphs.shortest_walk(adj, path[-1], path[0], members)
        return PeriodicPoint(tuple(pres.label[s] for s in path + back[:-1]))
    return None


def ref_window_radii(t, y, interval):
    """Every preimage block of the window with its radius.

    The blocks are the symbol sequences of paths across the window in the
    label-compatible phase graph; a block fixes its path. Its radius r is
    the lesser of the longest backward walk into the path's start and the
    longest forward walk out of its end, infinite where that walk is
    unbounded. The block survives the l-extended local condition iff
    r >= l, and it is a true block iff r is infinite. One iterative depth
    first walk; blocks come in symbol order."""
    m, n = interval
    if m > n:
        raise ValueError("empty interval")
    g = build_fiber_graph(t, y)
    adjacency = decode(t, g.adjacency)
    fwd = brute_walk_depths(adjacency)
    back = brute_walk_depths(graphs.invert(adjacency))
    width = n - m + 1
    radii = {}
    for v in (v for v in adjacency if v[1] == m % g.period):
        start = back[v]
        path, todo = [v], [iter(adjacency[v])]
        while path:
            if len(path) < width:
                u = next(todo[-1], None)
                if u is not None:
                    path.append(u)
                    todo.append(iter(adjacency[u]))
                    continue
            else:
                radii[tuple(u[0] for u in path)] = min(start, fwd[path[-1]])
            path.pop()
            todo.pop()
    xorder = {s: i for i, s in enumerate(t.x.symbols)}
    return {w: radii[w] for w in
            sorted(radii, key=lambda w: tuple(xorder[s] for s in w))}


def random_code(rng, n, reducible):
    """A random triple on n domain symbols s0, s1, ... with up to four
    image symbols.

    Irreducible codes get a cycle through every symbol. Reducible ones
    split the symbols into up to four runs; edges only run forward from
    run to run, each run but the first gets a cycle through it only with
    probability 1/2, so the domain has several strongly connected pieces,
    transient symbols and, often, symbols on no bi-infinite walk.
    """
    syms = tuple("s%d" % i for i in range(n))
    edges = set()
    if reducible:
        runs = rng.randint(2, 4)
        run = [i * runs // n for i in range(n)]
        for r in range(runs):
            members = [syms[i] for i in range(n) if run[i] == r]
            if members and (r == 0 or rng.random() < 0.5):
                edges.update(zip(members, members[1:] + members[:1]))
        for _ in range(2 * n):
            i, j = sorted((rng.randrange(n), rng.randrange(n)))
            edges.add((syms[i], syms[j]))
    else:
        edges.update(zip(syms, syms[1:] + syms[:1]))
        for _ in range(2 * n):
            edges.add((rng.choice(syms), rng.choice(syms)))
    # image alphabets out of string order, so that no output order can
    # come from sorting names
    y_syms = tuple(rng.sample("wxyz", rng.randint(1, min(n, 4))))
    label = {s: rng.choice(y_syms) for s in syms}
    for s, c in zip(rng.sample(syms, len(y_syms)), y_syms):
        label[s] = c
    return FactorTriple(make_sft(syms, edges), label, y_syms)


def ref_positive_word_measures(pres, measure, n):
    """Measures of all measure-positive image words of length n, by a
    depth-first walk over the image alphabet of the presentation ``pres``
    that carries the state weights one symbol at a time: the start is the
    positive stationary weights of the states carrying the first symbol,
    each step sums weight times kernel probability onto the successors
    carrying the next symbol (in symbol order), and a word is kept when
    some weight is left at its end."""
    out = {}

    def push(vec, c):
        nxt = {}
        for s in pres.x.symbols:
            v = vec.get(s)
            if not v:
                continue
            for u in labelled_successors(pres, s, c):
                p = measure.kernel.get((s, u))
                if p:
                    nxt[u] = nxt.get(u, 0.0) + v * p
        return nxt

    def extend(word, vec):
        if len(word) == n:
            out[tuple(word)] = float(sum(vec[s] for s in pres.x.symbols
                                         if s in vec))
            return
        for c in pres.y_alphabet:
            nxt = push(vec, c)
            if nxt:
                word.append(c)
                extend(word, nxt)
                word.pop()

    for c in pres.y_alphabet:
        vec = {s: measure.stationary[s] for s in pres.preimage_map.get(c, ())
               if measure.stationary[s] > 0}
        if vec:
            extend([c], vec)
    return out


def ref_perron(a):
    """The Perron root of the irreducible nonnegative matrix ``a`` and its
    right and left Perron vectors, from dense ``eig`` of ``a`` and of its
    transpose: the eigenvalue of largest real part, and the absolute
    values of its eigenvectors."""
    pair = []
    for matrix in (a, a.T):
        values, vectors = np.linalg.eig(matrix)
        top = np.argmax(values.real)
        pair.append((values[top].real, np.abs(vectors[:, top].real)))
    (rho, right), (_, left) = pair
    return rho, right, left


def ref_orbit_radii(t, word):
    """The spectral radius of each cyclic component of the pruned phase
    graph of the periodic image point of ``word``, from ``ref_perron`` of
    the component's 0/1 matrix."""
    word = canonical_orbit_word(word)
    cover = _unrolled(t, word, len(word))
    radii = []
    for comp in cover.cyclic:
        index = {v: i for i, v in enumerate(comp)}
        a = np.zeros((len(comp), len(comp)))
        for v in comp:
            for u in cover.adjacency[v]:
                if u in index:
                    a[index[v], index[u]] = 1.0
        radii.append(ref_perron(a)[0])
    return radii


def ref_orbit_entropy(t, word):
    """log rho*, the relative maximal entropy over the periodic image point
    of ``word`` (Petersen-Quas-Shin, ETDS 2003): rho* is the largest of
    ``ref_orbit_radii``."""
    return log(max(ref_orbit_radii(t, word)))


def ref_affine_directions(cell, src, dst, n, m):
    """An orthonormal basis, one row each, of the directions v over the m
    image words along which the entropy bound's dual is affine on a class
    component (edge i from class src[i] to dst[i], carrying image word
    cell[i]): those with v[cell] = phi[dst] - phi[src] + c on every edge
    for some phi and c. They are the kernel of that linear system over
    (v, phi, c), restricted to v, read off the SVD of the R factor of the
    system's QR decomposition, which has the system's singular values and
    right singular vectors; a second SVD gives a basis of their span."""
    rows = np.arange(len(cell))
    system = np.zeros((len(cell), m + n + 1))
    system[rows, cell] = 1.0
    np.add.at(system, (rows, m + src), 1.0)
    np.add.at(system, (rows, m + dst), -1.0)
    system[:, -1] = -1.0
    sing, basis = np.linalg.svd(np.linalg.qr(system, mode="r"))[1:]
    kernel = basis[np.count_nonzero(sing > 1e-9 * sing[0]):, :m]
    sing, basis = np.linalg.svd(kernel)[1:]
    return basis[:np.count_nonzero(sing > 1e-9)]


def ref_relative_entropy_upper_bound(t, measure, k,
                                     max_iterations=100000):
    """The relative entropy relaxation solved in the primal, by
    exponentiated-gradient ascent with cyclic KL projections: one
    Python-level sum per constraint, marginal by marginal in k-block
    order (Gauss-Seidel), then cell by cell. Where its residuals are
    small, the library's dual solve must reach the same value."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pres = _presentation(t, measure)

    nu = ref_positive_word_measures(pres, measure, k + 1)
    xorder = {s: i for i, s in enumerate(t.x.symbols)}

    def block_key(block):
        return tuple(xorder[s] for s in block)

    support = _prune_support({U: (U[:-1], U[1:])
                              for U in enumerate_blocks(t.x, k + 1)
                              if t.label_word(U) in nu})
    blocks = sorted(support, key=block_key)
    if not blocks:
        raise AssertionError("image measure admits no preimage blocks")
    position = {U: i for i, U in enumerate(blocks)}

    cell_groups = {}
    for U in blocks:
        cell_groups.setdefault(t.label_word(U), []).append(position[U])
    for word in nu:
        if word not in cell_groups:
            raise AssertionError("image block lost all preimage blocks "
                                 "in pruning")
    cells = [(np.array(cell_groups[word], dtype=int), nu[word])
             for word in sorted(cell_groups, key=lambda w: tuple(w))]

    prefix_groups = {}
    suffix_groups = {}
    for U in blocks:
        prefix_groups.setdefault(U[:k], []).append(position[U])
        suffix_groups.setdefault(U[1:], []).append(position[U])
    kblocks = sorted(set(prefix_groups) | set(suffix_groups), key=block_key)
    marginals = []
    for W in kblocks:
        pre = set(prefix_groups.get(W, ()))
        suf = set(suffix_groups.get(W, ()))
        left = np.array(sorted(pre - suf), dtype=int)
        right = np.array(sorted(suf - pre), dtype=int)
        marginals.append((left, right))
    prefix_of = np.zeros(len(blocks), dtype=int)
    kindex = {W: i for i, W in enumerate(kblocks)}
    for U in blocks:
        prefix_of[position[U]] = kindex[U[:k]]

    floor = 1e-300

    def project(q, cycles=5000, tol=1e-12):
        for _ in range(cycles):
            for left, right in marginals:
                a = q[left].sum() if len(left) else 0.0
                b = q[right].sum() if len(right) else 0.0
                if a > 0 and b > 0:
                    factor = sqrt(b / a)
                    q[left] *= factor
                    q[right] /= factor
            for idx, target in cells:
                total = q[idx].sum()
                if total <= 0:
                    raise AssertionError("projection emptied an image cell")
                q[idx] *= target / total
            np.clip(q, floor, None, out=q)
            if _residuals(q)["max"] < tol:
                break
        return q

    def _residuals(q):
        image_r = 0.0
        for idx, target in cells:
            image_r = max(image_r, abs(float(q[idx].sum()) - target))
        marginal_r = 0.0
        for left, right in marginals:
            a = q[left].sum() if len(left) else 0.0
            b = q[right].sum() if len(right) else 0.0
            marginal_r = max(marginal_r, abs(float(a - b)))
        return {"image": image_r, "marginal": marginal_r,
                "max": max(image_r, marginal_r)}

    def value_of(q):
        m = np.zeros(len(kblocks))
        np.add.at(m, prefix_of, q)
        ratio = m[prefix_of] / q
        return float(np.sum(q * np.log(ratio)))

    def gradient_of(q):
        m = np.zeros(len(kblocks))
        np.add.at(m, prefix_of, q)
        return np.log(m[prefix_of] / q)

    q = np.full(len(blocks), 1.0 / len(blocks))
    q = project(q)
    value = value_of(q)
    eta = 1.0
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        grad = gradient_of(q)
        grad -= grad.max()
        accepted = False
        new_value = value
        while eta >= 1e-12:
            trial = project(q * np.exp(eta * grad))
            new_value = value_of(trial)
            if new_value >= value - 1e-15:
                accepted = True
                break
            eta /= 2
        if not accepted:
            break
        improvement = new_value - value
        q, value = trial, new_value
        if improvement < 1e-13:
            break
        eta = min(eta * 1.3, 8.0)

    residuals = _residuals(q)
    optimizer = {U: float(q[position[U]]) for U in blocks}
    return SimpleNamespace(
        k=k, value=value, optimizer=optimizer,
        residuals={"image": residuals["image"],
                   "marginal": residuals["marginal"]},
        iterations=iterations)


def ref_block_optimizer(t, bound):
    """The block-level optimizer of ``bound``, lifted from its class
    edges and dual point: the domain (k+1)-blocks U whose class edge
    (label_word(U), U[-2], U[-1]) is a key of ``bound.optimizer``, in
    ``enumerate_blocks`` order, kept by ``_prune_support``, each weighted
    by the Gibbs chain of the weights e^(dual[label_word(U)] - max) on
    piece 0 of their block graph, started from ones, and 0 off it."""
    k, lam = bound.k, bound.dual
    kept = _prune_support({U: (U[:-1], U[1:])
                           for U in enumerate_blocks(t.x, k + 1)
                           if (t.label_word(U), U[-2], U[-1])
                           in bound.optimizer})
    blocks = [U for U, piece in kept.items() if piece == 0]
    kindex = {}
    src = np.array([kindex.setdefault(U[:-1], len(kindex)) for U in blocks])
    dst = np.array([kindex.setdefault(U[1:], len(kindex)) for U in blocks])
    shift = max(lam.values())
    _, masses, _ = _gibbs_chain(
        np.exp([lam[t.label_word(U)] - shift for U in blocks]), src, dst,
        np.ones(len(kindex)))
    weights = dict.fromkeys(kept, 0.0)
    weights.update(zip(blocks, masses.tolist()))
    return weights


def ref_uniform_conditional_diagnostic(t, k, q):
    """Largest total-variation gap between the center conditionals of the
    Markov extension of the (k+1)-block weights ``q`` and the uniform law
    on the admissible centers, by a recursive walk over the
    (2k+1)-windows, one dict entry per window and per context.

    The positive (k+1)-block weights extend to a k-step Markov law on
    (2k+1)-windows. For every (left context, right context, center image
    symbol) the law of the center is compared with the uniform law on the
    symbols a with previous -> a -> next allowed and label(a) the center
    image symbol; contexts of mass at most 1e-15 are skipped. A measure
    of relative maximal entropy has uniform conditionals on the fibre
    (Allahbakhshi-Quas), so this is near 0 on one."""
    xorder = {s: i for i, s in enumerate(t.x.symbols)}

    def word_key(word):
        return tuple(xorder[s] for s in word)

    blocks = sorted((U for U, p in q.items() if p > 0), key=word_key)
    marginal = {}
    for U in blocks:
        marginal[U[:k]] = marginal.get(U[:k], 0.0) + q[U]
    by_prefix = {}
    for U in blocks:
        by_prefix.setdefault(U[:k], []).append(U)

    windows = {}

    def extend(window, weight, steps):
        if steps == k:
            windows[tuple(window)] = windows.get(tuple(window), 0.0) + weight
            return
        tail = tuple(window[-k:])
        for U in by_prefix.get(tail, ()):
            extend(window + [U[-1]], weight * q[U] / marginal[tail],
                   steps + 1)

    for U in blocks:
        extend(list(U), q[U], 0)

    groups = {}
    for window, weight in windows.items():
        center = window[k]
        key = (window[:k], window[k + 1:], t.label[center])
        groups.setdefault(key, {})
        groups[key][center] = groups[key].get(center, 0.0) + weight

    worst = 0.0
    for (left, right, y0), dist in sorted(groups.items()):
        admissible = [a for a in labelled_successors(t, left[-1], y0)
                      if (a, right[0]) in t.x.transitions]
        total = sum(dist.values())
        if total <= 1e-15 or not admissible:
            continue
        share = 1.0 / len(admissible)
        gap = 0.5 * sum(abs(dist.get(a, 0.0) / total - share)
                        for a in admissible)
        worst = max(worst, gap)
    return worst
