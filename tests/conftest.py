"""Shared brute-force oracles and random generators for the test suite.

Every oracle here recomputes its answer by exhaustive enumeration with
itertools, independently of the library's sweeps, automata, and graph
algorithms, so agreement between the two is meaningful evidence. Oracles
are only usable at desk scale (alphabets of a handful of symbols, words of
length at most eight or so); the tests keep within that envelope.
"""

import itertools
import string
from math import inf, lcm, sqrt
from types import SimpleNamespace

import numpy as np

from factorcode import (
    PeriodicPoint,
    build_fiber_graph,
    canonical_orbit_word,
    exact_backward_sweep,
    exact_forward_sweep,
    fixtures,
    make_sft,
    orbit_measure,
    parry_measure,
    parse_measure,
    primitive_root,
    sofic_image,
)
from factorcode import graphs
from factorcode.core import FactorTriple, enumerate_blocks, sub_triple
from factorcode.measures import (_positive_word_measures, _prune_support,
                                 _require_presentation_measure)


FIXTURE_NAMES = ("fix_a", "fix_b", "fix_c", "fix_d", "fix_e", "fix_g")

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


def brute_route(t, word, u, index, a, blocks=None):
    """Can preimage u of word be rerouted through a at index, keeping its
    endpoints? Checked against the full preimage list."""
    if blocks is None:
        blocks = brute_preimage_blocks(t, word)
    return any(v[0] == u[0] and v[-1] == u[-1] and v[index] == a
               for v in blocks)


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
                    t.successors_by_label[s].get(word[(k + 1) % n], ())]
           for s, k in vertices}
    pruned = graphs.bi_essential_nodes(adj)
    pruned_adj = {v: [w for w in adj[v] if w in pruned]
                  for v in vertices if v in pruned}
    return pruned_adj, graphs.strongly_connected_components(pruned_adj)


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
    reaches a cycle and gets None."""
    out = {}
    for v in adj:
        frontier, length = {v}, 0
        while length < len(adj):
            frontier = {u for w in frontier for u in adj[w]}
            if not frontier:
                break
            length += 1
        out[v] = None if length == len(adj) else length
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


def ref_close_word(pres, word):
    """``classdegree._close_word`` as a frozenset sweep through the part
    (``sub_triple``) of the presentation on each cyclic component in
    turn, from the first start state that carries the word there."""
    adj = pres.x.adjacency()
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
    adjacency = g.adjacency
    fwd = graphs.walk_depths(adjacency)
    back = graphs.walk_depths(graphs.invert(adjacency))
    width = n - m + 1
    radii = {}
    for v in (v for v in adjacency if v[1] == m % g.period):
        start = inf if back[v] is None else back[v]
        path, todo = [v], [iter(adjacency[v])]
        while path:
            if len(path) < width:
                u = next(todo[-1], None)
                if u is not None:
                    path.append(u)
                    todo.append(iter(adjacency[u]))
                    continue
            else:
                end = fwd[path[-1]]
                radii[tuple(u[0] for u in path)] = (
                    start if end is None else min(start, end))
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


def ref_relative_entropy_upper_bound(t, measure, k,
                                     max_iterations=100000):
    """The relative entropy relaxation with the sequential solver: one
    Python-level sum per constraint, marginal by marginal in k-block
    order (Gauss-Seidel), then cell by cell. The library's level-scheduled
    sweep must reproduce its iterates up to summation order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pres = sofic_image(t).triple
    _require_presentation_measure(measure, pres)

    nu = _positive_word_measures(pres, measure, k + 1)
    xorder = {s: i for i, s in enumerate(t.x.symbols)}

    def block_key(block):
        return tuple(xorder[s] for s in block)

    support = _prune_support(
        U for U in enumerate_blocks(t.x, k + 1) if t.label_word(U) in nu)
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


def _add_in_order(values):
    """Left-to-right float sum. ``sum`` adds floats this way up to Python
    3.11 and compensates from 3.12 on; the diagnostic fixes the order."""
    total = 0.0
    for v in values:
        total += v
    return total


def ref_uniform_conditional_diagnostic(t, bound):
    """The uniform-conditional diagnostic by a recursive walk over the
    (2k+1)-windows, one dict entry per window and per context: the walk
    the library used before its array build, with its two sums taken
    left to right by ``_add_in_order`` where it called ``sum``. The two
    agree bit for bit up to Python 3.11. The library's array build must
    give the same float as this walk, bit for bit."""
    k = bound.k
    q = bound.optimizer
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
        admissible = [a for a in t.successors_by_label[left[-1]].get(y0, ())
                      if (a, right[0]) in t.x.transitions]
        total = _add_in_order(
            dist[a] for a in sorted(dist, key=lambda s: xorder[s]))
        if total <= 1e-15 or not admissible:
            continue
        share = 1.0 / len(admissible)
        gap = 0.5 * _add_in_order(abs(dist.get(a, 0.0) / total - share)
                                  for a in admissible)
        worst = max(worst, gap)
    return worst
