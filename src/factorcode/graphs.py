"""Hand-rolled digraph utilities shared by the analysis modules.

All functions operate on adjacency mappings ``{node: sequence of nodes}``
over hashable nodes, ints for ``walk_depths``. Iteration order of the
input dict (and of each neighbor sequence) determines every output order,
so callers that pass deterministically ordered adjacencies get
deterministic results back.

Every graph the package prunes goes through one peel, ``walk_depths``:
the image presentation's subset automaton, every phase graph and a
domain that is not essential (``bi_essential_nodes``).

Walks are listed in one place, ``walks``, which counts them first, so a
caller with a budget refuses at the cost of the count.
"""

from __future__ import annotations

from math import gcd, inf


def invert(adj):
    """Predecessor adjacency of ``adj`` with the same node ordering."""
    pred = {u: [] for u in adj}
    for u in adj:
        for v in adj[u]:
            pred[v].append(u)
    return pred


def strongly_connected_components(adj):
    """Tarjan's algorithm, iterative.

    Returns a list of components, each a list of nodes. Component content
    order and the order of the component list itself are deterministic
    functions of the adjacency iteration order. A visited node is on the
    stack until its component is done, and the component is the top of
    the stack down to its root, taken off in one slice.
    """
    index = {}
    low = {}
    done = set()
    stack = []
    components = []

    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        # (node, its remaining neighbours, its place on the stack)
        work = [(root, iter(adj[root]), len(stack))]
        stack.append(root)
        while work:
            node, it, place = work[-1]
            for child in it:
                if child not in index:
                    index[child] = low[child] = len(index)
                    work.append((child, iter(adj[child]), len(stack)))
                    stack.append(child)
                    break
                if child not in done and index[child] < low[node]:
                    low[node] = index[child]
            else:
                work.pop()
                least = low[node]
                if least == index[node]:
                    comp = stack[place:]
                    del stack[place:]
                    done.update(comp)
                    comp.reverse()
                    components.append(comp)
                elif least < low[work[-1][0]]:
                    low[work[-1][0]] = least
    return components


def is_cyclic(adj, comp):
    """Whether the strongly connected component ``comp`` contains a cycle:
    it has more than one node, or its one node has a self-loop."""
    return len(comp) > 1 or comp[0] in adj[comp[0]]


def nontrivial_components(adj):
    """SCCs that contain a cycle."""
    return [comp for comp in strongly_connected_components(adj)
            if is_cyclic(adj, comp)]


def shortest_walk(adj, source, target, members):
    """A shortest nonempty walk from ``source`` to ``target`` through
    ``members``: its nodes after the source, ending at the target, or
    None if there is none. Breadth first in adjacency order, so the walk
    is deterministic; with source == target it closes a shortest cycle."""
    parent = {}
    queue = []
    for u in adj[source]:
        if u in members and u not in parent:
            parent[u] = None
            queue.append(u)
    head = 0
    while head < len(queue) and target not in parent:
        v = queue[head]
        head += 1
        for u in adj[v]:
            if u in members and u not in parent:
                parent[u] = v
                queue.append(u)
    if target not in parent:
        return None
    walk = []
    node = target
    while node is not None:
        walk.append(node)
        node = parent[node]
    walk.reverse()
    return walk


def component_cyclicity(adj, component):
    """gcd of the cycle lengths inside one strongly connected component.

    Standard computation: pick a root, assign BFS levels within the
    component, and fold (level[u] + 1 - level[v]) over every internal edge
    u -> v into a gcd. The component must contain at least one cycle.
    """
    members = set(component)
    root = component[0]
    level = {root: 0}
    queue = [root]
    g = 0
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v not in members:
                    continue
                if v in level:
                    g = gcd(g, level[u] + 1 - level[v])
                else:
                    level[v] = level[u] + 1
                    nxt.append(v)
        queue = nxt
    g = abs(g)
    if g == 0:
        raise ValueError("component has no cycle")
    return g


def walks(adj, starts, max_edges, limit):
    """The walks of 0 to ``max_edges`` edges in ``adj`` out of the
    ``starts``, as one list per edge count of their node tuples, in start
    order and then adjacency order; or None when the walks of 1 to
    ``max_edges`` edges number more than ``limit``. They are counted
    first, length by length by how many end at each node, so a refusal
    costs no listing. A closed walk is a listed ``w`` with ``w[0]`` in
    ``adj[w[-1]]``."""
    ends = dict.fromkeys(starts, 1)
    total = 0
    for _ in range(max_edges):
        reached = {}
        for v, n in ends.items():
            for w in adj[v]:
                reached[w] = reached.get(w, 0) + n
        ends = reached
        total += sum(ends.values())
        if total > limit:
            return None
    level = [(v,) for v in starts]
    levels = [level]
    for _ in range(max_edges):
        level = [w + (u,) for w in level for u in adj[w[-1]]]
        levels.append(level)
    return levels


def walk_depths(adj):
    """Length of the longest walk ending at each node, or ``inf`` where
    walks are unbounded because a cycle reaches the node. The longest
    walk starting at each node is ``walk_depths(invert(adj))``.

    A Kahn peel on in-degrees, one level at a time: the sources have
    depth 0, and a node whose last unpeeled predecessor has depth d has
    depth d + 1, the largest over its predecessors. The nodes never
    peeled are exactly those a cycle reaches. The nodes are ints, each a
    key of ``adj``, and the in-degrees are counted in a list."""
    left = [0] * (max(adj, default=-1) + 1)
    for vs in adj.values():
        for v in vs:
            left[v] += 1
    depth = dict.fromkeys(adj, inf)
    level = [u for u in adj if not left[u]]
    d = 0
    while level:
        peeled = []
        for u in level:
            depth[u] = d
            for w in adj[u]:
                left[w] -= 1
                if not left[w]:
                    peeled.append(w)
        level = peeled
        d += 1
    return depth


def bi_essential_nodes(adj):
    """Nodes on some bi-infinite walk: a cycle reaches them and they reach
    one, so the peels of ``adj`` and of its inverse leave them unbounded."""
    back = walk_depths(adj)
    fwd = walk_depths(invert(adj))
    return {u for u in adj if back[u] == fwd[u] == inf}
