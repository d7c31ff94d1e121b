"""Hand-rolled digraph utilities shared by the analysis modules.

All functions operate on adjacency mappings ``{node: sequence of nodes}``
over hashable nodes. Iteration order of the input dict (and of each
neighbor sequence) determines every output order, so callers that pass
deterministically ordered adjacencies get deterministic results back.
"""

from __future__ import annotations

from math import gcd


def invert(adj):
    """Predecessor adjacency of ``adj`` with the same node ordering."""
    pred = {u: [] for u in adj}
    for u in adj:
        for v in adj[u]:
            pred[v].append(u)
    return pred


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


def strongly_connected_components(adj):
    """Tarjan's algorithm, iterative.

    Returns a list of components, each a list of nodes. Component content
    order and the order of the component list itself are deterministic
    functions of the adjacency iteration order.
    """
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


def walk_depths(adj, order=None):
    """Length of the longest walk starting at each node, or None where
    walks are unbounded because the node reaches a cycle.

    One pass: Tarjan's algorithm emits each component after every
    component it reaches, so each acyclic node is settled from settled
    successors. ``order`` may give the components of ``adj`` in any such
    order, which saves that Tarjan pass; reversed, the emission order of
    a graph is one for its inverse."""
    depth = {}
    if order is None:
        order = strongly_connected_components(adj)
    for comp in order:
        if is_cyclic(adj, comp):
            for u in comp:
                depth[u] = None
            continue
        u = comp[0]
        best = 0
        for v in adj[u]:
            if depth[v] is None:
                best = None
                break
            best = max(best, depth[v] + 1)
        depth[u] = best
    return depth


def depth_pass(adj):
    """Everything one Tarjan pass gives: the components of ``adj`` in
    emission order (each after every component it reaches), and the
    forward and backward walk depths (``walk_depths`` of ``adj`` along
    that order and of its inverse along the reverse)."""
    order = strongly_connected_components(adj)
    return (order, walk_depths(adj, order),
            walk_depths(invert(adj), order[::-1]))


def bi_essential_nodes(adj):
    """Nodes lying on some bi-infinite walk: both their walk depths are
    unbounded, since they reach a cycle and a cycle reaches them."""
    _, fwd, back = depth_pass(adj)
    return {u for u in adj if fwd[u] is None and back[u] is None}
