"""Transition blocks: their check, the class degree search, extraction.

A transition block for an image word w is an interior index n together
with a set m of preimage symbols such that every preimage path of w can be
rerouted, keeping its endpoints and labels, through some symbol of m at
coordinate n. The depth of the block is |m|. The class degree of the code
is the minimal depth over all image words. The number of fiber transition
classes over a point is an upper bound on it, equal to it over doubly
transitive points, which a periodic point is not. A block of depth 1 is
its own proof that the class degree is 1, since no depth is below 1;
above 1, the certification step compares the two upper bounds at one
periodic image point, so the image presentation, in which it closes the
word, is built only to certify a value above 1. Extraction builds a
block as deep as the class count out of the class data ``fiber`` reads
off one point's phase graph.

Route sets are computed on mask families: the reroutes of a preimage U at
index n depend only on (U_0, U_end), namely the exact-length forward set
from U_0 intersected with the exact-length backward set from U_end. Sets
of domain symbols are int masks, bit i standing for the i-th domain
symbol, and frozensets are built only for the symbol sets this module
returns. The forward sets of all starts at n form the forward family of
the prefix, a set of masks, and the backward sets of all ends the
backward family of the suffix; the route sets at n are the nonzero meets
of the two, so the least depth at n depends only on the family pair. One
builder, ``_Routes``, interns the families of one search, steps each
family to each image symbol once, folds a word's column out of those
steps, and solves each family pair once; a word checked on its own takes
a fresh one. One check, ``_routing_failure``, decides whether (w, n, m)
is a transition block, for the predicate ``is_transition_block`` and the
constructor ``transition_block`` alike.

The measure-restricted search lists the image blocks of the measure's
support presentation (``measures._measure_support``), which are the
measure-positive image words.

The least depth at one index is a minimum hitting set of its route sets.
Size 1 is the intersection of the route sets; beyond it the search is an
exact branch and bound: sizes are deepened from 2, and at each size a
depth-first search picks bits in increasing order, cutting a branch when
an uncovered route set has no bit left to pick or when a greedy packing of
disjoint uncovered route sets needs more picks than remain, and taking
the last pick from the intersection of the sets still uncovered. Ties
therefore go to the first set in lexicographic domain symbol order, as a
size-by-size walk through all combinations would find.

The search over words keys its best block by (depth, length, word in
image alphabet order) and only asks each word for a block that would
replace the best one so far: one of smaller depth, or of the same depth
on a word ordered before the best word (the seed word padded out of d*
comes first and is usually not the first in that order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from math import inf

from . import graphs
from .core import InputError, PeriodicPoint, PreconditionError
from .codes import (_bit_indices, _bits, _check_image_word, _label_masks,
                    _symbols, d_star, image_blocks, image_irreducible,
                    sofic_image, step)
from .fiber import (_class_data, _synchronizing_radius, build_fiber_graph,
                    class_cover)
from .measures import _measure_support


@dataclass(frozen=True)
class TransitionBlock:
    """An image word with an interior routing index and routing symbols."""

    word: tuple
    index: int
    symbols: frozenset

    @property
    def depth(self):
        return len(self.symbols)


class _Routes:
    """Route masks of image words, the one builder of them: one instance
    serves a whole search, and a word checked on its own takes a fresh
    one.

    A family is a frozenset of nonzero masks, interned per instance. The
    forward family of a word u is the set of nonzero masks the labelled
    steps along u reach from the preimages of its first symbol, at its
    last coordinate; the backward family of v the same from the
    preimages of its last symbol, at its first coordinate. The forward
    column of a word lists the families of its prefixes, the backward
    column those of its suffixes, in coordinate order, so the route masks
    at index n are the nonzero meets of the two families at n. A column
    is a fold: it starts from the family of the first (last) symbol's
    preimages, interned once in ``starts``, and reads one entry of
    ``steps`` per coordinate. A family steps to an image symbol once per
    direction, by one labelled step (``codes.step``) of each member, and
    only when some word asks for it, so every memo is keyed by families
    and none grows with the number of words.

    ``minimal_depth_at`` reads one entry of ``pairs`` per family pair,
    which keeps the mask ``solve`` found with the bound ``below`` it was
    solved under, and ``_min_hitting_set`` runs once per route family
    (the set of meets) unless a later bound asks past the one it ran
    under.
    """

    def __init__(self, t):
        self.t = t
        self.families = {}
        self.steps = {True: {}, False: {}}
        self.pairs = {}
        self.solved = {}
        bit = _bits(t)[0]
        self.starts = {c: self._intern(map(bit.__getitem__, t.preimages(c)))
                       for c in t.y_alphabet}

    def _intern(self, masks):
        family = frozenset(masks)
        return self.families.setdefault(family, family)

    def _step(self, family, c, forward):
        """The family one labelled step of ``c`` away from ``family``."""
        table = _label_masks(self.t, forward)
        return self._intern([m for f in family if (m := step(table, f, c))])

    def column(self, word, forward):
        """The families of the prefixes (``forward``) or suffixes of the
        tuple ``word``, in coordinate order: a fold of ``steps`` from the
        start family of its first (last) symbol, stepping a family only
        on a miss."""
        steps = self.steps[forward]
        symbols = word if forward else word[::-1]
        family = self.starts[symbols[0]]
        col = [family]
        for c in symbols[1:]:
            key = (family, c)
            family = steps.get(key)
            if family is None:
                family = steps[key] = self._step(*key, forward)
            col.append(family)
        return col if forward else col[::-1]

    def solve(self, fwd, bwd, below):
        """The least hitting set, lowest bits first, of the route masks
        of the families ``fwd`` and ``bwd`` at one interior index, as a
        mask of fewer than ``below`` (at least 2) bits, or None; kept in
        ``pairs`` with ``below``, so a found mask is the least one and None
        holds for every lower bound."""
        # one symbol meets every route mask iff it lies in every forward
        # mask that some path leaves and every backward mask one enters
        ufwd = ubwd = 0
        for f in fwd:
            ufwd |= f
        for b in bwd:
            ubwd |= b
        common = -1
        for f in fwd:
            if f & ubwd:
                common &= f
        for b in bwd:
            if b & ufwd:
                common &= b
        if common:
            # size 1, as _min_hitting_set would find it
            found = common & -common
        elif below > 2:
            # no single symbol meets them all, so sizes start at 2
            found = self._hitting_set(frozenset(
                m for f in fwd for b in bwd if (m := f & b)), below)
        else:
            found = None
        self.pairs[(fwd, bwd)] = (found, below)
        return found

    def _hitting_set(self, meets, below):
        """``_min_hitting_set`` of a route family with no common bit, once
        per family unless ``below`` asks past the bound it ran under."""
        found, under = self.solved.get(meets, (None, 2))
        if not found and below > under:
            found = _min_hitting_set(meets, below, under)
            self.solved[meets] = (found, below)
        return found if found and found.bit_count() < below else None


def _interior_or_raise(word, index):
    if not 0 < index < len(word) - 1:
        raise InputError("index must be interior to the word")


def routable_symbols(t, word, index, preimage):
    """Symbols through which one specific preimage path can be rerouted:
    the forward set of its start meets the backward set of its end at the
    index, one labelled step per coordinate."""
    word = tuple(word)
    _interior_or_raise(word, index)
    path = tuple(preimage)
    if len(path) != len(word) or not t.x.admits_word(path) \
            or t.label_word(path) != word:
        raise InputError("block is not a preimage of the word")
    bit = _bits(t)[0]
    fwd = reduce(partial(step, _label_masks(t, True)),
                 word[1:index + 1], bit[path[0]])
    bwd = reduce(partial(step, _label_masks(t, False)),
                 word[-2:index - 1:-1], bit[path[-1]])
    return _symbols(t, fwd & bwd)


def _routing_failure(t, word, index, symbols, routes=None):
    """None when ``symbols`` route the tuple ``word`` at ``index``, else
    the error ``transition_block`` raises (InputError: not an image block;
    PreconditionError: routing fails); a bad index or image symbol raises
    InputError. A start and an end are joined by a preimage path iff their
    forward and backward masks meet at the index, and every such meet
    must hold a symbol of the block: one sweep decides both, on the
    ``_Routes`` memo ``routes`` or a fresh one."""
    _interior_or_raise(word, index)
    _check_image_word(t, word)
    routes = routes or _Routes(t)
    fwd = routes.column(word[:index + 1], True)[-1]
    bwd = routes.column(word[index:], False)[0]
    meets = [m for f in fwd for b in bwd if (m := f & b)]
    if not meets:
        return InputError("word is not an image block")
    if symbols <= set(t.preimages(word[index])):
        mask = sum(map(_bits(t)[0].__getitem__, symbols))
        if all(m & mask for m in meets):
            return None
    return PreconditionError("not a transition block: routing fails")


def is_transition_block(t, word, index, symbols):
    """Machine check of the transition block property."""
    return _routing_failure(t, tuple(word), index,
                            frozenset(symbols)) is None


def transition_block(t, word, index, symbols):
    """Constructor that machine-checks the routing property: InputError
    when the word is not an image block, PreconditionError when it is
    but the symbols do not route it (``_routing_failure``)."""
    word, symbols = tuple(word), frozenset(symbols)
    failure = _routing_failure(t, word, index, symbols)
    if failure is not None:
        raise failure
    return TransitionBlock(word, index, symbols)


def _first_hitting_set(uncovered, pool, left, chosen):
    """First combination of ``left`` more bits of ``pool``, lowest bits
    first, whose union with ``chosen`` meets every mask in ``uncovered``
    (None if there is none)."""
    if not uncovered:
        return chosen
    if left == 1:
        # one more bit meets every mask iff it lies in all of them
        common = pool
        for m in uncovered:
            common &= m
        return chosen | (common & -common) if common else None
    # pairwise disjoint masks each need a pick of their own
    packed = need = 0
    for m in uncovered:
        if not m & pool & packed:
            packed |= m & pool
            need += 1
    if need > left:
        return None
    # picks only climb: past the top bit of a mask, nothing can meet it
    top = min((m & pool).bit_length() for m in uncovered)
    for i in _bit_indices(pool & ((1 << top) - 1)):
        bit = 1 << i
        found = _first_hitting_set([m for m in uncovered if not m & bit],
                                   pool & -(bit << 1), left - 1,
                                   chosen | bit)
        if found is not None:
            return found
    return None


def _min_hitting_set(route_masks, below, least=1):
    """Smallest set of at least ``least`` and fewer than ``below`` bits
    meeting every route mask, as a mask (None if there is none); the
    first combination in ascending bit order wins ties.

    Exact branch and bound: duplicate masks are dropped, then sizes are
    deepened from ``least``, each by a depth-first search over increasing
    bit positions. The search cuts a branch when an uncovered mask has no
    bit left at or above its next position, or when a greedy packing of
    disjoint uncovered masks needs more picks than remain, and takes the
    last pick from the intersection of the masks still uncovered (so size
    1 is the lowest bit of the AND of all masks). Its first hit is
    therefore the one ``itertools.combinations`` over the bits in
    ascending order would reach first at the least size.
    """
    masks = list(set(route_masks))
    pool = 0
    for m in masks:
        pool |= m
    for size in range(least, below):
        found = _first_hitting_set(masks, pool, size, 0)
        if found is not None:
            return found
    return None


def minimal_depth_at(t, word, below=None, routes=None):
    """Minimal transition block depth of one image word.

    Returns (index, symbols) minimizing |symbols| over interior indices;
    ties prefer the smallest index, then the lexicographically least
    symbol set (in domain symbol order). With ``below``, returns None
    when no block of the word has fewer than ``below`` symbols, and the
    same (index, symbols) otherwise. ``routes`` is a ``_Routes`` memo
    shared with other words of the same triple. An unknown image symbol
    raises InputError wherever it stands.
    """
    word = tuple(word)
    if len(word) < 3:
        raise InputError("word must have length >= 3")
    _check_image_word(t, word)
    routes = routes or _Routes(t)
    fcol = routes.column(word, True)
    if not fcol[-1]:
        raise InputError("word is not an image block")
    bcol = routes.column(word, False)
    if below is None:
        below = len(t.x.symbols) + 1
    # bit i stands for t.x.symbols[i], so ascending bits are symbol order;
    # the first index reaching the least depth finds it first, bound or not
    pairs = routes.pairs
    best = None
    for n in range(1, len(word) - 1):
        if below < 2:
            break
        found, under = pairs.get((fcol[n], bcol[n]), (None, 0))
        if not found and below > under:
            found = routes.solve(fcol[n], bcol[n], below)
        if found and found.bit_count() < below:
            # only a strictly smaller depth can improve on an earlier index
            best, below = (n, found), found.bit_count()
    return None if best is None else (best[0], _symbols(t, best[1]))


@dataclass
class DepthSearchResult:
    """Outcome of the class degree search.

    ``value`` is the smallest depth found up to the horizon, an upper
    bound on the class degree. A value of 1 is its own proof, since no
    depth is below 1: it is always certified, and its ``certificate`` is
    None. A value above 1 is certified when a periodic image point with
    exactly ``value`` transition classes was exhibited (the
    ``certificate``), which means only that two upper bounds agree at one
    periodic point (fix_e is certified 2, and its class degree is 1).
    """

    value: int
    witness: TransitionBlock
    horizon: int
    certified: bool
    certificate: PeriodicPoint | None


def _close_word(succ, label, cyclic, word):
    """Extend an image word into a periodic image point containing it.

    ``succ`` maps each state of the image presentation, or of its part
    on the support of a measure, to its successors, both in presentation
    order; ``label`` gives the image symbol of a state, and ``cyclic``
    lists the nontrivial strongly connected components in Tarjan
    emission order. A word embeds in a periodic point iff it can be
    presented inside a single strongly connected piece of that graph;
    the subset construction may also present it along transient states,
    from which no closed walk returns. So each cyclic component is tried
    in turn: present the word inside it, then return from the final
    state to the initial one along a shortest state walk. The labels
    along the closed walk give the periodic point, whose window [0, L)
    equals the word. Starts are tried in presentation order, read off
    ``succ`` as the scan reaches them, so a component costs the states
    up to its first start that presents the word."""
    for comp in cyclic:
        members = set(comp)
        for start in succ:
            if start not in members or label[start] != word[0]:
                continue
            path = [start]
            for c in word[1:]:
                # right-resolving: at most one successor carries c, so the
                # path presents the word iff no step is missing
                path += [q for q in succ[path[-1]] if label[q] == c]
            if len(path) == len(word) and members.issuperset(path):
                break
        else:
            continue
        # strong connectivity guarantees a walk back to the start
        back = graphs.shortest_walk(succ, path[-1], path[0], members)
        if back is None:
            raise AssertionError("cyclic component failed to close a word")
        return PeriodicPoint(tuple(label[s] for s in path + back[:-1]))
    return None


def _pad_to_interior(t, word, index, routes):
    """Extend an image word minimally so the marked index is interior;
    each extension is checked on the ``_Routes`` memo ``routes``."""
    word = tuple(word)
    while len(word) < 3 or index == 0 or index == len(word) - 1:
        left = index == 0
        for c in t.y_alphabet:
            longer = (c,) + word if left else word + (c,)
            if routes.column(longer, True)[-1]:
                word, index = longer, index + left
                break
        else:
            raise PreconditionError("image word admits no %s extension"
                                    % ("left" if left else "right"))
    return word, index


def _depth_search(t, horizon, words_of_length, seed_word, closure, routes):
    """Shared search core for the plain and measure-restricted variants;
    the route masks of candidates come from the ``_Routes`` memo
    ``routes``. A depth-1 block is its own proof, since no depth is below
    1, and is only checked again (``_routing_failure``, on the same
    memo). A deeper one is closed into a periodic point by ``_close_word``
    on the presentation that the zero-argument callable ``closure``
    returns, as (successor mapping, label lookup, cyclic components): it
    is called only then, once, so a search that answers 1 builds no
    presentation. A word is weighed at most twice (as the seed, then
    needing a strictly smaller depth), so the key (depth, length, word)
    fixes the block; each replacement lowers it, so only the last failed
    key is kept."""
    best = failed = None
    top_length = 0
    yorder = {c: i for i, c in enumerate(t.y_alphabet)}
    closure = cache(closure)

    def consider(word):
        nonlocal best
        place = (len(word), tuple(map(yorder.__getitem__, word)))
        below = None
        if best is not None:
            # a word ordered before the best one wins ties at its depth;
            # any other word needs a strictly smaller depth
            below = len(best[3]) + (place < best[0][1:])
        found = minimal_depth_at(t, word, below, routes)
        if found is None:
            return False
        # below the bound, the key is less than the best one
        n, m = found
        best = ((len(m),) + place, word, n, m)
        return True

    def certify():
        """(certified, certificate) for the best block."""
        _, word, n, m = best
        if len(m) == 1:
            if _routing_failure(t, word, n, m, routes) is not None:
                raise AssertionError("depth 1 block fails its check")
            return True, None
        y = _close_word(*closure(), word)
        if y is None:
            return False, None
        count = len(class_cover(build_fiber_graph(t, y)).cyclic)
        if count > len(m):
            raise AssertionError(
                "class count exceeds transition block depth")
        return (True, y) if count == len(m) else (False, None)

    if seed_word is not None:
        consider(seed_word)
        top_length = len(seed_word)

    for length in range(3, horizon + 1):
        top_length = max(top_length, length)
        for word in words_of_length(length):
            if consider(word) and len(best[3]) == 1:
                return _result(best, top_length, *certify())
        if best[0] != failed:
            certified, certificate = certify()
            if certified:
                return _result(best, top_length, True, certificate)
            failed = best[0]
    return _result(best, top_length, False, None)


def _result(best, top_length, certified, certificate):
    _, word, n, m = best
    return DepthSearchResult(
        value=len(m),
        witness=TransitionBlock(word, n, m),
        horizon=top_length,
        certified=certified,
        certificate=certificate)


def find_minimal_transition_block(t, horizon=8):
    """Search image words up to the horizon for a minimal-depth transition
    block; certify the result when possible.

    The search enumerates image words by length then lexicographic order,
    seeded with a block padded out of a magic word so the class degree of
    a finite-to-one code is always reached. A block of depth 1 ends the
    search: it is the class degree, since no depth is below 1, so it is
    certified with no periodic point. Otherwise, after every length pass,
    the best candidate is closed into a periodic image point; the result
    is certified when the number of transition classes over that point
    equals the candidate depth. Only that closure reads the image
    presentation (``sofic_image``), so a search that answers 1 builds
    none: its words are walks of the forward subset automaton, grown to
    depth ``horizon - 1`` at most. Every result is an upper bound for the
    class degree; a certified one is exact when it is 1, and above 1
    means only that two upper bounds agree at one periodic point.
    """
    if horizon < 3:
        raise InputError("horizon must be >= 3")
    if not image_irreducible(t):
        raise PreconditionError("image shift is not certified irreducible")
    witness = d_star(t)
    routes = _Routes(t)
    seed_word, _ = _pad_to_interior(t, witness.word, witness.index, routes)

    def closure():
        image = sofic_image(t)
        return image.successors, image.labels, image.components

    return _depth_search(t, horizon, lambda n: image_blocks(t, n), seed_word,
                         closure, routes)


def class_count_for_measure(t, measure, horizon=8):
    """Minimal transition class count over points generic for a Markov
    measure on the image presentation, bounded above by the depth search
    restricted to measure-positive image words; certified as in
    ``find_minimal_transition_block``, over measure-generic points. A
    value of 1 is its own proof; only a value above 1 runs the Tarjan
    pass over the support that closing its word needs."""
    if horizon < 3:
        raise InputError("horizon must be >= 3")
    support = _measure_support(t, measure)
    succ = support.x.successor_map
    return _depth_search(t, horizon, lambda n: image_blocks(support, n), None,
                         lambda: (succ, support.label,
                                  graphs.nontrivial_components(succ)),
                         _Routes(t))


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
    bi-infinite fiber. Only the cover at the class period is read: the
    doubling cover and the rest of the transition class report are not
    built. The result is machine-checked on construction, and a block
    that fails the check raises AssertionError.
    """
    g = build_fiber_graph(t, y)
    cover, comps, _, class_match = _class_data(g)
    big_p = cover.period
    adj = cover.adjacency
    n = len(t.x.symbols)

    # n2: vertices on the longest walk through transient vertices
    transient_sub = {v: [w for w in adj[v] if w not in class_match]
                     for v in adj if v not in class_match}
    n2 = 1 + max(graphs.walk_depths(transient_sub).values(), default=-1)
    if n2 == inf:
        raise AssertionError("transient vertices hold a cycle")

    def step(frontier):
        return {w for v in frontier for w in adj[v]}

    # seeds: non-transient vertices at times 0..n2. Each keeps one
    # frontier, the vertices its walks reach at the current time, and is
    # stepped once per time
    frontiers = []
    for time in range(n2 + 1):
        frontiers = [(j, step(f)) for j, f in frontiers]
        frontiers += [(class_match[v], {v}) for v in adj
                      if v // n == time % big_p and v in class_match]
    if {j for j, _ in frontiers} != set(range(len(comps))):
        raise AssertionError("class without early seed vertices")

    max_n3 = n2 + 1 + 4 * big_p * (len(adj) + 1)
    dp_budget = len(adj) * (2 ** len(comps)) + 2 * big_p + 8
    class_vertices = [frozenset(comp) for comp in comps]

    early = None
    for n3 in range(n2 + 1, max_n3 + 1):
        # stage 2: per class, the first vertex in symbol order that every
        # seed of the class reaches at time n3; all lie at one phase, so
        # that is the least
        frontiers = [(j, step(f)) for j, f in frontiers]
        reached = list(class_vertices)
        for j, f in frontiers:
            reached[j] = reached[j] & f
        if not all(reached):
            continue
        targets = [min(vs) for vs in reached]

        # stage 3: product sweep over (vertex, collected class set), run
        # to n2 once; every attempt advances it from there
        if early is None:
            early = {(v, frozenset([class_match[v]] if v in class_match
                                   else ()))
                     for v in adj if v < n}
            for _ in range(n2):
                early = {(w, collected | {class_match[w]}
                          if w in class_match else collected)
                         for v, collected in early for w in adj[v]}
            if any(not collected for _, collected in early):
                raise AssertionError(
                    "preimage path with no early class visit")
        states, time = early, n2
        b_front = [step({v}) for v in targets]
        for n4 in range(n3 + 1, n3 + dp_budget + 1):
            while time < n4:
                time += 1
                states = {(w, collected) for v, collected in states
                          for w in adj[v]}
            if all(any(v in b_front[j] for j in collected)
                   for v, collected in states):
                break
            b_front = [step(f) for f in b_front]
        else:
            # no merge within the budget: try the next n3
            continue
        break
    else:
        raise RuntimeError("transition block extraction exhausted its caps")

    radius = _synchronizing_radius(g, (0, n4))
    window = tuple(PeriodicPoint(g.word).window(-radius, n4 + radius))
    index = n3 + radius
    symbols = frozenset(t.x.symbols[v % n] for v in targets)
    if len(symbols) != len(comps):
        raise AssertionError("routing targets share a symbol")
    try:
        block = transition_block(t, window, index, symbols)
    except (ValueError, PreconditionError) as exc:
        # the construction guarantees a transition block of an image word
        raise AssertionError("extracted block fails its check: %s"
                             % (exc,)) from exc
    return ExtractionResult(block, len(comps), n2, n3, n4, radius)
