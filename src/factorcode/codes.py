"""Analysis of 1-block factor codes: profiles, degree, sofic images.

Conventions. For a factor triple t with SFT X and labeling onto Y-symbols,
an image word w of length L has preimage blocks = X-paths carrying those
labels. The preimage profile at index i collects the symbols such paths can
show at coordinate i; its size is the classical d(w, i). The infimum d* of
d(w, i) over all words and indices is attained on so-called magic words,
and for finite-to-one codes over an irreducible image it equals the degree
of the code (the minimal number of preimages of a point).

Sets of domain symbols are int bitmasks inside this package, bit i
standing for ``t.x.symbols[i]``. The labelled step ``step`` maps a mask to
a mask through one table per triple and direction (``_label_masks``), the
package's one labelled-neighbour table: the route sweeps of the class
degree search, ``image_blocks``, the phase graphs and the measure pushes
read it. The subset automata and the finite-to-one test read each row of
that table packed into one int (``_packed_rows``), the mask of the k-th
image symbol at bits k*n to k*n + n - 1 for n domain symbols, so a mask
steps to every image symbol at once by one OR per member. The
finite-to-one test walks the label product as one mask per first
coordinate. The sofic image keeps its presentation int-indexed; its
state names and named triple are built on first read. Frozensets are
built only by the public functions that return them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from . import graphs
from .core import (EmptyShiftError, FactorTriple, PeriodicPoint,
                   PreconditionError, Sft, canonical_orbit_word,
                   per_triple)


def _check_image_word(t, word):
    word = tuple(word)
    if not word:
        raise ValueError("empty image word")
    for c in word:
        if c not in t.preimage_map:
            raise ValueError("unknown image symbol %r" % (c,))
    return word


def _bit_indices(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@per_triple
def _bits(t):
    """``({domain symbol: its bit}, {image symbol: mask of its
    preimages})``, bit i standing for ``t.x.symbols[i]``."""
    bit = {s: 1 << i for i, s in enumerate(t.x.symbols)}
    return bit, {c: sum(map(bit.__getitem__, us))
                 for c, us in t.preimage_map.items()}


@per_triple
def _label_masks(t, forward):
    """The labelled neighbour table as bitmasks, built in one pass: entry
    i maps every image symbol to the mask of the successors (forward) or
    predecessors of ``t.x.symbols[i]`` carrying it. Kept on the triple."""
    bit = _bits(t)[0]
    neighbours = t.x.successor_map if forward else t.x.predecessor_map
    table = []
    for s in t.x.symbols:
        row = {}
        for u in neighbours[s]:
            row[t.label[u]] = row.get(t.label[u], 0) | bit[u]
        table.append(row)
    return table


def _symbols(t, mask):
    """The frozenset of the domain symbols in ``mask``."""
    return frozenset(map(t.x.symbols.__getitem__, _bit_indices(mask)))


def step(table, mask, c):
    """The labelled step on masks of domain symbols (bit i is
    ``t.x.symbols[i]``): the mask of the successors (forward) or
    predecessors of the symbols in ``mask`` that carry the image symbol
    ``c``, read off ``table = _label_masks(t, forward)``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1].get(c, 0)
        mask ^= low
    return out


@dataclass(frozen=True)
class MagicWitness:
    """A word and index where the profile attains the global minimum d*."""

    word: tuple
    index: int
    value: int


@dataclass
class _SubsetAutomaton:
    """Reachable subset states of the label-determinized automaton.

    State i is the bitmask ``masks[i]`` over X-symbol indices (bit j is
    ``t.x.symbols[j]``) of equally labeled symbols, carrying the image
    symbol ``labels[i]``. ``succ[i]`` lists the states one image symbol
    away, in image alphabet order. State i was first reached from state
    ``parent[i]`` (None for the one-symbol preimage sets the search starts
    from), so the labels along the parent chain spell a shortest witness
    word of the state, read from the start state; ``depth[i]`` is its
    length minus one.
    """

    masks: list
    labels: list
    parent: list
    depth: list
    succ: list

    def witness(self, i):
        """Labels from state i back to its start state."""
        out = []
        while i is not None:
            out.append(self.labels[i])
            i = self.parent[i]
        return out


@per_triple
def _packed_rows(t, forward):
    """Each ``_label_masks`` row packed into one int: the mask of the
    successors (forward) or predecessors carrying the k-th image symbol
    at bits k*n to k*n + n - 1, for n domain symbols. Kept on the
    triple."""
    table = _label_masks(t, forward)
    offset = {c: k * len(table) for k, c in enumerate(t.y_alphabet)}
    return [sum(bits << offset[c] for c, bits in row.items())
            for row in table]


def _fold(rows, mask):
    """The OR of the packed rows of the symbols in ``mask``: its labelled
    step to every image symbol at once, laid out as the rows are."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


@per_triple
def _subset_automaton(t, forward):
    """Breadth-first subset construction from the one-symbol preimage
    sets, stepping along successors (forward) or predecessors (backward).

    Discovery order follows the image alphabet at every state, so state
    numbers and witness words are deterministic. A state's successors are
    one ``_fold`` of the packed rows (``_packed_rows``), one OR per
    member bit, read off in image alphabet order by shift and mask.
    Built once per triple and direction, and kept on the triple."""
    rows = _packed_rows(t, forward)
    n = len(rows)
    full = (1 << n) - 1
    found = {}
    masks, labels, parent, depth, succ = [], [], [], [], []
    for c, mask in _bits(t)[1].items():
        found[mask] = len(masks)
        masks.append(mask)
        labels.append(c)
        parent.append(None)
        depth.append(0)
        succ.append(None)
    head = 0
    while head < len(masks):
        acc = _fold(rows, masks[head])
        out = succ[head] = []
        below = depth[head] + 1
        for c in t.y_alphabet:
            mask = acc & full
            if mask:
                i = found.get(mask)
                if i is None:
                    i = found[mask] = len(masks)
                    masks.append(mask)
                    labels.append(c)
                    parent.append(head)
                    depth.append(below)
                    succ.append(None)
                out.append(i)
            acc >>= n
            if not acc:
                break
        head += 1
    return _SubsetAutomaton(masks, labels, parent, depth, succ)


def d_star(t):
    """Exact minimum of d(w, i) over all image words w and indices i.

    A forward subset state F (the symbols that can end a preimage of a
    word) and a backward subset state B (the symbols that can start a
    preimage of another word) over a common image symbol meet in the
    profile of the joined word at the joint; every profile arises this
    way. Both automata keep their states as bitmasks, so each pair costs
    one ``&`` and one ``int.bit_count()``. The witness is chosen to
    minimize (value, total length, word), the first such pair in
    (label, forward state, backward state) order winning exact ties; a
    witness word is spelled out only for pairs whose (value, length) can
    tie or beat the best so far.
    """
    fwd = _subset_automaton(t, True)
    bwd = _subset_automaton(t, False)
    by_label_f = {}
    for i, c in enumerate(fwd.labels):
        by_label_f.setdefault(c, []).append(i)
    by_label_b = {}
    for j, c in enumerate(bwd.labels):
        by_label_b.setdefault(c, []).append((bwd.masks[j], bwd.depth[j], j))
    best = None
    best_value = best_length = None
    for c in t.y_alphabet:
        backward = by_label_b.get(c, [])
        # breadth-first numbering makes depths non-decreasing
        bdepths = [bdepth for _, bdepth, _ in backward]
        for i in by_label_f.get(c, ()):
            fmask = fwd.masks[i]
            fdepth = fwd.depth[i]
            candidates = backward
            if best_value == 1:
                # no value is below 1: only words no longer than the best
                # can still tie it
                candidates = backward[:bisect_right(
                    bdepths, best_length - fdepth - 1)]
            for bmask, bdepth, j in candidates:
                meet = fmask & bmask
                if not meet:
                    continue
                value = meet.bit_count()
                length = fdepth + bdepth + 1
                if best is not None and (value, length) > (best_value,
                                                           best_length):
                    continue
                fword = fwd.witness(i)
                fword.reverse()
                # the backward witness was read right to left; drop the
                # shared symbol at the joint
                word = tuple(fword + bwd.witness(j)[1:])
                key = (value, length, word)
                if best is None or key < best:
                    best = key
                    best_value, best_length = value, length
                    best_witness = MagicWitness(word, fdepth, value)
    if best is None:
        raise EmptyShiftError("image shift is empty")
    return best_witness


def _diagonal_reach(t, forward):
    """The label product reached from its diagonal, as one mask per first
    coordinate: entry a is the mask of every b with (a, b) reachable from
    some (s, s) along pairs of equally labelled successors (forward) or
    predecessors. Deltas are pushed: the second coordinates new under a
    are stepped once, by one ``_fold``, and handed to a's neighbours
    under each label."""
    table = _label_masks(t, forward)
    rows = _packed_rows(t, forward)
    n = len(rows)
    full = (1 << n) - 1
    offset = {c: k * n for k, c in enumerate(t.y_alphabet)}
    got = [1 << a for a in range(n)]
    delta = got[:]
    # a is on the stack exactly while delta[a] is nonzero
    stack = list(range(n))
    while stack:
        a = stack.pop()
        reach = _fold(rows, delta[a])
        delta[a] = 0
        for c, heads in table[a].items():
            news = (reach >> offset[c]) & full
            while news and heads:
                low = heads & -heads
                heads ^= low
                h = low.bit_length() - 1
                new = news & ~got[h]
                if new:
                    got[h] |= new
                    if not delta[h]:
                        stack.append(h)
                    delta[h] |= new
    return got


def is_finite_to_one(t):
    """A 1-block code is finite-to-one iff it admits no diamond: two
    distinct equally labeled paths with equal endpoints. Equivalently, no
    off-diagonal pair of the label product is reachable from the diagonal
    and reaches it back. With the product held as one mask per first
    coordinate a, from the diagonal forward and backward
    (``_diagonal_reach``), that is: no ``fwd[a] & bwd[a]`` has a bit other
    than a's own."""
    fwd = _diagonal_reach(t, True)
    bwd = _diagonal_reach(t, False)
    return not any(f & b & ~(1 << a)
                   for a, (f, b) in enumerate(zip(fwd, bwd)))


@dataclass
class SoficImage:
    """Right-resolving presentation of the image shift, int-indexed.

    Its states are the label-homogeneous subsets of X reachable by the
    subset construction from the full one-symbol preimage sets,
    essentialized, kept in discovery order: state p is the member mask
    ``masks[p]`` (bit j is ``domain[j]``, the domain alphabet) and
    carries the image symbol ``labels[p]``. ``successors`` maps each
    state, in order, to the states one image symbol away, ascending. One
    Tarjan pass over it gives ``irreducible`` and ``components``, the
    nontrivial strongly connected components in emission order.

    The named reading is built on first read and kept: ``names`` joins
    each state's members with '+' in symbol order, and ``triple``
    presents the image under those names (its SFT walks the state graph
    and its labels read off the presented image symbols). Only a measure
    file, whose states are named, needs it. PreconditionError when two
    states get one name, which a '+' in a domain symbol allows.
    """

    domain: tuple
    y_alphabet: tuple
    masks: list
    labels: list
    successors: dict
    irreducible: bool
    components: tuple

    @cached_property
    def names(self):
        return tuple("+".join(map(self.domain.__getitem__,
                                  _bit_indices(mask)))
                     for mask in self.masks)

    @cached_property
    def triple(self):
        names = self.names
        seen = set()
        for name in names:
            if name in seen:
                raise PreconditionError(
                    "two states of the image presentation are both named "
                    "%r" % name)
            seen.add(name)
        sft = Sft(names, frozenset((names[p], names[q])
                                   for p, nxt in self.successors.items()
                                   for q in nxt))
        used = set(self.labels)
        return FactorTriple(sft, dict(zip(names, self.labels)),
                            tuple(c for c in self.y_alphabet if c in used))


@per_triple
def sofic_image(t):
    """Canonical right-resolving presentation of the image shift.

    Runs the forward subset construction from the one-symbol preimage
    sets and keeps the states on some bi-infinite walk of its state graph
    (``graphs.bi_essential_nodes``; every finite image block is still
    presented, since each run can be stabilized on the left into that
    part), in breadth-first discovery order. The presentation stays
    int-indexed, and its names are built only when read (``SoficImage``).
    Linear in the size of the subset automaton. Raises EmptyShiftError
    when no state survives. Built once per triple and kept on it: every
    command that needs the image shares one.
    """
    auto = _subset_automaton(t, True)
    graph = dict(enumerate(auto.succ))
    pred = graphs.invert(graph)
    alive = graphs.bi_essential_nodes(graph, pred)
    if not alive:
        raise EmptyShiftError("image shift is empty")
    place = [-1] * len(graph)
    kept = sorted(alive)
    for p, i in enumerate(kept):
        place[i] = p
    # the predecessor lists are ascending, so visiting the kept targets in
    # order appends every successor list ascending
    successors = {p: [] for p in range(len(kept))}
    for q, j in enumerate(kept):
        for i in pred[j]:
            if place[i] >= 0:
                successors[place[i]].append(q)
    components = graphs.strongly_connected_components(successors)
    return SoficImage(t.x.symbols, t.y_alphabet,
                      [auto.masks[i] for i in kept],
                      [auto.labels[i] for i in kept], successors,
                      len(components) == 1,
                      tuple(c for c in components
                            if graphs.is_cyclic(successors, c)))


def image_irreducible(t):
    """Certified irreducibility of the image shift.

    Either the domain is irreducible (a factor of an irreducible shift is
    irreducible) or the canonical presentation is strongly connected.
    """
    return t.x.is_irreducible or sofic_image(t).irreducible


# Most image words of one length that ``image_blocks`` lists. The class
# degree search walks every length up to its horizon; the searches of the
# benchmark pools list 256 words of one length at most, and a code with
# two image symbols and no forbidden word passes the limit at length 16.
IMAGE_WORD_BUDGET = 50_000


def image_blocks(t, n):
    """All n-blocks of the image shift, lexicographic in the image
    alphabet order; enumerated directly on X via nonempty forward sets.
    PreconditionError once some length up to n has more than
    ``IMAGE_WORD_BUDGET`` words, after listing one word past the budget."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    table = _label_masks(t, True)
    # (word, its last forward set), level by level in lexicographic order
    blocks = [((c,), mask) for c, mask in _bits(t)[1].items()]
    for length in range(2, n + 1):
        # lazily, so that a level past the budget is never built whole
        blocks = list(islice(((word + (c,), nxt) for word, mask in blocks
                              for c in t.y_alphabet
                              if (nxt := step(table, mask, c))),
                             IMAGE_WORD_BUDGET + 1))
        if len(blocks) > IMAGE_WORD_BUDGET:
            raise PreconditionError(
                "the image has more than %d words of length %d, the "
                "limit of one length" % (IMAGE_WORD_BUDGET, length))
    return [word for word, _ in blocks]


def degree_witness(t, strict=False):
    """The magic witness of ``d_star`` for a finite-to-one code over an
    irreducible image, whose value is the degree of the code; raises
    PreconditionError where ``degree`` is undefined.

    With strict=True the domain itself must be irreducible as well.
    """
    if not is_finite_to_one(t):
        raise PreconditionError("degree undefined (infinite-to-one code)")
    if strict and not t.x.is_irreducible:
        raise PreconditionError("domain shift is not irreducible")
    if not image_irreducible(t):
        raise PreconditionError("image shift is not certified irreducible")
    return d_star(t)


def degree(t, strict=False):
    """Degree of a finite-to-one code over an irreducible image: the
    minimal number of preimages of an image point, equal to d*.

    With strict=True the domain itself must be irreducible as well.
    """
    return degree_witness(t, strict).value


# Most walks of the presentation that ``periodic_image_points`` may list;
# their number grows exponentially with the period. The fixtures need
# 592 at most, at period 8, and the fiber inputs of the benchmark pools,
# listed at period 8, 39,953.
PERIODIC_WALK_BUDGET = 200_000


def periodic_image_points(t, max_period):
    """Orbit representatives of image points with period <= max_period.

    Enumerates cycles of the presentation graph and canonicalizes the
    label words (primitive root, least rotation). Sorted by (period, word).
    PreconditionError, before any is listed, when that takes more than
    ``PERIODIC_WALK_BUDGET`` walks of the presentation.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    image = sofic_image(t)
    succ = image.successors
    if graphs.count_walks(succ, succ, max_period - 1,
                          PERIODIC_WALK_BUDGET) > PERIODIC_WALK_BUDGET:
        raise PreconditionError(
            "the periodic points of period up to %d take more than %d "
            "walks of the presentation, the limit"
            % (max_period, PERIODIC_WALK_BUDGET))
    label = image.labels
    yorder = {c: i for i, c in enumerate(t.y_alphabet)}
    seen = {canonical_orbit_word(tuple(map(label.__getitem__, walk)))
            for walk in graphs.closed_walks(succ, succ, max_period)}
    words = [w for w in seen if len(w) <= max_period]
    words.sort(key=lambda w: (len(w), tuple(yorder[c] for c in w)))
    return [PeriodicPoint(w) for w in words]
