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
degree search, the phase graphs and the measure pushes read it. The
subset automata and the finite-to-one test read each row of that table
packed into one int (``_packed_rows``), the mask of the k-th image
symbol at bits k*n to k*n + n - 1 for n domain symbols, so a mask steps
to every image symbol at once by one OR per member. The subset automata
are grown breadth first, and only as far as a reader needs: d* meets
their states pairwise, once each, in order of joined length and stops at
the length of its first one-symbol meet; ``image_blocks`` lists the
words of length n as the walks of n - 1 edges of the forward one, grown
to depth n - 1; the sofic image grows it in full. The finite-to-one test
walks the label product forward from its diagonal, as one mask per first
coordinate, and stops at the first diamond; the sofic image peels its
state graph on in-degrees, without inverting it. So both read forward
tables only. The sofic image keeps its presentation int-indexed; its
state names and named triple are built on first read. Frozensets are
built only by the public functions that return them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

from . import graphs
from .core import (EmptyShiftError, FactorTriple, InputError,
                   PeriodicPoint, PreconditionError, Sft, _walks,
                   canonical_orbit_word, per_triple)


def _check_image_word(t, word):
    word = tuple(word)
    if not word:
        raise InputError("empty image word")
    for c in word:
        if c not in t.preimage_map:
            raise InputError("unknown image symbol %r" % (c,))
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
    """The labelled neighbour table as bitmasks, built in one pass over
    the transitions, without a neighbour map: entry i maps every image
    symbol to the mask of the successors (forward) or predecessors of
    ``t.x.symbols[i]`` carrying it. Kept on the triple.

    A row's keys come in the order the transitions are iterated, which
    is a set's. That order shows in no result: ``step``, the phase
    graphs and the measure pushes look a row up by image symbol,
    ``_packed_rows`` ORs all of it, and the finite-to-one test walks it
    to an answer that does not depend on the order."""
    bit, label = _bits(t)[0], t.label
    table = [{} for _ in t.x.symbols]
    row_of = dict(zip(t.x.symbols, table))
    edges = t.x.transitions if forward else (
        (b, a) for a, b in t.x.transitions)
    for a, b in edges:
        row, c = row_of[a], label[b]
        row[c] = row.get(c, 0) | bit[b]
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


class _SubsetAutomaton:
    """Reachable subset states of the label-determinized automaton, by a
    breadth-first subset construction from the one-symbol preimage sets,
    stepping along successors (forward) or predecessors (backward).

    State i is the bitmask ``masks[i]`` over X-symbol indices (bit j is
    ``t.x.symbols[j]``) of equally labeled symbols, carrying the image
    symbol ``labels[i]``. ``succ[i]`` lists the states one image symbol
    away, in image alphabet order. State i was first reached from state
    ``parent[i]`` (None for the one-symbol preimage sets the search starts
    from), so the labels along the parent chain spell a shortest witness
    word of the state, read from the start state; ``depth[i]`` is its
    length minus one.

    Discovery order follows the image alphabet at every state, so state
    numbers and witness words are deterministic. A state's successors are
    one ``_fold`` of the packed rows (``_packed_rows``), one OR per
    member bit, read off in image alphabet order by shift and mask.

    The construction is grown only as far as its reader asks:
    ``grow(depth)`` processes the states of depth below ``depth``, and
    ``grow()`` all of them; the states before ``head`` are processed, and
    ``succ`` is None from ``head`` on. Breadth-first search discovers the
    states level by level, so once the states below some depth are
    processed, every state up to that depth has the number, label, parent
    and depth, and every processed state the successors, that the complete
    construction gives it.
    """

    def __init__(self, t, forward):
        self.rows = _packed_rows(t, forward)
        self.y_alphabet = t.y_alphabet
        starts = _bits(t)[1]
        self.masks = list(starts.values())
        self.labels = list(starts)
        self.found = {mask: i for i, mask in enumerate(self.masks)}
        self.parent = [None] * len(starts)
        self.depth = [0] * len(starts)
        self.succ = [None] * len(starts)
        self.head = 0

    @property
    def complete(self):
        return self.head == len(self.masks)

    def grow(self, depth=inf):
        """Process the states of depth below ``depth``; return self."""
        rows = self.rows
        n = len(rows)
        full = (1 << n) - 1
        found = self.found
        masks, labels, parent = self.masks, self.labels, self.parent
        depths, succ = self.depth, self.succ
        head = self.head
        while head < len(masks) and depths[head] < depth:
            acc = _fold(rows, masks[head])
            out = succ[head] = []
            below = depths[head] + 1
            for c in self.y_alphabet:
                mask = acc & full
                if mask:
                    i = found.get(mask)
                    if i is None:
                        i = found[mask] = len(masks)
                        masks.append(mask)
                        labels.append(c)
                        parent.append(head)
                        depths.append(below)
                        succ.append(None)
                    out.append(i)
                acc >>= n
                if not acc:
                    break
            head += 1
        self.head = head
        return self

    def witness(self, i):
        """Labels from state i back to its start state."""
        out = []
        while i is not None:
            out.append(self.labels[i])
            i = self.parent[i]
        return out


@per_triple
def _subset_search(t, forward):
    """The subset construction of ``t`` in one direction, grown only as
    far as its readers have asked so far. Kept on the triple, so every
    reader resumes the one construction."""
    return _SubsetAutomaton(t, forward)


def _file_levels(auto, levels, start):
    """File the states of ``auto`` from ``start`` on in ``levels``, a map
    from (label, depth) to states in state order; return the number of
    states filed."""
    for s in range(start, len(auto.masks)):
        levels.setdefault((auto.labels[s], auto.depth[s]), []).append(s)
    return len(auto.masks)


def d_star(t):
    """Exact minimum of d(w, i) over all image words w and indices i.

    A forward subset state F (the symbols that can end a preimage of a
    word) and a backward subset state B (the symbols that can start a
    preimage of another word) over a common image symbol meet in the
    profile of the joined word at the joint; every profile arises this
    way. Both automata keep their states as bitmasks, so each pair costs
    one ``&`` and one ``int.bit_count()``. The witness is the pair of
    least key (value, length, word, label rank, forward state, backward
    state), where the length of the joined word is one more than the sum
    of the two states' depths; the last three fields break exact ties,
    the first pair in (label, forward state, backward state) order
    winning. A witness word is spelled out only for pairs whose (value,
    length) can tie or beat the best so far.

    One pairing loop meets every pair once, in order of length. A pair of
    length l joins two states whose depths sum to l - 1, so both automata
    are grown breadth first (``_subset_search``) to depth l - 1 before the
    pairs of length l are met, each state filed under its (label, depth).
    No value is below 1, so once the best value is 1 no longer pair can
    tie it: the loop stops, and neither automaton has processed a state as
    deep as the witness word is long. The states found are numbered as in
    the complete automata. Where the best value stays above 1, both
    automata are grown in full and every pair is met.
    """
    fwd = _subset_search(t, True)
    bwd = _subset_search(t, False)
    fmasks, fdepths = fwd.masks, fwd.depth
    bmasks, bdepths = bwd.masks, bwd.depth
    flevels, blevels = {}, {}
    filed_f = filed_b = 0
    # the two depth-0 states of any image symbol meet in its preimages, so
    # the pairs of length 1 replace this key
    best = (inf, inf)
    length = 0
    while best[0] > 1:
        length += 1
        fwd.grow(length - 1)
        bwd.grow(length - 1)
        if (fwd.complete and bwd.complete
                and length > fdepths[-1] + bdepths[-1] + 1):
            break
        filed_f = _file_levels(fwd, flevels, filed_f)
        filed_b = _file_levels(bwd, blevels, filed_b)
        for rank, c in enumerate(t.y_alphabet):
            # depths that some found state has: either automaton may be
            # complete above depth length - 1, or grown below it by
            # another reader
            for fdepth in range(max(0, length - 1 - bdepths[-1]),
                                min(length, fdepths[-1] + 1)):
                bstates = blevels.get((c, length - 1 - fdepth), ())
                for i in flevels.get((c, fdepth), ()):
                    for j in bstates:
                        meet = fmasks[i] & bmasks[j]
                        if not meet:
                            continue
                        value = meet.bit_count()
                        if (value, length) > best[:2]:
                            continue
                        fword = fwd.witness(i)
                        fword.reverse()
                        # the backward witness was read right to left;
                        # drop the shared symbol at the joint
                        word = tuple(fword + bwd.witness(j)[1:])
                        best = min(best, (value, length, word, rank, i, j))
    value, _, word, _, i, _ = best
    return MagicWitness(word, fdepths[i], value)


def is_finite_to_one(t):
    """A 1-block code is finite-to-one iff it admits no diamond: two
    distinct equally labeled paths with equal endpoints.

    The label product is walked forward from its diagonal, held as one
    mask per first coordinate: entry a is the mask of every b with (a, b)
    reached along pairs of equally labelled successors. Deltas are pushed:
    the second coordinates new under a are stepped once, by one
    ``_fold``, and handed to a's successors under each label. A diamond's
    two paths part at some pair off the diagonal and meet again where a
    pair reached from it steps onto the diagonal, so the walk returns
    False as soon as a pushed pair (a, b) with b != a has a successor of
    a and one of b under one label in common, and True once it ends. On
    a right-resolving code it never leaves the diagonal."""
    table = _label_masks(t, True)
    rows = _packed_rows(t, True)
    n = len(rows)
    full = (1 << n) - 1
    offset = {c: k * n for k, c in enumerate(t.y_alphabet)}
    got = [1 << a for a in range(n)]
    delta = got[:]
    # a is on the stack exactly while delta[a] is nonzero
    stack = list(range(n))
    while stack:
        a = stack.pop()
        own = 1 << a
        off = _fold(rows, delta[a] & ~own)
        reach = off | rows[a] if delta[a] & own else off
        delta[a] = 0
        for c, heads in table[a].items():
            if heads & (off >> offset[c]):
                return False
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
    return True


@dataclass
class SoficImage:
    """Right-resolving presentation of the image shift, int-indexed.

    Its states are the label-homogeneous subsets of X reachable by the
    subset construction from the full one-symbol preimage sets,
    essentialized, kept in discovery order: state p is the member mask
    ``masks[p]`` (bit j is ``domain[j]``, the domain alphabet) and
    carries the image symbol ``labels[p]``. ``successors`` maps each
    state, in order, to the states one image symbol away, ascending. One
    Tarjan pass on first read gives ``components``, its nontrivial strongly
    connected components in emission order; every state lies on a
    bi-infinite walk, so ``irreducible`` iff one of them holds them all.

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

    @cached_property
    def components(self):
        return tuple(graphs.nontrivial_components(self.successors))

    @property
    def irreducible(self):
        return [len(c) for c in self.components] == [len(self.masks)]

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

    Grows the forward subset construction kept on the triple
    (``_subset_search``) in full, from the one-symbol preimage sets, and
    keeps the states on some bi-infinite walk of its state graph (every
    finite image block is still presented, since each run can be
    stabilized on the left into that part), in breadth-first discovery
    order. Every state of an essential domain has a successor, so only
    the states that no cycle reaches go, by a peel on in-degrees
    (``graphs.walk_depths``) without an inverted graph. A domain that is
    not essential, built in code, can leave a state with no successor;
    then the states that reach no cycle go first, by a peel of the
    inverted graph. The presentation stays int-indexed, and its names
    are built only when read (``SoficImage``). Linear in the size of the
    subset automaton. Raises EmptyShiftError when no state survives.
    Built once per triple and kept on it: every command that needs the
    image shares one.
    """
    auto = _subset_search(t, True).grow()
    succ = auto.succ
    if not all(succ):
        # a dead end, which only a domain that is not essential gives:
        # keep the states that reach a cycle
        depth = graphs.walk_depths(graphs.invert(dict(enumerate(succ))))
        succ = [[j for j in nxt if depth[j] == inf] for nxt in succ]
    # the states a cycle reaches
    depth = graphs.walk_depths(dict(enumerate(succ)))
    kept = [i for i, d in depth.items() if d == inf]
    if not kept:
        raise EmptyShiftError("image shift is empty")
    place = [-1] * len(succ)
    for p, i in enumerate(kept):
        place[i] = p
    # a cycle reaches the successors of a kept state too
    successors = {p: sorted(map(place.__getitem__, succ[i]))
                  for p, i in enumerate(kept)}
    return SoficImage(t.x.symbols, t.y_alphabet,
                      [auto.masks[i] for i in kept],
                      [auto.labels[i] for i in kept], successors)


def image_irreducible(t):
    """Certified irreducibility of the image shift.

    Either the domain is irreducible (a factor of an irreducible shift is
    irreducible) or the canonical presentation is strongly connected.
    """
    return t.x.is_irreducible or sofic_image(t).irreducible


def image_blocks(t, n):
    """All n-blocks of the image shift, lexicographic in the image
    alphabet order: the label words of the walks of n - 1 edges out of the
    start states of the forward subset automaton, which is deterministic
    and lists successors in image alphabet order. PreconditionError,
    before any is listed, past ``WALK_BUDGET`` walks of the automaton."""
    if n < 1:
        raise InputError("block length must be >= 1")
    auto = _subset_search(t, True).grow(n - 1)
    levels = _walks(auto.succ, range(len(t.y_alphabet)), n - 1,
                    "the image words of length %d" % n,
                    "the subset automaton")
    return [tuple(map(auto.labels.__getitem__, walk)) for walk in levels[-1]]


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


def periodic_image_points(t, max_period):
    """Orbit representatives of image points with period <= max_period.

    Reads the cycles of the presentation graph off its walks and
    canonicalizes their label words (primitive root, least rotation).
    Sorted by (period, word). PreconditionError, before any is listed,
    past ``WALK_BUDGET`` walks of the presentation.
    """
    if max_period < 1:
        raise InputError("max_period must be >= 1")
    image = sofic_image(t)
    succ = image.successors
    levels = _walks(succ, succ, max_period - 1,
                    "the periodic points of period up to %d" % max_period,
                    "the presentation")
    label = image.labels
    yorder = {c: i for i, c in enumerate(t.y_alphabet)}
    seen = {canonical_orbit_word(tuple(map(label.__getitem__, walk)))
            for level in levels for walk in level
            if walk[0] in succ[walk[-1]]}
    words = sorted(seen, key=lambda w: (len(w), tuple(yorder[c] for c in w)))
    return [PeriodicPoint(w) for w in words]
