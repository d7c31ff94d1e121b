"""Transition blocks and the class degree search.

A transition block for an image word w is an interior index n together
with a set m of preimage symbols such that every preimage path of w can be
rerouted, keeping its endpoints and labels, through some symbol of m at
coordinate n. The depth of the block is |m|. The class degree of the code
is the minimal depth over all image words; it also equals the minimal
number of fiber transition classes over periodic image points, which is
what the certification step checks.

Route sets are computed per endpoint pair: the reroutes of a preimage U at
index n depend only on (U_0, U_end), namely the exact-length forward set
from U_0 intersected with the exact-length backward set from U_end. Both
sweeps run the labelled step ``codes.step`` on int masks, bit i standing
for the i-th domain symbol, so route sets are masks from the start;
frozensets are built only for the symbol sets this module returns.

The least depth at one index is a minimum hitting set of its route sets,
searched exactly by branch and bound: sizes are deepened from 1, and at
each size a depth-first search picks bits in increasing order, cutting a
branch when an uncovered route set has no bit left to pick or when a
greedy packing of disjoint uncovered route sets needs more picks than
remain. Ties therefore go to the first set in lexicographic domain symbol
order, as a size-by-size walk through all combinations would find.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs
from .core import PeriodicPoint, PreconditionError, sub_triple
from .codes import (_bit_indices, _bits, _sweep, _symbols, _word_sweep,
                    d_star, image_blocks, image_irreducible, sofic_image)


@dataclass(frozen=True)
class TransitionBlock:
    """An image word with an interior routing index and routing symbols."""

    word: tuple
    index: int
    symbols: frozenset

    @property
    def depth(self):
        return len(self.symbols)


def _route_table(t, word):
    """Route masks of an image word, keyed by realizable endpoint pairs.

    Returns (pairs, fsweeps, bsweeps) where ``pairs`` lists the (start,
    end) symbol pairs realized by some preimage path and the mask sweeps
    give R(start, end, n) = fsweeps[start][n] & bsweeps[end][n].
    """
    word = tuple(word)
    bit = _bits(t)[0]
    fsweeps = {}
    for s in t.preimages(word[0]):
        sweep = _sweep(t, bit[s], word, True)
        if sweep[-1]:
            fsweeps[s] = sweep
    bsweeps = {}
    for e in t.preimages(word[-1]):
        sweep = _sweep(t, bit[e], word, False)
        if sweep[0]:
            bsweeps[e] = sweep
    pairs = [(s, e) for s in fsweeps for e in bsweeps
             if bit[e] & fsweeps[s][-1]]
    return pairs, fsweeps, bsweeps


def _interior_or_raise(word, index):
    if not 0 < index < len(word) - 1:
        raise ValueError("index must be interior to the word")


def routable_symbols(t, word, index, preimage):
    """Symbols through which one specific preimage path can be rerouted."""
    word = tuple(word)
    _interior_or_raise(word, index)
    path = tuple(preimage.symbols if hasattr(preimage, "symbols")
                 else preimage)
    if len(path) != len(word) or not t.x.admits_word(path) \
            or t.label_word(path) != word:
        raise ValueError("block is not a preimage of the word")
    bit = _bits(t)[0]
    fsweep = _sweep(t, bit[path[0]], word, True)
    bsweep = _sweep(t, bit[path[-1]], word, False)
    return _symbols(t, fsweep[index] & bsweep[index])


def is_transition_block(t, word, index, symbols):
    """Machine check of the transition block property."""
    word = tuple(word)
    _interior_or_raise(word, index)
    symbols = frozenset(symbols)
    if not symbols or not symbols <= set(t.preimages(word[index])):
        return False
    pairs, fsweeps, bsweeps = _route_table(t, word)
    mask = sum(map(_bits(t)[0].__getitem__, symbols))
    return bool(pairs) and all(fsweeps[s][index] & bsweeps[e][index] & mask
                               for s, e in pairs)


def transition_block(t, word, index, symbols):
    """Constructor that machine-checks the routing property."""
    word = tuple(word)
    _interior_or_raise(word, index)
    if not _word_sweep(t, word, True)[-1]:
        raise ValueError("word is not an image block")
    symbols = frozenset(symbols)
    if not is_transition_block(t, word, index, symbols):
        raise PreconditionError("not a transition block: routing fails")
    return TransitionBlock(word, index, symbols)


def _first_hitting_set(uncovered, pool, left, chosen):
    """First combination of ``left`` more bits of ``pool``, lowest bits
    first, whose union with ``chosen`` meets every mask in ``uncovered``
    (None if there is none)."""
    if not uncovered:
        return chosen
    if not left:
        return None
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


def _min_hitting_set(route_masks, below):
    """Smallest set of bits meeting every route mask, among those of fewer
    than ``below`` bits, as a mask (None if there is none); the first
    combination in ascending bit order wins ties.

    Exact branch and bound: duplicate masks and masks containing another
    are dropped (a set meets every mask iff it meets every minimal one),
    then sizes are deepened from 1, each by a depth-first search over
    increasing bit positions. The search cuts a branch when an uncovered
    mask has no bit left at or above its next position, or when a greedy
    packing of disjoint uncovered masks needs more picks than remain. Its
    first hit is therefore the one ``itertools.combinations`` over the
    bits in ascending order would reach first at the least size.
    """
    minimal = []
    for m in sorted(set(route_masks), key=int.bit_count):
        if not any(k & m == k for k in minimal):
            minimal.append(m)
    pool = 0
    for m in minimal:
        pool |= m
    for size in range(1, below):
        found = _first_hitting_set(minimal, pool, size, 0)
        if found is not None:
            return found
    return None


def minimal_depth_at(t, word):
    """Minimal transition block depth of one image word.

    Returns (index, symbols) minimizing |symbols| over interior indices;
    ties prefer the smallest index, then the lexicographically least
    symbol set (in domain symbol order).
    """
    word = tuple(word)
    if len(word) < 3:
        raise ValueError("word must have length >= 3")
    pairs, fsweeps, bsweeps = _route_table(t, word)
    if not pairs:
        raise ValueError("word is not an image block")
    # bit i stands for t.x.symbols[i], so ascending bits are symbol order
    best = None
    below = len(t.x.symbols) + 1
    for n in range(1, len(word) - 1):
        found = _min_hitting_set([fsweeps[s][n] & bsweeps[e][n]
                                  for s, e in pairs], below)
        if found:
            # only a strictly smaller depth can improve on an earlier index
            best, below = (n, found), found.bit_count()
    return best[0], _symbols(t, best[1])


@dataclass
class DepthSearchResult:
    """Outcome of the class degree search.

    ``value`` is the smallest depth found up to the horizon; when
    ``certified`` is true a periodic image point with exactly ``value``
    transition classes was exhibited (the ``certificate``), which pins the
    class degree to ``value`` exactly. An uncertified value is still a
    valid upper bound.
    """

    value: int
    witness: TransitionBlock
    horizon: int
    certified: bool
    certificate: PeriodicPoint | None


def _walk(pres, start, word):
    """The state path that presents ``word`` from ``start`` in the
    right-resolving presentation ``pres``, or None."""
    path = [start]
    for c in word[1:]:
        # right-resolving: at most one successor carries c
        nxt = pres.successors_by_label[path[-1]].get(c)
        if nxt is None:
            return None
        path.append(nxt[0])
    return path


def _close_word(pres, cyclic, word):
    """Extend an image word into a periodic image point containing it.

    ``pres`` is the image presentation, or its part on the support of a
    measure, and ``cyclic`` its nontrivial strongly connected components
    in Tarjan emission order. A word embeds in a periodic point iff it
    can be presented inside a single strongly connected piece of that
    graph; the subset construction may also present it along transient
    states, from which no closed walk returns. So each cyclic component
    is tried in turn: present the word inside it, then return from the
    final state to the initial one along a shortest state walk. The
    labels along the closed walk give the periodic point, whose window
    [0, L) equals the word."""
    succ = pres.x.successor_map
    for comp in cyclic:
        members = set(comp)
        for start in pres.preimage_map.get(word[0], ()):
            path = _walk(pres, start, word)
            if path and members.issuperset(path):
                break
        else:
            continue
        # strong connectivity guarantees a walk back to the start
        back = graphs.shortest_walk(succ, path[-1], path[0], members)
        if back is None:
            raise AssertionError("cyclic component failed to close a word")
        return PeriodicPoint(tuple(pres.label[s] for s in path + back[:-1]))
    return None


def _count_classes_over(t, y):
    """Transition classes over y, counted on its class cover alone."""
    from .fiber import build_fiber_graph, class_cover
    return len(class_cover(build_fiber_graph(t, y)).cyclic)


def _pad_to_interior(t, word, index):
    """Extend an image word minimally so the marked index is interior."""
    word = list(word)
    while len(word) < 3 or index == 0 or index == len(word) - 1:
        left = index == 0
        for c in t.y_alphabet:
            longer = [c] + word if left else word + [c]
            if _word_sweep(t, longer, True)[-1]:
                word, index = longer, index + left
                break
        else:
            raise PreconditionError("image word admits no %s extension"
                                    % ("left" if left else "right"))
    return tuple(word), index


def _depth_search(t, horizon, words_of_length, seed_word, pres, cyclic):
    """Shared search core for the plain and measure-restricted variants;
    candidates are closed into periodic points on the presentation
    ``pres``, whose cyclic components are ``cyclic``."""
    best = None
    failed = set()
    top_length = 0
    yorder = {c: i for i, c in enumerate(t.y_alphabet)}
    xorder = {s: i for i, s in enumerate(t.x.symbols)}

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
        y = _close_word(pres, cyclic, best[1])
        if y is None:
            return None
        count = _count_classes_over(t, y)
        if count > len(best[3]):
            raise AssertionError(
                "class count exceeds transition block depth")
        return y if count == len(best[3]) else None

    if seed_word is not None:
        consider(seed_word)
        top_length = len(seed_word)

    for length in range(3, horizon + 1):
        top_length = max(top_length, length)
        for word in words_of_length(length):
            if consider(word) and len(best[3]) == 1:
                certificate = certify()
                if certificate is None:
                    raise AssertionError(
                        "depth 1 block failed certification")
                return _result(t, best, top_length, certificate)
        if best[0] not in failed:
            certificate = certify()
            if certificate is not None:
                return _result(t, best, top_length, certificate)
            failed.add(best[0])
    return _result(t, best, top_length, None)


def _result(t, best, top_length, certificate):
    _, word, n, m = best
    return DepthSearchResult(
        value=len(m),
        witness=TransitionBlock(word, n, m),
        horizon=top_length,
        certified=certificate is not None,
        certificate=certificate)


def find_minimal_transition_block(t, horizon=8):
    """Search image words up to the horizon for a minimal-depth transition
    block; certify the result against a periodic point when possible.

    The search enumerates image words by length then lexicographic order,
    seeded with a block padded out of a magic word so the class degree of
    a finite-to-one code is always reached and certified. After every
    length pass the best candidate is closed into a periodic image point;
    when the number of transition classes over that point equals the
    candidate depth the result is exact (certified). An uncertified result
    is an upper bound for the class degree.
    """
    if horizon < 3:
        raise ValueError("horizon must be >= 3")
    if not image_irreducible(t):
        raise PreconditionError("image shift is not certified irreducible")
    witness = d_star(t)
    seed_word, _ = _pad_to_interior(t, witness.word, witness.index)
    image = sofic_image(t)
    return _depth_search(t, horizon, lambda n: image_blocks(t, n),
                         seed_word, image.triple, image.cyclic)


def class_count_for_measure(t, measure, horizon=8):
    """Minimal transition class count over points generic for a Markov
    measure on the image presentation: the depth search restricted to
    measure-positive image words, certified over measure-generic periodic
    points whenever a closure succeeds."""
    if horizon < 3:
        raise ValueError("horizon must be >= 3")
    pres = sofic_image(t).triple
    if tuple(measure.base.symbols) != tuple(pres.x.symbols):
        raise PreconditionError("measure is not on the image presentation")
    keep = set(measure.support_states())
    support = sub_triple(pres, keep, (e for e in measure.kernel
                                      if e[0] in keep and e[1] in keep))
    return _depth_search(t, horizon, lambda n: image_blocks(support, n),
                         None, support,
                         graphs.nontrivial_components(support.x.successor_map))
