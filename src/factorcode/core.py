"""Core objects: shifts of finite type, periodic points, factor triples.

A shift of finite type (SFT) is presented by its 1-step transition relation
on a finite alphabet of vertex symbols. A factor triple bundles an SFT with
a 1-block labeling onto an image alphabet; the labeling induces a sliding
block code onto a sofic image shift.

Symbol order is structural throughout: the order of first appearance in the
defining file (or constructor argument) fixes iteration order everywhere
downstream, which keeps every derived quantity deterministic. A block, a
finite word of the domain, is a plain tuple of symbols; ``enumerate_blocks``
lists them as symbol tuples, lexicographic in domain-symbol order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps

from . import graphs


class FactorCodeError(Exception):
    """Base class for all structured errors raised by this package."""


class TripleParseError(FactorCodeError):
    """Malformed triple file."""


class MeasureParseError(FactorCodeError):
    """Malformed Markov measure file."""


class EmptyShiftError(FactorCodeError):
    """An operation produced or received an empty shift."""


class PreconditionError(FactorCodeError):
    """A documented precondition of an operation was violated."""


@dataclass(frozen=True)
class Sft:
    """A 1-step SFT given by allowed transitions on an ordered alphabet."""

    symbols: tuple
    transitions: frozenset

    def __post_init__(self):
        if not self.symbols:
            raise EmptyShiftError("empty shift")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols")
        for a, b in self.transitions:
            if a not in self.symbol_set or b not in self.symbol_set:
                raise ValueError("transition uses unknown symbol")

    @cached_property
    def symbol_set(self):
        return frozenset(self.symbols)

    @cached_property
    def successor_map(self):
        """Successors of every symbol, each tuple in symbol order.

        A two-pass bucket sort of the transitions: grouping them by target
        and then visiting the targets in symbol order appends every
        successor list in order, in O(symbols + transitions)."""
        into = {s: [] for s in self.symbols}
        for a, b in self.transitions:
            into[b].append(a)
        out = {s: [] for s in self.symbols}
        for b in self.symbols:
            for a in into[b]:
                out[a].append(b)
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def predecessor_map(self):
        """Predecessors of every symbol, each tuple in symbol order."""
        out = {s: [] for s in self.symbols}
        for a in self.symbols:
            for b in self.successor_map[a]:
                out[b].append(a)
        return {s: tuple(v) for s, v in out.items()}

    def successors(self, s):
        return self.successor_map[s]

    def predecessors(self, s):
        return self.predecessor_map[s]

    def allows(self, a, b):
        return (a, b) in self.transitions

    def admits_word(self, word):
        """Whether a finite symbol sequence is a block of the shift."""
        if not word:
            return False
        for s in word:
            if s not in self.symbol_set:
                return False
        return all(self.allows(a, b) for a, b in zip(word, word[1:]))

    def admits_cycle(self, word):
        """Whether the sequence repeats into a valid periodic point."""
        return self.admits_word(word) and self.allows(word[-1], word[0])

    @cached_property
    def is_essential(self):
        return all(self.successor_map[s] and self.predecessor_map[s]
                   for s in self.symbols)

    @cached_property
    def is_irreducible(self):
        """Strong connectivity, from one Tarjan pass."""
        return len(graphs.strongly_connected_components(
            self.successor_map)) == 1


def make_sft(symbols, edges):
    return Sft(tuple(symbols), frozenset((a, b) for a, b in edges))


@dataclass(frozen=True)
class PeriodicPoint:
    """A periodic bi-infinite point, stored as one period starting at 0."""

    word: tuple

    def __post_init__(self):
        if not self.word:
            raise ValueError("empty period word")

    @property
    def period(self):
        return len(self.word)

    def symbol_at(self, i):
        return self.word[i % len(self.word)]

    def window(self, start, stop):
        """Symbols at coordinates start..stop inclusive."""
        return tuple(self.symbol_at(i) for i in range(start, stop + 1))


def primitive_root(word):
    """Shortest word whose repetition gives ``word``."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def least_rotation(word):
    """Lexicographically least rotation, comparing by position tuples."""
    word = tuple(word)
    return min(word[i:] + word[:i] for i in range(len(word)))


def canonical_orbit_word(word):
    """Canonical representative of the orbit of ``word``-periodic points."""
    return least_rotation(primitive_root(tuple(word)))


@dataclass
class FactorTriple:
    """An SFT together with a 1-block factor map onto an image alphabet.

    ``label`` sends each SFT symbol to an image symbol; ``y_alphabet`` is
    the ordered image alphabet (every member has at least one preimage).

    Triples are not mutated after construction. Everything derived from
    one is built on first use and kept on it: the preimage table below,
    and in ``derived`` the objects of functions decorated with
    ``per_triple``, such as the labelled neighbour table and the sofic
    image.
    """

    x: Sft
    label: dict
    y_alphabet: tuple
    derived: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if set(self.label) != set(self.x.symbols):
            raise ValueError("label map must cover exactly the SFT alphabet")
        used = {self.label[s] for s in self.x.symbols}
        if not set(self.y_alphabet) >= used:
            raise ValueError("label map uses undeclared image symbol")
        if set(self.y_alphabet) != used:
            raise ValueError("image alphabet has a symbol with no preimage")

    @cached_property
    def preimage_map(self):
        out = {c: tuple(s for s in self.x.symbols if self.label[s] == c)
               for c in self.y_alphabet}
        return out

    def preimages(self, c):
        if c not in self.preimage_map:
            raise ValueError("unknown image symbol %r" % (c,))
        return self.preimage_map[c]

    def label_word(self, word):
        return tuple(self.label[s] for s in word)


def per_triple(build):
    """Keep what ``build(t, *args)`` derives from a triple on the triple.

    The first call with given arguments builds the object and stores it
    in ``t.derived``; later calls return the stored object. This is sound
    because triples are not mutated after construction."""
    @wraps(build)
    def kept(t, *args):
        key = (build,) + args
        if key not in t.derived:
            t.derived[key] = build(t, *args)
        return t.derived[key]
    return kept


def sub_triple(t, keep, transitions):
    """The part of ``t`` on the domain symbols in ``keep`` and the given
    transitions among them; symbol and image orders are kept."""
    symbols = tuple(s for s in t.x.symbols if s in keep)
    label = {s: t.label[s] for s in symbols}
    used = set(label.values())
    return FactorTriple(Sft(symbols, frozenset(transitions)), label,
                        tuple(c for c in t.y_alphabet if c in used))


def essentialize(x):
    """Largest essential sub-SFT: the symbols on some bi-infinite walk,
    each of which keeps a successor and a predecessor inside it. Raises
    EmptyShiftError when nothing survives.

    An essential ``x`` is returned itself, with the maps it has built: in
    a finite graph, a successor and a predecessor at every symbol already
    put each symbol on a bi-infinite walk."""
    if x.is_essential:
        return x
    alive = graphs.bi_essential_nodes(x.successor_map)
    if not alive:
        raise EmptyShiftError("empty shift")
    symbols = tuple(s for s in x.symbols if s in alive)
    transitions = frozenset((a, b) for (a, b) in x.transitions
                            if a in alive and b in alive)
    return Sft(symbols, transitions)


def essentialize_triple(t):
    """The triple on the essential part of its domain; ``t`` itself, with
    everything derived and kept on it, when the domain is essential."""
    x = essentialize(t.x)
    if x is t.x:
        return t
    return sub_triple(t, x.symbol_set, x.transitions)


def _parse_pair(token, lineno, kind):
    parts = token.split(">")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise TripleParseError(
            "line %d: malformed %s token %r (expected a>b)"
            % (lineno, kind, token))
    return parts[0], parts[1]


def parse_triple(text):
    """Parse the triple file format into an essentialized FactorTriple.

    The format is line oriented: '#' lines are comments, every other
    nonblank line is ``key: tokens`` with keys xsymbols, ysymbols, map,
    edges. Sections may repeat and appear in any order; token order fixes
    symbol order. The parsed SFT is essentialized before being returned,
    and image symbols that lose every preimage are dropped.
    """
    xsymbols = []
    ysymbols = []
    label_entries = []
    edge_entries = []
    seen_x = set()
    seen_y = set()
    alphabets = {"xsymbols": ("x", xsymbols, seen_x),
                 "ysymbols": ("y", ysymbols, seen_y)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise TripleParseError("line %d: expected 'key: tokens'" % lineno)
        key = key.strip()
        tokens = rest.split()
        if key in alphabets:
            side, symbols, seen = alphabets[key]
            for tok in tokens:
                if ">" in tok:
                    raise TripleParseError(
                        "line %d: symbol %r may not contain '>'"
                        % (lineno, tok))
                if tok in seen:
                    raise TripleParseError("line %d: duplicate %s symbol %r"
                                           % (lineno, side, tok))
                seen.add(tok)
                symbols.append(tok)
        elif key == "map":
            for tok in tokens:
                label_entries.append((lineno, _parse_pair(tok, lineno, "map")))
        elif key == "edges":
            for tok in tokens:
                edge_entries.append((lineno, _parse_pair(tok, lineno, "edge")))
        else:
            raise TripleParseError("line %d: unknown section %r" % (lineno, key))

    if not xsymbols:
        raise TripleParseError("no xsymbols declared")
    if not ysymbols:
        raise TripleParseError("no ysymbols declared")

    label = {}
    for lineno, (s, c) in label_entries:
        if s not in seen_x:
            raise TripleParseError("line %d: unknown x symbol %r" % (lineno, s))
        if c not in seen_y:
            raise TripleParseError("line %d: unknown y symbol %r" % (lineno, c))
        if s in label:
            raise TripleParseError(
                "line %d: symbol %r labeled twice" % (lineno, s))
        label[s] = c
    missing = [s for s in xsymbols if s not in label]
    if missing:
        raise TripleParseError("unlabeled x symbols: %s" % " ".join(missing))

    edges = set()
    for lineno, (a, b) in edge_entries:
        if a not in seen_x:
            raise TripleParseError("line %d: unknown x symbol %r" % (lineno, a))
        if b not in seen_x:
            raise TripleParseError("line %d: unknown x symbol %r" % (lineno, b))
        if (a, b) in edges:
            raise TripleParseError(
                "line %d: duplicate edge %s>%s" % (lineno, a, b))
        edges.add((a, b))
    if not edges:
        raise TripleParseError("no edges declared")

    raw_triple = FactorTriple(
        Sft(tuple(xsymbols), frozenset(edges)),
        label,
        tuple(c for c in ysymbols if any(label[s] == c for s in xsymbols)))
    return essentialize_triple(raw_triple)


def triple_to_text(t):
    """Serialize a triple back to the file format, deterministically."""
    lines = []
    lines.append("xsymbols: " + " ".join(t.x.symbols))
    lines.append("ysymbols: " + " ".join(t.y_alphabet))
    lines.append("map: " + " ".join(
        "%s>%s" % (s, t.label[s]) for s in t.x.symbols))
    edge_toks = []
    for a in t.x.symbols:
        for b in t.x.successors(a):
            edge_toks.append("%s>%s" % (a, b))
    lines.append("edges: " + " ".join(edge_toks))
    return "\n".join(lines) + "\n"


def enumerate_blocks(x, n):
    """All n-blocks of an essential SFT, as symbol tuples, lexicographic in
    domain-symbol order: each length extends the blocks of the one before
    by their last symbol's successors, in symbol order."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    succ = x.successor_map
    blocks = [(s,) for s in x.symbols]
    for _ in range(n - 1):
        blocks = [b + (s,) for b in blocks for s in succ[b[-1]]]
    return blocks


@dataclass
class BlockRecoding:
    """Conjugacy data for a higher-block recoding.

    Maps blocks (symbol tuples) and periodic points both ways between the
    base triple and the recoded one. Recoded symbols are named by joining
    the base window with '.'; the name-to-window mapping is stored
    explicitly so recodings of already-recoded triples stay unambiguous.
    """

    n: int
    base: FactorTriple
    recoded: FactorTriple
    windows: dict = field(default_factory=dict)

    def _window_name(self, window):
        name = ".".join(window)
        if self.windows.get(name, window) != window:
            raise ValueError("ambiguous recoded symbol name %r" % name)
        return name

    def _window_of(self, name):
        if self.n == 1:
            return (name,)
        return self.windows[name]

    def to_recoded_block(self, b):
        b = tuple(b)
        if len(b) < self.n:
            raise ValueError("block shorter than the recoding window")
        return tuple(self._window_name(b[i:i + self.n])
                     for i in range(len(b) - self.n + 1))

    def to_base_block(self, b):
        b = tuple(b)
        if not b:
            raise ValueError("empty block")
        windows = [self._window_of(s) for s in b]
        return tuple(w[0] for w in windows) + windows[-1][1:]

    def to_recoded_point(self, p):
        q = p.period
        syms = tuple(self._window_name(tuple(p.symbol_at(i + j)
                                             for j in range(self.n)))
                     for i in range(q))
        return PeriodicPoint(syms)

    def to_base_point(self, p):
        return PeriodicPoint(tuple(self._window_of(s)[0] for s in p.word))


def higher_block(t, n):
    """Recode a triple to its n-block presentation.

    Symbols of the recoded SFT are the admissible n-blocks of the base,
    transitions follow progressive overlap, and each n-block inherits the
    label of its first symbol, so the induced image shift is unchanged.
    Returns the recoded triple and the two-way conjugacy maps; n = 1 gives
    the triple itself with identity maps.
    """
    if n < 1:
        raise ValueError("recoding window must be >= 1")
    if n == 1:
        return t, BlockRecoding(1, t, t)
    blocks = enumerate_blocks(t.x, n)
    names = [".".join(b) for b in blocks]
    if len(set(names)) != len(names):
        raise ValueError("symbol names collide under '.' joining")
    windows = dict(zip(names, blocks))
    by_prefix = {}
    for v in names:
        by_prefix.setdefault(windows[v][:-1], []).append(v)
    edges = frozenset((u, v) for u in names
                      for v in by_prefix.get(windows[u][1:], ()))
    x = Sft(tuple(names), edges)
    label = {u: t.label[windows[u][0]] for u in names}
    recoded = FactorTriple(x, label, t.y_alphabet)
    if not recoded.x.is_essential:
        raise ValueError("recoding of a non-essential SFT")
    return recoded, BlockRecoding(n, t, recoded, windows)
