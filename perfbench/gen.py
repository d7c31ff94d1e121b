"""Seeded input generators for the benchmark.

Every generator is a pure function of its arguments and a generator seed,
so an input can be rebuilt from the few numbers that name it. Randomness
comes from a local splitmix64 stream rather than the ``random`` module,
which keeps the generated files identical across Python versions.

Triples are written in the ``factorcode`` triple file format. Measure
files are written on the image presentation of a triple and therefore
need the package itself; they are made by ``pool.py`` when the case pool
is rebuilt, never during a timed run.
"""

MASK = (1 << 64) - 1


class Stream:
    """splitmix64: small, fast and fully specified."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n) by rejection, free of modulo bias."""
        limit = (1 << 64) - (1 << 64) % n
        while True:
            v = self.next64()
            if v < limit:
                return v % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def stream_for(*key):
    """A stream seeded from a tuple of small non-negative integers."""
    seed = 0
    for part in key:
        seed = (seed * 1000003 + part + 1) & MASK
    s = Stream(seed)
    s.next64()
    return s


IMAGE_SYMBOLS = "abcdefgh"


def triple_text(symbols, labels, edges, ysymbols, comment):
    """Serialize a triple; edges are listed per source in symbol order."""
    succ = {s: [] for s in symbols}
    for a, b in sorted(edges, key=lambda e: (symbols.index(e[0]),
                                             symbols.index(e[1]))):
        succ[a].append(b)
    lines = ["# " + comment,
             "xsymbols: " + " ".join(symbols),
             "ysymbols: " + " ".join(ysymbols),
             "map: " + " ".join("%s>%s" % (s, labels[s]) for s in symbols),
             "edges: " + " ".join("%s>%s" % (a, b) for a in symbols
                                  for b in succ[a])]
    return "\n".join(lines) + "\n"


def _cycle_and_labels(rng, n, images, prefix="x"):
    symbols = ["%s%d" % (prefix, i) for i in range(n)]
    order = rng.shuffle(list(symbols))
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    ysymbols = list(IMAGE_SYMBOLS[:images])
    labels = {s: ysymbols[rng.below(images)] for s in symbols}
    for i, c in enumerate(ysymbols):
        labels[order[i]] = c
    return symbols, ysymbols, labels, edges


def random_code(n, images, extra, seed):
    """A cycle through every symbol plus ``extra`` random edges.

    The cycle makes the domain irreducible, so the triple survives
    essentialization unchanged; with several random edges per symbol the
    code is almost always infinite-to-one."""
    rng = stream_for(1, n, images, extra, seed)
    symbols, ysymbols, labels, edges = _cycle_and_labels(rng, n, images)
    target = len(edges) + extra
    while len(edges) < target:
        edges.add((symbols[rng.below(n)], symbols[rng.below(n)]))
    return triple_text(symbols, labels, edges, ysymbols,
                       "random code n=%d images=%d extra=%d seed=%d"
                       % (n, images, extra, seed))


def right_resolving_code(n, images, extra, seed):
    """A cycle through every symbol plus up to ``extra`` random edges,
    keeping the labels of each symbol's successors distinct. A
    right-resolving code is finite-to-one, so ``degree`` computes d*."""
    rng = stream_for(2, n, images, extra, seed)
    symbols, ysymbols, labels, edges = _cycle_and_labels(rng, n, images)
    seen = {s: set() for s in symbols}
    for a, b in edges:
        seen[a].add(labels[b])
    for _ in range(extra * 4):
        if len(edges) >= n + extra:
            break
        a, b = symbols[rng.below(n)], symbols[rng.below(n)]
        if labels[b] not in seen[a]:
            seen[a].add(labels[b])
            edges.add((a, b))
    return triple_text(symbols, labels, edges, ysymbols,
                       "right-resolving code n=%d images=%d extra=%d "
                       "seed=%d" % (n, images, extra, seed))


def twin_code(n, seed):
    """Two copies of one right-resolving code (a cycle plus up to ``n``
    edges, two image symbols) joined by one random edge each way. The
    doubled fibers give class degree 2, which makes the depth search
    enumerate image words up to its horizon; some of these codes stay
    uncertified there."""
    rng = stream_for(3, n, seed)
    symbols, ysymbols, labels, edges = _cycle_and_labels(rng, n, 2)
    seen = {s: set() for s in symbols}
    for a, b in edges:
        seen[a].add(labels[b])
    for _ in range(n * 4):
        if len(edges) >= 2 * n:
            break
        a, b = symbols[rng.below(n)], symbols[rng.below(n)]
        if labels[b] not in seen[a]:
            seen[a].add(labels[b])
            edges.add((a, b))
    copies = {tag: {s: tag + s[1:] for s in symbols} for tag in "AB"}
    all_symbols = [copies[tag][s] for tag in "AB" for s in symbols]
    all_labels = {copies[tag][s]: labels[s] for tag in "AB"
                  for s in symbols}
    all_edges = {(copies[tag][a], copies[tag][b]) for tag in "AB"
                 for a, b in edges}
    all_edges.add((copies["A"][symbols[rng.below(n)]],
                   copies["B"][symbols[rng.below(n)]]))
    all_edges.add((copies["B"][symbols[rng.below(n)]],
                   copies["A"][symbols[rng.below(n)]]))
    return triple_text(all_symbols, all_labels, all_edges, ysymbols,
                       "twin code n=%d per copy seed=%d" % (n, seed))


def measure_text(states, rows, comment):
    """Serialize a Markov measure; ``rows`` maps a state to its
    probabilities in the order of ``states``. Floats are written with
    ``repr`` so that a file parses back to the same kernel."""
    lines = ["# " + comment, "states: " + " ".join(states)]
    for s in states:
        lines.append("row %s: %s" % (s, " ".join(
            repr(p) if p else "0" for p in rows[s])))
    return "\n".join(lines) + "\n"
