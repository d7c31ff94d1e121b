"""Markov measures on shifts of finite type and relative entropy bounds.

Measures enter in two roles. On the domain shift they are integrands for
plain entropy. On the image presentation (the right-resolving cover of a
code's sofic image) they weight image words, which drives the
measure-restricted class count, the preimage-count bound, and the
relative entropy relaxation: an upper bound for the largest entropy a
measure on the domain can have among those pushing forward to the given
image measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from . import graphs
from .core import (MeasureParseError, PeriodicPoint, PreconditionError,
                   enumerate_blocks, is_irreducible, primitive_root)
from .codes import sofic_image

ROW_SUM_TOLERANCE = 1e-9
_ROW_INVARIANT = 1e-12
_FLOW_INVARIANT = 1e-10


@dataclass
class MarkovMeasure:
    """A stationary ergodic Markov measure on a 1-step shift of finite type.

    ``kernel`` maps state pairs to positive transition probabilities (zero
    entries are not stored); ``stationary`` assigns every base symbol its
    stationary probability, zero on states the chain never returns to.
    """

    base: object
    kernel: dict
    stationary: dict

    def support_states(self):
        return tuple(s for s in self.base.symbols if self.stationary[s] > 0)

    def row(self, state):
        return {t: p for (s, t), p in self.kernel.items() if s == state}


def _check_invariants(measure):
    rows = {}
    for (s, _t), p in measure.kernel.items():
        rows[s] = rows.get(s, 0.0) + p
    # explicit checks rather than asserts, so that they survive -O; the
    # negated comparisons also reject NaN
    for s, total in rows.items():
        if not abs(total - 1.0) <= _ROW_INVARIANT:
            raise AssertionError(
                "kernel row for %r drifted from stochastic" % (s,))
    flow = {s: 0.0 for s in measure.base.symbols}
    for (s, t), p in measure.kernel.items():
        flow[t] += measure.stationary[s] * p
    for s in measure.base.symbols:
        if not abs(flow[s] - measure.stationary[s]) <= _FLOW_INVARIANT:
            raise AssertionError("stationary vector is not kernel invariant")


def markov_measure(base, kernel):
    """Validate a transition kernel and compute its stationary measure.

    Every state needs a row summing to 1 within 1e-9 (rows are then
    renormalized exactly); positive entries must sit on transitions of the
    base shift. The positive part of the kernel must have a unique closed
    communicating class, so the stationary measure is unique and ergodic;
    otherwise PreconditionError is raised.
    """
    rows = {s: {} for s in base.symbols}
    for (s, t), p in kernel.items():
        if s not in base.symbol_set or t not in base.symbol_set:
            raise ValueError("kernel entry on unknown states %r -> %r"
                             % (s, t))
        if p < 0:
            raise ValueError("negative kernel probability for %r -> %r"
                             % (s, t))
        if p == 0:
            continue
        if not base.allows(s, t):
            raise ValueError(
                "kernel assigns probability to the forbidden transition "
                "%r -> %r" % (s, t))
        rows[s][t] = rows[s].get(t, 0.0) + p
    clean = {}
    for s in base.symbols:
        total = sum(rows[s][t] for t in base.symbols if t in rows[s])
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ValueError("kernel row for state %r sums to %.12g"
                             % (s, total))
        for t in base.symbols:
            if t in rows[s]:
                clean[(s, t)] = rows[s][t] / total

    adjacency = {s: [t for t in base.symbols if (s, t) in clean]
                 for s in base.symbols}
    closed = []
    for comp in graphs.strongly_connected_components(adjacency):
        members = set(comp)
        if all(t in members for s in comp for t in adjacency[s]):
            closed.append(comp)
    if len(closed) != 1:
        raise PreconditionError("measure not ergodic")

    states = [s for s in base.symbols if s in set(closed[0])]
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    matrix = np.zeros((n, n))
    for s in states:
        for t in states:
            p = clean.get((s, t))
            if p:
                matrix[index[s], index[t]] = p
    system = np.vstack([matrix.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    stationary = {s: 0.0 for s in base.symbols}
    for s in states:
        stationary[s] = float(pi[index[s]])

    measure = MarkovMeasure(base, clean, stationary)
    _check_invariants(measure)
    return measure


def parse_measure(text, base):
    """Parse the measure file format against the states of ``base``.

    A ``states:`` line names every state of the base shift, then one
    ``row STATE: p1 p2 ...`` line per state gives its transition
    probabilities in the order of the states line. '#' starts a comment.
    """
    order = None
    rows = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise MeasureParseError("line %d: expected 'key: values'"
                                    % lineno)
        key, _, rest = line.partition(":")
        fields = key.split()
        values = rest.split()
        if fields == ["states"]:
            if order is not None:
                raise MeasureParseError("line %d: duplicate states line"
                                        % lineno)
            order = []
            for name in values:
                if name not in base.symbol_set:
                    raise MeasureParseError("line %d: unknown state %r"
                                            % (lineno, name))
                if name in order:
                    raise MeasureParseError("line %d: duplicate state %r"
                                            % (lineno, name))
                order.append(name)
            if set(order) != set(base.symbols):
                raise MeasureParseError(
                    "line %d: states line must name every state of the shift"
                    % lineno)
        elif len(fields) == 2 and fields[0] == "row":
            if order is None:
                raise MeasureParseError("line %d: row before states line"
                                        % lineno)
            state = fields[1]
            if state not in base.symbol_set:
                raise MeasureParseError("line %d: row for unknown state %r"
                                        % (lineno, state))
            if state in rows:
                raise MeasureParseError("line %d: duplicate row for state %r"
                                        % (lineno, state))
            if len(values) != len(order):
                raise MeasureParseError("line %d: expected %d probabilities"
                                        % (lineno, len(order)))
            probs = []
            for token in values:
                try:
                    p = float(token)
                except ValueError:
                    raise MeasureParseError(
                        "line %d: invalid probability %r"
                        % (lineno, token)) from None
                if p < 0:
                    raise MeasureParseError("line %d: negative probability"
                                            % lineno)
                probs.append(p)
            rows[state] = probs
        else:
            raise MeasureParseError("line %d: unknown directive %r"
                                    % (lineno, key.strip()))
    if order is None:
        raise MeasureParseError("missing states line")
    for s in base.symbols:
        if s not in rows:
            raise MeasureParseError("missing row for state %r" % (s,))
    kernel = {}
    for s, probs in rows.items():
        for t, p in zip(order, probs):
            if p > 0:
                kernel[(s, t)] = p
    try:
        return markov_measure(base, kernel)
    except ValueError as exc:
        raise MeasureParseError(str(exc)) from None


def entropy_rate(measure):
    """Entropy of the measure in nats per symbol."""
    h = 0.0
    for (s, _t), p in sorted(measure.kernel.items()):
        weight = measure.stationary[s]
        if weight > 0:
            h -= weight * p * log(p)
    return h


def spectral_entropy(base):
    """Topological entropy of an irreducible SFT in nats: log of the
    Perron value of its transition matrix."""
    _perron = _perron_data(base)
    return log(_perron[0])


def _perron_data(base):
    if not is_irreducible(base):
        raise PreconditionError("shift is not irreducible")
    symbols = base.symbols
    n = len(symbols)
    index = {s: i for i, s in enumerate(symbols)}
    matrix = np.zeros((n, n))
    for (s, t) in base.transitions:
        matrix[index[s], index[t]] = 1.0
    shifted = matrix + np.eye(n)
    vec = np.ones(n) / n
    for _ in range(100000):
        nxt = shifted @ vec
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - vec)) < 1e-12:
            vec = nxt
            break
        vec = nxt
    else:
        raise AssertionError("power iteration failed to converge")
    lam = float((shifted @ vec).sum()) - 1.0
    return lam, matrix, vec, index


def parry_measure(base):
    """Markov measure of maximal entropy of an irreducible SFT.

    Power iteration on A + I (tolerance 1e-12) gives the Perron value and
    right vector; the kernel is the stochasticization A(s,t) r_t / (l r_s).
    """
    lam, matrix, right, index = _perron_data(base)
    kernel = {}
    for (s, t) in base.transitions:
        kernel[(s, t)] = float(
            matrix[index[s], index[t]] * right[index[t]]
            / (lam * right[index[s]]))
    return markov_measure(base, kernel)


def orbit_measure(base, point):
    """The uniform measure on a periodic orbit, given as the Markov measure
    with the orbit's empirical pair frequencies.

    Exact for orbits in which each symbol determines its successor; in
    general it is the maximal-entropy Markov measure with the orbit's pair
    statistics. Unvisited states carry no kernel row and stationary
    probability zero.
    """
    word = point.word if isinstance(point, PeriodicPoint) else tuple(point)
    word = primitive_root(tuple(word))
    if not base.admits_cycle(word):
        raise ValueError("orbit is not admissible in the shift")
    period = len(word)
    pair_counts = {}
    out_counts = {}
    for i in range(period):
        s, t = word[i], word[(i + 1) % period]
        pair_counts[(s, t)] = pair_counts.get((s, t), 0) + 1
        out_counts[s] = out_counts.get(s, 0) + 1
    kernel = {}
    for s in base.symbols:
        row_total = out_counts.get(s)
        if not row_total:
            continue
        probs = [pair_counts[(s, t)] / row_total for t in base.symbols
                 if (s, t) in pair_counts]
        scale = sum(probs)
        for t in base.symbols:
            if (s, t) in pair_counts:
                kernel[(s, t)] = pair_counts[(s, t)] / row_total / scale
    stationary = {s: out_counts.get(s, 0) / period for s in base.symbols}
    measure = MarkovMeasure(base, kernel, stationary)
    _check_invariants(measure)
    return measure


def _require_presentation_measure(measure, pres):
    if tuple(measure.base.symbols) != tuple(pres.x.symbols):
        raise PreconditionError("measure is not on the image presentation")


def _start(pres, measure, c):
    """Stationary weights of the states carrying ``c``, where positive."""
    return {s: measure.stationary[s] for s in pres.preimage_map.get(c, ())
            if measure.stationary[s] > 0}


def _push(pres, measure, vec, c):
    """The labelled step of ``codes.step`` for weighted states: the
    weights ``vec`` carried one step along the kernel onto the states
    carrying ``c``. Sums run in symbol order, so they are deterministic."""
    nxt = {}
    for s in pres.x.symbols:
        v = vec.get(s)
        if not v:
            continue
        for u in pres.successors_by_label[s].get(c, ()):
            p = measure.kernel.get((s, u))
            if p:
                nxt[u] = nxt.get(u, 0.0) + v * p
    return nxt


def _mass(pres, vec):
    return float(sum(vec[s] for s in pres.x.symbols if s in vec))


def _word_measure(pres, measure, word):
    vec = _start(pres, measure, word[0])
    for c in word[1:]:
        vec = _push(pres, measure, vec, c)
        if not vec:
            return 0.0
    return _mass(pres, vec)


def image_word_measure(t, measure, word):
    """Measure of a finite image word under a Markov measure on the states
    of the code's image presentation."""
    pres = sofic_image(t).triple
    _require_presentation_measure(measure, pres)
    word = tuple(word)
    if not word:
        return 1.0
    for c in word:
        if c not in t.preimage_map:
            raise ValueError("unknown image symbol %r" % (c,))
    return _word_measure(pres, measure, word)


def pqs_bound(t, measure):
    """Preimage-count bound for the class degree relative to a measure on
    the image presentation: the smallest number of preimage symbols among
    measure-positive image symbols, a positive integer."""
    pres = sofic_image(t).triple
    _require_presentation_measure(measure, pres)
    positive = {pres.label[s] for s in pres.x.symbols
                if measure.stationary[s] > 0}
    return min(len(t.preimages(c)) for c in sorted(positive))


def _positive_word_measures(pres, measure, n):
    """Measures of all measure-positive image words of length n."""
    out = {}

    def extend(word, vec):
        if len(word) == n:
            out[tuple(word)] = _mass(pres, vec)
            return
        for c in pres.y_alphabet:
            nxt = _push(pres, measure, vec, c)
            if nxt:
                word.append(c)
                extend(word, nxt)
                word.pop()

    for c in pres.y_alphabet:
        vec = _start(pres, measure, c)
        if vec:
            extend([c], vec)
    return out


@dataclass
class RelativeEntropyBound:
    """Result of the k-block relative entropy relaxation.

    ``value`` is in nats; ``optimizer`` maps admissible (k+1)-blocks of
    the domain to their optimal weights; ``residuals`` reports the largest
    violation of the image and marginal constraint families at the
    optimizer; ``iterations`` counts ascent steps taken."""

    k: int
    value: float
    optimizer: dict
    residuals: dict
    iterations: int


def _prune_support(blocks):
    """The blocks that can carry weight under marginal consistency.

    Read each (k+1)-block as an edge from its prefix k-block to its suffix
    k-block. Marginally consistent weights are circulations on that graph,
    and a nonnegative circulation vanishes off cycles, so exactly the
    blocks whose two ends share a strongly connected component stay."""
    blocks = list(blocks)
    adj = {}
    for U in blocks:
        adj.setdefault(U[:-1], []).append(U[1:])
        adj.setdefault(U[1:], [])
    component = {}
    for i, comp in enumerate(graphs.strongly_connected_components(adj)):
        for W in comp:
            component[W] = i
    return {U for U in blocks if component[U[:-1]] == component[U[1:]]}


def relative_entropy_upper_bound(t, measure, k, max_iterations=100000):
    """Upper bound for the maximal entropy among measures on the domain
    pushing forward to the given Markov measure on the image presentation.

    Any such measure induces a weight vector q on admissible (k+1)-blocks
    of the domain that is prefix/suffix consistent and projects to the
    image (k+1)-word measures, and its entropy is at most the conditional
    block entropy H(x_k | x_0..x_{k-1}) of q. That functional is concave
    (a minimum of linear functionals of q), so exponentiated-gradient
    ascent with cyclic KL projections onto the two affine constraint
    families converges to the relaxation's maximum, which bounds the
    relative maximal entropy from above. Gradient: log(m(prefix)/q).
    """
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
    return RelativeEntropyBound(
        k=k, value=value, optimizer=optimizer,
        residuals={"image": residuals["image"],
                   "marginal": residuals["marginal"]},
        iterations=iterations)


def uniform_conditional_diagnostic(t, bound):
    """Largest total-variation gap between the optimizer's center-coordinate
    conditionals and the uniform distribution on the locally admissible
    fiber symbols.

    The optimizer's (k+1)-block weights extend canonically to a stationary
    k-step Markov law on (2k+1)-windows; for every window context and
    center image symbol, the conditional law of the center is compared
    with the uniform law on {a : previous -> a -> next allowed, label(a) =
    center image symbol}. Values near zero are the signature of a relative
    maximal entropy measure at window scale."""
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
        admissible = [a for a in t.x.symbols
                      if t.x.allows(left[-1], a) and t.x.allows(a, right[0])
                      and t.label[a] == y0]
        total = sum(dist[a] for a in sorted(dist, key=lambda s: xorder[s]))
        if total <= 1e-15 or not admissible:
            continue
        share = 1.0 / len(admissible)
        gap = 0.5 * sum(abs(dist.get(a, 0.0) / total - share)
                        for a in admissible)
        worst = max(worst, gap)
    return worst
