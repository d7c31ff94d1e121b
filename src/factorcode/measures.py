"""Markov measures on shifts of finite type and relative entropy bounds.

Measures enter in two roles. On the domain shift they are integrands for
plain entropy. On the image presentation (the right-resolving cover of a
code's sofic image) they weight image words, which drives the
measure-restricted class count, the preimage-count bound, and the
relative entropy relaxation: an upper bound for the largest entropy a
measure on the domain can have among those pushing forward to the given
image measure.

numpy is imported by the functions that compute with it, so commands
that never touch a measure (``check``, ``degree``, the fiber commands)
do not pay for importing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from math import isfinite, log

from . import graphs
from .core import (InputError, MeasureParseError, PeriodicPoint,
                   PreconditionError, primitive_root, sub_triple)
from .codes import (_bit_indices, _bits, _check_image_word, _label_masks,
                    image_blocks, sofic_image, step)

ROW_SUM_TOLERANCE = 1e-9
# The Newton solve of the relative entropy bound stops on each component
# of its class graph once the gradient of the dual is within the
# tolerance, or at the cap.
DUAL_TOLERANCE = 1e-12
NEWTON_STEPS = 100
# Noda steps allowed for one Perron vector. The benchmark pools need 10
# at most; a cold start on a matrix whose entries span 200 orders of
# magnitude, a few hundred.
_PERRON_STEPS = 1000
# Most entries of the Hessian (image words x image words) and of the class
# matrix of one component of the entropy bound's class graph. The
# benchmark pools need 16 x 16 and 32 x 32 at most.
SOLVE_ENTRY_BUDGET = 4_000_000
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
    renormalized exactly); entries must be finite and non-negative, and
    positive ones must sit on transitions of the base shift. The positive
    part of the kernel must have a unique closed communicating class, so
    the stationary measure is unique and ergodic; otherwise
    PreconditionError is raised.
    """
    import numpy as np

    rows = {s: {} for s in base.symbols}
    for (s, t), p in kernel.items():
        if s not in base.symbol_set or t not in base.symbol_set:
            raise InputError("kernel entry on unknown states %r -> %r"
                             % (s, t))
        if not isfinite(p):
            raise InputError("non-finite kernel probability for %r -> %r"
                             % (s, t))
        if p < 0:
            raise InputError("negative kernel probability for %r -> %r"
                             % (s, t))
        if p == 0:
            continue
        if not base.allows(s, t):
            raise InputError(
                "kernel assigns probability to the forbidden transition "
                "%r -> %r" % (s, t))
        rows[s][t] = rows[s].get(t, 0.0) + p
    clean = {}
    for s in base.symbols:
        total = sum(rows[s][t] for t in base.symbols if t in rows[s])
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise InputError("kernel row for state %r sums to %.12g"
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
    A state name may hold ':', so a row is split at its last ':'.
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
        # state names may hold ':', a probability never does: only the
        # states line is split at its first ':'
        key, _, rest = line.partition(":")
        if key.split() != ["states"]:
            key, _, rest = line.rpartition(":")
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
                if not isfinite(p):
                    raise MeasureParseError(
                        "line %d: non-finite probability %r"
                        % (lineno, token))
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
    except InputError as exc:
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
    return log(_perron_pair(base)[0])


def _perron_pair(base):
    """The Perron root and right Perron vector of the 0/1 transition
    matrix of an irreducible SFT, in symbol order, by ``_gibbs_chain``'s
    iteration from the all-ones vector."""
    import numpy as np

    if not base.is_irreducible:
        raise PreconditionError("shift is not irreducible")
    index = {s: i for i, s in enumerate(base.symbols)}
    src, dst = np.array([[index[s], index[t]]
                         for s, t in base.transitions]).T
    rho, _, right = _gibbs_chain(np.ones(len(src)), src, dst,
                                 np.ones(len(index)))
    return float(rho), right, index


def parry_measure(base):
    """Markov measure of maximal entropy of an irreducible SFT.

    The Perron value rho and right vector r of the transition matrix A
    come from the one Perron iteration of the package (``_gibbs_chain``);
    the kernel is the stochasticization A(s,t) r_t / (rho r_s).
    """
    rho, right, index = _perron_pair(base)
    return markov_measure(base, {
        (s, t): float(right[index[t]] / (rho * right[index[s]]))
        for s, t in base.transitions})


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
        raise InputError("orbit is not admissible in the shift")
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


def _presentation(t, measure):
    """The named image presentation of ``t``, on whose states ``measure``
    must live: PreconditionError when it does not."""
    pres = sofic_image(t).triple
    if tuple(measure.base.symbols) != tuple(pres.x.symbols):
        raise PreconditionError("measure is not on the image presentation")
    return pres


def _push(pres, measure, vec, c):
    """The labelled step of ``codes.step`` for weighted states: the
    weights ``vec`` carried one step along the kernel onto the states
    carrying ``c``, read off the same table (``_label_masks``). Sums run
    in symbol order, so they are deterministic."""
    symbols = pres.x.symbols
    table = _label_masks(pres, True)
    nxt = {}
    for i, s in enumerate(symbols):
        v = vec.get(s)
        if not v:
            continue
        for j in _bit_indices(table[i].get(c, 0)):
            u = symbols[j]
            p = measure.kernel.get((s, u))
            if p:
                nxt[u] = nxt.get(u, 0.0) + v * p
    return nxt


def _word_measure(pres, measure, word):
    """Measure of ``word``: the stationary weights of the states carrying
    its first symbol, where positive, pushed along the rest of it."""
    vec = {s: measure.stationary[s]
           for s in pres.preimage_map.get(word[0], ())
           if measure.stationary[s] > 0}
    for c in word[1:]:
        vec = _push(pres, measure, vec, c)
        if not vec:
            return 0.0
    return float(sum(vec[s] for s in pres.x.symbols if s in vec))


def _measure_support(t, measure):
    """The image presentation restricted to the support of ``measure``:
    its states of positive stationary weight and the kernel's transitions
    among them. Its image blocks are the measure-positive image words."""
    pres = _presentation(t, measure)
    keep = set(measure.support_states())
    return sub_triple(pres, keep, (e for e in measure.kernel
                                   if e[0] in keep and e[1] in keep))


def image_word_measure(t, measure, word):
    """Measure of a finite image word under a Markov measure on the states
    of the code's image presentation."""
    pres = _presentation(t, measure)
    word = tuple(word)
    if not word:
        return 1.0
    return _word_measure(pres, measure, _check_image_word(t, word))


def pqs_bound(t, measure):
    """Preimage-count bound for the class degree relative to a measure on
    the image presentation: the smallest number of preimage symbols among
    measure-positive image symbols, a positive integer: the labels of
    the measure's support states."""
    pres = _presentation(t, measure)
    return min(len(t.preimages(pres.label[s]))
               for s in measure.support_states())


@dataclass
class RelativeEntropyBound:
    """Result of the k-block relative entropy relaxation.

    ``value`` is in nats: the dual value D at the last Newton iterate of
    the class component where it is largest, or 0 where that D is
    negative (the relaxation is an entropy, so never below 0), an upper
    bound for the relaxation whether or not the solve converged.
    ``residuals`` reports the largest violation of the image and
    marginal constraint families by that iterate's Gibbs chain on the
    component (the image one is |grad D|). ``iterations`` counts Newton
    steps over all components. ``converged`` is true when every
    component that can carry the image measure reached |grad D| <=
    ``tolerance``. ``optimizer`` maps each edge (w, s) -> (w[1:]c, s')
    of the reported component's class graph, keyed (wc, s, s'), in
    sorted-word order and then domain-symbol order, to its mass under
    that iterate's Gibbs chain, and ``dual`` maps each nu-positive image
    (k+1)-word, sorted, to lam at that iterate. The classes partition the
    k-blocks equitably, so lam fixes the block-level optimizer too: the
    Gibbs chain of the blocks weighted e^lam[image word] on the first
    closed piece of their block graph, whose masses sum over the blocks
    of each class edge to that edge's mass."""

    k: int
    value: float
    residuals: dict
    iterations: int
    converged: bool
    tolerance: float
    optimizer: dict
    dual: dict


def _prune_support(edges):
    """The edges that can carry weight under marginal consistency, each
    mapped to the number of the strongly connected component it lies in,
    in the order given; ``edges`` maps each edge to its (tail, head).

    Marginally consistent weights are circulations on the graph, and a
    nonnegative circulation vanishes off cycles, so exactly the edges
    whose two ends share a strongly connected component stay. Components
    are numbered in the order Tarjan's algorithm completes them, so no
    edge leaves component 0."""
    adj = {}
    for tail, head in edges.values():
        adj.setdefault(tail, []).append(head)
        adj.setdefault(head, [])
    component = {}
    for i, comp in enumerate(graphs.strongly_connected_components(adj)):
        for v in comp:
            component[v] = i
    return {e: component[tail] for e, (tail, head) in edges.items()
            if component[tail] == component[head]}


def _gibbs_chain(weight, src, dst, x):
    """The Perron root rho of the irreducible matrix A with A[src[i],
    dst[i]] = weight[i] > 0 (len(x) rows; no entry given twice), its right
    Perron vector r, and the masses of the entries under the Gibbs chain
    of A, as (rho, masses, r).

    r comes from Noda's inverse iteration, started at the positive vector
    x and run on B = X^-1 A X (X = diag(x)), whose row sums are the
    ratios (A x) / x: solve (max(ratio) I - B) z = 1 and take x z, over
    its largest entry, as the next x. A is irreducible, so min(ratio) <=
    rho <= max(ratio) for every positive x (Collatz-Wielandt), and rho is
    taken as the maximum, an upper bound. In exact arithmetic the maximum
    falls at every step. The iteration stops once the two bounds are
    within 1e-14 of each other, or at the rounding floor: at a step that
    is singular, leaves the positive cone or does not lower the maximum,
    which is then not taken. B is solved rather than A so that every
    entry of x is found to working accuracy, however many orders of
    magnitude x spans. A step at most halves the maximum, so a start
    whose maximum is far above rho takes at least log2 of their ratio in
    steps; a run past _PERRON_STEPS steps is an internal error.

    The Gibbs chain P = B / rho (at x = r) is stochastic, and its
    stationary law pi solves (I - P + 1 1^T)^T pi = 1. Entry i has mass
    pi[src[i]] P[src[i], dst[i]], which is l[src[i]] weight[i] r[dst[i]]
    / (l A r) with l the left Perron vector."""
    import numpy as np

    n = len(x)
    a = np.zeros((n, n))
    a[src, dst] = weight
    ones = np.ones(n)
    b = a * x / x[:, None]
    ratio = b.sum(axis=1)
    for _ in range(_PERRON_STEPS):
        rho = ratio.max()
        if rho - ratio.min() <= 1e-14 * rho:
            break
        try:
            z = np.linalg.solve(rho * np.eye(n) - b, ones)
        except np.linalg.LinAlgError:
            break
        if not z.min() > 0:
            break
        y = x * z
        y /= y.max()
        if not y.min() > 0:
            break
        b_next = a * y / y[:, None]
        ratio_next = b_next.sum(axis=1)
        if not ratio_next.max() < rho:
            break
        x, b, ratio = y, b_next, ratio_next
    else:
        raise AssertionError("Perron iteration reached its cap")
    chain = b / rho
    pi = np.linalg.solve((np.eye(n) - chain + 1.0).T, ones)
    masses = np.maximum(pi[src], 0.0) * chain[src, dst]
    return rho, masses / masses.sum(), x


def _dual_point(lam, cell, src, dst, x, nu):
    """D(lam), grad D, the Gibbs masses of the edges and the right Perron
    vector on the graph whose edge i runs from state ``src[i]`` to state
    ``dst[i]`` and carries image word ``cell[i]``, by one ``_gibbs_chain``
    started at the positive vector ``x``."""
    import numpy as np

    # D ignores a shift of lam; this one keeps every weight <= 1
    shift = lam.max()
    rho, q, right = _gibbs_chain(np.exp(lam[cell] - shift), src, dst, x)
    grad = np.bincount(cell, weights=q, minlength=len(nu)) - nu
    return log(rho) + shift - lam @ nu, grad, q, right


def _dual_piece(cell, src, dst, n, nu):
    """Newton's method on the dual D of one strongly connected component
    of the class graph (see ``relative_entropy_upper_bound``).

    Edge i runs from state ``src[i]`` to state ``dst[i]`` (numbered 0..n-1)
    and carries image word ``cell[i]``, and every image word has an edge.
    For lam over the image words, A holds e^lam[cell[i]] at (src[i],
    dst[i]) and D(lam) = log rho(A) - lam . nu. ``_dual_point`` gives rho,
    from above, so that every D is an upper bound, and the Gibbs chain's
    mass of every edge; each evaluation starts its Perron iteration from
    the vector of the point it steps from (ones at lam = 0). grad D is the
    chain's mass of each image word minus nu, and the Hessian their
    asymptotic covariance, through the group inverse (I - P + 1 pi)^-1 -
    1 pi of I - P, with P the chain's transition matrix and pi its
    stationary law. That is rho times the group inverse of rho I - A up
    to a diagonal similarity, and unlike it stays well conditioned when
    lam spreads the entries of A over many orders of magnitude.

    D is affine along the directions v with v[cell] = phi[dst] - phi[src]
    + c on every edge (A moves by a diagonal similarity and the factor
    e^c), lam -> lam + c among them. The chain is irreducible, so these
    are exactly the directions of zero asymptotic variance (Kemeny-Snell,
    Finite Markov Chains): the null space of the Hessian, read once at
    lam = 0 from its eigendecomposition. A gradient along them means the
    component cannot carry nu, and D is returned as -inf. Newton steps
    solve the Newton system on the other directions by least squares,
    the first with that Hessian. Each is halved until D falls;
    near the optimum D moves by less than its rounding, and a step that
    lowers |grad D| is taken instead. The solve stops once |grad D| <=
    DUAL_TOLERANCE, once D < -DUAL_TOLERANCE, when no step is taken or
    after NEWTON_STEPS steps, and returns D, grad D, the edge masses, the
    number of steps and the last lam."""
    import numpy as np

    m = len(nu)

    def hessian(grad, q):
        pi = np.bincount(src, weights=q, minlength=n)
        prob = q / pi[src]
        chain = np.zeros((n, n))
        chain[src, dst] = prob
        group = np.linalg.inv(np.eye(n) - chain + pi) - pi
        # each image word's mass by suffix, and probability by prefix
        ends = np.bincount(cell * n + dst, weights=q,
                           minlength=m * n).reshape(m, n)
        starts = np.bincount(cell * n + src, weights=prob,
                             minlength=m * n).reshape(m, n)
        cross = ends @ group @ starts.T
        mass = grad + nu
        return np.diag(mass) - np.outer(mass, mass) + cross + cross.T

    lam = np.zeros(m)
    value, grad, q, right = _dual_point(lam, cell, src, dst, np.ones(n), nu)
    curvature = hessian(grad, q)
    eigenvalues, basis = np.linalg.eigh(curvature)
    flat, curved = np.split(basis.T, [np.count_nonzero(
        eigenvalues <= 1e-9 * max(eigenvalues[-1], 1.0))])
    if np.abs(flat.T @ (flat @ grad)).max() > DUAL_TOLERANCE:
        return -np.inf, grad, q, 0, lam
    steps = 0
    while steps < NEWTON_STEPS:
        gap = np.abs(grad).max()
        if gap <= DUAL_TOLERANCE or value < -DUAL_TOLERANCE:
            break
        if steps:
            curvature = hessian(grad, q)
        step = curved.T @ np.linalg.lstsq(
            curved @ curvature @ curved.T, curved @ grad, rcond=None)[0]
        rounding = 1e-15 * (1.0 + np.abs(lam).max())
        for halving in range(40):
            trial = lam - step / 2 ** halving
            point = _dual_point(trial, cell, src, dst, right, nu)
            if point[0] < value or (point[0] <= value + rounding
                                    and np.abs(point[1]).max() < gap):
                break
        else:
            break
        lam = trial
        value, grad, q, right = point
        steps += 1
    return value, grad, q, steps, lam


def relative_entropy_upper_bound(t, measure, k):
    """Upper bound for the maximal entropy among measures on the domain
    pushing forward to the given Markov measure on the image presentation.

    Any such measure induces a weight vector q on admissible (k+1)-blocks
    of the domain that is prefix/suffix consistent and projects to the
    image (k+1)-word measures nu, and its entropy is at most the
    conditional block entropy H(x_k | x_0..x_{k-1}) of q; the relaxation
    maximizes that over q. By the Gibbs variational principle, weighting
    each block by e^lam[its image word] for any lam gives the upper bound
    D(lam) = log rho(A) - lam . nu, where A is the weighted matrix from
    prefix to suffix k-blocks, and D is convex.

    The solve runs on the class graph and lists no domain block. A
    block's weight depends only on its image word, and a k-block's
    successors only on its last symbol, so the k-blocks with one image
    k-word w and one last symbol s (a symbol ``step`` reaches along w)
    form a class (w, s), and every member of a class has exactly one
    successor in each class it reaches: the partition is equitable
    (Kemeny-Snell, Finite Markov Chains, 6.3). The class graph has an
    edge (w, s) -> (w[1:]c, s') carrying wc for each nu-positive word wc
    and each s' in ``_label_masks(t, True)[s][c]``.

    nu is ergodic, so the relaxation's supremum is attained by an ergodic
    lift, whose blocks lie in one strongly connected piece of the pruned
    block graph, over one strongly connected component C of the pruned
    class graph. A piece over C has rho(A) <= rho_C at every lam, with
    equality on the closed ones, so each component is solved on its own
    (``_dual_piece``) and the largest D reported. A component that lacks
    an image word, or whose D falls below -tolerance, is dropped: by weak
    duality one that can carry nu has D >= 0 at every lam.

    The solve's Hessian has m x m entries for m image words: past
    SOLVE_ENTRY_BUDGET, the PreconditionError comes right after the words
    are listed, and a component whose class matrix would pass it is
    refused before it is built.
    """
    import numpy as np

    if k < 1:
        raise InputError("k must be >= 1")
    support = _measure_support(t, measure)
    positive = image_blocks(support, k + 1)
    if len(positive) ** 2 > SOLVE_ENTRY_BUDGET:
        raise PreconditionError(
            "the entropy bound's solve over %d image words needs a matrix "
            "of %d entries, more than the limit of %d"
            % (len(positive), len(positive) ** 2, SOLVE_ENTRY_BUDGET))
    nu = {w: _word_measure(support, measure, w) for w in positive}
    words = sorted(nu)
    m = len(words)
    cell_index = {w: i for i, w in enumerate(words)}
    targets = np.array([nu[w] for w in words])

    # an edge (w, s) -> (w[1:]c, s') per nu-positive wc, keyed (wc, s, s')
    symbols, table = t.x.symbols, _label_masks(t, True)
    edges = {}
    for w in words:
        for i in _bit_indices(reduce(partial(step, table), w[1:k],
                                     _bits(t)[1][w[0]])):
            for j in _bit_indices(table[i].get(w[k], 0)):
                edges[(w, symbols[i], symbols[j])] = ((w[:k], symbols[i]),
                                                      (w[1:], symbols[j]))
    component_of = _prune_support(edges)
    components = {}
    for e, i in component_of.items():
        components.setdefault(i, []).append(e)

    best = None
    converged = True
    iterations = 0
    for component in components.values():
        cell = np.array([cell_index[w] for w, _, _ in component],
                        dtype=np.intp)
        if np.bincount(cell, minlength=m).min() == 0:
            continue
        cindex = {}
        src = np.array([cindex.setdefault(edges[e][0], len(cindex))
                        for e in component], dtype=np.intp)
        dst = np.array([cindex.setdefault(edges[e][1], len(cindex))
                        for e in component], dtype=np.intp)
        n = len(cindex)
        if n * n > SOLVE_ENTRY_BUDGET:
            raise PreconditionError(
                "the entropy bound's solve on a class component of %d "
                "classes needs a matrix of %d entries, more than the limit "
                "of %d" % (n, n * n, SOLVE_ENTRY_BUDGET))
        value, grad, q, steps, lam = _dual_piece(cell, src, dst, n, targets)
        iterations += steps
        if value < -DUAL_TOLERANCE:
            continue
        converged = converged and np.abs(grad).max() <= DUAL_TOLERANCE
        if best is None or value > best[0]:
            best = (value, grad, q, src, dst, n, lam, component)
    if best is None:
        raise AssertionError("no component of the class graph carries the "
                             "image measure")
    value, grad, q, src, dst, n, lam, component = best
    marginal = np.abs(np.bincount(src, weights=q, minlength=n)
                      - np.bincount(dst, weights=q, minlength=n)).max()
    return RelativeEntropyBound(
        k=k, value=max(float(value), 0.0),
        residuals={"image": float(np.abs(grad).max()),
                   "marginal": float(marginal)},
        iterations=iterations, converged=bool(converged),
        tolerance=DUAL_TOLERANCE, optimizer=dict(zip(component, q.tolist())),
        dual=dict(zip(words, lam.tolist())))
