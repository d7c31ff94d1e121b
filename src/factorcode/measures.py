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
from math import isfinite, log

from . import graphs
from .core import (MeasureParseError, PeriodicPoint, PreconditionError,
                   enumerate_blocks, primitive_root, sub_triple)
from .codes import (_bit_indices, _check_image_word, _label_masks,
                    image_blocks, sofic_image)

ROW_SUM_TOLERANCE = 1e-9
# The Newton solve of the relative entropy bound stops on each piece
# once the gradient of the dual is within the tolerance, or at the cap.
DUAL_TOLERANCE = 1e-12
NEWTON_STEPS = 100
# Noda steps allowed for one Perron vector. The benchmark pools need 10
# at most; a cold start on a matrix whose entries span 200 orders of
# magnitude, a few hundred.
_PERRON_STEPS = 1000
# Most entries of the dense affine-kernel system and the k-block matrix of
# one piece of the entropy bound's solve. The largest piece of the
# benchmark pools needs 533 x 147 and 130 x 130.
SOLVE_ENTRY_BUDGET = 4_000_000
# Most walks of the domain, of 1 to k steps, that the entropy bound at k
# may take to list its (k+1)-blocks; their number grows exponentially
# with k. The benchmark pools need 695 at most (533 blocks of length 4),
# and the full shift on four symbols passes the limit at k = 8.
DOMAIN_WALK_BUDGET = 100_000
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
            raise ValueError("kernel entry on unknown states %r -> %r"
                             % (s, t))
        if not isfinite(p):
            raise ValueError("non-finite kernel probability for %r -> %r"
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
    pres = sofic_image(t).triple
    _require_presentation_measure(measure, pres)
    keep = set(measure.support_states())
    return sub_triple(pres, keep, (e for e in measure.kernel
                                   if e[0] in keep and e[1] in keep))


def image_word_measure(t, measure, word):
    """Measure of a finite image word under a Markov measure on the states
    of the code's image presentation."""
    pres = sofic_image(t).triple
    _require_presentation_measure(measure, pres)
    word = tuple(word)
    if not word:
        return 1.0
    return _word_measure(pres, measure, _check_image_word(t, word))


def pqs_bound(t, measure):
    """Preimage-count bound for the class degree relative to a measure on
    the image presentation: the smallest number of preimage symbols among
    measure-positive image symbols, a positive integer."""
    return min(len(t.preimages(c))
               for c in _measure_support(t, measure).y_alphabet)


@dataclass
class RelativeEntropyBound:
    """Result of the k-block relative entropy relaxation.

    ``value`` is in nats: the dual value D at the last Newton iterate of
    the piece where it is largest, or 0 where that D is negative (the
    relaxation is an entropy, so never below 0), an upper bound for the
    relaxation whether or not the solve converged. ``optimizer`` maps
    the admissible (k+1)-blocks of the domain kept by pruning, symbol
    tuples, lexicographic in domain-symbol order, to the weights of that
    iterate's Gibbs chain, 0 off its piece;
    ``residuals`` reports the largest violation of the image and
    marginal constraint families by the optimizer (the image one is
    |grad D|). ``iterations`` counts Newton steps over all pieces.
    ``converged`` is true when every piece that can carry the image
    measure reached |grad D| <= ``tolerance``."""

    k: int
    value: float
    optimizer: dict
    residuals: dict
    iterations: int
    converged: bool
    tolerance: float


def _prune_support(blocks):
    """The blocks that can carry weight under marginal consistency, each
    mapped to the number of the strongly connected piece it lies in, in
    the order given: symbol tuples, lexicographic in domain-symbol order,
    as ``enumerate_blocks`` lists them.

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
    return {U: component[U[:-1]] for U in blocks
            if component[U[:-1]] == component[U[1:]]}


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


def _dual_piece(cell, src, dst, n, nu):
    """Newton's method on the dual D of one strongly connected piece.

    Block i runs from k-block ``src[i]`` to k-block ``dst[i]`` (numbered
    0..n-1 within the piece) and carries image word ``cell[i]``. For lam
    over the image words, A holds e^lam[cell[i]] at (src[i], dst[i]) and
    D(lam) = log rho(A) - lam . nu. ``_gibbs_chain`` gives rho, from
    above, so that every D is an upper bound, and the Gibbs chain's mass
    of every block; each evaluation starts its Perron iteration from the
    vector of the point it steps from (ones at lam = 0). grad D is the
    chain's mass of each image word minus nu, and the Hessian their
    asymptotic covariance, through the group inverse (I - P + 1 pi)^-1 -
    1 pi of I - P, with P the chain's transition matrix and pi its
    stationary law. That is rho times the group inverse of rho I - A up
    to a diagonal similarity, and unlike it stays well conditioned when
    lam spreads the entries of A over many orders of magnitude.

    D is affine along the directions v with v[cell] = phi[dst] - phi[src]
    + c on every block (A moves by a diagonal similarity and the factor
    e^c): lam -> lam + c, and the direction of any image word the piece
    lacks, among others. They are the kernel of that linear system over
    (v, phi, c), restricted to v, read off the SVD of the R factor of the
    system's QR decomposition: it has the system's singular values and
    right singular vectors, without the blocks x blocks left factor. A
    gradient along them means the piece cannot carry nu, and D is
    returned as -inf; so is it at once for a piece that lacks an image
    word. Newton steps solve the Newton system on the other directions
    by least squares. Each is halved until D falls; near the optimum D
    moves by less than its rounding, and a step that lowers |grad D| is
    taken instead. The solve stops once |grad D| <= DUAL_TOLERANCE, once
    D < -DUAL_TOLERANCE, when no step is taken or after NEWTON_STEPS
    steps, and returns D, grad D, the block masses and the number of
    steps.

    PreconditionError, before any matrix is built, when the linear system
    (blocks x (image words + k-blocks + 1)) or A has more than
    SOLVE_ENTRY_BUDGET entries. A piece with a block for every image
    word has at least as many blocks as image words and as k-blocks, so
    every matrix of its solve is within a few times that budget."""
    import numpy as np

    m = len(nu)
    if np.bincount(cell, minlength=m).min() == 0:
        return -np.inf, None, None, 0
    entries = max(len(cell) * (m + n + 1), n * n)
    if entries > SOLVE_ENTRY_BUDGET:
        raise PreconditionError(
            "the entropy bound's solve on a piece of %d blocks needs a "
            "matrix of %d entries, more than the limit of %d"
            % (len(cell), entries, SOLVE_ENTRY_BUDGET))

    def evaluate(lam, x):
        # D ignores a shift of lam; this one keeps every weight <= 1
        shift = lam.max()
        rho, q, right = _gibbs_chain(np.exp(lam[cell] - shift), src, dst, x)
        grad = np.bincount(cell, weights=q, minlength=m) - nu
        return log(rho) + shift - lam @ nu, grad, q, right

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

    # the directions where D is affine: the kernel of ``system`` over
    # (v, phi, c), restricted to v
    rows = np.arange(len(cell))
    system = np.zeros((len(cell), m + n + 1))
    system[rows, cell] = 1.0
    np.add.at(system, (rows, m + src), 1.0)
    np.add.at(system, (rows, m + dst), -1.0)
    system[:, -1] = -1.0
    sing, basis = np.linalg.svd(np.linalg.qr(system, mode="r"))[1:]
    kernel = basis[np.count_nonzero(sing > 1e-9 * sing[0]):, :m]
    sing, basis = np.linalg.svd(kernel)[1:]
    flat = basis[:np.count_nonzero(sing > 1e-9)]
    curved = basis[len(flat):]

    lam = np.zeros(m)
    value, grad, q, right = evaluate(lam, np.ones(n))
    if np.abs(flat.T @ (flat @ grad)).max() > DUAL_TOLERANCE:
        return -np.inf, grad, q, 0
    steps = 0
    while steps < NEWTON_STEPS:
        gap = np.abs(grad).max()
        if gap <= DUAL_TOLERANCE or value < -DUAL_TOLERANCE:
            break
        step = curved.T @ np.linalg.lstsq(
            curved @ hessian(grad, q) @ curved.T, curved @ grad,
            rcond=None)[0]
        rounding = 1e-15 * (1.0 + np.abs(lam).max())
        for halving in range(40):
            trial = lam - step / 2 ** halving
            point = evaluate(trial, right)
            if point[0] < value or (point[0] <= value + rounding
                                    and np.abs(point[1]).max() < gap):
                break
        else:
            break
        lam = trial
        value, grad, q, right = point
        steps += 1
    return value, grad, q, steps


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

    nu is ergodic, so the relaxation's supremum is attained by an ergodic
    lift, whose blocks lie in one strongly connected piece of the pruned
    block graph. Each piece is solved on its own (``_dual_piece``) and
    the largest D reported. A piece whose D falls below -tolerance is
    dropped: by weak duality one that can carry nu has D >= 0 at every
    lam. A linear algebra failure in the solve is raised as RuntimeError,
    an internal error, since numpy's LinAlgError is a ValueError.

    A piece that can carry nu has a block per image word, so m words need
    a system of at least m(m + 1) entries: past SOLVE_ENTRY_BUDGET, the
    PreconditionError comes right after the words are listed, before any
    domain block is. So does the one for more than DOMAIN_WALK_BUDGET
    walks of the domain of up to k steps, counted without listing one.
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    support = _measure_support(t, measure)
    positive = image_blocks(support, k + 1)
    least = len(positive) * (len(positive) + 1)
    if least > SOLVE_ENTRY_BUDGET:
        raise PreconditionError(
            "the entropy bound's solve over %d image words needs a matrix "
            "of at least %d entries, more than the limit of %d"
            % (len(positive), least, SOLVE_ENTRY_BUDGET))
    nu = {w: _word_measure(support, measure, w) for w in positive}
    if graphs.count_walks(t.x.successor_map, t.x.symbols, k,
                          DOMAIN_WALK_BUDGET) > DOMAIN_WALK_BUDGET:
        raise PreconditionError(
            "the domain blocks of length up to %d take more than %d walks "
            "of the domain, the limit" % (k + 1, DOMAIN_WALK_BUDGET))
    piece_of = _prune_support(
        U for U in enumerate_blocks(t.x, k + 1) if t.label_word(U) in nu)
    blocks = list(piece_of)
    words = sorted(nu)
    cell_index = {w: i for i, w in enumerate(words)}
    targets = np.array([nu[w] for w in words])

    pieces = {}
    for i, U in enumerate(blocks):
        pieces.setdefault(piece_of[U], []).append(i)
    best = None
    converged = True
    iterations = 0
    for piece in pieces.values():
        cell = np.array([cell_index[t.label_word(blocks[i])] for i in piece],
                        dtype=np.intp)
        kindex = {}
        src = np.array([kindex.setdefault(blocks[i][:k], len(kindex))
                        for i in piece], dtype=np.intp)
        dst = np.array([kindex.setdefault(blocks[i][1:], len(kindex))
                        for i in piece], dtype=np.intp)
        try:
            value, grad, q, steps = _dual_piece(cell, src, dst, len(kindex),
                                                targets)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("entropy bound solve failed: %s" % exc) from exc
        iterations += steps
        if value < -DUAL_TOLERANCE:
            continue
        converged = converged and np.abs(grad).max() <= DUAL_TOLERANCE
        if best is None or value > best[0]:
            best = (value, grad, q, piece, src, dst, len(kindex))
    if best is None:
        raise AssertionError("no piece of the block graph carries the "
                             "image measure")

    value, grad, q, piece, src, dst, n = best
    weights = np.zeros(len(blocks))
    weights[piece] = q
    marginal = np.abs(np.bincount(src, weights=q, minlength=n)
                      - np.bincount(dst, weights=q, minlength=n)).max()
    return RelativeEntropyBound(
        k=k, value=max(float(value), 0.0),
        optimizer=dict(zip(blocks, weights.tolist())),
        residuals={"image": float(np.abs(grad).max()),
                   "marginal": float(marginal)},
        iterations=iterations, converged=bool(converged),
        tolerance=DUAL_TOLERANCE)


def uniform_conditional_diagnostic(t, bound):
    """Largest total-variation gap between the optimizer's center-coordinate
    conditionals and the uniform distribution on the locally admissible
    fiber symbols.

    The optimizer's (k+1)-block weights extend canonically to a stationary
    k-step Markov law on (2k+1)-windows; for every window context and
    center image symbol, the conditional law of the center is compared
    with the uniform law on {a : previous -> a -> next allowed, label(a) =
    center image symbol}. Values near zero are the signature of a relative
    maximal entropy measure at window scale.

    The windows are built as arrays, all at once, in lexicographic domain
    symbol order: a window of weight w whose last block ends in the
    k-block W extends by each block U with prefix W, to weight
    (w * q(U)) / m(W). Each window is the only one with its (left
    context, center, right context), so a context's total is the sum of
    its windows' weights in center order, and its gap half the sum of
    |weight / total - share| over its admissible symbols in symbol order;
    both sums are taken with ``bincount`` in those orders."""
    import numpy as np

    k = bound.k
    q = bound.optimizer
    symbols = t.x.symbols
    xorder = {s: i for i, s in enumerate(symbols)}

    def word_key(word):
        return tuple(xorder[s] for s in word)

    blocks = sorted((U for U, p in q.items() if p > 0), key=word_key)
    if not blocks:
        return 0.0
    codes = np.array([word_key(U) for U in blocks], dtype=np.intp)
    weight = np.array([q[U] for U in blocks])
    kindex = {}
    prefix = np.array([kindex.setdefault(U[:k], len(kindex))
                       for U in blocks], dtype=np.intp)
    suffix = np.array([kindex.setdefault(U[1:], len(kindex))
                       for U in blocks], dtype=np.intp)
    marginal = np.bincount(prefix, weights=weight, minlength=len(kindex))
    # blocks sharing a prefix are consecutive in lexicographic order, and
    # prefixes are numbered in that order, so they run in ascending runs
    fanout = np.bincount(prefix, minlength=len(kindex))
    first = np.cumsum(fanout) - fanout

    def ranges(starts, counts):
        """The ranges [starts[i], starts[i] + counts[i]) laid end to end,
        and the i each entry came from."""
        owner = np.repeat(np.arange(len(counts)), counts)
        offset = np.cumsum(counts) - counts
        return owner, starts[owner] + np.arange(len(owner)) - offset[owner]

    head = last = np.arange(len(blocks))
    w = weight
    for _ in range(k):
        tail = suffix[last]
        rep, child = ranges(first[tail], fanout[tail])
        w = (w[rep] * weight[child]) / marginal[tail[rep]]
        head, last = head[rep], child

    center = codes[head, k]
    ylabel = {c: i for i, c in enumerate(t.y_alphabet)}
    label_of = np.array([ylabel[t.label[s]] for s in symbols],
                        dtype=np.intp)
    ny = len(t.y_alphabet)
    context = ((prefix[head] * len(kindex) + suffix[last]) * ny
               + label_of[center])
    _, where, group = np.unique(context, return_index=True,
                                return_inverse=True)
    totals = np.bincount(group, weights=w)

    # admissible symbols per (previous symbol, center label, next symbol)
    n = len(symbols)
    triple = ((codes[head[where], k - 1] * ny + label_of[center[where]]) * n
              + codes[last[where], 1])
    triples, kind = np.unique(triple, return_inverse=True)
    after, before = _label_masks(t, True), _label_masks(t, False)
    admissible = []
    for code in triples.tolist():
        rest, nxt = divmod(code, n)
        prev, y0 = divmod(rest, ny)
        c = t.y_alphabet[y0]
        admissible.append(list(_bit_indices(after[prev].get(c, 0)
                                            & before[nxt].get(c, 0))))
    size = np.array([len(a) for a in admissible], dtype=np.intp)
    flat = np.array([a for adm in admissible for a in adm], dtype=np.intp)

    # one entry per (context, admissible symbol), in ascending (context,
    # symbol) order, holding the weight of the window with that context
    # and center, else 0
    count = size[kind]
    entry_group, at = ranges((np.cumsum(size) - size)[kind], count)
    entry_key = entry_group * n + flat[at]
    window_key = group * n + center
    pos = np.minimum(np.searchsorted(entry_key, window_key),
                     len(entry_key) - 1)
    hit = entry_key[pos] == window_key
    dist = np.zeros(len(entry_key))
    dist[pos[hit]] = w[hit]

    # contexts of negligible mass are skipped
    valid = totals > 1e-15
    totals = np.where(valid, totals, 1.0)
    gaps = 0.5 * np.bincount(
        entry_group,
        weights=np.abs(dist / totals[entry_group]
                       - 1.0 / count[entry_group]),
        minlength=len(count))
    return float(gaps[valid].max(initial=0.0))
