"""Tests for Markov measures, entropies, and the relative entropy bound."""

import functools
import json
import os
import subprocess
import sys
import random
from math import log, sqrt
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    FIXTURE_NAMES,
    MEASURE_PAIRS,
    all_cycle_words,
    all_words,
    closed_class_measure,
    image_measure,
    random_code,
    random_triple,
    ref_affine_directions,
    ref_block_optimizer,
    ref_orbit_entropy,
    ref_orbit_radii,
    ref_perron,
    ref_positive_word_measures,
    ref_relative_entropy_upper_bound,
    ref_uniform_conditional_diagnostic,
)
import factorcode
from factorcode import cli, graphs, measures
from factorcode.codes import image_blocks
from factorcode import (
    MeasureParseError,
    PeriodicPoint,
    PreconditionError,
    build_fiber_graph,
    entropy_rate,
    fixtures,
    image_word_measure,
    make_sft,
    markov_measure,
    orbit_measure,
    parry_measure,
    parse_measure,
    parse_triple,
    pqs_bound,
    relative_entropy_upper_bound,
    sofic_image,
    spectral_entropy,
    transition_classes,
)

GOLDEN = (1 + sqrt(5)) / 2

PQS_EXPECTED = {
    ("fix_a", "parry"): 1,
    ("fix_b", "point"): 2,
    ("fix_c", "point"): 2,
    ("fix_d", "parry"): 2,
    ("fix_e", "parry"): 3,
    ("fix_e", "orbit01"): 3,
    ("fix_g", "parry"): 1,
}


def golden_mean():
    return make_sft(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])


def test_markov_measure_validation():
    x = golden_mean()
    with pytest.raises(ValueError, match="unknown states"):
        markov_measure(x, {("0", "z"): 1.0})
    with pytest.raises(ValueError, match="negative"):
        markov_measure(x, {("0", "0"): 1.2, ("0", "1"): -0.2,
                           ("1", "0"): 1.0})
    with pytest.raises(ValueError, match="forbidden transition"):
        markov_measure(x, {("0", "0"): 0.5, ("0", "1"): 0.5,
                           ("1", "0"): 0.5, ("1", "1"): 0.5})
    with pytest.raises(ValueError, match="sums to"):
        markov_measure(x, {("0", "0"): 0.6, ("0", "1"): 0.6,
                           ("1", "0"): 1.0})
    two = make_sft(("0", "1"), [("0", "0"), ("1", "1"), ("0", "1")])
    with pytest.raises(PreconditionError, match="not ergodic"):
        markov_measure(two, {("0", "0"): 1.0, ("1", "1"): 1.0})


def test_markov_measure_invariants_and_rows():
    x = golden_mean()
    m = markov_measure(x, {("0", "0"): 0.5, ("0", "1"): 0.5,
                           ("1", "0"): 1.0})
    assert set(m.support_states()) == {"0", "1"}
    assert {u: p for (s, u), p in m.kernel.items() if s == "0"} \
        == {"0": 0.5, "1": 0.5}
    assert abs(sum(m.stationary.values()) - 1.0) < 1e-12
    for s in x.symbols:
        flow = sum(m.stationary[u] * m.kernel.get((u, s), 0.0)
                   for u in x.symbols)
        assert abs(flow - m.stationary[s]) < 1e-10


@pytest.mark.parametrize("kernel, stationary, message", [
    ({("0", "0"): 0.5, ("0", "1"): 0.6, ("1", "0"): 1.0},
     {"0": 0.625, "1": 0.375}, "drifted from stochastic"),
    ({("0", "0"): 0.5, ("0", "1"): 0.5, ("1", "0"): 1.0},
     {"0": 0.5, "1": 0.5}, "not kernel invariant"),
])
def test_measure_invariants_are_checked_under_python_O(kernel, stationary,
                                                       message):
    code = (
        "from factorcode import make_sft\n"
        "from factorcode.measures import MarkovMeasure, _check_invariants\n"
        "x = make_sft(('0', '1'), [('0', '0'), ('0', '1'), ('1', '0')])\n"
        "_check_invariants(MarkovMeasure(x, %r, %r))\n"
        % (kernel, stationary))
    env = dict(os.environ,
               PYTHONPATH=str(Path(factorcode.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode != 0
    assert message in proc.stderr


def test_measure_with_transient_state_has_zero_mass_there():
    x = make_sft(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")])
    m = markov_measure(x, {("a", "a"): 0.5, ("a", "b"): 0.5,
                           ("b", "b"): 1.0})
    assert m.stationary["a"] == 0.0
    assert m.stationary["b"] == 1.0
    assert entropy_rate(m) == 0.0


def test_spectral_entropy_frozen_values():
    assert abs(spectral_entropy(golden_mean()) - log(GOLDEN)) <= 1e-15
    assert abs(spectral_entropy(fixtures.load("fix_c").x) - log(2)) <= 1e-15
    assert abs(spectral_entropy(fixtures.load("fix_b").x)) <= 1e-15
    reducible = make_sft(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")])
    with pytest.raises(PreconditionError, match="irreducible"):
        spectral_entropy(reducible)


def test_parry_measure_of_golden_mean():
    m = parry_measure(golden_mean())
    assert abs(m.stationary["0"] - (5 + sqrt(5)) / 10) < 1e-14
    assert abs(m.stationary["1"] - (5 - sqrt(5)) / 10) < 1e-14
    assert abs(m.kernel[("0", "0")] - 1 / GOLDEN) < 1e-14
    assert abs(m.kernel[("0", "1")] - 1 / GOLDEN ** 2) < 1e-14
    assert abs(m.kernel[("1", "0")] - 1.0) < 1e-14
    assert abs(entropy_rate(m) - log(GOLDEN)) < 1e-14


def test_parry_entropy_equals_spectral_entropy_on_every_fixture():
    """On the irreducible fixtures, on 100 seeded irreducible codes of 2
    to 40 domain symbols and on one of 300, the topological entropy is
    within 1e-13 of the log of ``eig``'s Perron root of the transition
    matrix, and so is the entropy of the Parry measure, whose kernel
    must pass the 1e-9 row-sum check of ``markov_measure`` at 300 symbols
    too."""
    domains = [fixtures.load(name).x for name in FIXTURE_NAMES]
    for seed in range(100):
        rng = random.Random(seed)
        domains.append(random_code(rng, rng.randint(2, 40), False).x)
    domains.append(random_code(random.Random(3), 300, False).x)
    checked = 0
    for x in domains:
        if not x.is_irreducible:
            continue
        index = {s: i for i, s in enumerate(x.symbols)}
        a = np.zeros((len(index), len(index)))
        for s, t in x.transitions:
            a[index[s], index[t]] = 1.0
        h = log(ref_perron(a)[0])
        assert abs(spectral_entropy(x) - h) <= 1e-13
        assert abs(entropy_rate(parry_measure(x)) - h) <= 1e-13
        checked += 1
    assert checked >= 100


def test_orbit_measure_pair_frequencies():
    x = fixtures.load("fix_c").x
    m = orbit_measure(x, PeriodicPoint(("0", "0", "1", "1")))
    assert m.stationary == {"0": 0.5, "1": 0.5}
    assert m.kernel[("0", "0")] == 0.5
    assert m.kernel[("0", "1")] == 0.5
    assert m.kernel[("1", "1")] == 0.5
    assert m.kernel[("1", "0")] == 0.5
    assert abs(entropy_rate(m) - log(2)) < 1e-12
    deterministic = orbit_measure(x, PeriodicPoint(("0", "1")))
    assert entropy_rate(deterministic) == 0.0
    with pytest.raises(ValueError, match="not admissible"):
        orbit_measure(golden_mean(), PeriodicPoint(("1",)))


def test_parse_measure_round_trips_bundled_files():
    te = fixtures.load("fix_e")
    pres = sofic_image(te).triple
    m = parse_measure(fixtures.load_text("fix_e_orbit01.measure"), pres.x)
    assert m.stationary["b+d+e"] == 0.5
    assert m.stationary["a+c+f+g"] == 0.5
    assert m.stationary["a+f+g"] == 0.0
    tc = fixtures.load("fix_c")
    presc = sofic_image(tc).triple
    mc = parse_measure(fixtures.load_text("fix_c_point.measure"), presc.x)
    assert mc.stationary == {"0+1": 1.0}
    ta = fixtures.load("fix_a")
    ma = parse_measure(fixtures.load_text("fix_a_parry.measure"), ta.x)
    parry = parry_measure(ta.x)
    for key, p in parry.kernel.items():
        assert abs(ma.kernel[key] - p) < 1e-9


def test_parse_measure_renormalizes_within_tolerance():
    x = golden_mean()
    text = "states: 0 1\nrow 0: 0.4999999997 0.4999999998\nrow 1: 1 0\n"
    m = parse_measure(text, x)
    assert abs(m.kernel[("0", "0")] + m.kernel[("0", "1")] - 1.0) < 1e-15


def test_parse_measure_error_catalogue():
    x = golden_mean()
    cases = [
        ("bogus\n", "line 1: expected"),
        ("states: 0 1\nstates: 0 1\n", "line 2: duplicate states line"),
        ("states: 0 2\n", "line 1: unknown state '2'"),
        ("states: 0 0\n", "line 1: duplicate state '0'"),
        ("states: 0\n", "every state"),
        ("row 0: 1 0\n", "line 1: row before states"),
        ("states: 0 1\nrow z: 1 0\n", "row for unknown state 'z'"),
        ("states: 0 1\nrow 0: .5 .5\nrow 0: .5 .5\n",
         "line 3: duplicate row"),
        ("states: 0 1\nrow 0: 1\n", "expected 2 probabilities"),
        ("states: 0 1\nrow 0: half 0.5\n", "invalid probability 'half'"),
        ("states: 0 1\nrow 0: -1 2\n", "negative probability"),
        ("states: 0 1\nwhat: 1\n", "unknown directive 'what'"),
        ("# only a comment\n", "missing states line"),
        ("states: 0 1\nrow 0: .5 .5\n", "missing row for state '1'"),
        ("states: 0 1\nrow 0: .4 .5\nrow 1: 1 0\n", "sums to"),
        ("states: 0 1\nrow 0: .5 .5\nrow 1: 0 1\n", "forbidden transition"),
    ]
    for text, needle in cases:
        with pytest.raises(MeasureParseError, match=needle):
            parse_measure(text, x)


def test_non_finite_probabilities_are_rejected():
    x = golden_mean()
    # nan compares false both ways: it used to be dropped by the parser
    # and to pass the row-sum test, reaching LAPACK
    for token in ("nan", "inf", "-inf", "NaN"):
        text = "states: 0 1\nrow 0: 0.5 %s\nrow 1: 1 0\n" % token
        with pytest.raises(MeasureParseError,
                           match="line 2: non-finite probability '%s'"
                           % token):
            parse_measure(text, x)
    with pytest.raises(MeasureParseError, match="line 3: non-finite"):
        parse_measure("states: 0 1\nrow 0: .5 .5\nrow 1: 1 nan\n", x)
    for p in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError,
                           match="non-finite kernel probability for "
                                 "'0' -> '1'"):
            markov_measure(x, {("0", "0"): 0.5, ("0", "1"): p,
                               ("1", "0"): 1.0})


def test_parse_measure_ergodicity_failure_is_a_precondition_error():
    two = make_sft(("0", "1"), [("0", "0"), ("1", "1"), ("0", "1")])
    text = "states: 0 1\nrow 0: 1 0\nrow 1: 0 1\n"
    with pytest.raises(PreconditionError, match="not ergodic"):
        parse_measure(text, two)


def brute_word_measure(pres, measure, word):
    total = 0.0
    for u in all_words(pres.x, len(word)):
        if tuple(pres.label[s] for s in u) != tuple(word):
            continue
        p = measure.stationary[u[0]]
        for a, b in zip(u, u[1:]):
            p *= measure.kernel.get((a, b), 0.0)
        total += p
    return total


def test_image_word_measure_matches_brute_path_sums():
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        pres, measure = image_measure(t, kind)
        for n in (1, 2, 3, 4):
            words = {t.label_word(u) for u in all_words(t.x, n)}
            for w in sorted(words):
                got = image_word_measure(t, measure, w)
                assert abs(got - brute_word_measure(pres, measure, w)) \
                    < 1e-12


def test_image_word_measure_is_additive_under_extension():
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        for n in (1, 2, 3):
            words = {t.label_word(u) for u in all_words(t.x, n)}
            for w in sorted(words):
                nu = image_word_measure(t, measure, w)
                right = sum(image_word_measure(t, measure, w + (c,))
                            for c in t.y_alphabet)
                left = sum(image_word_measure(t, measure, (c,) + w)
                           for c in t.y_alphabet)
                assert abs(nu - right) < 1e-12
                assert abs(nu - left) < 1e-12


def test_image_word_measure_specific_values():
    t = fixtures.load("fix_e")
    _, measure = image_measure(t, "orbit01")
    assert abs(image_word_measure(t, measure, ("0", "1")) - 0.5) < 1e-12
    assert image_word_measure(t, measure, ("0", "0")) == 0.0
    assert image_word_measure(t, measure, ()) == 1.0
    with pytest.raises(ValueError, match="unknown image symbol"):
        image_word_measure(t, measure, ("z",))


def test_image_word_measure_rejects_foreign_measures():
    t = fixtures.load("fix_e")
    _, measure = image_measure(fixtures.load("fix_c"), "point")
    with pytest.raises(PreconditionError, match="presentation"):
        image_word_measure(t, measure, ("0",))


def test_pqs_bound_frozen_and_recomputed():
    for (name, kind), expected in PQS_EXPECTED.items():
        t = fixtures.load(name)
        pres, measure = image_measure(t, kind)
        got = pqs_bound(t, measure)
        assert got == expected
        by_hand = min(
            len(t.preimages(c))
            for c in t.y_alphabet
            if sum(measure.stationary[s] for s in pres.x.symbols
                   if pres.label[s] == c) > 0)
        assert got == by_hand


def support_word_measures(t, measure, n):
    support = measures._measure_support(t, measure)
    return {w: measures._word_measure(support, measure, w)
            for w in image_blocks(support, n)}


def test_support_words_carry_the_walked_measures_exactly():
    """The image blocks of the support presentation, weighed one by one,
    are the measure-positive words of the depth-first walk, with the same
    values bit for bit and in the same order."""
    cases = []
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        cases.append((t,) + image_measure(t, kind))
    for seed in range(8):
        rng = random.Random(seed)
        t = random_code(rng, rng.randint(4, 7), reducible=bool(seed % 2))
        pres = sofic_image(t).triple
        cycle = next(w for n in (2, 3, 1) for w in all_cycle_words(pres.x, n))
        orbit = orbit_measure(pres.x, PeriodicPoint(cycle))
        cases.append((t, pres, orbit))
        if pres.x.is_irreducible:
            # the same orbit with every other state transient
            cases += [(t, pres, closed_class_measure(pres.x, orbit.kernel)),
                      (t, pres, parry_measure(pres.x))]
    for t, pres, measure in cases:
        for k in (1, 2, 3, 4):
            got = support_word_measures(t, measure, k + 1)
            ref = ref_positive_word_measures(pres, measure, k + 1)
            assert list(got.items()) == list(ref.items())


_BOUND_CACHE = {}


def bound_for(name, kind, k):
    key = (name, kind, k)
    if key not in _BOUND_CACHE:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        _BOUND_CACHE[key] = relative_entropy_upper_bound(t, measure, k)
    return _BOUND_CACHE[key]


def test_bound_exact_on_full_shift_fiber():
    for k in (1, 2, 3):
        b = bound_for("fix_c", "point", k)
        assert abs(b.value - log(2)) < 1e-12
        assert b.residuals["image"] < 1e-10
        assert b.residuals["marginal"] < 1e-10


def test_bound_exact_on_degenerate_orbit_support():
    # the fiber over the (01)-orbit of fix_e is three disjoint 2-cycles,
    # so the relative maximal entropy is 0; blocks off the cycles of the
    # block graph carry no circulation and are pruned before the solve
    for k in (1, 2, 3):
        b = bound_for("fix_e", "orbit01", k)
        assert b.value == 0.0
        assert b.residuals == {"image": 0.0, "marginal": 0.0}


def test_bound_exact_on_degree_one_and_degree_two_codes():
    ta = fixtures.load("fix_a")
    _, ma = image_measure(ta, "parry")
    h = entropy_rate(ma)
    for k in (1, 2):
        assert abs(bound_for("fix_a", "parry", k).value - h) < 1e-9
    for k in (1, 2):
        assert abs(bound_for("fix_b", "point", k).value) < 1e-12


def test_bound_optimizer_is_a_consistent_block_measure():
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        for k in (1, 2):
            b = bound_for(name, kind, k)
            q = ref_block_optimizer(t, b)
            assert all(v >= 0 for v in q.values())
            assert abs(sum(q.values()) - 1.0) < 1e-9
            assert b.residuals["image"] < 1e-8
            assert b.residuals["marginal"] < 1e-8
            assert b.value >= -1e-12
            cells = {}
            for U, v in q.items():
                assert t.x.admits_word(U)
                cells[t.label_word(U)] = cells.get(t.label_word(U), 0.0) + v
            for w, mass in cells.items():
                assert abs(mass - image_word_measure(t, measure, w)) < 1e-7


def test_residuals_report_true_constraint_violations():
    """The residuals, recomputed from the class-edge masses: each image
    word's mass against nu, and the mass leaving each class (w, s)
    against the mass entering it."""
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        b = bound_for(name, kind, 1)
        cells = {}
        prefix = {}
        suffix = {}
        for (w, s, s2), v in b.optimizer.items():
            cells[w] = cells.get(w, 0.0) + v
            prefix[(w[:-1], s)] = prefix.get((w[:-1], s), 0.0) + v
            suffix[(w[1:], s2)] = suffix.get((w[1:], s2), 0.0) + v
        image_r = max(abs(mass - image_word_measure(t, measure, w))
                      for w, mass in cells.items())
        marginal_r = max(abs(prefix.get(W, 0.0) - suffix.get(W, 0.0))
                         for W in set(prefix) | set(suffix))
        assert abs(b.residuals["image"] - image_r) < 1e-10
        assert abs(b.residuals["marginal"] - marginal_r) < 1e-10


def value_of_block_measure(q_items, k):
    prefix_mass = {}
    for U, v in q_items:
        prefix_mass[U[:k]] = prefix_mass.get(U[:k], 0.0) + v
    total = 0.0
    for U, v in q_items:
        if v > 0:
            total += v * log(prefix_mass[U[:k]] / v)
    return total


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def pool_bound_measures():
    """(name, t, measure) for the Parry and orbit measures of the
    entropy-bound pool's random codes."""
    cases = []
    for path in sorted(POOL.glob("bound-*.measure")):
        triple = path.name.rpartition("_")[0] + ".triple"
        t = parse_triple((POOL / triple).read_text())
        measure = parse_measure(path.read_text(), sofic_image(t).triple.x)
        cases.append((path.stem, t, measure))
    return cases


def fixture_and_pool_measures():
    """(name, t, measure) for the fixture measure pairs and the pool's
    bound-* measures."""
    cases = []
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        cases.append(("%s_%s" % (name, kind), t, image_measure(t, kind)[1]))
    return cases + pool_bound_measures()


def affine_direction_cases():
    """(name, t, measure): ``fixture_and_pool_measures``, and for seeded
    random triples the Parry measure where the presentation is
    irreducible and the orbit measure of a simple presentation cycle of
    length at most 3, where there is one."""
    cases = fixture_and_pool_measures()
    for seed in range(12):
        t = random_triple(random.Random(seed))
        pres = sofic_image(t).triple
        if pres.x.is_irreducible:
            cases.append(("s%d_parry" % seed, t, parry_measure(pres.x)))
        cycle = next((w for n in (3, 2, 1) for w in all_cycle_words(pres.x, n)
                      if len(set(w)) == n), None)
        if cycle:
            cases.append(("s%d_orbit" % seed, t,
                          orbit_measure(pres.x, PeriodicPoint(cycle))))
    return cases


def test_hessian_null_space_is_where_the_dual_is_affine(monkeypatch):
    """On an irreducible chain the asymptotic covariance of a functional
    of the edges vanishes exactly when it is a coboundary plus a
    constant (Kemeny-Snell, Finite Markov Chains). So the eigenvectors
    of the Hessian at lam = 0 with near-zero eigenvalues span the
    directions ``ref_affine_directions`` finds from the edges alone, and
    the other eigenvalues lie at least six orders of magnitude above
    them."""
    splits = []
    dual_piece, eigh = measures._dual_piece, np.linalg.eigh

    def spy_piece(cell, src, dst, n, nu):
        splits.append([ref_affine_directions(cell, src, dst, n, len(nu))])
        return dual_piece(cell, src, dst, n, nu)

    def spy_eigh(a):
        splits[-1].append(eigh(a))
        return splits[-1][-1]

    monkeypatch.setattr(measures, "_dual_piece", spy_piece)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    cases = affine_direction_cases()
    checked = set()
    for name, t, measure in cases:
        for k in (1, 2, 3, 4):
            splits.clear()
            relative_entropy_upper_bound(t, measure, k)
            for flat, (eigenvalues, basis) in splits:
                r = len(flat)
                near = basis[:, :r]
                assert np.abs(near @ near.T - flat.T @ flat).max() <= 1e-8, \
                    (name, k)
                assert r == np.count_nonzero(
                    eigenvalues <= 1e-9 * max(eigenvalues[-1], 1.0))
                if r < len(eigenvalues):
                    assert eigenvalues[r] >= 1e6 * np.abs(
                        eigenvalues[:r]).max(), (name, k)
                checked.add(name)
    assert len(checked) == len(cases)


@functools.lru_cache(maxsize=None)
def lifted_bounds():
    """(name, t, measure, bound, its reference block optimizer) for
    ``fixture_and_pool_measures`` at k = 1-4."""
    cases = fixture_and_pool_measures()
    assert len(cases) == 19
    out = []
    for name, t, measure in cases:
        for k in (1, 2, 3, 4):
            b = relative_entropy_upper_bound(t, measure, k)
            out.append((name, t, measure, b, ref_block_optimizer(t, b)))
    return tuple(out)


def test_bound_value_matches_independent_objective_evaluation():
    """The value, solved on the class graph, is the conditional block
    entropy of the block-level optimizer, evaluated on its own."""
    for name, _, _, b, lifted in lifted_bounds():
        assert abs(value_of_block_measure(list(lifted.items()), b.k)
                   - b.value) < 1e-9, (name, b.k)


def test_dual_and_class_edge_masses_fix_the_block_optimizer():
    """``dual`` holds lam on exactly the nu-positive image words, sorted,
    and the block-level optimizer lifted from it puts on the blocks of
    each class edge the edge's mass in ``optimizer``."""
    for name, t, measure, b, lifted in lifted_bounds():
        pres = sofic_image(t).triple
        words = ref_positive_word_measures(pres, measure, b.k + 1)
        assert list(b.dual) == sorted(w for w, v in words.items() if v > 0)
        per_edge = dict.fromkeys(b.optimizer, 0.0)
        for U, v in lifted.items():
            per_edge[(t.label_word(U), U[-2], U[-1])] += v
        assert len(per_edge) == len(b.optimizer), (name, b.k)
        assert max(abs(per_edge[e] - v)
                   for e, v in b.optimizer.items()) <= 1e-9, (name, b.k)


def test_bound_optimizer_is_locally_optimal():
    """Perturb the optimizer inside the feasible affine set: no nullspace
    direction supported on the optimizer's support may improve the
    concave objective. Only meaningful where the constraints hold."""
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        for k in (1, 2):
            b = bound_for(name, kind, k)
            if b.residuals["marginal"] >= 1e-8:
                continue
            lifted = ref_block_optimizer(t, b)
            support = [U for U, v in sorted(lifted.items(),
                                            key=lambda item: tuple(item[0]))
                       if v > 1e-10]
            if len(support) < 2:
                continue
            index = {U: i for i, U in enumerate(support)}
            rows = []
            labels = {}
            for U in support:
                labels.setdefault(t.label_word(U), []).append(index[U])
            for cols in labels.values():
                row = np.zeros(len(support))
                row[cols] = 1.0
                rows.append(row)
            kblocks = sorted({U[:k] for U in support} |
                             {U[1:] for U in support})
            for W in kblocks:
                row = np.zeros(len(support))
                for U in support:
                    if U[:k] == W:
                        row[index[U]] += 1.0
                    if U[1:] == W:
                        row[index[U]] -= 1.0
                rows.append(row)
            matrix = np.array(rows)
            _, sing, vt = np.linalg.svd(matrix)
            rank = int(np.sum(sing > 1e-10))
            null = vt[rank:]
            if not len(null):
                continue
            q = np.array([lifted[U] for U in support])
            base_value = value_of_block_measure(
                [(U, lifted[U]) for U in support], k)
            for d in null:
                step = min(1e-5, float(q.min()) / (2 * np.abs(d).max()))
                for sign in (1.0, -1.0):
                    moved = q + sign * step * d
                    assert moved.min() > 0
                    trial = value_of_block_measure(
                        list(zip(support, moved)), k)
                    assert trial <= base_value + 1e-9


def assert_matches_sequential_solver(t, measure, k):
    """The Newton solve on the dual converges and agrees with the primal
    oracle wherever the oracle met its constraints."""
    got = relative_entropy_upper_bound(t, measure, k)
    assert got.converged is True
    assert got.tolerance == 1e-12
    assert max(got.residuals.values()) <= 1e-12
    ref = ref_relative_entropy_upper_bound(t, measure, k)
    if max(ref.residuals.values()) < 1e-11:
        assert abs(got.value - ref.value) <= 1e-10


@pytest.mark.parametrize("k", (1, 2, 3))
def test_level_scheduled_solver_matches_sequential_one_on_fixtures(k):
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        assert_matches_sequential_solver(t, measure, k)


@pytest.mark.parametrize("seed", range(40))
def test_level_scheduled_solver_matches_sequential_one_on_random_codes(seed):
    rng = random.Random(seed)
    t = random_code(rng, rng.randint(4, 7), reducible=False)
    pres = sofic_image(t).triple
    cycle = next(w for n in (2, 3, 1) for w in all_cycle_words(pres.x, n))
    for measure in (parry_measure(pres.x),
                    orbit_measure(pres.x, PeriodicPoint(cycle))):
        for k in (1, 2):
            assert_matches_sequential_solver(t, measure, k)


def test_bound_blocks_are_symbol_tuples_in_lexicographic_order():
    """The optimizer's keys are class edges (wc, s, s'), with wc an image
    word as a symbol tuple and s -> s' a domain transition labelled by
    its last two symbols, in sorted-word order and then domain-symbol
    order."""
    cases = []
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        cases.append((t, image_measure(t, kind)[1]))
    for seed in range(20):
        t = random_triple(random.Random(seed))
        pres = sofic_image(t).triple
        if pres.x.is_irreducible:
            measure = parry_measure(pres.x)
        else:
            cycle = next(w for n in range(1, len(pres.x.symbols) + 1)
                         for w in all_cycle_words(pres.x, n))
            measure = orbit_measure(pres.x, PeriodicPoint(cycle))
        cases.append((t, measure))
    for t, measure in cases:
        xorder = {s: i for i, s in enumerate(t.x.symbols)}
        for k in (1, 2, 3):
            keys = list(relative_entropy_upper_bound(t, measure, k).optimizer)
            for w, s, s2 in keys:
                assert type(w) is tuple and len(w) == k + 1
                assert (s, s2) in t.x.transitions
                assert (t.label[s], t.label[s2]) == w[-2:]
            codes = [(w, xorder[s], xorder[s2]) for w, s, s2 in keys]
            assert codes == sorted(codes)


def cyclic_matrix(rng, n, period, orders):
    """A seeded irreducible nonnegative n x n matrix as (weight, src, dst):
    the cycle 0 -> 1 -> ... -> n-1 -> 0 and 2n random entries, each from
    an index in class c to one in class c + 1 (mod period), index i being
    in class i % period, so the matrix is imprimitive when period > 1.
    The weights are 10^-u with u uniform in [0, orders]."""
    entries = {(i, (i + 1) % n) for i in range(n)}
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        entries.add((i, (j - (j - i - 1) % period) % n))
    src, dst = (np.array(side) for side in zip(*sorted(entries)))
    weight = np.array([10.0 ** (-orders * rng.random()) for _ in src])
    return weight, src, dst


@pytest.mark.parametrize("orders", (0, 3, 30, 200))
@pytest.mark.parametrize("period", (1, 2, 3))
def test_gibbs_chain_matches_the_eig_oracle(period, orders):
    """Noda's iteration from ones and from a random positive start finds
    rho and the Gibbs masses l[src] A r[dst] / (l A r) of ``eig``, on
    primitive and imprimitive matrices and on entries spread over up to
    200 orders of magnitude."""
    for seed in range(20):
        rng = random.Random(seed)
        n = period * rng.randint(1, 12)
        weight, src, dst = cyclic_matrix(rng, n, period, orders)
        a = np.zeros((n, n))
        a[src, dst] = weight
        rho_ref, right, left = ref_perron(a)
        q_ref = left[src] * weight * right[dst]
        q_ref /= q_ref.sum()
        for start in (np.ones(n), np.array([rng.uniform(0.1, 1.0)
                                            for _ in range(n)])):
            rho, q, r = measures._gibbs_chain(weight, src, dst, start)
            assert abs(rho - rho_ref) <= 1e-13 * rho_ref
            assert np.abs(q - q_ref).max() <= 1e-12
            assert q.min() >= 0
            assert r.min() > 0


def test_bound_never_calls_eig(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eig called")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        for k in (1, 2, 3):
            b = relative_entropy_upper_bound(t, measure, k)
            assert b.converged is True
            assert max(b.residuals.values()) <= 1e-12


def test_bound_stopped_by_a_cap_reports_no_convergence(monkeypatch):
    t = fixtures.load("fix_e")
    _, measure = image_measure(t, "parry")
    full = relative_entropy_upper_bound(t, measure, 1)
    assert full.converged is True
    assert full.iterations > 1
    monkeypatch.setattr(measures, "NEWTON_STEPS", 1)
    short = relative_entropy_upper_bound(t, measure, 1)
    assert short.iterations == 1
    assert short.residuals["image"] >= short.tolerance
    assert short.converged is False
    # the dual value is an upper bound at every iterate
    assert short.value >= full.value


# Three pieces over the full 2-shift, labelled by the digit in each
# symbol's name. Piece a never shows 11 and piece b never 00, so neither
# can carry a measure giving every image 2-word positive mass; c is the
# full 2-shift itself.
PIECES_MIXTURE = """xsymbols: a0 a0x a1 b0 b1 b1x c0 c1
ysymbols: 0 1
map: a0>0 a0x>0 a1>1 b0>0 b1>1 b1x>1 c0>0 c1>1
edges: a0>a0 a0>a0x a0>a1 a0x>a0 a0x>a0x a0x>a1 a1>a0 a1>a0x
edges: b1>b1 b1>b1x b1>b0 b1x>b1 b1x>b1x b1x>b0 b0>b1 b0>b1x
edges: c0>c0 c0>c1 c1>c0 c1>c1
"""

# Piece a shows every image 2-word, but its only 11 sits on the cycle
# 0-1-1-0-0 and the rest of it only adds 00, so every path through it
# has at least twice as many 00 as 11: it cannot carry the Bernoulli
# measure, under which the two are equally frequent.
PIECES_INFEASIBLE = """xsymbols: a0 a0x a1 a2 a3 a4 c0 c1
ysymbols: 0 1
map: a0>0 a0x>0 a1>1 a2>1 a3>0 a4>0 c0>0 c1>1
edges: a0>a0 a0>a0x a0>a1 a0x>a0 a0x>a0x a0x>a1 a1>a2 a2>a3 a3>a4
edges: a4>a0 a4>a0x c0>c0 c0>c1 c1>c0 c1>c1
"""


# Piece q is one cycle reading 001: it shows every image 2-word of the
# orbit 00101, but a third of the time each, against 1/5, 2/5 and 2/5.
# D is affine in every direction there, so no Newton step can drop it.
PIECES_ONE_CYCLE = """xsymbols: p0 p1 p2 p3 p4 q0 q1 q2
ysymbols: 0 1
map: p0>0 p1>0 p2>1 p3>0 p4>1 q0>0 q1>0 q2>1
edges: p0>p1 p1>p2 p2>p3 p3>p4 p4>p0 q0>q1 q1>q2 q2>q0 q2>p0
"""

BERNOULLI = {(s, u): 0.5 for s in ("c0", "c1") for u in ("c0", "c1")}
ORBIT_00101 = {("p0", "p1"): 1.0, ("p1", "p2"): 1.0, ("p2", "p3"): 1.0,
               ("p3", "p4"): 1.0, ("p4", "p0"): 1.0}


@pytest.mark.parametrize("text, rows, value", [
    pytest.param(PIECES_MIXTURE, BERNOULLI, log(2), id="mixture"),
    pytest.param(PIECES_INFEASIBLE, BERNOULLI, log(2), id="infeasible"),
    pytest.param(PIECES_ONE_CYCLE, ORBIT_00101, 0.0, id="one-cycle"),
])
def test_bound_is_taken_on_the_pieces_that_carry_the_measure(text, rows,
                                                             value):
    """The measure sits on a closed class of the presentation: Bernoulli
    (1/2, 1/2) on {c0, c1}, whose only lift is the Bernoulli measure on
    piece c, or the orbit 00101, whose only lift is the orbit in piece
    p. A mixture of blocks from several pieces can meet every block
    constraint, with a larger conditional block entropy, but no ergodic
    lift lies on more than one piece."""
    t = parse_triple(text)
    measure = closed_class_measure(sofic_image(t).triple.x, rows)
    for k in (1, 2, 3, 4):
        b = relative_entropy_upper_bound(t, measure, k)
        assert b.converged is True
        assert abs(b.value - value) <= 1e-12


def simple_cycle_orbits():
    """One case per image orbit of a simple presentation cycle of length
    at most 3, on the fixtures and 40 seeded random triples: (name, t,
    presentation, cycle, image word). A cycle that revisits a state gives
    an ``orbit_measure`` that is not the point mass of its image orbit."""
    triples = [(name, fixtures.load(name)) for name in FIXTURE_NAMES]
    triples += [("s%d" % seed, random_triple(random.Random(seed)))
                for seed in range(40)]
    cases = []
    for name, t in triples:
        pres = sofic_image(t).triple
        seen = set()
        for n in (1, 2, 3):
            for cycle in all_cycle_words(pres.x, n):
                y = factorcode.canonical_orbit_word(pres.label_word(cycle))
                if len(set(cycle)) == n and y not in seen:
                    seen.add(y)
                    cases.append((name, t, pres, cycle, y))
    return cases


def test_bound_over_an_orbit_is_at_least_the_orbit_entropy():
    """Over the point mass of a periodic image orbit the relative maximal
    entropy is log rho* (``ref_orbit_entropy``): every k gives an upper
    bound for it, and the bounds do not increase with k. The equality at
    k = 2, seen on every case, is an observation, frozen on two orbits."""
    cases = simple_cycle_orbits()
    assert len(cases) == 59
    frozen = {}
    for name, t, pres, cycle, y in cases:
        entropy = ref_orbit_entropy(t, y)
        measure = orbit_measure(pres.x, PeriodicPoint(cycle))
        values = [relative_entropy_upper_bound(t, measure, k).value
                  for k in (1, 2, 3)]
        assert min(values) >= entropy - 1e-9, (name, y)
        assert values[1] <= values[0] + 1e-9, (name, y)
        assert values[2] <= values[1] + 1e-9, (name, y)
        frozen[(name, "".join(y))] = [round(v, 6) for v in values]
    assert frozen[("fix_d", "001")] == [0.636514, 0.231049, 0.231049]
    assert frozen[("fix_e", "011")] == [0.550777, 0.0, 0.0]


def test_orbits_of_relative_maximal_entropy_are_at_most_the_classes():
    """The paper's bound over the point mass of a periodic image orbit:
    each cyclic component of its pruned phase graph whose spectral
    radius reaches rho* carries its own ergodic measure of relative
    maximal entropy, and there are never more of them than transition
    classes over the point."""
    cases = simple_cycle_orbits()
    assert len(cases) == 59
    equal = 0
    for name, t, pres, cycle, y in cases:
        radii = ref_orbit_radii(t, y)
        top = max(radii)
        attaining = sum(r >= top * (1 - 1e-12) for r in radii)
        count = transition_classes(build_fiber_graph(t, y)).class_count
        assert 1 <= attaining <= count, (name, y)
        equal += attaining == count
    assert equal == 45


def lumping_cases():
    """Parry measures of seeded irreducible random codes."""
    for seed in range(12):
        rng = random.Random(seed)
        t = random_code(rng, rng.randint(4, 7), reducible=False)
        yield rng, t, parry_measure(sofic_image(t).triple.x)


def kblock_classes(t, blocks, k):
    """The k-blocks of ``blocks`` grouped by (image word, last symbol)."""
    classes = {}
    for W in dict.fromkeys([U[:k] for U in blocks] + [U[1:] for U in blocks]):
        classes.setdefault((t.label_word(W), W[-1]), []).append(W)
    return classes


@pytest.mark.parametrize("k", (2, 3))
def test_right_perron_vector_is_constant_on_the_lumped_classes(k):
    """On the piece the bound reports, weighting each block by any
    positive weight of its image word, the right Perron vector of the
    k-block matrix takes one value on the k-blocks with one image word
    and one last symbol: the partition of the class graph is equitable."""
    lumped = 0
    for rng, t, measure in lumping_cases():
        b = relative_entropy_upper_bound(t, measure, k)
        blocks = [U for U, v in ref_block_optimizer(t, b).items() if v > 0]
        weight = {w: rng.uniform(0.05, 20.0)
                  for w in {t.label_word(U) for U in blocks}}
        classes = kblock_classes(t, blocks, k)
        index = {W: i for i, W in enumerate(
            W for members in classes.values() for W in members)}
        src = np.array([index[U[:k]] for U in blocks])
        dst = np.array([index[U[1:]] for U in blocks])
        # Noda's iteration on the full matrix, from ones: its entries are
        # accurate to working precision, where eig's reach 1e-13 apart
        right = measures._gibbs_chain(
            np.array([weight[t.label_word(U)] for U in blocks]), src, dst,
            np.ones(len(index)))[2]
        for members in classes.values():
            entries = right[[index[W] for W in members]]
            assert entries.max() - entries.min() <= 1e-12 * entries.max()
        lumped += len(classes) < len(index)
    assert lumped >= 10


def test_bound_solves_on_the_class_graph_and_lists_no_domain_walk(
        monkeypatch):
    """Newton runs on one state per class of the component the bound
    reports: the classes at the ends of the optimizer's class edges,
    which are those of the k-blocks of the reference block optimizer's
    positive blocks. The bound lists no domain walk, and makes no dense
    solve after the last component."""
    sizes, solves, walks = [], [], []
    dual_piece = measures._dual_piece

    def spy_piece(cell, src, dst, n, nu):
        sizes.append(n)
        out = dual_piece(cell, src, dst, n, nu)
        solves.clear()
        return out

    def spy(calls, real):
        def call(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(measures, "_dual_piece", spy_piece)
    monkeypatch.setattr(np.linalg, "solve", spy(solves, np.linalg.solve))
    # only the walks of the domain, out of its symbols: the image words
    # are walks of the subset automaton, out of its states
    real_walks = graphs.walks

    def spy_walks(adj, starts, *args):
        if tuple(starts) == tuple(t.x.symbols):
            walks.append(args)
        return real_walks(adj, starts, *args)

    monkeypatch.setattr(graphs, "walks", spy_walks)
    lumped = 0
    for k in (2, 3):
        for _, t, measure in lumping_cases():
            sizes.clear()
            walks.clear()
            b = relative_entropy_upper_bound(t, measure, k)
            classes = set()
            for w, s, s2 in b.optimizer:
                classes |= {(w[:-1], s), (w[1:], s2)}
            assert solves == [] and walks == []
            assert sizes == [len(classes)]
            blocks = [U for U, v in ref_block_optimizer(t, b).items() if v > 0]
            lifted = kblock_classes(t, blocks, k)
            assert set(lifted) == classes
            kblocks = sum(len(members) for members in lifted.values())
            lumped += len(classes) < kblocks
    assert lumped >= 20


def test_bound_on_a_pool_code_answers_at_large_k(capsys):
    """The Parry measure of ``bound-8-s11``, which has 36,378 domain
    7-blocks but 256 classes at k = 6: the bound converges at every k and
    does not increase with it."""
    argv = ["bound", str(POOL / "bound-8-s11.triple"), "--measure",
            str(POOL / "bound-8-s11_parry.measure")]
    values = []
    for k in (3, 4, 5, 6):
        assert cli.main(argv + ["--k", str(k)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["converged"] is True
        values.append(result["value"])
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_bound_rejects_bad_arguments():
    t = fixtures.load("fix_a")
    _, measure = image_measure(t, "parry")
    with pytest.raises(ValueError, match="k must be"):
        relative_entropy_upper_bound(t, measure, 0)
    _, foreign = image_measure(fixtures.load("fix_c"), "point")
    with pytest.raises(PreconditionError, match="presentation"):
        relative_entropy_upper_bound(t, foreign, 1)


@functools.lru_cache(maxsize=None)
def uniform_conditional_cases():
    """(t, k, reference block optimizer of the bound) at k = 1, 2, 3 for
    the fixture measure pairs and for the Parry measure and one orbit
    measure of seeded irreducible random codes."""
    cases = []
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        cases.append((t, image_measure(t, kind)[1]))
    for seed in range(12):
        rng = random.Random(seed)
        t = random_code(rng, rng.randint(4, 7), reducible=False)
        pres = sofic_image(t).triple
        cycle = next(w for n in (2, 3, 1) for w in all_cycle_words(pres.x, n))
        cases += [(t, parry_measure(pres.x)),
                  (t, orbit_measure(pres.x, PeriodicPoint(cycle)))]
    return tuple((t, k, ref_block_optimizer(
        t, relative_entropy_upper_bound(t, measure, k)))
        for t, measure in cases for k in (1, 2, 3))


def test_uniform_conditional_diagnostic_vanishes_on_optimizers():
    """The optimizer is the Gibbs chain at the optimal lam (see below), so
    its conditionals are uniform to rounding."""
    for t, k, q in uniform_conditional_cases():
        assert ref_uniform_conditional_diagnostic(t, k, q) <= 1e-12


def test_gibbs_chains_have_uniform_conditionals():
    """The uniform distribution property of measures of relative maximal
    entropy (Allahbakhshi-Quas), in Gibbs form: on the optimizer's blocks,
    the Gibbs chain of any weights exp(lam[w]) that depend on the image
    word w alone makes the centers a window context admits equally
    likely."""
    rng = random.Random(0)
    for t, k, optimizer in uniform_conditional_cases():
        blocks = [U for U, p in optimizer.items() if p > 0]
        words = [t.label_word(U) for U in blocks]
        lam = {w: rng.uniform(-3.0, 3.0) for w in dict.fromkeys(words)}
        kindex = {}
        src = np.array([kindex.setdefault(U[:k], len(kindex))
                        for U in blocks])
        dst = np.array([kindex.setdefault(U[1:], len(kindex))
                        for U in blocks])
        _, q, _ = measures._gibbs_chain(np.exp([lam[w] for w in words]),
                                        src, dst, np.ones(len(kindex)))
        assert ref_uniform_conditional_diagnostic(
            t, k, dict(zip(blocks, q.tolist()))) <= 1e-9


def test_uniform_conditional_diagnostic_is_a_total_variation():
    """Weights far from any Gibbs chain, some of them zero: contexts miss
    admissible centers and the reference's gaps are large, but stay
    total variations."""
    rng = random.Random(0)
    gaps = []
    for t, k, optimizer in uniform_conditional_cases():
        weights = {U: rng.choice((0.0, rng.random())) for U in optimizer}
        gaps.append(ref_uniform_conditional_diagnostic(t, k, weights))
    assert all(0.0 <= gap <= 1.0 for gap in gaps)
    assert max(gaps) > 0.0
