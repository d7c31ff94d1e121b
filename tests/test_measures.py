"""Tests for Markov measures, entropies, and the relative entropy bound."""

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
    image_measure,
    random_code,
    ref_relative_entropy_upper_bound,
)
import factorcode
from factorcode import measures
from factorcode import (
    MeasureParseError,
    PeriodicPoint,
    PreconditionError,
    entropy_rate,
    fixtures,
    image_word_measure,
    is_irreducible,
    make_sft,
    markov_measure,
    orbit_measure,
    parry_measure,
    parse_measure,
    pqs_bound,
    relative_entropy_upper_bound,
    sofic_image,
    spectral_entropy,
    uniform_conditional_diagnostic,
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
    assert m.row("0") == {"0": 0.5, "1": 0.5}
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
    assert abs(spectral_entropy(golden_mean()) - log(GOLDEN)) < 1e-9
    assert abs(spectral_entropy(fixtures.load("fix_c").x) - log(2)) < 1e-9
    assert abs(spectral_entropy(fixtures.load("fix_b").x)) < 1e-12
    reducible = make_sft(("a", "b"), [("a", "a"), ("a", "b"), ("b", "b")])
    with pytest.raises(PreconditionError, match="irreducible"):
        spectral_entropy(reducible)


def test_parry_measure_of_golden_mean():
    m = parry_measure(golden_mean())
    assert abs(m.stationary["0"] - (5 + sqrt(5)) / 10) < 1e-9
    assert abs(m.stationary["1"] - (5 - sqrt(5)) / 10) < 1e-9
    assert abs(m.kernel[("0", "0")] - 1 / GOLDEN) < 1e-9
    assert abs(m.kernel[("0", "1")] - 1 / GOLDEN ** 2) < 1e-9
    assert abs(m.kernel[("1", "0")] - 1.0) < 1e-12
    assert abs(entropy_rate(m) - log(GOLDEN)) < 1e-9


def test_parry_entropy_equals_spectral_entropy_on_every_fixture():
    for name in FIXTURE_NAMES:
        x = fixtures.load(name).x
        if not is_irreducible(x):
            continue
        assert abs(entropy_rate(parry_measure(x)) -
                   spectral_entropy(x)) < 1e-9


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
    # block graph carry no circulation and are pruned before the ascent
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
            q = b.optimizer
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
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        b = bound_for(name, kind, 1)
        q = b.optimizer
        cells = {}
        for U, v in q.items():
            cells[t.label_word(U)] = cells.get(t.label_word(U), 0.0) + v
        image_r = max(abs(mass - image_word_measure(t, measure, w))
                      for w, mass in cells.items())
        prefix = {}
        suffix = {}
        for U, v in q.items():
            prefix[U[:1]] = prefix.get(U[:1], 0.0) + v
            suffix[U[1:]] = suffix.get(U[1:], 0.0) + v
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


def test_bound_value_matches_independent_objective_evaluation():
    for name, kind in MEASURE_PAIRS:
        k = 2
        b = bound_for(name, kind, k)
        assert abs(value_of_block_measure(list(b.optimizer.items()), k) -
                   b.value) < 1e-9


def test_bound_optimizer_is_locally_optimal():
    """Perturb the optimizer inside the feasible affine set: no nullspace
    direction supported on the optimizer's support may improve the
    concave objective. Only meaningful where the projection converged."""
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        for k in (1, 2):
            b = bound_for(name, kind, k)
            if b.residuals["marginal"] >= 1e-8:
                continue
            support = [U for U, v in sorted(b.optimizer.items(),
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
            q = np.array([b.optimizer[U] for U in support])
            base_value = value_of_block_measure(
                [(U, b.optimizer[U]) for U in support], k)
            for d in null:
                step = min(1e-5, float(q.min()) / (2 * np.abs(d).max()))
                for sign in (1.0, -1.0):
                    moved = q + sign * step * d
                    assert moved.min() > 0
                    trial = value_of_block_measure(
                        list(zip(support, moved)), k)
                    assert trial <= base_value + 1e-9


def assert_matches_sequential_solver(t, measure, k):
    got = relative_entropy_upper_bound(t, measure, k)
    ref = ref_relative_entropy_upper_bound(t, measure, k)
    assert got.iterations == ref.iterations
    assert abs(got.value - ref.value) <= 1e-12
    assert set(got.optimizer) == set(ref.optimizer)
    for U, weight in ref.optimizer.items():
        assert abs(got.optimizer[U] - weight) <= 1e-12
    assert max(got.residuals.values()) < 1e-12
    assert got.converged is True
    assert got.tolerance == 1e-12


@pytest.mark.parametrize("k", (1, 2, 3))
def test_level_scheduled_solver_matches_sequential_one_on_fixtures(k):
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        assert_matches_sequential_solver(t, measure, k)


@pytest.mark.parametrize("seed", range(12))
def test_level_scheduled_solver_matches_sequential_one_on_random_codes(seed):
    rng = random.Random(seed)
    t = random_code(rng, rng.randint(4, 7), reducible=False)
    pres = sofic_image(t).triple
    cycle = next(w for n in (2, 3, 1) for w in all_cycle_words(pres.x, n))
    for measure in (parry_measure(pres.x),
                    orbit_measure(pres.x, PeriodicPoint(cycle))):
        for k in (1, 2):
            assert_matches_sequential_solver(t, measure, k)


def test_marginal_levels_touch_each_block_once_and_keep_the_sweep_order(
        monkeypatch):
    schedules = []

    def recording(moving, src, dst, count):
        levels = real(moving, src, dst, count)
        schedules.append((moving.tolist(), src.tolist(), dst.tolist(),
                          count, levels))
        return levels

    real = measures._marginal_levels
    monkeypatch.setattr(measures, "_marginal_levels", recording)
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        _, measure = image_measure(t, kind)
        for k in (1, 2, 3):
            relative_entropy_upper_bound(t, measure, k)
    assert len(schedules) == 3 * len(MEASURE_PAIRS)
    assert any(len(levels) > 1 for *_, levels in schedules)

    for moving, src, dst, count, levels in schedules:
        where = {b: i for i, b in enumerate(moving)}
        level_of = {}
        for number, (left, lseg, right, rseg, ones) in enumerate(levels):
            touched = left.tolist() + right.tolist()
            assert len(touched) == len(set(touched))
            local = {}
            for blocks, segs, ends in ((left, lseg, src), (right, rseg, dst)):
                for b, j in zip(blocks.tolist(), segs.tolist()):
                    marginal = ends[where[b]]
                    assert local.setdefault(j, marginal) == marginal
                    assert level_of.setdefault(marginal, number) == number
            assert sorted(local) == list(range(len(ones)))
        # every marginal with two nonempty sides is rescaled, in a level
        # after each earlier marginal it shares a block with
        assert set(level_of) == set(src) & set(dst)
        for a, b in zip(src, dst):
            if a in level_of and b in level_of:
                assert (a < b) == (level_of[a] < level_of[b])


def test_bound_stopped_by_a_cap_reports_no_convergence(monkeypatch):
    t = fixtures.load("fix_e")
    _, measure = image_measure(t, "parry")
    capped = relative_entropy_upper_bound(t, measure, 1, max_iterations=1)
    assert max(capped.residuals.values()) < capped.tolerance
    assert capped.converged is False
    monkeypatch.setattr(measures, "PROJECTION_CYCLES", 1)
    short = relative_entropy_upper_bound(t, measure, 1)
    assert max(short.residuals.values()) >= short.tolerance
    assert short.converged is False


def test_bound_rejects_bad_arguments():
    t = fixtures.load("fix_a")
    _, measure = image_measure(t, "parry")
    with pytest.raises(ValueError, match="k must be"):
        relative_entropy_upper_bound(t, measure, 0)
    _, foreign = image_measure(fixtures.load("fix_c"), "point")
    with pytest.raises(PreconditionError, match="presentation"):
        relative_entropy_upper_bound(t, foreign, 1)


def test_uniform_conditional_diagnostic_vanishes_on_optimizers():
    for name, kind in (("fix_a", "parry"), ("fix_b", "point"),
                       ("fix_c", "point")):
        t = fixtures.load(name)
        b = bound_for(name, kind, 2)
        assert uniform_conditional_diagnostic(t, b) <= 1e-8


def test_uniform_conditional_diagnostic_is_a_total_variation():
    for name, kind in MEASURE_PAIRS:
        t = fixtures.load(name)
        b = bound_for(name, kind, 1)
        gap = uniform_conditional_diagnostic(t, b)
        assert 0.0 <= gap <= 1.0
