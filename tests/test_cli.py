"""End-to-end tests of the command line interface via subprocess."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import log, sqrt
from pathlib import Path

import numpy as np
import pytest

import factorcode
from conftest import (PLUS_TRIPLE, closed_class_measure, image_measure,
                      measure_text, random_code)
from factorcode import (classdegree, cli, codes, fiber, fixtures, graphs,
                        measures, parse_triple, sofic_image, triple_to_text)

FIXDIR = Path(factorcode.__file__).parent / "fixtures"
GOLDEN = (1 + sqrt(5)) / 2


def fixture_path(name, suffix=".triple"):
    return str(FIXDIR / (name + suffix))


def run_cli(*argv, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "factorcode", *argv],
        capture_output=True, text=True, env=env, timeout=120)


def run_json(*argv, expect_status=0):
    proc = run_cli(*argv)
    assert proc.returncode == expect_status, proc.stderr
    return json.loads(proc.stdout)


def test_check_counts_the_states_of_the_named_presentation(tmp_path):
    """check reads the state count off the int-indexed presentation; it
    is the number of states of the named triple the other commands
    read."""
    paths = {name: fixture_path(name) for name in fixtures.names()}
    rng = random.Random(11)
    for i in range(3):
        path = tmp_path / ("random%d.triple" % i)
        path.write_text(triple_to_text(
            random_code(rng, rng.randint(40, 60), reducible=i == 2)))
        paths[path.name] = str(path)
    for path in paths.values():
        result = run_json("check", path)["result"]
        t = parse_triple(Path(path).read_text())
        assert result["presentation_states"] == len(
            sofic_image(t).triple.x.symbols)


def test_json_envelope_and_check_summary():
    path = fixture_path("fix_a")
    envelope = run_json("check", path)
    assert set(envelope) == {"schema", "command", "input", "result"}
    assert envelope["schema"] == "factorcode/1"
    assert envelope["command"] == "check"
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert envelope["input"] == {"triple_sha256": digest}
    result = envelope["result"]
    assert result["x_symbols"] == ["0", "1"]
    assert result["y_symbols"] == ["0", "1"]
    assert result["edge_count"] == 3
    assert result["irreducible"] is True
    assert result["finite_to_one"] is True
    assert result["image_irreducible_certified"] is True
    assert result["presentation_states"] == 2


def test_output_is_byte_identical_across_interpreter_hash_seeds(tmp_path):
    parry = tmp_path / "fix_e_parry.measure"
    parry.write_text(measure_text(image_measure(fixtures.load("fix_e"),
                                                "parry")[1]))
    calls = [
        ("check", fixture_path("fix_e")),
        ("classdegree", fixture_path("fix_e")),
        ("fiber", fixture_path("fix_e"), "--y", "0", "1"),
        ("extract", fixture_path("fix_e"), "--y", "0", "1"),
        ("sync", fixture_path("fix_e"), "--y", "0", "1",
         "--interval", "0", "3"),
        ("bound", fixture_path("fix_c"),
         "--measure", fixture_path("fix_c_point", ".measure"), "--k", "2"),
        # takes Newton steps, where fix_c takes none
        ("bound", fixture_path("fix_e"), "--measure", str(parry), "--k", "2"),
        ("recode", fixture_path("fix_b"), "--n", "2"),
    ]
    for argv in calls:
        first = run_cli(*argv, hash_seed=101)
        second = run_cli(*argv, hash_seed=202)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout


def test_degree_reports_value_and_witness():
    envelope = run_json("degree", fixture_path("fix_b"))
    assert envelope["result"] == {"value": 2,
                                  "witness": {"w": ["0"], "i": 0}}


def test_degree_of_infinite_to_one_code_fails_the_precondition():
    proc = run_cli("degree", fixture_path("fix_c"))
    assert proc.returncode == 2
    assert proc.stderr.strip() == \
        "error: degree undefined (infinite-to-one code)"
    assert proc.stdout == ""


def test_classdegree_depth_one_witness():
    envelope = run_json("classdegree", fixture_path("fix_d"))
    result = envelope["result"]
    assert result["value"] == 1
    assert result["certified"] is True
    assert result["witness"] == {"w": ["0", "0", "1"], "n": 1, "m": ["b"]}


def test_classdegree_uncertified_bound_exits_3(tmp_path):
    probe = tmp_path / "probe.triple"
    probe.write_text(
        "xsymbols: u v w\nysymbols: 0\nmap: u>0 v>0 w>0\n"
        "edges: u>u u>v v>w w>u\n")
    proc = run_cli("classdegree", str(probe), "--horizon", "4")
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["result"]["certified"] is False
    assert payload["result"]["value"] == 2
    envelope = run_json("classdegree", str(probe), "--horizon", "5")
    assert envelope["result"]["certified"] is True
    assert envelope["result"]["value"] == 1


def test_classdegree_with_measure_restriction():
    envelope = run_json(
        "classdegree", fixture_path("fix_e"),
        "--measure", fixture_path("fix_e_orbit01", ".measure"))
    assert envelope["result"]["value"] == 3
    assert envelope["result"]["certified"] is True
    assert "measure_sha256" in envelope["input"]


def test_fiber_report_facts():
    envelope = run_json("fiber", fixture_path("fix_e"), "--y", "0", "1")
    result = envelope["result"]
    assert result["word"] == ["0", "1"]
    assert result["class_count"] == 3
    assert [c["name"] for c in result["classes"]] == ["C1", "C2", "C3"]
    assert sorted(map(tuple, result["reaches"])) == \
        [("C1", "C2"), ("C1", "C3")]
    assert result["transient_symbols"] == ["c"]
    assert all("c" not in phase
               for name in result["s_sets"]
               for phase in result["s_sets"][name])
    assert result["stable_under_doubling"] is True


def test_fiber_point_outside_image_fails_the_precondition():
    proc = run_cli("fiber", fixture_path("fix_a"), "--y", "1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")


def test_sync_window_report():
    envelope = run_json("sync", fixture_path("fix_g"), "--y", "0",
                        "--interval", "0", "0")
    assert envelope["result"] == {
        "interval": [0, 0],
        "radius": 1,
        "blocks": [["p"]],
        "per_coordinate": [["p"]],
    }


def test_extract_depth_equals_class_count():
    envelope = run_json("extract", fixture_path("fix_e"), "--y", "0", "1")
    result = envelope["result"]
    assert result["word"] == ["0", "1", "0", "1", "0"]
    assert result["index"] == 2
    assert result["symbols"] == ["b", "d", "e"]
    assert result["depth"] == result["class_count"] == 3
    assert result["n2"] == 1 and result["n3"] == 2 and result["n4"] == 4
    assert result["radius"] == 0


def test_recode_round_trips_through_the_parser(tmp_path):
    proc = run_cli("recode", fixture_path("fix_b"), "--n", "2")
    assert proc.returncode == 0
    assert "a.b" in proc.stdout and "b.a" in proc.stdout
    recoded = tmp_path / "fix_b_2.triple"
    recoded.write_text(proc.stdout)
    assert run_json("degree", str(recoded))["result"]["value"] == 2
    envelope = run_json("classdegree", str(recoded))
    assert envelope["result"]["value"] == 2
    assert envelope["result"]["certified"] is True


def test_entropy_variants_and_units():
    base = run_json("entropy", fixture_path("fix_a"))["result"]
    assert base["kind"] == "topological"
    assert base["units"] == "nats"
    assert abs(base["value"] - log(GOLDEN)) <= 1e-15
    bits = run_json("entropy", fixture_path("fix_a"), "--bits")["result"]
    assert bits["units"] == "bits"
    assert abs(bits["value"] - log(GOLDEN) / log(2)) <= 1e-15
    parry = run_json("entropy", fixture_path("fix_a"), "--parry")["result"]
    assert parry["kind"] == "parry"
    assert abs(parry["value"] - log(GOLDEN)) <= 1e-14
    markov = run_json(
        "entropy", fixture_path("fix_a"),
        "--measure", fixture_path("fix_a_parry", ".measure"))["result"]
    assert markov["kind"] == "markov"
    assert abs(markov["value"] - log(GOLDEN)) < 1e-7


def test_entropy_measure_flags_are_mutually_exclusive():
    proc = run_cli("entropy", fixture_path("fix_a"), "--parry",
                   "--measure", fixture_path("fix_a_parry", ".measure"))
    assert proc.returncode == 1


def test_non_ergodic_measure_fails_the_precondition(tmp_path):
    split = tmp_path / "split.measure"
    split.write_text("states: 0 1\nrow 0: 1 0\nrow 1: 0 1\n")
    proc = run_cli("entropy", fixture_path("fix_c"),
                   "--measure", str(split))
    assert proc.returncode == 2
    assert proc.stderr.strip() == "error: measure not ergodic"


def test_non_finite_probability_exits_1(tmp_path):
    # nan used to be read as 0 and the report printed with exit 0
    bad = tmp_path / "nan.measure"
    bad.write_text("states: 0 1\nrow 0: 0.5 0.5\nrow 1: 1 nan\n")
    proc = run_cli("entropy", fixture_path("fix_a"), "--measure", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: line 3: non-finite probability 'nan'\n"


def test_bound_command_reports_value_pqs_and_diagnostic():
    envelope = run_json(
        "bound", fixture_path("fix_c"),
        "--measure", fixture_path("fix_c_point", ".measure"), "--k", "2")
    assert "measure_sha256" in envelope["input"]
    result = envelope["result"]
    assert result["k"] == 2
    assert result["units"] == "nats"
    assert abs(result["value"] - log(2)) < 1e-12
    assert result["pqs"] == 2
    assert result["residuals"]["image"] < 1e-10
    assert result["residuals"]["marginal"] < 1e-10
    assert result["diagnostic"] <= 1e-8
    # lam = 0 is already optimal: the fiber is the full 2-shift
    assert result["iterations"] == 0
    assert result["converged"] is True
    assert result["tolerance"] == 1e-12
    bits = run_json(
        "bound", fixture_path("fix_c"),
        "--measure", fixture_path("fix_c_point", ".measure"),
        "--k", "2", "--bits")["result"]
    assert abs(bits["value"] - 1.0) < 1e-12
    assert bits["units"] == "bits"


def test_usage_and_parse_failures_exit_1(tmp_path):
    bad = tmp_path / "bad.triple"
    bad.write_text("xsymbols: a\n")
    proc = run_cli("check", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    missing = run_cli("check", str(tmp_path / "absent.triple"))
    assert missing.returncode == 1
    assert missing.stderr.startswith("error: ")
    unknown = run_cli("frobnicate", fixture_path("fix_a"))
    assert unknown.returncode == 1
    noy = run_cli("fiber", fixture_path("fix_a"))
    assert noy.returncode == 1


def test_plain_format_emits_flat_lines():
    proc = run_cli("classdegree", fixture_path("fix_d"), "--plain")
    assert proc.returncode == 0
    lines = dict(line.split(" ", 1) for line in
                 proc.stdout.strip().splitlines())
    assert lines["schema"] == '"factorcode/1"'
    assert lines["command"] == '"classdegree"'
    assert lines["result.value"] == "1"
    assert lines["result.certified"] == "true"
    assert lines["result.witness.m[0]"] == '"b"'
    assert lines["result.witness.n"] == "1"
    assert [lines["result.witness.w[%d]" % i] for i in range(3)] == \
        ['"0"', '"0"', '"1"']
    assert "{" not in proc.stdout


def test_timing_flag_adds_elapsed_ms():
    with_timing = run_json("check", fixture_path("fix_a"), "--timing")
    assert isinstance(with_timing["elapsed_ms"], float)
    assert with_timing["elapsed_ms"] >= 0.0
    without = run_json("check", fixture_path("fix_a"))
    assert "elapsed_ms" not in without


@pytest.mark.parametrize("argv, automata", [
    (["bound", fixture_path("fix_a"), "--measure",
      fixture_path("fix_a_parry", ".measure"), "--k", "1"], 1),
    (["classdegree", fixture_path("fix_a"), "--measure",
      fixture_path("fix_a_parry", ".measure")], 1),
    (["classdegree", "RANDOM", "--horizon", "5"], 2),
])
def test_one_image_and_one_automaton_per_direction_per_command(
        argv, automata, monkeypatch, tmp_path, capsys):
    """Derived objects are built once per triple: one sofic image per
    command, one subset automaton per direction the command needs
    (forward for the image; d* in classdegree adds the backward one), and
    at most one mask table per triple and direction. ``classdegree
    --measure`` steps the measure's support as well as the triple, so the
    tables are counted per triple."""
    if "RANDOM" in argv:
        path = tmp_path / "random.triple"
        path.write_text(triple_to_text(
            random_code(random.Random(3), 12, reducible=False)))
        argv = [str(path) if a == "RANDOM" else a for a in argv]
    built = Counter()

    def counting(kind, cls):
        def build(*args):
            built[kind] += 1
            return cls(*args)
        return build

    monkeypatch.setattr(codes, "SoficImage",
                        counting("image", codes.SoficImage))
    monkeypatch.setattr(codes, "_SubsetAutomaton",
                        counting("automaton", codes._SubsetAutomaton))
    tables = {}
    mask_table = codes._label_masks

    def watched(t, forward):
        table = mask_table(t, forward)
        # holding t and the table keeps their ids unique meanwhile
        tables.setdefault((id(t), forward), {})[id(table)] = (t, table)
        return table

    monkeypatch.setattr(codes, "_label_masks", watched)
    assert cli.main(argv) in (0, 3)
    capsys.readouterr()
    assert built == {"image": 1, "automaton": automata}
    assert tables and all(len(ids) == 1 for ids in tables.values())


def test_a_shared_state_name_exits_2_only_where_a_measure_names_states(
        tmp_path, capsys):
    """Plain classdegree never names the presentation's states, so it
    certifies a triple whose states {a, b} and {a+b} are both named a+b;
    a measure file names the states, so bound and classdegree --measure
    refuse that triple as a precondition, naming the shared name."""
    path = tmp_path / "plus.triple"
    path.write_text(PLUS_TRIPLE)
    assert cli.main(["classdegree", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["value"], result["certified"]) == (1, True)
    measure = fixture_path("fix_a_parry", ".measure")
    for argv in (["classdegree", str(path), "--measure", measure],
                 ["bound", str(path), "--measure", measure, "--k", "1"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: two states of the image presentation are both "
            "named 'a+b'\n")


@pytest.mark.parametrize("name, stop", [("fix_c", 16), ("fix_a", 3000000)])
def test_sync_over_the_walk_budget_exits_2_at_once(name, stop, capsys):
    """fix_c's window 0..16 over the fixed point 0 takes 262,140 walks,
    and fix_a's window of 3,000,001 coordinates one walk per length: the
    count stops past the limit, and the refusal comes before any block
    is listed and before the radius sweep across the window."""
    argv = ["sync", fixture_path(name), "--y", "0", "--interval", "0",
            str(stop)]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: the blocks of the window 0..%d take more than %d walks of "
        "the phase graph, the limit\n" % (stop, fiber.WINDOW_WALK_BUDGET))


def test_sync_walks_a_wide_window(capsys):
    """The window walk is iterative: a window of 1501 coordinates, far
    past the interpreter's recursion limit, has its one block."""
    assert cli.main(["sync", fixture_path("fix_a"), "--y", "0",
                     "--interval", "0", "1500"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["radius"] == 0
    assert result["blocks"] == [["0"] * 1501]


@pytest.mark.parametrize("error", [
    RuntimeError("transition block extraction exhausted its caps"),
    AssertionError("routing targets share a symbol"),
])
def test_internal_errors_exit_4_on_one_line(error, monkeypatch, capsys):
    def broken(t, y):
        raise error

    monkeypatch.setattr(cli, "extract_transition_block", broken)
    assert cli.main(["extract", fixture_path("fix_e"), "--y", "0", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: %s\n" % (error,)


def test_an_unlisted_exception_exits_4_on_one_line(monkeypatch, capsys):
    """An exception of a type ``main`` does not list, raised inside a
    handler, is an internal error: one line and exit 4, not a traceback
    and exit 1 (bad input)."""
    def broken(t):
        raise KeyError("a")

    monkeypatch.setattr(cli, "is_finite_to_one", broken)
    assert cli.main(["check", fixture_path("fix_a")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: KeyError: 'a'\n"


@pytest.mark.parametrize("name, broken, message", [
    ("_block_mask", lambda *args: 0,
     "not a transition block: routing fails"),
    ("_meets", lambda *args: [], "word is not an image block"),
])
def test_a_failed_extract_self_check_exits_4(name, broken, message,
                                             monkeypatch, capsys):
    """extract checks the block it builds with ``transition_block``. A
    block that fails that check is a fault of the construction, not a
    failed precondition (exit 2) or bad input (exit 1)."""
    monkeypatch.setattr(classdegree, name, broken)
    assert cli.main(["extract", fixture_path("fix_e"), "--y", "0", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: extracted block fails its check: %s\n" % message)


@pytest.mark.parametrize("name, error, message", [
    ("solve", np.linalg.LinAlgError("Singular matrix"),
     "entropy bound solve failed: Singular matrix"),
    ("qr", MemoryError("Unable to allocate 25.9 GiB"),
     "Unable to allocate 25.9 GiB"),
])
def test_bound_linear_algebra_failures_exit_4(name, error, message,
                                              monkeypatch, capsys):
    """numpy's LinAlgError is a ValueError, which would read as bad
    input; it and a failed allocation are internal errors."""
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(np.linalg, name, broken)
    argv = ["bound", fixture_path("fix_c"), "--measure",
            fixture_path("fix_c_point", ".measure"), "--k", "1"]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: %s\n" % message


def test_bound_short_of_its_tolerance_exits_5_with_the_report(
        monkeypatch, tmp_path, capsys):
    measure = tmp_path / "fix_e_parry.measure"
    measure.write_text(measure_text(image_measure(fixtures.load("fix_e"),
                                                  "parry")[1]))
    argv = ["bound", fixture_path("fix_e"), "--measure", str(measure),
            "--k", "1"]
    assert cli.main(argv) == 0
    converged = json.loads(capsys.readouterr().out)["result"]
    assert converged["converged"] is True
    monkeypatch.setattr(measures, "NEWTON_STEPS", 1)
    assert cli.main(argv) == 5
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["converged"] is False
    assert result["tolerance"] == 1e-12
    assert result["residuals"]["image"] >= 1e-12
    # still an upper bound, only a looser one
    assert result["value"] >= converged["value"]


@pytest.mark.parametrize("name, cycle", [
    ("fix_d", ("a", "c", "d")),
    ("fix_g", ("p", "p+q", "t")),
])
def test_bound_over_a_degenerate_orbit_measure_converges_to_zero(
        name, cycle, tmp_path, capsys):
    """The fiber over these presentation cycles carries no entropy, and
    the dual reaches its infimum 0 only as lam diverges."""
    pres = sofic_image(fixtures.load(name)).triple
    rows = {(s, cycle[(i + 1) % len(cycle)]): 1.0
            for i, s in enumerate(cycle)}
    measure = tmp_path / "orbit.measure"
    measure.write_text(measure_text(closed_class_measure(pres.x, rows)))
    for k in (1, 2, 3):
        argv = ["bound", fixture_path(name), "--measure", str(measure),
                "--k", str(k)]
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert 0 <= result["value"] <= 1e-11


def test_main_called_repeatedly_prints_what_fresh_processes_print():
    calls = [
        ["check", fixture_path("fix_e")],
        ["bound", fixture_path("fix_c"),
         "--measure", fixture_path("fix_c_point", ".measure"), "--k", "2"],
        ["classdegree", fixture_path("fix_e"), "--horizon", "many"],
        ["fiber", fixture_path("fix_e"), "--y", "0", "1"],
        ["sync", fixture_path("fix_e"), "--y", "0", "1"],
        ["degree", fixture_path("fix_b"), "--plain"],
        ["classdegree", fixture_path("fix_d")],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from factorcode import cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), \\\n"
        "            contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            status = cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            status = exc.code\n"
        "    runs.append([status, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(calls)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [status for status, _, _ in runs] == [0, 0, 1, 0, 1, 0, 0]
    for argv, run in zip(calls, runs):
        fresh = run_cli(*argv)
        assert run == [fresh.returncode, fresh.stdout, fresh.stderr]


def test_numpy_is_imported_only_by_commands_that_need_it():
    code = (
        "import sys\n"
        "from factorcode import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "for argv in sys.argv[1:3]:\n"
        "    assert cli.main([argv, %r]) == 0\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "assert cli.main([sys.argv[3], %r]) == 0\n"
        "assert 'numpy' in sys.modules\n"
        % (fixture_path("fix_e"), fixture_path("fix_e")))
    proc = subprocess.run(
        [sys.executable, "-c", code, "check", "classdegree", "entropy"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, words", [
    (["sync", fixture_path("fix_e"), "--y", "0", "1",
      "--interval", "0", "3"], [("0", "1")]),
    (["extract", fixture_path("fix_e"), "--y", "0", "1"], [("0", "1")]),
    (["fiber", fixture_path("fix_e"), "--y", "0", "1"], [("0", "1")]),
])
def test_one_phase_graph_per_point_per_command(argv, words, monkeypatch,
                                               capsys):
    """Each command builds the point's phase graph once. extract and
    fiber add its cover at the class period P, and fiber the one at 2P
    for the doubling check, which extract does not read. Here P is the
    period itself, so the cover at P is the pruned phase graph, searched
    as it is, and only the one at 2P is lifted; sync needs none."""
    built, graphs_built, covers = [], [], []

    def build(t, word, *args):
        built.append(word)
        graphs_built.append(real_graph(t, word, *args))
        return graphs_built[-1]

    def lift(period, adjacency, *args):
        covers.append(
            (period, adjacency is graphs_built[-1].pruned_adjacency()))
        return real_cover(period, adjacency, *args)

    real_graph, real_cover = fiber.FiberGraph, fiber.PhaseCover
    monkeypatch.setattr(fiber, "FiberGraph", build)
    monkeypatch.setattr(fiber, "PhaseCover", lift)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert built == words
    assert covers == {"sync": [], "extract": [(2, True)],
                      "fiber": [(2, True), (4, False)]}[argv[0]]


def test_class_degree_certificate_reads_only_the_class_cover(monkeypatch,
                                                             capsys):
    """The certificate counts the cyclic components of the cover at the
    class period: it builds no transition class report and no cover for
    the doubling check. fix_e closes its witness into (011)^inf, whose
    class period is twice its period. The class period comes from the
    cyclic components of the pruned phase graph, its cover at the period
    3 itself, which one Tarjan pass finds."""
    covers = []

    def lift(period, *args):
        covers.append(period)
        return real_cover(period, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("transition class report built")

    real_cover = fiber.PhaseCover
    monkeypatch.setattr(fiber, "PhaseCover", lift)
    monkeypatch.setattr(fiber, "TransitionClassReport", refuse)
    assert cli.main(["classdegree", fixture_path("fix_e")]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["certified"]
    assert covers == [3, 6]


@pytest.mark.parametrize("argv, passes", [
    pytest.param(["fiber", fixture_path("fix_e"), "--y", "0", "1"], 2,
                 id="fiber"),
    pytest.param(["sync", fixture_path("fix_e"), "--y", "0", "1",
                  "--interval", "0", "3"], 0, id="sync"),
    pytest.param(["extract", fixture_path("fix_e"), "--y", "0", "1"], 1,
                 id="extract"),
    pytest.param(["check", fixture_path("fix_e")], 2, id="check"),
    pytest.param(["degree", fixture_path("fix_a")], 1, id="degree"),
    pytest.param(["classdegree", fixture_path("fix_e")], 4,
                 id="classdegree"),
    pytest.param(["classdegree", fixture_path("fix_a"), "--measure",
                  fixture_path("fix_a_parry", ".measure")], 4,
                 id="classdegree-measure"),
])
def test_tarjan_passes_per_command(argv, passes, monkeypatch, capsys):
    """Tarjan runs only where strongly connected components are read.
    Pruning peels instead: the essential domain of a fixture is kept as
    it is, and the subset automaton and every phase graph are pruned by
    one peel each way. The image presentation takes one pass for its
    cyclic components and irreducibility, and the domain one for its
    irreducibility. A phase graph takes one over its pruned part, its
    cover at its own period, where its cyclic components are read:
    never for sync. fiber adds the cover at 2P for the doubling check,
    here P being the period, which extract does not read; the class degree
    certificate adds the cover at the class period, here twice the
    period. A measure adds one to find its closed class and one for the
    components of its support. Only the measure file, whose states are
    named, makes a command read the presentation's named triple: the
    class degree certificate walks the int-indexed presentation."""
    calls, triples = [], []

    def count(adj):
        calls.append(len(adj))
        return real(adj)

    def triple(image):
        triples.append(image)
        return real_triple.__get__(image, codes.SoficImage)

    real = graphs.strongly_connected_components
    real_triple = codes.SoficImage.triple
    monkeypatch.setattr(graphs, "strongly_connected_components", count)
    monkeypatch.setattr(codes.SoficImage, "triple", property(triple))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == passes
    assert bool(triples) == ("--measure" in argv)


def cycles_triple(lengths):
    """Disjoint cycles of the given lengths, every symbol labelled a: the
    fiber over the fixed point a unrolls to the lcm of the lengths."""
    syms = ["c%d_%d" % (n, i) for n in lengths for i in range(n)]
    edges = ["c%d_%d>c%d_%d" % (n, i, n, (i + 1) % n)
             for n in lengths for i in range(n)]
    return ("xsymbols: %s\nysymbols: a\nmap: %s\nedges: %s\n"
            % (" ".join(syms), " ".join(s + ">a" for s in syms),
               " ".join(edges)))


def test_fiber_cover_within_budget_is_unrolled(tmp_path):
    path = tmp_path / "cycles.triple"
    path.write_text(cycles_triple((7, 11, 13)))
    result = run_json("fiber", str(path), "--y", "a")["result"]
    assert result["unrolled_period"] == 1001
    assert result["class_count"] == 31
    assert result["stable_under_doubling"] is True


def test_fiber_cover_over_budget_exits_2_at_once(tmp_path, capsys):
    # 2 * 17017 * 48 vertices: refused before any cover is built
    path = tmp_path / "cycles.triple"
    path.write_text(cycles_triple((7, 11, 13, 17)))
    start = time.perf_counter()
    assert cli.main(["fiber", str(path), "--y", "a"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "1633632 vertices" in err
    assert "limit of %d" % fiber.COVER_VERTEX_BUDGET in err


def twin_full_shift(k):
    """Two copies of the full shift on k symbols, joined by one edge each
    way; the copies carry the same labels."""
    syms = ["%s%d" % (tag, i) for tag in "AB" for i in range(k)]
    edges = ["%s%d>%s%d" % (tag, i, tag, j) for tag in "AB"
             for i in range(k) for j in range(k)] + ["A0>B1", "B0>A1"]
    return ("xsymbols: %s\nysymbols: %s\nmap: %s\nedges: %s\n"
            % (" ".join(syms), " ".join("y%d" % i for i in range(k)),
               " ".join("%s>y%s" % (s, s[1:]) for s in syms),
               " ".join(edges)))


def test_classdegree_over_the_word_budget_exits_2_at_once(tmp_path,
                                                          capsys):
    # 64,000 image words of length 3: refused once the listing passes
    # the budget, whatever the horizon
    path = tmp_path / "twin.triple"
    path.write_text(twin_full_shift(40))
    start = time.perf_counter()
    assert cli.main(["classdegree", str(path), "--horizon", "30"]) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "more than %d words of length 3" % codes.IMAGE_WORD_BUDGET \
        in err


def test_bound_over_the_word_budget_exits_2_at_once(capsys):
    # the measure-positive words are the image blocks of the measure's
    # support, listed under the same limit of one length; fix_a's Parry
    # measure passes it at length 23
    argv = ["bound", fixture_path("fix_a"), "--measure",
            fixture_path("fix_a_parry", ".measure"), "--k", "40"]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "more than %d words of length 23" % codes.IMAGE_WORD_BUDGET \
        in err


def test_bound_over_the_solve_budget_exits_2(monkeypatch, capsys):
    # 46,368 positive words of length 22 are under the word limit, but
    # the solve would need at least 46,368 x 46,369 entries: refused
    # before any domain block is listed
    listed = []

    def blocks(x, n):
        listed.append(n)
        return real_blocks(x, n)

    real_blocks = measures.enumerate_blocks
    monkeypatch.setattr(measures, "enumerate_blocks", blocks)
    argv = ["bound", fixture_path("fix_a"), "--measure",
            fixture_path("fix_a_parry", ".measure"), "--k", "21"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "limit of %d" % measures.SOLVE_ENTRY_BUDGET in captured.err
    assert listed == []


FULL_SHIFT_4 = """\
xsymbols: a b c d
ysymbols: 0
map: a>0 b>0 c>0 d>0
edges: %s
""" % " ".join("%s>%s" % (u, v) for u in "abcd" for v in "abcd")


def test_bound_past_the_domain_walk_budget_exits_2_at_once(
        monkeypatch, capsys, tmp_path):
    # one image word of each length, but 4^11 domain blocks at k = 10:
    # refused before any is listed, where listing them took minutes
    listed = []

    def blocks(x, n):
        listed.append(n)
        return real_blocks(x, n)

    real_blocks = measures.enumerate_blocks
    monkeypatch.setattr(measures, "enumerate_blocks", blocks)
    triple = tmp_path / "full.triple"
    triple.write_text(FULL_SHIFT_4)
    measure = tmp_path / "full.measure"
    measure.write_text("states: a+b+c+d\nrow a+b+c+d: 1\n")
    start = time.perf_counter()
    status = cli.main(["bound", str(triple), "--measure", str(measure),
                       "--k", "10"])
    assert time.perf_counter() - start < 1.0
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than %d walks" % measures.DOMAIN_WALK_BUDGET in captured.err
    assert listed == []


NON_ESSENTIAL_FIX_E = """\
# fix_e with a source h leading in, a sink i and a chain j k into a sink
xsymbols: h a b c d e f g i j k
ysymbols: 0 1 2
map: h>2 a>1 b>0 c>1 d>0 e>0 f>1 g>1 i>0 j>1 k>2
edges: h>a a>b b>a b>c c>d c>e d>f f>d e>g g>e f>g g>f g>a d>i g>j j>k
"""


@pytest.mark.parametrize("argv, digest", [
    (["check"], "a3821c14f9fc3462"),
    (["fiber", "--y", "0", "1"], "9fc5c3bd1b4233a1"),
    (["classdegree"], "bab34475d7f920d6"),
])
def test_non_essential_triple_reports_are_unchanged(argv, digest,
                                                    tmp_path):
    """No fixture and no benchmark input has a non-essential domain, so
    this pins the reports of one: the digests are those of the outputs
    when every domain was pruned by a Tarjan pass."""
    path = tmp_path / "ne.triple"
    path.write_text(NON_ESSENTIAL_FIX_E)
    proc = run_cli(argv[0], str(path), *argv[1:])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == digest


def test_extract_lists_no_window_path(monkeypatch, capsys):
    """extract reads only the synchronizing radius, which one sweep
    across the window gives without listing a block."""
    argv = ["extract", fixture_path("fix_e"), "--y", "1"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["result"]["radius"] == 1

    def refuse(*args):
        raise AssertionError("window path listed")

    monkeypatch.setattr(fiber, "_window_paths", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected
