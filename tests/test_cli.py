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

import pytest

import factorcode
from conftest import image_measure, random_code
from factorcode import (cli, codes, fiber, fixtures, graphs, measures,
                        triple_to_text)

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


def test_output_is_byte_identical_across_interpreter_hash_seeds():
    calls = [
        ("check", fixture_path("fix_e")),
        ("classdegree", fixture_path("fix_e")),
        ("fiber", fixture_path("fix_e"), "--y", "0", "1"),
        ("extract", fixture_path("fix_e"), "--y", "0", "1"),
        ("sync", fixture_path("fix_e"), "--y", "0", "1",
         "--interval", "0", "3"),
        ("bound", fixture_path("fix_c"),
         "--measure", fixture_path("fix_c_point", ".measure"), "--k", "2"),
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
    assert abs(base["value"] - log(GOLDEN)) < 1e-9
    bits = run_json("entropy", fixture_path("fix_a"), "--bits")["result"]
    assert bits["units"] == "bits"
    assert abs(bits["value"] - log(GOLDEN) / log(2)) < 1e-9
    parry = run_json("entropy", fixture_path("fix_a"), "--parry")["result"]
    assert parry["kind"] == "parry"
    assert abs(parry["value"] - log(GOLDEN)) < 1e-9
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
    assert result["iterations"] >= 1
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


def test_bound_short_of_its_tolerance_exits_5_with_the_report(
        monkeypatch, tmp_path, capsys):
    pres, parry = image_measure(fixtures.load("fix_e"), "parry")
    states = pres.x.symbols
    measure = tmp_path / "fix_e_parry.measure"
    measure.write_text("states: %s\n" % " ".join(states) + "".join(
        "row %s: %s\n" % (s, " ".join(repr(parry.kernel.get((s, u), 0.0))
                                       for u in states))
        for s in states))
    argv = ["bound", fixture_path("fix_e"), "--measure", str(measure),
            "--k", "1"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["converged"] is True
    monkeypatch.setattr(measures, "PROJECTION_CYCLES", 1)
    assert cli.main(argv) == 5
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["converged"] is False
    assert result["tolerance"] == 1e-12
    assert result["residuals"]["marginal"] >= 1e-12


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
    fiber add its covers at the class period P (here the period itself)
    and at 2P for the doubling check, each lifted once; sync needs
    none."""
    built, covers = [], []

    def build(t, word, *args):
        built.append(word)
        return real_graph(t, word, *args)

    def lift(period, *args):
        covers.append(period)
        return real_cover(period, *args)

    real_graph, real_cover = fiber.FiberGraph, fiber.PhaseCover
    monkeypatch.setattr(fiber, "FiberGraph", build)
    monkeypatch.setattr(fiber, "PhaseCover", lift)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert built == words
    assert covers == ([] if argv[0] == "sync" else [2, 4])


@pytest.mark.parametrize("argv, passes", [
    (["fiber", fixture_path("fix_e"), "--y", "0", "1"], 4),
    (["sync", fixture_path("fix_e"), "--y", "0", "1",
      "--interval", "0", "3"], 2),
    (["extract", fixture_path("fix_e"), "--y", "0", "1"], 5),
])
def test_tarjan_passes_per_command(argv, passes, monkeypatch, capsys):
    """One pass essentializes the triple and one per phase graph gives
    its cyclic components, walk depths and pruned part. fiber and
    extract add one per cover (class period and doubling check), and
    extract one for the depths of its transient vertices."""
    calls = []

    def count(adj):
        calls.append(len(adj))
        return real(adj)

    real = graphs.strongly_connected_components
    monkeypatch.setattr(graphs, "strongly_connected_components", count)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(calls) == passes


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
