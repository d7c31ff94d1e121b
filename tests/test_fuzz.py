"""Seeded fuzzing of both input formats through the command line.

The bundled triple and measure files are garbled by deleting characters,
inserting tokens and copying spans, then run through ``cli.main`` in this
process. A garbled input may be valid, be refused as bad input (exit 1)
or exceed a limit (exit 2), but it never reaches an internal error (exit
4) and never lets an exception escape.
"""

import random

from factorcode import cli, fixtures

TOKENS = ("\n", " ", ">", ":", "+", "#", "0", "1", "-1", "0.5", "1e308",
          "nan", "inf", "a", "xsymbols:", "ysymbols:", "map:", "edges:",
          "states:", "row", "row 0:", "0+1")
MEASURES = {"fix_a_parry": "fix_a", "fix_c_point": "fix_c",
            "fix_e_orbit01": "fix_e"}


def garble(rng, text):
    """``text`` after one to three random deletions, token insertions or
    span copies."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + text[j:]
        elif kind == 1:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        else:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + text[i:j] + text[at:]
    return text


def outcomes(cases, capsys):
    """Exit status of each argv; any run exiting 4 fails, with its error
    message."""
    seen = []
    for argv in cases:
        status = cli.main(argv)
        err = capsys.readouterr().err
        assert status != 4, (argv, err)
        seen.append(status)
    return seen


def test_garbled_triples_never_exit_4(tmp_path, capsys):
    rng = random.Random(20)
    path = tmp_path / "garbled.triple"
    names = fixtures.names()
    texts = {name: fixtures.load_text(name + ".triple") for name in names}
    seen = []
    for _ in range(1000):
        path.write_text(garble(rng, texts[rng.choice(names)]))
        command = rng.choice((["check"], ["degree"], ["classdegree"]))
        seen += outcomes([command + [str(path)]], capsys)
    assert {0, 1} <= set(seen)


def test_garbled_measures_never_exit_4(tmp_path, capsys):
    rng = random.Random(21)
    path = tmp_path / "garbled.measure"
    texts = {name: fixtures.load_text(name + ".measure")
             for name in MEASURES}
    triples = {}
    for name in set(MEASURES.values()):
        triples[name] = tmp_path / (name + ".triple")
        triples[name].write_text(fixtures.load_text(name + ".triple"))
    seen = []
    for _ in range(600):
        name = rng.choice(sorted(MEASURES))
        path.write_text(garble(rng, texts[name]))
        common = [str(triples[MEASURES[name]]), "--measure", str(path)]
        seen += outcomes([["classdegree"] + common,
                          ["bound"] + common + ["--k", "1"],
                          ["bound"] + common + ["--k", "2"]], capsys)
    assert {0, 1} <= set(seen)
