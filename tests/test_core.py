"""Tests for SFTs, triples, the file format, and higher-block recoding."""

import random

import pytest

from conftest import FIXTURE_NAMES, all_words, random_triple
from factorcode import (
    EmptyShiftError,
    FactorCodeError,
    FactorTriple,
    InputError,
    PeriodicPoint,
    Sft,
    TripleParseError,
    build_fiber_graph,
    canonical_orbit_word,
    enumerate_blocks,
    essentialize,
    essentialize_triple,
    fixtures,
    higher_block,
    least_rotation,
    make_sft,
    parse_triple,
    periodic_image_points,
    primitive_root,
    synchronizing_extension,
    transition_classes,
    triple_to_text,
)


def golden_mean():
    return make_sft(("0", "1"), [("0", "0"), ("0", "1"), ("1", "0")])


def test_sft_neighbor_maps():
    x = golden_mean()
    assert x.successors("0") == ("0", "1")
    assert x.successors("1") == ("0",)
    assert x.predecessors("0") == ("0", "1")
    assert x.predecessors("1") == ("0",)
    assert x.allows("0", "1") and not x.allows("1", "1")
    assert x.successor_map == {"0": ("0", "1"), "1": ("0",)}


def test_sft_admits_word_and_cycle():
    x = golden_mean()
    assert x.admits_word(("0", "1", "0", "0"))
    assert not x.admits_word(("1", "1"))
    assert not x.admits_word(())
    assert not x.admits_word(("0", "z"))
    assert x.admits_cycle(("0", "1"))
    assert not x.admits_cycle(("1",))


def test_input_error_is_a_package_error_and_a_value_error():
    """Callers catching either the package's base error or ValueError see
    every mistake in an argument or a file."""
    assert issubclass(InputError, FactorCodeError)
    assert issubclass(InputError, ValueError)


def test_sft_validation():
    with pytest.raises(EmptyShiftError):
        Sft((), frozenset())
    with pytest.raises(ValueError, match="duplicate"):
        Sft(("a", "a"), frozenset())
    with pytest.raises(InputError, match="unknown symbol"):
        Sft(("a",), frozenset([("a", "b")]))
    # a transition that is not a pair is refused when the shift is built
    for bad in (("a", "b", "a"), ("a",)):
        with pytest.raises(InputError, match="not a pair"):
            Sft(("a", "b"), frozenset([bad]))
        with pytest.raises(InputError, match="not a pair"):
            make_sft(("a", "b"), [bad])


def test_periodic_point_window_is_inclusive():
    p = PeriodicPoint(("0", "1"))
    assert p.period == 2
    assert p.symbol_at(-1) == "1"
    assert p.window(-2, 3) == ("0", "1", "0", "1", "0", "1")
    with pytest.raises(ValueError):
        PeriodicPoint(())


def test_word_canonicalization():
    assert primitive_root(("a", "b", "a", "b")) == ("a", "b")
    assert primitive_root(("a", "b", "a")) == ("a", "b", "a")
    assert least_rotation(("b", "a", "c")) == ("a", "c", "b")
    assert least_rotation(["b", "a", "c"]) == ("a", "c", "b")
    rng = random.Random(17)
    for _ in range(2000):
        word = [rng.choice("abc") for _ in range(rng.randint(1, 12))]
        brute = min(tuple(word[(i + j) % len(word)]
                          for j in range(len(word)))
                    for i in range(len(word)))
        assert least_rotation(word) == brute
        assert least_rotation(tuple(word)) == brute
    assert canonical_orbit_word(("1", "0", "1", "0")) == ("0", "1")


def test_essentialize_removes_dead_symbols():
    x = make_sft(("a", "b", "c"), [("a", "a"), ("a", "b"), ("b", "c")])
    e = essentialize(x)
    assert e.symbols == ("a",)
    assert e.transitions == frozenset([("a", "a")])
    with pytest.raises(EmptyShiftError):
        essentialize(make_sft(("a", "b"), [("a", "b")]))


def test_essentialize_triple_drops_orphaned_image_symbols():
    x = make_sft(("a", "b"), [("a", "a"), ("a", "b")])
    t = FactorTriple(x, {"a": "0", "b": "1"}, ("0", "1"))
    e = essentialize_triple(t)
    assert e.x.symbols == ("a",)
    assert e.y_alphabet == ("0",)


def test_factor_triple_validation():
    x = golden_mean()
    with pytest.raises(ValueError, match="cover"):
        FactorTriple(x, {"0": "a"}, ("a",))
    with pytest.raises(ValueError, match="undeclared"):
        FactorTriple(x, {"0": "a", "1": "b"}, ("a",))
    with pytest.raises(ValueError, match="no preimage"):
        FactorTriple(x, {"0": "a", "1": "a"}, ("a", "b"))
    t = FactorTriple(x, {"0": "a", "1": "b"}, ("a", "b"))
    assert t.preimages("a") == ("0",)
    with pytest.raises(ValueError, match="unknown image symbol"):
        t.preimages("z")


def test_parse_round_trip_on_fixtures():
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        again = parse_triple(triple_to_text(t))
        assert again.x.symbols == t.x.symbols
        assert again.x.transitions == t.x.transitions
        assert again.label == t.label
        assert again.y_alphabet == t.y_alphabet


def test_parse_essentializes_and_drops_unused_image_symbols():
    text = """
    # comment line
    xsymbols: a b dead
    ysymbols: 0 1 unused
    map: a>0 b>1 dead>1
    edges: a>a a>b b>a b>dead
    """
    t = parse_triple(text)
    assert t.x.symbols == ("a", "b")
    assert t.y_alphabet == ("0", "1")


def test_essential_triple_parses_to_one_sft_building_no_map():
    # an essential domain is kept whole, nothing pruned or rebuilt, and
    # neither the parse nor a fiber or sync op over a periodic image
    # point builds a neighbour map
    for name in FIXTURE_NAMES:
        text = fixtures.load_text(name + ".triple")
        y = periodic_image_points(parse_triple(text), 3)[-1]
        t = parse_triple(text)
        transition_classes(build_fiber_graph(t, y))
        synchronizing_extension(t, y, (0, y.period))
        assert not {"successor_map", "predecessor_map"} & set(vars(t.x))
        assert essentialize(t.x) is t.x
        assert essentialize_triple(t) is t


def test_parse_errors_carry_line_numbers():
    cases = [
        ("xsymbols: a\nysymbols: 0\nmap a>0\nedges: a>a\n", "line 3"),
        ("xsymbols: a a\n", "line 1: duplicate x symbol"),
        ("xsymbols: a\nysymbols: 0 0\n", "line 2: duplicate y symbol"),
        ("xsymbols: a\nysymbols: 0\nmap: a-0\nedges: a>a\n", "malformed map"),
        ("xsymbols: a\nysymbols: 0\nmap: z>0\nedges: a>a\n",
         "unknown x symbol 'z'"),
        ("xsymbols: a\nysymbols: 0\nmap: a>9\nedges: a>a\n",
         "unknown y symbol '9'"),
        ("xsymbols: a\nysymbols: 0\nmap: a>0 a>0\nedges: a>a\n",
         "labeled twice"),
        ("xsymbols: a\nysymbols: 0\nmap: a>0\nedges: a>a a>a\n",
         "duplicate edge"),
        ("xsymbols: a\nysymbols: 0\nmap: a>0\nedges: a>z\n",
         "unknown x symbol 'z'"),
        ("xsymbols: a\nysymbols: 0\nmap: a>0\nedges: a>a\nbogus: q\n",
         "unknown section"),
        ("ysymbols: 0\n", "no xsymbols"),
        ("xsymbols: a\n", "no ysymbols"),
        ("xsymbols: a\nysymbols: 0\nedges: a>a\n", "unlabeled x symbols: a"),
        ("xsymbols: a\nysymbols: 0\nmap: a>0\n", "no edges"),
        ("xsymbols: a>b\n", "may not contain"),
        ("ysymbols: 0>1\n", "may not contain"),
    ]
    for text, needle in cases:
        with pytest.raises(TripleParseError, match=needle):
            parse_triple(text)


def test_parse_empty_after_essentialization():
    with pytest.raises(EmptyShiftError):
        parse_triple("xsymbols: a b\nysymbols: 0\nmap: a>0 b>0\nedges: a>b\n")


def test_enumerate_blocks_matches_product_enumeration():
    for name in FIXTURE_NAMES:
        x = fixtures.load(name).x
        for n in (1, 2, 3, 4):
            got = enumerate_blocks(x, n)
            assert all(type(b) is tuple for b in got)
            assert got == sorted(
                all_words(x, n),
                key=lambda u: tuple(x.symbols.index(s) for s in u))
    with pytest.raises(ValueError):
        enumerate_blocks(golden_mean(), 0)


def test_higher_block_identity_at_window_one():
    t = fixtures.load("fix_b")
    rt, rec = higher_block(t, 1)
    assert rt is t
    p = PeriodicPoint(("a", "b"))
    assert rec.to_recoded_point(p) == p
    assert rec.to_base_point(p) == p


def test_higher_block_two_on_a_two_cycle():
    t = fixtures.load("fix_b")
    rt, rec = higher_block(t, 2)
    assert rt.x.symbols == ("a.b", "b.a")
    assert rt.x.transitions == frozenset([("a.b", "b.a"), ("b.a", "a.b")])
    assert rt.label == {"a.b": "0", "b.a": "0"}
    assert rt.y_alphabet == t.y_alphabet


def test_higher_block_refuses_windows_that_join_to_one_name():
    # ("a.b", "c") and ("a", "b.c") both join to "a.b.c"
    x = make_sft(("a.b", "c", "a", "b.c"), [("a.b", "c"), ("c", "a"),
                                            ("a", "b.c"), ("b.c", "a.b")])
    t = FactorTriple(x, dict.fromkeys(x.symbols, "0"), ("0",))
    with pytest.raises(ValueError, match="collide"):
        higher_block(t, 2)


def test_fixture_loader_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown fixture"):
        fixtures.load("nope")


def test_higher_block_round_trips():
    rng = random.Random(7)
    for name in FIXTURE_NAMES:
        t = fixtures.load(name)
        for n in (2, 3):
            rt, rec = higher_block(t, n)
            assert rt.x.is_essential
            assert rt.x.is_irreducible == t.x.is_irreducible
            for b in enumerate_blocks(t.x, n + 2):
                rb = rec.to_recoded_block(b)
                assert rt.x.admits_word(rb)
                assert rec.to_base_block(rb) == b
                assert rec.to_recoded_block(list(b)) == rb
                assert rec.to_base_block(list(rb)) == b
            words = [u for u in all_words(t.x, 4) if t.x.allows(u[-1], u[0])]
            for u in rng.sample(words, min(5, len(words))):
                p = PeriodicPoint(u)
                rp = rec.to_recoded_point(p)
                assert rt.x.admits_cycle(rp.word)
                assert rec.to_base_point(rp) == p
                assert rt.label_word(rp.word) == t.label_word(p.word)


def test_higher_block_rejects_short_blocks_and_bad_window():
    t = fixtures.load("fix_b")
    _, rec = higher_block(t, 3)
    with pytest.raises(ValueError, match="shorter"):
        rec.to_recoded_block(("a", "b"))
    with pytest.raises(ValueError, match="shorter"):
        rec.to_recoded_block(())
    with pytest.raises(ValueError, match="empty block"):
        rec.to_base_block(())
    with pytest.raises(ValueError):
        higher_block(t, 0)


def test_random_triples_are_essential_and_parse_stable():
    rng = random.Random(11)
    for _ in range(50):
        t = random_triple(rng)
        assert t.x.is_essential
        assert t.x.is_irreducible
        again = parse_triple(triple_to_text(t))
        assert again.x.symbols == t.x.symbols
        assert again.x.transitions == t.x.transitions
        assert again.label == t.label
        assert again.y_alphabet == t.y_alphabet
