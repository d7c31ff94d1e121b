"""Loader for the bundled example codes and measures."""

from importlib import resources

from .core import InputError, parse_triple

_NAMES = ("fix_a", "fix_b", "fix_c", "fix_d", "fix_e", "fix_g")


def load_text(filename):
    """Raw text of a bundled fixture file, e.g. "fix_a.triple"."""
    path = resources.files(__package__) / "fixtures" / filename
    return path.read_text(encoding="utf-8")


def load(name):
    """Parse a bundled factor code by short name, e.g. "fix_a"."""
    if name not in _NAMES:
        raise InputError("unknown fixture %r" % (name,))
    return parse_triple(load_text(name + ".triple"))


def names():
    return _NAMES
