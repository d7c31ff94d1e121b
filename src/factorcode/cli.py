"""Command line reports for factor code invariants.

Every subcommand reads a triple file and prints a JSON report (recode
prints a triple file instead). Exit status: 0 success, 1 bad input or
usage, 2 failed precondition, 3 uncertified class degree bound, 4 internal
error (a broken invariant, an exhausted internal cap or any other
unexpected exception), 5 relative entropy bound not converged (the report
is still printed, and its value is still an upper bound, only a looser
one).
"""

import argparse
import functools
import hashlib
import json
import sys
import time
from math import log

from .classdegree import (class_count_for_measure,
                          find_minimal_transition_block)
from .codes import (degree_witness, image_irreducible, is_finite_to_one,
                    sofic_image)
from .core import (EmptyShiftError, MeasureParseError, PeriodicPoint,
                   PreconditionError, TripleParseError, higher_block,
                   parse_triple, triple_to_text)
from .fiber import (build_fiber_graph, extract_transition_block,
                    synchronizing_extension, transition_classes)
from .measures import (entropy_rate, parry_measure, parse_measure, pqs_bound,
                       relative_entropy_upper_bound, spectral_entropy,
                       uniform_conditional_diagnostic)

SCHEMA = "factorcode/1"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is
    status 1 for everything the caller got wrong."""

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("triple", help="path to a triple file")
    common.add_argument("--plain", action="store_true",
                        help="flat key/value lines instead of JSON")
    common.add_argument("--bits", action="store_true",
                        help="report entropies in bits instead of nats")
    common.add_argument("--timing", action="store_true",
                        help="include elapsed_ms in the report")

    parser = _Parser(prog="factorcode",
                     description="invariants of factor codes on shifts "
                                 "of finite type")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common],
                   help="validate a triple and summarize it")

    p = sub.add_parser("degree", parents=[common],
                       help="degree of a finite-to-one code")
    p.add_argument("--strict", action="store_true",
                   help="also require an irreducible domain")

    p = sub.add_parser("classdegree", parents=[common],
                       help="class degree via minimal transition blocks")
    p.add_argument("--horizon", type=int, default=8,
                   help="longest image word length searched (default 8)")
    p.add_argument("--measure", help="Markov measure file on the image "
                                     "presentation; restricts the search "
                                     "to measure-positive words")

    p = sub.add_parser("fiber", parents=[common],
                       help="transition classes over a periodic image point")
    p.add_argument("--y", nargs="+", required=True, metavar="SYM",
                   help="periodic word of the image point")

    p = sub.add_parser("sync", parents=[common],
                       help="synchronizing radius of a window over a "
                            "periodic image point")
    p.add_argument("--y", nargs="+", required=True, metavar="SYM")
    p.add_argument("--interval", nargs=2, type=int, required=True,
                   metavar=("M", "N"), help="window coordinates")

    p = sub.add_parser("extract", parents=[common],
                       help="construct a transition block over a periodic "
                            "image point with depth = class count")
    p.add_argument("--y", nargs="+", required=True, metavar="SYM")

    p = sub.add_parser("recode", parents=[common],
                       help="emit the higher block recoding as a triple file")
    p.add_argument("--n", type=int, required=True,
                   help="window length of the recoding")

    p = sub.add_parser("entropy", parents=[common],
                       help="entropy of the domain shift or of a measure")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--parry", action="store_true",
                       help="entropy of the Parry measure of the domain")
    group.add_argument("--measure",
                       help="Markov measure file on the domain shift")

    p = sub.add_parser("bound", parents=[common],
                       help="relative entropy upper bound for an image "
                            "measure")
    p.add_argument("--measure", required=True,
                   help="Markov measure file on the image presentation")
    p.add_argument("--k", type=int, required=True,
                   help="block length parameter of the relaxation")

    return parser


def _symbol_order(t):
    order = {s: i for i, s in enumerate(t.x.symbols)}
    return lambda symbols: sorted(symbols, key=lambda s: order[s])


def _load_measure(path, base, inputs):
    with open(path, "rb") as handle:
        raw = handle.read()
    inputs["measure_sha256"] = hashlib.sha256(raw).hexdigest()
    return parse_measure(raw.decode("utf-8"), base)


def _cmd_check(t, args, inputs):
    return {
        "x_symbols": list(t.x.symbols),
        "y_symbols": list(t.y_alphabet),
        "edge_count": len(t.x.transitions),
        "irreducible": t.x.is_irreducible,
        "finite_to_one": is_finite_to_one(t),
        "image_irreducible_certified": image_irreducible(t),
        "presentation_states": len(sofic_image(t).masks),
    }, 0


def _cmd_degree(t, args, inputs):
    witness = degree_witness(t, strict=args.strict)
    return {"value": witness.value,
            "witness": {"w": list(witness.word), "i": witness.index}}, 0


def _cmd_classdegree(t, args, inputs):
    if args.measure:
        measure = _load_measure(args.measure, sofic_image(t).triple.x,
                                inputs)
        res = class_count_for_measure(t, measure, horizon=args.horizon)
    else:
        res = find_minimal_transition_block(t, horizon=args.horizon)
    syms = _symbol_order(t)
    payload = {
        "value": res.value,
        "witness": {"w": list(res.witness.word), "n": res.witness.index,
                    "m": syms(res.witness.symbols)},
        "horizon": res.horizon,
        "certified": res.certified,
    }
    return payload, 0 if res.certified else 3


def _cmd_fiber(t, args, inputs):
    report = transition_classes(
        build_fiber_graph(t, PeriodicPoint(tuple(args.y))))
    syms = _symbol_order(t)
    return {
        "word": list(report.word),
        "period": report.period,
        "unrolled_period": report.unrolled_period,
        "class_count": report.class_count,
        "classes": [{"name": c.name,
                     "representative": list(c.representative.word)}
                    for c in report.classes],
        "reaches": [[a, b] for a, b in report.reaches],
        "s_sets": {name: [syms(phase) for phase in report.s_sets[name]]
                   for name in report.s_sets},
        "transient": [syms(phase) for phase in report.transient],
        "transient_symbols": syms(report.transient_symbols),
        "stable_under_doubling": report.stable_under_doubling,
    }, 0


def _cmd_sync(t, args, inputs):
    ext = synchronizing_extension(t, PeriodicPoint(tuple(args.y)),
                                  tuple(args.interval))
    syms = _symbol_order(t)
    return {
        "interval": list(ext.interval),
        "radius": ext.radius,
        "blocks": [list(b) for b in ext.blocks],
        "per_coordinate": [syms(s) for s in ext.per_coordinate],
    }, 0


def _cmd_extract(t, args, inputs):
    res = extract_transition_block(t, PeriodicPoint(tuple(args.y)))
    syms = _symbol_order(t)
    return {
        "word": list(res.block.word),
        "index": res.block.index,
        "symbols": syms(res.block.symbols),
        "depth": res.block.depth,
        "class_count": res.class_count,
        "n2": res.n2,
        "n3": res.n3,
        "n4": res.n4,
        "radius": res.radius,
    }, 0


def _cmd_recode(t, args, inputs):
    recoded, _ = higher_block(t, args.n)
    return triple_to_text(recoded), 0


def _cmd_entropy(t, args, inputs):
    if args.measure:
        measure = _load_measure(args.measure, t.x, inputs)
        kind, value = "markov", entropy_rate(measure)
    elif args.parry:
        kind, value = "parry", entropy_rate(parry_measure(t.x))
    else:
        kind, value = "topological", spectral_entropy(t.x)
    if args.bits:
        value /= log(2)
    return {"kind": kind, "value": value,
            "units": "bits" if args.bits else "nats"}, 0


def _cmd_bound(t, args, inputs):
    measure = _load_measure(args.measure, sofic_image(t).triple.x, inputs)
    bound = relative_entropy_upper_bound(t, measure, args.k)
    value = bound.value / log(2) if args.bits else bound.value
    return {
        "k": bound.k,
        "value": value,
        "units": "bits" if args.bits else "nats",
        "pqs": pqs_bound(t, measure),
        "residuals": bound.residuals,
        "tolerance": bound.tolerance,
        "converged": bound.converged,
        "iterations": bound.iterations,
        "diagnostic": uniform_conditional_diagnostic(t, bound),
    }, 0 if bound.converged else 5


_HANDLERS = {
    "check": _cmd_check,
    "degree": _cmd_degree,
    "classdegree": _cmd_classdegree,
    "fiber": _cmd_fiber,
    "sync": _cmd_sync,
    "extract": _cmd_extract,
    "recode": _cmd_recode,
    "entropy": _cmd_entropy,
    "bound": _cmd_bound,
}


def _flatten(obj, prefix=""):
    items = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            items.extend(_flatten(obj[key], path))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            items.extend(_flatten(value, "%s[%d]" % (prefix, i)))
    else:
        items.append((prefix, json.dumps(obj)))
    return items


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        with open(args.triple, "rb") as handle:
            raw = handle.read()
        inputs = {"triple_sha256": hashlib.sha256(raw).hexdigest()}
        t = parse_triple(raw.decode("utf-8"))
        result, status = _HANDLERS[args.command](t, args, inputs)
    except PreconditionError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except (TripleParseError, MeasureParseError, EmptyShiftError,
            ValueError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError, MemoryError) as exc:
        print("internal error: %s" % (exc,), file=sys.stderr)
        return 4
    except Exception as exc:
        # any other failure is a fault of the program, never bad input
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 4

    if args.command == "recode":
        sys.stdout.write(result)
        return status

    envelope = {"schema": SCHEMA, "command": args.command,
                "input": inputs, "result": result}
    if args.timing:
        envelope["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
    if args.plain:
        for path, value in _flatten(envelope):
            print("%s %s" % (path, value))
    else:
        print(json.dumps(envelope, indent=2, sort_keys=True))
    return status


if __name__ == "__main__":
    sys.exit(main())
