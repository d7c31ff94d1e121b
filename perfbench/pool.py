"""Build the benchmark's case pool and capture its reference results.

    python3 perfbench/pool.py [--base N] [--workload NAME] [--out DIR]

For every stratum of every workload this generates candidate inputs from
generator seeds ``base, base+1, ...``, writes their triple and measure
files, runs every op of a candidate once through ``factorcode.cli.main``
and records the exit status and result digest (``bound`` ops record the
invariants checked by ``run.py`` instead). A candidate is kept when all
its ops finish within the op timeout without an unexpected exception and
its total cost lies within ``BAND`` of the median cost of the stratum's
candidates, so that passes cost about the same; the first ``PASSES``
such candidates are kept. Fixture ops are dealt into ``PASSES`` slices of
about equal cost instead. Every candidate's cost, kept or not, and the
bound measures dropped from it, are written to the pool file as the
sizing evidence.

The checked-in pool was built with ``--base 0`` at the seed commit; its
results are the reference every later commit is checked against. Seeds
from 1000 on are never used by the pool: ``--base 1000 --out DIR`` builds
a pool of unseen inputs for confirming a claim.
"""

import argparse
import json
import os
import statistics
import sys
from collections import deque

import gen
import run  # pins BLAS threads before anything imports numpy

CANDIDATES = 24
BAND = 1.25
# Instances kept per stratum, which is also the number of passes a run
# makes: every run covers the whole pool of its workload, 15-25 s at the
# seed commit, so all seeds time the same ops and differ only in the
# order of instances. ``--base`` builds pools of unseen inputs.
PASSES = {"image-scale": 3, "class-search": 12, "fiber-orbits": 3,
          "entropy-bound": 3}
MAX_PERIOD = 8

# Each stratum: (name, family, parameters). Sizes and the reasons for them
# are in BENCHMARK.json and CHANGES.md.
STRATA = {
    "image-scale": [
        ("random-40", "image", {"kind": "random", "n": 40}),
        ("random-50", "image", {"kind": "random", "n": 50}),
        ("random-60", "image", {"kind": "random", "n": 60}),
        ("rr-40", "image", {"kind": "rr", "n": 40}),
        ("rr-50", "image", {"kind": "rr", "n": 50}),
        ("rr-60", "image", {"kind": "rr", "n": 60}),
    ],
    "class-search": [
        # Twin costs spread over two decades, so a wider band.
        ("twin-certified-16", "twin", {"n": 16, "status": 0, "tries": 80,
                                       "op_timeout": 6, "band": 2.0}),
        ("twin-uncertified-12", "twin", {"n": 12, "status": 3,
                                         "tries": 800, "op_timeout": 6,
                                         "band": 2.0}),
        ("fixture", "fixture-class", {}),
    ],
    "fiber-orbits": [
        ("fixture", "fixture-fiber", {}),
        ("random-16", "fiber", {"n": 16, "extra": 32}),
        ("random-24", "fiber", {"n": 24, "extra": 24}),
        ("random-32", "fiber", {"n": 32, "extra": 32}),
    ],
    "entropy-bound": [
        ("fixture", "fixture-bound", {}),
        ("random-8", "bound", {"n": 8}),
        # k = 3 takes 4-6 s per op at n = 12, a fifth of a run.
        ("random-12", "bound", {"n": 12, "ks": [1, 2]}),
    ],
}

FIXTURES = ("fix_a", "fix_b", "fix_c", "fix_d", "fix_e", "fix_g")
FIXTURE_MEASURES = {"fix_a": ["fix_a_parry"], "fix_c": ["fix_c_point"],
                    "fix_e": ["fix_e_orbit01"]}
# The bundled orbit01 bound takes about 21 s at k = 1, longer than a whole
# run; the classdegree op on the same measure stays in class-search.
SKIP_BOUND = {"fix_e_orbit01"}


def fixture_text(name):
    path = os.path.join(run.SRC, "factorcode", "fixtures", name)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def presentation(text):
    from factorcode.codes import sofic_image
    from factorcode.core import parse_triple
    t = parse_triple(text)
    return t, sofic_image(t)


def cycle_through(x, start, limit=6):
    """Shortest cycle of the SFT through ``start``, at most ``limit``."""
    parent = {start: None}
    frontier = deque([(start, 0)])
    while frontier:
        u, d = frontier.popleft()
        for v in x.successors(u):
            if v == start:
                path = [u]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            if v not in parent and d + 1 < limit:
                parent[v] = u
                frontier.append((v, d + 1))
    return None


def parry_rows(x):
    from factorcode.measures import parry_measure
    m = parry_measure(x)
    return {s: [m.kernel.get((s, t), 0.0) for t in x.symbols]
            for s in x.symbols}


def orbit_rows(x, cycle):
    """Orbit measure rows; each state off the orbit moves one step along a
    shortest path into it, so the orbit is the only closed class."""
    from factorcode.core import PeriodicPoint
    from factorcode.measures import orbit_measure
    m = orbit_measure(x, PeriodicPoint(cycle))
    rows = {s: [m.kernel.get((s, t), 0.0) for t in x.symbols]
            for s in cycle}
    pred = {s: [] for s in x.symbols}
    for a, b in x.transitions:
        pred[b].append(a)
    step = {}
    frontier = deque(cycle)
    seen = set(cycle)
    while frontier:
        v = frontier.popleft()
        for u in sorted(pred[v], key=x.symbols.index):
            if u not in seen:
                seen.add(u)
                step[u] = v
                frontier.append(u)
    for s in x.symbols:
        if s not in rows:
            rows[s] = [1.0 if t == step[s] else 0.0 for t in x.symbols]
    return rows


def image_measures(pres, limit):
    """Parry measure and orbit measures on short cycles through the first
    states of an irreducible presentation, as (kind, file text)."""
    x = pres.triple.x
    if not pres.irreducible:
        return []
    out = [("parry", gen.measure_text(
        x.symbols, parry_rows(x), "Parry measure of the presentation"))]
    seen = set()
    for s in x.symbols:
        if len(out) >= limit:
            break
        cycle = cycle_through(x, s)
        if cycle is None or frozenset(cycle) in seen:
            continue
        seen.add(frozenset(cycle))
        out.append(("orbit%d" % len(seen), gen.measure_text(
            x.symbols, orbit_rows(x, cycle),
            "orbit measure of the presentation cycle " + " ".join(cycle))))
    return out


def image_ops(name):
    f = "{pool}/%s.triple" % name
    return [["check", f], ["degree", f], ["classdegree", f, "--horizon", "6"]]


def fiber_ops(name, text):
    from factorcode.codes import periodic_image_points
    from factorcode.core import parse_triple
    f = "{pool}/%s.triple" % name
    ops = []
    for point in periodic_image_points(parse_triple(text), MAX_PERIOD):
        y = list(point.word)
        ops.append(["fiber", f, "--y"] + y)
        ops.append(["sync", f, "--interval", "0", str(len(y)), "--y"] + y)
        ops.append(["extract", f, "--y"] + y)
    return ops


def bound_ops(name, measure_names, ks=(1, 2, 3)):
    f = "{pool}/%s.triple" % name
    return [["bound", f, "--measure", "{pool}/%s.measure" % m, "--k", str(k)]
            for m in measure_names for k in ks]


def instance(family, params, seed):
    """Files and op argv lists of one candidate, or None if the family has
    no candidate for this seed."""
    if family == "image":
        n = params["n"]
        if params["kind"] == "random":
            text = gen.random_code(n, 4, 3 * n, seed)
        else:
            text = gen.right_resolving_code(n, 4, n, seed)
        name = "%s-%d-s%d" % (params["kind"], n, seed)
        return {name + ".triple": text}, image_ops(name)
    if family == "twin":
        name = "twin-%d-s%d" % (params["n"], seed)
        f = "{pool}/%s.triple" % name
        return ({name + ".triple": gen.twin_code(params["n"], seed)},
                [["classdegree", f, "--horizon", "8"]])
    if family.startswith("fixture"):
        if seed >= len(FIXTURES):
            return None
        fix = FIXTURES[seed]
        text = fixture_text(fix + ".triple")
        files = {fix + ".triple": text}
        f = "{pool}/%s.triple" % fix
        measures = {m: fixture_text(m + ".measure")
                    for m in FIXTURE_MEASURES.get(fix, [])}
        for kind, mtext in image_measures(presentation(text)[1], 2):
            measures["%s_%s" % (fix, kind)] = mtext
        files.update({m + ".measure": t for m, t in measures.items()})
        if family == "fixture-class":
            ops = [["classdegree", f, "--horizon", "8"]]
            ops += [["classdegree", f, "--measure", "{pool}/%s.measure" % m]
                    for m in measures]
        elif family == "fixture-fiber":
            ops = fiber_ops(fix, text)
        else:
            ops = bound_ops(fix, [m for m in measures if m not in SKIP_BOUND])
        return files, ops
    if family == "fiber":
        n = params["n"]
        name = "fiber-%d-%d-s%d" % (n, params["extra"], seed)
        text = gen.random_code(n, 2, params["extra"], seed)
        return {name + ".triple": text}, fiber_ops(name, text)
    if family == "bound":
        n = params["n"]
        name = "bound-%d-s%d" % (n, seed)
        text = gen.random_code(n, 2, 3 * n, seed)
        pres = presentation(text)[1]
        if not pres.irreducible:
            return None
        files = {name + ".triple": text}
        mnames = []
        for kind, mtext in image_measures(pres, 2):
            files["%s_%s.measure" % (name, kind)] = mtext
            mnames.append("%s_%s" % (name, kind))
        return files, bound_ops(name, mnames, params.get("ks", (1, 2, 3)))
    raise ValueError(family)


def bound_reference(out_dir, argv, result):
    """Invariants of one bound op, computed independently of the solver."""
    import numpy as np
    from factorcode.measures import entropy_rate, parse_measure
    with open(argv[1].replace("{pool}", out_dir), encoding="utf-8") as h:
        t, pres = presentation(h.read())
    with open(argv[3].replace("{pool}", out_dir), encoding="utf-8") as h:
        measure = parse_measure(h.read(), pres.triple.x)
    index = {s: i for i, s in enumerate(t.x.symbols)}
    a = np.zeros((len(index), len(index)))
    for u, v in t.x.transitions:
        a[index[u], index[v]] = 1.0
    rho = max(abs(np.linalg.eigvals(a)))
    return {"k": result["k"], "pqs": result["pqs"],
            "h_nu": entropy_rate(measure), "h_top": float(np.log(rho)),
            "seed_value": result["value"],
            "seed_residual": run.bound_residual(result),
            "seed_iterations": result["iterations"]}


def capture(cli, out_dir, files, ops, timeout_s):
    """Write the files and run every op once. Returns (op records, cost,
    dropped) or None when an op fails. A ``bound`` op whose result breaks
    the invariants of ``run.check_bound`` at this commit drops every op on
    its measure; ``dropped`` lists those measures with the reason."""
    for fname, text in files.items():
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as h:
            h.write(text)
    records, dropped = [], {}
    for argv in ops:
        status, secs, stdout, error = run.call_cli(
            cli.main, run.expand(argv, out_dir), timeout_s)
        if argv[0] == "bound" and (error or status != 0):
            dropped[argv[3]] = error or "exit %s" % status
            continue
        if error or status not in (0, 2, 3):
            print("  rejected: %s -> %s" % (" ".join(argv),
                                            error or "exit %s" % status))
            return None
        record = {"argv": argv, "status": status,
                  "seed_ms": round(secs * 1000.0, 3)}
        if stdout:
            result = json.loads(stdout)["result"]
            if argv[0] == "bound":
                record["bound"] = bound_reference(out_dir, argv, result)
                reason = run.check_bound(result, record["bound"])
                if reason:
                    dropped[argv[3]] = reason
            else:
                record["digest"] = run.digest(result)
        records.append(record)
    records = [r for r in records
               if r["argv"][0] != "bound" or r["argv"][3] not in dropped]
    if not records:
        return None
    cost = sum(r["seed_ms"] for r in records) / 1000.0
    return records, cost, dropped


def slice_fixtures(ops, label, slices):
    """Deal fixture ops into ``slices`` instances of about equal cost
    (costliest first, in snake order), so that each pass runs a different
    share of the fixture ops and a run covers all of them once."""
    ops = sorted(ops, key=lambda op: -op["seed_ms"])
    dealt = [[] for _ in range(slices)]
    for i, op in enumerate(ops):
        row, col = divmod(i, slices)
        dealt[col if row % 2 == 0 else slices - 1 - col].append(op)
    return [{"seed": label, "slice": i,
             "seed_cost_s": round(sum(op["seed_ms"] for op in part)
                                  / 1000.0, 4),
             "ops": part} for i, part in enumerate(dealt)]


def build_stratum(cli, out_dir, keep, name, family, params, base):
    fixed = family.startswith("fixture")
    seeds = range(len(FIXTURES)) if fixed else \
        range(base, base + params.get("tries", CANDIDATES))
    candidates = []
    for seed in seeds:
        made = instance(family, params, seed)
        if made is None:
            continue
        files, ops = made
        captured = capture(cli, out_dir, files, ops,
                           params.get("op_timeout", run.OP_TIMEOUT_S))
        if captured and "status" in params and \
                captured[0][0]["status"] != params["status"]:
            captured = None
        cost = None if captured is None else captured[1]
        print("%s seed %d: %d ops, %s" % (
            name, seed, len(ops),
            "rejected" if cost is None else "%.2f s" % cost), flush=True)
        candidates.append((seed, files, captured))
    costs = [c[2][1] for c in candidates if c[2] is not None]
    median = statistics.median(costs)
    band = params.get("band", BAND)
    kept = []
    for seed, files, captured in candidates:
        in_band = captured is not None and (
            fixed or median / band <= captured[1] <= median * band)
        if not in_band or (len(kept) >= keep and not fixed):
            if not fixed:
                for fname in files:
                    os.remove(os.path.join(out_dir, fname))
            continue
        kept.append({"seed": seed, "seed_cost_s": round(captured[1], 4),
                     "ops": captured[0]})
    if fixed:
        kept = slice_fixtures(
            [op for f in kept for op in f["ops"]],
            "fixtures " + " ".join(FIXTURES[f["seed"]] for f in kept), keep)
    evidence = [{"seed": seed,
                 "seed_cost_s": None if c is None else round(c[1], 4),
                 "dropped_measures": None if c is None else c[2]}
                for seed, _, c in candidates]
    return {"name": name, "family": family, "params": params,
            "median_cost_s": round(median, 4), "candidates": evidence,
            "instances": kept}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=int, default=0,
                        help="first generator seed (default 0)")
    parser.add_argument("--workload", choices=run.WORKLOADS,
                        help="rebuild one workload only")
    parser.add_argument("--out", default=run.POOL,
                        help="pool directory (default perfbench/pool)")
    args = parser.parse_args(argv)
    cli = run.load_cli()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "warmup.triple"), "w") as handle:
        handle.write(gen.random_code(12, 2, 12, 0))
    for workload in ([args.workload] if args.workload else run.WORKLOADS):
        strata = [build_stratum(cli, args.out, PASSES[workload], *spec,
                                args.base)
                  for spec in STRATA[workload]]
        with open(os.path.join(args.out, workload + ".json"), "w") as h:
            json.dump({"workload": workload, "base": args.base,
                       "strata": strata}, h, indent=1, sort_keys=True)
            h.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
