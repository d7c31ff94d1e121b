"""Seeded closed-loop benchmark of the factorcode command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload image-scale --seed 7 --seconds 25 \
        --trace 0

Every operation ("op") is one ``factorcode.cli.main(argv)`` call on one
input, made in this process by a single caller: the next op starts when
the previous one returns, and no thread or worker process is used. The
inputs live in ``perfbench/pool`` (built by ``pool.py``), together with
the exit status and result digest the seed commit gave for every op.

A workload is a list of strata (input families at one size), each with
the same number of instances. One pass runs one instance of every stratum
through every command of the workload, and a run makes as many passes as
a stratum has instances, so it covers the whole pool of its workload
(about 25 s at the seed commit) and no op runs twice: a cache kept across
calls cannot turn a pass into repeats. ``--seed`` fixes the order in
which the passes take the instances. A run that has measured for
``--seconds`` starts no further pass.

``wall_s`` is the mean wall time of a pass (the summed latency of its
ops), ``op_ms_p50`` and ``op_ms_tail`` are Harrell-Davis estimates of the
median and the tail percentile over every op of the run, ``setup_s`` is
the median time of fresh interpreters importing ``factorcode.cli`` and
``peak_rss_mb`` the peak resident memory of this process. Every time
among these is scaled to a reference host speed by the probe of
``hostspeed.py``, timed between ops, because the speed of a shared host
drifts more between runs than the bounds allow; the unscaled figures and
the host speed (1 at the reference) are printed before the last line.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``spans.py``).
Every op's exit status and result are checked against the pool; the lines
before the last print every metric, including the failure share and the
largest entropy-bound residual, which are zero or near it on a correct
run and so are kept out of the bounded metrics.
"""

import os

# Pin BLAS threads before numpy is imported anywhere in this process or in
# the fresh interpreters started to time set-up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
POOL = os.path.join(HERE, "pool")

WORKLOADS = ("image-scale", "class-search", "fiber-orbits", "entropy-bound")

# An op that runs longer than this counts as failed. The slowest op of the
# pool takes about 4 s at the seed commit.
OP_TIMEOUT_S = 30.0
# No op starts once the measured phase has run this long past --seconds,
# so a regression to hangs still ends the run well inside 180 s.
OVERRUN_S = 60.0
SETUP_REPEATS = 7

# Checks on ``bound`` ops, which any correct solver meets: the value lies
# between the entropy of the image measure and the topological entropy of
# the domain, up to a slack that grows with the residual the solver
# reports, and that residual is small.
BOUND_SLACK = 1e-7
BOUND_SLACK_PER_RESIDUAL = 10.0
RESIDUAL_CAP = 1e-3


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no ``except Exception`` in
    the package can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def load_cli():
    """Import ``factorcode.cli`` from this checkout's ``src``, never from
    an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "factorcode", "cli.py")):
        raise SystemExit("error: %s holds no factorcode package; run from "
                         "the root of a factorcode checkout" % SRC)
    sys.path.insert(0, SRC)
    from factorcode import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: imported factorcode from %s, not from %s"
                         % (cli.__file__, SRC))
    return cli


def call_cli(main, argv, timeout_s=OP_TIMEOUT_S):
    """One op: returns (status, seconds, stdout, error). ``error`` is None
    unless the call timed out or raised."""
    out, err = io.StringIO(), io.StringIO()
    status, error = None, None
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
    except OpTimeout:
        error = "timeout after %.0f s" % timeout_s
    except Exception as exc:  # an unexpected exception fails the op
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    return status, elapsed, out.getvalue(), error


def scaled(probe, measured):
    """Times measured after the given probe samples, at reference speed."""
    return [secs * probe.scale(mark) for secs, mark in measured]


def digest(result):
    """Short digest of the canonical JSON of a result object."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def bound_residual(result):
    return max(result["residuals"]["image"], result["residuals"]["marginal"])


def check_bound(result, ref):
    """Invariants of a ``bound`` result; returns a failure reason or None."""
    if result["k"] != ref["k"] or result["units"] != "nats":
        return "k or units differ"
    if result["pqs"] != ref["pqs"]:
        return "pqs %r != %r" % (result["pqs"], ref["pqs"])
    residual = bound_residual(result)
    if not residual <= RESIDUAL_CAP:
        return "residual %.3g above %.0e" % (residual, RESIDUAL_CAP)
    slack = BOUND_SLACK + BOUND_SLACK_PER_RESIDUAL * residual
    value = result["value"]
    if not ref["h_nu"] - slack <= value <= ref["h_top"] + slack:
        return "value %.12g outside [%.12g, %.12g]" % (
            value, ref["h_nu"], ref["h_top"])
    return None


def check_op(op, status, stdout):
    """Compare one op with its pool reference; returns a failure reason or
    None. Exit 2 (precondition) and 3 (uncertified) are results."""
    if status != op["status"]:
        return "exit %r, reference %r" % (status, op["status"])
    if not stdout:
        return None if op.get("digest") is None else "no output"
    try:
        result = json.loads(stdout)["result"]
        if "bound" in op:
            return check_bound(result, op["bound"])
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable report: %s" % exc
    if digest(result) != op["digest"]:
        return "result digest differs"
    return None


def load_pool(workload):
    with open(os.path.join(POOL, workload + ".json")) as handle:
        return json.load(handle)


def expand(argv, pool=POOL):
    return [a.replace("{pool}", pool) for a in argv]


def schedule(pool, seed):
    """Per stratum, the order in which passes use its instances."""
    import gen
    orders = []
    for index, stratum in enumerate(pool["strata"]):
        rng = gen.stream_for(7, seed & gen.MASK, index)
        orders.append(rng.shuffle(list(range(len(stratum["instances"])))))
    return orders


def pass_ops(pool, orders, k):
    ops = []
    for stratum, order in zip(pool["strata"], orders):
        ops.extend(stratum["instances"][order[k]]["ops"])
    return ops


def setup_times(repeats, probe, importtime=False):
    """Wall time of fresh interpreters importing ``factorcode.cli`` from
    this checkout, each with the probe sample taken before it; the first
    launch is a warm-up and is not reported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-c", "import factorcode.cli"]
    times, stderr = [], []
    for i in range(repeats + 1):
        mark = probe.sample()
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit("error: importing factorcode.cli failed:\n"
                             + proc.stderr)
        if i:
            times.append((elapsed, mark))
            stderr.append(proc.stderr)
    probe.sample()
    return times, stderr


def quantile(values, p, grid=20000):
    """Harrell-Davis estimate of the ``p`` quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks. Over a few dozen ops of unlike sizes, the plain order statistic
    jumps between neighbours 40% apart when op noise swaps their ranks;
    this estimate moves with them smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1 or p >= 1.0:
        return ordered[-1]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    for j in range(grid):
        t = (j + 0.5) / grid
        weights[min(int(t * n), n - 1)] += math.exp(
            log_norm + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(latencies_ms):
    """Latency at the highest whole percentile that leaves at least ten
    ops above it, with that percentile and the op count."""
    n = len(latencies_ms)
    if n <= 10:
        return max(latencies_ms), 100, n
    pct = math.floor(100.0 * (n - 10) / n)
    return quantile(latencies_ms, pct / 100.0), pct, n


def run_passes(cli, pool, seed, seconds, probe, tracer=None):
    """The measured phase. Returns every op's latency with the probe
    sample taken before it, the op ranges of the complete passes,
    failures, bound residuals and, in a traced run, the unscaled wall
    times of the same passes rerun with spans on."""
    orders = schedule(pool, seed)
    measured, passes, traced_walls, residuals, failures = [], [], [], [], []
    attempted = 0
    begin = time.perf_counter()
    cutoff = begin + seconds + OVERRUN_S
    for k in range(min(len(order) for order in orders)):
        if time.perf_counter() - begin >= seconds:
            break
        ops = pass_ops(pool, orders, k)
        first = len(measured)
        for op in ops:
            if time.perf_counter() > cutoff:
                break
            mark = probe.due()
            gc.collect()
            status, secs, stdout, error = call_cli(cli.main,
                                                   expand(op["argv"]))
            attempted += 1
            measured.append((secs, mark))
            reason = error or check_op(op, status, stdout)
            if reason:
                failures.append((" ".join(op["argv"]), reason))
            elif "bound" in op:
                residuals.append(bound_residual(json.loads(stdout)["result"]))
        else:
            passes.append((first, len(measured)))
            if tracer is not None:
                probe.sample()
                traced_walls.append(_traced_pass(cli, ops, tracer, cutoff))
        if time.perf_counter() > cutoff:
            break
    probe.sample()
    return {"measured": measured, "passes": passes,
            "traced_walls": traced_walls, "residuals": residuals,
            "failures": failures, "attempted": attempted}


def _traced_pass(cli, ops, tracer, cutoff):
    """Rerun a pass with spans on; its outputs were checked untraced."""
    wall = 0.0
    for op in ops:
        if time.perf_counter() > cutoff:
            break
        gc.collect()
        with tracer.active():
            status, secs, stdout, error = call_cli(cli.main,
                                                   expand(op["argv"]))
        wall += secs
        if stdout and error is None:
            tracer.read_envelope(json.loads(stdout))
    return wall


def timings(secs, passes, setup):
    """Wall, latency and set-up figures from op times and launch times."""
    latencies = [x * 1000.0 for x in secs]
    p_ms, pct, count = tail(latencies)
    # A run cut short by the overrun guard has no complete pass.
    walls = [sum(secs[a:b]) for a, b in passes] or [sum(secs)]
    return {
        "wall_s": (statistics.mean(walls), "s"),
        "op_ms_p50": (quantile(latencies, 0.5), "ms"),
        "op_ms_tail": (p_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
    }, pct, count


def end_to_end(run, setup, probe):
    metrics, pct, count = timings(scaled(probe, run["measured"]),
                                  run["passes"], scaled(probe, setup))
    metrics.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "failed_share": (len(run["failures"]) / max(run["attempted"], 1),
                         "1"),
        "bound_residual_max": (max(run["residuals"], default=0.0), "1"),
    })
    raw, _, _ = timings([secs for secs, _ in run["measured"]],
                        run["passes"], [secs for secs, _ in setup])
    for name, value in raw.items():
        metrics["unscaled." + name] = value
    metrics["host_speed"] = (hostspeed.REFERENCE_S
                             / statistics.median(probe.samples), "1")
    return metrics, pct, count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    pool = load_pool(args.workload)
    for argv in (["check", "{pool}/warmup.triple"],
                 ["classdegree", "{pool}/warmup.triple", "--horizon", "4"]):
        call_cli(cli.main, expand(argv))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    # Ops start from a collected heap; freezing what exists now (package,
    # pool) keeps each of those collections short.
    probe = hostspeed.Probe()
    gc.collect()
    gc.freeze()
    run = run_passes(cli, pool, args.seed, args.seconds, probe, tracer)
    setup, importtime = setup_times(SETUP_REPEATS, probe,
                                    importtime=bool(tracer))

    metrics, pct, count = end_to_end(run, setup, probe)
    for name, (value, unit) in metrics.items():
        print("%-20s %14.6g %s" % (name, value, unit))
    print("op_ms_tail is p%d of %d ops over %d passes" % (
        pct, count, len(run["passes"])))
    for argv_text, reason in run["failures"][:20]:
        print("FAILED %s: %s" % (argv_text, reason))

    if tracer is not None:
        chosen = tracer.metrics(importtime, len(run["passes"]),
                                statistics.mean(run["traced_walls"] or [0.0]),
                                metrics["unscaled.wall_s"][0])
        for name, (value, unit) in chosen.items():
            print("%-52s %14.6g %s" % (name, value, unit))
    else:
        chosen = {k: metrics[k] for k in
                  ("wall_s", "op_ms_p50", "op_ms_tail", "setup_s",
                   "peak_rss_mb")}
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
