"""Replay of the benchmark pools: every op of the fiber-orbits,
class-search and image-scale pools, run through ``cli.main`` in this
process, must give the exit status and the result digest recorded in
``perfbench/pool``. The digest is the one ``perfbench/run.py`` checks: the
first 20 hex digits of the sha256 of the compact, key-sorted JSON of the
envelope's ``result``. The entropy-bound pool is checked by invariants,
not digits, and is left to the benchmark."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from factorcode import cli

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "pool"


def digest(result):
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def replay(op):
    """None if the op gives its recorded status and digest, else why not."""
    argv = [a.replace("{pool}", str(POOL)) for a in op["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    if status != op["status"]:
        return "exit %r, recorded %r" % (status, op["status"])
    if not out.getvalue():
        return None if op.get("digest") is None else "no output"
    if digest(json.loads(out.getvalue())["result"]) != op["digest"]:
        return "result digest differs"
    return None


@pytest.mark.parametrize("workload",
                         ["fiber-orbits", "class-search", "image-scale"])
def test_every_pool_op_gives_its_recorded_status_and_digest(workload):
    pool = json.loads((POOL / (workload + ".json")).read_text())
    ops = [op for stratum in pool["strata"]
           for instance in stratum["instances"] for op in instance["ops"]]
    assert ops
    failures = [(" ".join(op["argv"]), reason) for op in ops
                if (reason := replay(op)) is not None]
    assert failures == []
