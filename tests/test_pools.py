"""Replay of the benchmark pools: every op of the four pools, run through
``cli.main`` in this process by ``perfbench/run.py``'s own ``call_cli``,
must pass its own ``check_op``. That is the exit status and result digest
recorded in ``perfbench/pool`` for most ops, and the invariants of the
bound (value between the entropies, small residual) for the entropy-bound
pool. A floating-point warning fails the replay, as it fails the op in
the benchmark run under ``-W error::RuntimeWarning``."""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from factorcode import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run():
    """``perfbench/run.py`` as a module. Its sibling ``hostspeed`` is
    importable while it loads, and the thread settings it makes in the
    environment are undone afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), \
            mock.patch.object(sys, "path", [str(PERFBENCH)] + sys.path):
        spec.loader.exec_module(run)
    return run


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("workload", ["fiber-orbits", "class-search",
                                      "image-scale", "entropy-bound"])
def test_every_pool_op_gives_its_recorded_status_and_digest(workload):
    run = load_run()
    ops = [op for stratum in run.load_pool(workload)["strata"]
           for instance in stratum["instances"] for op in instance["ops"]]
    assert ops
    failures = []
    for op in ops:
        status, _, stdout, error = run.call_cli(cli.main,
                                                run.expand(op["argv"]))
        reason = error or run.check_op(op, status, stdout)
        if reason is not None:
            failures.append((" ".join(op["argv"]), reason))
    assert failures == []
