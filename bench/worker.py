"""One pass of one workload in a fresh interpreter, so every module cache of
straightlaw starts cold.

Protocol with run.py: after `import straightlaw` and one trivial
`straighten`, the worker prints "ready" (the parent times launch to ready as
set-up). Unless --setup-only is given it then builds the inputs, runs the
timed section, checks every output, and prints one JSON line with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import straightlaw
    from straightlaw import cli

    if Path(straightlaw.__file__).resolve().parent != SRC / "straightlaw":
        print(f"error: imported straightlaw from {straightlaw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["straighten", "[1|2][2|1]"])
    if rc != 0:
        print("error: trivial straighten failed", file=sys.stderr)
        return 2
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    # The benchmark's own modules load after "ready", outside set-up.
    from workloads import GOLDEN_SEED, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.small)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    t0 = time.perf_counter()
    ops = workload.run(straightlaw)
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics(wall_s) if tracer else None

    outcome = workload.check(straightlaw)
    golden = workload.golden()
    checks = dict(outcome.checks)
    if golden is not workload:
        golden.run(straightlaw)
        golden_outcome = golden.check(straightlaw)
        checks.update({f"golden stream (seed {GOLDEN_SEED}): {k}": v
                       for k, v in golden_outcome.checks.items()})
        checks["golden stream has no failures"] = golden_outcome.failed == 0
        digest = golden_outcome.digest
    else:
        digest = outcome.digest

    result = {
        "wall_s": wall_s,
        "ops": ops,
        "attempted": ops + outcome.extra_attempted,
        "failed": outcome.failed,
        "controls": outcome.controls,
        "controls_rejected": outcome.controls_rejected,
        "checks": checks,
        "digest": digest,
        "rss_mb": rss_mb,
        "latencies_ms": getattr(workload, "latencies_ms", None),
        "layers": layers,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
