"""straightlaw benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --self-check
    python3 bench/run.py --record-golden

Workloads (see workloads.py for what one operation is):
  certify           seeded straighten + verify requests on a 4x4 matrix
  laplace-n7        straighten_laplace on all 3,432 size-matched pairs, n=7
  relations-n6      `relations --n 6 --json`, 54,976 relations
  independence-334  verify_independence(3,3,4) then completeness at n=5

Every pass runs in a fresh interpreter (worker.py), so the library's module
caches start cold. An untraced run repeats passes while another one fits in
--seconds (at least one) and prints the end-to-end metrics: medians over
passes, set-up as the median of several launches. Each pass draws its inputs
from its own seed, derived from --seed. Latency percentiles are over certify
requests; a sweep is a single request, timed once per pass. A traced run
makes one untraced and one traced pass and prints the per-layer metrics,
including the tracing overhead. Every output is checked against oracle.py
after its timed section, and the canonical output digest against
golden.json. The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
WORKLOAD_NAMES = ("certify", "laplace-n7", "relations-n6", "independence-334")
# Launches made only to time set-up, on top of the one each pass makes.
SETUP_LAUNCHES = 19
# Every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 165.0
# Pass i of a run draws its inputs from seed + i * PASS_SEED_STRIDE, so the
# certify latency percentiles pool distinct request streams.
PASS_SEED_STRIDE = 1_000_003


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # Fixed string hashing, so that traced counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Starts worker.py processes one at a time, all within one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def launch(self, workload: str, seed: int, *flags: str) -> tuple[float, dict | None]:
        """Run one worker; returns (set-up seconds, result or None)."""
        cmd = [sys.executable, "-s", str(BENCH / "worker.py"),
               "--workload", workload, "--seed", str(seed), *flags]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            remaining = self.deadline - time.perf_counter()
            rest, _ = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} worker ran past the run's time budget")
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
        if "--setup-only" in flags:
            return setup_s, None
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def golden_ok(result: dict, workload: str, small: bool) -> bool:
    return load_golden().get("small" if small else "full", {}).get(workload) == result["digest"]


def pass_ok(result: dict, workload: str, small: bool) -> bool:
    return (all(result["checks"].values()) and result["failed"] == 0
            and result["controls_rejected"] == result["controls"]
            and (result["controls"] > 0 or workload == "laplace-n7")
            and golden_ok(result, workload, small))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def timed_run(launcher: Launcher, workload: str, seed: int, seconds: float) -> tuple[list, dict, dict]:
    start = time.perf_counter()
    launcher.launch(workload, seed, "--setup-only")  # compiles bytecode; not measured
    setups = [launcher.launch(workload, seed, "--setup-only")[0] for _ in range(SETUP_LAUNCHES)]
    passes = []
    while True:
        t0 = time.perf_counter()
        setup_s, result = launcher.launch(workload, seed + len(passes) * PASS_SEED_STRIDE)
        setups.append(setup_s)
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    walls = [p["wall_s"] for p in passes]
    if workload == "certify":
        latencies = [x for p in passes for x in p["latencies_ms"]]
    else:
        # A sweep is one request: its latency is the whole sweep.
        latencies = [w * 1e3 for w in walls]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    info = {"passes": len(passes), "setup_samples": len(setups), "latency_samples": len(latencies)}
    return passes, values, info


def traced_run(launcher: Launcher, workload: str, seed: int) -> tuple[list, dict, dict]:
    launcher.launch(workload, seed, "--setup-only")
    _, plain = launcher.launch(workload, seed)
    _, traced = launcher.launch(workload, seed, "--trace")
    values = traced["layers"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = plain["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    info = {"traced output equals untraced output": traced["digest"] == plain["digest"]}
    return [plain, traced], values, info


def units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_loc": sum(
            1 for path in sorted((ROOT / "src" / "straightlaw").rglob("*.py"))
            for line in path.read_text().splitlines() if line.strip()
        ),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    launcher = Launcher(time.perf_counter() + RUN_BUDGET_S)
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        passes, values, info = traced_run(launcher, args.workload, args.seed)
        correct = all(info.values())
    else:
        passes, values, info = timed_run(launcher, args.workload, args.seed, args.seconds)
        correct = True
    # Exactly the metrics BENCHMARK.json declares; a missing one is a KeyError.
    metrics = {name: (values[name], unit)
               for name, unit in units("per_layer" if args.trace else "end_to_end").items()}
    for i, p in enumerate(passes):
        bad = sorted(k for k, v in p["checks"].items() if not v)
        golden = golden_ok(p, args.workload, False)
        print(f"pass {i}: wall {p['wall_s']:.3f} s, {p['ops']} ops, {p['failed']} failed, "
              f"controls rejected {p['controls_rejected']}/{p['controls']}, "
              f"golden {'match' if golden else 'MISMATCH'}"
              + (f", failed checks: {bad}" if bad else ""))
        correct &= pass_ok(p, args.workload, False)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})")
    print("run: " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_golden() -> int:
    """Record every digest, full and small, after the independent checks
    pass on the same outputs; refuse to record anything otherwise."""
    launcher = Launcher(time.perf_counter() + 3600)
    golden = {"full": {}, "small": {}}
    for size, flags in (("small", ("--small",)), ("full", ())):
        for workload in WORKLOAD_NAMES:
            _, result = launcher.launch(workload, 0, *flags)
            bad = sorted(k for k, v in result["checks"].items() if not v)
            if bad or result["failed"] or result["controls_rejected"] != result["controls"]:
                print(f"not recording {size} {workload}: failed checks {bad}, "
                      f"{result['failed']} failed operations", file=sys.stderr)
                return 1
            golden[size][workload] = result["digest"]
            print(f"{size} {workload}: {result['digest']}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


def self_check() -> int:
    """Tiny sizes of every workload, untraced and traced: every check must
    pass, every negative control must be refused, digests must match, and the
    traced run must produce every per-layer metric BENCHMARK.json declares.
    The checkers themselves are tested on tampered outputs."""
    launcher = Launcher(time.perf_counter() + 600)
    problems = []
    for workload in WORKLOAD_NAMES:
        before = len(problems)
        _, plain = launcher.launch(workload, 7, "--small")
        _, traced = launcher.launch(workload, 7, "--small", "--trace")
        if not pass_ok(plain, workload, True):
            problems.append(f"{workload}: checks {plain['checks']}, failed {plain['failed']}, "
                            f"controls {plain['controls_rejected']}/{plain['controls']}")
        if traced["digest"] != plain["digest"]:
            problems.append(f"{workload}: tracing changed the output")
        missing = set(units("per_layer")) - set(traced["layers"]) - {
            "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
        if missing:
            problems.append(f"{workload}: per-layer metrics missing: {sorted(missing)}")
        print(f"{workload}: {'ok' if len(problems) == before else 'PROBLEMS'}")
    problems += checker_controls()
    for p in problems:
        print("self-check: " + p, file=sys.stderr)
    print("self-check " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


def checker_controls() -> list[str]:
    """The oracle checks must refuse outputs that are wrong."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import straightlaw
    import workloads

    problems = []
    lap = workloads.Laplace(3, True)
    lap.run(straightlaw)
    terms = lap.terms()
    values = workloads.laplace_values(3, lap.n)
    i = next(i for i, t in enumerate(terms) if len(t) > 1)
    (key, coeff), rest = terms[i][0], terms[i][1:]
    bad = next((a, b) for a, b in lap.pairs if not (oracle.is_good(a, lap.n) and oracle.is_good(b, lap.n)))
    # Each wrong output breaks exactly one property the check tests.
    wrong_outputs = {
        "a changed coefficient": (lap.pairs[i], [(key, coeff + 1)] + rest),
        "a pair that is not good": (bad, [(bad, 1)]),
    }
    for what, (pair, wrong) in wrong_outputs.items():
        out = workloads.Outcome()
        workloads.check_laplace(out, lap.n, [pair], [wrong], values)
        if not out.failed:
            problems.append(f"laplace check accepted an output with {what}")

    cert = workloads.Certify(3, True, count=40)
    cert.run(straightlaw)
    results = cert.results
    j = next(j for j, r in enumerate(results) if json.loads(r[1])["terms"] and r[2] is None)
    k = next(k for k, (req, r) in enumerate(zip(cert.requests, results))
             if r[2] is None and not all(oracle.is_standard(f) for _, f in req.terms))
    unstraightened = json.loads(results[k][1])
    unstraightened["terms"] = [
        {"coeff": c, "factors": [{"rows": list(r), "cols": list(cl)} for r, cl in f]}
        for c, f in cert.requests[k].terms
    ]
    wrong_certs = {
        j: ("a changed coefficient", workloads.tamper_certificate(results[j][1], 0.0)),
        k: ("words that are not standard", json.dumps(unstraightened)),
    }
    for idx, (what, text) in wrong_certs.items():
        saved = results[idx]
        results[idx] = (saved[0], text) + saved[2:]
        if not cert.check(straightlaw).failed:
            problems.append(f"certify check accepted a certificate with {what}")
        results[idx] = saved
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "straightlaw" / "__init__.py").is_file():
        print(f"error: no straightlaw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
