"""Cold-process benchmark of the fanqec command line.

    python3 bench/run.py --workload <verify|odd_large|oracle>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a fanqec checkout.  One client sends the workload's
round of requests in a closed loop, whole rounds only, for --seconds.
Every request is a fresh interpreter that imports fanqec.cli from ./src and
calls cli.main(argv), so it pays cold caches as a command-line user does.
Each answer is checked outside the timed region against references computed
without fanqec.

With --trace 0 the end-to-end metrics come from untraced requests only.  With
--trace 1 untraced and traced rounds alternate: the traced rounds give the
per-layer metrics, and the pair gives the tracing overhead.  The last stdout
line is one JSON object; a full result file goes to bench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from reference import CheckFailed, Checker
from workloads import WORKLOADS, Request, make_round

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
# Per-request time limit; a request that runs longer is killed and failed.
LIMIT_S = {"verify": 60.0, "odd_large": 30.0, "oracle": 20.0}
# No request may run past this point of the process, so a run ends in time
# even when every request hangs.
HARD_STOP_S = 165.0
# Request times are reported at a reference machine speed: on which a child
# takes this long from spawn to numpy imported.  The shared host's speed
# drifts by up to half over minutes; the run's median time to numpy imported
# drifts with it, and no change to fanqec can move it (README, Noise).
REFERENCE_NUMPY_S = 0.15
# With --trace 0, after each request one probe child per this many seconds
# the request took, so a run of a few long requests has enough numpy times.
PROBE_EVERY_S = 1.5

END_TO_END = {
    "latency_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

# Per traced round.  "<span>.self_s" and "<span>.calls" read the span of that
# name; the rest are counters or derived below.
PER_LAYER = {
    "polynomial.mul.calls": "count",
    "polynomial.mul.self_s": "s",
    "polynomial.mul.coeff_products": "count",
    "polynomial.addsub.calls": "count",
    "polynomial.addsub.self_s": "s",
    "polynomial.exact_div.self_s": "s",
    "polynomial.sign_at.calls": "count",
    "polynomial.sign_at.self_s": "s",
    "polynomial.sign_at.coeff_bits": "bit",
    "chebyshev.build.calls": "count",
    "chebyshev.build.self_s": "s",
    "chebyshev.cache.hits": "count",
    "chebyshev.cache.misses": "count",
    "chebyshev.max_coeff_bits": "bit",
    "chebyshev.identity_suite.self_s": "s",
    "chebyshev.float_eval.calls": "count",
    "chebyshev.float_eval.self_s": "s",
    "roots.gamma.calls": "count",
    "roots.gamma.self_s": "s",
    "roots.beta.self_s": "s",
    "roots.zeros_of_s.self_s": "s",
    "roots.bisect.calls": "count",
    "roots.bisect.steps": "count",
    "roots.sign_queries": "count",
    "roots.refine_hit_ratio": "ratio",
    "graphs.parse.self_s": "s",
    "graphs.build.self_s": "s",
    "graphs.distance_matrix.calls": "count",
    "graphs.distance_matrix.self_s": "s",
    "graphs.distance_matrix.cells": "count",
    "qec.numeric.self_s": "s",
    "qec.helmert.self_s": "s",
    "qec.fan.self_s": "s",
    "qec.jacobi.calls": "count",
    "qec.jacobi.self_s": "s",
    "qec.jacobi.dim3": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "byte",
    "other.self_s": "s",
    "trace.request_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """One request as the client saw it."""

    argv: tuple[str, ...]
    traced: bool
    ok: bool
    error: str | None
    latency_s: float
    setup_s: float | None = None
    numpy_s: float | None = None
    rss_mb: float | None = None
    items: int = 0
    stdout_bytes: int = 0
    trace: dict | None = None


def spawn(root: Path, traced: bool, argv, limit: float):
    """Run one child; returns (child record or None, error, seconds, spawn ns)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(CHILD), "1" if traced else "0", *argv]
    spawned_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"killed after the {limit:.1f} s limit", limit, spawned_ns
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = (time.monotonic_ns() - spawned_ns) / 1e9
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record = None
    if proc.returncode != 0 or not isinstance(record, dict):
        return (None, f"child exited {proc.returncode}: {err.strip()[-500:]}",
                seconds, spawned_ns)
    fanqec_file = Path(record["fanqec_file"]).resolve()
    if (root / "src").resolve() not in fanqec_file.parents:
        return None, f"fanqec imported from {fanqec_file}", 0.0, spawned_ns
    if err.strip():
        record["stderr"] = err.strip()[-500:]
    return record, None, record["request_ns"] / 1e9, spawned_ns


def probe(root: Path, limit: float) -> float | None:
    """Seconds from spawning a probe child to numpy imported, or None."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    spawned_ns = time.monotonic_ns()
    try:
        done = subprocess.run([sys.executable, str(CHILD), "probe"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=limit)
        return (int(done.stdout) - spawned_ns) / 1e9
    except (subprocess.TimeoutExpired, ValueError):
        return None


def attempt(root: Path, request: Request, traced: bool, limit: float,
            checker: Checker) -> Outcome:
    record, error, seconds, spawned_ns = spawn(root, traced, request.argv, limit)
    if record is None:
        return Outcome(request.argv, traced, False, error, seconds)
    outcome = Outcome(
        request.argv, traced, True, None, seconds,
        setup_s=(record["imported_ns"] - spawned_ns) / 1e9,
        numpy_s=(record["numpy_ns"] - spawned_ns) / 1e9,
        rss_mb=record["peak_rss_kb"] / 1024,
        stdout_bytes=len(record["stdout"].encode()),
        trace=record.get("trace"))
    if traced:
        # Traced request time is the root span, to which self times sum.
        outcome.latency_s = record["trace"]["root_ns"] / 1e9
    try:
        outcome.items = checker.check(request, record["rc"], record["stdout"])
    except CheckFailed as exc:
        outcome.ok, outcome.error = False, str(exc)
        if record.get("stderr"):
            outcome.error += f" (stderr: {record['stderr']})"
    return outcome


def layer_values(traced_round: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one traced round (sums over its requests)."""
    self_ns, calls, counts = Counter(), Counter(), Counter()
    max_bits = 0
    for outcome in traced_round:
        t = outcome.trace
        self_ns.update(t["self_ns"])
        calls.update(t["calls"])
        counts.update(t["counts"])
        counts["chebyshev.cache.hits"] += t["cache_hits"]
        counts["chebyshev.cache.misses"] += t["cache_misses"]
        counts["cli.stdout_bytes"] += outcome.stdout_bytes
        counts["trace.root_ns"] += t["root_ns"]
        max_bits = max(max_bits, t["max_coeff_bits"])
    values: dict[str, float] = {}
    listed_ns = 0
    for name in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = self_ns[stem] / 1e9
            listed_ns += self_ns[stem]
        elif field == "calls":
            values[name] = calls[stem]
        elif name in counts:
            values[name] = counts[name]
    bisects = calls["roots.bisect"]
    values["roots.bisect.steps"] = counts["roots.bisect.steps"]
    values["roots.refine_hit_ratio"] = (
        counts["roots.bisect.zero_step_calls"] / bisects if bisects else 0.0)
    values["chebyshev.max_coeff_bits"] = max_bits
    values["other.self_s"] = (sum(self_ns.values()) - listed_ns) / 1e9
    values["trace.request_s"] = counts["trace.root_ns"] / 1e9
    for name in PER_LAYER:
        values.setdefault(name, 0)
    return values


def speed_scale(outcomes: list[Outcome], probes: list[float]) -> float:
    """Factor that turns this run's request times into reference seconds."""
    return REFERENCE_NUMPY_S / statistics.median(
        [o.numpy_s for o in outcomes if o.numpy_s is not None] + probes)


def end_to_end(outcomes: list[Outcome],
               probes: list[float]) -> dict[str, float]:
    done = [o for o in outcomes if o.setup_s is not None]
    scale = speed_scale(done, probes) if done else 1.0
    # The mean over a round's distinct requests of each one's median time.
    # A plain median of a round of distinct sizes falls between two sizes'
    # times and jumps from one to the other with noise (README, Noise).
    by_argv: dict[tuple[str, ...], list[float]] = {}
    for o in outcomes:
        by_argv.setdefault(o.argv, []).append(o.latency_s)
    latency = statistics.mean(statistics.median(times)
                              for times in by_argv.values())
    return {
        "latency_s": latency * scale,
        "items_per_s": sum(o.items for o in outcomes)
                       / sum(o.latency_s for o in outcomes) / scale,
        "peak_rss_mb": max((o.rss_mb for o in done), default=0.0),
        "ok_ratio": sum(o.ok for o in outcomes) / len(outcomes),
        "setup_s": statistics.median(o.setup_s for o in done) if done else 0.0,
    }


def per_layer(pairs: list[tuple[list[Outcome], list[Outcome]]]) -> dict[str, float]:
    rounds = [layer_values(traced) for _, traced in pairs]
    values = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}
    untraced = statistics.median(sum(o.latency_s for o in u) for u, _ in pairs)
    values["trace.overhead_ratio"] = values["trace.request_s"] / untraced
    return values


def latency_summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    summary = {"samples": len(values), "median_s": statistics.median(values)}
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100)
        for p in (99, 95, 90, 75):
            if len(values) * (100 - p) / 100 >= 10:
                summary[f"p{p}_s"] = cuts[p - 1]
                break
    return summary


def environment(root: Path, seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "fanqec").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    # A terminated run still kills and reaps its current child (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fanqec" / "cli.py").is_file():
        print(f"no fanqec source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    out = BENCH_DIR / "out"
    requests = make_round(args.workload, args.seed, out / "graphs")
    checker = Checker()
    checker.prepare(requests)
    # Warm the file cache and the bytecode of fanqec and numpy; untimed.
    record, error, _, _ = spawn(root, False, ("poly", "u", "0"), 60.0)
    if record is None:
        print(f"cannot run fanqec: {error}", file=sys.stderr)
        return 2

    outcomes: list[Outcome] = []
    probes: list[float] = []

    def run_round(traced: bool) -> list[Outcome] | None:
        """The round's outcomes, or None when the hard stop cut it short."""
        done = []
        for request in requests:
            limit = min(LIMIT_S[args.workload],
                        started + HARD_STOP_S - time.monotonic())
            if limit < 1.0:
                return None
            done.append(attempt(root, request, traced, limit, checker))
            outcomes.append(done[-1])
            for _ in range(0 if args.trace else
                           int(done[-1].latency_s / PROBE_EVERY_S)):
                left = started + HARD_STOP_S - time.monotonic()
                seconds = probe(root, left) if left >= 1.0 else None
                if seconds is not None:
                    probes.append(seconds)
        return done

    # Whole rounds only, so every request is sampled equally often; a round
    # is started only if one as long as the last still ends within --seconds.
    pairs: list[tuple[list[Outcome], list[Outcome]]] = []
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        untraced = run_round(False)
        traced = run_round(True) if args.trace and untraced else []
        if untraced is None or traced is None:
            break
        pairs.append((untraced, traced))
        last_round_s = time.monotonic() - round_start
        if time.monotonic() - loop_start + last_round_s > args.seconds:
            break
    if not outcomes:
        print("no request before the hard stop", file=sys.stderr)
        return 1

    failed = sum(not o.ok for o in outcomes)
    if args.trace:
        complete = [p for p in pairs if all(o.trace for o in p[1])]
        values = per_layer(complete) if complete else dict.fromkeys(PER_LAYER, 0)
        units = PER_LAYER
    else:
        values, units = end_to_end(outcomes, probes), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root, args.seed),
        "rounds": len(pairs),
        # As measured, in seconds of this machine, not reference seconds.
        "latency": latency_summary([o.latency_s for o in outcomes if not o.traced]),
        "speed_scale": speed_scale(outcomes, probes)
                       if any(o.numpy_s for o in outcomes) else None,
        "probes": probes,
        "result": result,
        "requests": [asdict(o) | {"trace": None} for o in outcomes],
        "errors": sorted({o.error for o in outcomes if o.error}),
    }
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")
    for error in detail["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
