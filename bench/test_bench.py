"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
from reference import CheckFailed, Checker
from workloads import WORKLOADS, Request, make_round

ROOT = Path(__file__).resolve().parent.parent

# A small instance of each workload, as fanqec argv.
SMALL = {
    "verify": ("verify", "--max-n", "20", "--roots-max-n", "12"),
    "odd_large": ("qec", "fan", "101"),
    "oracle": ("qec", "fan", "30", "--method", "numeric"),
}


def child(traced: bool, argv) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.CHILD), "1" if traced else "0", *argv],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv_and_edge_files(workload, tmp_path):
    def generate(seed, directory):
        requests = make_round(workload, seed, directory)
        files = {p.name: p.read_bytes() for p in sorted(directory.glob("*"))}
        argv = [tuple(a.replace(str(directory), "<dir>") for a in r.argv)
                for r in requests]
        return argv, files

    first = generate(7, tmp_path / "a")
    assert generate(7, tmp_path / "b") == first
    if workload in ("odd_large", "oracle"):
        assert generate(8, tmp_path / "c") != first


@pytest.fixture(scope="module")
def small_runs():
    """Untraced and traced records of each small instance."""
    return {w: (child(False, argv), child(True, argv)) for w, argv in SMALL.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_stdout_is_byte_identical(small_runs, workload):
    plain, traced = small_runs[workload]
    assert plain["rc"] == traced["rc"] == 0
    assert plain["stdout"].encode() == traced["stdout"].encode()
    assert "trace" not in plain


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_are_nonnegative_and_sum_to_request(small_runs, workload):
    _, traced = small_runs[workload]
    t = traced["trace"]
    assert t["calls"]["cli.main"] >= 1
    assert all(ns >= 0 for ns in t["self_ns"].values())
    assert sum(t["self_ns"].values()) == t["root_ns"]
    assert 0 < t["root_ns"] <= traced["request_ns"]


def test_latency_is_the_mean_of_each_request_median_at_reference_speed():
    def outcome(argv, seconds, numpy_s=run.REFERENCE_NUMPY_S):
        return run.Outcome((argv,), False, True, None, seconds, setup_s=0.2,
                           numpy_s=numpy_s, rss_mb=10.0, items=1)

    # A burst slows one repeat of "a"; the plain median of all five would
    # be "b"'s faster time, 2.0.
    outcomes = ([outcome("a", s) for s in (1.0, 1.0, 3.0)]
                + [outcome("b", s) for s in (2.0, 4.0)])
    values = run.end_to_end(outcomes, [])
    assert values["latency_s"] == (1.0 + 3.0) / 2
    assert values["items_per_s"] == 5 / 11.0
    # On a machine twice as slow everything takes twice as long, numpy's
    # import included; reference times stay, set-up time does not.
    slow = [outcome(o.argv[0], 2 * o.latency_s, 2 * run.REFERENCE_NUMPY_S)
            for o in outcomes]
    for o in slow:
        o.setup_s *= 2
    assert run.end_to_end(slow, [2 * run.REFERENCE_NUMPY_S]) \
        == values | {"setup_s": 0.4}


def test_request_over_its_time_limit_is_killed_and_failed():
    request = Request(("verify", "--max-n", "300"), "verify", 300)
    start = time.monotonic()
    outcome = run.attempt(ROOT, request, False, 0.5, Checker())
    assert time.monotonic() - start < 10
    assert not outcome.ok and "killed" in outcome.error


def test_install_rebinds_every_site():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fanqec.cli  # noqa: F401
        modules = [sys.modules["fanqec"]] + [sys.modules[f"fanqec.{m}"]
                                             for m in spans.MODULES]
        originals = {id(fn): fn for m in modules[1:]
                     for _, fn in spans._public_functions(m)}
        spans.install()
        for module in modules:
            for attr, value in vars(module).items():
                entries = value.values() if isinstance(value, dict) \
                    and not attr.startswith("__") else [value]
                for entry in entries:
                    for x in entry if isinstance(entry, tuple) else (entry,):
                        assert originals.get(id(x)) is not x, (module, attr)
    finally:
        sys.path.remove(str(ROOT / "src"))
        for name in [n for n in sys.modules if n.startswith("fanqec")]:
            del sys.modules[name]


def test_checker_accepts_answers_and_rejects_wrong_ones(small_runs):
    requests = {
        "verify": Request(SMALL["verify"], "verify", 20),
        "odd_large": Request(SMALL["odd_large"], "fan_root", 101),
        "oracle": Request(SMALL["oracle"], "fan_numeric", 30),
    }
    checker = Checker()
    checker.prepare(list(requests.values()))
    good = {w: small_runs[w][0]["stdout"] for w in WORKLOADS}
    assert checker.check(requests["verify"], 0, good["verify"]) > 100
    assert checker.check(requests["odd_large"], 0, good["odd_large"]) == 1
    assert checker.check(requests["oracle"], 0, good["oracle"]) == 1

    def nudged(text):
        """text with the constant on its first line moved by 1e-7."""
        value, rest = text.split("\n", 1)
        return f"{float(value) + 1e-7!r}\n{rest}"

    wrong = {
        "verify": good["verify"].replace("0 failures", "1 failures", 1),
        "odd_large": nudged(good["odd_large"]),
        "oracle": nudged(good["oracle"]),
    }
    for workload, text in wrong.items():
        assert text != good[workload]
        with pytest.raises(CheckFailed):
            checker.check(requests[workload], 0, text)
        with pytest.raises(CheckFailed):
            checker.check(requests[workload], 1, good[workload])
        for garbage in ("", "x\ny,z\n", good[workload][:40]):
            with pytest.raises(CheckFailed):
                checker.check(requests[workload], 0, garbage)
