"""One benchmark request in a fresh interpreter.

    python3 child.py <trace 0|1> <fanqec argv...>
    python3 child.py probe

Imports numpy, then fanqec.cli (set-up ends there), runs cli.main(argv)
with stdout captured, and prints one JSON record on its own stdout.  With
trace 1 the span tracer is installed after set-up and before the call.

The time to numpy imported is the run's measure of machine speed (see
run.py); numpy is imported first so that no change to fanqec can move it.
A probe prints only that instant and exits.
"""

import sys
import time

import numpy  # noqa: F401

NUMPY_NS = time.monotonic_ns()
if sys.argv[1:] == ["probe"]:
    print(NUMPY_NS)
    sys.exit(0)

import fanqec.cli as cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    ru_maxrss is not used: Linux carries the parent's high-water mark over
    the exec, so a large benchmark parent would show in every child.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    tracer = None
    if trace:
        import spans
        tracer = spans.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.monotonic_ns()
        rc = cli.main(argv)
        end = time.monotonic_ns()
    record = {
        "rc": rc,
        "fanqec_file": cli.__file__,
        "numpy_ns": NUMPY_NS,
        "imported_ns": IMPORTED_NS,
        "request_ns": end - start,
        "stdout": out.getvalue(),
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
