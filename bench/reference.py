"""Independent answer checks for benchmark requests, without fanqec.

Oracle answers are compared within 1e-8 with the top eigenvalue (numpy
eigvalsh) of the distance matrix, from this module's own BFS, compressed by
a Helmert basis onto the hyperplane orthogonal to the ones vector.

An odd fan's answer is -2a - 2 for the reported minimal zero a, and the
certified bracket [lo, hi] on a must be at most 1e-12 wide.  The interval
[-2hi - 2, -2lo - 2] that the bracket certifies for the constant must meet
the proven open bounds (-4sin^2(pi/(2(n+1))), -4sin^2(pi/(2(n+2)))).  The
float midpoint itself is not compared with the bounds: above n ~ 1600 the
constant lies within 5e-15 of the lower bound, closer than the 1e-12
bisection tolerance, and by n ~ 2800 within two steps of the double grid
on which -2a - 2 is computed.

Verify must exit 0 with no failures and say OK.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from workloads import Request

TOL = 1e-8
# Width of the certified bracket on the minimal zero at the default --tol
# 1e-12, with room for rounding the rational endpoints to floats.
ODD_TOL = 1.001e-12


class CheckFailed(Exception):
    """The answer to a request is wrong or malformed."""


def bfs_distances(m: int, edges) -> np.ndarray:
    adj: list[list[int]] = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    d = np.empty((m, m))
    for src in range(m):
        dist = [-1] * m
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if min(dist) < 0:
            raise CheckFailed(f"reference graph is disconnected at vertex {src}")
        d[src] = dist
    return d


def fan_edges(n: int) -> list[tuple[int, int]]:
    """Hub 0 joined to every vertex of the path 1..n."""
    return [(0, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)]


def helmert(m: int) -> np.ndarray:
    """(m-1) x m orthonormal rows orthogonal to the ones vector."""
    k = np.arange(1, m)[:, None]
    j = np.arange(m)[None, :]
    r = 1.0 / np.sqrt(k * (k + 1.0))
    return np.where(j < k, r, np.where(j == k, -k * r, 0.0))


def top_eigenvalue(d: np.ndarray) -> float:
    q = helmert(len(d))
    return float(np.linalg.eigvalsh(q @ d @ q.T)[-1])


def odd_bounds(n: int) -> tuple[float, float]:
    return (-4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2,
            -4.0 * math.sin(math.pi / (2 * (n + 2))) ** 2)


def _parse_qec(stdout: str) -> tuple[float, str, dict[str, float]]:
    value, method, cert = stdout.splitlines()
    certificate = dict(item.split("=") for item in
                       cert.removeprefix("certificate: ").split())
    return (float(value), method.removeprefix("method: "),
            {k: float(v) for k, v in certificate.items()})


def _near(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= TOL:
        raise CheckFailed(f"{what}: {got!r} differs from reference {want!r}")


class Checker:
    """Checks answers; references are computed once per distinct input."""

    def __init__(self):
        self._oracle: dict[tuple[str, int], float] = {}

    def prepare(self, requests: list[Request]) -> None:
        """Compute every reference the requests need, before timing starts."""
        for r in requests:
            if r.kind == "fan_numeric":
                self._oracle[r.kind, r.size] = top_eigenvalue(
                    bfs_distances(r.size + 1, fan_edges(r.size)))
            elif r.kind == "graph":
                self._oracle[r.kind, r.size] = top_eigenvalue(
                    bfs_distances(r.size, r.edges))

    def check(self, request: Request, rc: int, stdout: str) -> int:
        """Work items delivered by a correct answer; raises CheckFailed."""
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        try:
            return self._check(request, stdout)
        except (ValueError, IndexError, KeyError) as exc:
            raise CheckFailed(f"malformed output ({exc!r}): {stdout[:200]!r}") \
                from None

    def _check(self, request: Request, stdout: str) -> int:
        if request.kind == "verify":
            return _check_verify(stdout)
        value, method, cert = _parse_qec(stdout)
        if request.kind == "fan_root":
            _check_odd(request.size, value, method, cert)
        else:
            if method != "numeric-oracle":
                raise CheckFailed(f"method {method!r}, expected numeric-oracle")
            _near(value, self._oracle[request.kind, request.size],
                  f"{request.kind} {request.size}")
        return 1


def _check_verify(stdout: str) -> int:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "OK":
        raise CheckFailed("verify did not end with OK")
    if (len(lines) < 3 or not lines[0].startswith("identities: ")
            or not lines[0].endswith(", 0 failures")
            or not lines[1].endswith(": 0 failures")):
        raise CheckFailed(f"verify reported failures: {lines[:2]}")
    return int(lines[0].split()[1])


def _check_odd(n: int, value: float, method: str, cert: dict[str, float]) -> None:
    if method != "root-based":
        raise CheckFailed(f"method {method!r}, expected root-based")
    zero, lo, hi = cert["minimal_zero"], cert["bracket_lo"], cert["bracket_hi"]
    if value != -2.0 * zero - 2.0:
        raise CheckFailed(f"fan {n}: {value!r} != -2 * {zero!r} - 2")
    if not lo <= zero <= hi <= lo + ODD_TOL:
        raise CheckFailed(f"fan {n}: minimal zero {zero!r} outside a bracket "
                          f"[{lo!r}, {hi!r}] of width <= {ODD_TOL}")
    lower, upper = odd_bounds(n)
    if not (-2.0 * hi - 2.0 < upper and -2.0 * lo - 2.0 > lower):
        raise CheckFailed(f"fan {n}: certified interval [{-2.0 * hi - 2.0!r}, "
                          f"{-2.0 * lo - 2.0!r}] misses ({lower!r}, {upper!r})")
