"""Seeded request lists for the three benchmark workloads.

A round is the list of fanqec command lines one workload sends; a run repeats
its round until time is up.  The seed fixes the round completely: the same
seed gives the same argv and the same edge-file bytes.  Sizes are held in
narrow bands (or fixed) so that the cost profile of a round, and so every
end-to-end metric, barely moves from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify", "odd_large", "oracle")

VERIFY_MAX_N = 300
# One odd fan size per band.  The bands are 20 wide so that a seed moves the
# cost of a request by about 2% at most; the memory of the s_poly build grows
# like n^3, so the top band sets peak_rss_mb.
ODD_BANDS = ((1601, 1621), (2801, 2821), (4001, 4021))
# Fan sizes and graph vertex counts for the numeric oracle.  The Jacobi sweep
# costs about m^3, so seeded sizes would move the median request with the
# seed; the seed draws the graph edges and the request order instead.  The
# sizes interleave, so request costs form one continuum with no gap at the
# median.
ORACLE_FANS = (30, 42, 54, 66, 78, 90)
ORACLE_GRAPHS = (36, 48, 60, 72, 84)


@dataclass(frozen=True)
class Request:
    """One fanqec invocation and what its answer is checked against.

    kind is verify, fan_root, fan_numeric or graph; size is the fan path
    length, the graph vertex count, or verify's --max-n.
    """

    argv: tuple[str, ...]
    kind: str
    size: int
    edges: tuple[tuple[int, int], ...] = ()


def random_connected_graph(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """Random spanning tree on shuffled labels 0..m-1 plus random chords, 2m edges."""
    labels = list(range(m))
    rng.shuffle(labels)
    edges = {tuple(sorted((labels[i], labels[rng.randrange(i)])))
             for i in range(1, m)}
    while len(edges) < 2 * m:
        u, v = rng.sample(range(m), 2)
        edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return edges


def make_round(workload: str, seed: int, work_dir: Path) -> list[Request]:
    """Requests of one round; oracle edge files are written under work_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [Request(("verify", "--max-n", str(VERIFY_MAX_N)), "verify",
                        VERIFY_MAX_N)]
    if workload == "odd_large":
        sizes = [lo + 2 * rng.randrange((hi - lo) // 2 + 1) for lo, hi in ODD_BANDS]
        return [Request(("qec", "fan", str(n)), "fan_root", n) for n in sizes]
    if workload != "oracle":
        raise ValueError(f"unknown workload {workload!r}")
    work_dir.mkdir(parents=True, exist_ok=True)
    requests = [Request(("qec", "fan", str(n), "--method", "numeric"),
                        "fan_numeric", n) for n in ORACLE_FANS]
    for n in ORACLE_GRAPHS:
        edges = random_connected_graph(rng, n)
        path = work_dir / f"oracle-{seed}-{n}.edges"
        path.write_text(f"# {n} vertices, seed {seed}\n"
                        + "".join(f"{u} {v}\n" for u, v in edges))
        requests.append(Request(("qec", "graph", str(path)), "graph", n,
                                tuple(edges)))
    rng.shuffle(requests)
    return requests

