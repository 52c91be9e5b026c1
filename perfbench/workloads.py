"""Input graphs and fixed job lists of the four benchmark workloads.

Every graph is built here, independently of the package under test, and
written as graph JSON ({"n": int, "edges": [[u, v], ...]}); the program
only ever receives `--graph <file>`.  Random cacti draw their structure
from the workload seed; the named families (lines, stars, square chains,
spiders, flowers, a cycle with pendants) are the same for every seed, so
most of a round's work does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace

WORKLOADS = ("solve-large", "qft-cascade", "hash-fold", "verify-dense")


@dataclass(frozen=True)
class GraphSpec:
    """A cactus with its simple cycles, as the benchmark built it."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, ...], ...]

    @property
    def blocks(self) -> int:
        """Blocks of the block tree: cycles plus vertices on no cycle."""
        on_cycle = {v for cyc in self.cycles for v in cyc}
        return len(self.cycles) + self.n - len(on_cycle)


@dataclass(frozen=True)
class Job:
    """One CLI call: `command --graph <file> *extra` on `graph`; `l` is the
    fold count a hash job asks for.  A `once` job runs a single time per
    benchmark run, before the timed rounds, and is left out of them."""

    name: str
    command: str
    graph: GraphSpec
    extra: tuple[str, ...] = ()
    l: int | None = None
    once: bool = False


class _Builder:
    def __init__(self):
        self.n = 1
        self.edges: list[tuple[int, int]] = []
        self.cycles: list[tuple[int, ...]] = []

    def pendant(self, at: int) -> int:
        v = self.n
        self.n += 1
        self.edges.append((at, v))
        return v

    def ring(self, at: int, size: int) -> list[int]:
        ring = [at] + list(range(self.n, self.n + size - 1))
        self.n += size - 1
        self.edges.extend(zip(ring, ring[1:] + ring[:1]))
        self.cycles.append(tuple(ring))
        return ring

    def spec(self, name: str) -> GraphSpec:
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        return GraphSpec(name, self.n, edges, tuple(self.cycles))


def random_cactus(name: str, n: int, rng: random.Random, cycle_prob: float,
                  pieces: random.Random) -> GraphSpec:
    """Grow from one vertex: hang a pendant or thread a 3..6-cycle through a
    random existing vertex, until there are exactly n vertices.

    `pieces` draws the sequence of pendants and cycle sizes and `rng` where
    each piece attaches.  Keeping `pieces` fixed while `rng` follows the
    workload seed gives every seed the same vertex, cycle and block counts,
    so the solver's work varies little between seeds.
    """
    b = _Builder()
    while b.n < n:
        room = n - b.n
        size = 1
        if room >= 2 and pieces.random() < cycle_prob:
            size = pieces.randint(3, min(6, room + 1))
        at = rng.randrange(b.n)
        if size == 1:
            b.pendant(at)
        else:
            b.ring(at, size)
    return b.spec(name)


def line(n: int) -> GraphSpec:
    b = _Builder()
    for v in range(n - 1):
        b.pendant(v)
    return b.spec(f"line{n}")


def star(n: int) -> GraphSpec:
    b = _Builder()
    for _ in range(n - 1):
        b.pendant(0)
    return b.spec(f"star{n}")


def chain_of_squares(t: int) -> GraphSpec:
    """t four-cycles glued at opposite corners (n = 3t + 1)."""
    b = _Builder()
    corner = 0
    for _ in range(t):
        sq = b.ring(corner, 4)
        corner = sq[2]
    return b.spec(f"chain4x{t}")


def cycle_with_pendants(t: int) -> GraphSpec:
    """One t-cycle with a pendant on every cycle vertex (n = 2t)."""
    b = _Builder()
    for v in b.ring(0, t):
        b.pendant(v)
    return b.spec(f"cycle{t}pend")


def spider(legs: int, length: int) -> GraphSpec:
    """Legs of `length` vertices joined at vertex 0; three or more legs of
    length >= 2 force a covering walk to revisit the centre."""
    b = _Builder()
    for _ in range(legs):
        at = 0
        for _ in range(length):
            at = b.pendant(at)
    return b.spec(f"spider{legs}x{length}")


def flower(petals: int, size: int) -> GraphSpec:
    """`petals` cycles of `size` vertices sharing vertex 0."""
    b = _Builder()
    for _ in range(petals):
        b.ring(0, size)
    return b.spec(f"flower{petals}x{size}")


def _seeded(workload: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{slot}")


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's fixed job list for this seed."""
    def rand(n: int, cycle_prob: float = 0.45, tag: str = "") -> GraphSpec:
        name = f"rand{n}{tag}"
        return random_cactus(name, n, _seeded(workload, seed, name), cycle_prob,
                             pieces=random.Random(f"{workload}/{name}"))

    if workload == "solve-large":
        # The all-roots DP is nearly all of the time; rand100/200/400 is a
        # doubling ladder.  line1100's block tree is deeper than the
        # recursion limit and fails today, on purpose; it takes as long as
        # the rest of the list, so it runs once per run, untimed.
        graphs = [
            rand(100), rand(200), rand(400),
            rand(200, 0.85, "heavy"),
            chain_of_squares(100), star(200), cycle_with_pendants(60),
            spider(6, 20), flower(30, 5),
        ]
        jobs = [Job(g.name, "path", g) for g in graphs]
        return jobs + [Job("line1100", "path", line(1100), once=True)]
    if workload == "qft-cascade":
        graphs = [
            rand(30), rand(40), rand(50), rand(60),
            spider(4, 8), line(40), star(40), chain_of_squares(12),
        ]
        return [Job(g.name, "qft", g, ("--report", "--emit", "qasm")) for g in graphs]
    if workload == "hash-fold":
        plan = [
            (rand(40), 16), (rand(70), 24), (rand(100), 40), (rand(150), 32),
            (chain_of_squares(30), 32), (spider(5, 10), 48), (star(60), 16),
        ]
        return [
            Job(f"{g.name}-l{l}", "hash", g, ("--l", str(l), "--report", "--emit", "qasm"), l)
            for g, l in plan
        ]
    if workload == "verify-dense":
        # The median of the five jobs is chain4x3's hash, the same for every
        # seed: the two n = 9 jobs are faster and the two n = 10 QFTs slower.
        plan = [(rand(9), "qft"), (rand(9), "hash"), (rand(10), "qft"),
                (chain_of_squares(3), "qft"), (chain_of_squares(3), "hash")]
        return [Job(f"{g.name}-{what}", "verify", g, ("--what", what)) for g, what in plan]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(workload: str, seed: int) -> Job:
    """The workload's first job, on an 8-vertex cactus; run during set-up."""
    rng = _seeded(workload, seed, "warmup")
    g = random_cactus("warmup8", 8, rng, 0.45, pieces=rng)
    return replace(jobs_for(workload, seed)[0], name="warmup", graph=g)


def write_graph(spec: GraphSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": spec.n, "edges": [list(e) for e in spec.edges]}, fh)


def write_inputs(jobs: list[Job], directory: str) -> dict[str, str]:
    """Write each distinct graph once; return graph name -> file path."""
    os.makedirs(directory, exist_ok=True)
    paths: dict[str, str] = {}
    for job in jobs:
        if job.graph.name not in paths:
            path = os.path.join(directory, job.graph.name + ".json")
            write_graph(job.graph, path)
            paths[job.graph.name] = path
    return paths
