"""Bundled device-graph families used by the CLI, scripts, and tests.

All constructors return validated `Graph` instances:
    - line(n), cycle(n), star(n): the obvious families.
    - chain_of_squares(t): t four-cycles glued in a chain at opposite
      corners; `fig3_cactus()` is the t=3 member.
    - complete(n): K_n (not a cactus for n >= 4; reference device for the
      unconstrained synthesis baselines).
"""

from __future__ import annotations

from .graph_core import Graph


def line(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Hub 0 joined to vertices 1..n-1."""
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def chain_of_squares(t: int) -> Graph:
    """Chain of t four-cycles sharing opposite corners; n = 3t + 1.

    Square j has corners 3j and 3j+3 (shared with its neighbors) and side
    midpoints 3j+1, 3j+2.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    edges = []
    for j in range(t):
        a, b, c, d = 3 * j, 3 * j + 1, 3 * j + 2, 3 * j + 3
        edges += [(a, b), (b, d), (a, c), (c, d)]
    return Graph.from_edges(3 * t + 1, edges)


def fig3_cactus() -> Graph:
    """The 10-vertex three-square chain."""
    return chain_of_squares(3)
