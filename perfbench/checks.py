"""Output checks that do not trust the compiler, and QASM depth.

Each check takes the job's graph as the benchmark built it and the
program's outputs (the JSON it printed and, where asked for, the QASM file
it wrote) and returns the product numbers of the job together with a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re

_QUBIT = re.compile(r"q\[(\d+)\]")
_HEADER = ("OPENQASM", "include", "qreg")


def adjacency(spec) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(spec.n)]
    for u, v in spec.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def walk_problems(spec, adj, walk) -> list[str]:
    """The walk steps along edges and its closed neighbourhood is V."""
    if not walk:
        return ["empty walk"]
    if any(not (isinstance(v, int) and 0 <= v < spec.n) for v in walk):
        return ["walk vertex out of range"]
    problems = [f"step ({a},{b}) is not an edge" for a, b in zip(walk, walk[1:]) if b not in adj[a]]
    covered = set(walk)
    for v in walk:
        covered |= adj[v]
    if len(covered) != spec.n:
        problems.append(f"{spec.n - len(covered)} vertices not covered")
    return problems


def qasm_stats(text: str, spec, adj) -> tuple[int, int, list[str]]:
    """(cx count, ASAP depth, problems) of lowered QASM on the device.

    Depth layers every gate as soon as all its qubits are free.
    """
    level = [0] * spec.n
    cx = 0
    problems: list[str] = []
    for line in text.splitlines():
        if not line or line.startswith(_HEADER):
            continue
        qs = [int(q) for q in _QUBIT.findall(line)]
        if not qs or any(q >= spec.n for q in qs):
            problems.append(f"bad gate line {line!r}")
            continue
        if line.startswith("cx "):
            cx += 1
            if len(qs) != 2 or qs[1] not in adj[qs[0]]:
                problems.append(f"cx off the device: {line!r}")
        d = 1 + max(level[q] for q in qs)
        for q in qs:
            level[q] = d
    return cx, max(level), problems


def check(job, stdout: str, qasm: str | None, adj) -> tuple[dict, list[str]]:
    """Check one job's outputs; return (product numbers, problems)."""
    spec = job.graph
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return {}, [f"stdout is not JSON: {exc}"]
    if report.get("n") != spec.n:
        return {}, [f"report n={report.get('n')} for a graph of {spec.n}"]
    if job.command == "verify":
        ok = report.get("ok") is True and report.get("what") == job.extra[1]
        return {}, [] if ok else [f"verify verdict {report.get('ok')!r}"]

    out: dict = {}
    problems: list[str] = []
    if job.command in ("path", "hash"):
        walk = report["path"]
        problems += walk_problems(spec, adj, walk)
        k, k_distinct = len(walk), len(set(walk))
        if (report["element_count"], report["distinct_count"]) != (k, k_distinct):
            problems.append("reported k/k' differ from the walk")
        if job.command == "path" and report["length"] != k - 1:
            problems.append("reported length differs from the walk")
        out.update(walk_len=k - 1, k=k, k_distinct=k_distinct, revisits=k - k_distinct)
    if job.command == "path":
        return out, problems

    cnots = report["cnot_count"]
    n = spec.n
    if job.command == "qft":
        revisits = report["revisit_excess"] // 2
        expected = report["K"] + n * n - n - 1 + report["revisit_excess"]
        # K counts the walk elements of cascades 1..n-1; each walk has k-1 steps
        out.update(walk_len=report["K"] - (n - 1), k=report["K"],
                   k_distinct=report["K"] - revisits, revisits=revisits)
        if sorted(report["permutation_s"]) != list(range(1, n + 1)):
            problems.append("permutation_s is not a permutation of 1..n")
    else:
        l, k, kd = report["l"], out["k"], out["k_distinct"]
        if l != job.l:
            problems.append(f"report l={l}, asked for {job.l}")
        expected = (3 * k + 2 * (n - kd)) * l - 5 * l + 2
    if cnots != expected:
        problems.append(f"cnot_count {cnots} != identity value {expected}")
    cx, depth, qasm_problems = qasm_stats(qasm or "", spec, adj)
    problems += qasm_problems[:5]
    if cx != cnots:
        problems.append(f"QASM has {cx} cx lines, report says {cnots}")
    out.update(cnot=cnots, depth=depth)
    return out, problems
