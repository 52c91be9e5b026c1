"""Spans and counts recorded from outside the package.

While a `Tracer` is installed, every listed public function is replaced,
at each module attribute that refers to it, by a wrapper that records a
span (name, start, end, parent) and the function's counts; `remove`
restores the originals.  Nothing in the package is edited.  Self time is
computed as each span closes: its duration minus the time its child spans
cover.  Spans are kept in flat arrays and written out once, at the end.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from statistics import median

# (module, attribute); "Graph.x" names a method of Graph.  A span is
# named "<module>.<function>".
TARGETS = [
    ("graph_core", "validate_cactus"),
    ("graph_core", "build_vertex_cactus"),
    ("graph_core", "build_block_tree"),
    ("graph_core", "Graph.induced_subgraph"),
    ("covering_path", "solve_cactus"),
    ("covering_path", "solve_root_choices"),
    ("covering_path", "dp_cycle"),
    ("covering_path", "brute_force_oracle"),
    ("qft_synth", "construct_s"),
    ("qft_synth", "cascade_for_path"),
    ("qft_synth", "synthesize_qft"),
    ("hash_synth", "find_good_set"),
    ("hash_synth", "construct_for_path"),
    ("hash_synth", "synthesize_hash"),
    ("circuit_ir", "decompose"),
    ("circuit_ir", "cancel_adjacent_cnots"),
    ("circuit_ir", "to_qasm"),
    ("verify_sim", "unitary_of"),
    ("verify_sim", "qft_reference_unitary"),
    ("verify_sim", "equiv_up_to_permutation"),
]
# Called about B^2 times per solve: counted, but given no span of their own.
COUNTED_ONLY = [("covering_path", "dp_single_vertex")]

# Gate kinds of the IR before and after lowering.
GATE_KINDS = ("H", "X", "Ry", "Rz", "Rk", "CNOT", "CRy", "CRz", "CRd", "SWAP")
LOWERED_KINDS = ("H", "X", "Ry", "Rz", "CNOT")

MODULES = ("graph_core", "covering_path", "circuit_ir", "hash_synth",
           "qft_synth", "verify_sim", "cli")


def _probe(name, counts, maxima, args, result):
    """Counts a layer's work from its arguments and result."""
    if name == "graph_core.build_block_tree":
        counts["graph_core.blocks"] += result.n_blocks
    elif name == "covering_path.solve_cactus":
        counts["covering_path.walk_k"] += result.k
        counts["covering_path.walk_k_distinct"] += result.k_distinct
        counts["covering_path.revisits"] += result.k - result.k_distinct
    elif name == "circuit_ir.decompose":
        for g in args[0].gates:
            counts["circuit_ir.gates." + g.kind] += 1
        for g in result.gates:
            counts["circuit_ir.lowered." + g.kind] += 1
    elif name == "circuit_ir.cancel_adjacent_cnots":
        given = args[0].count("CNOT")
        counts["circuit_ir.cnots_given"] += given
        counts["circuit_ir.cnots_cancelled"] += given - result.count("CNOT")
    elif name == "verify_sim.unitary_of":
        counts["verify_sim.gates_simulated"] += len(args[0].gates)
    elif name == "verify_sim.equiv_up_to_permutation":
        maxima["verify_sim.max_deviation"] = max(
            maxima.get("verify_sim.max_deviation", 0.0), result[1])


class Tracer:
    """Span recorder; aggregates self time and counts per round."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_job = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, name, start, child time]
        self.job = -1
        self._patched: list[tuple[object, str, object]] = []
        self.round = self._aggregate()

    @staticmethod
    def _aggregate() -> dict:
        return {"self_s": defaultdict(float), "calls": Counter(),
                "counts": Counter(), "maxima": {}}

    def new_round(self) -> dict:
        """Start a fresh aggregate; return the one just finished."""
        done, self.round = self.round, self._aggregate()
        return done

    def enter(self, name: str) -> None:
        self._stack.append([len(self.span_start), name, time.perf_counter(), 0.0])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-2][0] if len(self._stack) > 1 else -1)
        self.span_job.append(self.job)

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        self.span_start[sid] = start
        self.span_end[sid] = end
        dur = end - start
        self.round["self_s"][name] += dur - child
        self.round["calls"][name] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- installing wrappers ------------------------------------------------

    def install(self, package) -> None:
        mods = [getattr(package, m) for m in MODULES] + [package]
        for target in TARGETS + COUNTED_ONLY:
            mod_name, attr = target
            name = f"{mod_name}.{attr.split('.')[-1]}"
            owner, holders = getattr(package, mod_name), mods
            if attr.startswith("Graph."):
                owner, attr = owner.Graph, attr[len("Graph."):]
                holders = [owner]
            original = getattr(owner, attr)
            if target in COUNTED_ONLY:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            _probe(name, tracer.round["counts"], tracer.round["maxima"], args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.round["calls"][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """One line per span: id, parent, job, name, start, end (seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start,end\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.span_job[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]!r},{self.span_end[i]!r}\n")


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced rounds: median self time per span name
    over the rounds, and the counts of the first round, which must repeat
    exactly in every later round."""
    problems = []
    first = rounds[0]
    for r in rounds[1:]:
        if r["calls"] != first["calls"] or r["counts"] != first["counts"]:
            problems.append("per-layer counts differ between traced rounds")
            break
    self_s = {name: median([r["self_s"].get(name, 0.0) for r in rounds])
              for name in {k for r in rounds for k in r["self_s"]}}
    calls, counts = first["calls"], first["counts"]

    def s(name):
        return self_s.get(name, 0.0)

    given = counts["circuit_ir.cnots_given"]
    m = {
        "graph_core.validate_cactus_s": s("graph_core.validate_cactus"),
        "graph_core.validate_cactus_calls": calls["graph_core.validate_cactus"],
        "graph_core.build_vertex_cactus_s": s("graph_core.build_vertex_cactus"),
        "graph_core.build_block_tree_s": s("graph_core.build_block_tree"),
        "graph_core.blocks": counts["graph_core.blocks"],
        "graph_core.induced_subgraph_s": s("graph_core.induced_subgraph"),
        "graph_core.induced_subgraph_calls": calls["graph_core.induced_subgraph"],
        "covering_path.solve_cactus_calls": calls["covering_path.solve_cactus"],
        "covering_path.solve_root_choices_s": s("covering_path.solve_root_choices"),
        "covering_path.dp_cycle_s": s("covering_path.dp_cycle"),
        "covering_path.dp_cycle_calls": calls["covering_path.dp_cycle"],
        "covering_path.dp_single_vertex_calls": calls["covering_path.dp_single_vertex"],
        "covering_path.solve_cactus_self_s": s("covering_path.solve_cactus"),
        "covering_path.brute_force_oracle_calls": calls["covering_path.brute_force_oracle"],
        "covering_path.walk_k": counts["covering_path.walk_k"],
        "covering_path.walk_k_distinct": counts["covering_path.walk_k_distinct"],
        "covering_path.revisits": counts["covering_path.revisits"],
        "qft_synth.construct_s_self_s": s("qft_synth.construct_s"),
        "qft_synth.cascade_for_path_s": s("qft_synth.cascade_for_path"),
        "qft_synth.cascades": calls["qft_synth.cascade_for_path"],
        "qft_synth.synthesize_qft_self_s": s("qft_synth.synthesize_qft"),
        "hash_synth.find_good_set_s": s("hash_synth.find_good_set"),
        "hash_synth.construct_for_path_s": s("hash_synth.construct_for_path"),
        "hash_synth.applications": calls["hash_synth.construct_for_path"],
        "hash_synth.synthesize_hash_self_s": s("hash_synth.synthesize_hash"),
        "circuit_ir.decompose_s": s("circuit_ir.decompose"),
        "circuit_ir.cancel_adjacent_cnots_s": s("circuit_ir.cancel_adjacent_cnots"),
        "circuit_ir.to_qasm_s": s("circuit_ir.to_qasm"),
        "circuit_ir.cnots_cancelled": counts["circuit_ir.cnots_cancelled"],
        "circuit_ir.cancel_yield": counts["circuit_ir.cnots_cancelled"] / given if given else 0.0,
        "verify_sim.unitary_of_s": s("verify_sim.unitary_of"),
        "verify_sim.unitary_of_calls": calls["verify_sim.unitary_of"],
        "verify_sim.gates_simulated": counts["verify_sim.gates_simulated"],
        "verify_sim.qft_reference_unitary_s": s("verify_sim.qft_reference_unitary"),
        "verify_sim.equiv_up_to_permutation_s": s("verify_sim.equiv_up_to_permutation"),
        "verify_sim.max_deviation": first["maxima"].get("verify_sim.max_deviation", 0.0),
        "cli.self_s": s("cli.main"),
    }
    for kind in GATE_KINDS:
        m["circuit_ir.gates." + kind] = counts["circuit_ir.gates." + kind]
    for kind in LOWERED_KINDS:
        m["circuit_ir.lowered." + kind] = counts["circuit_ir.lowered." + kind]
    return m, problems
