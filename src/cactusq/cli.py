"""Command-line front end for the toolkit.

Subcommands: `path` (solve the covering path), `hash` (synthesize the
l-fold hashing operator), `qft` (synthesize the QFT circuit), `verify`
(simulate and compare against the unconstrained reference), `cost`
(print all formula checks without emitting circuits), and `gen` (write a
seeded random cactus).  Machine-readable JSON goes to stdout, diagnostics
to stderr.  Exit codes, all set by `main`: 0 success, 1 validation or
usage error (one `error:` line), 2 internal assertion failure.

`--graph` accepts a JSON file ({"n": int, "edges": [[u, v], ...]}) or,
when no such file exists, a bundled family name: fig3, lineN, cycleN,
starN, kN (complete), chain4xT (chain of T 4-cycles), with an optional
.json suffix; a name with a directory part is only ever a file.  A graph
of more than MAX_VERTICES vertices is refused before it is built.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys

import click

from . import families
from .circuit_ir import (
    Circuit,
    CostReport,
    DeviceViolation,
    dump_circuit,
    to_qasm,
)
from .covering_path import TooLarge, solve_cactus
from .graph_core import (
    Graph,
    GraphError,
    graph_to_json_dict,
    load_graph,
    random_cactus,
)
from .hash_synth import (
    HashParams,
    PathNotCovering,
    SearchExhausted,
    find_good_set,
    hash_reference_circuit,
    synthesize_hash,
)
from .qft_synth import synthesize_qft
from .verify_sim import (
    MAX_QUBITS,
    TooManyQubits,
    equiv_up_to_permutation,
    qft_reference_unitary,
    unitary_of,
)

_VALIDATION_ERRORS = (
    GraphError,
    DeviceViolation,
    TooLarge,
    TooManyQubits,
    PathNotCovering,
    SearchExhausted,
    ValueError,
    OSError,
)

# a graph builds a set per vertex, and `gen` keeps every edge, before
# anything else happens, so a mistyped size would run until memory ran
# out; 10^5 vertices generate in well under 1 s, and `path --graph
# line100000` solves in about 295 MB
MAX_VERTICES = 100_000

# the circuit grows linearly in --l, so a mistyped fold count would run
# until memory ran out; `hash --graph fig3 --l 100000 --emit qasm` takes
# about 1 s and 126 MB on a 2-vCPU VM, its 72 MiB of QASM text written a
# slice at a time
MAX_FOLDS = 100_000

# `_write_text` hands a text to `write` this many characters at a time, so
# that its encoded copy is never made whole
_WRITE_SLICE = 1 << 20

# click >= 8.2 raises this for a bare `cactusq`; its message is the help text
_NO_ARGS_IS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())

# (pattern, vertices, build) of each sized family, from its number
_FAMILY_PATTERNS = [
    (re.compile(r"^line(\d+)$"), lambda k: k, families.line),
    (re.compile(r"^cycle(\d+)$"), lambda k: k, families.cycle),
    (re.compile(r"^star(\d+)$"), lambda k: k, families.star),
    (re.compile(r"^k(\d+)$"), lambda k: k, families.complete),
    (re.compile(r"^chain4x(\d+)$"), lambda k: 3 * k + 1, families.chain_of_squares),
]


def _resolve_graph(spec: str) -> Graph:
    if os.path.exists(spec):
        return load_graph(spec, max_n=MAX_VERTICES)
    # a spec with a directory part matches no family: it names a file
    name = spec.removesuffix(".json")
    if name == "fig3":
        return families.fig3_cactus()
    for pattern, vertices, build in _FAMILY_PATTERNS:
        m = pattern.match(name)
        if m:
            k = int(m.group(1))
            if vertices(k) > MAX_VERTICES:
                raise ValueError(f"{vertices(k)} vertices exceed the limit of {MAX_VERTICES}")
            # the other families have under 2 edges per vertex; kN has N^2 / 2
            edges = k * (k - 1) // 2
            if build is families.complete and edges > 2 * MAX_VERTICES:
                raise ValueError(f"{edges} edges exceed the limit of {2 * MAX_VERTICES}")
            return build(k)
    raise ValueError(
        f"no file {spec!r} and no bundled family matches {name!r} "
        "(try fig3, lineN, cycleN, starN, kN, or chain4xT)"
    )


def _write_text(text: str, out: str | None) -> None:
    with (open(out, "w", encoding="utf-8") if out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        for i in range(0, len(text), _WRITE_SLICE):
            fh.write(text[i:i + _WRITE_SLICE])


def _print_json(obj, out: str | None = None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _check_emit(emit, report_flag, out) -> None:
    """Refuse --emit with --report and no --out, where both would go to
    stdout; called before anything is synthesized."""
    if emit is not None and report_flag and out is None:
        raise ValueError("use --out for the circuit when both --emit and --report are given")


def _emit_and_report(circuit: Circuit, report: dict, emit, report_flag, out) -> None:
    """--emit writes the circuit (to --out when given); --report, or no
    --emit, prints the report on stdout.  `_check_emit` has passed."""
    if emit is not None:
        _write_text(to_qasm(circuit) if emit == "qasm" else dump_circuit(circuit), out)
    if report_flag or emit is None:
        _print_json(report)


@click.group()
def cli() -> None:
    """Covering-path circuit synthesis for cactus-connected devices."""


@cli.command(name="path")
@click.option("--graph", "graph_spec", required=True, help="graph file or family name")
@click.option("--out", default=None, help="write JSON here instead of stdout")
def path_cmd(graph_spec: str, out: str | None) -> None:
    """Solve the shortest 1-covering path on a cactus."""
    g = _resolve_graph(graph_spec)
    walk = solve_cactus(g)
    _print_json({"n": g.n, **_walk_fields(walk), "fringe": sorted(walk.fringe)}, out)


@cli.command(name="gen")
@click.option("--n", "n", required=True, type=int, help="vertex count")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--out", default=None, help="write JSON here instead of stdout")
def gen_cmd(n: int, seed: int, out: str | None) -> None:
    """Generate a seeded random cactus as graph JSON."""
    if n < 1:
        raise ValueError("--n must be at least 1")
    if n > MAX_VERTICES:
        raise ValueError(f"--n must be at most {MAX_VERTICES}")
    g = random_cactus(n, seed)
    _print_json(graph_to_json_dict(g), out)


def _check_folds(l: int) -> None:
    if l < 1:
        raise ValueError("--l must be at least 1")
    if l > MAX_FOLDS:
        raise ValueError(f"--l must be at most {MAX_FOLDS}")


def _walk_fields(walk) -> dict:
    return {
        "path": list(walk.vertices),
        "length": walk.length,
        "element_count": walk.k,
        "distinct_count": walk.k_distinct,
    }


def _corollary1(n: int, l: int, value: int) -> dict:
    """Corollary 1's range 2nl - 4l + 2 .. 6nl - 7l + 2 and whether `value`
    lies in it."""
    low = 2 * n * l - 4 * l + 2
    high = 6 * n * l - 7 * l + 2
    return {"low": low, "high": high, "ok": low <= value <= high}


def _hash_report(g: Graph, l: int, result, params: HashParams, seed: int) -> dict:
    n = g.n
    rep: CostReport = result.cost
    return {
        "n": n,
        "l": l,
        "p": params.p,
        "epsilon": params.epsilon,
        "seed": seed,
        "coefficients": list(params.coefficients),
        "t": params.t,
        "path": list(result.path.vertices),
        "element_count": result.path.k,
        "distinct_count": result.path.k_distinct,
        "cnot_count": rep.cnot_count,
        "formula_value": rep.formula_value,
        "formula_exact": rep.exact,
        "corollary1": _corollary1(n, l, rep.formula_value),
        "target_start": result.path.vertices[0],
        "final_permutation": list(result.circuit.final_permutation),
    }


@cli.command(name="hash")
@click.option("--graph", "graph_spec", required=True, help="graph file or family name")
@click.option("--l", "l", default=1, type=int, show_default=True, help="fold count")
@click.option("--p", default=5, type=int, show_default=True, help="modulus")
@click.option("--epsilon", default=0.25, type=float, show_default=True)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--emit", type=click.Choice(["qasm", "json"]), default=None)
@click.option("--report", "report_flag", is_flag=True, help="print the cost report")
@click.option("--out", default=None, help="write the emitted circuit here")
def hash_cmd(graph_spec, l, p, epsilon, seed, emit, report_flag, out) -> None:
    """Synthesize the merged l-fold hashing operator."""
    _check_emit(emit, report_flag, out)
    g = _resolve_graph(graph_spec)
    _check_folds(l)
    if g.n < 2:
        raise ValueError("hashing needs at least 2 qubits")
    params = find_good_set(p, epsilon, seed=seed, size=g.n - 1)
    result = synthesize_hash(g, l, params)
    _emit_and_report(result.circuit, _hash_report(g, l, result, params, seed),
                     emit, report_flag, out)


def _qft_report(rep: CostReport) -> dict:
    p = rep.parameters
    cn = rep.cnot_count
    report = {
        "n": p["n"],
        "K": p["K"],
        "k1": p["k1"],
        "cnot_count": cn,
        "revisit_excess": p.get("revisit_excess", 0),
        "permutation_s": list(p["S"]),
        "theorem3": {"bound": rep.formula_value, "ok": rep.within_bound},
        "theorem2": {"bound": p["theorem2_bound"], "ok": cn <= p["theorem2_bound"]},
    }
    if "corollary2_bound" in p:
        report["corollary2"] = {"bound": p["corollary2_bound"], "ok": cn <= p["corollary2_bound"]}
    if "corollary3_high" in p:
        report["corollary3"] = {
            "low": p["corollary3_low"],
            "high": p["corollary3_high"],
            "ok": cn <= p["corollary3_high"],
        }
    return report


@cli.command(name="qft")
@click.option("--graph", "graph_spec", required=True, help="graph file or family name")
@click.option("--emit", type=click.Choice(["qasm", "json"]), default=None)
@click.option("--report", "report_flag", is_flag=True, help="print the cost report")
@click.option("--out", default=None, help="write the emitted circuit here")
def qft_cmd(graph_spec, emit, report_flag, out) -> None:
    """Synthesize the QFT circuit by cascades of covering paths."""
    _check_emit(emit, report_flag, out)
    g = _resolve_graph(graph_spec)
    circuit, rep = synthesize_qft(g)
    _emit_and_report(circuit, _qft_report(rep), emit, report_flag, out)


def _default_hash_params(n: int, p: int) -> HashParams:
    """One coefficient per control, cycling through 1..p-1.  Epsilon sets
    only `HashParams.t`, which neither `verify` nor `cost` prints."""
    # a generator: from_coefficients checks p before the k_j are drawn
    ks = ((j - 1) % (p - 1) + 1 for j in range(1, n))
    return HashParams.from_coefficients(p, 0.25, ks)


@cli.command(name="verify")
@click.option("--graph", "graph_spec", required=True, help="graph file or family name")
@click.option("--what", type=click.Choice(["hash", "qft"]), required=True)
@click.option("--l", "l", type=int, help="fold count (hash only, default 1)")
@click.option("--p", type=int, help="modulus for hash angles (hash only, default 17)")
def verify_cmd(graph_spec, what, l, p) -> None:
    """Simulate the synthesized circuit against the unconstrained reference."""
    if what == "qft" and (l is not None or p is not None):
        raise ValueError("--l and --p apply to --what hash only")
    g = _resolve_graph(graph_spec)
    if g.n > MAX_QUBITS:
        raise TooManyQubits(f"verification simulates densely; {g.n} > {MAX_QUBITS} qubits")
    if what == "hash":
        l = 1 if l is None else l
        _check_folds(l)
        params = _default_hash_params(g.n, 17 if p is None else p)
        result = synthesize_hash(g, l, params)
        circuit = result.circuit
        reference = unitary_of(
            hash_reference_circuit(g, l, params.angles, result.path.vertices[0])
        )
    else:
        circuit, rep = synthesize_qft(g)
        reference = qft_reference_unitary(rep.parameters["S"])
    perm = circuit.final_permutation
    ok, deviation = equiv_up_to_permutation(unitary_of(circuit), reference, perm=perm)
    _print_json(
        {
            "what": what,
            "n": g.n,
            "l": l if what == "hash" else None,
            "deviation": deviation,
            "permutation": list(perm),
            "ok": bool(ok),
        }
    )


@cli.command(name="cost")
@click.option("--graph", "graph_spec", required=True, help="graph file or family name")
@click.option("--l", "l", default=1, type=int, show_default=True, help="fold count (hash)")
def cost_cmd(graph_spec, l) -> None:
    """Print the formula checks for both syntheses without emitting circuits.
    The hash angles take modulus 17; no CNOT count depends on them."""
    g = _resolve_graph(graph_spec)
    _check_folds(l)
    n = g.n
    out: dict = {"n": n}
    if n >= 2:
        result = synthesize_hash(g, l, _default_hash_params(n, 17))
        walk = result.path
        out["path"] = {
            **_walk_fields(walk),
            "lemma1_bound": 2 * n - 3,
            "lemma1_ok": walk.length <= 2 * n - 3,
        }
        rep = result.cost
        out["hash"] = {
            "l": l,
            "cnot_count": rep.cnot_count,
            "theorem1_value": rep.formula_value,
            "theorem1_exact": rep.exact,
            "corollary1": _corollary1(n, l, rep.cnot_count),
        }
    else:
        out["path"] = None
        out["hash"] = None
    _, qft_rep = synthesize_qft(g)
    out["qft"] = _qft_report(qft_rep)
    _print_json(out)


def main(argv=None):
    try:
        cli(args=argv, standalone_mode=False)
    except _NO_ARGS_IS_HELP as exc:
        exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        # usage errors included: one `error:` line, not click's Usage block
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except AssertionError as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(2)
    except _VALIDATION_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    return 0


if __name__ == "__main__":
    main()
