"""CLI tests: subcommand outputs, bundled family resolution, exit
codes, determinism, and the emitted-circuit round trip."""

import json
import subprocess
import sys

import pytest

from cactusq.circuit_ir import cnot_cost, load_circuit
from cactusq.families import fig3_cactus
from cactusq.graph_core import dump_graph, load_graph


def run_cli(*args, expect_code=0):
    proc = subprocess.run(
        [sys.executable, "-m", "cactusq.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect_code, (
        f"exit {proc.returncode} != {expect_code}; stderr: {proc.stderr}"
    )
    return proc


class TestPath:
    def test_fig3_length(self):
        proc = run_cli("path", "--graph", "fig3.json")
        data = json.loads(proc.stdout)
        assert data["length"] == 4
        assert data["element_count"] == 5
        assert sorted(data["fringe"]) == [0, 2, 4, 7, 9]

    def test_reads_graph_file(self, tmp_path):
        target = tmp_path / "g.json"
        dump_graph(fig3_cactus(), str(target))
        proc = run_cli("path", "--graph", str(target))
        assert json.loads(proc.stdout)["length"] == 4

    def test_non_cactus_rejected(self):
        proc = run_cli("path", "--graph", "k5", expect_code=1)
        assert "error:" in proc.stderr

    def test_deep_block_tree(self):
        # 1100 blocks in a row, deeper than the default recursion limit
        data = json.loads(run_cli("path", "--graph", "line1100").stdout)
        assert data["element_count"] == 1098


class TestHash:
    def test_star5_worked_example(self):
        proc = run_cli(
            "hash", "--graph", "star5.json", "--l", "2", "--p", "5",
            "--epsilon", "0.3", "--seed", "1", "--report",
        )
        data = json.loads(proc.stdout)
        assert data["cnot_count"] == 14
        assert data["formula_exact"] is True
        assert data["corollary1"]["ok"] is True

    def test_no_good_set_exits_one(self):
        proc = run_cli("hash", "--graph", "line5", "--p", "2", expect_code=1)
        assert "error:" in proc.stderr

    def test_emit_round_trip(self, tmp_path):
        out = tmp_path / "c.json"
        proc = run_cli(
            "hash", "--graph", "fig3", "--l", "2", "--emit", "json",
            "--out", str(out), "--report",
        )
        report = json.loads(proc.stdout)
        circuit = load_circuit(out.read_text(), device=fig3_cactus())
        assert cnot_cost(circuit) == report["cnot_count"] == 42

    def test_emit_qasm_header(self):
        proc = run_cli("hash", "--graph", "line4", "--emit", "qasm")
        assert proc.stdout.startswith("OPENQASM 2.0;")


class TestQft:
    def test_k1_trivial(self):
        data = json.loads(run_cli("qft", "--graph", "k1.json").stdout)
        assert data["cnot_count"] == 0
        assert data["permutation_s"] == [1]

    def test_fig3_report(self):
        data = json.loads(run_cli("qft", "--graph", "fig3", "--report").stdout)
        assert data["cnot_count"] == 113
        assert data["K"] == 24
        assert data["theorem2"]["ok"] and data["theorem3"]["ok"] and data["corollary3"]["ok"]
        assert data["permutation_s"] == [9, 6, 7, 5, 3, 4, 2, 10, 1, 8]

    def test_emit_json_loads(self, tmp_path):
        out = tmp_path / "q.json"
        run_cli("qft", "--graph", "line5", "--emit", "json", "--out", str(out), "--report")
        circuit = load_circuit(out.read_text())
        assert cnot_cost(circuit) == 26


class TestVerify:
    def test_qft_line5(self):
        data = json.loads(run_cli("verify", "--graph", "line5", "--what", "qft").stdout)
        assert data["ok"] is True
        assert data["deviation"] < 1e-9

    def test_hash_cycle6(self):
        data = json.loads(
            run_cli("verify", "--graph", "cycle6", "--what", "hash", "--l", "3").stdout
        )
        assert data["ok"] is True

    def test_too_large_rejected(self):
        proc = run_cli("verify", "--graph", "line20", "--what", "qft", expect_code=1)
        assert "error:" in proc.stderr


class TestCostAndGen:
    def test_cost_combined_report(self):
        data = json.loads(run_cli("cost", "--graph", "chain4x3", "--l", "2").stdout)
        assert data["path"]["length"] == 4
        assert data["hash"]["theorem1_exact"] is True
        assert data["qft"]["theorem3"]["ok"] is True

    def test_gen_deterministic_bytes(self):
        a = run_cli("gen", "--n", "12", "--seed", "7").stdout
        b = run_cli("gen", "--n", "12", "--seed", "7").stdout
        assert a == b

    def test_gen_output_loads_as_cactus(self, tmp_path):
        out = tmp_path / "g.json"
        run_cli("gen", "--n", "9", "--seed", "3", "--out", str(out))
        g = load_graph(str(out))
        assert g.n == 9

    def test_unknown_graph_spec(self):
        proc = run_cli("path", "--graph", "nonsense42x", expect_code=1)
        assert "no bundled family" in proc.stderr

    def test_bad_flag_value(self):
        proc = run_cli("hash", "--graph", "line4", "--l", "0", expect_code=1)
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (("cost", "--graph", "line3", "--p", "1"), "modulus must be at least 2"),
        (("verify", "--graph", "line3", "--what", "hash", "--p", "1"),
         "modulus must be at least 2"),
        (("hash", "--graph", "line1"), "hashing needs at least 2 qubits"),
        (("cost", "--graph", "line3", "--epsilon", "0"), "epsilon must lie in (0, 0.5)"),
        (("verify", "--graph", "line3", "--what", "hash", "--epsilon", "0"),
         "epsilon must lie in (0, 0.5)"),
        (("cost", "--graph", "line3", "--epsilon", "-1"), "epsilon must lie in (0, 0.5)"),
    ])
    def test_degenerate_input_one_line_error(self, args, message):
        proc = run_cli(*args, expect_code=1)
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"
