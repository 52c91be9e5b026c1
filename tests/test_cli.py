"""CLI tests: subcommand outputs, bundled family resolution, exit
codes, determinism, the emitted-circuit round trip, and an in-process
fuzz over malformed graphs and out-of-range parameters."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cactusq.circuit_ir import cnot_cost, load_circuit
from cactusq.cli import MAX_FOLDS, MAX_VERTICES, main
from cactusq.families import fig3_cactus
from cactusq.graph_core import graph_to_json_dict, load_graph, random_cactus


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
        target.write_text(json.dumps(graph_to_json_dict(fig3_cactus())))
        proc = run_cli("path", "--graph", str(target))
        assert json.loads(proc.stdout)["length"] == 4

    def test_non_cactus_rejected(self):
        proc = run_cli("path", "--graph", "k5", expect_code=1)
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("spec", ["/no/such/dir/fig3.json", "no_such_dir/line4"])
    def test_name_with_a_directory_is_only_a_file(self, spec):
        # a missing file is an error, not the family its base name spells
        proc = run_cli("path", "--graph", spec, expect_code=1)
        assert proc.stdout == "" and proc.stderr.startswith(f"error: no file {spec!r}")

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

    def test_bare_command_prints_help(self):
        proc = subprocess.run([sys.executable, "-m", "cactusq.cli"],
                              capture_output=True, text=True)
        assert "Commands:" in proc.stdout + proc.stderr
        assert "error:" not in proc.stderr

    def test_gen_size_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", f"--n={MAX_VERTICES + 1}"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: --n must be at most {MAX_VERTICES}\n"

    # refused before any vertex is built: each would otherwise run until
    # memory ran out
    @pytest.mark.parametrize("graph, message", [
        ("line100000000", f"100000000 vertices exceed the limit of {MAX_VERTICES}"),
        ("k100000", f"4999950000 edges exceed the limit of {2 * MAX_VERTICES}"),
        (None, f"1000000000 vertices exceed the limit of {MAX_VERTICES}"),
    ])
    def test_graph_size_bound(self, capsys, tmp_path, graph, message):
        if graph is None:
            graph = str(tmp_path / "huge.json")
            with open(graph, "w", encoding="utf-8") as fh:
                json.dump({"n": 10**9, "edges": []}, fh)
        with pytest.raises(SystemExit) as exc:
            main(["path", "--graph", graph])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # json.load recurses once per nesting level
    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"n": 2, "edges": ' + "[" * 100000 + "]" * 100000 + "}",
    ], ids=["array", "nested_value"])
    def test_deeply_nested_graph_file(self, tmp_path, text):
        graph = tmp_path / "deep.json"
        graph.write_text(text, encoding="utf-8")
        proc = run_cli("path", "--graph", str(graph), expect_code=1)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: invalid JSON: ")

    # K4 plus an isolated vertex: the cactus check stops at K4's second
    # cycle, so the brute-force walk search is the one to find the gap
    @pytest.mark.parametrize("args", [["qft"], ["verify", "--what", "qft"]])
    def test_disconnected_non_cactus(self, capsys, tmp_path, args):
        graph = tmp_path / "k4_isolated.json"
        edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        graph.write_text(json.dumps({"n": 5, "edges": edges}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([*args, "--graph", str(graph)])
        assert exc.value.code == 1
        assert capsys.readouterr().err == \
            "error: no walk covers every vertex: the graph is not connected\n"

    # above 16 vertices a non-cactus has no brute-force fallback either,
    # so the error names the edge on two cycles and that limit
    @pytest.mark.parametrize("edges", [
        [[u, v] for u in range(17) for v in range(u + 1, 17)],
        [[u, v] for u in range(5) for v in range(u + 1, 5)],
    ], ids=["k17", "k5_isolated12"])
    def test_large_non_cactus_qft(self, capsys, tmp_path, edges):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 17, "edges": edges}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["qft", "--graph", str(graph)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lies on two cycles" in err and "16 vertices" in err

    def test_k16_qft_falls_back_to_brute_force(self, capsys):
        assert main(["qft", "--graph", "k16", "--report"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 16

    def test_failed_assert_exits_two(self, capsys, monkeypatch):
        # an assert that fails under any subcommand is an internal error:
        # exit 2 with one line
        def drifted(g):
            raise AssertionError("walk revisit count drifted")

        monkeypatch.setattr("cactusq.cli.solve_cactus", drifted)
        with pytest.raises(SystemExit) as exc:
            main(["path", "--graph", "line3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "internal error: walk revisit count drifted\n"

    # refused before synthesis: `qft --graph line1000` would first spend
    # seconds building a circuit it could not write
    @pytest.mark.parametrize("args", [
        ["hash", "--graph", "fig3", "--l", "5"],
        ["qft", "--graph", "line1000"],
    ])
    @pytest.mark.parametrize("emit", ["qasm", "json"])
    def test_emit_and_report_need_out_before_synthesis(self, capsys, monkeypatch, args, emit):
        def unreachable(*_):
            raise AssertionError("synthesized before the flags were checked")

        monkeypatch.setattr("cactusq.cli.synthesize_hash", unreachable)
        monkeypatch.setattr("cactusq.cli.synthesize_qft", unreachable)
        with pytest.raises(SystemExit) as exc:
            main([*args, "--emit", emit, "--report"])
        assert exc.value.code == 1
        assert capsys.readouterr() == (
            "", "error: use --out for the circuit when both --emit and --report are given\n"
        )

    @pytest.mark.parametrize("args", [
        ["hash", "--graph", "fig3"],
        ["cost", "--graph", "line1"],
        ["verify", "--graph", "line3", "--what", "hash"],
    ])
    def test_fold_bound(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main([*args, f"--l={MAX_FOLDS + 1}"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: --l must be at most {MAX_FOLDS}\n"

    @pytest.mark.parametrize("args, message", [
        (("verify", "--graph", "line3", "--what", "hash", "--p", "1"),
         "modulus must be at least 2"),
        # the fold count and modulus are the hash check's alone
        (("verify", "--graph", "line3", "--what", "qft", "--l", "2"),
         "--l and --p apply to --what hash only"),
        (("verify", "--graph", "line3", "--what", "qft", "--p", "5"),
         "--l and --p apply to --what hash only"),
        (("hash", "--graph", "line1"), "hashing needs at least 2 qubits"),
        (("hash", "--graph", "line3", "--epsilon", "-1"), "epsilon must lie in (0, 0.5)"),
        # click's own parser errors
        (("gen", "--n", "abc"), "Invalid value for '--n': 'abc' is not a valid integer."),
        (("verify", "--graph", "line3", "--what", "x"),
         "Invalid value for '--what': 'x' is not one of 'hash', 'qft'."),
        (("frobnicate",), "No such command 'frobnicate'."),
        (("path",), "Missing option '--graph'."),
    ])
    def test_degenerate_input_one_line_error(self, args, message):
        proc = run_cli(*args, expect_code=1)
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {message}\n"

    # options that would change no output: no CNOT count depends on the
    # hash angles, and epsilon sets only the fingerprint count, which
    # neither command prints; click's "Did you mean" list differs between
    # its versions, so only the start of the line is fixed
    @pytest.mark.parametrize("args", [
        ("cost", "--graph", "line3", "--p", "1"),
        ("cost", "--graph", "line3", "--epsilon", "0"),
        ("verify", "--graph", "line3", "--what", "hash", "--epsilon", "0"),
    ])
    def test_removed_option_one_line_error(self, args):
        proc = run_cli(*args, expect_code=1)
        assert proc.stderr.startswith("error: No such option")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


# Graph inputs for the fuzz: a small valid cactus, one broken at a random
# point, or a bundled family with n <= 2.  Each is (file text, family name);
# exactly one is set.
_VALID = st.builds(
    lambda n, seed: graph_to_json_dict(random_cactus(n, seed)),
    st.integers(1, 6), st.integers(0, 50),
)


def _break(data: dict, how: str, i: int) -> object:
    n = data["n"]
    edges = data["edges"]
    return {
        "self_loop": {"n": n, "edges": edges + [[i % n, i % n]]},
        "out_of_range": {"n": n, "edges": edges + [[i % n, n + i % 3]]},
        "negative": {"n": n, "edges": edges + [[-1 - i % 2, 0]]},
        "small_n": {"n": i % 4 - 1, "edges": edges if i % 2 else []},
        "n_type": {"n": [str(n), float(n), None, True][i % 4], "edges": edges},
        "edges_type": {"n": n, "edges": [{}, "0-1", 5, None][i % 4]},
        "edge_type": {"n": n, "edges": edges + [[[0], [0, "1"], [0, 1.0], [True, 0], 7][i % 5]]},
        "keys": [{"n": n}, {"edges": edges}, {**data, "extra": 1}][i % 3],
        "not_object": [[n, edges], n, "graph", None][i % 4],
        "dense": {"n": 4, "edges": [[a, b] for a in range(4) for b in range(a + 1, 4)]},
        "disconnected": {"n": n + 1, "edges": edges},
    }[how]


_GRAPHS = st.one_of(
    # valid graphs twice, so that jobs also get past the parser
    _VALID.map(lambda d: (json.dumps(d), None)),
    _VALID.map(lambda d: (json.dumps(d), None)),
    st.builds(lambda d, cut: (json.dumps(d)[:cut], None), _VALID, st.integers(0, 40)),
    st.builds(
        lambda d, how, i: (json.dumps(_break(d, how, i)), None),
        _VALID,
        st.sampled_from(["self_loop", "out_of_range", "negative", "small_n", "n_type",
                         "edges_type", "edge_type", "keys", "not_object", "dense",
                         "disconnected"]),
        st.integers(0, 59),
    ),
    st.sampled_from(["line0", "line1", "line2", "star1", "star2", "k0", "k1", "k2",
                     "cycle1", "cycle2", "chain4x0"]).map(lambda name: (None, name)),
)


def _run_fuzzed(capsys, args, text=None):
    """Run the CLI in-process: it must exit 0 with JSON on stdout, or exit
    1 with exactly one `error:` line and no traceback."""
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    event(f"{args[0]} exit {code}")
    assert code in (0, 1), (args, text, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 \
            and err.endswith("\n"), (args, text, err)


class TestFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        graph=_GRAPHS,
        # verify simulates densely; every graph drawn here has n <= 7
        command=st.sampled_from(["path", "hash", "qft", "cost", "verify"]),
        what=st.sampled_from(["qft", "hash"]),
        # each range, and half the time its valid part, so jobs also succeed
        p=st.integers(-2, 40) | st.integers(2, 40),
        epsilon=st.floats(-1, 1) | st.floats(0.01, 0.49),
        # fold counts above the bound are rejected before any synthesis
        l=st.integers(-2, 4) | st.integers(1, 4) | st.integers(MAX_FOLDS + 1, 10**18),
    )
    # found by this test: qft on two unjoined vertices ended in an internal
    # error, and a subnormal epsilon overflowed the fingerprint count
    @example(graph=('{"n": 2, "edges": []}', None), command="qft", what="qft",
             p=5, epsilon=0.25, l=1)
    @example(graph=(None, "line2"), command="hash", what="qft", p=2, epsilon=2.2e-309, l=1)
    def test_exit_zero_or_one_line_error(self, tmp_path_factory, capsys,
                                         graph, command, what, p, epsilon, l):
        text, family = graph
        spec = family
        if text is not None:
            spec = str(tmp_path_factory.getbasetemp() / "fuzz_graph.json")
            with open(spec, "w", encoding="utf-8") as fh:
                fh.write(text)
        args = [command, "--graph", spec]
        if command == "verify":
            args += ["--what", what]
        if command in ("hash", "cost") or command == "verify" and what == "hash":
            args.append(f"--l={l}")
        if command == "hash" or command == "verify" and what == "hash":
            args.append(f"--p={p}")
        if command == "hash":
            args.append(f"--epsilon={epsilon!r}")
        _run_fuzzed(capsys, args, text)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # sizes above the bound are rejected before any graph is generated
    @given(n=st.integers(-3, 40) | st.integers(MAX_VERTICES + 1, 10**18),
           seed=st.integers(-10**12, 10**12))
    def test_gen_exit_zero_or_one_line_error(self, capsys, n, seed):
        _run_fuzzed(capsys, ["gen", f"--n={n}", f"--seed={seed}"])
