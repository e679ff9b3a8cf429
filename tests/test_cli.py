import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import SHARED_CHAIN
from golden_cases import GOLDEN, GOLDEN_CASES, GOLDEN_INPUTS
from infodist import corpus, reductions
from infodist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_exit_codes(capsys):
    assert run(capsys, "check", "fig1a")[0] == 0
    assert run(capsys, "check", "fig5")[0] == 10
    assert run(capsys, "check", "butterfly")[0] == 10


def test_check_unknown_on_tiny_budget(tmp_path, capsys):
    net = tmp_path / "chain.json"
    net.write_text(json.dumps(SHARED_CHAIN))
    assert run(capsys, "check", str(net))[0] == 0
    code, data = run(capsys, "check", str(net), "--budget", "1")
    assert code == 20
    assert data["result"]["status"] == "unknown"


def test_check_payload_shape(capsys):
    code, data = run(capsys, "check", "fig1a")
    assert code == 0
    result = data["result"]
    assert result["status"] == "yes"
    assert result["witness"]["cuts"]
    assert "search_stats" in result and "violations" in result
    assert data["version"] and data["config"]["budget"]


def test_malformed_input_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["s"], "edges": [], "sessions": []}')
    code = main(["check", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "session" in err


def test_missing_file_exit_1(capsys):
    assert main(["check", "no-such-network.json"]) == 1


def test_rate_feasibility_and_direction(capsys):
    code, data = run(capsys, "rate", "butterfly", "--rate", "1,1")
    assert code == 0 and data["result"]["feasible"] is False
    code, data = run(capsys, "rate", "single-edge", "--rate", "1")
    assert code == 0 and data["result"]["feasible"] is True
    code, data = run(capsys, "rate", "fig1a", "--direction", "1,1")
    assert code == 0 and data["result"]["lambda"] == "3/2"


def test_rate_truncation_exit_20(capsys):
    code, data = run(capsys, "rate", "fig1a", "--rate", "1,1", "--path-limit", "1")
    assert code == 20
    assert "indeterminate" in data["result"]


def test_reduce_index_fig3(capsys):
    code, data = run(capsys, "reduce-index", "fig3-index")
    assert code == 0
    result = data["result"]
    assert result["rawness"]["raw"] is True
    assert result["rawness"]["l_min"] == 4
    assert result["acyclic_reindex"] is not None
    assert len(result["network"]["edges"]) == 14


def test_reduce_index_mutual_not_raw(tmp_path, capsys):
    inst = tmp_path / "mutual.json"
    inst.write_text(json.dumps({"K": 2, "m": 1, "side": [[2], [1]]}))
    code, data = run(capsys, "reduce-index", str(inst))
    assert code == 0
    assert data["result"]["rawness"]["raw"] is False
    assert set(data["result"]["cycle"]) == {1, 2}


def test_reduce_index_1100_message_chain(tmp_path, capsys):
    # H_i = {X_(i+1)}: a side-information path 1 -> 2 -> ... -> 1100.
    inst = tmp_path / "chain.json"
    side = [[i + 1] for i in range(1, 1100)] + [[]]
    inst.write_text(json.dumps({"K": 1100, "m": 1, "side": side}))
    code, data = run(capsys, "reduce-index", str(inst))
    assert code == 0
    assert data["result"]["rawness"]["raw"] is True
    assert data["result"]["rawness"]["l_min"] == 1100


def test_reduce_index_8000_message_cycle(tmp_path, capsys):
    # H_i = {X_(i+1)} and H_8000 = {X_1}: one side-information cycle.
    inst = tmp_path / "cycle.json"
    K = 8000
    inst.write_text(json.dumps({"K": K, "m": 1, "side": [[i % K + 1] for i in range(1, K + 1)]}))
    t0 = time.monotonic()
    code, data = run(capsys, "reduce-index", str(inst))
    assert time.monotonic() - t0 < 10
    assert code == 0
    result = data["result"]
    assert result["rawness"]["raw"] is False
    assert result["acyclic_reindex"] is None
    assert result["cycle"] == [*range(2, K + 1), 1]


def test_reduce_deadline_10_lanes_exits_20(tmp_path, capsys):
    # Ten direct s -> d lanes make |C[0]| = 12, far too many orderings to scan.
    edges = [("s", "x", 1), ("s", "x", 2), ("s", "x", 3), ("x", "y", 1), ("y", "d", 1),
             ("y", "d", 2)] + [("s", "d", 5)] * 10
    inst = tmp_path / "lanes.json"
    inst.write_text(json.dumps({
        "edges": [{"tail": t, "head": h, "delay": d} for t, h, d in edges],
        "source": "s", "sink": "d", "tau": 5, "horizon": 3, "memory": 0,
    }))
    t0 = time.monotonic()
    code, data = run(capsys, "reduce-deadline", str(inst))
    assert time.monotonic() - t0 < 10
    assert code == 20
    assert data["result"]["verdict"]["status"] == "unknown"


@pytest.mark.parametrize("argv", [
    ["reduce-index", "{}"],
    ["reduce-deadline", "{}"],
    ["audit", "fig1a", "--code", "{}", "--witness", "{}"],
])
def test_non_object_json_exit_1(tmp_path, capsys, argv):
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    assert main([str(listing) if a == "{}" else a for a in argv]) == 1
    assert capsys.readouterr().err.startswith("infodist: ")


@pytest.mark.parametrize("argv, message", [
    (["check", "{dir}"], "cannot read input"),
    (["check", "{deep}"], "cannot read input"),
    (["check", "fig1a", "--output", "{dir}"], "cannot write output"),
    (["check", "fig1a", "--output", "{dir}/missing/x.json"], "cannot write output"),
], ids=["input-directory", "input-nested-100000", "output-directory", "output-missing-folder"])
def test_unreadable_input_or_output_exit_1(tmp_path, capsys, argv, message):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main([a.format(dir=tmp_path, deep=deep) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"infodist: {message} ") and "Traceback" not in err


def test_null_edge_index_exit_1(tmp_path, capsys):
    net = corpus.load("single-edge")
    net["edges"][0]["index"] = None
    path = tmp_path / "null-index.json"
    path.write_text(json.dumps(net))
    for argv in (["check"], ["rate", "--rate", "1"], ["gen-code", "--rates", "1"]):
        assert main([argv[0], str(path), *argv[1:]]) == 1
        assert "index None" in capsys.readouterr().err


# s -> x -> d with its edges listed head first: edge 0 is (x, d), edge 1 is (s, x)
TWO_HOP = {
    "nodes": ["s", "x", "d"],
    "edges": [{"tail": "x", "head": "d", "index": 0}, {"tail": "s", "head": "x", "index": 0}],
    "sessions": [{"source": "s", "sink": "d"}],
}
SOURCE_EDGE = {"edge": 1, "coeffs": [{"from": "session 1", "value": 1}]}
# case: the locals of a one-symbol code on TWO_HOP
BAD_EDGE_REFS = {
    "from-99": [SOURCE_EDGE, {"edge": 0, "coeffs": [{"from": 99, "value": 1}]}],
    "from-minus-1": [SOURCE_EDGE, {"edge": 0, "coeffs": [{"from": -1, "value": 1}]}],
    "locals-edge-999": [SOURCE_EDGE, {"edge": 0, "coeffs": [{"from": 1, "value": 1}]},
                        {"edge": 999, "coeffs": []}],
}


@pytest.mark.parametrize("case", sorted(BAD_EDGE_REFS))
def test_code_edge_reference_outside_network_exit_1(tmp_path, capsys, case):
    paths = {name: tmp_path / f"{name}.json" for name in ("network", "code", "witness")}
    paths["network"].write_text(json.dumps(TWO_HOP))
    _, checked = run(capsys, "check", str(paths["network"]))
    paths["witness"].write_text(json.dumps(checked["result"]["witness"]))
    paths["code"].write_text(json.dumps({"field": 2, "rates": [1], "locals": BAD_EDGE_REFS[case]}))
    argv = ["audit", str(paths["network"]), "--code", str(paths["code"]),
            "--witness", str(paths["witness"])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("infodist: ") and "not in the network" in err


@pytest.mark.parametrize("rates", ["1,1", "1", "1,1,1,1"])
@pytest.mark.parametrize("decodable", [[], ["--decodable"]])
def test_gen_code_one_rate_per_session_exit_1(capsys, rates, decodable):
    assert main(["gen-code", "fig1b", "--rates", rates, "--field", "5", *decodable]) == 1
    assert capsys.readouterr().err == "infodist: one nonnegative rate per session required\n"


def test_rate_zero_denominator_exit_1(capsys):
    assert main(["rate", "fig1a", "--rate", "1/0,1"]) == 1
    assert capsys.readouterr().err.startswith("infodist: ")


@pytest.mark.parametrize("modes", [[], ["--rate", "1,1", "--direction", "1,1"]])
def test_rate_needs_exactly_one_mode_exit_1(capsys, modes):
    assert main(["rate", "fig1a", *modes]) == 1
    assert capsys.readouterr().err == "infodist: exactly one of --rate/--direction required\n"


@pytest.mark.parametrize("mode, err", [
    (["--rate=-1,1"], "rates must be nonnegative"),
    (["--rate", "1"], "one rate per session required"),
    (["--direction", "1"], "one direction entry per session required"),
])
def test_rate_vector_outside_the_domain_exit_1(capsys, mode, err):
    assert main(["rate", "fig1a", *mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infodist: {err}\n"


def _usage_error(capsys, argv) -> str:
    """main's exit code is 1, not argparse's 2; return its one-line stderr."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    return captured.err


def test_unknown_subcommand_exit_1(capsys):
    err = _usage_error(capsys, ["bogus"])
    assert err.startswith("infodist: argument command: invalid choice: 'bogus'")


def test_missing_required_argument_exit_1(capsys):
    err = _usage_error(capsys, ["audit", "fig1a", "--witness", "w.json"])
    assert err == "infodist audit: the following arguments are required: --code\n"


def test_option_like_direction_value_exit_1(capsys):
    # argparse reads "-1,1" as an option, not as --direction's value.
    err = _usage_error(capsys, ["rate", "corpus/fig1a.json", "--direction", "-1,1"])
    assert err == "infodist rate: argument --direction: expected one argument\n"


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["rate", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_gen_code_without_a_decodable_sample_exit_1(capsys):
    # Seed 0's first GF(2) code for fig1a does not decode.
    code, data = run(capsys, "gen-code", "fig1a", "--rates", "1,1", "--field", "2",
                     "--decodable", "--attempts", "1")
    assert code == 1
    assert data["result"] == {"error": "no decodable code found"}
    assert run(capsys, "gen-code", "fig1a", "--rates", "1,1", "--field", "2", "--decodable")[0] == 0


def test_session_source_equal_to_sink_exit_1(tmp_path, capsys):
    path = tmp_path / "loop-session.json"
    path.write_text(json.dumps({
        "nodes": ["s", "d", "x"],
        "edges": [{"tail": "s", "head": "d", "index": 0}],
        "sessions": [{"source": "s", "sink": "d"}, {"source": "x", "sink": "x"}],
    }))
    assert main(["rate", str(path), "--direction", "0,1"]) == 1
    assert "session 2" in capsys.readouterr().err


def test_check_20_parallel_edges(tmp_path, capsys):
    net = tmp_path / "parallel20.json"
    net.write_text(json.dumps({
        "nodes": ["s", "d"],
        "edges": [{"tail": "s", "head": "d", "index": i} for i in range(20)],
        "sessions": [{"source": "s", "sink": "d"}],
    }))
    code, data = run(capsys, "check", str(net))
    assert code == 0
    assert data["result"]["status"] == "yes"


def test_check_1100_parallel_edges(tmp_path, capsys):
    # One path-family slot per cut edge: 1100 slots, past the default
    # recursion limit.
    net = tmp_path / "parallel1100.json"
    net.write_text(json.dumps({
        "nodes": ["s", "d"],
        "edges": [{"tail": "s", "head": "d", "index": i} for i in range(1100)],
        "sessions": [{"source": "s", "sink": "d"}],
    }))
    code, data = run(capsys, "check", str(net))
    assert code == 0
    assert data["result"]["status"] == "yes"


def test_reduce_deadline_fig4(capsys):
    code, data = run(capsys, "reduce-deadline", "fig4-deadline")
    assert code == 0
    result = data["result"]
    assert result["verdict"]["status"] == "yes"
    assert result["session0_mincut"] == 3
    assert result["injection_width"] == 3


def test_gen_code_then_audit_pipeline(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    wit_path = tmp_path / "wit.json"
    rc, data = run(capsys, "gen-code", "fig1a", "--rates", "1,1", "--field", "5",
                   "--seed", "11", "--decodable")
    assert rc == 0 and all(data["result"]["decodable"])
    code_path.write_text(json.dumps(data["result"]))
    rc, data = run(capsys, "check", "fig1a")
    wit_path.write_text(json.dumps(data["result"]["witness"]))
    rc, data = run(capsys, "audit", "fig1a", "--code", str(code_path),
                   "--witness", str(wit_path), "--seed", "3")
    assert rc == 0
    assert data["result"]["audit"]["ok"] is True
    assert data["result"]["scheme_ok"] is True


def test_audit_zero_code_all_pass_with_zeros(tmp_path, capsys):
    code_path = tmp_path / "zero.json"
    wit_path = tmp_path / "wit.json"
    net = corpus.load("fig1a")
    zero = {
        "field": 2,
        "rates": [1, 1],
        "locals": [{"edge": e, "coeffs": []} for e in range(len(net["edges"]))],
    }
    code_path.write_text(json.dumps(zero))
    _, data = run(capsys, "check", "fig1a")
    wit_path.write_text(json.dumps(data["result"]["witness"]))
    rc, data = run(capsys, "audit", "fig1a", "--code", str(code_path),
                   "--witness", str(wit_path))
    assert rc == 0
    assert data["result"]["decodable"] == [False, False]
    assert data["result"]["extracted_scheme"]["flows"] == []


def test_audit_corrupted_scheme_names_edge(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    wit_path = tmp_path / "wit.json"
    scheme_path = tmp_path / "scheme.json"
    _, data = run(capsys, "gen-code", "fig1a", "--rates", "1,1", "--field", "5",
                  "--seed", "11", "--decodable")
    code_path.write_text(json.dumps(data["result"]))
    _, data = run(capsys, "check", "fig1a")
    wit_path.write_text(json.dumps(data["result"]["witness"]))
    # two units down one path: overloads its first edge
    scheme_path.write_text(json.dumps(
        {"flows": [{"session": 1, "path": [0, 1, 2], "value": "2"},
                   {"session": 2, "path": [4, 5, 6, 8], "value": "1"}]}
    ))
    rc, data = run(capsys, "audit", "fig1a", "--code", str(code_path),
                   "--witness", str(wit_path), "--scheme", str(scheme_path))
    assert rc == 10
    assert data["result"]["scheme_ok"] is False
    assert data["result"]["scheme_violation"] == ["capacity", 0]


def test_audit_reports_negative_flow(tmp_path, capsys):
    code_path = tmp_path / "code.json"
    wit_path = tmp_path / "wit.json"
    scheme_path = tmp_path / "scheme.json"
    _, data = run(capsys, "gen-code", "single-edge", "--rates", "1", "--field", "5",
                  "--seed", "0", "--decodable")
    code_path.write_text(json.dumps(data["result"]))
    _, data = run(capsys, "check", "single-edge")
    wit_path.write_text(json.dumps(data["result"]["witness"]))
    scheme_path.write_text(json.dumps(
        {"flows": [{"session": 1, "path": [0], "value": "-1"}]}
    ))
    rc, data = run(capsys, "audit", "single-edge", "--code", str(code_path),
                   "--witness", str(wit_path), "--scheme", str(scheme_path))
    assert rc == 10
    assert data["result"]["scheme_ok"] is False
    assert data["result"]["scheme_violation"] == ["negative", 1, [0]]


def test_audit_reduces_oversized_coefficients(tmp_path, capsys):
    _, data = run(capsys, "gen-code", "fig1a", "--rates", "1,1", "--field", "5",
                  "--seed", "11", "--decodable")
    code = data["result"]
    _, data = run(capsys, "check", "fig1a")
    wit_path = tmp_path / "wit.json"
    wit_path.write_text(json.dumps(data["result"]["witness"]))
    outputs = []
    for value in (2**70, 2**70 % code["field"]):
        for entry in code["locals"]:
            for coeff in entry["coeffs"]:
                coeff["value"] = value
        code_path = tmp_path / f"code-{value}.json"
        code_path.write_text(json.dumps(code))
        rc = main(["audit", "fig1a", "--code", str(code_path), "--witness", str(wit_path)])
        outputs.append((rc, capsys.readouterr().out))
    assert outputs[0][0] in (0, 10)
    assert outputs[0] == outputs[1]


def test_field_of_2_64_or_more_rejected(capsys):
    argv = ["gen-code", "fig1a", "--rates", "1,1", "--field"]
    assert main(argv + [str(2**64 + 13)]) == 1
    assert "2^64" in capsys.readouterr().err
    assert main(argv + [str(2**61 - 1)]) == 0


def _fresh_python(program: str, *args: str) -> str:
    """Stdout of `program` run by a new interpreter that imports infodist from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", program, *args],
                          env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_does_not_load_numpy():
    assert _fresh_python("import infodist.cli, sys; print('numpy' in sys.modules)").strip() == "False"


def test_library_import_loads_neither_dataclasses_nor_inspect():
    """The modules that importing the library adds to what the interpreter
    had already loaded include neither: each costs every CLI call start-up."""
    added = _fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import infodist.cli, infodist.witnesses, infodist.rateregion, infodist.reductions\n"
        "import infodist.codes, infodist.simplex, infodist.gfmatrix\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert added.strip() == "[]"


BASE_LAYERS = {"infodist", "infodist.cli", "infodist.corpus", "infodist.errors", "infodist.graph"}
CODE_LAYERS = {"infodist.codes", "infodist.gfmatrix", "infodist.rateregion", "infodist.simplex",
               "infodist.witnesses"}
# case: (argv, the infodist modules the call loads beyond BASE_LAYERS)
SUBCOMMAND_LAYERS = {
    "check": (["check", "fig1a"], {"infodist.witnesses"}),
    "rate": (["rate", "fig1a", "--rate", "1,1"], {"infodist.rateregion", "infodist.simplex"}),
    "reduce-index": (["reduce-index", "fig3-index"], {"infodist.reductions", "infodist.witnesses"}),
    "reduce-deadline": (["reduce-deadline", "fig4-deadline"],
                        {"infodist.reductions", "infodist.witnesses"}),
    "audit": (["audit", "fig1a", "--code", str(GOLDEN_INPUTS / "fig1a-code.json"),
               "--witness", str(GOLDEN_INPUTS / "fig1a-witness.json")], CODE_LAYERS),
    "gen-code": (["gen-code", "fig1a", "--rates", "1,1", "--field", "5", "--decodable"],
                 {"infodist.codes", "infodist.gfmatrix"}),
}


@pytest.mark.parametrize("case", sorted(SUBCOMMAND_LAYERS))
def test_subcommand_imports_only_its_layers(case):
    argv, layers = SUBCOMMAND_LAYERS[case]
    out = _fresh_python(
        "import json, sys\n"
        "from infodist.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, json.dumps(sorted(m for m in sys.modules if m.startswith('infodist'))))",
        *argv,
    )
    code, loaded = out.splitlines()[-1].split(" ", 1)
    assert code == "0"
    assert set(json.loads(loaded)) == BASE_LAYERS | layers


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "fig1b", "--seed", "7", "--output", str(out1)]) == 0
    assert main(["check", "fig1b", "--seed", "7", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.json"
    assert main(["reduce-deadline", "fig4-deadline", "--output", str(out3)]) == 0
    out4 = tmp_path / "d.json"
    assert main(["reduce-deadline", "fig4-deadline", "--output", str(out4)]) == 0
    assert out3.read_bytes() == out4.read_bytes()


def test_strict_def5_flag_accepted(capsys):
    code, data = run(capsys, "check", "fig1a", "--strict-def5")
    assert code == 0
    assert data["config"]["strict_def5"] is True


def test_no_reindex_flag(capsys):
    code, data = run(capsys, "check", "fig1a", "--no-reindex-sessions")
    assert code == 0
    assert data["result"]["search_stats"]["orders_tried"] == 1


def test_nonpositive_budget_rejected(capsys):
    assert main(["check", "fig1a", "--budget", "0"]) == 1
    assert main(["check", "fig1a", "--max-seconds", "0"]) == 1


@pytest.mark.parametrize("argv", [
    ["check", "fig1a", "--max-seconds", "nan"],
    ["check", "fig1a", "--max-seconds", "inf"],
    ["rate", "fig1a", "--direction", "1,1", "--path-limit", "0"],
    ["rate", "fig1a", "--direction", "1,1", "--path-limit", "-5"],
    ["gen-code", "fig1a", "--rates", "1,1", "--field", "5", "--decodable", "--attempts", "0"],
    ["gen-code", "fig1a", "--rates", "1,1", "--field", "5", "--decodable", "--attempts", "-3"],
])
def test_out_of_range_limit_rejected(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"infodist: {argv[-2]} must be positive")


def test_negative_prop_samples_rejected(capsys):
    assert main(["audit", "fig1a", "--code", str(GOLDEN_INPUTS / "fig1a-code.json"),
                 "--witness", str(GOLDEN_INPUTS / "fig1a-witness.json"),
                 "--prop-samples", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "infodist: --prop-samples must be nonnegative\n"


@pytest.mark.parametrize("argv, err", [
    (["gen-code", "fig1a", "--rates", "1,x"], "infodist: --rates: 'x' is not an integer\n"),
    (["gen-code", "fig1a", "--rates", "1,1/2"], "infodist: --rates: '1/2' is not an integer\n"),
    (["rate", "fig1a", "--rate", "1,x"], "infodist: --rate: 'x' is not a number\n"),
    (["rate", "fig1a", "--direction", "1,x"], "infodist: --direction: 'x' is not a number\n"),
    (["rate", "fig1a", "--rate", "1/0,1"], "infodist: --rate: zero denominator in '1/0,1'\n"),
    (["rate", "fig1a", "--rate", "1,,1"], "infodist: --rate: '' is not a number\n"),
    (["rate", "fig1a", "--rate", "1,1,"], "infodist: --rate: '' is not a number\n"),
    (["rate", "fig1a", "--direction", "1,,1"], "infodist: --direction: '' is not a number\n"),
    (["rate", "fig1a", "--direction", "1,1, "], "infodist: --direction: '' is not a number\n"),
])
def test_unparsable_vector_names_its_flag(capsys, argv, err):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("argv, name, exit_code", GOLDEN_CASES)
def test_stdout_matches_golden_file(capsys, argv, name, exit_code):
    assert main(argv) == exit_code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["check", "{bad}"],
    ["reduce-deadline", "{bad}"],
    ["audit", "fig1a", "--code", "{bad}", "--witness", str(GOLDEN_INPUTS / "fig1a-witness.json")],
    ["audit", "fig1a", "--code", str(GOLDEN_INPUTS / "fig1a-code.json"), "--witness", "{bad}"],
], ids=["network", "instance", "code", "witness"])
def test_non_json_input_names_its_file_exit_1(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main([a.format(bad=bad) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infodist: {bad}: Expecting value: line 1 column 1 (char 0)\n"


@pytest.mark.parametrize("sink, delay, message", [
    ("x", 1, "the sink is not reachable from the source"),
    ("a", 2, "deadline 1 below the fastest source-sink delay (2)"),
], ids=["unreachable", "too-slow"])
def test_reduce_deadline_without_a_timely_path_exit_1(tmp_path, capsys, sink, delay, message):
    inst = tmp_path / "deadline.json"
    inst.write_text(json.dumps({"edges": [{"tail": "s", "head": "a", "delay": delay}],
                                "source": "s", "sink": sink, "tau": 1}))
    assert main(["reduce-deadline", str(inst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infodist: {inst}: {message}\n"


def test_reduce_deadline_truncated_paths_exit_20(monkeypatch, capsys):
    monkeypatch.setattr(reductions, "PATH_LIMIT", 1)
    code, data = run(capsys, "reduce-deadline", "fig4-deadline")
    assert code == 20
    assert data["result"]["verdict"] == {"status": "unknown"}


def test_audit_witness_missing_a_path_set_exit_1(tmp_path, capsys):
    wit = json.loads((GOLDEN_INPUTS / "fig1a-witness.json").read_text(encoding="utf-8"))
    wit["paths"] = wit["paths"][:1]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(wit))
    assert main(["audit", "fig1a", "--code", str(GOLDEN_INPUTS / "fig1a-code.json"),
                 "--witness", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "infodist: witness fails ('paths', 'one path set per session required')\n")


@pytest.mark.parametrize("corrupt, failure", [
    (lambda wit: {**wit, "cuts": wit["cuts"][:-1]},
     ('cuts', 'one cut-set per session required')),
    (lambda wit: {**wit, "perms": wit["perms"][:-1]},
     ('perms', 'one permutation per cut-set required')),
    (lambda wit: {**wit, "paths": [wit["paths"][0] + wit["paths"][0][:1], *wit["paths"][1:]]},
     ('paths', 'session 1 has 4 paths for a cut-set of 3 edges')),
], ids=["one-cut-set-short", "one-permutation-short", "one-path-more"])
def test_audit_witness_of_the_wrong_shape_exit_1(tmp_path, capsys, corrupt, failure):
    wit = json.loads((GOLDEN_INPUTS / "fig1a-witness.json").read_text(encoding="utf-8"))
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(corrupt(wit)))
    assert main(["audit", "fig1a", "--code", str(GOLDEN_INPUTS / "fig1a-code.json"),
                 "--witness", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infodist: witness fails {failure}\n"


def test_code_repeated_locals_edge_exit_1(tmp_path, capsys):
    code = json.loads((GOLDEN_INPUTS / "fig1a-code.json").read_text(encoding="utf-8"))
    code["locals"].append({"edge": 0, "coeffs": []})
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code))
    assert main(["audit", "fig1a", "--code", str(path),
                 "--witness", str(GOLDEN_INPUTS / "fig1a-witness.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"infodist: {path}: locals list edge 0 twice\n"


def _valid_inputs(capsys) -> dict:
    """One valid file per input kind, as JSON objects (fig1a for the audit)."""
    _, code = run(capsys, "gen-code", "fig1a", "--rates", "1,1", "--field", "5",
                  "--seed", "11", "--decodable")
    _, checked = run(capsys, "check", "fig1a")
    return {
        "network": corpus.load("fig1a"),
        "instance": corpus.load("fig4-deadline"),
        "code": code["result"],
        "witness": checked["result"]["witness"],
        "scheme": {"flows": [{"session": 1, "path": [0, 1, 2], "value": "1"}]},
    }


# case: (command, input it corrupts, the corruption)
WRONG_TYPES = {
    "check-nodes-null": ("check", "network", lambda net: {**net, "nodes": None}),
    "check-edges-int": ("check", "network", lambda net: {**net, "edges": 5}),
    "rate-nodes-null": ("rate", "network", lambda net: {**net, "nodes": None}),
    "rate-edges-int": ("rate", "network", lambda net: {**net, "edges": 5}),
    "deadline-delay-null": ("reduce-deadline", "instance", lambda dl: {
        **dl, "edges": [{**dl["edges"][0], "delay": None}, *dl["edges"][1:]]}),
    "deadline-injection-list": ("reduce-deadline", "instance", lambda dl: {**dl, "injection": [1]}),
    # Integer fields: int() would read 1.5 as 1 and true as 1, and fail on
    # Infinity with an OverflowError.
    "deadline-delay-float": ("reduce-deadline", "instance", lambda dl: {
        **dl, "edges": [{**dl["edges"][0], "delay": 1.5}, *dl["edges"][1:]]}),
    "deadline-delay-infinite": ("reduce-deadline", "instance", lambda dl: {
        **dl, "edges": [{**dl["edges"][0], "delay": float("inf")}, *dl["edges"][1:]]}),
    "deadline-memory-bool": ("reduce-deadline", "instance", lambda dl: {**dl, "memory": True}),
    "check-edge-index-float": ("check", "network", lambda net: {
        **net, "edges": [{**net["edges"][0], "index": 1.9}, *net["edges"][1:]]}),
    "deadline-edges-object": ("reduce-deadline", "instance", lambda dl: {
        **dl, "edges": {"0": dl["edges"][0]}}),
    "index-side-null": ("reduce-index", "instance", lambda _: {"K": 2, "m": 1, "side": [None, [1]]}),
    "audit-witness-cuts-int": ("audit", "witness", lambda wit: {**wit, "cuts": 5}),
    "audit-witness-order-null": ("audit", "witness", lambda wit: {**wit, "session_order": None}),
    "audit-code-locals-int": ("audit", "code", lambda code: {**code, "locals": 7}),
    "audit-scheme-path-null": ("audit", "scheme", lambda _: {
        "flows": [{"session": 1, "path": None, "value": "1"}]}),
}
ARGV = {
    "check": ["{network}"],
    "rate": ["{network}", "--direction", "1,1"],
    "reduce-deadline": ["{instance}"],
    "reduce-index": ["{instance}"],
    "audit": ["{network}", "--code", "{code}", "--witness", "{witness}", "--scheme", "{scheme}"],
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrong_type_json_field_exit_1(tmp_path, capsys, case):
    command, key, corrupt = WRONG_TYPES[case]
    files = _valid_inputs(capsys)
    files[key] = corrupt(files[key])
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    assert main([command] + [a.format(**paths) for a in ARGV[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("infodist: ") and "Traceback" not in err


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


def _first_coeff(code: dict, change) -> dict:
    first, *rest = code["locals"]
    coeff, *others = first["coeffs"]
    return {**code, "locals": [{**first, "coeffs": [change(coeff), *others]}, *rest]}


# case: (command, input it corrupts, the corruption, what stderr must name)
MISSING_KEYS = {
    "check-network-edges": ("check", "network", lambda net: _without(net, "edges"),
                            "missing key 'edges'"),
    "deadline-tau": ("reduce-deadline", "instance", lambda dl: _without(dl, "tau"),
                     "missing key 'tau'"),
    "deadline-edge-head": ("reduce-deadline", "instance", lambda dl: {
        **dl, "edges": [_without(dl["edges"][0], "head"), *dl["edges"][1:]]}, "missing key 'head'"),
    "index-side": ("reduce-index", "instance", lambda _: {"K": 2}, "missing key 'side'"),
    "audit-witness-perms": ("audit", "witness", lambda wit: _without(wit, "perms"),
                            "missing key 'perms'"),
    "audit-code-rates": ("audit", "code", lambda code: _without(code, "rates"),
                         "missing key 'rates'"),
    "audit-code-coeff-value": ("audit", "code", lambda code: _first_coeff(
        code, lambda c: _without(c, "value")), "missing key 'value'"),
    "audit-code-from-three-parts": ("audit", "code", lambda code: _first_coeff(
        code, lambda c: {**c, "from": "session 1:2:3"}), "from 'session 1:2:3'"),
    "audit-scheme-value": ("audit", "scheme", lambda scheme: {
        "flows": [_without(scheme["flows"][0], "value")]}, "missing key 'value'"),
}


@pytest.mark.parametrize("case", sorted(MISSING_KEYS))
def test_missing_json_key_names_file_and_field_exit_1(tmp_path, capsys, case):
    command, key, corrupt, named = MISSING_KEYS[case]
    files = _valid_inputs(capsys)
    files[key] = corrupt(files[key])
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    assert main([command] + [a.format(**paths) for a in ARGV[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"infodist: {paths[key]}: ")
    assert named in captured.err and "Traceback" not in captured.err


def _with_first(data: dict, key: str, change) -> dict:
    first, *rest = data[key]
    return {**data, key: [change(first), *rest]}


# case: (command, input it corrupts, the corruption, what stderr must name)
BAD_VALUES = {
    "check-duplicate-node": ("check", "network", lambda net: {
        **net, "nodes": [*net["nodes"], net["nodes"][0]]}, "duplicate node id"),
    "check-session-endpoint": ("check", "network", lambda net: _with_first(
        net, "sessions", lambda ses: {**ses, "source": "nowhere"}), "source 'nowhere' not a node"),
    "check-edge-head": ("check", "network", lambda net: _with_first(
        net, "edges", lambda e: _without(e, "head")), "edge 0 missing 'head'"),
    "check-edge-length": ("check", "network", lambda net: _with_first(
        net, "edges", lambda e: [e["tail"]]), "edge 0 malformed"),
    "check-session-length": ("check", "network", lambda net: _with_first(
        net, "sessions", lambda ses: [ses["source"], ses["sink"], 0]), "session 0 malformed"),
    "index-K-zero": ("reduce-index", "instance", lambda _: {"K": 0, "side": []},
                     "K and m must be positive"),
    "index-side-unknown": ("reduce-index", "instance", lambda _: {"K": 2, "side": [[3], []]},
                           "side set of terminal 1 references unknown message"),
    "deadline-tau-zero": ("reduce-deadline", "instance", lambda dl: {**dl, "tau": 0},
                          "tau must be >= 1"),
    "deadline-delay-zero": ("reduce-deadline", "instance", lambda dl: _with_first(
        dl, "edges", lambda e: {**e, "delay": 0}), "needs a positive delay"),
    "deadline-node-at": ("reduce-deadline", "instance", lambda dl: _with_first(
        dl, "edges", lambda e: {**e, "head": "v@1"}), "node name 'v@1' may not contain '@'"),
    "deadline-injection-zero": ("reduce-deadline", "instance", lambda dl: {
        **dl, "injection": 0}, "injection width must be >= 1"),
    "deadline-source-is-sink": ("reduce-deadline", "instance", lambda _: {
        "edges": [{"tail": "a", "head": "b", "delay": 1}], "source": "a", "sink": "a", "tau": 1},
        "source and sink are both 'a'"),
    "check-session-no-sink": ("check", "network", lambda net: _with_first(
        net, "sessions", lambda ses: _without(ses, "sink")), "session 0 missing 'sink'"),
    "check-session-sink": ("check", "network", lambda net: _with_first(
        net, "sessions", lambda ses: {**ses, "sink": "nowhere"}), "sink 'nowhere' not a node"),
    "index-one-side-set-short": ("reduce-index", "instance", lambda _: {"K": 2, "side": [[2]]},
                                 "one side set per terminal required"),
    "audit-code-symbol": ("audit", "code", lambda code: _first_coeff(
        code, lambda c: {**c, "from": "session 1:5"}), "session 1 has no symbol 5"),
    "audit-scheme-zero-denominator": ("audit", "scheme", lambda scheme: {"flows": [
        {**scheme["flows"][0], "value": "1/0"}]}, "value '1/0' is not a number"),
    "audit-scheme-value-word": ("audit", "scheme", lambda scheme: {"flows": [
        {**scheme["flows"][0], "value": "x"}]}, "value 'x' is not a number"),
    "audit-scheme-flow-int": ("audit", "scheme", lambda _: {"flows": [1]},
                              "flows must be an object, got int"),
    "audit-scheme-session": ("audit", "scheme", lambda scheme: {"flows": [
        {**scheme["flows"][0], "session": 3}]}, "session 3 out of range"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_json_value_names_file_and_field_exit_1(tmp_path, capsys, case):
    command, key, corrupt, named = BAD_VALUES[case]
    files = _valid_inputs(capsys)
    files[key] = corrupt(files[key])
    paths = {}
    for name, data in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    assert main([command] + [a.format(**paths) for a in ARGV[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"infodist: {paths[key]}: ")
    assert named in captured.err and "Traceback" not in captured.err
